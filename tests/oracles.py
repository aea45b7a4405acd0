"""Reference solutions written from the definitions, independent of smolkit."""

import numpy as np


def fine_rk4_constant_kernel(n_max, t_final, dt):
    """Fixed-step RK4 of the truncated constant-kernel system from unit
    monodisperse data, written directly from the gain/loss definitions: the
    gain of a unit kernel is the self-convolution, and cutoff losses are
    2 c_n times the prefix sum over partners up to n_max - n."""
    c = np.zeros(n_max)
    c[0] = 1.0

    def rhs(c):
        gain = np.concatenate(([0.0], np.convolve(c, c)[: n_max - 1]))
        prefix = np.concatenate(([0.0], np.cumsum(c)))
        partners = prefix[np.maximum(n_max - 1 - np.arange(n_max), 0)]
        return gain - 2.0 * c * partners

    for _ in range(int(round(t_final / dt))):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return c
