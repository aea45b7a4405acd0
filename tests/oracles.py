"""Reference solutions written from the definitions.

``fine_rk4_constant_kernel`` is independent of smolkit.  ``rk4_reaction_step``
takes a smolkit rate evaluator and is the RK4 reaction substep written out of
place, every stage field and slope a new array: the arithmetic that the
integrator's buffered step must reproduce bit for bit.  ``weighted_sum`` is
the dense pair form of sum_n phi(n) Q_n, the oracle of the pair identity.
"""

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


def rk4_reaction_step(evaluator, flat, gel, dt, cell_volume):
    """One RK4 reaction substep of (flat, gel) by ``evaluator.rates``, out of place."""
    k1, g1 = evaluator.rates(flat)
    k2, g2 = evaluator.rates(flat + 0.5 * dt * k1)
    k3, g3 = evaluator.rates(flat + 0.5 * dt * k2)
    k4, g4 = evaluator.rates(flat + dt * k3)
    new = flat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    gel_rate = (g1 + 2.0 * g2 + 2.0 * g3 + g4).sum() * cell_volume
    return new, gel + (dt / 6.0) * float(gel_rate)


def weighted_sum(F, kernel, phi, policy):
    """Per-cell pair form sum alpha(n,m) (phi(n+m) - phi(n) - phi(m)) f_n f_m.

    ``phi`` must be defined on 1..2*n_max.  Pair admissibility follows the
    policy, making this identically equal to sum_n phi(n) * Q_n from
    ``RateEvaluator.rates``: under cutoff, overflowing pairs drop entirely;
    under the gel reservoir the phi(n+m) credit is dropped but the losses
    remain.  With phi(n) = n and cutoff, the sum telescopes to zero.
    """
    if policy.n_max != F.n_max:
        raise ValueError("policy n_max must match the field")
    N = F.n_max
    phis = np.array([float(phi(n)) for n in range(1, 2 * N + 1)])
    idx = np.arange(1, N + 1)
    s = idx[:, None] + idx[None, :]
    credit = phis[s - 1]
    debit = phis[idx - 1][:, None] + phis[idx - 1][None, :]
    if policy.kind == "cutoff":
        form = np.where(s <= N, credit - debit, 0.0)
    else:
        form = np.where(s <= N, credit, 0.0) - debit
    B = kernel.dense(N) * form
    flat = F.flat()
    out = np.einsum("nc,nc->c", flat, B @ flat)
    return out.reshape(F.grid.shape)
