"""Reference solutions written from the definitions.

``fine_rk4_constant_kernel`` is independent of smolkit.  ``rk4_reaction_step``
takes a smolkit rate evaluator and is the RK4 reaction substep written out of
place, every stage field and slope a new array: the arithmetic that the
integrator's buffered step must reproduce bit for bit.  ``weighted_sum`` is
the dense pair form of sum_n phi(n) Q_n, the oracle of the pair identity.
``family_rate`` is each kernel family's defining formula, the oracle of the
factors that ``Kernel`` evaluates instead.
``advance_chunk_slice`` and ``sample_chunk_initial`` are the tracer's chunk
stepper and initial sampler as they were before their fast paths, which
must reproduce them bit for bit.
``run_keeping_fields`` is ``integrator.run`` with the recorded states kept,
which leave a run only through its ``on_stride`` callback.
"""

import numpy as np

from smolkit import tracer
from smolkit.integrator import run


def run_keeping_fields(F0, kernel, dp, cfg):
    """``run(F0, kernel, dp, cfg)`` and its (n_max, n_cells) state at every
    recorded stride, as ``on_stride`` hands them out: ``(record, fields)``."""
    fields = []
    rec = run(F0, kernel, dp, cfg, on_stride=lambda i, t, flat, gel: fields.append(flat))
    return rec, fields


def family_rate(kind, params, n, m):
    """alpha(n, m) of a formula family, broadcast over integer masses n and m:
    c, c0 (n+m), (n m)^a, n^a m^b + n^b m^a, or c (d(n)+d(m)) (r(n)+r(m))^(dim-2)."""
    nf, mf = np.asarray(n, dtype=float), np.asarray(m, dtype=float)
    if kind == "constant":
        return np.full(np.broadcast_shapes(nf.shape, mf.shape), params["c"])
    if kind == "sum":
        return params["c0"] * (nf + mf)
    if kind == "product":
        return (nf * mf) ** params["a"]
    if kind == "two_exponent":
        a, b = params["a"], params["b"]
        return nf**a * mf**b + nf**b * mf**a
    if kind == "range_derived":
        d, r = params["diffusion"], params["range"]
        return params["c"] * (d.value(n) + d.value(m)) * (r.value(nf) + r.value(mf)) ** (params["dim"] - 2)
    raise ValueError(f"no formula for kernel kind {kind!r}")


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


def advance_chunk_slice(
    pos: np.ndarray,
    mass: np.ndarray,
    alive: np.ndarray,
    collisions: np.ndarray,
    rates,
    grid,
    dp,
    slice_dt: float,
    rng: np.random.Generator,
    immortal: bool,
):
    """The chunk stepper that rescans the chunk on every thinning pass.

    The tracer's stepper before it carried its active set between passes,
    unchanged apart from the package names; the carried stepper must match
    it bit for bit.  Advances all chunk trajectories across one frozen
    slice, in place.

    ``rates`` is only read; tracers past its range switch this call to a
    private larger table (:meth:`_FrozenRates.covering`).  Returns the
    slice's thinning counts.
    """
    proposals = accepted_total = extensions = 0
    remaining = np.where(alive, slice_dt, 0.0)
    while True:
        active = np.flatnonzero(remaining > 0.0)
        if active.size == 0:
            return tracer.ThinningCounts(proposals, accepted_total, extensions)
        m_act = mass[active]
        wider = rates.covering(int(m_act.max()))
        if wider is not rates:
            rates = wider
            extensions += 1
        lam_bar = rates.lam_bar[m_act - 1]
        draws = rng.exponential(size=active.size)
        tau = np.divide(draws, lam_bar, out=np.full(active.size, np.inf), where=lam_bar > 0)
        rem = remaining[active]
        advance = np.minimum(tau, rem)
        sigma = np.sqrt(2.0 * dp.values[np.minimum(m_act, dp.n_max) - 1] * advance)
        step = rng.normal(size=(active.size, grid.dim))
        step *= sigma[:, None]
        step += pos[active]
        np.remainder(step, grid.length, out=step)
        pos[active] = step
        remaining[active] = rem - advance
        proposed = tau < rem
        if not proposed.any():
            continue
        p_idx = active[proposed]
        proposals += p_idx.size
        cells = tracer._cell_index(pos[p_idx], grid)
        u = rng.uniform(size=p_idx.size)
        accepted = u * lam_bar[proposed] < rates.local(mass[p_idx], cells)
        if not accepted.any():
            continue
        a_idx = p_idx[accepted]
        accepted_total += a_idx.size
        a_cells = cells[accepted]
        w = rates.partner_weights(mass[a_idx], a_cells)
        cum = np.cumsum(w, axis=0)
        r = rng.uniform(size=a_idx.size) * cum[-1]
        partner = (cum < r[None, :]).sum(axis=0).astype(np.int64) + 1
        np.minimum(partner, rates.n_max, out=partner)
        collisions[a_idx] += 1
        if immortal:
            mass[a_idx] += partner
        else:
            survive = rng.uniform(size=a_idx.size) < mass[a_idx] / (mass[a_idx] + partner)
            mass[a_idx[survive]] += partner[survive]
            died = a_idx[~survive]
            alive[died] = False
            remaining[died] = 0.0


def sample_chunk_initial(
    mass_cdf: np.ndarray, row_cum: np.ndarray, grid, n_traj: int, rng: np.random.Generator
):
    """The initial sampler that gathers an (n_traj, cells) prefix-sum matrix.

    The tracer's sampler before it searched one mass row at a time; the
    draws must be identical.
    """
    mass = np.searchsorted(mass_cdf, rng.uniform(size=n_traj)).astype(np.int64) + 1
    cum = row_cum[mass - 1]
    r = rng.uniform(size=n_traj) * cum[:, -1]
    cells = (cum < r[:, None]).sum(axis=1)
    idx = np.stack(np.unravel_index(cells, grid.shape), axis=-1).astype(float)
    pos = (idx + rng.uniform(size=(n_traj, grid.dim))) * grid.h
    return pos, mass
