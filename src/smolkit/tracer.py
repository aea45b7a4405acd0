"""Tracer-particle Monte Carlo: a jump-diffusion whose law follows the field.

A tracer carries a position on the torus and an integer mass m.  While its
mass is m it diffuses with per-coordinate displacement variance 2*d(m)*dt
(the same convention as the d(n)-Laplacian used by the PDE solver, which is
what makes the comparison meaningful).  Against a frozen field f it
attempts a mass transition m -> n+m at rate

    2 * alpha(n, m) * f_n(x)        for every partner mass n,

succeeding with probability m/(n+m) and otherwise moving to the absorbing
cemetery state.  The factor 2 is the tagged-particle collision rate implied
by the solver's loss term ``2 f_n sum_m alpha f_m``: with it, the tracer's
sub-probability density solves the same linear evolution equation as
f_n / M0, so ensemble histograms can be compared bin-by-bin against the
deterministic solution (:func:`density_consistency`).

Jumps inside a frozen slice are simulated exactly by thinning: proposals
are drawn from the per-mass rate bound max_x Lambda(x) and accepted with
the position-dependent ratio, with the Brownian increment advanced to each
proposal time.  Field values at the tracer position are nearest-cell
lookups, matching the histogram binning so that no interpolation mismatch
enters the density comparison.  A chunk's thinning passes touch only its
active tracers: each pass carries the tracers that drew a proposal and
survived it, with their remaining slice time, into the next.  Initial cells
are found by one search per mass in that species' cell prefix sums.

:func:`simulate` is the one stepping path; one trajectory is an ensemble
of count one, and dead tracers are a per-histogram ``cemetery`` count.
Ensembles are simulated in fixed-size chunks, each owning a counter-based
RNG substream keyed by (seed, chunk index).  With ``workers > 1`` the chunks
run in forked worker processes through :func:`smolkit._fork.fork_map`
(numpy-heavy chunk loops hold the GIL, so threads would not run them in
parallel); chunk results merge in chunk order, so outputs are bit-identical
for any worker count.

The attempt-rate tables are built once per simulation, before any chunk
runs: the kernel columns once, and one rate table per frozen slice.  Every
chunk reads them and none writes them (their arrays are read-only).  A
chunk whose tracers outgrow a table's mass range builds a private, larger
table for the rest of that slice, so growth never touches shared state and
cannot depend on how chunks are scheduled or which process runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from ._fork import fork_map
from .field import Grid, MassField
from .kernels import DiffusionProfile, Kernel

__all__ = [
    "TracerEnsemble",
    "TracerHistogram",
    "ThinningCounts",
    "ConsistencyReport",
    "simulate",
    "density_consistency",
]

# Trajectories per RNG substream; fixed so that results do not depend on the
# worker count used to schedule the chunks.  Any other value draws other
# trajectories; :func:`simulate` reads it at each call.
CHUNK_SIZE = 8192

# z-scores are only reported for bins whose expected count is at least this
# (the binomial normal approximation is meaningless on near-empty bins).
Z_MIN_EXPECTED = 10.0


@dataclass
class TracerHistogram:
    """(mass, cell) occupation counts of an ensemble at one time.

    ``counts[m-1, c]`` counts live tracers of mass m <= n_max in cell c;
    ``overflow[c]`` counts live tracers grown beyond n_max; ``cemetery``
    the absorbed ones.  Rows sum to ``total`` exactly.
    """

    time: float
    counts: np.ndarray
    overflow: np.ndarray
    cemetery: int
    total: int


@dataclass
class TracerEnsemble:
    """Ensemble description plus, after simulation, its histograms.

    The ``count`` trajectories are simulated in chunks of ``CHUNK_SIZE``,
    each on its own RNG substream of ``seed``.
    """

    count: int
    seed: int
    immortal: bool = False
    histograms: list[TracerHistogram] = dc_field(default_factory=list)
    collision_counts: np.ndarray | None = None
    thinning: ThinningCounts | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("ensemble needs at least one trajectory")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))


def _rate_columns(kernel: Kernel, n_max: int, cap: int) -> np.ndarray:
    """Read-only (n_max, cap) kernel columns alpha(1..n_max, m), m = 1..cap.

    One :meth:`Kernel.rate_row` call: a table kernel clamps columns past its
    range to its last one, a formula evaluates every column.
    """
    A = np.ascontiguousarray(kernel.rate_row(np.arange(1, cap + 1))[:n_max])
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class ThinningCounts:
    """Thinning work of an ensemble run, summed over chunks in chunk order.

    ``proposals`` are candidate jump times drawn from the rate bound,
    ``accepted`` the proposals that became collisions, and ``extensions``
    the chunk-local tables built for tracers past a shared table's range.
    """

    proposals: int = 0
    accepted: int = 0
    extensions: int = 0

    def __add__(self, other: "ThinningCounts") -> "ThinningCounts":
        return ThinningCounts(
            self.proposals + other.proposals,
            self.accepted + other.accepted,
            self.extensions + other.extensions,
        )

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


class _FrozenRates:
    """Attempt-rate tables against one frozen field slice, read-only.

    ``lam[m-1, c]`` is the aggregate attempt rate of a mass-m tracer in
    cell c; ``lam_bar[m-1]`` its spatial bound used for thinning.  Masses
    1..``cap`` are covered, ``cap`` being the column count of ``A``.
    :func:`simulate` builds one table per slice and shares it across all
    chunks; a chunk whose tracers outgrow it asks :meth:`covering` for a
    private, larger table instead of growing the shared one.
    """

    def __init__(self, kernel: Kernel, A: np.ndarray, flat: np.ndarray):
        self.kernel = kernel
        self.A = A
        self.flat = flat
        self.n_max, self.cap = A.shape
        self.lam = 2.0 * (A.T @ flat)
        self.lam_bar = self.lam.max(axis=1)
        self.lam.flags.writeable = False
        self.lam_bar.flags.writeable = False

    def covering(self, top: int) -> "_FrozenRates":
        """This table if it covers mass ``top``, else a new one to mass 2*top."""
        if top <= self.cap:
            return self
        return _FrozenRates(self.kernel, _rate_columns(self.kernel, self.n_max, 2 * top), self.flat)

    def local(self, masses: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return self.lam[masses - 1, cells]

    def partner_weights(self, masses: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """(n_max, k) unnormalized partner-mass weights alpha(n,m) f_n(cell)."""
        return self.A[:, masses - 1] * self.flat[:, cells]


def _cell_index(pos: np.ndarray, grid) -> np.ndarray:
    """Nearest-cell (containing-cell) flat indices for positions (k, dim)."""
    m = grid.cells_per_side
    idx = np.minimum((pos / grid.h).astype(np.int64), m - 1)
    flat = idx[:, 0]
    for ax in range(1, grid.dim):
        flat = flat * m + idx[:, ax]
    return flat


def _wrap(x: np.ndarray, length: float) -> np.ndarray:
    """``np.remainder(x, length, out=x)`` for finite x and length > 0, bit for bit.

    ``fmod`` keeps the sign of x; adding ``length`` to its negative results
    is remainder's own correction, and ``+= 0.0`` turns fmod's -0.0 into
    remainder's +0.0.  On positions within a period of [0, length) this
    takes 36 us per 8,192 values against 98 us for ``np.remainder``
    (numpy 2.4, 2-vCPU x86 host).
    """
    np.fmod(x, length, out=x)
    np.add(x, length, out=x, where=x < 0)
    x += 0.0
    return x


def _advance_chunk_slice(
    pos: np.ndarray,
    mass: np.ndarray,
    alive: np.ndarray,
    collisions: np.ndarray,
    rates: _FrozenRates,
    grid,
    dp: DiffusionProfile,
    slice_dt: float,
    rng: np.random.Generator,
    immortal: bool,
) -> ThinningCounts:
    """Advance all chunk trajectories across one frozen slice, in place.

    Each thinning pass moves the active tracers ``act`` (chunk indices in
    ascending order, remaining slice times ``rem``) by the Brownian increment
    to their next proposal time tau, or to the slice end when tau >= rem.
    The next pass's active set is the proposed tracers that did not die, in
    the same order, with remaining times rem - tau > 0 (tau < rem); it is
    carried from pass to pass, so no pass scans the whole chunk.

    ``rates`` is only read; tracers past its range switch this call to a
    private larger table (:meth:`_FrozenRates.covering`).  Returns the
    slice's thinning counts.
    """
    proposals = accepted_total = extensions = 0
    act = np.flatnonzero(alive)
    rem = np.full(act.size, slice_dt)
    while act.size:
        m_act = mass[act]
        wider = rates.covering(int(m_act.max()))
        if wider is not rates:
            rates = wider
            extensions += 1
        lam_bar = rates.lam_bar[m_act - 1]
        draws = rng.exponential(size=act.size)
        tau = np.divide(draws, lam_bar, out=np.full(act.size, np.inf), where=lam_bar > 0)
        advance = np.minimum(tau, rem)
        sigma = np.sqrt(2.0 * dp.values[np.minimum(m_act, dp.n_max) - 1] * advance)
        step = rng.normal(size=(act.size, grid.dim))
        step *= sigma[:, None]
        step += pos[act]
        pos[act] = _wrap(step, grid.length)
        proposed = tau < rem
        act, rem = act[proposed], (rem - advance)[proposed]
        if not act.size:
            break
        proposals += act.size
        m_p = m_act[proposed]
        cells = _cell_index(step[proposed], grid)
        u = rng.uniform(size=act.size)
        accepted = u * lam_bar[proposed] < rates.local(m_p, cells)
        if not accepted.any():
            continue
        a_idx = act[accepted]
        accepted_total += a_idx.size
        m_a = m_p[accepted]
        w = rates.partner_weights(m_a, cells[accepted])
        cum = np.cumsum(w, axis=0)
        r = rng.uniform(size=a_idx.size) * cum[-1]
        partner = (cum < r[None, :]).sum(axis=0).astype(np.int64) + 1
        np.minimum(partner, rates.n_max, out=partner)
        collisions[a_idx] += 1
        if immortal:
            mass[a_idx] += partner
        else:
            survive = rng.uniform(size=a_idx.size) < m_a / (m_a + partner)
            mass[a_idx[survive]] += partner[survive]
            alive[a_idx[~survive]] = False
            keep = alive[act]
            act, rem = act[keep], rem[keep]
    return ThinningCounts(proposals, accepted_total, extensions)


def _histogram_from_state(
    pos: np.ndarray, mass: np.ndarray, alive: np.ndarray, n_max: int, grid, time: float, total: int
) -> TracerHistogram:
    counts = np.zeros((n_max, grid.n_cells), dtype=np.int64)
    overflow = np.zeros(grid.n_cells, dtype=np.int64)
    live = np.flatnonzero(alive)
    cells = _cell_index(pos[live], grid)
    inside = mass[live] <= n_max
    np.add.at(counts, (mass[live[inside]] - 1, cells[inside]), 1)
    np.add.at(overflow, cells[~inside], 1)
    return TracerHistogram(
        time=time,
        counts=counts,
        overflow=overflow,
        cemetery=int(total - alive.sum()),
        total=total,
    )


def _initial_law(F0: MassField) -> tuple[np.ndarray, np.ndarray]:
    """Mass CDF and per-species cell prefix sums of the initial field.

    Computed once per ensemble; every chunk searches rows of the prefix sums,
    which a negative density would leave out of order, so one is rejected.
    """
    flat = F0.flat()
    if (flat < 0).any():
        raise ValueError("cannot sample tracers from a field with negative density")
    integrals = F0.species_integrals()
    total = integrals.sum()
    if total <= 0:
        raise ValueError("cannot sample tracers from an empty field")
    return np.cumsum(integrals) / total, np.cumsum(flat, axis=1)


def _sample_chunk_initial(
    mass_cdf: np.ndarray, row_cum: np.ndarray, grid, n_traj: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Masses from the mass CDF, then each tracer's cell: the first cell whose
    prefix sum reaches r, uniform on [0, row total).  One searchsorted per
    mass present, on its nondecreasing prefix-sum row, so no
    (n_traj, cells) array is built."""
    mass = np.searchsorted(mass_cdf, rng.uniform(size=n_traj)).astype(np.int64) + 1
    r = rng.uniform(size=n_traj) * row_cum[mass - 1, -1]
    cells = np.empty(n_traj, dtype=np.int64)
    order = np.argsort(mass, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(mass[order])) + 1):
        cells[group] = np.searchsorted(row_cum[mass[group[0]] - 1], r[group], side="left")
    idx = np.stack(np.unravel_index(cells, grid.shape), axis=-1).astype(float)
    pos = (idx + rng.uniform(size=(n_traj, grid.dim))) * grid.h
    return pos, mass


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a chunk reads: shared tables, schedule, initial law.

    Built once per :func:`simulate` call and never written; worker processes
    receive it through the fork.
    """

    slice_rates: list[_FrozenRates]
    marks: dict[int, float]
    grid: Grid
    dp: DiffusionProfile
    slice_dt: float
    seed: int
    count: int
    chunk_size: int
    immortal: bool
    mass_cdf: np.ndarray
    row_cum: np.ndarray
    n_max: int


_ChunkResult = tuple[list[TracerHistogram], np.ndarray, ThinningCounts]


def _run_chunk(task: _ChunkTask, chunk_index: int) -> _ChunkResult:
    """Simulate chunk ``chunk_index`` on its own RNG substream."""
    rng = _chunk_rng(task.seed, chunk_index)
    lo = chunk_index * task.chunk_size
    n_traj = min(task.chunk_size, task.count - lo)
    grid, marks, n_max = task.grid, task.marks, task.n_max
    pos, mass = _sample_chunk_initial(task.mass_cdf, task.row_cum, grid, n_traj, rng)
    alive = np.ones(n_traj, dtype=bool)
    collisions = np.zeros(n_traj, dtype=np.int64)
    thinning = ThinningCounts()
    hists = []
    if 0 in marks:
        hists.append(_histogram_from_state(pos, mass, alive, n_max, grid, marks[0], n_traj))
    for i, rates in enumerate(task.slice_rates):
        thinning += _advance_chunk_slice(
            pos, mass, alive, collisions, rates, grid, task.dp, task.slice_dt, rng, task.immortal
        )
        if i + 1 in marks:
            hists.append(_histogram_from_state(pos, mass, alive, n_max, grid, marks[i + 1], n_traj))
    return hists, np.bincount(collisions), thinning


def simulate(
    F_timeline: list[MassField],
    kernel: Kernel,
    dp: DiffusionProfile,
    ensemble: TracerEnsemble,
    slice_dt: float,
    histogram_times: list[float] | None = None,
    workers: int = 1,
) -> TracerEnsemble:
    """Evolve an ensemble against a piecewise-frozen field timeline.

    ``F_timeline[i]`` governs the slice [i*slice_dt, (i+1)*slice_dt);
    trajectories start from ``F_timeline[0]``.  Histograms are recorded at
    the requested times, which must land on slice boundaries.

    The chunks go through :func:`~smolkit._fork.fork_map`: with
    ``workers > 1`` and more than one chunk they run in
    ``min(workers, n_chunks)`` forked worker processes, which inherit the
    shared tables through the fork; with ``workers == 1``, one chunk, or
    where ``fork`` is unavailable they run in this process.  Results are
    bit-identical for fixed (seed, count) regardless of ``workers``.
    """
    if slice_dt <= 0:
        raise ValueError("slice_dt must be > 0")
    if not F_timeline:
        raise ValueError("timeline must contain at least one slice")
    n_slices = len(F_timeline)
    t_final = n_slices * slice_dt
    if histogram_times is None:
        histogram_times = [t_final]
    marks: dict[int, float] = {}
    for t in histogram_times:
        i = int(round(t / slice_dt))
        if not 0 <= i <= n_slices or abs(i * slice_dt - t) > 1e-9 * max(t_final, 1.0):
            raise ValueError(f"histogram time {t} does not land on a slice boundary")
        marks[i] = t
    grid = F_timeline[0].grid
    n_max = F_timeline[0].n_max
    mass_cdf, row_cum = _initial_law(F_timeline[0])
    # Shared, read-only tables: kernel columns once, one rate table per slice.
    A = _rate_columns(kernel, n_max, 2 * n_max)
    task = _ChunkTask(
        slice_rates=[_FrozenRates(kernel, A, F.flat()) for F in F_timeline],
        marks=marks,
        grid=grid,
        dp=dp,
        slice_dt=slice_dt,
        seed=ensemble.seed,
        count=ensemble.count,
        chunk_size=CHUNK_SIZE,
        immortal=ensemble.immortal,
        mass_cdf=mass_cdf,
        row_cum=row_cum,
        n_max=n_max,
    )
    n_chunks = (ensemble.count + task.chunk_size - 1) // task.chunk_size
    results = fork_map(partial(_run_chunk, task), range(n_chunks), workers)

    merged: list[TracerHistogram] = []
    mark_items = sorted(marks.items())
    for j, (_, t) in enumerate(mark_items):
        counts = sum(r[0][j].counts for r in results)
        overflow = sum(r[0][j].overflow for r in results)
        cemetery = sum(r[0][j].cemetery for r in results)
        merged.append(TracerHistogram(t, counts, overflow, cemetery, ensemble.count))
    max_coll = max(r[1].size for r in results)
    coll = np.zeros(max_coll, dtype=np.int64)
    for r in results:
        coll[: r[1].size] += r[1]
    out = TracerEnsemble(
        count=ensemble.count,
        seed=ensemble.seed,
        immortal=ensemble.immortal,
        histograms=merged,
        collision_counts=coll,
        thinning=sum((r[2] for r in results), ThinningCounts()),
    )
    return out


@dataclass
class ConsistencyReport:
    """Histogram-versus-solver comparison at one time."""

    time: float
    tv_distance: float
    max_abs_z: float
    n_z_bins: int
    z_quantiles: dict[str, float]
    overflow_fraction: float
    cemetery_empirical: float
    cemetery_model: float


def density_consistency(hist: TracerHistogram, F_pde: MassField, M0: float) -> ConsistencyReport:
    """Compare an ensemble histogram against the deterministic field.

    The model bin probability is f_n(x,t) * cell_volume / M0 with M0 the
    total initial particle number; the remainder is the model cemetery
    mass.  Reports the total-variation distance over all bins (cemetery
    and overflow included) and per-bin z-scores against binomial standard
    errors, restricted to bins with expected count >= Z_MIN_EXPECTED.
    """
    if M0 <= 0:
        raise ValueError("M0 must be > 0")
    grid = F_pde.grid
    total = hist.total
    model_p = F_pde.flat() * (grid.cell_volume / M0)
    model_cem = 1.0 - model_p.sum()
    emp_p = hist.counts / total
    emp_cem = hist.cemetery / total
    overflow_frac = hist.overflow.sum() / total
    tv = 0.5 * (np.abs(emp_p - model_p).sum() + overflow_frac + abs(emp_cem - max(model_cem, 0.0)))
    expected = total * model_p
    mask = expected >= Z_MIN_EXPECTED
    zs = np.zeros(0)
    if mask.any():
        e = expected[mask]
        p = model_p[mask]
        zs = (hist.counts[mask] - e) / np.sqrt(e * (1.0 - p))
    if total * model_cem >= Z_MIN_EXPECTED:
        z_cem = (hist.cemetery - total * model_cem) / np.sqrt(total * model_cem * (1.0 - model_cem))
        zs = np.append(zs, z_cem)
    quantiles = {}
    if zs.size:
        for q in (0.5, 0.9, 0.99):
            quantiles[f"q{int(q * 100)}"] = float(np.quantile(np.abs(zs), q))
    return ConsistencyReport(
        time=hist.time,
        tv_distance=float(tv),
        max_abs_z=float(np.abs(zs).max()) if zs.size else 0.0,
        n_z_bins=int(zs.size),
        z_quantiles=quantiles,
        overflow_fraction=float(overflow_frac),
        cemetery_empirical=float(emp_cem),
        cemetery_model=float(max(model_cem, 0.0)),
    )
