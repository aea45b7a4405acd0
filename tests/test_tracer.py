"""Tracer Monte Carlo against closed forms and matrix-exponential oracles.

The frozen-field mass chain is small enough to solve exactly: its generator
is built here, independently of the package, from the transition rules
(attempt rate 2*alpha(n,m)*f_n, survival probability m/(n+m)), and expm of
that generator provides the expected occupation law for 3-sigma tests.
The chunk stepper and the initial sampler are also checked bit for bit
against the implementations they replaced, kept in ``oracles``.
"""

import concurrent.futures
import hashlib
import multiprocessing
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smolkit import _fork, cli, tracer
from smolkit.diffusion import heat_step_batched
from smolkit.field import Grid, MassField, moment
from smolkit.kernels import DiffusionProfile, Kernel
from smolkit.tracer import (
    ThinningCounts,
    TracerEnsemble,
    density_consistency,
    simulate,
)


def frozen_chain_law(conc, kernel, m0, t, n_top):
    """Occupation law of the frozen-field mass chain at time t.

    States are masses 1..n_top plus cemetery (index n_top); masses that
    would exceed n_top are lumped into the cemetery, so choose n_top large
    enough that the lumped probability is negligible for the test.
    """
    G = np.zeros((n_top + 1, n_top + 1))
    table = kernel.dense()
    for m in range(1, n_top + 1):
        for n in range(1, conc.size + 1):
            rate = 2.0 * table[n - 1, m - 1] * conc[n - 1]
            if rate == 0.0:
                continue
            target = m + n
            win = m / (m + n)
            if target <= n_top:
                G[m - 1, target - 1] += rate * win
                G[m - 1, n_top] += rate * (1 - win)
            else:
                G[m - 1, n_top] += rate
            G[m - 1, m - 1] -= rate
    p0 = np.zeros(n_top + 1)
    p0[m0 - 1] = 1.0
    return p0 @ scipy.linalg.expm(G * t)


@pytest.fixture
def uniform_field():
    grid = Grid(1, 1.0, 8)
    F = MassField.zeros(grid, 4)
    F.data[0] = 0.8
    return F


def initial_histogram(F, count, seed):
    """Histogram of ``count`` tracers drawn from F, before any step."""
    k = Kernel.constant(1.0, F.n_max)
    dp = DiffusionProfile.constant(0.1, F.n_max)
    out = simulate([F], k, dp, TracerEnsemble(count=count, seed=seed), 1.0, histogram_times=[0.0])
    return out.histograms[0]


def one_frozen_slice(F, k, dp, t, count, seed, immortal=False):
    """Histogram of ``count`` tracers after one frozen slice of length t."""
    ens = TracerEnsemble(count=count, seed=seed, immortal=immortal)
    return simulate([F], k, dp, ens, t).histograms[0]


class TestSampleInitial:
    """The initial law, read off a histogram at time 0."""

    def test_monodisperse_always_mass_one(self, uniform_field):
        h = initial_histogram(uniform_field, 50, seed=0)
        assert h.counts[0].sum() == 50

    def test_mass_law_follows_number_integrals(self):
        """Number integrals 1 and 3 give P(mass 2) = 3/4."""
        grid = Grid(1, 1.0, 8)
        F = MassField.zeros(grid, 2)
        F.data[0] = 1.0
        F.data[1] = 3.0
        n = 40000
        hits = initial_histogram(F, n, seed=1).counts[1].sum()
        p = hits / n
        assert abs(p - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / n)

    def test_concentrated_species_fixes_position(self):
        """Histogram cells are containing cells, so every tracer lies in
        [5h, 6h)."""
        grid = Grid(1, 1.0, 16)
        F = MassField.zeros(grid, 1)
        F.data[0, 5] = 2.0
        h = initial_histogram(F, 30, seed=2)
        assert h.counts[0, 5] == 30

    def test_empty_field_rejected(self):
        grid = Grid(1, 1.0, 8)
        F = MassField.zeros(grid, 2)
        with pytest.raises(ValueError, match="empty"):
            initial_histogram(F, 1, seed=0)


class TestEvolveFrozen:
    """One frozen slice of the chunk stepper."""

    def test_no_kernel_is_brownian_motion(self):
        """alpha = 0: displacements over one frozen slice are exactly
        N(0, 2 d t) per coordinate (wrap negligible for small d*t); KS at
        1e5 trajectories advanced as one chunk."""
        grid = Grid(1, 1.0, 32)
        F = MassField.monodisperse(grid, 2)
        k = Kernel.constant(0.0, 2)
        d, t = 0.004, 0.5
        dp = DiffusionProfile.constant(d, 2)
        rng = np.random.default_rng(3)
        size = 100000
        pos = np.full((size, 1), 0.5)
        mass = np.ones(size, dtype=np.int64)
        alive = np.ones(size, dtype=bool)
        rates = tracer._FrozenRates(k, tracer._rate_columns(k, 2, 2), F.flat())
        tracer._advance_chunk_slice(pos, mass, alive, np.zeros(size, dtype=np.int64), rates, grid, dp, t, rng, False)
        assert alive.all() and np.all(mass == 1)
        disp = grid.min_image(pos[:, 0] - 0.5)
        stat = scipy.stats.kstest(disp, scipy.stats.norm(scale=np.sqrt(2 * d * t)).cdf)
        assert stat.pvalue > 1e-3

    def test_two_state_closed_form(self):
        """f1 = c frozen, alpha(1,1) = gamma only: survival in mass 1 decays
        at the tagged-particle rate 2*gamma*c; the other half of attempts
        splits evenly between mass 2 and the cemetery."""
        gamma, c, t = 1.3, 0.8, 0.7
        grid = Grid(1, 1.0, 4)
        F = MassField.zeros(grid, 2)
        F.data[0] = c
        k = Kernel.from_table([[gamma, 0.0], [0.0, 0.0]])
        dp = DiffusionProfile.constant(0.1, 2)
        n = 20000
        h = one_frozen_slice(F, k, dp, t, n, seed=4)
        counts = {1: h.counts[0].sum(), 2: h.counts[1].sum(), "cem": h.cemetery}
        p1 = np.exp(-2 * gamma * c * t)
        expected = {1: p1, 2: 0.5 * (1 - p1), "cem": 0.5 * (1 - p1)}
        for key, p in expected.items():
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[key] / n - p) <= 3 * se, key

    def test_immortal_never_dies(self, uniform_field):
        k = Kernel.constant(5.0, 4)
        dp = DiffusionProfile.constant(0.1, 4)
        h = one_frozen_slice(uniform_field, k, dp, 1.0, 200, seed=5, immortal=True)
        assert h.cemetery == 0


class TestSimulate:
    def test_seed_reproducibility(self, uniform_field):
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        outs = []
        for _ in range(2):
            ens = TracerEnsemble(count=5000, seed=99)
            outs.append(simulate([uniform_field] * 4, k, dp, ens, 0.05, histogram_times=[0.2]))
        np.testing.assert_array_equal(outs[0].histograms[0].counts, outs[1].histograms[0].counts)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_does_not_change_results(self, uniform_field, workers):
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        ref = simulate([uniform_field] * 4, k, dp, TracerEnsemble(count=20000, seed=5), 0.05, workers=1)
        par = simulate([uniform_field] * 4, k, dp, TracerEnsemble(count=20000, seed=5), 0.05, workers=workers)
        for a, b in zip(ref.histograms, par.histograms):
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.overflow, b.overflow)
            assert a.cemetery == b.cemetery

    def test_cemetery_monotone_in_time(self, uniform_field):
        k = Kernel.constant(2.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        times = [0.05 * i for i in range(5)]
        ens = TracerEnsemble(count=20000, seed=6)
        out = simulate([uniform_field] * 4, k, dp, ens, 0.05, histogram_times=times)
        cem = [h.cemetery for h in out.histograms]
        assert cem == sorted(cem)

    def test_histogram_rows_sum_to_count(self, uniform_field):
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        ens = TracerEnsemble(count=12345, seed=7)
        out = simulate([uniform_field] * 3, k, dp, ens, 0.05, histogram_times=[0.15])
        h = out.histograms[0]
        assert h.counts.sum() + h.overflow.sum() + h.cemetery == h.total == 12345

    def test_mass_weighted_survival_matches_chain(self):
        """E[m 1(alive)] against the matrix-exponential law of the frozen
        chain, within 3 Monte Carlo sigma.

        Only species 1..3 carry density, but the field range is kept wide
        so every reachable tracer mass stays inside the histogram rows; the
        chain oracle lumps masses beyond n_top into the cemetery, which is
        negligible at this horizon.
        """
        grid = Grid(1, 1.0, 4)
        n_max = 32
        F = MassField.zeros(grid, n_max)
        F.data[0] = 0.6
        F.data[1] = 0.3
        F.data[2] = 0.1
        k = Kernel.sum_kernel(0.4, n_max)
        dp = DiffusionProfile.constant(0.05, n_max)
        t, slices = 0.5, 10
        ens = TracerEnsemble(count=60000, seed=8)
        out = simulate([F] * slices, k, dp, ens, t / slices, histogram_times=[t])
        h = out.histograms[0]
        assert h.overflow.sum() == 0
        emp_per_traj = (np.arange(1, n_max + 1) @ h.counts).sum() / h.total
        n_top = 64
        conc = F.flat()[:, 0]
        integrals = F.species_integrals()
        probs = integrals / integrals.sum()
        oracle_kernel = Kernel.sum_kernel(0.4, n_top)
        law = sum(
            p * frozen_chain_law(conc, oracle_kernel, m0, t, n_top)
            for m0, p in enumerate(probs[:3], start=1)
        )
        expect = float(np.arange(1, n_top + 1) @ law[:n_top])
        second = float((np.arange(1, n_top + 1) ** 2) @ law[:n_top])
        sigma = np.sqrt(max(second - expect**2, 0.0) / h.total)
        assert abs(emp_per_traj - expect) <= 3 * sigma

    def test_overflow_masses_are_binned_separately(self):
        """A dense fast kernel pushes tracers past n_max quickly; they must
        land in the overflow row, not vanish."""
        grid = Grid(1, 1.0, 4)
        F = MassField.zeros(grid, 2)
        F.data[:] = 4.0
        k = Kernel.constant(3.0, 2)
        dp = DiffusionProfile.constant(0.05, 2)
        ens = TracerEnsemble(count=4000, seed=9, immortal=True)
        out = simulate([F] * 6, k, dp, ens, 0.25, histogram_times=[1.5])
        h = out.histograms[0]
        assert h.overflow.sum() > 0
        assert h.cemetery == 0
        assert h.counts.sum() + h.overflow.sum() == h.total

    def test_histogram_times_must_hit_boundaries(self, uniform_field):
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        with pytest.raises(ValueError, match="boundary"):
            simulate([uniform_field] * 4, k, dp, TracerEnsemble(count=10, seed=0), 0.05,
                     histogram_times=[0.07])


def ensemble_digest(out):
    """sha256 over every histogram and the collision counts, in order."""
    h = hashlib.sha256()
    for hist in out.histograms:
        h.update(hist.counts.tobytes())
        h.update(hist.overflow.tobytes())
        h.update(np.int64(hist.cemetery).tobytes())
    h.update(out.collision_counts.tobytes())
    return h.hexdigest()


class TestSharedRateTables:
    """Slice tables are built once and shared; growth past them is chunk-local."""

    # Digest of the growth scenario below, computed with the earlier code
    # that rebuilt and grew a table per (chunk, slice).
    GROWTH_SHA256 = "1a53492c24ca601c083f05d6b5a8f91ba7616e8dbdfaf5bfb2483a420a8a3d03"

    @staticmethod
    def growth_scenario(monkeypatch, workers):
        """n_max = 4 with immortal tracers: masses pass 2*n_max within a slice."""
        monkeypatch.setattr(tracer, "CHUNK_SIZE", 500)
        grid = Grid(1, 1.0, 4)
        F = MassField.zeros(grid, 4)
        F.data[:] = 1.0
        F.data[:, 0] = 2.0
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.power_law(0.05, 0.5, 4)
        ens = TracerEnsemble(count=3000, seed=21, immortal=True)
        return simulate([F] * 4, k, dp, ens, 0.25, histogram_times=[0.25, 0.5, 1.0], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_growth_histograms_match_per_chunk_rebuilds(self, monkeypatch, workers):
        # Chunks run in worker processes, where a write to a shared table
        # would stay private to one worker and no switch interval applies;
        # the short interval still interleaves any threads of this process
        # finely, so the digest pins the output against every scheduling.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = self.growth_scenario(monkeypatch, workers)
        finally:
            sys.setswitchinterval(interval)
        assert out.histograms[-1].overflow.sum() > 0
        assert out.thinning.extensions > 0
        assert ensemble_digest(out) == self.GROWTH_SHA256

    @staticmethod
    def record_tables(monkeypatch):
        """Record every rate table built in this process, with a snapshot."""
        built = []

        class Recording(tracer._FrozenRates):
            def __init__(self, *args):
                super().__init__(*args)
                self.snapshot = (self.A.copy(), self.lam.copy(), self.lam_bar.copy())
                built.append(self)

        monkeypatch.setattr(tracer, "_FrozenRates", Recording)
        return built

    @staticmethod
    def assert_unchanged(tables):
        for t in tables:
            for arr, snap in zip((t.A, t.lam, t.lam_bar), t.snapshot):
                assert not arr.flags.writeable
                assert np.array_equal(arr, snap)

    def test_shared_tables_built_once_and_unchanged(self, monkeypatch):
        # In-process, so the recording also sees the chunk-local tables
        # (worker processes build theirs where this process cannot see them).
        built = self.record_tables(monkeypatch)
        out = self.growth_scenario(monkeypatch, workers=1)
        shared = [t for t in built if t.cap == 8]
        local = [t for t in built if t.cap > 8]
        assert len(shared) == 4  # one per slice, not one per (chunk, slice)
        assert len(local) == out.thinning.extensions
        self.assert_unchanged(built)

    def test_worker_processes_leave_shared_tables_unchanged(self, monkeypatch):
        built = self.record_tables(monkeypatch)
        out = self.growth_scenario(monkeypatch, workers=2)
        assert len([t for t in built if t.cap == 8]) == 4
        self.assert_unchanged(built)
        assert ensemble_digest(out) == self.GROWTH_SHA256

    def test_process_count_is_capped_by_chunks(self, monkeypatch):
        """``workers`` far above the chunk count starts one process per
        chunk; a fake executor records the count and maps in this process."""
        seen = []

        class FakeExecutor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return [fn(i) for i in iterable]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(_fork, "_INSTALLED", None)
        monkeypatch.setattr(os, "fork", self.no_fork)
        out = self.three_chunks(monkeypatch, workers=10_000)
        assert seen == [3]
        assert ensemble_digest(out) == ensemble_digest(self.three_chunks(monkeypatch, workers=1))

    def test_without_fork_chunks_run_in_process(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "fork", self.no_fork)
        out = self.three_chunks(monkeypatch, workers=8)
        assert ensemble_digest(out) == ensemble_digest(self.three_chunks(monkeypatch, workers=1))

    @staticmethod
    def no_fork():
        raise AssertionError("a process was started")

    @staticmethod
    def three_chunks(monkeypatch, workers):
        monkeypatch.setattr(tracer, "CHUNK_SIZE", 100)
        grid = Grid(1, 1.0, 4)
        F = MassField.zeros(grid, 4)
        F.data[:] = 1.0
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.constant(0.05, 4)
        ens = TracerEnsemble(count=250, seed=3)
        return simulate([F] * 2, k, dp, ens, 0.1, workers=workers)

    def test_thinning_counts_do_not_depend_on_workers(self, monkeypatch):
        monkeypatch.setattr(tracer, "CHUNK_SIZE", 1000)
        grid = Grid(1, 1.0, 16)
        n_max = 6
        F = MassField.gaussian_blob(grid, n_max, amplitude=2.0, width=0.1)
        k = Kernel.sum_kernel(0.5, n_max)
        dp = DiffusionProfile.constant(0.02, n_max)
        outs = [
            simulate([F] * 5, k, dp, TracerEnsemble(count=5000, seed=13), 0.1, workers=w)
            for w in (1, 2)
        ]
        assert outs[0].thinning == outs[1].thinning
        th = outs[0].thinning
        assert 0.0 < th.acceptance_rate < 1.0
        counts = outs[0].collision_counts
        assert th.accepted == int(np.arange(counts.size) @ counts)

    def test_thinning_counts_add(self):
        a = ThinningCounts(10, 4, 1) + ThinningCounts(5, 1, 0)
        assert a == ThinningCounts(15, 5, 1)
        assert a.acceptance_rate == 5 / 15
        assert ThinningCounts().acceptance_rate == 0.0


class TestDensityConsistency:
    def _mc_noise_tv(self, model_p, count):
        p = model_p[model_p > 0]
        return 0.5 * np.sqrt(2.0 / (np.pi * count)) * np.sqrt(p * (1 - p)).sum() * 2.0

    def test_time_zero_is_pure_sampling_noise(self):
        grid = Grid(1, 1.0, 16)
        F = MassField.zeros(grid, 3)
        F.data[0] = 1.0
        F.data[1] = 0.5
        k = Kernel.constant(0.0, 3)
        dp = DiffusionProfile.constant(0.05, 3)
        ens = TracerEnsemble(count=50000, seed=10)
        out = simulate([F], k, dp, ens, 0.1, histogram_times=[0.0])
        m0 = float(sum(F.species_integrals()))
        rep = density_consistency(out.histograms[0], F, m0)
        model_p = F.flat() * grid.cell_volume / m0
        assert rep.tv_distance <= 3 * self._mc_noise_tv(model_p, 50000)
        assert rep.max_abs_z <= 4.0

    def test_pure_diffusion_matches_heat_evolution(self):
        """alpha = 0: each species' empirical density follows its own heat
        flow of the initial data."""
        grid = Grid(1, 1.0, 16)
        n_max = 2
        F = MassField.zeros(grid, n_max)
        x = grid.cell_centers()
        F.data[0] = 1.0 + 0.9 * np.cos(2 * np.pi * x)
        F.data[1] = 0.25
        k = Kernel.constant(0.0, n_max)
        d = 0.02
        dp = DiffusionProfile.constant(d, n_max)
        t, slices = 0.4, 8
        ens = TracerEnsemble(count=120000, seed=11)
        out = simulate([F] * slices, k, dp, ens, t / slices, histogram_times=[t])
        evolved = MassField(grid, heat_step_batched(F.data, [d] * n_max, t, grid))
        m0 = float(sum(F.species_integrals()))
        rep = density_consistency(out.histograms[0], evolved, m0)
        assert rep.max_abs_z <= 4.0
        assert rep.tv_distance <= 0.02

    def test_focusing_bound_never_beaten_beyond_noise(self):
        """The mass-transition mechanism cannot focus the weighted empirical
        density above the fastest-rate heat flow: for non-increasing d and
        weight m^a, the envelope constant is d(1)^(d/2)/min_m m^(1-a) d(m)^(d/2)."""
        grid = Grid(1, 1.0, 16)
        n_max = 8
        a = 0.5
        F = MassField.gaussian_blob(grid, n_max, amplitude=2.0, width=0.1)
        k = Kernel.constant(0.6, n_max)
        dp = DiffusionProfile.power_law(0.05, 0.3, n_max)
        t, slices = 0.3, 6
        ens = TracerEnsemble(count=100000, seed=12)
        out = simulate([F] * slices, k, dp, ens, t / slices, histogram_times=[t])
        h = out.histograms[0]
        m0 = float(sum(F.species_integrals()))
        weights = np.arange(1, n_max + 1) ** a * m0 / (h.total * grid.cell_volume)
        emp = weights @ h.counts
        sigma = np.sqrt(weights**2 @ h.counts)
        u = heat_step_batched(moment(F, 1.0)[None], [dp.value(1)], t, grid)[0]
        masses = np.arange(1, 4 * n_max + 1)
        envelope = dp.value(1) ** 0.5 / (masses ** (1 - a) * dp.value(masses) ** 0.5).min()
        assert np.all(emp <= envelope * u + 3 * sigma + 1e-12)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# A Gaussian blob under the sum kernel with d(n) = 0.05 n^(-1/2) on 64
# cells: the field varies in space, so the thinning rejects proposals.
REJECTING_BLOB = """
name = blob
mode = tracer
seed = 5
kernel.kind = sum
kernel.c0 = 1.0
diffusion.kind = power_law
diffusion.r2 = 0.05
diffusion.b2 = 0.5
grid.dim = 1
grid.length = 1.0
grid.cells = 64
initial.kind = gaussian_blob
initial.amplitude = 1.0
initial.width = 0.1
run.n_max = 40
run.t_final = 0.5
run.dt = 0.005
tracer.count = 50000
tracer.slices = 32
"""


def solver_timeline(path):
    """The frozen slices, kernel, profile and slice width the CLI hands the
    tracer for the scenario at ``path``."""
    s = cli.parse_config(path)
    kernel = cli.build_kernel(s)
    field0, dp, cfg = cli.build_run(s, kernel)
    rec, flats = oracles.run_keeping_fields(field0, kernel, dp, cfg)
    shape = (s.n_max,) + rec.grid.shape
    fields = [MassField(rec.grid, f.reshape(shape), validate=False) for f in flats]
    return fields[:-1], kernel, dp, cfg.output_stride


def same_rng_state(a, b):
    """Both generators made the same draws (their Philox states are small arrays)."""
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def compare_with_rescan(fields, kernel, dp, slice_dt, seed, count=tracer.CHUNK_SIZE, immortal=False):
    """Step one chunk through ``fields`` with the carried-set stepper and
    with the rescanning oracle, from the same state and RNG substream, and
    require the same state bit for bit after every slice.  Returns the
    summed thinning counts."""
    n_max, grid = fields[0].n_max, fields[0].grid
    A = tracer._rate_columns(kernel, n_max, 2 * n_max)
    rngs = [tracer._chunk_rng(seed, 0), tracer._chunk_rng(seed, 0)]
    mass_cdf, row_cum = tracer._initial_law(fields[0])
    pos, mass = tracer._sample_chunk_initial(mass_cdf, row_cum, grid, count, rngs[0])
    oracles.sample_chunk_initial(mass_cdf, row_cum, grid, count, rngs[1])
    states = [
        (pos.copy(), mass.copy(), np.ones(count, dtype=bool), np.zeros(count, dtype=np.int64)) for _ in rngs
    ]
    total = ThinningCounts()
    for F in fields:
        rates = tracer._FrozenRates(kernel, A, F.flat())
        new = tracer._advance_chunk_slice(*states[0], rates, grid, dp, slice_dt, rngs[0], immortal)
        old = oracles.advance_chunk_slice(*states[1], rates, grid, dp, slice_dt, rngs[1], immortal)
        assert new == old
        (p0, m0, a0, c0), (p1, m1, a1, c1) = states
        assert np.array_equal(p0.view(np.int64), p1.view(np.int64))
        assert np.array_equal(m0, m1) and np.array_equal(a0, a1) and np.array_equal(c0, c1)
        assert same_rng_state(*rngs)
        total += new
    return total


class TestCarriedActiveSet:
    """The chunk stepper against the rescanning stepper it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shipped_tracer_config(self, seed):
        fields, kernel, dp, slice_dt = solver_timeline(CONFIGS / "tracer_consistency.cfg")
        th = compare_with_rescan(fields, kernel, dp, slice_dt, seed)
        assert th.proposals > 0 and th.acceptance_rate == 1.0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_rejecting_blob(self, tmp_path, seed):
        path = tmp_path / "blob.cfg"
        path.write_text(REJECTING_BLOB, encoding="utf-8")
        fields, kernel, dp, slice_dt = solver_timeline(path)
        th = compare_with_rescan(fields, kernel, dp, slice_dt, seed)
        assert 0.5 < th.acceptance_rate < 0.9

    @pytest.mark.parametrize("seed", [3, 4])
    def test_immortal_product_kernel_in_2d(self, seed):
        grid = Grid(2, 1.0, 8)
        n_max = 6
        F = MassField.gaussian_blob(grid, n_max, amplitude=1.5, width=0.15)
        F.data[1] = 0.2 * F.data[0]
        k = Kernel.product(1.0, n_max)
        dp = DiffusionProfile.power_law(0.03, 0.5, n_max)
        th = compare_with_rescan([F] * 4, k, dp, 0.1, seed, count=3000, immortal=True)
        assert 0.0 < th.acceptance_rate < 1.0

    @pytest.mark.parametrize("seed", [21, 22])
    def test_chunk_local_table_extensions(self, seed):
        grid = Grid(1, 1.0, 4)
        F = MassField.zeros(grid, 4)
        F.data[:] = 1.0
        F.data[:, 0] = 2.0
        k = Kernel.constant(1.0, 4)
        dp = DiffusionProfile.power_law(0.05, 0.5, 4)
        th = compare_with_rescan([F] * 4, k, dp, 0.25, seed, count=500, immortal=True)
        assert th.extensions > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_rate_kernel(self, seed):
        """tau = inf for every tracer: one pass to the slice end, no proposal."""
        grid = Grid(1, 1.0, 16)
        F = MassField.gaussian_blob(grid, 3, amplitude=1.0, width=0.2)
        k = Kernel.constant(0.0, 3)
        dp = DiffusionProfile.constant(0.02, 3)
        th = compare_with_rescan([F] * 3, k, dp, 0.1, seed, count=2000)
        assert th == ThinningCounts()


class TestWrap:
    """``_wrap`` is ``np.remainder`` onto [0, L), bit for bit."""

    LENGTHS = [1.0, 0.7, 3.0, 1e-3, 2.0 * np.pi, 123.456]

    @staticmethod
    def assert_remainder(x, length):
        x = np.asarray(x, dtype=float)
        want = np.remainder(x, length)
        got = tracer._wrap(x.copy(), length)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x, length)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_edge_values(self, length):
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, tiny, -tiny, np.finfo(float).eps, -np.finfo(float).eps]
        for v in (length, -length):
            edges += [v, np.nextafter(v, 0.0), np.nextafter(v, 2.0 * v)]
        edges += [k * length for k in range(-7, 8)]
        edges += [np.nextafter(k * length, np.inf) for k in range(-7, 8)]
        edges += [np.nextafter(k * length, -np.inf) for k in range(-7, 8)]
        edges += [1e300, -1e300, 1e17 * length, -1e17 * length, np.finfo(float).max, -np.finfo(float).max]
        self.assert_remainder(edges, length)

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
        length=st.sampled_from(LENGTHS) | st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_any_finite_values(self, xs, length):
        self.assert_remainder(xs, length)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(-10**6, 10**6),
        offset=st.floats(min_value=-1.0, max_value=1.0),
        length=st.sampled_from(LENGTHS),
    )
    def test_near_multiples_of_the_length(self, k, offset, length):
        """Positions a step away from the torus: k periods off, and within
        a few ulps of a period boundary."""
        base = k * length
        near = [base + offset * length, base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
        self.assert_remainder(near, length)


class TestInitialSampling:
    """Cells are found by one search per mass, not an (n_traj, cells) matrix."""

    @staticmethod
    def polydisperse(grid, n_max):
        F = MassField.gaussian_blob(grid, n_max, amplitude=2.0, width=0.2)
        for n in range(1, n_max):
            F.data[n] = F.data[0] / (n + 1) ** 2
        F.data[2] = 0.0  # an empty species between populated ones
        F.data[1].flat[::3] = 0.0  # and empty cells in a populated one
        return F

    @pytest.mark.parametrize("grid", [Grid(1, 1.0, 64), Grid(2, 1.0, 16)], ids=["1d", "2d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_match_the_matrix_sampler(self, grid, seed):
        F = self.polydisperse(grid, 6)
        mass_cdf, row_cum = tracer._initial_law(F)
        rngs = [tracer._chunk_rng(seed, 3), tracer._chunk_rng(seed, 3)]
        pos, mass = tracer._sample_chunk_initial(mass_cdf, row_cum, grid, 5000, rngs[0])
        want_pos, want_mass = oracles.sample_chunk_initial(mass_cdf, row_cum, grid, 5000, rngs[1])
        assert np.array_equal(mass, want_mass) and np.array_equal(pos.view(np.int64), want_pos.view(np.int64))
        assert set(np.unique(mass)) == {1, 2, 4, 5, 6}
        assert same_rng_state(*rngs)

    def test_memory_on_a_64_by_64_grid(self):
        """A chunk on 4096 cells allocates a few arrays of n_traj entries; the
        matrix sampler allocated 8192 x 4096 doubles (268 MB)."""
        grid = Grid(2, 1.0, 64)
        mass_cdf, row_cum = tracer._initial_law(self.polydisperse(grid, 6))
        rng = tracer._chunk_rng(0, 0)
        tracemalloc.start()
        try:
            tracer._sample_chunk_initial(mass_cdf, row_cum, grid, tracer.CHUNK_SIZE, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_negative_density_rejected(self):
        grid = Grid(1, 1.0, 8)
        F = MassField.zeros(grid, 2)
        F.data[0] = 1.0
        F.data[0, 3] = -1e-18
        with pytest.raises(ValueError, match="negative density"):
            initial_histogram(F, 10, seed=0)
