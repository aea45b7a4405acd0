"""Monitors: exponent formula, bound reports, gel verdicts.

The threshold-exponent branch values are checked by direct arithmetic
substitution; continuity at the branch boundary and linear growth in the
controlled moment order are structural identities of the formula.
"""

import os
import sys

import numpy as np
import pytest

import smolkit.cli as cli
from oracles import run_keeping_fields
from smolkit.analysis import (
    collision_budget,
    BoundReport,
    HypothesisError,
    check_conservation,
    check_gronwall,
    check_heat_majorant,
    check_moment_bound,
    conservation_drift,
    gelation_scan,
    linf_moment_exponent,
    majorant_ratios,
    scope,
)
from smolkit.cli import Scenario
from smolkit.coagulation import RateEvaluator, TruncationPolicy
from smolkit.field import Grid, MassField, initial_data_functionals
from smolkit.integrator import RunConfig, run
from smolkit.kernels import DiffusionProfile, Kernel


class TestLinfMomentExponent:
    def test_shallow_branch_value(self):
        """a=10, b1=0.5, b2=0.25, dim=3 (b1*d = 1.5 <= 2):
        18.75/5 - 0.75 - 0.5 - 1 = 1.5."""
        assert linf_moment_exponent(10, 0.5, 0.25, 3) == pytest.approx(1.5)

    def test_steep_branch_value(self):
        """a=10, b1=1, b2=0.5, dim=3 (b1*d = 3 > 2): 19.5/5 - 4 = -0.1."""
        assert linf_moment_exponent(10, 1.0, 0.5, 3) == pytest.approx(-0.1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_continuous_at_branch_boundary(self, dim):
        b1 = 2.0 / dim
        for b2 in (0.0, b1 / 2, b1):
            lo = linf_moment_exponent(5.0, b1 - 1e-12, b2 if b2 <= b1 - 1e-12 else b1 - 1e-12, dim)
            hi = linf_moment_exponent(5.0, b1 + 1e-12, min(b2, b1), dim)
            assert abs(lo - hi) <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_growth_in_a(self, dim):
        """Slope exactly 2/(dim+2), so the threshold diverges with a."""
        vals = [linf_moment_exponent(a, 0.7, 0.3, dim) for a in (1.0, 2.0, 5.0, 9.0)]
        for a1, a2, v1, v2 in zip((1, 2, 5), (2, 5, 9), vals, vals[1:]):
            assert (v2 - v1) / (a2 - a1) == pytest.approx(2.0 / (dim + 2), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            linf_moment_exponent(1.0, 0.2, 0.5, 3)
        with pytest.raises(ValueError):
            linf_moment_exponent(-1.0, 0.5, 0.2, 3)


def _blob_run(kernel, dp, n_max, grid, **cfg_kw):
    F = MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
    defaults = dict(t_final=0.3, dt=0.01, policy=TruncationPolicy.cutoff(n_max), output_stride=0.05)
    defaults.update(cfg_kw)
    return run(F, kernel, dp, RunConfig(**defaults))


class TestHeatMajorant:
    def test_equality_case_is_exact(self):
        """alpha = 0 monodisperse: the weighted moment IS the majorant."""
        n_max = 6
        grid = Grid(1, 1.0, 32)
        k = Kernel.constant(0.0, n_max)
        dp = DiffusionProfile.power_law(0.8, 0.6, n_max)
        rec = _blob_run(k, dp, n_max, grid, track_majorant=True)
        rep = check_heat_majorant(rec, dp, tolerance=1e-12)
        assert rep.passed
        assert rep.max_violation == 0.0

    def test_reacting_run_stays_dominated(self):
        n_max = 16
        grid = Grid(1, 1.0, 32)
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile.power_law(1.0, 0.5, n_max)
        rec = _blob_run(k, dp, n_max, grid, track_majorant=True, t_final=0.5)
        rep = check_heat_majorant(rec, dp)
        assert rep.passed

    def test_increasing_profile_is_hypothesis_error(self):
        n_max = 4
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(0.0, n_max)
        dp = DiffusionProfile.power_law(1.0, 0.5, n_max)
        rec = _blob_run(k, dp, n_max, grid, track_majorant=True)
        bad = DiffusionProfile(np.linspace(1, 2, n_max))
        with pytest.raises(HypothesisError):
            check_heat_majorant(rec, bad)

    def test_requires_tracked_majorant(self):
        n_max = 4
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(0.0, n_max)
        dp = DiffusionProfile.constant(1.0, n_max)
        rec = _blob_run(k, dp, n_max, grid)
        with pytest.raises(ValueError, match="track_majorant"):
            check_heat_majorant(rec, dp)

    def test_report_is_the_worst_of_the_ratio_series(self):
        n_max = 16
        grid = Grid(1, 1.0, 32)
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile.power_law(1.0, 0.5, n_max)
        rec = _blob_run(k, dp, n_max, grid, track_majorant=True, t_final=0.5)
        ratios = majorant_ratios(rec, dp)
        assert ratios.shape == (len(rec.times), grid.n_cells) and np.all(ratios >= 0)
        rep = check_heat_majorant(rec, dp)
        assert rep.max_violation == max(float(ratios.max()) - 1.0, 0.0)

    def test_zero_field_passes_vacuously(self):
        n_max = 4
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(1.0, n_max)
        dp = DiffusionProfile.constant(1.0, n_max)
        F = MassField.zeros(grid, n_max)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.05, track_majorant=True)
        rep = check_heat_majorant(run(F, k, dp, cfg), dp)
        assert rep.passed and rep.max_violation == 0.0


class TestGronwall:
    """Each run is a (record, fields) pair of :func:`run_keeping_fields`."""

    def _two_runs(self, delta):
        n_max = 8
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(1.0, n_max)
        dp = DiffusionProfile.power_law(0.5, 0.5, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=1.0, width=0.1)
        G = MassField(grid, F.data * (1.0 + delta))
        cfg = RunConfig(t_final=0.5, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1)
        return run_keeping_fields(F, k, dp, cfg), run_keeping_fields(G, k, dp, cfg), scope(k, dp, F, 2.0)

    def test_identical_runs_give_zero_distance(self):
        rf, _, sc = self._two_runs(1e-3)
        rep = check_gronwall(*rf, *rf, sc)
        assert rep.passed and rep.max_violation == 0.0

    def test_perturbed_run_stays_in_envelope(self):
        rf, rg, sc = self._two_runs(1e-3)
        rep = check_gronwall(*rf, *rg, sc)
        assert rep.passed
        assert rep.max_violation <= 1.0 + 1e-12

    def test_underestimated_bound_rejected(self):
        rf, rg, sc = self._two_runs(1e-3)
        with pytest.raises(HypothesisError, match="below the observed sup"):
            check_gronwall(*rf, *rg, sc, A=1e-6)

    def test_needs_one_field_per_stride(self):
        (rec, fields), rg, sc = self._two_runs(1e-3)
        with pytest.raises(ValueError, match="one field per stride"):
            check_gronwall(rec, fields[:-1], *rg, sc)

    def test_c0_is_the_kernels_growth_constant(self):
        """The sum kernel's alpha/(n*m) peaks at (1,1): c0 = 2, not a free choice."""
        n_max = 8
        grid = Grid(1, 1.0, 16)
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile.constant(0.5, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1)
        rf = run_keeping_fields(F, k, dp, cfg)
        sc = scope(k, dp, F, 2.0)
        assert sc.c0 == 2.0
        assert "c0=2," in check_gronwall(*rf, *rf, sc).detail
        with pytest.raises(HypothesisError, match="c0 covers the masses 1..4"):
            check_gronwall(*rf, *rf, scope(k, dp, MassField.zeros(grid, 4), 2.0))

    def test_detail_prints_the_envelope_factor(self):
        """exp(4 c0 A T) at the last stride, as an exponent of e; the verdict
        does not read it."""
        rf, rg, sc = self._two_runs(1e-3)
        rep = check_gronwall(*rf, *rg, sc, A=3.0)
        assert rep.detail.endswith(f", envelope exp(4*c0*A*T)=e^{4.0 * sc.c0 * 3.0 * rf[0].times[-1]:.4g}")
        assert rep.detail.endswith("=e^6")

    def test_large_bound_passes_vacuously(self):
        """exp(4 c0 A t) overflows a float past t = 0 at A = 1e4; the envelope
        is applied as exp(-4 c0 A t), which underflows to 0 instead."""
        rf, rg, sc = self._two_runs(1e-3)
        rep = check_gronwall(*rf, *rg, sc, A=1e4)
        assert rep.passed and rep.max_violation == 1.0 and rep.location == (0.0,)


class TestConservationReport:
    def test_cutoff_run_passes(self):
        n_max = 8
        k = Kernel.sum_kernel(1.0, n_max)
        cfg = RunConfig(t_final=0.5, dt=0.005, policy=TruncationPolicy.cutoff(n_max), output_stride=0.1)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        assert check_conservation(rec).passed

    def test_reservoir_run_passes_including_gel(self):
        n_max = 32
        k = Kernel.product(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=2e-3, policy=TruncationPolicy.gel_reservoir(n_max), output_stride=0.25)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        rep = check_conservation(rec)
        assert rep.passed and rec.gel[-1] > 0

    def test_report_is_the_max_of_the_drift_series(self):
        n_max = 32
        k = Kernel.product(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=2e-3, policy=TruncationPolicy.gel_reservoir(n_max), output_stride=0.25)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        drift = conservation_drift(rec)
        assert drift.shape == (len(rec.times),) and drift[0] == 0.0
        rep = check_conservation(rec)
        assert rep.max_violation == drift.max()
        assert rep.location == (rec.times[int(drift.argmax())],)

    def test_negative_violation_rejected_by_report(self):
        with pytest.raises(ValueError):
            BoundReport(name="x", max_violation=-1.0, tolerance=0.1)

    def test_passed_is_the_violation_within_tolerance(self):
        assert BoundReport(name="x", max_violation=0.1, tolerance=0.1).passed
        assert not BoundReport(name="x", max_violation=0.2, tolerance=0.1).passed
        with pytest.raises(TypeError):
            BoundReport(name="x", max_violation=0.2, tolerance=0.1, passed=True)


class TestMomentPlateau:
    """Every level runs with one kernel built at the largest range, as the CLI's ladder does."""

    KERNEL = Kernel.from_table(np.sqrt(np.add.outer(np.arange(1.0, 33), np.arange(1.0, 33))))

    def _field(self, n_max, amplitude=0.5):
        return MassField.gaussian_blob(Grid(1, 1.0, 16), n_max, amplitude=amplitude, width=0.1)

    def _record(self, n_max):
        dp = DiffusionProfile.constant(1.0, n_max)
        cfg = RunConfig(t_final=0.4, dt=0.02, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1, moment_exponents=(0.0, 1.0, 2.0),
                        pair_moment_exponents=(1.0,))
        return run(self._field(n_max), self.KERNEL, dp, cfg)

    def _check(self, recs, a):
        field0 = self._field(16)
        return check_moment_bound(recs, a, scope(self.KERNEL, DiffusionProfile.constant(1.0, 16), field0, a), field0)

    def test_bounded_kernel_plateaus(self):
        recs = [self._record(n) for n in (16, 32)]
        rep = self._check(recs, 2.0)
        assert rep.passed
        assert "admissibility: ok" in rep.detail

    def test_needs_two_refinements(self):
        with pytest.raises(ValueError):
            self._check([self._record(16)], 2.0)

    def test_missing_series_reported(self):
        recs = [self._record(16), self._record(32)]
        with pytest.raises(ValueError, match="moment series"):
            self._check(recs, 3.0)

    def test_unmet_admissibility_is_informative_not_fatal(self):
        """A fast-growing kernel voids the boundedness promise; the report
        carries that caveat instead of raising."""
        recs = []
        k = Kernel.product(1.0, 32)
        for n_max in (16, 32):
            dp = DiffusionProfile.constant(1.0, n_max)
            cfg = RunConfig(t_final=0.2, dt=0.005, policy=TruncationPolicy.cutoff(n_max),
                            output_stride=0.1, moment_exponents=(0.0, 1.0, 2.0),
                            pair_moment_exponents=(1.0,))
            recs.append(run(self._field(n_max, 0.3), k, dp, cfg))
        field0 = self._field(16, 0.3)
        rep = check_moment_bound(recs, 2.0, scope(k, DiffusionProfile.constant(1.0, 16), field0, 2.0), field0)
        assert "NOT met" in rep.detail

    def test_initial_functionals_come_from_the_initial_field(self):
        """The functionals are read off ``field0`` whether or not the runs recorded fields."""
        rep = self._check([self._record(n) for n in (16, 32)], 2.0)
        a1, a2, a3 = initial_data_functionals(self._field(16), 2.0)
        assert rep.detail.endswith(f"; initial functionals A1={a1:.4g}, A2={a2:.4g}, A3={a3:.4g}")


def scan(n_list, t_final=1.0, workers=1, **keys):
    """The CLI's gelscan ladder over ``n_list`` from unit monodisperse data,
    with scenario attributes ``keys``, judged by :func:`gelation_scan`."""
    s = Scenario(name="scan", mode="gelscan", t_final=t_final, gelscan_n_list=tuple(n_list), workers=workers, **keys)
    kernel = cli.build_kernel(s)
    return gelation_scan(cli._ladder(s, cli._levels(s, list(n_list), kernel), kernel))


class TestGelationScan:
    def test_zero_kernel_conserves(self):
        v = scan([16, 32, 64], kernel_kind="constant", kernel_c=0.0)
        assert v.verdict == "conserving"
        assert all(g == 0 for g in v.gel_values)

    def test_multiplicative_kernel_gels(self):
        """alpha = n*m from unit monodisperse data: the reservoir converges
        to I(0) - I(T) = 1 - 1/(2T), here 0.5 at T = 1."""
        v = scan([32, 64, 128], kernel_kind="product", kernel_a=1.0)
        assert v.verdict == "gelling"
        assert v.gel_values[-1] == pytest.approx(0.5, abs=5e-3)

    def test_weak_kernel_conserves(self):
        v = scan([16, 32, 64], kernel_kind="product", kernel_a=0.4)
        assert v.verdict == "conserving"

    def test_factorised_scan_matches_dense_oracle(self, tmp_path, monkeypatch):
        """The scan's step size and run take lambda from the evaluator, so a
        factorised kernel never builds its dense table."""
        table = tmp_path / "product.csv"
        rows = [f"{n},{m},{float(n * m)!r}" for n in range(1, 65) for m in range(1, n + 1)]
        table.write_text("n,m,alpha\n" + "\n".join(rows) + "\n")
        oracle = scan([16, 32, 64], kernel_kind="table", kernel_table=str(table))

        def no_dense(self, n_max=None):
            raise AssertionError("dense table built")

        monkeypatch.setattr(Kernel, "dense", no_dense)
        v = scan([16, 32, 64], kernel_kind="product", kernel_a=1.0)
        np.testing.assert_allclose(v.gel_values, oracle.gel_values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v.mass_ratios, oracle.mass_ratios, rtol=1e-12, atol=0.0)
        assert v.verdict == oracle.verdict

    def test_first_loss_coefficients_run_here_before_any_fork(self, tmp_path, monkeypatch):
        """Every level's lambda0 is evaluated in this process before the
        levels are mapped out, and no worker evaluates one: a set-up probe
        that stops the process at its first evaluator call must stop this
        process, never a worker.  Calls are logged to a file, since workers
        cannot append to this process's lists."""
        calls_path = tmp_path / "calls"
        calls_path.touch()
        loss_coefficients = RateEvaluator.loss_coefficients
        fork_map = cli.fork_map
        seen_on_entry = []

        def recording_lambda(self, flat, **kwargs):
            with open(calls_path, "a") as fh:
                fh.write(f"{os.getpid()} {sys._getframe(1).f_code.co_name}\n")
            return loss_coefficients(self, flat, **kwargs)

        def recording_map(fn, items, workers):
            seen_on_entry.append(len(calls_path.read_text().splitlines()))
            return fork_map(fn, items, workers)

        monkeypatch.setattr(RateEvaluator, "loss_coefficients", recording_lambda)
        monkeypatch.setattr(cli, "fork_map", recording_map)
        scan([8, 16, 32], 0.5, workers=2, kernel_kind="product", kernel_a=1.0)
        calls = [line.split() for line in calls_path.read_text().splitlines()]
        here = str(os.getpid())
        assert seen_on_entry == [3]
        assert calls[:3] == [[here, "_gelscan_config"]] * 3
        steps = calls[3:]
        assert steps and all(pid != here for pid, _ in steps)
        # Workers only step: every call there comes from an RK4 substep.
        assert {caller for _, caller in steps} <= {"react_rk4", "rates"}

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError):
            scan([64, 32], kernel_kind="constant", kernel_c=0.0)

    def test_cutoff_runs_are_rejected(self):
        """A cutoff run conserves mass by construction, so its G(T) = 0
        would read as a conserving trend whatever the kernel."""
        n_max = 16
        records = []
        for n in (n_max // 2, n_max):
            cfg = RunConfig(t_final=0.5, dt=0.01, policy=TruncationPolicy.cutoff(n), output_stride=0.25)
            records.append(run(MassField.monodisperse(Grid.point(), n), Kernel.product(1.0, n), None, cfg))
        with pytest.raises(ValueError, match="gel-reservoir"):
            gelation_scan(records)


class TestCollisionBudget:
    def test_collisions_bounded_by_initial_mass(self):
        """N(0) - N(T) counts reactions one-for-one and every particle has
        unit mass at least, so the count cannot exceed I(0)."""
        n_max = 16
        k = Kernel.sum_kernel(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=0.005, policy=TruncationPolicy.cutoff(n_max), output_stride=0.25)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        rep = collision_budget(rec)
        assert rep.passed
        assert "collisions" in rep.detail

    def test_zero_kernel_spends_nothing(self):
        n_max = 4
        k = Kernel.constant(0.0, n_max)
        cfg = RunConfig(t_final=0.2, dt=0.01, policy=TruncationPolicy.cutoff(n_max), output_stride=0.1)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        rep = collision_budget(rec)
        assert rep.passed and rep.max_violation == 0.0
