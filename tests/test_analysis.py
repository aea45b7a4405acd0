"""Monitors: exponent formula, bound reports, gel verdicts.

The threshold-exponent branch values are checked by direct arithmetic
substitution; continuity at the branch boundary and linear growth in the
controlled moment order are structural identities of the formula.
"""

import numpy as np
import pytest

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
)
from smolkit.coagulation import TruncationPolicy
from smolkit.field import Grid, MassField
from smolkit.integrator import RunConfig, homogeneous_run, run
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
        bad = DiffusionProfile.from_table(np.linspace(1, 2, n_max))
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
    def _two_runs(self, delta):
        n_max = 8
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(1.0, n_max)
        dp = DiffusionProfile.power_law(0.5, 0.5, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=1.0, width=0.1)
        G = MassField(grid, F.data * (1.0 + delta))
        cfg = RunConfig(t_final=0.5, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1, record_fields=True)
        return run(F, k, dp, cfg), run(G, k, dp, cfg)

    def test_identical_runs_give_zero_distance(self):
        rf, _ = self._two_runs(1e-3)
        rep = check_gronwall(rf, rf, c0=1.0)
        assert rep.passed and rep.max_violation == 0.0

    def test_perturbed_run_stays_in_envelope(self):
        rf, rg = self._two_runs(1e-3)
        rep = check_gronwall(rf, rg, c0=1.0)
        assert rep.passed
        assert rep.max_violation <= 1.0 + 1e-12

    def test_underestimated_bound_rejected(self):
        rf, rg = self._two_runs(1e-3)
        with pytest.raises(HypothesisError, match="below the observed sup"):
            check_gronwall(rf, rg, c0=1.0, A=1e-6)

    def test_kernel_outside_quadratic_envelope_rejected(self):
        n_max = 8
        grid = Grid(1, 1.0, 16)
        k = Kernel.sum_kernel(1.0, n_max)  # alpha(1,1) = 2 > c0*1*1
        dp = DiffusionProfile.constant(0.5, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1, record_fields=True)
        rec = run(F, k, dp, cfg)
        with pytest.raises(HypothesisError, match="c0"):
            check_gronwall(rec, rec, c0=1.0)


class TestConservationReport:
    def test_cutoff_run_passes(self):
        n_max = 8
        k = Kernel.sum_kernel(1.0, n_max)
        cfg = RunConfig(t_final=0.5, dt=0.005, policy=TruncationPolicy.cutoff(n_max), output_stride=0.1)
        rec = homogeneous_run(MassField.monodisperse(Grid.point(), n_max), k, cfg)
        assert check_conservation(rec).passed

    def test_reservoir_run_passes_including_gel(self):
        n_max = 32
        k = Kernel.product(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=2e-3, policy=TruncationPolicy.gel_reservoir(n_max), output_stride=0.25)
        rec = homogeneous_run(MassField.monodisperse(Grid.point(), n_max), k, cfg)
        rep = check_conservation(rec)
        assert rep.passed and rec.gel[-1] > 0

    def test_report_is_the_max_of_the_drift_series(self):
        n_max = 32
        k = Kernel.product(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=2e-3, policy=TruncationPolicy.gel_reservoir(n_max), output_stride=0.25)
        rec = homogeneous_run(MassField.monodisperse(Grid.point(), n_max), k, cfg)
        drift = conservation_drift(rec)
        assert drift.shape == (len(rec.times),) and drift[0] == 0.0
        rep = check_conservation(rec)
        assert rep.max_violation == drift.max()
        assert rep.location == (rec.times[int(drift.argmax())],)

    def test_negative_violation_rejected_by_report(self):
        with pytest.raises(ValueError):
            BoundReport(name="x", max_violation=-1.0, tolerance=0.1, passed=True)


class TestMomentPlateau:
    def _record(self, n_max):
        grid = Grid(1, 1.0, 16)
        k = Kernel.from_function(lambda n, m: float(np.sqrt(n + m)), n_max)
        dp = DiffusionProfile.constant(1.0, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
        cfg = RunConfig(t_final=0.4, dt=0.02, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.1, moment_exponents=(0.0, 1.0, 2.0),
                        pair_moment_exponents=(1.0,))
        return run(F, k, dp, cfg)

    def test_bounded_kernel_plateaus(self):
        recs = [self._record(n) for n in (16, 32)]
        dp = DiffusionProfile.constant(1.0, 16)
        rep = check_moment_bound(recs, 2.0, dp)
        assert rep.passed
        assert "admissibility: ok" in rep.detail

    def test_needs_two_refinements(self):
        with pytest.raises(ValueError):
            check_moment_bound([self._record(16)], 2.0)

    def test_missing_series_reported(self):
        recs = [self._record(16), self._record(32)]
        with pytest.raises(ValueError, match="moment series"):
            check_moment_bound(recs, 3.0)

    def test_unmet_admissibility_is_informative_not_fatal(self):
        """A fast-growing kernel voids the boundedness promise; the report
        carries that caveat instead of raising."""
        recs = []
        for n_max in (16, 32):
            grid = Grid(1, 1.0, 16)
            k = Kernel.product(1.0, n_max)
            dp = DiffusionProfile.constant(1.0, n_max)
            F = MassField.gaussian_blob(grid, n_max, amplitude=0.3, width=0.1)
            cfg = RunConfig(t_final=0.2, dt=0.005, policy=TruncationPolicy.cutoff(n_max),
                            output_stride=0.1, moment_exponents=(0.0, 1.0, 2.0),
                            pair_moment_exponents=(1.0,))
            recs.append(run(F, k, dp, cfg))
        rep = check_moment_bound(recs, 2.0, DiffusionProfile.constant(1.0, 16))
        assert "NOT met" in rep.detail


class TestGelationScan:
    def test_zero_kernel_conserves(self):
        k = Kernel.constant(0.0, 64)
        v = gelation_scan(k, [16, 32, 64], 1.0)
        assert v.verdict == "conserving"
        assert all(g == 0 for g in v.gel_values)

    def test_multiplicative_kernel_gels(self):
        """alpha = n*m from unit monodisperse data: the reservoir converges
        to I(0) - I(T) = 1 - 1/(2T), here 0.5 at T = 1."""
        k = Kernel.product(1.0, 128)
        v = gelation_scan(k, [32, 64, 128], 1.0)
        assert v.verdict == "gelling"
        assert v.gel_values[-1] == pytest.approx(0.5, abs=5e-3)

    def test_weak_kernel_conserves(self):
        k = Kernel.product(0.4, 64)
        v = gelation_scan(k, [16, 32, 64], 1.0)
        assert v.verdict == "conserving"

    def test_factorised_scan_matches_dense_oracle(self, monkeypatch):
        """The scan's step size and run take lambda from the evaluator, so a
        factorised kernel never builds its dense table."""
        k = Kernel.product(1.0, 64)
        oracle = gelation_scan(Kernel.from_table(k.dense()), [16, 32, 64], 1.0)

        def no_dense(self, n_max=None):
            raise AssertionError("dense table built")

        monkeypatch.setattr(Kernel, "dense", no_dense)
        v = gelation_scan(k, [16, 32, 64], 1.0)
        np.testing.assert_allclose(v.gel_values, oracle.gel_values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v.mass_ratios, oracle.mass_ratios, rtol=1e-12, atol=0.0)
        assert v.verdict == oracle.verdict

    def test_n_list_must_increase(self):
        k = Kernel.constant(0.0, 64)
        with pytest.raises(ValueError):
            gelation_scan(k, [64, 32], 1.0)


class TestCollisionBudget:
    def test_collisions_bounded_by_initial_mass(self):
        """N(0) - N(T) counts reactions one-for-one and every particle has
        unit mass at least, so the count cannot exceed I(0)."""
        n_max = 16
        k = Kernel.sum_kernel(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=0.005, policy=TruncationPolicy.cutoff(n_max), output_stride=0.25)
        rec = homogeneous_run(MassField.monodisperse(Grid.point(), n_max), k, cfg)
        rep = collision_budget(rec)
        assert rep.passed
        assert "collisions" in rep.detail

    def test_zero_kernel_spends_nothing(self):
        n_max = 4
        k = Kernel.constant(0.0, n_max)
        cfg = RunConfig(t_final=0.2, dt=0.01, policy=TruncationPolicy.cutoff(n_max), output_stride=0.1)
        rec = homogeneous_run(MassField.monodisperse(Grid.point(), n_max), k, cfg)
        rep = collision_budget(rec)
        assert rep.passed and rep.max_violation == 0.0
