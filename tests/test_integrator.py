"""Splitting integrator: conservation, order, stability guard, cross-oracles.

The homogeneous constant-kernel system has the closed form
c_n(t) = t^(n-1) / (1+t)^(n+1) for monodisperse unit data (verified here
against a fine-step integration before being trusted); it pins down the
factor-2 loss convention end to end.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fine_rk4_constant_kernel, rk4_reaction_step, run_keeping_fields
from smolkit.coagulation import RateEvaluator, TruncationPolicy
from smolkit.diffusion import heat_step_batched
from smolkit.field import Grid, MassField
from smolkit.integrator import (
    RunConfig,
    StepSizeError,
    _Engine,
    run,
)
from smolkit.kernels import DiffusionProfile, Kernel


def constant_kernel_exact(n, t):
    """Monodisperse constant-kernel solution c_n(t) = t^(n-1)/(1+t)^(n+1)."""
    n = np.asarray(n, dtype=float)
    return t ** (n - 1) / (1 + t) ** (n + 1)


class TestHomogeneousRun:
    def test_closed_form_cross_checked_against_fine_steps(self):
        """The closed form solves the untruncated system; a fine-step
        integration of the truncated one must agree wherever truncation
        cannot reach (low species, short horizon, generous range)."""
        n_max, t = 48, 0.3
        ref = fine_rk4_constant_kernel(n_max, t, 1e-4)
        exact = constant_kernel_exact(np.arange(1, n_max + 1), t)
        np.testing.assert_allclose(ref[:12], exact[:12], rtol=1e-9)

    def test_constant_kernel_solution(self):
        n_max = 64
        k = Kernel.constant(1.0, n_max)
        cfg = RunConfig(
            t_final=1.0, dt=1e-3, policy=TruncationPolicy.cutoff(n_max),
            output_stride=1.0,
        )
        _, fields = run_keeping_fields(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        c = fields[-1][:, 0]
        exact = constant_kernel_exact(np.arange(1, n_max + 1), 1.0)
        np.testing.assert_allclose(c[:20], exact[:20], rtol=1e-9)
        assert sum(c) == pytest.approx(0.5, rel=1e-9)

    def test_zero_kernel_is_identity(self):
        n_max = 8
        k = Kernel.constant(0.0, n_max)
        state = MassField(Grid.point(), np.linspace(1, 2, n_max))
        cfg = RunConfig(t_final=0.5, dt=0.05, policy=TruncationPolicy.cutoff(n_max))
        _, fields = run_keeping_fields(state, k, None, cfg)
        np.testing.assert_array_equal(fields[-1][:, 0], state.data)

    def test_gel_budget_multiplicative_kernel(self):
        """alpha = n*m with the reservoir: I(t) + G(t) stays put to 1e-10."""
        n_max = 256
        k = Kernel.product(1.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=5e-4, policy=TruncationPolicy.gel_reservoir(n_max), output_stride=0.1)
        rec = run(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        total = rec.mass_with_gel
        assert np.abs(total - total[0]).max() / total[0] <= 1e-10
        assert rec.gel[-1] > 0.1

    @pytest.mark.parametrize(
        "kernel, policy, dt",
        [
            # The shipped gelation run at N = 512, with gelscan's automatic
            # dt for unit monodisperse data: 0.8 * 0.5 / (2 * alpha(512, 1)).
            (Kernel.product(1.0, 512), TruncationPolicy.gel_reservoir(512), 0.4 / 1024),
            # The conserving run of the gelation dichotomy, alpha = (n*m)^0.4,
            # with dt by the same rule: 0.8 * 0.5 / (2 * alpha(512, 1)).
            (Kernel.product(0.4, 512), TruncationPolicy.gel_reservoir(512), 0.2 / 512**0.4),
            (Kernel.constant(1.0, 64), TruncationPolicy.cutoff(64), 1e-3),
        ],
        ids=["product-512", "product-0.4-512", "constant-64"],
    )
    def test_fft_gain_negativity_stays_at_roundoff(self, kernel, policy, dt):
        """FFT roundoff is absolute, so empty tail species can go negative,
        but never below -eps * max f; the gel reservoir never decreases."""
        cfg = RunConfig(t_final=1.0, dt=dt, policy=policy, output_stride=0.05)
        rec, fields = run_keeping_fields(MassField.monodisperse(Grid.point(), policy.n_max), kernel, None, cfg)
        fields = np.array(fields)
        assert fields.min() >= -np.finfo(float).eps * fields.max()
        assert rec.gel[0] == 0.0 and np.all(np.diff(rec.gel) >= 0.0)

    def test_kernel_weighted_pair_moment_on_point_grid(self):
        """Yk1 = sum_{n,m} (n*m + m*n) alpha(n,m) c_n c_m at every stride;
        without a diffusion profile the unweighted Y series is not recorded."""
        n_max = 12
        k = Kernel.sum_kernel(1.0, n_max)
        cfg = RunConfig(t_final=0.4, dt=0.01, policy=TruncationPolicy.cutoff(n_max), output_stride=0.1,
                        pair_moment_exponents=(1.0,))
        rec, fields = run_keeping_fields(MassField.monodisperse(Grid.point(), n_max), k, None, cfg)
        assert rec.pair_moments == {}
        assert len(rec.pair_moments_weighted[1.0]) == len(rec.times) == len(fields) == 5
        for f, yk in zip(fields, rec.pair_moments_weighted[1.0]):
            c, table = f[:, 0], k.dense()
            expect = sum(
                (n * m + m * n) * table[n - 1, m - 1] * c[n - 1] * c[m - 1]
                for n in range(1, n_max + 1)
                for m in range(1, n_max + 1)
            )
            assert yk == pytest.approx(expect, rel=1e-12)

    def test_point_grid_ignores_diffusion(self):
        """On the point grid diffusion is the identity: a profile changes
        nothing but adds the unweighted pair-moment series."""
        n_max = 8
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile.power_law(1.0, 0.5, n_max)
        cfg = RunConfig(t_final=0.2, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        pair_moment_exponents=(1.0,))
        F = MassField.monodisperse(Grid.point(), n_max)
        bare, bare_fields = run_keeping_fields(F, k, None, cfg)
        with_dp, dp_fields = run_keeping_fields(F, k, dp, cfg)
        np.testing.assert_array_equal(dp_fields[-1], bare_fields[-1])
        assert with_dp.pair_moments_weighted == bare.pair_moments_weighted
        c = bare_fields[-1][:, 0]
        n = np.arange(1, n_max + 1, dtype=float)
        d = dp.values[:n_max]
        B = np.outer(n, n) * (n[:, None] + n[None, :]) * (d[:, None] + d[None, :])
        assert with_dp.pair_moments[1.0][-1] == pytest.approx(c @ B @ c, rel=1e-12)

    def test_spatial_grid_needs_diffusion_profile(self):
        n_max = 4
        k = Kernel.constant(1.0, n_max)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(n_max))
        with pytest.raises(ValueError, match="diffusion profile"):
            run(MassField.monodisperse(Grid(1, 1.0, 8), n_max), k, None, cfg)

    def test_state_size_must_match_policy(self):
        k = Kernel.constant(1.0, 8)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(8))
        with pytest.raises(ValueError):
            run(MassField(Grid.point(), np.ones(4)), k, None, cfg)


@pytest.fixture
def small_setup():
    n_max = 12
    grid = Grid(1, 1.0, 32)
    k = Kernel.sum_kernel(1.0, n_max)
    dp = DiffusionProfile.power_law(0.5, 0.5, n_max)
    F = MassField.gaussian_blob(grid, n_max, amplitude=0.8, width=0.1)
    return grid, k, dp, F


def one_step(F, kernel, dp, cfg):
    """The record and fields of a run over exactly one step of cfg.dt."""
    return run_keeping_fields(F, kernel, dp, dataclasses.replace(cfg, t_final=cfg.dt))


class TestStep:
    def test_pure_diffusion_when_kernel_vanishes(self, small_setup):
        grid, _, dp, F = small_setup
        n_max = F.n_max
        k0 = Kernel.constant(0.0, n_max)
        cfg = RunConfig(t_final=1.0, dt=0.02, policy=TruncationPolicy.cutoff(n_max))
        out = one_step(F, k0, dp, cfg)[1][-1].reshape(F.data.shape)
        for n in range(n_max):
            d = [dp.value(n + 1)]
            expect = heat_step_batched(heat_step_batched(F.data[n][None], d, 0.01, grid), d, 0.01, grid)[0]
            np.testing.assert_allclose(out[n], expect, atol=1e-15)

    def test_matches_homogeneous_path_without_diffusion(self):
        """d = 0 on a spatially uniform field reduces the splitting to the
        space-free integrator."""
        n_max = 10
        grid = Grid(1, 1.0, 8)
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile(np.full(n_max, 1e-300))
        F = MassField.monodisperse(grid, n_max, amplitude=0.5)
        cfg = RunConfig(t_final=0.02, dt=0.02, policy=TruncationPolicy.cutoff(n_max))
        stepped = run_keeping_fields(F, k, dp, cfg)[1][-1]
        _, fields = run_keeping_fields(MassField(Grid.point(), F.flat()[:, 0].copy()), k, None, cfg)
        np.testing.assert_allclose(stepped[:, 0], fields[-1][:, 0], rtol=1e-10)

    def test_mass_audit_single_step(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=1.0, dt=0.01, policy=TruncationPolicy.gel_reservoir(F.n_max))
        total = one_step(F, k, dp, cfg)[0].mass_with_gel
        before, after = total[0], total[-1]
        assert abs(after - before) / before <= 1e-11

    def test_stability_error_names_species_and_cell(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=50.0, dt=50.0, policy=TruncationPolicy.cutoff(F.n_max), auto_halve=False)
        with pytest.raises(StepSizeError) as err:
            run(F, k, dp, cfg)
        assert err.value.species >= 1
        assert "cell" in str(err.value)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_guard_reads_the_field_the_reaction_sees(self, splitting):
        """A unit spike f_1 = 40 has dt*lambda = 0.8 before diffusion, but the
        first diffusion substep spreads it below the bound before the
        reaction runs, so the step is accepted."""
        n_max = 4
        grid = Grid(1, 1.0, 32)
        F = MassField.zeros(grid, n_max)
        F.data[0, 16] = 40.0
        cfg = RunConfig(t_final=0.01, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        splitting=splitting, auto_halve=False)
        total = run(F, Kernel.constant(1.0, n_max), DiffusionProfile.constant(1.0, n_max), cfg).mass_with_gel
        assert total[-1] == pytest.approx(total[0], rel=1e-12)


class TestMajorantRow:
    """``track_majorant`` carries the initial mass density sum_n n f_n(x, 0)
    as an extra row diffused at the fastest rate d(1)."""

    def test_monodisperse_constant_fixed_point(self):
        grid = Grid(1, 1.0, 16)
        F = MassField.monodisperse(grid, 4, amplitude=2.5)
        dp = DiffusionProfile.power_law(1.0, 0.5, 4)
        cfg = RunConfig(t_final=3.0, dt=0.05, policy=TruncationPolicy.cutoff(4), track_majorant=True)
        rec = run(F, Kernel.constant(1.0, 4), dp, cfg)
        assert rec.times[-1] == pytest.approx(3.0)
        np.testing.assert_allclose(rec.majorant[-1], 2.5, rtol=1e-13)

    def test_zero_time_returns_mass_density(self):
        grid = Grid(1, 1.0, 16)
        rng = np.random.default_rng(6)
        F = MassField(grid, rng.random((3,) + grid.shape))
        dp = DiffusionProfile.constant(1.0, 3)
        cfg = RunConfig(t_final=0.0, dt=0.01, policy=TruncationPolicy.cutoff(3), track_majorant=True)
        rec = run(F, Kernel.constant(1.0, 3), dp, cfg)
        n = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(rec.majorant[0], np.tensordot(n, F.data, axes=(0, 0)))

    def test_increasing_profile_rejected(self):
        grid = Grid(1, 1.0, 16)
        F = MassField.monodisperse(grid, 3)
        dp = DiffusionProfile([1.0, 2.0, 3.0])
        cfg = RunConfig(t_final=1.0, dt=0.01, policy=TruncationPolicy.cutoff(3), track_majorant=True)
        with pytest.raises(ValueError, match="non-increasing"):
            run(F, Kernel.constant(1.0, 3), dp, cfg)


class TestRun:
    def test_zero_horizon_records_initial_state_only(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.0, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.1)
        rec = run(F, k, dp, cfg)
        assert rec.times == [0.0]
        assert rec.mass[0] > 0

    def test_pure_diffusion_conserves_mass(self, small_setup):
        grid, _, dp, F = small_setup
        k0 = Kernel.constant(0.0, F.n_max)
        cfg = RunConfig(t_final=0.5, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.05)
        rec = run(F, k0, dp, cfg)
        I = np.asarray(rec.mass)
        assert np.abs(I - I[0]).max() / I[0] <= 1e-12

    def test_homogeneous_data_stays_homogeneous(self):
        n_max = 8
        grid = Grid(1, 1.0, 16)
        k = Kernel.constant(1.0, n_max)
        dp = DiffusionProfile.constant(0.3, n_max)
        F = MassField.monodisperse(grid, n_max, amplitude=1.0)
        cfg = RunConfig(t_final=0.3, dt=0.01, policy=TruncationPolicy.cutoff(n_max))
        _, fields = run_keeping_fields(F, k, dp, cfg)
        for f in fields:
            assert np.ptp(f, axis=1).max() <= 1e-13

    @pytest.mark.parametrize("kind,tol", [("cutoff", 1e-10), ("gel_reservoir", 1e-10)])
    def test_conservation_over_full_run(self, small_setup, kind, tol):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.5, dt=0.005, policy=TruncationPolicy(kind, F.n_max), output_stride=0.05)
        rec = run(F, k, dp, cfg)
        total = rec.mass_with_gel if kind == "gel_reservoir" else np.asarray(rec.mass)
        assert np.abs(total - total[0]).max() / total[0] <= tol

    @pytest.mark.parametrize("dim,cells", [(2, 16), (3, 8)])
    def test_higher_dimensions_conserve(self, dim, cells):
        n_max = 6
        grid = Grid(dim, 1.0, cells)
        k = Kernel.sum_kernel(1.0, n_max)
        dp = DiffusionProfile.power_law(0.5, 0.5, n_max)
        F = MassField.gaussian_blob(grid, n_max, amplitude=0.8, width=0.1)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.05, track_majorant=True)
        rec = run(F, k, dp, cfg)
        I = np.asarray(rec.mass)
        assert np.abs(I - I[0]).max() / I[0] <= 1e-10
        from smolkit.analysis import check_heat_majorant

        assert check_heat_majorant(rec, dp).passed

    def test_particle_number_nonincreasing(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.5, dt=0.005, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.05)
        rec = run(F, k, dp, cfg)
        numbers = np.asarray(rec.moments[0.0])
        assert np.all(np.diff(numbers) <= 1e-12)

    def test_auto_halving_recovers_from_coarse_dt(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.1, dt=10.0, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.1)
        rec = run(F, k, dp, cfg)
        assert rec.events and "halved dt" in rec.events[0]
        assert rec.dt_series[-1] < 10.0

    def test_strang_second_order_convergence(self, small_setup):
        """Error against a dt/8 reference drops by >= 3.5 when dt halves
        (the asymptotic second-order ratio with this reference is 4.2)."""
        grid, k, dp, F = small_setup
        T = 0.2

        def final(dt):
            cfg = RunConfig(t_final=T, dt=dt, policy=TruncationPolicy.cutoff(F.n_max),
                            output_stride=T)
            return run_keeping_fields(F, k, dp, cfg)[1][-1]

        coarse = T / 16
        ref = final(coarse / 8)
        e_coarse = np.abs(final(coarse) - ref).max()
        e_fine = np.abs(final(coarse / 2) - ref).max()
        assert e_coarse / e_fine >= 3.5

    def test_lie_splitting_first_order(self, small_setup):
        grid, k, dp, F = small_setup
        T = 0.2

        def final(dt):
            cfg = RunConfig(t_final=T, dt=dt, policy=TruncationPolicy.cutoff(F.n_max),
                            output_stride=T, splitting="lie")
            return run_keeping_fields(F, k, dp, cfg)[1][-1]

        ref = final(T / 128)
        e_coarse = np.abs(final(T / 8) - ref).max()
        e_fine = np.abs(final(T / 16) - ref).max()
        assert 1.5 <= e_coarse / e_fine <= 3.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_positivity_under_stability_bound(self, seed):
        """No negative densities appear while the loss-dominance bound holds."""
        rng = np.random.default_rng(seed)
        n_max = 6
        grid = Grid(1, 1.0, 8)
        k = Kernel.two_exponent(rng.uniform(0, 0.9), rng.uniform(0, 0.9), n_max)
        dp = DiffusionProfile.power_law(rng.uniform(0.1, 1.0), rng.uniform(0, 1), n_max)
        F = MassField(grid, rng.random((n_max,) + grid.shape))
        cfg = RunConfig(t_final=0.2, dt=0.01, policy=TruncationPolicy.cutoff(n_max),
                        output_stride=0.05)
        _, fields = run_keeping_fields(F, k, dp, cfg)
        for f in fields:
            assert f.min() >= 0.0

    def test_nan_detection_aborts(self, small_setup, monkeypatch):
        """If evaluation breaks down mid-run, the loop must abort with a
        diagnostic instead of propagating NaNs into the record."""
        from smolkit.coagulation import RateEvaluator

        grid, k, dp, F = small_setup
        real = RateEvaluator.rates

        def poisoned(self, flat, *args, **kwargs):
            Q, flux = real(self, flat, *args, **kwargs)
            Q[0, 0] = np.nan
            return Q, flux

        monkeypatch.setattr(RateEvaluator, "rates", poisoned)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max), auto_halve=False)
        with pytest.raises(FloatingPointError, match="non-finite"):
            run(F, k, dp, cfg)


class TestLossCoefficientCalls:
    """A step evaluates lambda four times: once for the guard, called by the
    integrator itself, which RK4 stage 1 reuses, and once inside each of
    stages 2-4.  A rejected step evaluates only the guard's."""

    @staticmethod
    def count_calls(monkeypatch):
        from smolkit.coagulation import RateEvaluator

        calls = {"loss": 0, "direct": 0, "rates": 0}
        depth = [0]
        real_loss, real_rates = RateEvaluator.loss_coefficients, RateEvaluator.rates

        def loss(self, flat, **kwargs):
            calls["loss"] += 1
            calls["direct"] += depth[0] == 0
            return real_loss(self, flat, **kwargs)

        def rates(self, flat, *args, **kwargs):
            calls["rates"] += 1
            depth[0] += 1
            try:
                return real_rates(self, flat, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(RateEvaluator, "loss_coefficients", loss)
        monkeypatch.setattr(RateEvaluator, "rates", rates)
        return calls

    def test_four_per_step(self, small_setup, monkeypatch):
        grid, k, dp, F = small_setup
        calls = self.count_calls(monkeypatch)
        rec = run(F, k, dp, RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max)))
        assert not rec.events
        assert calls == {"loss": 40, "direct": 10, "rates": 40}

    def test_one_guard_call_per_attempted_step(self, small_setup, monkeypatch):
        grid, k, dp, F = small_setup
        calls = self.count_calls(monkeypatch)
        cfg = RunConfig(t_final=0.1, dt=10.0, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.1)
        rec = run(F, k, dp, cfg)
        halvings = len(rec.events)
        accepted = calls["rates"] // 4
        assert halvings > 0 and accepted > 0
        assert calls["direct"] == accepted + halvings
        assert calls["loss"] == 4 * accepted + halvings


class TestBufferedReactionStep:
    """``react_rk4`` runs its stages in work arrays reused across steps, and
    the evaluator reuses its own; neither may change a bit of the result."""

    GRIDS = {"point": Grid.point(), "1d": Grid(1, 1.0, 64), "2d": Grid(2, 1.0, 8)}

    @staticmethod
    def engine(grid, k, policy, dt):
        F = MassField(grid, np.zeros((policy.n_max,) + grid.shape))
        dp = DiffusionProfile.power_law(1.0, 0.5, policy.n_max) if grid.dim else None
        return _Engine(F, k, dp, RunConfig(t_final=1.0, dt=dt, policy=policy))

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("path", ["factors", "dense"])
    @pytest.mark.parametrize("policy_kind", ["cutoff", "gel_reservoir"])
    def test_matches_out_of_place_oracle(self, grid, path, policy_kind):
        n_max, grid = 40, self.GRIDS[grid]
        k = Kernel.sum_kernel(1.0, n_max)
        if path == "dense":
            k = Kernel.from_table(k.dense())
        policy = TruncationPolicy(policy_kind, n_max)
        n = np.arange(1, n_max + 1)
        flat = np.random.default_rng(7).random((n_max, grid.n_cells)) * np.exp(-0.1 * n)[:, None]
        dt = 0.25 / RateEvaluator(k, policy).loss_coefficients(flat).max()
        engine, oracle = self.engine(grid, k, policy, dt), RateEvaluator(k, policy)
        gel = ref_gel = 0.0
        ref = flat.copy()
        for _ in range(3):
            prev = flat
            flat, gel = engine.react_rk4(prev, gel, dt)
            assert np.array_equal(prev, ref)  # the input is left unchanged
            ref, ref_gel = rk4_reaction_step(oracle, ref, ref_gel, dt, grid.cell_volume)
            assert np.array_equal(flat, ref)
            assert gel == ref_gel
        assert (gel > 0.0) == (policy_kind == "gel_reservoir")

    @pytest.mark.parametrize("kind", ["sum", "product"])
    @pytest.mark.parametrize("policy_kind", ["cutoff", "gel_reservoir"])
    def test_steady_state_step_allocates_at_most_three_fields(self, kind, policy_kind):
        """After one warm-up step, the transient traced peak of a factorised
        step stays within 3 field sizes; the returned field is one of them.
        Without the work arrays the step peaked at 16.7.  numpy's ufunc
        iterator can hold a fixed 8192-element buffer per broadcast operand,
        so the bound in field sizes is read at the shipped spatial run's
        size: n_max 128 on 64 cells, 64 KB per field."""
        limit = 3.0
        n_max, grid = 128, Grid(1, 1.0, 64)
        k = Kernel.sum_kernel(1.0, n_max) if kind == "sum" else Kernel.product(1.0, n_max)
        engine = self.engine(grid, k, TruncationPolicy(policy_kind, n_max), 1e-3)
        flat = MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1).flat().copy()
        flat, gel = engine.react_rk4(flat, 0.0, 1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            engine.react_rk4(flat, gel, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= limit * flat.nbytes, peak / flat.nbytes


class TestMergedHalfSteps:
    """Under Strang, a step that ends off the recorded strides carries its
    trailing D(dt/2) into the next step's leading one, D(dt/2 + dt/2) =
    D(dt).  A run whose stride is its dt records every step, so it merges
    nothing: it is the unmerged scheme bit for bit, and the oracle here.

    Stated before measuring: the merge moves the recorded moments and
    fields by at most MERGE_RTOL relative; the unmerged and merged schemes
    were measured to agree to 1.15e-15 on the shipped spatial run."""

    MERGE_RTOL = 1e-12

    @staticmethod
    def common_rows(rec, oracle):
        """(row in rec, row in oracle) at the times both recorded; both runs
        count t in steps of the same dt, so the times compare exactly."""
        at = {t: j for j, t in enumerate(oracle.times)}
        rows = [(i, at[t]) for i, t in enumerate(rec.times) if t in at]
        assert len(rows) == len(rec.times)
        return rows

    def assert_matches_oracle(self, run_and_fields, oracle_and_fields):
        """Each pair is a (record, fields) of :func:`run_keeping_fields`."""
        (rec, fields), (oracle, oracle_fields) = run_and_fields, oracle_and_fields
        rows = self.common_rows(rec, oracle)
        for a, series in rec.moments.items():
            for i, j in rows:
                assert series[i] == pytest.approx(oracle.moments[a][j], rel=self.MERGE_RTOL, abs=0.0)
        for i, j in rows:
            scale = np.abs(oracle_fields[j]).max()
            np.testing.assert_allclose(fields[i], oracle_fields[j], rtol=0, atol=self.MERGE_RTOL * scale)
        assert rec.events == oracle.events

    def test_common_rows_match_the_unmerged_scheme(self, small_setup):
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.5, dt=0.005, policy=TruncationPolicy.cutoff(F.n_max))
        rec = run_keeping_fields(F, k, dp, cfg)
        oracle = run_keeping_fields(F, k, dp, dataclasses.replace(cfg, output_stride=cfg.dt))
        assert len(rec[0].times) == 21 and len(oracle[0].times) == 101
        self.assert_matches_oracle(rec, oracle)

    def test_halving_run_matches_and_logs_the_same_events(self, small_setup):
        """dt = 0.5 is halved four times at t = 0; the oracle's stride is the
        dt the run settles on, so it still records every accepted step."""
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=1.0, dt=0.5, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.25)
        rec, fields = run_keeping_fields(F, k, dp, cfg)
        assert len(rec.events) == 4 and rec.dt_series[-1] == 0.5 / 16
        oracle = run_keeping_fields(F, k, dp, dataclasses.replace(cfg, output_stride=rec.dt_series[-1]))
        self.assert_matches_oracle((rec, fields), oracle)

    def test_rejected_step_keeps_the_carried_half_step(self, small_setup, monkeypatch):
        """A step rejected after two merged steps halves dt; the half-step
        the second one carried is still applied, so the run stays on the
        oracle (a lost D(dt/2) moves X0 by about 1e-3 relative)."""
        grid, k, dp, F = small_setup
        real, calls = _Engine.react_rk4, [0]

        def reject_third(self, flat, gel, dt):
            calls[0] += 1
            if calls[0] == 3:
                raise StepSizeError(dt, 1.0 / dt, 1, 0)
            return real(self, flat, gel, dt)

        monkeypatch.setattr(_Engine, "react_rk4", reject_third)
        cfg = RunConfig(t_final=0.1, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.05)
        rec, fields = run_keeping_fields(F, k, dp, cfg)
        calls[0] = 0
        oracle = run_keeping_fields(F, k, dp, dataclasses.replace(cfg, output_stride=0.005))
        assert len(rec.events) == 1 and rec.events[0].startswith("t=0.02: halved dt to 0.005")
        self.assert_matches_oracle((rec, fields), oracle)

    def test_one_heat_step_per_step_plus_one_per_stride(self, small_setup, monkeypatch):
        """20 steps over 2 strides: 20 leading and 2 trailing heat steps,
        where the unmerged scheme takes 40; one multiplier per duration."""
        import smolkit.integrator as integrator

        grid, k, dp, F = small_setup
        durations, built, steps = [], [], []
        heat, multipliers, react = integrator.heat_step_batched, integrator._multipliers, _Engine.react_rk4

        def spy_heat(data, Ds, t, *args):
            durations.append(t)
            return heat(data, Ds, t, *args)

        def spy_multipliers(Ds, t, grid):
            built.append(t)
            return multipliers(Ds, t, grid)

        def spy_react(self, flat, gel, dt):
            steps.append(dt)
            return react(self, flat, gel, dt)

        monkeypatch.setattr(integrator, "heat_step_batched", spy_heat)
        monkeypatch.setattr(integrator, "_multipliers", spy_multipliers)
        monkeypatch.setattr(_Engine, "react_rk4", spy_react)
        rec = run(F, k, dp, RunConfig(t_final=0.1, dt=0.005, policy=TruncationPolicy.cutoff(F.n_max),
                                      output_stride=0.05))
        assert len(durations) == 22
        # dt/2 and dt: t is counted in steps, so the last step is dt too
        assert sorted(built) == sorted(set(durations)) == [0.0025, 0.005]
        assert steps == [0.005] * 20 and rec.dt_series[-1] == steps[-1]
        assert rec.times == [0.0, 0.05, 0.1]

    def test_times_are_counted_from_the_last_dt_change(self, small_setup, monkeypatch):
        """After dt halves at t = 0.02, t is 0.02 + k * 0.005, not a running
        sum; the run ends on t_final with a step of exactly dt."""
        grid, k, dp, F = small_setup
        real, calls = _Engine.react_rk4, [0]
        steps = []

        def reject_third(self, flat, gel, dt):
            calls[0] += 1
            if calls[0] == 3:
                raise StepSizeError(dt, 1.0 / dt, 1, 0)
            steps.append(dt)
            return real(self, flat, gel, dt)

        monkeypatch.setattr(_Engine, "react_rk4", reject_third)
        rec = run(F, k, dp, RunConfig(t_final=0.3, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max),
                                      output_stride=0.005))
        assert steps == [0.01, 0.01] + [0.005] * 56
        assert rec.times == [0.0, 0.01, 0.02] + [0.02 + j * 0.005 for j in range(1, 56)] + [0.3]
        assert rec.dt_series[-1] == steps[-1]

    def test_lie_and_point_grid_are_unchanged(self, small_setup):
        """Lie carries nothing, and the point grid has no diffusion: the
        stride does not change a bit of either."""
        grid, k, dp, F = small_setup
        cfg = RunConfig(t_final=0.2, dt=0.01, policy=TruncationPolicy.cutoff(F.n_max), output_stride=0.1,
                        splitting="lie")
        for F0, d in ((F, dp), (MassField(Grid.point(), F.flat()[:, 0].copy()), None)):
            rec, fields = run_keeping_fields(F0, k, d, cfg)
            oracle, oracle_fields = run_keeping_fields(F0, k, d, dataclasses.replace(cfg, output_stride=cfg.dt))
            for i, j in self.common_rows(rec, oracle):
                assert np.array_equal(fields[i], oracle_fields[j])
            if d is None:
                _, strang = run_keeping_fields(F0, k, d, dataclasses.replace(cfg, splitting="strang"))
                assert len(strang) == len(fields)
                assert all(np.array_equal(a, b) for a, b in zip(strang, fields))

    def test_majorant_equality_case_stays_exact(self):
        """Pure diffusion of species 1 alone: the weighted moment is
        d(1)^(dim/2) times the majorant to the last bit, merged or not."""
        grid, n_max = Grid(1, 1.0, 64), 8
        F = MassField.gaussian_blob(grid, n_max, amplitude=1.0, width=0.1)
        dp = DiffusionProfile.power_law(1.0, 0.5, n_max)
        cfg = RunConfig(t_final=0.2, dt=2e-3, policy=TruncationPolicy.cutoff(n_max), output_stride=0.05,
                        track_majorant=True)
        rec = run(F, Kernel.constant(0.0, n_max), dp, cfg)
        assert len(rec.majorant) == 5
        for xh, u in zip(rec.weighted_mass_moment, rec.majorant):
            assert np.array_equal(xh, dp.value(1) ** 0.5 * u)

    def test_order_ratio_does_not_move(self, small_setup):
        """Criterion 9's ratio (the error against a dt/8 reference, at dt
        and dt/2) is the same with every step recorded and with one stride:
        within 1e-6 relative, stated before measuring."""
        grid, k, dp, F = small_setup
        T = 0.2

        def ratio(merge):
            def final(dt):
                cfg = RunConfig(t_final=T, dt=dt, policy=TruncationPolicy.cutoff(F.n_max),
                                output_stride=T if merge else dt)
                return run_keeping_fields(F, k, dp, cfg)[1][-1]

            coarse = T / 16
            ref = final(coarse / 8)
            return np.abs(final(coarse) - ref).max() / np.abs(final(coarse / 2) - ref).max()

        merged, unmerged = ratio(True), ratio(False)
        assert merged >= 3.5
        assert merged == pytest.approx(unmerged, rel=1e-6)


class TestOnStride:
    """``run`` hands each recorded state to ``on_stride`` and never writes
    that array afterwards, so a caller may keep it without a copy (the
    CLI's snapshot writer, tracer and gronwall check do)."""

    CASES = {
        # dt = 0.005 under a stride of 0.05: nine of ten steps carry their half-step
        "strang-merged": dict(t_final=0.2, dt=0.005, output_stride=0.05),
        "strang-merged-majorant": dict(t_final=0.2, dt=0.005, output_stride=0.05, track_majorant=True),
        "lie": dict(t_final=0.2, dt=0.01, output_stride=0.05, splitting="lie"),
        "point-grid": dict(t_final=0.2, dt=0.01, output_stride=0.05),
        # dt = 0.5 is halved four times at t = 0
        "halving": dict(t_final=1.0, dt=0.5, output_stride=0.25),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_handed_out_arrays_are_never_written(self, small_setup, case):
        grid, k, dp, F = small_setup
        if case == "point-grid":
            F, dp = MassField(Grid.point(), F.flat()[:, 0].copy()), None
        cfg = RunConfig(policy=TruncationPolicy.cutoff(F.n_max), **self.CASES[case])
        handed, copies, calls = [], [], []

        def on_stride(i, t, flat, gel):
            calls.append((i, t, gel))
            handed.append(flat)
            copies.append(flat.copy())

        rec = run(F, k, dp, cfg, on_stride=on_stride)
        if case == "halving":
            assert len(rec.events) == 4
        assert calls == list(zip(range(len(rec.times)), rec.times, rec.gel))
        for a, c in zip(handed, copies):
            assert a.shape == (F.n_max, F.grid.n_cells) and a.tobytes() == c.tobytes()


class TestRunConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            RunConfig(t_final=1.0, dt=0.0, policy=TruncationPolicy.cutoff(4))

    def test_rejects_unknown_splitting(self):
        with pytest.raises(ValueError):
            RunConfig(t_final=1.0, dt=0.1, policy=TruncationPolicy.cutoff(4), splitting="yolo")

    @pytest.mark.parametrize("key", ["moment_exponents", "pair_moment_exponents"])
    def test_rejects_repeated_exponent(self, key):
        # a repeated exponent would append its series twice per stride
        with pytest.raises(ValueError, match="repeated"):
            RunConfig(t_final=1.0, dt=0.1, policy=TruncationPolicy.cutoff(4), **{key: (0.0, 1.0, 1.0, 2.0)})

    def test_default_stride(self):
        cfg = RunConfig(t_final=2.0, dt=0.01, policy=TruncationPolicy.cutoff(4))
        assert cfg.stride == pytest.approx(0.1)
