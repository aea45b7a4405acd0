"""Spectral heat propagator: exactness, invariants, and the ordered pair bound."""

import numpy as np
import pytest

from smolkit.diffusion import (
    CRANK_NICOLSON,
    SPECTRAL,
    _apply_multipliers,
    _clip_preserving_mean,
    _laplacian_symbol,
    comparison_multiplier,
    heat_majorant,
    heat_step,
    heat_step_batched,
)
from smolkit.field import Grid, MassField
from smolkit.kernels import DiffusionProfile


@pytest.fixture
def grid():
    return Grid(1, 1.0, 128)


class TestHeatStep:
    def test_constant_field_fixed(self, grid):
        g = np.full(grid.shape, 3.2)
        np.testing.assert_allclose(heat_step(g, 0.7, 0.3, grid), 3.2, rtol=1e-14)

    def test_single_mode_decay(self, grid):
        """cos(2 pi x / L) is an eigenfunction with rate D (2 pi / L)^2."""
        x = grid.cell_centers()
        g = np.cos(2 * np.pi * x / grid.length)
        out = heat_step(g, 0.7, 0.3, grid)
        decay = np.exp(-0.7 * (2 * np.pi / grid.length) ** 2 * 0.3)
        np.testing.assert_allclose(out, decay * g, atol=1e-15)

    def test_zero_time_identity(self, grid):
        g = np.random.default_rng(0).random(grid.shape)
        np.testing.assert_array_equal(heat_step(g, 2.0, 0.0, grid), g)

    def test_zero_diffusivity_identity(self, grid):
        g = np.random.default_rng(1).random(grid.shape)
        np.testing.assert_array_equal(heat_step(g, 0.0, 5.0, grid), g)

    def test_mean_conserved(self, grid):
        g = np.random.default_rng(2).random(grid.shape)
        out = heat_step(g, 1.3, 0.05, grid)
        assert abs(out.sum() - g.sum()) <= 1e-13 * abs(g.sum())

    def test_semigroup_law(self, grid):
        g = np.random.default_rng(3).random(grid.shape)
        one = heat_step(g, 0.5, 0.5, grid)
        two = heat_step(heat_step(g, 0.5, 0.2, grid), 0.5, 0.3, grid)
        np.testing.assert_allclose(two, one, atol=1e-12)

    def test_max_principle_smooth_data(self, grid):
        x = grid.cell_centers()
        g = 2.0 + np.cos(2 * np.pi * x) + 0.5 * np.sin(6 * np.pi * x)
        out = heat_step(g, 0.8, 0.01, grid)
        assert out.max() <= g.max() + 1e-9

    def test_point_mass_clipped_nonnegative_and_mean_exact(self, grid):
        g = np.zeros(grid.shape)
        g[5] = 1.0
        out = heat_step(g, 0.4, 1e-5, grid)
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_signed_data_not_clipped(self, grid):
        x = grid.cell_centers()
        g = np.cos(2 * np.pi * x)
        out = heat_step(g, 0.1, 1e-3, grid)
        assert out.min() < 0.0

    def test_dim2_constant_and_mode(self):
        grid = Grid(2, 2.0, 16)
        xs = grid.cell_centers()
        g = np.cos(2 * np.pi * xs / 2.0)[:, None] * np.ones(16)[None, :]
        out = heat_step(g, 0.3, 0.1, grid)
        decay = np.exp(-0.3 * (2 * np.pi / 2.0) ** 2 * 0.1)
        np.testing.assert_allclose(out, decay * g, atol=1e-14)


class TestMultipliers:
    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16), (3, 8)])
    def test_spectral_in_unit_interval_with_unit_zero_mode(self, dim, m):
        """Mathematically the factors exp(-D t |k|^2) lie in (0,1]; in
        floating point the deep tail underflows to +0, so positivity is
        asserted where the exponent is representable."""
        grid = Grid(dim, 1.0, m)
        k2 = _laplacian_symbol(grid, SPECTRAL)
        mult = np.exp(-(1e-4 * 0.9) * k2)
        assert mult.flat[0] == 1.0
        assert np.all(mult > 0) and np.all(mult <= 1.0)
        deep = np.exp(-(10.0 * 0.9) * k2)
        assert np.all(deep >= 0) and np.all(deep <= 1.0)

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16), (3, 8)])
    def test_discrete_symbol_below_spectral_with_zero_mode(self, dim, m):
        """2 - 2 cos(k h) <= (k h)^2, so the discrete Laplacian's symbol lies
        in [0, |k|^2] and vanishes on the zero mode."""
        grid = Grid(dim, 1.0, m)
        k2 = _laplacian_symbol(grid, SPECTRAL)
        cn = _laplacian_symbol(grid, CRANK_NICOLSON)
        assert cn.shape == k2.shape and cn.flat[0] == 0.0
        assert np.all(cn >= 0) and np.all(cn <= k2 * (1 + 1e-12))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            heat_step(np.ones(8), 1.0, 0.1, Grid(1, 1.0, 8), scheme="euler")

    def test_propagator_validates_args(self):
        grid = Grid(1, 1.0, 8)
        g = np.ones(grid.shape)
        with pytest.raises(ValueError):
            heat_step(g, -1.0, 0.1, grid)
        with pytest.raises(ValueError):
            heat_step(g, 1.0, -0.1, grid)
        with pytest.raises(ValueError):
            heat_step_batched(np.stack([g, g]), np.array([1.0, -1.0]), 0.1, grid)


class TestBatched:
    def test_matches_per_species_steps(self):
        grid = Grid(1, 1.0, 32)
        rng = np.random.default_rng(4)
        data = rng.random((5,) + grid.shape)
        ds = np.array([0.1, 0.2, 0.0, 1.0, 0.5])
        out = heat_step_batched(data, ds, 0.07, grid)
        for i in range(5):
            np.testing.assert_allclose(out[i], heat_step(data[i], ds[i], 0.07, grid), atol=1e-14)

    def test_identical_rows_stay_bitwise_identical(self):
        grid = Grid(1, 1.0, 64)
        row = np.random.default_rng(5).random(grid.shape)
        data = np.stack([row, row])
        out = heat_step_batched(data, np.array([0.3, 0.3]), 0.01, grid)
        np.testing.assert_array_equal(out[0], out[1])


def clip_reference(before, out):
    """Per-row clip loop: the reference the whole-stack clip must match bit for bit."""
    out = out.copy()
    for i in range(out.shape[0]):
        f = out[i]
        neg = f < 0
        if not neg.any() or before[i].min() < 0:
            continue
        target = f.sum()
        f[neg] = 0.0
        total = f.sum()
        if total > 0 and target > 0:
            f *= target / total
    return out


class TestClipPreservingMean:
    @pytest.mark.parametrize("shape", [(40, 64), (12, 16, 16), (6, 8, 8, 8), (3, 1000)])
    def test_random_stacks_match_per_row_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        before = rng.random(shape)
        out = rng.random(shape) - 0.05 * rng.random(shape[:1] + (1,) * (len(shape) - 1))
        want = clip_reference(before, out)
        got = _clip_preserving_mean(before, out.copy())
        assert np.array_equal(got, want)
        assert np.any(out < 0) and not np.any(got < 0)

    def test_special_rows_match_per_row_loop(self):
        rng = np.random.default_rng(7)
        n = 32
        before = rng.random((7, n))
        out = rng.random((7, n)) - 0.1
        before[1, 3] = -1e-3  # entered signed: left as is
        out[2] = -rng.random(n)  # all negative: zeroed, no rescale
        out[3] = 0.0
        out[3, :5] = -1e-9  # zero total after the clip
        out[4] = rng.random(n)  # nothing to clip
        out[5, 0], out[5, 1] = -0.5, 0.5  # zero target, positive rest
        out[5, 2:] = 0.0
        out[6] = -out[6]
        before[6] = np.nan  # NaN data enters the clip like the loop lets it
        want = clip_reference(before, out)
        got = _clip_preserving_mean(before, out.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got[1], out[1]) and np.array_equal(got[4], out[4])
        assert not np.any(got[2]) and not np.any(got[3])

    def test_heat_step_of_point_masses_matches_per_row_loop(self):
        grid = Grid(2, 1.0, 16)
        data = np.zeros((5,) + grid.shape)
        for i in range(5):
            data[i, i, 2 * i] = 1.0 + i
        Ds = np.linspace(1e-4, 1e-2, 5)
        x = 0.1 * Ds.reshape(-1, 1, 1) * _laplacian_symbol(grid, SPECTRAL)
        raw = _apply_multipliers(data, np.exp(-x), grid)
        assert np.any(raw < 0)
        want = clip_reference(data, raw)
        assert np.array_equal(heat_step_batched(data, Ds, 0.1, grid), want)


class TestCrankNicolsonFallback:
    def test_converges_to_spectral_under_refinement(self):
        """Second-order scheme: error vs the spectral solution drops ~4x
        per doubling of resolution (dt tied to the grid)."""
        errs = []
        for m in (64, 128, 256):
            grid = Grid(1, 1.0, m)
            x = grid.cell_centers()
            f0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2))
            exact = heat_step(f0, 0.3, 0.05, grid)
            cn = f0.copy()
            for _ in range(m):
                cn = heat_step(cn, 0.3, 0.05 / m, grid, scheme=CRANK_NICOLSON)
            errs.append(np.abs(cn - exact).max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestHeatMajorant:
    def test_monodisperse_constant_fixed_point(self):
        grid = Grid(1, 1.0, 16)
        F = MassField.monodisperse(grid, 4, amplitude=2.5)
        dp = DiffusionProfile.power_law(1.0, 0.5, 4)
        np.testing.assert_allclose(heat_majorant(F, dp, 3.0), 2.5, rtol=1e-13)

    def test_zero_time_returns_mass_density(self):
        grid = Grid(1, 1.0, 16)
        rng = np.random.default_rng(6)
        F = MassField(grid, rng.random((3,) + grid.shape))
        dp = DiffusionProfile.constant(1.0, 3)
        n = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(heat_majorant(F, dp, 0.0), np.tensordot(n, F.data, axes=(0, 0)))

    def test_increasing_profile_rejected(self):
        grid = Grid(1, 1.0, 16)
        F = MassField.monodisperse(grid, 3)
        dp = DiffusionProfile.from_table([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-increasing"):
            heat_majorant(F, dp, 1.0)


class TestComparisonMultiplier:
    def test_equal_rates_no_violation(self):
        grid = Grid(1, 1.0, 64)
        g = np.random.default_rng(7).random(grid.shape)
        assert comparison_multiplier(1.0, 1.0, g, 0.2, grid) == 0.0

    def test_point_mass_ordered(self):
        """D1^(d/2) S^{D1} dominates D2^(d/2) S^{D2} for D1 >= D2; on the
        grid any violation is ringing-sized."""
        grid = Grid(1, 1.0, 128)
        g = np.zeros(grid.shape)
        g[64] = 1.0
        v = comparison_multiplier(2.0, 1.0, g, 0.1, grid)
        lhs_max = (2.0**0.5) * heat_step(g, 2.0, 0.1, grid).max()
        assert v <= 1e-8 * lhs_max

    def test_constant_field_ordering(self):
        grid = Grid(2, 1.0, 8)
        g = np.full(grid.shape, 0.7)
        assert comparison_multiplier(3.0, 1.0, g, 0.5, grid) == 0.0

    def test_requires_ordered_positive_rates(self):
        grid = Grid(1, 1.0, 8)
        g = np.ones(grid.shape)
        with pytest.raises(ValueError):
            comparison_multiplier(1.0, 2.0, g, 0.1, grid)
        with pytest.raises(ValueError):
            comparison_multiplier(1.0, -1.0, g, 0.1, grid)
