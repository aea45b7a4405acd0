"""Spectral heat propagator: exactness, invariants, and the ordered pair bound."""

import numpy as np
import pytest

from smolkit.diffusion import (
    _apply_multipliers,
    _clip_preserving_mean,
    _laplacian_symbol,
    _multipliers,
    heat_step_batched,
)
from smolkit.field import Grid


@pytest.fixture
def grid():
    return Grid(1, 1.0, 128)


class TestHeatStep:
    def test_constant_field_fixed(self, grid):
        g = np.full(grid.shape, 3.2)
        np.testing.assert_allclose(heat_step_batched(g[None], [0.7], 0.3, grid)[0], 3.2, rtol=1e-14)

    def test_single_mode_decay(self, grid):
        """cos(2 pi x / L) is an eigenfunction with rate D (2 pi / L)^2."""
        x = grid.cell_centers()
        g = np.cos(2 * np.pi * x / grid.length)
        out = heat_step_batched(g[None], [0.7], 0.3, grid)[0]
        decay = np.exp(-0.7 * (2 * np.pi / grid.length) ** 2 * 0.3)
        np.testing.assert_allclose(out, decay * g, atol=1e-15)

    def test_zero_time_identity(self, grid):
        g = np.random.default_rng(0).random(grid.shape)
        np.testing.assert_array_equal(heat_step_batched(g[None], [2.0], 0.0, grid)[0], g)

    def test_zero_diffusivity_identity(self, grid):
        g = np.random.default_rng(1).random(grid.shape)
        np.testing.assert_array_equal(heat_step_batched(g[None], [0.0], 5.0, grid)[0], g)

    def test_mean_conserved(self, grid):
        g = np.random.default_rng(2).random(grid.shape)
        out = heat_step_batched(g[None], [1.3], 0.05, grid)[0]
        assert abs(out.sum() - g.sum()) <= 1e-13 * abs(g.sum())

    def test_semigroup_law(self, grid):
        g = np.random.default_rng(3).random(grid.shape)
        one = heat_step_batched(g[None], [0.5], 0.5, grid)[0]
        half = heat_step_batched(g[None], [0.5], 0.2, grid)
        two = heat_step_batched(half, [0.5], 0.3, grid)[0]
        np.testing.assert_allclose(two, one, atol=1e-12)

    def test_max_principle_smooth_data(self, grid):
        x = grid.cell_centers()
        g = 2.0 + np.cos(2 * np.pi * x) + 0.5 * np.sin(6 * np.pi * x)
        out = heat_step_batched(g[None], [0.8], 0.01, grid)[0]
        assert out.max() <= g.max() + 1e-9

    def test_point_mass_clipped_nonnegative_and_mean_exact(self, grid):
        g = np.zeros(grid.shape)
        g[5] = 1.0
        out = heat_step_batched(g[None], [0.4], 1e-5, grid)[0]
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_signed_data_not_clipped(self, grid):
        x = grid.cell_centers()
        g = np.cos(2 * np.pi * x)
        out = heat_step_batched(g[None], [0.1], 1e-3, grid)[0]
        assert out.min() < 0.0

    def test_dim2_constant_and_mode(self):
        grid = Grid(2, 2.0, 16)
        xs = grid.cell_centers()
        g = np.cos(2 * np.pi * xs / 2.0)[:, None] * np.ones(16)[None, :]
        out = heat_step_batched(g[None], [0.3], 0.1, grid)[0]
        decay = np.exp(-0.3 * (2 * np.pi / 2.0) ** 2 * 0.1)
        np.testing.assert_allclose(out, decay * g, atol=1e-14)


class TestMultipliers:
    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16), (3, 8)])
    def test_spectral_in_unit_interval_with_unit_zero_mode(self, dim, m):
        """Mathematically the factors exp(-D t |k|^2) lie in (0,1]; in
        floating point the deep tail underflows to +0, so positivity is
        asserted where the exponent is representable."""
        grid = Grid(dim, 1.0, m)
        k2 = _laplacian_symbol(grid)
        mult = np.exp(-(1e-4 * 0.9) * k2)
        assert mult.flat[0] == 1.0
        assert np.all(mult > 0) and np.all(mult <= 1.0)
        deep = np.exp(-(10.0 * 0.9) * k2)
        assert np.all(deep >= 0) and np.all(deep <= 1.0)

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16), (3, 8)])
    def test_single_fourier_mode_decays_exactly(self, dim, m):
        """The one heat step is exact in time: the mode cos(2 pi j.x / L)
        decays by exp(-D t (2 pi / L)^2 |j|^2) and the mean is untouched."""
        length, D, t = 2.0, 0.3, 0.05
        grid = Grid(dim, length, m)
        j = np.array([1, 2, 3][:dim])
        x = np.indices(grid.shape) * grid.h
        phase = 2.0 * np.pi * np.tensordot(j, x, axes=1) / length
        g = 1.0 + 0.5 * np.cos(phase)
        decay = np.exp(-D * t * (2.0 * np.pi / length) ** 2 * float(j @ j))
        out = heat_step_batched(g[None], [D], t, grid)[0]
        np.testing.assert_allclose(out, 1.0 + 0.5 * decay * np.cos(phase), rtol=0, atol=1e-13)

    def test_scheme_keyword_rejected(self):
        g = np.ones((1, 8))
        with pytest.raises(TypeError, match="scheme"):
            heat_step_batched(g, [1.0], 0.1, Grid(1, 1.0, 8), scheme="crank_nicolson")

    def test_propagator_validates_args(self):
        grid = Grid(1, 1.0, 8)
        g = np.ones(grid.shape)
        with pytest.raises(ValueError):
            heat_step_batched(g[None], [-1.0], 0.1, grid)
        with pytest.raises(ValueError):
            heat_step_batched(g[None], [1.0], -0.1, grid)
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
            np.testing.assert_allclose(out[i], heat_step_batched(data[i][None], [ds[i]], 0.07, grid)[0], atol=1e-14)

    def test_identical_rows_stay_bitwise_identical(self):
        grid = Grid(1, 1.0, 64)
        row = np.random.default_rng(5).random(grid.shape)
        data = np.stack([row, row])
        out = heat_step_batched(data, np.array([0.3, 0.3]), 0.01, grid)
        np.testing.assert_array_equal(out[0], out[1])

    def test_kept_multiplier_gives_the_same_bits(self):
        """A caller that keeps the multiplier of a duration gets the step
        that building it here gives, to the last bit."""
        grid = Grid(2, 1.0, 16)
        data = np.random.default_rng(6).random((3,) + grid.shape)
        ds = np.array([1.0, 0.5, 0.25])
        kept = _multipliers(ds, 0.01, grid)
        np.testing.assert_array_equal(heat_step_batched(data, ds, 0.01, grid, kept), heat_step_batched(data, ds, 0.01, grid))


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
        x = 0.1 * Ds.reshape(-1, 1, 1) * _laplacian_symbol(grid)
        raw = _apply_multipliers(data, np.exp(-x), grid)
        assert np.any(raw < 0)
        want = clip_reference(data, raw)
        assert np.array_equal(heat_step_batched(data, Ds, 0.1, grid), want)


class TestOrderedSemigroup:
    """For D1 >= D2 > 0 and g >= 0, D1^(d/2) S_t^{D1} g >= D2^(d/2) S_t^{D2} g
    pointwise on the continuum torus; each test steps the pair as one
    two-row stack and checks the violation max(rhs - lhs, 0)."""

    def test_equal_rates_no_violation(self):
        grid = Grid(1, 1.0, 64)
        g = np.random.default_rng(7).random(grid.shape)
        s1, s2 = heat_step_batched(np.stack([g, g]), [1.0, 1.0], 0.2, grid)
        assert np.maximum(s2 - s1, 0.0).max() == 0.0

    def test_point_mass_ordered(self):
        """On the grid any violation is ringing-sized."""
        grid = Grid(1, 1.0, 128)
        g = np.zeros(grid.shape)
        g[64] = 1.0
        s1, s2 = heat_step_batched(np.stack([g, g]), [2.0, 1.0], 0.1, grid)
        lhs = 2.0**0.5 * s1
        assert np.maximum(s2 - lhs, 0.0).max() <= 1e-8 * lhs.max()

    def test_constant_field_ordering(self):
        grid = Grid(2, 1.0, 8)
        g = np.full(grid.shape, 0.7)
        s1, s2 = heat_step_batched(np.stack([g, g]), [3.0, 1.0], 0.5, grid)
        # dim 2: D^(d/2) = D.
        assert np.maximum(1.0 * s2 - 3.0 * s1, 0.0).max() == 0.0
