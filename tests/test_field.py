"""Grid/field state, moments, and the initial-data functionals.

The pair functionals are checked against naive double loops written here;
the vectorized implementation must agree to near machine precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolkit.coagulation import TruncationPolicy
from smolkit.field import (
    Grid,
    MassField,
    initial_data_functionals,
    moment,
    moment_weights,
    pair_weights,
    potential_kernel,
)
from smolkit.integrator import RunConfig, run
from smolkit.kernels import DiffusionProfile, Kernel


def recorded_mass(F):
    """(mass excluding gel, mass including gel) as ``run`` records them at t = 0."""
    dp = DiffusionProfile.constant(1.0, F.n_max) if F.grid.dim else None
    cfg = RunConfig(t_final=0.0, dt=1.0, policy=TruncationPolicy.gel_reservoir(F.n_max))
    rec = run(F, Kernel.constant(0.0, F.n_max), dp, cfg)
    return rec.mass[0], float(rec.mass_with_gel[0])


def recorded_pair_moments(F, a, dp, kernel):
    """(Y_a, Yk_a) as ``run`` records them at t = 0: the spatial integrals of
    sum n m (n^a + m^a)(d(n) + d(m)) f_n f_m and sum (n^a m + m^a n) K(n, m) f_n f_m."""
    cfg = RunConfig(t_final=0.0, dt=1.0, policy=TruncationPolicy.cutoff(F.n_max), pair_moment_exponents=(a,))
    rec = run(F, kernel, dp, cfg)
    return rec.pair_moments[a][0], rec.pair_moments_weighted[a][0]


class TestGrid:
    def test_cell_geometry(self):
        g = Grid(2, 2.0, 8)
        assert g.h == 0.25
        assert g.n_cells == 64
        assert g.cell_volume == pytest.approx(0.0625)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(1, 1.0, 12)

    def test_point_grid_is_one_unit_cell(self):
        g = Grid.point()
        assert g.dim == 0 and g.shape == () and g.n_cells == 1 and g.cell_volume == 1.0
        F = MassField.monodisperse(g, 3, amplitude=0.5)
        assert F.data.shape == (3,) and F.flat().shape == (3, 1)
        assert recorded_mass(F) == (0.5, 0.5)
        with pytest.raises(ValueError, match="one cell"):
            Grid(0, 1.0, 2)

    def test_min_image_wraps(self):
        g = Grid(1, 1.0, 8)
        assert g.min_image(0.9) == pytest.approx(-0.1)
        assert g.min_image(-0.6) == pytest.approx(0.4)


class TestMassField:
    def test_rejects_negative(self):
        g = Grid(1, 1.0, 4)
        data = np.zeros((2, 4))
        data[1, 2] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            MassField(g, data)

    def test_rejects_nonfinite(self):
        g = Grid(1, 1.0, 4)
        data = np.zeros((2, 4))
        data[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MassField(g, data)

    def test_monodisperse_fills_one_species(self):
        F = MassField.monodisperse(Grid(1, 1.0, 4), 4, amplitude=0.5, species=3)
        assert np.all(F.data[2] == 0.5) and F.data.sum() == 2.0
        for species in (0, 5):
            with pytest.raises(ValueError, match="species"):
                MassField.monodisperse(Grid(1, 1.0, 4), 4, species=species)

    def test_blob_warns_on_wide_support(self, caplog):
        g = Grid(1, 1.0, 16)
        with caplog.at_level("WARNING"):
            MassField.gaussian_blob(g, 4, width=0.3)
        assert any("length/4" in r.message for r in caplog.records)


class TestMoment:
    def test_two_species_value(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 4)
        F.data[0] = 2.0
        F.data[2] = 1.0
        np.testing.assert_allclose(moment(F, 2.0), 11.0)

    def test_zeroth_moment_monodisperse(self):
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 4, amplitude=0.7)
        np.testing.assert_allclose(moment(F, 0.0), 0.7)

    def test_diffusion_weighted_value(self):
        """The majorant row sum_n n d(n)^(dim/2) f_n at t = 0: d(n)=1/n, dim=2
        gives weight n * 1/n, so f1=f2=1 contributes 1*1 + 2*(1/2) = 2."""
        g = Grid(2, 1.0, 4)
        F = MassField.zeros(g, 2)
        F.data[:] = 1.0
        dp = DiffusionProfile.power_law(1.0, 1.0, 2)
        cfg = RunConfig(t_final=0.0, dt=1.0, policy=TruncationPolicy.cutoff(2), track_majorant=True)
        rec = run(F, Kernel.constant(0.0, 2), dp, cfg)
        np.testing.assert_allclose(rec.weighted_mass_moment[0], 2.0)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(min_value=0.0, max_value=4.0), seed=st.integers(0, 2**31))
    def test_linear_in_field(self, a, seed):
        g = Grid(1, 1.0, 8)
        rng = np.random.default_rng(seed)
        f1 = MassField(g, rng.random((5, 8)))
        f2 = MassField(g, rng.random((5, 8)))
        both = MassField(g, f1.data + f2.data)
        lhs = moment(both, a)
        rhs = moment(f1, a) + moment(f2, a)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_mass_moment_matches_recorded_mass(self):
        g = Grid(2, 1.5, 4)
        rng = np.random.default_rng(3)
        F = MassField(g, rng.random((6,) + g.shape))
        via_moment = float(moment(F, 1.0).sum()) * g.cell_volume
        assert via_moment == pytest.approx(recorded_mass(F)[0], rel=1e-12)

    def test_high_exponent_in_float64(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 100)
        F.data[99] = 1.0
        out = moment(F, 8.0)
        np.testing.assert_allclose(out, 100.0**8, rtol=1e-12)

    def test_overflowing_weights_rejected(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 1000)
        with pytest.raises(OverflowError, match=r"a=200 .*n_max=1000"):
            moment(F, 200.0)

    def test_negative_exponent_rejected(self):
        F = MassField.zeros(Grid(1, 1.0, 4), 3)
        with pytest.raises(ValueError, match="a=-1"):
            moment(F, -1.0)


class TestPairMoment:
    def test_monodisperse_unweighted(self):
        """f1 = 1, a = 1, d(1) = 1: 1*1*(1+1)*(1+1) = 4."""
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 3)
        dp = DiffusionProfile.constant(1.0, 3)
        y, _ = recorded_pair_moments(F, 1.0, dp, Kernel.constant(1.0, 3))
        np.testing.assert_allclose(y, 4.0)

    def test_monodisperse_kernel_weighted(self):
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 3)
        dp = DiffusionProfile.constant(1.0, 3)
        k = Kernel.constant(1.0, 3)
        _, yk = recorded_pair_moments(F, 1.0, dp, k)
        np.testing.assert_allclose(yk, 2.0)

    def test_empty_field_zero(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 3)
        dp = DiffusionProfile.constant(1.0, 3)
        assert recorded_pair_moments(F, 2.0, dp, Kernel.constant(1.0, 3)) == (0.0, 0.0)

    def test_pair_weights_check_their_own_overflow(self):
        """1000^101 is finite, but n m (n^a + m^a)(d(n) + d(m)) is not."""
        assert np.all(np.isfinite(moment_weights(101.0, 1000)))
        with pytest.raises(OverflowError, match="a=101"):
            pair_weights(101.0, DiffusionProfile.constant(1.0, 1000), 1000)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_against_double_loop(self, weighted):
        n_max, cells = 12, 4
        g = Grid(1, 1.0, cells)
        rng = np.random.default_rng(11)
        F = MassField(g, rng.random((n_max, cells)))
        dp = DiffusionProfile.power_law(1.3, 0.4, n_max)
        k = Kernel.two_exponent(0.2, 0.7, n_max)
        a = 1.4
        y, yk = recorded_pair_moments(F, a, dp, k)
        want, table = np.zeros(cells), k.dense()
        for c in range(cells):
            for n in range(1, n_max + 1):
                for m in range(1, n_max + 1):
                    fn, fm = F.data[n - 1, c], F.data[m - 1, c]
                    if weighted:
                        want[c] += (n**a * m + m**a * n) * table[n - 1, m - 1] * fn * fm
                    else:
                        want[c] += n * m * (n**a + m**a) * (dp.value(n) + dp.value(m)) * fn * fm
        np.testing.assert_allclose(yk if weighted else y, want.sum() * g.cell_volume, rtol=1e-12)


class TestRecordedMass:
    def test_uniform_species_one(self):
        g = Grid(3, 2.0, 4)
        F = MassField.monodisperse(g, 4, amplitude=1.0)
        excl, incl = recorded_mass(F)
        assert excl == pytest.approx(8.0)  # volume of the torus
        assert incl == excl

    def test_species_two_with_half_density(self):
        g = Grid(1, 2.0, 8)
        F = MassField.zeros(g, 4)
        F.data[1] = 0.5
        assert recorded_mass(F)[0] == pytest.approx(2.0)

    def test_gel_reported_separately(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 2)
        F.gel_reservoir = 3.0
        assert recorded_mass(F) == (0.0, 3.0)


class TestPotentialKernel:
    def test_dim1_values(self):
        assert potential_kernel(0.25, 1) == pytest.approx(0.375)
        assert potential_kernel(0.6, 1) == 0.0

    def test_dim3_value(self):
        assert potential_kernel(2.0, 3) == pytest.approx(0.5)

    def test_dim2_support_and_sign(self):
        r = np.array([0.1, 0.5, 1.0, 1.5])
        vals = potential_kernel(r, 2)
        assert vals[0] == pytest.approx(-math.log(0.1) / (2 * math.pi))
        assert vals[2] == 0.0 and vals[3] == 0.0
        assert np.all(vals >= 0)

    def test_origin_is_infinite_for_dim_ge_2(self):
        assert potential_kernel(0.0, 2) == np.inf
        assert potential_kernel(0.0, 3) == np.inf

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_radially_nonincreasing_on_support(self, dim):
        r = np.linspace(1e-3, 0.49 if dim == 1 else 0.99, 200)
        vals = potential_kernel(r, dim)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 0)


class TestInitialDataFunctionals:
    def test_zero_field(self):
        g = Grid(1, 1.0, 16)
        F = MassField.zeros(g, 4)
        assert initial_data_functionals(F, 2.0) == (0.0, 0.0, 0.0)

    def test_volume_integral_component(self):
        g = Grid(1, 2.0, 16)
        F = MassField.monodisperse(g, 4, amplitude=1.0)
        _, _, a3 = initial_data_functionals(F, 2.0)
        assert a3 == pytest.approx(2.0)  # f1 = 1 on volume 2, weight 1^a

    def test_single_cell_mass_self_pair(self):
        """dim=1 keeps the finite self-pair: a unit point mass gives
        A1 = w(0) = 1/2 and A2 = w(0) (the max sits on the occupied cell)."""
        g = Grid(1, 1.0, 16)
        F = MassField.zeros(g, 2)
        F.data[0, 5] = 1.0 / g.h  # number integral 1 in one cell
        a1, a2, _ = initial_data_functionals(F, 1.0)
        assert a1 == pytest.approx(0.5, rel=1e-12)
        assert a2 == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 8), (3, 4)])
    def test_against_double_loop(self, dim, cells):
        g = Grid(dim, 1.0, cells)
        rng = np.random.default_rng(5)
        F = MassField(g, rng.random((3,) + g.shape))
        a = 2.0
        a1, a2, a3 = initial_data_functionals(F, a)
        n = np.arange(1, 4, dtype=float)
        xa = np.tensordot(n**a, F.data, axes=(0, 0)).reshape(-1)
        x1 = np.tensordot(n, F.data, axes=(0, 0)).reshape(-1)
        centers = [np.unravel_index(i, g.shape) for i in range(g.n_cells)]
        w1, w2 = 0.0, np.zeros(g.n_cells)
        for i in range(g.n_cells):
            for j in range(g.n_cells):
                if dim >= 2 and i == j:
                    continue
                d2 = 0.0
                for ax in range(dim):
                    dx = g.min_image((centers[i][ax] - centers[j][ax]) * g.h)
                    d2 += dx * dx
                w = potential_kernel(math.sqrt(d2), dim)
                w1 += xa[i] * x1[j] * w
                w2[i] += xa[j] * w
        assert a1 == pytest.approx(w1 * g.cell_volume**2, rel=1e-10)
        assert a2 == pytest.approx(w2.max() * g.cell_volume, rel=1e-10)
        assert a3 == pytest.approx(xa.sum() * g.cell_volume, rel=1e-12)
