"""The theorem scope: the paper's hypotheses (A1)-(A3) and the Gronwall
constant, evaluated once per scenario by :func:`smolkit.analysis.scope`.

Witnesses and constants are recomputed in-test by direct loops over the
pairs and masses, not read back from the implementation's tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolkit.analysis import A1_DELTA, linf_moment_exponent, scope
from smolkit.field import Grid, MassField, moment
from smolkit.kernels import DiffusionProfile, Kernel, RangeProfile, kinetic_kernel_from_range

GRID = Grid(1, 1.0, 4)


def field(n_max, amplitude=1.0, species=1):
    f = MassField.zeros(GRID, n_max)
    f.data[species - 1] = amplitude
    return f


def of_profile(dp, kernel=None, a=2.0):
    n_max = dp.n_max
    return scope(kernel or Kernel.constant(1.0, n_max), dp, field(n_max), a)


class TestHypotheses:
    def test_increasing_profile_names_its_first_increase(self):
        sc = of_profile(DiffusionProfile(np.arange(1.0, 9.0)), Kernel.sum_kernel(1.0, 8))
        assert sc.increasing_at == 1
        assert sc.linf_exponent is None
        assert "A2 NOT met (d(n+1) > d(n) first at n=1;" in str(sc)

    @pytest.mark.parametrize(
        "kernel", [Kernel.product(1.0, 16), Kernel.two_exponent(0.75, 0.75, 16)], ids=["product", "two_exponent"]
    )
    def test_superlinear_kernels_fail_a1_with_a_witness(self, kernel):
        """alpha = nm and n^0.75 m^0.75 + n^0.75 m^0.75 outgrow (n+m)(d(n)+d(m)) at d = 1."""
        dp = DiffusionProfile.constant(1.0, 16)
        sc = of_profile(dp, kernel)
        assert not sc.a1.passed
        n, m = sc.a1.witness
        assert kernel.dense()[n - 1, m - 1] > A1_DELTA * (n + m) * (dp.value(n) + dp.value(m))
        assert f"A1 NOT met (delta=0.25, witness ({n}, {m}))" in str(sc)

    def test_a1_with_a2_is_linear_growth_on_the_certified_range(self):
        """Beyond k0, alpha <= delta (n+m)(d(n)+d(m)) <= 2 delta d(1) (n+m)
        once d is non-increasing."""
        n_max = 128
        dp = DiffusionProfile.power_law(1.0, 1.0, n_max)
        k = kinetic_kernel_from_range(dp, RangeProfile(exponent=1.0 / 3.0), 3, 1.0)
        sc = of_profile(dp, k)
        assert sc.a1.passed and sc.increasing_at is None
        table = k.dense()
        for n in range(1, n_max + 1):
            for m in range(max(1, sc.a1.k0 + 1 - n), n_max + 1 - n):
                assert table[n - 1, m - 1] <= 2 * A1_DELTA * dp.value(1) * (n + m)

    def test_bracketed_profile_reads_its_mean_exponent(self):
        """bracketed_power is sqrt(r1 r2) n^(-(b1+b2)/2), which lies inside the
        bracket it was built from."""
        for r1, b1, r2, b2 in [(0.5, 1.0, 2.0, 0.25), (1.0, 0.5, 1.0, 0.5), (0.1, 2.0, 3.0, 0.0)]:
            sc = of_profile(DiffusionProfile.bracketed_power(r1, b1, r2, b2, 48))
            assert sc.b1 == pytest.approx((b1 + b2) / 2, abs=1e-12)
            assert sc.b2 == pytest.approx((b1 + b2) / 2, abs=1e-12)
            assert b2 - 1e-12 <= sc.b2 <= sc.b1 <= b1 + 1e-12

    def test_constant_profile_is_the_flat_bracket(self):
        sc = of_profile(DiffusionProfile.constant(0.3, 32))
        assert (sc.b1, sc.b2) == (0.0, 0.0)
        assert sc.linf_exponent == linf_moment_exponent(2.0, 0.0, 0.0, 1)
        assert "on 2..32 with b1=0, b2=0" in str(sc)

    def test_a3_reads_the_initial_moment(self):
        f = MassField.gaussian_blob(GRID, 8, amplitude=0.5, width=0.1, species=3)
        sc = scope(Kernel.constant(1.0, 8), DiffusionProfile.constant(1.0, 8), f, 2.0)
        xa = moment(f, 2.0)
        assert sc.a3 and sc.sup_xa == xa.max()
        assert sc.integral_xa == pytest.approx(xa.sum() * GRID.cell_volume, rel=1e-15)

    def test_overflowing_initial_moment_is_reported_not_raised(self):
        f = field(16, amplitude=1e307, species=16)  # 16^2 * 1e307 overflows
        sc = scope(Kernel.constant(1.0, 16), DiffusionProfile.constant(1.0, 16), f, 2.0)
        assert not sc.a3 and math.isinf(sc.integral_xa)
        assert "A3 NOT met (initial integral X_2=inf" in str(sc)

    def test_only_the_leading_block_is_read(self):
        """The kernel and profile may cover more masses than the field, as the
        scenario's one kernel does; the scope covers the field's 1..N."""
        big = scope(Kernel.sum_kernel(1.0, 64), DiffusionProfile.power_law(1.0, 0.5, 64), field(16), 2.0)
        small = scope(Kernel.sum_kernel(1.0, 16), DiffusionProfile.power_law(1.0, 0.5, 16), field(16), 2.0)
        assert big == small and big.n_max == 16

    def test_needs_two_masses(self):
        with pytest.raises(ValueError, match="1..2"):
            of_profile(DiffusionProfile.constant(1.0, 1))


positive_steps = st.lists(st.one_of(st.just(1.0), st.floats(0.05, 1.0)), min_size=1, max_size=63)


def non_increasing(d1, steps):
    return d1 * np.cumprod([1.0] + steps)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(d1=st.floats(1e-3, 1e3), steps=positive_steps)
    def test_bracket_holds_and_is_tight(self, d1, steps):
        d = non_increasing(d1, steps)
        sc = of_profile(DiffusionProfile(d))
        m = np.arange(1, d.size + 1, dtype=float)
        ratio = d / d[0]
        lower, upper = m ** -sc.b1, m ** -sc.b2
        assert np.all(lower <= ratio * (1 + 1e-12)) and np.all(ratio <= upper * (1 + 1e-12))
        assert 0.0 <= sc.b2 <= sc.b1
        assert np.isclose(lower[1:], ratio[1:], rtol=1e-12, atol=0).any()
        assert np.isclose(upper[1:], ratio[1:], rtol=1e-12, atol=0).any()

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.one_of(st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 2.5]), st.floats(0.0, 3.0)),
        r=st.one_of(st.sampled_from([0.05, 1.0, 3.7]), st.floats(0.01, 10.0)),
        n_max=st.integers(2, 1024),
    )
    def test_power_law_reads_its_exponent(self, b, r, n_max):
        sc = of_profile(DiffusionProfile.power_law(r, b, n_max))
        assert abs(sc.b1 - b) <= 1e-12 and abs(sc.b2 - b) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["constant", "sum", "product", "two_exponent"]),
        p=st.floats(0.0, 2.0),
        q=st.floats(0.0, 2.0),
        n_max=st.integers(2, 24),
    )
    def test_c0_bounds_every_pair_and_is_reached(self, kind, p, q, n_max):
        k = {
            "constant": lambda: Kernel.constant(p, n_max),
            "sum": lambda: Kernel.sum_kernel(p, n_max),
            "product": lambda: Kernel.product(p, n_max),
            "two_exponent": lambda: Kernel.two_exponent(p, q, n_max),
        }[kind]()
        sc = of_profile(DiffusionProfile.constant(1.0, n_max), k)
        table = k.dense()
        ratios = [table[n - 1, m - 1] / (n * m) for n in range(1, n_max + 1) for m in range(1, n_max + 1)]
        assert all(r <= sc.c0 for r in ratios)
        assert sc.c0 in ratios

    @settings(max_examples=50, deadline=None)
    @given(d1=st.floats(1e-3, 1e3), steps=positive_steps, data=st.data())
    def test_increasing_table_reports_its_first_increase(self, d1, steps, data):
        d = non_increasing(d1, steps)
        n = data.draw(st.integers(1, d.size - 1))
        d[n] = d[n - 1] * data.draw(st.floats(1.001, 4.0))  # d(n+1) > d(n)
        sc = of_profile(DiffusionProfile(d))
        assert sc.increasing_at == n and sc.linf_exponent is None
