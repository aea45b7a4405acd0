"""Kernel families, diffusion profiles, and the admissibility certificates.

Expected values are direct arithmetic, the defining formulas in
``oracles.family_rate``, or independently recomputed in-test by exhaustive
sweeps over the certified range.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import family_rate
from smolkit.kernels import (
    DiffusionProfile,
    Kernel,
    KernelRangeError,
    RangeProfile,
    check_assumption_1_1,
    kinetic_kernel_from_range,
)


class TestFamilyValues:
    def test_sum_kernel_value(self):
        k = Kernel.sum_kernel(1.0, 16)
        assert k.dense()[1, 2] == 5.0

    def test_constant_kernel_value(self):
        k = Kernel.constant(1.0, 16)
        assert k.dense()[6, 8] == 1.0

    def test_two_exponent_value(self):
        """alpha(4,4) = 2 * 4^1.5 = 16 for a = b = 0.75."""
        k = Kernel.two_exponent(0.75, 0.75, 16)
        assert k.dense()[3, 3] == pytest.approx(16.0, rel=1e-14)

    def test_product_kernel_is_multiplicative_at_a1(self):
        k = Kernel.product(1.0, 8)
        assert k.dense()[2, 4] == 15.0

    def test_out_of_range_raises(self):
        k = Kernel.constant(1.0, 8)
        with pytest.raises(KernelRangeError):
            k.rate_row(0)
        with pytest.raises(KernelRangeError):
            k.dense(9)

    @pytest.mark.parametrize(
        "k",
        [
            Kernel.constant(0.7, 64),
            Kernel.sum_kernel(2.0, 64),
            Kernel.product(0.6, 64),
            Kernel.two_exponent(0.3, 0.8, 64),
        ],
        ids=["constant", "sum", "product", "two_exponent"],
    )
    def test_symmetric_and_nonnegative_exhaustive(self, k):
        table = k.dense()
        assert np.all(table >= 0)
        np.testing.assert_allclose(table, table.T, rtol=1e-13)


class TestKineticKernelFromRange:
    def test_unit_values(self):
        dp = DiffusionProfile.constant(1.0, 8)
        rp = RangeProfile(exponent=1.0)
        k = kinetic_kernel_from_range(dp, rp, 3, 1.0)
        assert k.dense()[0, 0] == pytest.approx(4.0)

    def test_ballistic_profile_value(self):
        """d(n) = 1/n, r(n) = n^(1/3), dim 3: alpha(1,8) = (1+1/8)(1+2) = 3.375."""
        dp = DiffusionProfile.power_law(1.0, 1.0, 8)
        rp = RangeProfile(exponent=1.0 / 3.0)
        k = kinetic_kernel_from_range(dp, rp, 3, 1.0)
        assert k.dense()[0, 7] == pytest.approx(3.375, rel=1e-13)

    def test_symmetry_sweep(self):
        dp = DiffusionProfile.power_law(1.0, 0.5, 32)
        rp = RangeProfile(exponent=0.4, scale=2.0)
        k = kinetic_kernel_from_range(dp, rp, 4, 0.7)
        table = k.dense()
        np.testing.assert_allclose(table, table.T, rtol=1e-13)

    def test_low_dimension_rejected(self):
        dp = DiffusionProfile.constant(1.0, 4)
        with pytest.raises(ValueError):
            kinetic_kernel_from_range(dp, RangeProfile(exponent=0.5), 2, 1.0)


def _sqrt_table(n_max):
    """alpha(n, m) = sqrt(n + m) on 1..n_max: no separable closed form."""
    n = np.arange(1.0, n_max + 1)
    return np.sqrt(n[:, None] + n[None, :])


def _range_kernel(dim, n_max, r2=1.0, b2=0.5, exponent=1.0 / 3.0, scale=2.0, c=0.7):
    return kinetic_kernel_from_range(
        DiffusionProfile.power_law(r2, b2, n_max), RangeProfile(exponent, scale), dim, c
    )


class TestFactors:
    """The factors, and every rate read off them, against the defining
    formula in ``oracles.family_rate``."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize(
        "k, rank",
        [
            (Kernel.constant(0.7, 300), 1),
            (Kernel.constant(1.0, 300), 1),
            (Kernel.sum_kernel(1.3, 300), 2),
            (Kernel.product(1.5, 300), 1),
            (Kernel.product(0.0, 300), 1),
            (Kernel.product(0.37, 300), 1),
            (Kernel.two_exponent(0.2, 0.9, 300), 2),
            (Kernel.two_exponent(1.0, 0.0, 300), 2),
            (_range_kernel(3, 300), 4),
            (_range_kernel(3, 300, r2=2.0, b2=1.0, exponent=1.0, scale=0.5, c=1.0), 4),
            (_range_kernel(4, 300), 6),
        ],
        ids=["constant", "constant-unit", "sum", "product-1.5", "product-0", "product-0.37",
             "two_exponent", "two_exponent-1-0", "range-dim3", "range-dim3-ballistic", "range-dim4"],
    )
    def test_factor_identity(self, k, rank):
        """Factors and dense() over 1..N x 1..N, rate_row() for partner
        masses 1..2N, past the range (a range-derived d clamps there)."""
        A, B = k.factors(k.n_max)
        assert A.shape == B.shape == (rank, k.n_max)
        assert np.all(A >= 0) and np.all(B >= 0)
        n, m = np.arange(1, k.n_max + 1), np.arange(1, 2 * k.n_max + 1)
        expected = family_rate(k.kind, k.params, n[:, None], m[None, :])
        tol = dict(rtol=4 * self.EPS, atol=0.0)
        np.testing.assert_allclose(np.einsum("rn,rm->nm", A, B), expected[:, : k.n_max], **tol)
        np.testing.assert_allclose(k.dense(), expected[:, : k.n_max], **tol)
        np.testing.assert_allclose(k.rate_row(m), expected, **tol)

    def test_sub_range_matches_leading_block(self):
        k = Kernel.sum_kernel(1.3, 32)
        A, B = k.factors(10)
        n = np.arange(1, 11)
        expected = family_rate("sum", k.params, n[:, None], n[None, :])
        np.testing.assert_allclose(np.einsum("rn,rm->nm", A, B), expected, rtol=4 * self.EPS, atol=0.0)
        np.testing.assert_allclose(k.dense(10), expected, rtol=4 * self.EPS, atol=0.0)
        with pytest.raises(KernelRangeError):
            k.factors(33)

    def test_unit_constant_is_exact(self):
        """c = 1 gives alpha = 1 bit for bit on every path."""
        k = Kernel.constant(1.0, 40)
        assert np.all(k.dense() == 1.0) and np.all(k.rate_row(np.arange(1, 81)) == 1.0)
        assert np.all(k.of_total_mass() == 1.0)

    def test_tables_have_no_factors(self):
        k = Kernel.sum_kernel(1.0, 8)
        assert Kernel.from_table(k.dense()).factors() is None
        assert Kernel.from_table(_sqrt_table(8)).factors() is None


class TestOfTotalMass:
    """alpha(n,m) = phi(n+m) on every pair that lands in range."""

    @pytest.mark.parametrize("k", [Kernel.constant(0.7, 40), Kernel.sum_kernel(1.3, 40)], ids=["constant", "sum"])
    def test_matches_the_table_along_anti_diagonals(self, k):
        phi = k.of_total_mass(30)
        assert phi.shape == (30,)
        for n in range(1, 30):
            for m in range(1, 31 - n):
                expected = family_rate(k.kind, k.params, n, m)
                assert phi[n + m - 1] == pytest.approx(expected, rel=2 * np.finfo(float).eps)
        with pytest.raises(KernelRangeError):
            k.of_total_mass(41)

    def test_other_families_have_none(self):
        for k in (Kernel.product(1.0, 8), Kernel.two_exponent(1.0, 0.0, 8), _range_kernel(3, 8),
                  Kernel.from_table(Kernel.sum_kernel(1.0, 8).dense())):
            assert k.of_total_mass() is None


def _sweep_k0(kernel, dp, delta, n_max):
    """Independent oracle: smallest k0 with all pairs k0 < n+m <= n_max passing."""
    worst = 0
    table = kernel.dense(n_max)
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            if n + m > n_max:
                continue
            if table[n - 1, m - 1] > delta * (n + m) * (dp.value(n) + dp.value(m)):
                worst = max(worst, n + m)
    return worst


class TestAssumption11:
    def test_sqrt_kernel_k0_matches_sweep(self):
        """alpha = sqrt(n+m), d = 1, delta = 0.25: the bound holds iff n+m >= 4."""
        n_max = 256
        k = Kernel.from_table(_sqrt_table(n_max))
        dp = DiffusionProfile.constant(1.0, n_max)
        res = check_assumption_1_1(k, dp, 0.25, n_max)
        assert res.passed
        assert res.k0 == _sweep_k0(k, dp, 0.25, n_max) == 3

    def test_linear_kernel_fails_with_witness(self):
        """alpha = n+m, d = 1: the ratio is 1/2 > 0.25 for every pair."""
        k = Kernel.sum_kernel(1.0, 64)
        dp = DiffusionProfile.constant(1.0, 64)
        res = check_assumption_1_1(k, dp, 0.25)
        assert not res.passed
        assert res.witness == (1, 1)

    def test_zero_kernel_passes_at_k0_one(self):
        k = Kernel.constant(0.0, 32)
        dp = DiffusionProfile.constant(1.0, 32)
        res = check_assumption_1_1(k, dp, 0.25)
        assert res.passed and res.k0 == 1

    def test_delta_must_be_positive(self):
        k = Kernel.constant(0.0, 8)
        dp = DiffusionProfile.constant(1.0, 8)
        with pytest.raises(ValueError):
            check_assumption_1_1(k, dp, 0.0)

    def test_kinetic_kernel_satisfies_assumption_1_1(self):
        """Range-derived kernel with d = 1/n, r = n^(1/3) in dim 3 grows
        sublinearly; a certificate below the top of the range must exist."""
        n_max = 128
        dp = DiffusionProfile.power_law(1.0, 1.0, n_max)
        rp = RangeProfile(exponent=1.0 / 3.0)
        k = kinetic_kernel_from_range(dp, rp, 3, 1.0)
        res = check_assumption_1_1(k, dp, 0.25, n_max)
        assert res.passed
        assert res.k0 == _sweep_k0(k, dp, 0.25, n_max)


class TestDiffusionProfile:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            DiffusionProfile([1.0, 0.0, 0.5])

    def test_non_increasing_is_read_from_the_values(self):
        assert DiffusionProfile.power_law(1.0, 0.5, 8).non_increasing
        assert DiffusionProfile.constant(2.0, 8).non_increasing
        assert not DiffusionProfile([1.0, 0.5, 0.75]).non_increasing

    def test_geometric_mean_power_law_lies_in_bracket(self):
        """sqrt(r1 r2) n^(-(b1+b2)/2) lies between r1 n^(-b1) and r2 n^(-b2)
        for r1 <= r2 and b2 <= b1."""
        r1, b1, r2, b2 = 0.5, 1.2, 2.0, 0.3
        dp = DiffusionProfile.power_law(np.sqrt(r1 * r2), (b1 + b2) / 2, 64)
        n = np.arange(1, 65, dtype=float)
        assert np.all(dp.values >= r1 * n**-b1 - 1e-15)
        assert np.all(dp.values <= r2 * n**-b2 + 1e-15)
        assert np.all(np.diff(dp.values) <= 0)

    def test_value_clamps_beyond_range(self):
        dp = DiffusionProfile.power_law(1.0, 1.0, 8)
        assert dp.value(100) == dp.value(8)


class TestTables:
    def test_from_table_rejects_asymmetric(self):
        t = np.ones((4, 4))
        t[1, 2] = 3.0
        with pytest.raises(ValueError, match="asymmetric"):
            Kernel.from_table(t)

    def test_from_table_rejects_negative(self):
        t = np.zeros((3, 3))
        t[0, 0] = -1.0
        with pytest.raises(ValueError):
            Kernel.from_table(t)

    def test_csv_lower_triangle_roundtrip(self, tmp_path):
        path = tmp_path / "k.csv"
        rows = ["n,m,alpha"]
        for n in range(1, 4):
            for m in range(1, n + 1):
                rows.append(f"{n},{m},{n * m + 0.5}")
        path.write_text("\n".join(rows) + "\n")
        k = Kernel.from_csv(path, 3)
        assert k.dense()[0, 2] == k.dense()[2, 0] == 3.5

    def test_csv_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("n,m,alpha\n1,1,1.0\n")
        with pytest.raises(ValueError, match="missing"):
            Kernel.from_csv(path, 2)

    @pytest.mark.parametrize("n_max", [3, 16])
    def test_rate_row_clamps_every_mass_past_the_table_to_its_last_column(self, n_max):
        k = Kernel.from_table(_sqrt_table(n_max))
        cols = k.rate_row(np.arange(1, 41))
        np.testing.assert_array_equal(cols[:, :n_max], k.dense())
        np.testing.assert_array_equal(cols[:, n_max:], np.repeat(k.dense()[:, -1:], 40 - n_max, axis=1))
        np.testing.assert_array_equal(k.rate_row(40), k.rate_row(n_max))


FAMILIES = {
    "constant": lambda n_max: Kernel.constant(0.7, n_max),
    "sum": lambda n_max: Kernel.sum_kernel(1.3, n_max),
    "product": lambda n_max: Kernel.product(0.37, n_max),
    "two_exponent": lambda n_max: Kernel.two_exponent(0.2, 0.9, n_max),
    "range_derived": lambda n_max: _range_kernel(4, n_max),
}


class TestOneRepresentation:
    """Formula families store no table; every rate is the formula's value."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rate_row_columns_match_scalar_rows_and_dense(self, family):
        n_max = 64
        k = FAMILIES[family](n_max)
        assert k.table is None
        cols = k.rate_row(np.arange(1, 2 * n_max + 1))
        assert cols.shape == (n_max, 2 * n_max)
        np.testing.assert_array_equal(cols, np.stack([k.rate_row(m) for m in range(1, 2 * n_max + 1)], axis=1))
        np.testing.assert_array_equal(cols[:, :n_max], k.dense())

    def test_only_table_kernels_store_a_table(self):
        assert Kernel.from_table(_sqrt_table(4)).table is not None
        with pytest.raises(ValueError, match="exactly when its kind"):
            Kernel("sum", {"c0": 1.0}, 4, table=np.ones((4, 4)))

    def test_formulas_evaluate_beyond_1024_masses(self):
        k = Kernel.sum_kernel(1.0, 2048)
        assert k.dense()[1999, 47] == k.rate_row(48)[1999] == 2048.0
        assert k.rate_row(4000)[0] == 4001.0
        block = k.dense(8)
        assert block.shape == (8, 8)
        assert block[0, 0] == 2.0

    def test_overflowing_rates_rejected_at_every_range(self):
        """(n m)^200 overflows once n m > 34; no range is left unchecked."""
        Kernel.product(200.0, 5)
        with pytest.raises(ValueError, match="finite and >= 0"):
            Kernel.product(200.0, 6)
        with pytest.raises(ValueError, match="finite and >= 0"):
            Kernel.product(200.0, 2048)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_construction_builds_no_table(self, family):
        """Checking a formula's rates takes O(R N) memory, not an N x N table."""
        n_max = 4096
        tracemalloc.start()
        try:
            FAMILIES[family](n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_max * n_max * 8 / 100


class TestRangeProfile:
    def test_nondecreasing(self):
        rp = RangeProfile(exponent=0.7, scale=1.3)
        n = np.arange(1, 100)
        assert np.all(np.diff(rp.value(n)) >= 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RangeProfile(exponent=-0.1)
        with pytest.raises(ValueError):
            RangeProfile(exponent=0.5, scale=0.0)
