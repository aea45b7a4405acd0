"""Kernel families, diffusion profiles, and the admissibility certificates.

Expected values are either direct arithmetic or independently recomputed
in-test by exhaustive sweeps over the certified range.
"""

import numpy as np
import pytest

from smolkit.kernels import (
    TABLE_LIMIT,
    DiffusionProfile,
    Kernel,
    KernelRangeError,
    RangeProfile,
    check_assumption_1_1,
    kinetic_kernel_from_range,
)


class TestEvalKernel:
    def test_sum_kernel_value(self):
        k = Kernel.sum_kernel(1.0, 16)
        assert k.eval(2, 3) == 5.0

    def test_constant_kernel_value(self):
        k = Kernel.constant(1.0, 16)
        assert k.eval(7, 9) == 1.0

    def test_two_exponent_value(self):
        """alpha(4,4) = 2 * 4^1.5 = 16 for a = b = 0.75."""
        k = Kernel.two_exponent(0.75, 0.75, 16)
        assert k.eval(4, 4) == pytest.approx(16.0, rel=1e-14)

    def test_product_kernel_is_multiplicative_at_a1(self):
        k = Kernel.product(1.0, 8)
        assert k.eval(3, 5) == 15.0

    def test_out_of_range_raises(self):
        k = Kernel.constant(1.0, 8)
        with pytest.raises(KernelRangeError):
            k.eval(0, 3)
        with pytest.raises(KernelRangeError):
            k.eval(1, 9)

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
        assert k.eval(1, 1) == pytest.approx(4.0)

    def test_ballistic_profile_value(self):
        """d(n) = 1/n, r(n) = n^(1/3), dim 3: alpha(1,8) = (1+1/8)(1+2) = 3.375."""
        dp = DiffusionProfile.power_law(1.0, 1.0, 8)
        rp = RangeProfile(exponent=1.0 / 3.0)
        k = kinetic_kernel_from_range(dp, rp, 3, 1.0)
        assert k.eval(1, 8) == pytest.approx(3.375, rel=1e-13)

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


def _range_kernel(dim, n_max, r2=1.0, b2=0.5, exponent=1.0 / 3.0, scale=2.0, c=0.7):
    return kinetic_kernel_from_range(
        DiffusionProfile.power_law(r2, b2, n_max), RangeProfile(exponent, scale), dim, c
    )


class TestFactors:
    """alpha(n,m) = sum_r A[r,n-1] B[r,m-1] against the dense table."""

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
        A, B = k.factors(k.n_max)
        assert A.shape == B.shape == (rank, k.n_max)
        assert np.all(A >= 0) and np.all(B >= 0)
        table = k.dense()
        np.testing.assert_allclose(np.einsum("rn,rm->nm", A, B), table, rtol=4 * self.EPS, atol=0.0)

    def test_sub_range_matches_leading_block(self):
        k = Kernel.sum_kernel(1.3, 32)
        A, B = k.factors(10)
        np.testing.assert_allclose(np.einsum("rn,rm->nm", A, B), k.dense(10), rtol=4 * self.EPS, atol=0.0)
        with pytest.raises(KernelRangeError):
            k.factors(33)

    def test_tables_and_closures_have_no_factors(self):
        k = Kernel.sum_kernel(1.0, 8)
        assert Kernel.from_table(k.dense()).factors() is None
        assert Kernel.from_function(lambda n, m: float(n + m), 8).factors() is None


class TestOfTotalMass:
    """alpha(n,m) = phi(n+m) on every pair that lands in range."""

    @pytest.mark.parametrize("k", [Kernel.constant(0.7, 40), Kernel.sum_kernel(1.3, 40)], ids=["constant", "sum"])
    def test_matches_the_table_along_anti_diagonals(self, k):
        phi = k.of_total_mass(30)
        assert phi.shape == (30,)
        for n in range(1, 30):
            for m in range(1, 31 - n):
                assert phi[n + m - 1] == pytest.approx(k.eval(n, m), rel=2 * np.finfo(float).eps)
        with pytest.raises(KernelRangeError):
            k.of_total_mass(41)

    def test_other_families_have_none(self):
        for k in (Kernel.product(1.0, 8), Kernel.two_exponent(1.0, 0.0, 8), _range_kernel(3, 8),
                  Kernel.from_table(Kernel.sum_kernel(1.0, 8).dense())):
            assert k.of_total_mass() is None


def _sweep_k0(kernel, dp, delta, n_max):
    """Independent oracle: smallest k0 with all pairs k0 < n+m <= n_max passing."""
    worst = 0
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            if n + m > n_max:
                continue
            if kernel.eval(n, m) > delta * (n + m) * (dp.value(n) + dp.value(m)):
                worst = max(worst, n + m)
    return worst


class TestAssumption11:
    def test_sqrt_kernel_k0_matches_sweep(self):
        """alpha = sqrt(n+m), d = 1, delta = 0.25: the bound holds iff n+m >= 4."""
        n_max = 256
        k = Kernel.from_function(lambda n, m: float(np.sqrt(n + m)), n_max)
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
            DiffusionProfile.from_table([1.0, 0.0, 0.5])

    def test_monotone_tag_enforced(self):
        with pytest.raises(ValueError):
            DiffusionProfile("table", np.array([1.0, 2.0]), non_increasing=True)

    def test_bracketed_power_lies_in_bracket(self):
        r1, b1, r2, b2 = 0.5, 1.2, 2.0, 0.3
        dp = DiffusionProfile.bracketed_power(r1, b1, r2, b2, 64)
        n = np.arange(1, 65, dtype=float)
        assert np.all(dp.values >= r1 * n**-b1 - 1e-15)
        assert np.all(dp.values <= r2 * n**-b2 + 1e-15)
        assert np.all(np.diff(dp.values) <= 0)

    def test_value_clamps_beyond_range(self):
        dp = DiffusionProfile.power_law(1.0, 1.0, 8)
        assert dp.value(100) == dp.value(8)


class TestCustomTables:
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
        assert k.eval(1, 3) == k.eval(3, 1) == 3.5

    def test_csv_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("n,m,alpha\n1,1,1.0\n")
        with pytest.raises(ValueError, match="missing"):
            Kernel.from_csv(path, 2)

    def test_closure_kernel_is_custom_and_takes_no_kind(self):
        """A closure kernel is always "custom": a family name would make the
        family formulas read parameters the closure kernel does not have."""
        k = Kernel.from_function(lambda n, m: float(n * m), 8)
        assert k.kind == "custom" and k.eval(2, 3) == 6.0 and k.table is not None
        with pytest.raises(TypeError):
            Kernel.from_function(lambda n, m: float(n * m), 8, kind="sum")

    def test_from_function_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Kernel.from_function(lambda n, m: float(n), 4)

    def test_from_function_rejects_asymmetric_above_table_limit(self):
        """No table is kept above TABLE_LIMIT; the leading block is still checked."""
        with pytest.raises(ValueError, match="asymmetric"):
            Kernel.from_function(lambda n, m: float(n), TABLE_LIMIT + 1)

    @pytest.mark.parametrize("rate", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_from_function_rejects_bad_rates_above_table_limit(self, rate):
        """No table is kept above TABLE_LIMIT; a negative or non-finite rate
        on the leading block is still rejected, as it is at TABLE_LIMIT."""
        with pytest.raises(ValueError, match="finite and >= 0"):
            Kernel.from_function(lambda n, m: rate, TABLE_LIMIT + 1)

    def test_rate_row_clamps_for_table_kernels(self):
        k = Kernel.from_table(np.arange(1, 10, dtype=float).reshape(3, 3) * 0 + 2.0)
        np.testing.assert_array_equal(k.rate_row(7), k.rate_row(3))


class TestLargeRanges:
    def test_closure_only_above_table_limit(self):
        """Past the dense-table cutoff the kernel is closure-evaluated; a
        dense block can still be materialized on demand."""
        k = Kernel.sum_kernel(1.0, 2048)
        assert k.table is None
        assert k.eval(2000, 48) == 2048.0
        block = k.dense(8)
        assert block.shape == (8, 8)
        assert block[0, 0] == 2.0


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
