"""Reaction terms against brute-force pair enumeration written in this file.

Every vectorized quantity (gain, loss, assembled rates, gel flux, weighted
pair sums) is replayed by naive loops over ordered pairs; the two paths must
agree to 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import weighted_sum
from smolkit.coagulation import CUTOFF_MATVEC_MAX, RateEvaluator, TruncationPolicy
from smolkit.field import Grid, MassField
from smolkit.kernels import DiffusionProfile, Kernel, RangeProfile, kinetic_kernel_from_range


def brute_rates(table, flat, policy):
    """Ordered-pair reference: gain, factor-2 loss, and the gel mass flux."""
    n_max, cells = flat.shape
    Q = np.zeros_like(flat)
    flux = np.zeros(cells)
    for c in range(cells):
        for n in range(1, n_max + 1):
            g = sum(table[m - 1, n - m - 1] * flat[m - 1, c] * flat[n - m - 1, c] for m in range(1, n))
            m_top = n_max - n if policy.kind == "cutoff" else n_max
            lo = 2.0 * flat[n - 1, c] * sum(table[n - 1, m - 1] * flat[m - 1, c] for m in range(1, m_top + 1))
            Q[n - 1, c] = g - lo
        if policy.kind == "gel_reservoir":
            flux[c] = sum(
                (n + m) * table[n - 1, m - 1] * flat[n - 1, c] * flat[m - 1, c]
                for n in range(1, n_max + 1)
                for m in range(1, n_max + 1)
                if n + m > n_max
            )
    return Q, flux


def random_field(grid, n_max, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return MassField(grid, scale * rng.random((n_max,) + grid.shape))


def dense_gain(F, k, n):
    """Gain of species n per cell on the dense oracle path."""
    ev = RateEvaluator(Kernel.from_table(k.dense()), TruncationPolicy.gel_reservoir(F.n_max))
    return ev.gain_all(F.flat())[n - 1]


def dense_loss(F, k, n, policy):
    """Loss lambda_n f_n of species n per cell on the dense oracle path."""
    flat = F.flat()
    lam = RateEvaluator(Kernel.from_table(k.dense()), policy).loss_coefficients(flat)
    return (lam * flat)[n - 1]


class TestGain:
    def test_monodisperse_fills_only_species_two(self):
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 4)
        np.testing.assert_allclose(dense_gain(F, k, 2), 1.0)
        np.testing.assert_allclose(dense_gain(F, k, 3), 0.0)

    def test_ordered_splits_both_counted(self):
        """Q3+ = alpha(1,2) f1 f2 + alpha(2,1) f2 f1 = 2 for unit data."""
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 4)
        F.data[0] = 1.0
        F.data[1] = 1.0
        k = Kernel.constant(1.0, 4)
        np.testing.assert_allclose(dense_gain(F, k, 3), 2.0)

    def test_zero_field(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 4)
        k = Kernel.constant(1.0, 4)
        np.testing.assert_array_equal(dense_gain(F, k, 4), 0.0)

    def test_species_one_has_no_gain(self):
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 4)
        np.testing.assert_array_equal(dense_gain(F, k, 1), 0.0)


class TestLoss:
    def test_monodisperse_factor_two(self):
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 4)
        np.testing.assert_allclose(dense_loss(F, k, 1, TruncationPolicy.gel_reservoir(4)), 2.0)

    def test_cutoff_blocks_overflow_partners(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 2)
        F.data[1] = 1.0
        k = Kernel.constant(5.0, 2)
        np.testing.assert_array_equal(dense_loss(F, k, 2, TruncationPolicy.cutoff(2)), 0.0)

    def test_partner_sum_with_two_species(self):
        g = Grid(1, 1.0, 4)
        F = MassField.zeros(g, 2)
        F.data[:] = 1.0
        k = Kernel.constant(1.0, 2)
        np.testing.assert_allclose(dense_loss(F, k, 1, TruncationPolicy.gel_reservoir(2)), 4.0)


class TestReactionRates:
    def test_monodisperse_cutoff_budget(self):
        g = Grid(1, 1.0, 2)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 4)
        Q, _ = RateEvaluator(k, TruncationPolicy.cutoff(4)).rates(F.flat())
        np.testing.assert_allclose(Q[0], -2.0)
        np.testing.assert_allclose(Q[1], 1.0)
        np.testing.assert_allclose(1 * Q[0] + 2 * Q[1], 0.0, atol=1e-15)

    def test_all_mass_exits_at_n_max_one(self):
        """Degenerate range n_max = 1: every reaction overflows, so the
        reservoir absorbs mass at rate (1+1)*alpha*f1^2 = 2."""
        g = Grid(1, 1.0, 2)
        F = MassField.monodisperse(g, 1)
        k = Kernel.constant(1.0, 1)
        Q, flux = RateEvaluator(k, TruncationPolicy.gel_reservoir(1)).rates(F.flat())
        np.testing.assert_allclose(Q[0], -2.0)
        np.testing.assert_allclose(flux, 2.0)

    @pytest.mark.parametrize("kind", ["cutoff", "gel_reservoir"])
    def test_against_brute_force(self, kind):
        g = Grid(1, 1.0, 4)
        n_max = 8
        F = random_field(g, n_max, seed=7)
        k = Kernel.two_exponent(0.4, 0.6, n_max)
        policy = TruncationPolicy(kind, n_max)
        Q, flux = RateEvaluator(k, policy).rates(F.flat())
        Qb, fluxb = brute_rates(k.dense(), F.flat(), policy)
        np.testing.assert_allclose(Q, Qb, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(flux, fluxb, rtol=1e-12, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=st.sampled_from(["cutoff", "gel_reservoir"]))
    def test_mass_balance_random_fields(self, seed, kind):
        """Per cell, sum_n n Q_n (+ flux) vanishes to roundoff."""
        g = Grid(1, 1.0, 4)
        n_max = 8
        F = random_field(g, n_max, seed=seed)
        k = Kernel.sum_kernel(1.0, n_max)
        Q, flux = RateEvaluator(k, TruncationPolicy(kind, n_max)).rates(F.flat())
        n = np.arange(1, n_max + 1)
        balance = np.tensordot(n, Q, axes=(0, 0)) + flux
        scale = np.abs(np.tensordot(n, np.abs(Q), axes=(0, 0))).max()
        assert np.abs(balance).max() <= 1e-12 * max(scale, 1e-30)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_number_depletion(self, seed):
        """Coagulation only destroys particle count: sum_n Q_n <= 0."""
        g = Grid(1, 1.0, 4)
        F = random_field(g, 8, seed=seed)
        k = Kernel.product(0.5, 8)
        Q, _ = RateEvaluator(k, TruncationPolicy.cutoff(8)).rates(F.flat())
        assert np.all(Q.sum(axis=0) <= 1e-13)

    def test_gain_only_at_zero_density(self):
        """Where f_n = 0 the net rate cannot be negative."""
        g = Grid(1, 1.0, 4)
        F = random_field(g, 8, seed=2)
        F.data[4] = 0.0
        k = Kernel.sum_kernel(1.0, 8)
        Q, _ = RateEvaluator(k, TruncationPolicy.cutoff(8)).rates(F.flat())
        assert np.all(Q[4] >= 0.0)


class TestWeightedSum:
    def test_phi_mass_telescopes_to_zero_under_cutoff(self):
        g = Grid(1, 1.0, 4)
        F = random_field(g, 6, seed=1)
        k = Kernel.sum_kernel(1.0, 6)
        out = weighted_sum(F, k, lambda n: float(n), TruncationPolicy.cutoff(6))
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_phi_square_monodisperse(self):
        """phi(n) = n^2, f1 = 1: (4 - 1 - 1) * alpha(1,1) = 2."""
        g = Grid(1, 1.0, 4)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 4)
        out = weighted_sum(F, k, lambda n: float(n * n), TruncationPolicy.cutoff(4))
        np.testing.assert_allclose(out, 2.0)

    @pytest.mark.parametrize("kind", ["cutoff", "gel_reservoir"])
    def test_equals_phi_weighted_rates(self, kind):
        """The pair form must reproduce sum_n phi(n) Q_n for any phi."""
        rng = np.random.default_rng(9)
        n_max = 6
        g = Grid(1, 1.0, 4)
        for trial in range(25):
            F = random_field(g, n_max, seed=100 + trial)
            k = Kernel.two_exponent(rng.uniform(0, 1), rng.uniform(0, 1), n_max)
            phi_vals = rng.random(2 * n_max)
            phi = lambda n: float(phi_vals[n - 1])
            policy = TruncationPolicy(kind, n_max)
            ws = weighted_sum(F, k, phi, policy)
            Q, _ = RateEvaluator(k, policy).rates(F.flat())
            direct = np.tensordot(phi_vals[:n_max], Q, axes=(0, 0))
            np.testing.assert_allclose(ws.reshape(-1), direct, rtol=1e-12, atol=1e-13)

    def test_against_double_loop(self):
        n_max = 5
        g = Grid(1, 1.0, 2)
        F = random_field(g, n_max, seed=12)
        k = Kernel.sum_kernel(0.7, n_max)
        phi = lambda n: float(n**1.5)
        out = weighted_sum(F, k, phi, TruncationPolicy.cutoff(n_max))
        flat = F.flat()
        want, table = np.zeros(g.n_cells), k.dense()
        for c in range(g.n_cells):
            for n in range(1, n_max + 1):
                for m in range(1, n_max + 1):
                    if n + m > n_max:
                        continue
                    want[c] += table[n - 1, m - 1] * (phi(n + m) - phi(n) - phi(m)) * flat[n - 1, c] * flat[m - 1, c]
        np.testing.assert_allclose(out.reshape(-1), want, rtol=1e-12)


class TestRateEvaluator:
    def test_policy_must_match_kernel_range(self):
        k = Kernel.constant(1.0, 4)
        with pytest.raises(ValueError):
            RateEvaluator(k, TruncationPolicy.cutoff(8))

    def test_field_policy_mismatch_rejected(self):
        """A field with fewer species than the policy does not fit the
        evaluator's (n_max, cells) layout and is rejected."""
        g = Grid(1, 1.0, 2)
        F = MassField.monodisperse(g, 4)
        k = Kernel.constant(1.0, 8)
        with pytest.raises(ValueError):
            RateEvaluator(k, TruncationPolicy.cutoff(8)).rates(F.flat())


SEPARABLE = ("constant", "sum", "product", "two_exponent", "range_derived")


def separable_kernel(kind, n_max, a=0.7, b=0.3, dim=3):
    """A member of each family with closed-form factors."""
    if kind == "constant":
        return Kernel.constant(0.5 + a, n_max)
    if kind == "sum":
        return Kernel.sum_kernel(0.5 + a, n_max)
    if kind == "product":
        return Kernel.product(a, n_max)
    if kind == "two_exponent":
        return Kernel.two_exponent(a, b, n_max)
    dp = DiffusionProfile.power_law(1.0 + b, a, n_max)
    return kinetic_kernel_from_range(dp, RangeProfile(b, 0.5 + a), dim, 0.8)


class TestFactorisedEvaluator:
    """The FFT/prefix-sum path of RateEvaluator against the dense tables.

    The dense oracle is the same evaluator on ``Kernel.from_table(k.dense())``.
    Tolerances are fixed from float64 eps (2.2e-16): 1e-13 is ~450 eps,
    well above the eps * log2(L) growth of FFT roundoff for the lengths
    L <= 1024 used here.  Q and lambda are held to 1e-13 max|.|, the gel
    flux and the per-cell budget |sum_n n Q_n + flux| to 1e-13 max over
    cells of sum_n n lambda_n f_n.  Fields steeper than e^15 towards n_max
    miss these scales; see test_gain_roundoff_on_steep_fields.
    """

    @staticmethod
    def case(kind, policy_kind, n_max, cells, a, b, dim, decay, seed):
        k = separable_kernel(kind, n_max, a, b, dim)
        policy = TruncationPolicy(policy_kind, n_max)
        n = np.arange(1, n_max + 1, dtype=float)
        # decay < 0 puts the mass in small species, decay > 0 near n_max.
        rng = np.random.default_rng(seed)
        flat = rng.random((n_max, cells)) * np.exp(decay * (n[:, None] / n_max - 1.0))
        return k, RateEvaluator(k, policy), RateEvaluator(Kernel.from_table(k.dense()), policy), flat

    # The sum kernel's gain is phi(n) times one convolution, so its roundoff
    # grows with n; it matters most when the mass sits in small species.
    @example(kind="sum", policy_kind="cutoff", n_max=300, cells=64, a=0.7, b=0.3, dim=3, decay=-30.0, seed=1)
    @example(kind="sum", policy_kind="cutoff", n_max=300, cells=64, a=0.7, b=0.3, dim=3, decay=15.0, seed=2)
    @example(kind="sum", policy_kind="gel_reservoir", n_max=300, cells=64, a=0.7, b=0.3, dim=3, decay=-30.0, seed=3)
    @example(kind="sum", policy_kind="gel_reservoir", n_max=300, cells=64, a=0.7, b=0.3, dim=3, decay=15.0, seed=4)
    # Cutoff loss coefficients: one matvec up to the crossover, prefix sums above.
    @example(kind="sum", policy_kind="cutoff", n_max=CUTOFF_MATVEC_MAX, cells=3, a=0.7, b=0.3, dim=3, decay=-30.0, seed=5)
    @example(kind="sum", policy_kind="cutoff", n_max=CUTOFF_MATVEC_MAX + 1, cells=3, a=0.7, b=0.3, dim=3, decay=-30.0, seed=6)
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(SEPARABLE),
        policy_kind=st.sampled_from(["cutoff", "gel_reservoir"]),
        n_max=st.integers(1, 300),
        cells=st.sampled_from([1, 3, 64]),
        a=st.floats(0.0, 1.5),
        b=st.floats(0.0, 1.5),
        dim=st.integers(3, 5),
        decay=st.floats(-30.0, 15.0),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_oracle(self, kind, policy_kind, n_max, cells, a, b, dim, decay, seed):
        _, fast, dense, flat = self.case(kind, policy_kind, n_max, cells, a, b, dim, decay, seed)
        n = np.arange(1, n_max + 1, dtype=float)
        Q, flux = fast.rates(flat)
        Qd, fluxd = dense.rates(flat)
        lam = fast.loss_coefficients(flat)
        lamd = dense.loss_coefficients(flat)
        flux_scale = (n @ (lamd * flat)).max()

        assert np.abs(lam - lamd).max() <= 1e-13 * np.abs(lamd).max()
        assert np.abs(Q - Qd).max() <= 1e-13 * np.abs(Qd).max()
        assert np.abs(flux - fluxd).max() <= 1e-13 * flux_scale
        assert np.abs(n @ Q + flux).max() <= 1e-13 * flux_scale
        assert np.all(flux >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(SEPARABLE),
        policy_kind=st.sampled_from(["cutoff", "gel_reservoir"]),
        n_max=st.integers(1, 300),
        cells=st.sampled_from([1, 3, 64]),
        a=st.floats(0.0, 1.5),
        decay=st.floats(15.0, 30.0),
        seed=st.integers(0, 2**31),
    )
    def test_gain_roundoff_on_steep_fields(self, kind, policy_kind, n_max, cells, a, decay, seed):
        """FFT roundoff is absolute: it scales with the pairs transformed,
        sum_r |A_r f|_2 |B_r f|_2 over light masses <= n_max // 2 against
        all masses, not with the gain itself.  With the mass near n_max and
        light species up to e^-30 emptier, that bound exceeds max|Q| by
        orders of magnitude, and Q misses 1e-13 max|Q| (by up to 4e-11 of
        max|Q| in a sweep); the gain still keeps to the bound."""
        k, fast, dense, flat = self.case(kind, policy_kind, n_max, cells, a, 0.3, 3, decay, seed)
        A, B = k.factors(n_max)
        h = n_max // 2
        bound = (np.linalg.norm(A[:, :h, None] * flat[:h], axis=1) * np.linalg.norm(B[:, :, None] * flat, axis=1)).sum(0)
        assert np.all(np.abs(fast.gain_all(flat) - dense.gain_all(flat)) <= 1e-13 * bound)

    @pytest.mark.parametrize("kind", SEPARABLE)
    @pytest.mark.parametrize("policy_kind", ["cutoff", "gel_reservoir"])
    def test_separable_kernels_take_the_factorised_path(self, kind, policy_kind, monkeypatch):
        """A silent fall-back to the dense tables would call Kernel.dense."""
        k = separable_kernel(kind, 16)
        table = Kernel.from_table(k.dense())
        policy = TruncationPolicy(policy_kind, 16)

        def refuse(self, n_max=None):
            raise AssertionError("dense kernel table requested")

        monkeypatch.setattr(Kernel, "dense", refuse)
        flat = random_field(Grid(1, 1.0, 4), 16, seed=3).flat()
        RateEvaluator(k, policy).rates(flat)
        with pytest.raises(AssertionError, match="dense kernel table"):
            RateEvaluator(table, policy)


class TestCheaperForms:
    """Forms RateEvaluator picks at construction from the kernel family, the
    policy and n_max; their values are held to the dense oracle by
    TestFactorisedEvaluator."""

    @pytest.mark.parametrize("kind", SEPARABLE)
    def test_sum_kernel_gain_transforms_two_rows(self, kind, monkeypatch):
        """alpha = phi(n+m) with rank 2 needs one convolution, light by any;
        the other families transform 2R rows, R light and R any."""
        k = separable_kernel(kind, 16)
        rows = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            rows.append(a.shape[0])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        RateEvaluator(k, TruncationPolicy.cutoff(16)).gain_all(np.ones((16, 3)))
        assert rows == [2 if kind == "sum" else 2 * k.factors(16)[0].shape[0]]

    @pytest.mark.parametrize("n_max, prefix_sums", [(CUTOFF_MATVEC_MAX, False), (CUTOFF_MATVEC_MAX + 1, True)])
    def test_cutoff_loss_is_one_matvec_up_to_the_crossover(self, n_max, prefix_sums, monkeypatch):
        calls = []
        cumsum = np.cumsum

        def spy(*args, **kwargs):
            calls.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", spy)
        RateEvaluator(Kernel.sum_kernel(1.0, n_max), TruncationPolicy.cutoff(n_max)).loss_coefficients(np.ones((n_max, 3)))
        assert bool(calls) == prefix_sums


class TestScratchReuse:
    """RateEvaluator keeps work buffers per cell count; reusing them must be
    invisible.  One evaluator called on 1, 3 and 64 cells in turn gives bit
    for bit what a fresh evaluator gives, with and without ``out``, and the
    arrays it returned earlier are never changed by later calls."""

    CELLS = (1, 3, 64, 1, 64, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(SEPARABLE),
        policy_kind=st.sampled_from(["cutoff", "gel_reservoir"]),
        dense=st.booleans(),
        n_max=st.integers(1, 80),
        seed=st.integers(0, 2**31),
    )
    def test_reused_evaluator_matches_fresh(self, kind, policy_kind, dense, n_max, seed):
        k = separable_kernel(kind, n_max)
        if dense:
            k = Kernel.from_table(k.dense())
        policy = TruncationPolicy(policy_kind, n_max)
        shared = RateEvaluator(k, policy)
        rng = np.random.default_rng(seed)
        returned = []
        for cells in self.CELLS:
            flat = rng.random((n_max, cells))
            fresh = RateEvaluator(k, policy)
            Q, flux = fresh.rates(flat)
            lam, gain = fresh.loss_coefficients(flat), fresh.gain_all(flat)

            got = {"Q": shared.rates(flat)[0], "lam": shared.loss_coefficients(flat), "gain": shared.gain_all(flat)}
            got["flux"] = shared.rates(flat, got["lam"])[1]
            bufs = [np.full_like(flat, np.nan) for _ in range(4)]
            Qo, fluxo = shared.rates(flat, out=bufs[0])
            Ql, _ = shared.rates(flat, lam, out=bufs[1])
            assert Qo is bufs[0] and Ql is bufs[1]
            assert shared.loss_coefficients(flat, out=bufs[2]) is bufs[2]
            assert shared.gain_all(flat, out=bufs[3]) is bufs[3]

            for a, b in [(got["Q"], Q), (Qo, Q), (Ql, Q), (got["lam"], lam), (bufs[2], lam),
                         (got["gain"], gain), (bufs[3], gain), (got["flux"], flux), (fluxo, flux)]:
                assert np.array_equal(a, b)
            returned += [(a, a.copy()) for a in got.values()]
        for a, copy in returned:
            assert np.array_equal(a, copy)
