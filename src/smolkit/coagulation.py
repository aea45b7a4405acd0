"""Reaction terms for binary coagulation: gain, loss, and mass bookkeeping.

:class:`RateEvaluator` is the one rate path: it evaluates every species in
every cell at once, on data laid out as (n_max, cells).

Conventions (ordered-pair bookkeeping, no 1/2 factors):

    gain_n = sum_{m=1}^{n-1} alpha(m, n-m) f_m f_{n-m}
    loss_n = 2 f_n sum_m alpha(n, m) f_m

The explicit factor 2 in the loss makes the pair of terms exactly
mass-compatible with the ordered gain sum.  Two truncation policies close
the hierarchy at ``n_max``:

* ``cutoff``: pairs with n+m > n_max never react; truncated mass is exactly
  conserved.
* ``gel_reservoir``: the loss partner sum runs over the whole range and the
  mass of products beyond n_max is routed to an explicit reservoir, whose
  refinement limit diagnoses gelation.

Kernels with a closed-form separable structure,
alpha(n,m) = sum_r a_r(n) b_r(m) (see :meth:`Kernel.factors`), are evaluated
in O(R N log N) per cell after Matveev, Smirnov & Tyrtyshnikov (J. Comput.
Phys. 282, 2015): the gain is R convolutions along the mass axis done by one
zero-padded FFT over the pairs whose lighter partner is at most n_max // 2,
the loss partner sums are R inner products (gel reservoir) or R prefix sums
(cutoff), and the gel flux is R suffix sums.  Two cheaper exact forms are
chosen when the evaluator is built.  A kernel of rank R > 1 that depends on
n+m alone, alpha = phi(n+m) (the sum kernel), is constant along each
anti-diagonal, so its gain is phi(n) times a single convolution.  Under
cutoff with n_max <= CUTOFF_MATVEC_MAX the loss coefficients are one matvec
with the masked matrix 2 [n+m <= n_max] A^T B, which is faster there than R
prefix sums.  FFT roundoff is absolute, of the order of eps times the norm
of the pairs transformed (times phi(n) on the single-convolution form), so a
species whose true gain is zero can receive a tiny gain of either sign.  It
is not clipped, because clipping would shift the mass budget.  Table
kernels have no such structure and use the direct O(N^2) double sums, which
also serve as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel

__all__ = ["TruncationPolicy", "RateEvaluator"]

CUTOFF = "cutoff"
GEL_RESERVOIR = "gel_reservoir"

# With factors, cutoff loss coefficients are one (n_max, n_max) matvec up to
# this n_max and R prefix sums above it.  Median ms per call, prefix sums vs
# matvec, one BLAS thread on a 2-vCPU x86-64 host: one cell 0.023 vs 0.011 at
# N = 256, 0.026 vs 0.025 at 384, 0.034 vs 0.084 at 512; 64 cells 0.28 vs
# 0.23 at 256, 0.37 vs 0.61 at 384.
CUTOFF_MATVEC_MAX = 256


@dataclass(frozen=True)
class TruncationPolicy:
    """How reactions that would exceed the sectional range are closed."""

    kind: str
    n_max: int

    def __post_init__(self):
        if self.kind not in (CUTOFF, GEL_RESERVOIR):
            raise ValueError(f"unknown truncation policy {self.kind!r}")
        # n_max = 1 is degenerate but legal: under the gel reservoir every
        # reaction exits the range, which is useful as a boundary case.
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @classmethod
    def cutoff(cls, n_max: int) -> "TruncationPolicy":
        return cls(CUTOFF, n_max)

    @classmethod
    def gel_reservoir(cls, n_max: int) -> "TruncationPolicy":
        return cls(GEL_RESERVOIR, n_max)


class RateEvaluator:
    """Evaluates reaction rates on (n_max, cells) data.

    When the kernel has closed-form factors (:meth:`Kernel.factors`), the
    evaluator keeps the factor arrays and builds no dense kernel table: the
    gain is one batched FFT convolution (2R transform rows, or 2 when the
    kernel is phi(n+m) with R > 1), the loss coefficients are factor inner
    products (gel reservoir), a matvec with a matrix built from the factors
    (cutoff, n_max <= CUTOFF_MATVEC_MAX) or prefix sums (cutoff above it),
    and under the gel reservoir the flux is a sum of suffix sums.  The
    choice is fixed at construction by the kernel family, the policy and
    n_max.  Otherwise dense pair tables are precomputed and summed directly.

    Evaluation is pure in its results, but each instance keeps private work
    buffers (the zero-padded FFT input and its spectra; the prefix and
    suffix sums, on the paths that read them; field-sized temporaries),
    allocated on the first call
    for a cell count and reused after; with factors, a steady-state call
    given ``out`` allocates nothing of field size.  The buffers make an
    instance unsafe to share between threads: use one per thread (a forked
    process works on its own copy).  Arrays an evaluation returns are fresh
    unless passed in as ``out``, and later calls never change them.
    """

    def __init__(self, kernel: Kernel, policy: TruncationPolicy):
        n_max = policy.n_max
        if kernel.n_max < n_max:
            raise ValueError("kernel range smaller than the truncation range")
        self.policy = policy
        self.n_max = n_max
        self._scratch: dict[int, _Scratch] = {}
        self._factors = kernel.factors(n_max)
        self._loss_matrix = None
        self._sums_rank = 0
        if self._factors is not None:
            A, B = self._factors
            R = A.shape[0]
            self._loss_A = 2.0 * A
            # A merger landing in range has its lighter partner at mass
            # <= n_max // 2, so the gain needs only pairs (light, any):
            # light x light once per order, light x heavy doubled, which the
            # kernel's symmetry allows.  Heavy x heavy pairs never land in
            # range and are left out of the transform and its roundoff.
            h = n_max // 2
            heavy = np.arange(1, n_max) > h
            phi = kernel.of_total_mass(n_max) if R > 1 else None
            if phi is None:
                light, any_ = np.where(heavy, 0.0, A[:, :-1]), np.where(heavy, 2.0, 1.0) * B[:, :-1]
                self._phi = None
            else:
                # alpha(n, m) = phi(n+m) is constant along each anti-diagonal,
                # so gain_n = phi(n) (f_light * f_any)_n: one convolution.
                light, any_ = np.where(heavy, 0.0, 1.0)[None], np.where(heavy, 2.0, 1.0)[None]
                self._phi = phi[1:, None]
            # One transform serves both: rows 0..G-1 light, G..2G-1 any.
            self._gain_weights = np.concatenate([light, any_])
            # Zero padding to L > h + n_max - 3, the largest index, keeps the
            # circular convolution linear; its index k is mass k+2.  L is the
            # smallest 2^k or 3 * 2^k that suffices, a fast FFT length.
            n = max(h + n_max - 2, 1)
            self._fft_len = min(1 << (n - 1).bit_length(), 3 << ((n - 1) // 3).bit_length())
            self._mass = np.arange(1.0, n_max + 1)
            if policy.kind == CUTOFF and n_max <= CUTOFF_MATVEC_MAX:
                idx = np.arange(1, n_max + 1)
                self._loss_matrix = np.where(idx[:, None] + idx[None, :] <= n_max, self._loss_A.T @ B, 0.0)
            # Only the gel flux and the cutoff prefix sums read the
            # (R, n_max, cells) sums.
            self._sums_rank = 0 if self._loss_matrix is not None else R
            return
        table = kernel.dense(n_max)
        idx = np.arange(1, n_max + 1)
        s = idx[:, None] + idx[None, :]
        # Unordered-split gain weights: row i holds the coefficients for
        # species m = i+1 paired with j >= i, doubled off the diagonal so a
        # single pass over unordered pairs reproduces the ordered sum.
        self._gain_rows = []
        for i in range(n_max // 2):
            hi = n_max - i - 2
            w = 2.0 * table[i, i : hi + 1].copy()
            w[0] *= 0.5
            self._gain_rows.append(w)
        if policy.kind == CUTOFF:
            self._loss_matrix = 2.0 * np.where(s <= n_max, table, 0.0)
            self._gel_matrix = None
        else:
            self._loss_matrix = 2.0 * table
            self._gel_matrix = np.where(s > n_max, s * table, 0.0)

    def _buffers(self, cells: int) -> _Scratch:
        """The work buffers for ``cells`` cells, allocated on first use."""
        buf = self._scratch.get(cells)
        if buf is None:
            fft = None if self._factors is None else (self._gain_weights.shape[0], self._fft_len)
            buf = self._scratch[cells] = _Scratch(self.n_max, cells, fft, self._sums_rank)
        return buf

    def gain_all(self, flat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """(n_max, cells) gain term; species 1 has no gain.

        Written into ``out`` if given, which must not overlap ``flat``.
        """
        if out is None:
            out = np.empty_like(flat)
        if self._factors is not None:
            buf = self._buffers(flat.shape[1])
            G, m = self._gain_weights.shape[0] // 2, self.n_max - 1
            # Rows m.. of the padded input are never written and stay zero.
            np.multiply(self._gain_weights[:, :, None], flat[:-1], out=buf.padded[:, :m])
            X = np.fft.rfft(buf.padded, axis=1, out=buf.spectra)
            np.multiply(X[:G], X[G:], out=X[:G])
            X[:G].sum(axis=0, out=buf.spectrum)
            np.fft.irfft(buf.spectrum, n=self._fft_len, axis=0, out=buf.conv)
            out[0] = 0.0
            if self._phi is None:
                out[1:] = buf.conv[:m]
            else:
                np.multiply(self._phi, buf.conv[:m], out=out[1:])
            return out
        out.fill(0.0)
        for i, w in enumerate(self._gain_rows):
            hi = i + w.size - 1
            out[2 * i + 1 : i + hi + 2] += (w[:, None] * flat[i : hi + 1]) * flat[i]
        return out

    def loss_coefficients(self, flat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """(n_max, cells) coefficients lambda_n(x) with loss_n = lambda_n * f_n.

        Written into ``out`` if given, which must not overlap ``flat``.
        """
        if self._loss_matrix is not None:
            return np.matmul(self._loss_matrix, flat, out=out)
        B = self._factors[1]
        if self.policy.kind != CUTOFF:
            return np.matmul(self._loss_A.T, B @ flat, out=out)
        # Under cutoff species n meets partners m <= n_max - n, so
        # lambda_n = 2 sum_r A_r(n) P_r[n_max - n] with P_r the prefix sums of B_r f.
        buf = self._buffers(flat.shape[1])
        P = np.multiply(B[:, :, None], flat, out=buf.sums)
        np.cumsum(P, axis=1, out=P)
        lam = np.empty_like(flat) if out is None else out
        lam.fill(0.0)
        term = buf.term[:-1]
        for a, p in zip(self._loss_A, P):
            lam[:-1] += np.multiply(a[:-1, None], p[-2::-1], out=term)
        return lam

    def _gel_flux(self, flat: np.ndarray) -> np.ndarray:
        """sum over ordered pairs with n+m > n_max of (n+m) alpha f_n f_m.

        By the kernel's symmetry this is sum_n n f_n 2 sum_r A_r(n) S_r(n),
        where S_r(n) = sum_{m > n_max - n} B_r(m) f_m is a suffix sum.  The
        FFT gain leaves roundoff of either sign in nearly empty species; the
        negative part is read as zero here, so every term is nonnegative and
        the reservoir never decreases.
        """
        buf = self._buffers(flat.shape[1])
        f = np.maximum(flat, 0.0, out=buf.term)
        S = np.multiply(self._factors[1][:, ::-1, None], f[::-1], out=buf.sums)
        np.cumsum(S, axis=1, out=S)
        np.multiply(self._loss_A[:, :, None], S, out=S)
        weighted = S.sum(axis=0, out=buf.field)
        weighted *= f
        return self._mass @ weighted

    def rates(
        self, flat: np.ndarray, lam: np.ndarray | None = None, *, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(Q, flux_to_gel) for data laid out as (n_max, cells).

        Q is the net rate gain_n - loss_n per species and cell.  The flux
        counts (n+m) alpha(n,m) f_n f_m once per ordered pair with
        n+m > n_max, which balances the factor-2 loss convention exactly:
        per cell, sum_n n*Q_n + flux_to_gel = 0 up to roundoff (the flux is
        zero under cutoff).

        ``lam``, if given, must be ``loss_coefficients(flat)``; a caller that
        already holds it saves the second evaluation.  Q is written into
        ``out`` if given, which must not overlap ``flat`` or ``lam``.
        """
        Q = self.gain_all(flat, out=out)
        buf = self._buffers(flat.shape[1])
        if lam is None:
            lam = self.loss_coefficients(flat, out=buf.field)
        Q -= np.multiply(lam, flat, out=buf.field)
        if self.policy.kind == CUTOFF:
            flux = np.zeros(flat.shape[1])
        elif self._factors is not None:
            flux = self._gel_flux(flat)
        else:
            flux = np.einsum("nc,nc->c", flat, self._gel_matrix @ flat)
        return Q, flux


class _Scratch:
    """Work buffers of one :class:`RateEvaluator` for one cell count.

    ``field`` is (n_max, cells).  With factors, a gain of G = ``rows // 2``
    convolutions and FFT length L, there are also the zero-padded
    (2G, L, cells) FFT input, its spectra, their product-sum and its
    inverse transform; with ``rank`` R > 0, a second field-sized ``term``
    and the (R, n_max, cells) prefix/suffix sums.
    """

    def __init__(self, n_max: int, cells: int, fft: tuple[int, int] | None, rank: int):
        self.field = np.empty((n_max, cells))
        if fft is not None:
            rows, L = fft
            self.padded = np.zeros((rows, L, cells))
            self.spectra = np.empty((rows, L // 2 + 1, cells), dtype=complex)
            self.spectrum = np.empty((L // 2 + 1, cells), dtype=complex)
            self.conv = np.empty((L, cells))
        if rank:
            self.term = np.empty((n_max, cells))
            self.sums = np.empty((rank, n_max, cells))
