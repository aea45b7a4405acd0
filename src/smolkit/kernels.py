"""Coagulation kernels, diffusion profiles, and admissibility certificates.

A kernel ``alpha(n, m)`` is the symmetric, nonnegative rate coefficient at
which clusters of integer masses ``n`` and ``m`` merge.  A family kernel is
its formula, written once as factors alpha(n, m) = sum_r A_r(n) B_r(m) and
evaluated on demand; only a table kernel stores its rates.  A diffusion
profile ``d(n)`` is the diffusivity of a mass-``n`` cluster
(length^2/time), physically non-increasing in ``n``.
``check_assumption_1_1`` certifies, by exhaustive sweep over ``1..n_max``,
the relative-propensity condition (A1) that :func:`smolkit.analysis.scope`
reports with the paper's other hypotheses.  The certificate is
finite-range: a pass means "verified up to n_max", never a symbolic proof.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kernel",
    "DiffusionProfile",
    "RangeProfile",
    "CheckResult",
    "kinetic_kernel_from_range",
    "check_assumption_1_1",
]

class KernelRangeError(IndexError):
    """Mass index outside 1..n_max."""


@dataclass(frozen=True)
class Kernel:
    """Symmetric coagulation rates alpha(n, m) over the masses 1..n_max.

    A kernel holds one representation.  The formula families (constant,
    sum, product, two_exponent, range_derived) are their factors (see
    :meth:`factors`), evaluated from ``params`` whenever rates are asked
    for; only ``kind = "table"`` stores ``table``.  Construction checks
    every rate on 1..n_max finite and nonnegative without tabulating a
    formula: it checks the nonnegative factors and the sum of their
    maxima, which bounds every rate.  Instances are immutable and safe for
    concurrent reads.
    Use the class-method constructors.
    """

    kind: str
    params: dict
    n_max: int
    table: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        if (self.table is not None) != (self.kind == "table"):
            raise ValueError("a kernel stores a table exactly when its kind is 'table'")
        if self.table is not None:
            _require_rates(self.table)
            return
        # A formula is checked through its factors, in O(R * n_max) memory:
        # they are nonnegative, so sum_r max(A_r) max(B_r) bounds every rate.
        with np.errstate(over="ignore", invalid="ignore"):
            A, B = self.factors()
            bound = np.sum(A.max(axis=1) * B.max(axis=1))
        for rates in (A, B, bound):
            _require_rates(rates)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float, n_max: int) -> "Kernel":
        """alpha(n, m) = c."""
        if c < 0:
            raise ValueError("constant kernel requires c >= 0")
        return cls("constant", {"c": float(c)}, int(n_max))

    @classmethod
    def sum_kernel(cls, c0: float, n_max: int) -> "Kernel":
        """alpha(n, m) = c0 * (n + m)."""
        if c0 < 0:
            raise ValueError("sum kernel requires c0 >= 0")
        return cls("sum", {"c0": float(c0)}, int(n_max))

    @classmethod
    def product(cls, a: float, n_max: int) -> "Kernel":
        """alpha(n, m) = (n * m) ** a."""
        return cls("product", {"a": float(a)}, int(n_max))

    @classmethod
    def two_exponent(cls, a: float, b: float, n_max: int) -> "Kernel":
        """alpha(n, m) = n^a m^b + n^b m^a."""
        return cls("two_exponent", {"a": float(a), "b": float(b)}, int(n_max))

    @classmethod
    def from_table(cls, table: np.ndarray, n_max: int | None = None) -> "Kernel":
        """Wrap an explicit (n_max, n_max) rate table.

        Asymmetric input is rejected, not symmetrized: silent correction
        would hide data errors upstream.
        """
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("kernel table must be square")
        if n_max is None:
            n_max = arr.shape[0]
        if arr.shape[0] < n_max:
            raise ValueError("kernel table smaller than n_max")
        arr = arr[:n_max, :n_max].copy()
        _require_symmetric(arr)
        arr.flags.writeable = False
        return cls(kind="table", params={}, n_max=int(n_max), table=arr)

    @classmethod
    def from_csv(cls, path, n_max: int) -> "Kernel":
        """Load a rate table from CSV with header ``n,m,alpha``.

        Specifying only the lower triangle (n >= m) is sufficient; entries
        present on both sides must agree.
        """
        filled = np.full((n_max, n_max), np.nan)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["n", "m", "alpha"]:
                raise ValueError(f"{path}: expected CSV header 'n,m,alpha'")
            for row in reader:
                n, m, a = int(row["n"]), int(row["m"]), float(row["alpha"])
                if not (1 <= n <= n_max and 1 <= m <= n_max):
                    raise ValueError(f"{path}: pair ({n},{m}) outside 1..{n_max}")
                for i, j in ((n - 1, m - 1), (m - 1, n - 1)):
                    if not math.isnan(filled[i, j]) and filled[i, j] != a:
                        raise ValueError(f"{path}: conflicting entries for pair ({n},{m})")
                    filled[i, j] = a
        if np.isnan(filled).any():
            n, m = np.argwhere(np.isnan(filled))[0] + 1
            raise ValueError(f"{path}: missing rate for pair ({n},{m})")
        return cls.from_table(filled, n_max)

    # -- evaluation ---------------------------------------------------

    def _factor_rows(self, n):
        """The formula's factors (see :meth:`factors`) at any array of integer
        masses ``n``, shape (R, *n.shape); raises for a table or an unknown kind."""
        p = self.params
        nf = np.asarray(n, dtype=float)
        one = np.ones(nf.shape)
        if self.kind == "constant":
            w = math.sqrt(p["c"]) * one
            return w[None], w[None]
        if self.kind == "sum":
            w = p["c0"] * nf
            return np.stack([w, one]), np.stack([one, w])
        if self.kind == "product":
            w = nf ** p["a"]
            return w[None], w[None]
        if self.kind == "two_exponent":
            na, nb = nf ** p["a"], nf ** p["b"]
            return np.stack([na, nb]), np.stack([nb, na])
        if self.kind == "range_derived":
            # (d_n + d_m)(r_n + r_m)^q with q = dim-2, expanded binomially:
            # each term C(q,k) d_n r_n^k r_m^(q-k) comes with its transpose.
            q = p["dim"] - 2
            d = p["diffusion"].value(n)
            r = p["range"].value(nf)
            A, B = [], []
            for k in range(q + 1):
                left, right = p["c"] * math.comb(q, k) * d * r**k, r ** (q - k)
                A += [left, right]
                B += [right, left]
            return np.stack(A), np.stack(B)
        raise ValueError(f"unknown kernel kind {self.kind!r}")

    def dense(self, n_max: int | None = None) -> np.ndarray:
        """Dense (n_max, n_max) rate table: a view of a table kernel, else sum_r A_r (x) B_r."""
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested table size {n_max} exceeds kernel n_max {self.n_max}")
        if self.table is not None:
            return self.table[:n_max, :n_max]
        return _outer_sum(*self.factors(n_max))

    def factors(self, n_max: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """Closed-form separable form of the kernel over masses 1..n_max.

        Returns ``(A, B)`` of shape (R, n_max) with
        ``alpha(n, m) = sum_r A[r, n-1] * B[r, m-1]``: rank 1 for constant
        and product, 2 for sum and two_exponent, 2*(dim-1) for
        range_derived.  All factors are nonnegative, so the sum has no
        cancellation.  They are each family's one formula: :meth:`dense`,
        :meth:`rate_row` and :meth:`of_total_mass` read them too.  Tables
        have no known factors and return None.
        """
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested factors for {n_max} masses exceed kernel n_max {self.n_max}")
        return None if self.table is not None else self._factor_rows(np.arange(1, n_max + 1))

    def of_total_mass(self, n_max: int | None = None) -> np.ndarray | None:
        """``phi`` of shape (n_max,) with alpha(n, m) = phi[n+m-1] for n+m <= n_max.

        Defined for the families that depend on n+m alone, constant and
        sum, as phi(s) = alpha(1, s-1) off their factors; this lets the gain
        of the rank-2 sum kernel be taken as a rank-1 product.  Other kinds
        return None.
        """
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested {n_max} total masses exceed kernel n_max {self.n_max}")
        if self.kind not in ("constant", "sum"):
            return None
        return _outer_sum(self._factor_rows(1)[0], self._factor_rows(np.arange(n_max))[1])

    def rate_row(self, m) -> np.ndarray:
        """Rates alpha(1..n_max, m) for a tracer mass m >= 1 or an array of them.

        One mass gives shape (n_max,); an array of masses gives a column per
        mass, shape (n_max, *m.shape).  Tables clamp m to n_max (the tracer
        can outgrow the sectional range after repeated mergers); formulas
        evaluate A(1..n_max)^T B(m) at every m, with range-derived d clamped
        past its profile.
        """
        m = np.asarray(m)
        if np.any(m < 1):
            raise KernelRangeError(f"mass index {m.min()} < 1")
        if self.kind == "table":
            return self.table[:, np.minimum(m, self.n_max) - 1]
        return _outer_sum(self.factors()[0], self._factor_rows(m)[1])


def _outer_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_r A[r] (x) B[r], added in the order r = 0, 1, ..."""
    return sum(np.multiply.outer(a, b) for a, b in zip(A, B))


def _require_rates(table: np.ndarray) -> None:
    if np.any(table < 0) or not np.all(np.isfinite(table)):
        raise ValueError("kernel rates must be finite and >= 0")


def _require_symmetric(table: np.ndarray, rtol: float = 1e-12) -> None:
    if not np.allclose(table, table.T, rtol=rtol, atol=0.0):
        n, m = np.argwhere(~np.isclose(table, table.T, rtol=rtol, atol=0.0))[0] + 1
        raise ValueError(f"kernel table is asymmetric at pair ({n},{m}); refusing to symmetrize")


@dataclass(frozen=True)
class DiffusionProfile:
    """Per-mass diffusivities d(1..n_max).

    ``values[i]`` holds d(i+1).  All entries must be positive.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("diffusion profile needs a 1-D value table")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("diffusion rates must be finite and > 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_max(self) -> int:
        return self.values.size

    @property
    def non_increasing(self) -> bool:
        """Whether d(n+1) <= d(n) for every n < n_max."""
        return bool(np.all(np.diff(self.values) <= 0))

    @classmethod
    def constant(cls, value: float, n_max: int) -> "DiffusionProfile":
        return cls(np.full(n_max, float(value)))

    @classmethod
    def power_law(cls, r2: float, b2: float, n_max: int) -> "DiffusionProfile":
        """d(n) = r2 * n^(-b2), sampled on 1..n_max."""
        n = np.arange(1, n_max + 1, dtype=float)
        return cls(r2 * n ** (-b2))

    def value(self, n):
        """d(n), vectorized; indices beyond n_max clamp to d(n_max).

        The clamp extends the profile for tracer masses that outgrow the
        sectional range; for a non-increasing profile it is an upper bound
        on the true diffusivity.
        """
        idx = np.minimum(np.asarray(n, dtype=np.int64), self.n_max) - 1
        if np.any(idx < 0):
            raise KernelRangeError("mass index < 1")
        out = self.values[idx]
        return float(out) if np.ndim(n) == 0 else out


@dataclass(frozen=True)
class RangeProfile:
    """Interaction radius r(n) = scale * n^exponent, nondecreasing in n."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("range exponent must be >= 0")
        if self.scale <= 0:
            raise ValueError("range scale must be > 0")

    def value(self, n):
        return self.scale * np.asarray(n, dtype=float) ** self.exponent


def kinetic_kernel_from_range(
    dp: DiffusionProfile, rp: RangeProfile, dim: int, c: float = 1.0
) -> Kernel:
    """Collision kernel alpha(n,m) = c*(d(n)+d(m))*(r(n)+r(m))^(dim-2).

    This is the saturated form of the propensity produced by a short-range
    interaction of radius r(n) between diffusing clusters; it is only
    meaningful for dim >= 3.
    """
    if dim < 3:
        raise ValueError(f"range-derived kernel requires dim >= 3, got {dim}")
    if c < 0:
        raise ValueError("prefactor c must be >= 0")
    params = {"diffusion": dp, "range": rp, "dim": int(dim), "c": float(c)}
    return Kernel(kind="range_derived", params=params, n_max=dp.n_max)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the finite-range (A1) certificate: ``k0`` when it passes,
    else the lexicographically first violating pair as ``witness``."""

    passed: bool
    k0: int | None = None
    witness: tuple | None = None


def check_assumption_1_1(
    kernel: Kernel, dp: DiffusionProfile, delta: float, n_max: int | None = None
) -> CheckResult:
    """Certify assumption (A1): relative propensity below delta beyond k0.

    Finds the smallest k0 >= 1 such that
    ``alpha(n,m) <= delta * (n+m) * (d(n)+d(m))`` for every pair with
    ``k0 < n+m <= n_max``.  Fails (with the lexicographically first
    violating pair as witness) if pairs at the top of the range violate
    the bound, since then no certificate below n_max exists.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    n_max = n_max or min(kernel.n_max, dp.n_max)
    n = np.arange(1, n_max + 1)
    s = n[:, None] + n[None, :]
    d = dp.values[:n_max]
    violating = (kernel.dense(n_max) / (s * (d[:, None] + d[None, :])) > delta) & (s <= n_max)
    if not violating.any():
        return CheckResult(True, k0=1)
    worst_s = int(s[violating].max())
    if worst_s >= n_max:
        i, j = np.argwhere(violating)[0]
        return CheckResult(False, witness=(int(i + 1), int(j + 1)))
    return CheckResult(True, k0=worst_s)
