"""Coagulation kernels, diffusion profiles, and admissibility certificates.

A kernel ``alpha(n, m)`` is the symmetric, nonnegative rate coefficient at
which clusters of integer masses ``n`` and ``m`` merge.  A diffusion profile
``d(n)`` is the diffusivity of a mass-``n`` cluster (length^2/time),
physically non-increasing in ``n``.  The ``check_assumption_*`` functions
certify, by exhaustive sweep over ``1..n_max``, the admissibility conditions
that the moment-bound and conservation monitors in :mod:`smolkit.analysis`
rely on.  The certificates are finite-range: a pass means "verified up to
n_max", never a symbolic proof.
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
    "check_assumption_1_2",
    "check_assumption_1_3",
]

# Dense tables are precomputed up to this many species; beyond it the kernel
# closure is evaluated on demand.
TABLE_LIMIT = 1024


class KernelRangeError(IndexError):
    """Mass index outside 1..n_max."""


def _check_mass_index(n: int, n_max: int) -> None:
    if not 1 <= n <= n_max:
        raise KernelRangeError(f"mass index {n} outside 1..{n_max}")


@dataclass(frozen=True)
class Kernel:
    """Symmetric coagulation rate table/closure with growth metadata.

    Instances are immutable after construction and safe for concurrent
    reads.  Use the class-method constructors.  Construction without a
    ``table`` tabulates the formula over masses 1..n_max whenever
    ``n_max <= TABLE_LIMIT``.
    """

    kind: str
    params: dict
    n_max: int
    table: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.table is None:
            object.__setattr__(self, "table", self._tabulate())

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
    def from_function(cls, fn, n_max: int) -> "Kernel":
        """Tabulate a symmetric closure ``fn(n, m)`` over 1..n_max.

        The kernel's kind is ``"custom"``.  The closure is kept for
        evaluations beyond the table range.  Rates are checked finite,
        nonnegative and symmetric on the leading ``min(n_max, TABLE_LIMIT)``
        block, tabulated or not.
        """
        k = cls(kind="custom", params={"fn": fn}, n_max=int(n_max))
        block = k.dense(min(k.n_max, TABLE_LIMIT))
        _require_rates(block)
        _require_symmetric(block)
        return k

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
        _require_rates(arr)
        arr.flags.writeable = False
        return cls(kind="table", params={}, n_max=int(n_max), table=arr)

    @classmethod
    def from_csv(cls, path, n_max: int) -> "Kernel":
        """Load a custom table from CSV with header ``n,m,alpha``.

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

    def _closure(self, n, m):
        """Evaluate the kernel formula; vectorizes over numpy inputs."""
        p = self.params
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(np.shape(n), np.shape(m)), p["c"])
        if self.kind == "sum":
            return p["c0"] * (np.asarray(n, dtype=float) + np.asarray(m, dtype=float))
        if self.kind == "product":
            return (np.asarray(n, dtype=float) * np.asarray(m, dtype=float)) ** p["a"]
        if self.kind == "two_exponent":
            nf = np.asarray(n, dtype=float)
            mf = np.asarray(m, dtype=float)
            return nf ** p["a"] * mf ** p["b"] + nf ** p["b"] * mf ** p["a"]
        if self.kind == "range_derived":
            nf = np.asarray(n, dtype=float)
            mf = np.asarray(m, dtype=float)
            d = p["diffusion"]
            r = p["range"]
            return p["c"] * (d.value(n) + d.value(m)) * (r.value(nf) + r.value(mf)) ** (p["dim"] - 2)
        if "fn" in p:
            fn = p["fn"]
            if np.ndim(n) or np.ndim(m):
                return np.vectorize(fn, otypes=[float])(n, m)
            return fn(n, m)
        raise ValueError(f"kernel kind {self.kind!r} has no closure; use the table")

    def _tabulate(self) -> np.ndarray | None:
        if self.n_max > TABLE_LIMIT:
            return None
        idx = np.arange(1, self.n_max + 1)
        table = np.asarray(self._closure(idx[:, None], idx[None, :]), dtype=float)
        _require_rates(table)
        table.flags.writeable = False
        return table

    def eval(self, n: int, m: int) -> float:
        """Rate for the pair (n, m); range-checked against 1..n_max."""
        _check_mass_index(n, self.n_max)
        _check_mass_index(m, self.n_max)
        if self.table is not None:
            return float(self.table[n - 1, m - 1])
        return float(self._closure(n, m))

    def dense(self, n_max: int | None = None) -> np.ndarray:
        """Dense (n_max, n_max) rate table, computed on demand if needed."""
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested table size {n_max} exceeds kernel n_max {self.n_max}")
        if self.table is not None:
            return self.table[:n_max, :n_max]
        idx = np.arange(1, n_max + 1)
        return np.asarray(self._closure(idx[:, None], idx[None, :]), dtype=float)

    def factors(self, n_max: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """Closed-form separable form of the kernel over masses 1..n_max.

        Returns ``(A, B)`` of shape (R, n_max) with
        ``alpha(n, m) = sum_r A[r, n-1] * B[r, m-1]``: rank 1 for constant
        and product, 2 for sum and two_exponent, 2*(dim-1) for
        range_derived.  All factors are nonnegative, so the sum has no
        cancellation.  Tables and custom closures have no known factors
        and return None.  Constant and sum kernels are moreover functions
        of n+m alone (see :meth:`of_total_mass`), which lets the gain of
        the rank-2 sum kernel be taken as a rank-1 product.
        """
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested factors for {n_max} masses exceed kernel n_max {self.n_max}")
        p = self.params
        n = np.arange(1, n_max + 1, dtype=float)
        one = np.ones(n_max)
        if self.kind == "constant":
            w = math.sqrt(p["c"]) * one
            return w[None], w[None]
        if self.kind == "sum":
            w = p["c0"] * n
            return np.stack([w, one]), np.stack([one, w])
        if self.kind == "product":
            w = n ** p["a"]
            return w[None], w[None]
        if self.kind == "two_exponent":
            na, nb = n ** p["a"], n ** p["b"]
            return np.stack([na, nb]), np.stack([nb, na])
        if self.kind == "range_derived":
            # (d_n + d_m)(r_n + r_m)^q with q = dim-2, expanded binomially:
            # each term C(q,k) d_n r_n^k r_m^(q-k) comes with its transpose.
            q = p["dim"] - 2
            d = p["diffusion"].value(n.astype(np.int64))
            r = p["range"].value(n)
            A, B = [], []
            for k in range(q + 1):
                left, right = p["c"] * math.comb(q, k) * d * r**k, r ** (q - k)
                A += [left, right]
                B += [right, left]
            return np.stack(A), np.stack(B)
        return None

    def of_total_mass(self, n_max: int | None = None) -> np.ndarray | None:
        """``phi`` of shape (n_max,) with alpha(n, m) = phi[n+m-1] for n+m <= n_max.

        Defined for the families that depend on n+m alone: constant
        (phi = c) and sum (phi(s) = c0 * s).  Other kinds return None.
        """
        n_max = n_max or self.n_max
        if n_max > self.n_max:
            raise KernelRangeError(f"requested {n_max} total masses exceed kernel n_max {self.n_max}")
        if self.kind == "constant":
            return np.full(n_max, self.params["c"])
        if self.kind == "sum":
            return self.params["c0"] * np.arange(1, n_max + 1, dtype=float)
        return None

    def rate_row(self, m: int) -> np.ndarray:
        """Rates alpha(1..n_max, m) for a possibly out-of-range tracer mass m.

        Pure tables clamp m to n_max (the tracer can outgrow the sectional
        range after repeated mergers); closures evaluate exactly.
        """
        if m < 1:
            raise KernelRangeError(f"mass index {m} < 1")
        if m <= self.n_max and self.table is not None:
            return self.table[:, m - 1]
        if self.kind == "table":
            return self.table[:, self.n_max - 1]
        idx = np.arange(1, self.n_max + 1)
        return np.asarray(self._closure(idx, m), dtype=float)


def _require_rates(table: np.ndarray) -> None:
    if np.any(table < 0) or not np.all(np.isfinite(table)):
        raise ValueError("kernel rates must be finite and >= 0")


def _require_symmetric(table: np.ndarray, rtol: float = 1e-12) -> None:
    if not np.allclose(table, table.T, rtol=rtol, atol=0.0):
        n, m = np.argwhere(~np.isclose(table, table.T, rtol=rtol, atol=0.0))[0] + 1
        raise ValueError(f"kernel table is asymmetric at pair ({n},{m}); refusing to symmetrize")


@dataclass(frozen=True)
class DiffusionProfile:
    """Per-mass diffusivities d(1..n_max), tagged with monotonicity.

    ``values[i]`` holds d(i+1).  All entries must be positive.
    """

    kind: str
    values: np.ndarray = field(repr=False)
    non_increasing: bool

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("diffusion profile needs a 1-D value table")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("diffusion rates must be finite and > 0")
        if self.non_increasing and np.any(np.diff(arr) > 0):
            n = int(np.argwhere(np.diff(arr) > 0)[0][0]) + 1
            raise ValueError(f"profile tagged non-increasing but d({n + 1}) > d({n})")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_max(self) -> int:
        return self.values.size

    @classmethod
    def constant(cls, value: float, n_max: int) -> "DiffusionProfile":
        return cls("constant", np.full(n_max, float(value)), non_increasing=True)

    @classmethod
    def power_law(cls, r2: float, b2: float, n_max: int) -> "DiffusionProfile":
        """d(n) = r2 * n^(-b2), sampled on 1..n_max."""
        n = np.arange(1, n_max + 1, dtype=float)
        return cls("power_law", r2 * n ** (-b2), non_increasing=b2 >= 0)

    @classmethod
    def bracketed_power(cls, r1: float, b1: float, r2: float, b2: float, n_max: int) -> "DiffusionProfile":
        """Geometric-mean power law between r1*n^(-b1) and r2*n^(-b2).

        d(n) = sqrt(r1*r2) * n^(-(b1+b2)/2) sits inside the bracket for all
        n >= 1 whenever r1 <= r2 and b2 <= b1.
        """
        if not (0 <= b2 <= b1):
            raise ValueError("bracketed power requires 0 <= b2 <= b1")
        if not (0 < r1 <= r2):
            raise ValueError("bracketed power requires 0 < r1 <= r2")
        n = np.arange(1, n_max + 1, dtype=float)
        vals = math.sqrt(r1 * r2) * n ** (-(b1 + b2) / 2.0)
        return cls("bracketed_power", vals, non_increasing=True)

    @classmethod
    def from_table(cls, values, non_increasing: bool | None = None) -> "DiffusionProfile":
        arr = np.asarray(values, dtype=float)
        if non_increasing is None:
            non_increasing = bool(np.all(np.diff(arr) <= 0))
        return cls("table", arr, non_increasing=non_increasing)

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
    """Outcome of a finite-range admissibility certificate.

    ``k0`` is populated by the vanishing-relative-propensity check; a
    failed check carries the first violating witness instead.  ``detail``
    records range-limited caveats ("certified up to n_max").
    """

    passed: bool
    n_max: int
    k0: int | None = None
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _pair_ratio_table(kernel: Kernel, dp: DiffusionProfile, n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=float)
    dsum = dp.values[:n_max, None] + dp.values[None, :n_max]
    return kernel.dense(n_max) / ((n[:, None] + n[None, :]) * dsum)


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
    ratio = _pair_ratio_table(kernel, dp, n_max)
    n = np.arange(1, n_max + 1)
    s = n[:, None] + n[None, :]
    violating = (ratio > delta) & (s <= n_max)
    if not violating.any():
        return CheckResult(True, n_max, k0=1, detail=f"certified up to n_max={n_max}; max d = {dp.values[:n_max].max():g}")
    worst_s = int(s[violating].max())
    if worst_s >= n_max:
        i, j = np.argwhere(violating)[0]
        return CheckResult(False, n_max, witness=(int(i + 1), int(j + 1)),
                           detail="violations persist at the top of the certified range")
    return CheckResult(True, n_max, k0=worst_s,
                       detail=f"certified up to n_max={n_max}; max d = {dp.values[:n_max].max():g}")


def check_assumption_1_2(
    kernel: Kernel,
    dp: DiffusionProfile,
    c0: float,
    r1: float,
    b1: float,
    r2: float,
    b2: float,
    n_max: int | None = None,
) -> CheckResult:
    """Certify assumption (A2): non-increasing d, linear kernel growth,
    and the power-law bracket r1*n^(-b1) <= d(n) <= r2*n^(-b2).
    """
    if not (0 <= b2 <= b1):
        raise ValueError("requires 0 <= b2 <= b1")
    if r1 <= 0 or r2 <= 0:
        raise ValueError("requires r1, r2 > 0")
    n_max = n_max or min(kernel.n_max, dp.n_max)
    d = dp.values[:n_max]
    inc = np.argwhere(np.diff(d) > 0)
    if inc.size:
        n_bad = int(inc[0][0]) + 1
        return CheckResult(False, n_max, witness=("monotonicity", n_bad))
    nf = np.arange(1, n_max + 1, dtype=float)
    lo, hi = r1 * nf ** (-b1), r2 * nf ** (-b2)
    bad = np.argwhere((d < lo) | (d > hi))
    if bad.size:
        n_bad = int(bad[0][0]) + 1
        return CheckResult(False, n_max, witness=("bracket", n_bad))
    res = _check_linear_growth(kernel, c0, n_max)
    if res is not None:
        return CheckResult(False, n_max, witness=("growth",) + res)
    return CheckResult(True, n_max, detail=f"certified up to n_max={n_max}")


def check_assumption_1_3(
    kernel: Kernel, dp: DiffusionProfile, c0: float, n_max: int | None = None
) -> CheckResult:
    """Certify assumption (A3): d uniformly positive and non-increasing,
    alpha(n,m) <= c0*(n+m).

    Positivity over a finite range is automatic for any valid profile; the
    detail string flags that the certificate is range-limited.
    """
    n_max = n_max or min(kernel.n_max, dp.n_max)
    d = dp.values[:n_max]
    inc = np.argwhere(np.diff(d) > 0)
    if inc.size:
        return CheckResult(False, n_max, witness=("monotonicity", int(inc[0][0]) + 1))
    res = _check_linear_growth(kernel, c0, n_max)
    if res is not None:
        return CheckResult(False, n_max, witness=("growth",) + res)
    return CheckResult(
        True, n_max,
        detail=f"min d = {d.min():g} over 1..{n_max}; positivity certified on this range only",
    )


def _check_linear_growth(kernel: Kernel, c0: float, n_max: int) -> tuple | None:
    """First pair (row-major) with alpha(n,m) > c0*(n+m), or None."""
    n = np.arange(1, n_max + 1, dtype=float)
    bad = kernel.dense(n_max) > c0 * (n[:, None] + n[None, :])
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return (int(i + 1), int(j + 1))
