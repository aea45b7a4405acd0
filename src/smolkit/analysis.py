"""Monitors that turn the solver's guaranteed inequalities into pass/fail checks.

Each monitor evaluates a quantified claim about a finished run (or a family
of runs over sectional refinements) and returns a :class:`BoundReport` with
the worst observed violation and its location.  Claims whose constants are
explicit (the d(1)^(dim/2) heat-majorant domination, the exp(4*c0*A*t)
stability envelope) are gated exactly; claims that are qualitative
boundedness statements are checked as refinement plateaus, never against a
single truncation, since any truncated system can mimic a bound.

Gelation verdicts follow the same philosophy: mass conservation of the
untruncated system is a limit statement, so the verdict is read off the
trend of the gel reservoir G(T) under doubling of the sectional range.

Every function here judges finished runs, except :func:`scope`, which
evaluates the paper's hypotheses once per spatial scenario, before its
runs; none builds, runs or forks one.  The refinement runs come from the
CLI's ladder (``smolkit.cli``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .field import MassField, initial_data_functionals, moment_weights
from .integrator import RunRecord
from .integrator import homogeneous_run  # noqa: F401 (no caller; perfbench/spans.py patches analysis.homogeneous_run)
from .kernels import CheckResult, DiffusionProfile, Kernel, check_assumption_1_1

__all__ = [
    "BoundReport",
    "GelVerdict",
    "HypothesisError",
    "Scope",
    "scope",
    "linf_moment_exponent",
    "majorant_ratios",
    "check_heat_majorant",
    "check_gronwall",
    "check_moment_bound",
    "conservation_drift",
    "check_conservation",
    "collision_budget",
    "gelation_scan",
]

log = logging.getLogger(__name__)

# Cells where the majorant is this far below its peak are treated as
# numerically empty: the domination ratio there is 0/0 at working precision.
MAJORANT_FLOOR = 1e-9

# Gelation verdict thresholds: a gel reservoir below GEL_FLOOR times the
# initial mass counts as empty; a refinement that scales G(T) by at most
# CONSERVING_FACTOR is a conserving trend; successive G(T) within
# GELLING_TOLERANCE relative is a converged, gelling trend.
GEL_FLOOR = 1e-12
CONSERVING_FACTOR = 0.5
GELLING_TOLERANCE = 0.10

# Relative-propensity threshold of the (A1) certificate in :func:`scope`.
A1_DELTA = 0.25


class HypothesisError(ValueError):
    """A monitor's hypothesis is not satisfied by the supplied data."""


@dataclass
class BoundReport:
    """Outcome of one bound check."""

    name: str
    max_violation: float
    tolerance: float
    location: tuple | None = None
    detail: str = ""

    def __post_init__(self):
        if self.max_violation < 0:
            raise ValueError("violation must be >= 0")

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        loc = f" at {self.location}" if self.location is not None else ""
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name}: max violation {self.max_violation:.3e} (tol {self.tolerance:.1e}){loc}{extra}"


@dataclass
class GelVerdict:
    """Refinement trend of the gel reservoir and the resulting verdict."""

    n_values: list[int]
    mass_ratios: list[float]
    gel_values: list[float]
    verdict: str

    def __str__(self) -> str:
        rows = ", ".join(
            f"N={n}: I(T)/I(0)={r:.6f}, G(T)={g:.6g}"
            for n, r, g in zip(self.n_values, self.mass_ratios, self.gel_values)
        )
        return f"{self.verdict.upper()} [{rows}]"


def linf_moment_exponent(a: float, b1: float, b2: float, dim: int) -> float:
    """Largest weight e such that sup-norm moments of order e stay summable.

    Given L^1 control of the a-th moment and a diffusivity bracketed by
    power laws n^(-b1) <= d(n) <= n^(-b2) (up to constants), the bound on
    sum_n n^e ||f_n||_inf holds for every e up to this threshold.  The two
    branches meet continuously at b1*dim = 2, and the value grows linearly
    in a with slope 2/(dim+2).
    """
    if not 0 <= b2 <= b1:
        raise ValueError("requires 0 <= b2 <= b1")
    if a < 0:
        raise ValueError("requires a >= 0")
    base = (2.0 * a + b2 * dim - 2.0) / (dim + 2.0)
    if b1 * dim > 2.0:
        return base - b1 * (dim + 1.0)
    return base - 0.5 * b1 * dim - b1 - 1.0


@dataclass(frozen=True)
class Scope:
    """The paper's hypotheses for one spatial scenario, on masses 1..n_max.

    (A1) is ``a1``, the certificate of :func:`~smolkit.kernels.check_assumption_1_1`
    at ``A1_DELTA``.  (A2) holds when ``increasing_at``, the first n with
    d(n+1) > d(n), is None; ``b1 >= b2`` are the tightest exponents with
    m^(-b1) <= d(m)/d(1) <= m^(-b2) on 2..n_max.  (A3) holds when the initial
    integral and sup over cells of X_a are finite.  ``c0 = max alpha(n,m)/(n*m)``
    is the Gronwall growth constant, the one the gronwall envelope uses; the
    other parts are informative and decide no exit code.
    """

    n_max: int
    dim: int
    a: float
    a1: CheckResult
    increasing_at: int | None
    b1: float
    b2: float
    integral_xa: float
    sup_xa: float
    c0: float

    @property
    def a3(self) -> bool:
        return math.isfinite(self.integral_xa) and math.isfinite(self.sup_xa)

    @property
    def linf_exponent(self) -> float | None:
        """:func:`linf_moment_exponent` at (a, b1, b2, dim); None outside (A2)."""
        return None if self.increasing_at is not None else linf_moment_exponent(self.a, self.b1, self.b2, self.dim)

    def __str__(self) -> str:
        a1 = f"ok (delta={A1_DELTA:g}, k0={self.a1.k0})"
        if not self.a1.passed:
            a1 = f"NOT met (delta={A1_DELTA:g}, witness {self.a1.witness})"
        a2 = "ok (d non-increasing"
        if self.increasing_at is not None:
            a2 = f"NOT met (d(n+1) > d(n) first at n={self.increasing_at}"
        linf = "n/a" if self.increasing_at is not None else f"{self.linf_exponent:.6g}"
        return (
            f"scope: N={self.n_max}, dim={self.dim}; A1 {a1}; A2 {a2};"
            f" m^(-b1) <= d(m)/d(1) <= m^(-b2) on 2..{self.n_max} with b1={self.b1:.6g}, b2={self.b2:.6g});"
            f" A3 {'ok' if self.a3 else 'NOT met'} (initial integral"
            f" X_{self.a:g}={self.integral_xa:.6g}, sup X_{self.a:g}={self.sup_xa:.6g}); c0={self.c0:.6g};"
            f" linf_moment_exponent={linf}"
        )


def scope(kernel: Kernel, dp: DiffusionProfile, field0: MassField, a: float) -> Scope:
    """Evaluate the paper's hypotheses once, on the masses 1..N of ``field0``.

    ``kernel`` and ``dp`` must cover 1..N, N >= 2; ``a`` is the moment
    exponent whose initial data (A3) and sup-norm threshold are reported.
    This is the one place a kernel is swept against a hypothesis.
    """
    n_max = field0.n_max
    if n_max < 2:
        raise ValueError("scope needs at least the masses 1..2")
    d, n = dp.values[:n_max], np.arange(1, n_max + 1, dtype=float)
    inc = np.flatnonzero(np.diff(d) > 0)
    e = np.log(d[0] / d[1:]) / np.log(n[1:])  # d(m)/d(1) = m^(-e(m)): the bracket is the range of e
    with np.errstate(over="ignore"):
        xa = moment_weights(a, n_max) @ field0.flat()
        integral_xa = float(xa.sum()) * field0.grid.cell_volume
    a1 = check_assumption_1_1(kernel, dp, A1_DELTA, n_max)
    c0 = float((kernel.dense(n_max) / np.outer(n, n)).max())
    increasing_at = int(inc[0]) + 1 if inc.size else None
    return Scope(
        n_max, field0.grid.dim, a, a1, increasing_at, float(e.max()), float(e.min()), integral_xa, float(xa.max()), c0
    )


def majorant_ratios(record: RunRecord, dp: DiffusionProfile) -> np.ndarray:
    """Domination ratio ``sum_n n d(n)^(dim/2) f_n / (d(1)^(dim/2) u)``, (strides, cells).

    Cells where the majorant is below MAJORANT_FLOOR of its peak at that
    stride read 0.
    """
    if not dp.non_increasing:
        raise HypothesisError("heat-majorant domination requires a non-increasing diffusion profile")
    if record.weighted_mass_moment is None or record.majorant is None:
        raise ValueError("record was not run with track_majorant=True")
    xhat = np.asarray(record.weighted_mass_moment)
    denom = dp.value(1) ** (record.grid.dim / 2.0) * np.asarray(record.majorant)
    live = denom > MAJORANT_FLOOR * denom.max(axis=1, keepdims=True)
    return np.divide(xhat, denom, out=np.zeros_like(xhat), where=live)


def check_heat_majorant(record: RunRecord, dp: DiffusionProfile, tolerance: float = 1e-6) -> BoundReport:
    """Domination of the weighted mass moment by its heat majorant.

    Checks, at every stride and grid point, that
    ``sum_n n d(n)^(dim/2) f_n(x,t) <= d(1)^(dim/2) u(x,t)`` where u is the
    heat evolution of the initial mass density at rate d(1).  Requires a
    non-increasing profile; cells where the majorant is numerically zero
    are skipped (see :func:`majorant_ratios`), since the ratio there is
    noise over noise.
    """
    ratios = majorant_ratios(record, dp)
    k, cell = np.unravel_index(ratios.argmax(), ratios.shape)
    worst = max(float(ratios[k, cell] - 1.0), 0.0)
    return BoundReport(
        name="heat_majorant_domination",
        max_violation=worst,
        tolerance=tolerance,
        location=(record.times[k], int(cell)) if worst > 0 else None,
    )


def check_gronwall(
    f_record: RunRecord,
    f_fields: list[np.ndarray],
    g_record: RunRecord,
    g_fields: list[np.ndarray],
    scope: Scope,
    A: float | None = None,
    tolerance: float = 1e-12,
) -> BoundReport:
    """Stability envelope for the weighted L1 distance of two runs of one scenario.

    The kernel is dominated by c0*n*m with ``scope.c0``, the scenario's
    growth constant.  With both runs' per-cell second moment bounded by A,
    the distance X(t) = sum_n n * ||f_n - g_n||_L1 must stay below
    exp(4*c0*A*t) * X(0); the detail prints that factor at the last stride.
    ``A`` defaults to the observed sup; an explicit A below the observed sup
    is a hypothesis violation and raises.  ``f_fields`` and ``g_fields`` are
    the runs' states per stride, as ``run`` hands them to ``on_stride``.
    """
    if len(f_fields) != len(f_record.times) or len(g_fields) != len(g_record.times):
        raise ValueError("each run needs one field per stride")
    if len(f_record.times) != len(g_record.times) or not np.allclose(f_record.times, g_record.times):
        raise ValueError("records must share stride times")
    nmax = f_record.n_max
    if scope.n_max < nmax:
        raise HypothesisError(f"c0 covers the masses 1..{scope.n_max}, fewer than the runs' {nmax}")
    c0 = scope.c0
    idx, second = moment_weights(1.0, nmax), moment_weights(2.0, nmax)
    a_obs = max(float((second @ f).max()) for f in (*f_fields, *g_fields))
    if A is None:
        A = a_obs
    elif A < a_obs * (1 - 1e-12):
        raise HypothesisError(
            f"supplied second-moment bound A={A:g} is below the observed sup {a_obs:g}; "
            "the stability envelope hypothesis fails"
        )
    vol = f_record.grid.cell_volume
    x0 = float((idx @ np.abs(f_fields[0] - g_fields[0])).sum()) * vol
    worst = 0.0
    where = None
    for i, t in enumerate(f_record.times):
        xt = float((idx @ np.abs(f_fields[i] - g_fields[i])).sum()) * vol
        if x0 == 0.0:
            ratio = 0.0 if xt == 0.0 else math.inf
        else:
            ratio = xt / x0 * math.exp(-4.0 * c0 * A * t)  # underflows to 0, never overflows
        if ratio > worst:
            worst = ratio
            where = (t,)
    return BoundReport(
        name="gronwall_stability",
        max_violation=worst,
        tolerance=1.0 + tolerance,
        location=where,
        detail=f"A={A:g}, c0={c0:g}, X(0)={x0:g}, envelope exp(4*c0*A*T)=e^{4.0 * c0 * A * f_record.times[-1]:.4g}",
    )


def conservation_drift(record: RunRecord) -> np.ndarray:
    """Per-stride relative drift |M(t) - M(0)| / |M(0)| of the conserved mass.

    M is I(t) for cutoff runs and I(t) + G(t) for gel-reservoir runs; a
    zero M(0) reads the absolute drift.
    """
    total = record.mass_with_gel if record.policy.kind == "gel_reservoir" else np.asarray(record.mass)
    ref = total[0] if total[0] else 1.0
    return np.abs(total - total[0]) / abs(ref)


def check_conservation(record: RunRecord, tolerance: float = 1e-10) -> BoundReport:
    """Relative drift of conserved mass over the run.

    Cutoff runs must conserve I(t) exactly (the truncated budget balances
    pairwise); gel-reservoir runs must conserve I(t) + G(t).
    """
    drift = conservation_drift(record)
    i = int(drift.argmax())
    worst = float(drift[i])
    name = "mass_conservation" if record.policy.kind == "cutoff" else "mass_plus_gel_conservation"
    return BoundReport(
        name=name,
        max_violation=worst,
        tolerance=tolerance,
        location=(record.times[i],),
    )


def check_moment_bound(
    records: list[RunRecord],
    a: float,
    scope: Scope,
    field0: MassField,
    tolerance: float = 0.05,
) -> BoundReport:
    """Refinement plateau of sup_t integral(X_a) and the pair dissipation integrals.

    ``records`` must come from the same scenario at increasing sectional
    ranges (e.g. N, 2N, 4N); ``scope`` and ``field0`` are the smallest
    range's hypotheses and initial field.  The boundedness claim is
    certified by the quantities changing by less than ``tolerance`` between
    successive refinements.  The scope's (A1) certificate and the initial
    data's functionals are attached as detail; when the certificate fails,
    no plateau is promised and the report is informative only.
    """
    if len(records) < 2:
        raise ValueError("need at least two refinements")
    records = sorted(records, key=lambda r: r.n_max)
    functionals = initial_data_functionals(field0, a) if field0.grid.dim else None
    sup_xa = []
    int_pair = []
    int_pair_w = []
    for rec in records:
        if a not in rec.moments:
            raise ValueError(f"record lacks the a={a} moment series")
        sup_xa.append(max(rec.moments[a]))
        if (a - 1) in rec.pair_moments:
            int_pair.append(rec.pair_moment_time_integral(a - 1, weighted=False))
        if (a - 1) in rec.pair_moments_weighted:
            int_pair_w.append(rec.pair_moment_time_integral(a - 1, weighted=True))

    def rel_changes(vals: list[float]) -> list[float]:
        return [abs(v2 - v1) / max(abs(v1), 1e-300) for v1, v2 in zip(vals, vals[1:])]

    changes = rel_changes(sup_xa) + rel_changes(int_pair) + rel_changes(int_pair_w)
    worst = max(changes) if changes else 0.0
    detail = f"sup integral X_{a:g} = {sup_xa}"
    if int_pair:
        detail += f"; pair dissipation integral = {int_pair}"
    if int_pair_w:
        detail += f"; kernel-weighted pair integral = {int_pair_w}"
    detail += f"; admissibility: {'ok' if scope.a1.passed else 'NOT met (informative only)'}"
    if functionals is not None:
        a1, a2, a3 = functionals
        detail += f"; initial functionals A1={a1:.4g}, A2={a2:.4g}, A3={a3:.4g}"
    return BoundReport(
        name=f"moment_plateau_a{a:g}",
        max_violation=worst,
        tolerance=tolerance,
        detail=detail,
    )


def gelation_scan(records: list[RunRecord]) -> GelVerdict:
    """Diagnose the conservation/gelation dichotomy by sectional refinement.

    ``records`` are gel-reservoir runs of one scenario at increasing ranges
    (the CLI's gelscan ladder).  The trend of G(T) is classified as

    * ``conserving`` if each refinement at least halves G(T) (or G is below
      ``GEL_FLOOR`` times the initial mass outright);
    * ``gelling`` if G(T) converges to a positive limit (successive change
      below ``GELLING_TOLERANCE`` relative);
    * ``inconclusive`` otherwise.

    A single truncation can always fake conservation, hence the refinement
    trend.  Cutoff runs are structurally conserving and carry no gelation
    information, so they are rejected.
    """
    n_values = [rec.n_max for rec in records]
    if sorted(n_values) != n_values or len(records) < 2:
        raise ValueError("gelation_scan needs runs at two or more increasing ranges")
    if any(rec.policy.kind != "gel_reservoir" for rec in records):
        raise ValueError("gelation_scan needs gel-reservoir runs; a cutoff run conserves mass by construction")
    gels = [rec.gel[-1] for rec in records]
    ratios = [rec.mass[-1] / rec.mass[0] if rec.mass[0] else 1.0 for rec in records]
    for n_max, r, g in zip(n_values, ratios, gels):
        log.info("gelation scan N=%d: I(T)/I(0)=%.6f, G(T)=%.6g", n_max, r, g)
    floor = GEL_FLOOR * abs(records[-1].mass[0] or 1.0)
    conserving = all(
        g2 <= CONSERVING_FACTOR * g1 or g2 <= floor for g1, g2 in zip(gels, gels[1:])
    )
    gelling = gels[-1] > 1e3 * floor and all(
        abs(g2 - g1) <= GELLING_TOLERANCE * abs(g2) for g1, g2 in zip(gels, gels[1:])
    )
    if conserving:
        verdict = "conserving"
    elif gelling:
        verdict = "gelling"
    else:
        verdict = "inconclusive"
    return GelVerdict(n_values, ratios, gels, verdict)


def collision_budget(record: RunRecord) -> BoundReport:
    """Cumulative collision count versus the initial mass.

    Every in-range reaction removes exactly one particle, so the
    time-integrated collision rate equals N(0) - N(T), and since each
    particle carries at least unit mass it can never exceed I(0).  Checked
    from the recorded number and mass series; a violation means the
    number-depletion bookkeeping is broken.
    """
    if 0.0 not in record.moments:
        raise ValueError("record lacks the a=0 moment series")
    number = np.asarray(record.moments[0.0])
    collisions = float(number[0] - number[-1])
    budget = record.mass[0]
    violation = max(collisions - budget, 0.0) / max(budget, 1e-300)
    return BoundReport(
        name="collision_budget",
        max_violation=violation,
        tolerance=1e-12,
        detail=f"collisions {collisions:.6g} vs initial mass {budget:.6g}",
    )

