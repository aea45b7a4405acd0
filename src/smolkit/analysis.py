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

Every function here judges finished runs; none builds, runs or forks one.
The refinement runs come from the CLI's ladder (``smolkit.cli``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .field import MassField, initial_data_functionals, moment_weights
from .integrator import RunRecord
from .integrator import homogeneous_run  # noqa: F401 (no caller; perfbench/spans.py patches analysis.homogeneous_run)
from .kernels import CheckResult, DiffusionProfile, check_assumption_1_1

__all__ = [
    "BoundReport",
    "GelVerdict",
    "HypothesisError",
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


def _sup_weighted_cell_moment(record: RunRecord, exponent: float) -> float:
    if record.fields is None:
        raise ValueError("record was not run with record_fields=True")
    w = moment_weights(exponent, record.n_max)
    return max(float((w @ f).max()) for f in record.fields)


def check_gronwall(
    f_record: RunRecord,
    g_record: RunRecord,
    c0: float,
    A: float | None = None,
    tolerance: float = 1e-12,
) -> BoundReport:
    """Stability envelope for the weighted L1 distance of two runs.

    With a kernel dominated by c0*n*m and both runs' per-cell second moment
    bounded by A, the distance X(t) = sum_n n * ||f_n - g_n||_L1 must stay
    below exp(4*c0*A*t) * X(0).  ``A`` defaults to the observed sup; an
    explicit A below the observed sup is a hypothesis violation and raises.
    """
    if f_record.fields is None or g_record.fields is None:
        raise ValueError("both records need record_fields=True")
    if len(f_record.times) != len(g_record.times) or not np.allclose(f_record.times, g_record.times):
        raise ValueError("records must share stride times")
    kernel = f_record.kernel
    nmax = f_record.n_max
    idx = moment_weights(1.0, nmax)
    if np.any(kernel.dense(nmax) > c0 * np.outer(idx, idx) * (1 + 1e-12)):
        raise HypothesisError(f"kernel exceeds c0*n*m for c0={c0:g}; the stability envelope does not apply")
    a_obs = max(_sup_weighted_cell_moment(f_record, 2.0), _sup_weighted_cell_moment(g_record, 2.0))
    if A is None:
        A = a_obs
    elif A < a_obs * (1 - 1e-12):
        raise HypothesisError(
            f"supplied second-moment bound A={A:g} is below the observed sup {a_obs:g}; "
            "the stability envelope hypothesis fails"
        )
    vol = f_record.grid.cell_volume
    x0 = float((idx @ np.abs(f_record.fields[0] - g_record.fields[0])).sum()) * vol
    worst = 0.0
    where = None
    for i, t in enumerate(f_record.times):
        xt = float((idx @ np.abs(f_record.fields[i] - g_record.fields[i])).sum()) * vol
        if x0 == 0.0:
            ratio = 0.0 if xt == 0.0 else math.inf
        else:
            ratio = xt / (math.exp(4.0 * c0 * A * t) * x0)
        if ratio > worst:
            worst = ratio
            where = (t,)
    return BoundReport(
        name="gronwall_stability",
        max_violation=worst,
        tolerance=1.0 + tolerance,
        location=where,
        detail=f"A={A:g}, c0={c0:g}, X(0)={x0:g}",
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
    dp: DiffusionProfile | None = None,
    delta: float = 0.25,
    tolerance: float = 0.05,
) -> BoundReport:
    """Refinement plateau of sup_t integral(X_a) and the pair dissipation integrals.

    ``records`` must come from the same scenario at increasing sectional
    ranges (e.g. N, 2N, 4N).  The boundedness claim is certified by the
    quantities changing by less than ``tolerance`` between successive
    refinements.  The admissibility certificate for the kernel is attached
    as detail; when it fails, no plateau is promised and the report is
    informative only.
    """
    if len(records) < 2:
        raise ValueError("need at least two refinements")
    records = sorted(records, key=lambda r: r.n_max)
    cert: CheckResult | None = None
    if dp is not None:
        cert = check_assumption_1_1(records[0].kernel, dp, delta, records[0].n_max)
    functionals = None
    if records[0].fields and records[0].grid.dim:
        grid = records[0].grid
        F0 = MassField(grid, records[0].fields[0].reshape((records[0].n_max,) + grid.shape), validate=False)
        functionals = initial_data_functionals(F0, a)
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
    if cert is not None:
        detail += f"; admissibility: {'ok' if cert.passed else 'NOT met (informative only)'}"
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

