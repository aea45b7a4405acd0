"""Time integration of the coupled coagulation-diffusion system.

The full system is advanced by operator splitting: exact spectral diffusion
substeps per species around an explicit RK4 reaction substep per cell
(Strang by default, Lie available).  Because diffusion is exact in time and
the reaction substep is fourth order, the observable convergence order of a
run is the splitting's.

Between recorded strides, Strang's trailing D(dt/2) of one step and the
leading D(dt/2) of the next compose into one heat step D(dt) (Strang, SIAM
J. Numer. Anal. 5 (1968) 506-517), so a run takes about one heat step per
step instead of two.  The trailing half-step is applied only where a step
ends on a recorded stride or at t_final; a run whose stride is its dt
therefore merges nothing.  Merging moves the recorded states by roundoff
only.  Each heat multiplier exp(-tau D |k|^2) is built once per distinct
duration tau in a run.

The reaction substep is kept non-stiff by a loss-dominance precondition,
``dt * max lambda_n(x) <= 0.5`` with lambda the per-species loss
coefficient; a violating step raises :class:`StepSizeError` naming the
offending species and cell, and :func:`run` can halve dt automatically.
The guard reads lambda on the field the reaction actually sees: under
Strang the field after the leading diffusion substep, under Lie the field
after the diffusion step.  RK4 stage 1 reuses that same lambda.

Mass bookkeeping is exact by construction: every RK4 stage satisfies the
per-cell budget ``sum_n n*Q_n + flux_to_gel = 0`` up to roundoff, so the
stage combination preserves I(t) (cutoff) or I(t)+G(t) (gel reservoir) to
roundoff rather than to integration order.

The space-free system dc_n/dt = Q_n(c) is the same run on the
zero-dimensional ``Grid.point()``: one cell, no spatial axes, and diffusion
reduces to the identity, so no diffusion profile is needed there.

Recording contracts moment weights and pair-moment matrices that the run
builds once, before the first step, so a bad exponent fails there; a
recorded state leaves a run only through its ``on_stride`` callback (the
CLI's snapshot writer, tracer and gronwall check).  A run is sequential in
time with fixed-order reductions; results are bit-reproducible for a fixed
config regardless of worker count.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coagulation import RateEvaluator, TruncationPolicy
from .diffusion import _multipliers, heat_step_batched
from .field import Grid, MassField, kernel_pair_weights, moment_weights, pair_weights
from .kernels import DiffusionProfile, Kernel

__all__ = [
    "RunConfig",
    "RunRecord",
    "StepSizeError",
    "run",
]

log = logging.getLogger(__name__)

STRANG = "strang"
LIE = "lie"

# Loss-dominance bound: dt * max lambda must stay below this.
STABILITY_LIMIT = 0.5
# A run gives up after this many automatic dt halvings.
MAX_HALVINGS = 16
_TIME_EPS = 1e-9


class StepSizeError(RuntimeError):
    """Reaction substep would violate the loss-dominance bound."""

    def __init__(self, dt: float, lam: float, species: int, cell: int):
        self.dt = dt
        self.lam = lam
        self.species = species
        self.cell = cell
        super().__init__(
            f"dt={dt:g} violates the loss-dominance bound: dt*lambda={dt * lam:.3g} > "
            f"{STABILITY_LIMIT} for species n={species} at cell {cell} (lambda={lam:.3g})"
        )

    def __reduce__(self):
        # Rebuilt from its fields, so that it crosses a worker process boundary.
        return StepSizeError, (self.dt, self.lam, self.species, self.cell)


@dataclass(frozen=True)
class RunConfig:
    """Integration parameters of one run."""

    t_final: float
    dt: float
    policy: TruncationPolicy
    splitting: str = STRANG
    output_stride: float | None = None
    moment_exponents: tuple[float, ...] = (0.0, 1.0, 2.0)
    pair_moment_exponents: tuple[float, ...] = ()
    track_majorant: bool = False
    auto_halve: bool = True

    def __post_init__(self):
        # Each comparison is False for nan, so a nan passes none of them.
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.splitting not in (STRANG, LIE):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        if self.output_stride is not None and not self.output_stride > 0:
            raise ValueError(f"output_stride must be > 0, got {self.output_stride}")
        for name in ("moment_exponents", "pair_moment_exponents"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"repeated exponent in {name}: each series would be recorded twice")

    @property
    def stride(self) -> float:
        return self.output_stride if self.output_stride is not None else max(self.t_final / 20.0, self.dt)


@dataclass
class RunRecord:
    """Stride-sampled diagnostics of one run: its outputs only, never the kernel or profile it ran with.

    ``mass`` excludes the gel reservoir; ``gel`` is the reservoir itself.
    ``moments[a]``, ``pair_moments[a]`` and ``pair_moments_weighted[a]`` are
    the spatial integrals of X_a, Y_a and Yk_a per stride.  The weighted
    moment sum_n n d(n)^(dim/2) f_n and its heat majorant are stored per
    stride when requested; the fields are not (see :func:`run`).
    ``dt_series`` holds the length of the step that ended each row, the
    configured dt in row 0.
    """

    n_max: int
    grid: Grid
    policy: TruncationPolicy
    times: list[float] = dc_field(default_factory=list)
    mass: list[float] = dc_field(default_factory=list)
    gel: list[float] = dc_field(default_factory=list)
    moments: dict[float, list[float]] = dc_field(default_factory=dict)
    pair_moments: dict[float, list[float]] = dc_field(default_factory=dict)
    pair_moments_weighted: dict[float, list[float]] = dc_field(default_factory=dict)
    weighted_mass_moment: list[np.ndarray] | None = None
    majorant: list[np.ndarray] | None = None
    dt_series: list[float] = dc_field(default_factory=list)
    events: list[str] = dc_field(default_factory=list)

    @property
    def mass_with_gel(self) -> np.ndarray:
        return np.asarray(self.mass) + np.asarray(self.gel)

    def pair_moment_time_integral(self, a: float, weighted: bool = False) -> float:
        """Trapezoid time integral of the recorded pair-moment series."""
        series = (self.pair_moments_weighted if weighted else self.pair_moments)[a]
        return float(np.trapezoid(np.asarray(series), np.asarray(self.times)))


class _Engine:
    """Splitting substeps and stride recording for one run on one grid.

    The state is ``flat``, the (n_max, n_cells) view of the field.  On the
    zero-dimensional point grid (the space-free system) there is one cell,
    diffusion is the identity, and ``dp`` may be None; the unweighted pair
    moment, which needs d(n), is then not recorded.
    """

    def __init__(self, F: MassField, kernel: Kernel, dp: DiffusionProfile | None, cfg: RunConfig):
        self.cfg = cfg
        self.grid = grid = F.grid
        self.n_max = cfg.policy.n_max
        self.evaluator = RateEvaluator(kernel, cfg.policy)
        self.cell_volume = grid.cell_volume
        if F.n_max != self.n_max:
            raise ValueError("field n_max must match the truncation policy")
        if dp is None and grid.dim:
            raise ValueError("the spatial solver needs a diffusion profile")
        if dp is not None and dp.n_max < self.n_max:
            raise ValueError("diffusion profile range smaller than n_max")
        if cfg.track_majorant and (dp is None or not dp.non_increasing):
            raise ValueError("majorant tracking requires a non-increasing diffusion profile")
        self.dvals = dp.values[: self.n_max] if dp is not None else None
        # Every weight row and pair matrix of the recorded moments, built
        # once: a bad exponent fails here, before the first step.
        self.mass_row = moment_weights(1.0, self.n_max)
        self.moment_rows = {a: moment_weights(a, self.n_max) for a in cfg.moment_exponents}
        pairs = cfg.pair_moment_exponents
        self.pair_matrices = {a: pair_weights(a, dp, self.n_max) for a in pairs if dp is not None}
        self.kernel_pair_matrices = {a: kernel_pair_weights(a, kernel, self.n_max) for a in pairs}
        self.majorant_row = self.mass_row * self.dvals ** (grid.dim / 2.0) if cfg.track_majorant else None
        # The diffusivity of each row the heat step advances: the species,
        # then the majorant, which rides along at d(1).  Its multiplier is
        # built once per distinct duration.
        self._heat_rates = np.append(self.dvals, self.dvals[0]) if cfg.track_majorant else self.dvals
        self._heat_multipliers: dict[float, np.ndarray] = {}
        # Work arrays of the reaction substep: the guard's lambda, the four
        # RK4 slopes, and one buffer for the stage fields and their combination.
        shape = (self.n_max, grid.n_cells)
        self._lam, self._k1, self._k2, self._k3, self._k4, self._stage = (np.empty(shape) for _ in range(6))

    # -- substeps ------------------------------------------------------

    def react_rk4(self, flat: np.ndarray, gel: float, dt: float) -> tuple[np.ndarray, float]:
        """RK4 reaction substep; raises StepSizeError before any stage runs.

        The stages run in the engine's work arrays; only the returned field
        is new, and ``flat`` is left unchanged.
        """
        lam = self.evaluator.loss_coefficients(flat, out=self._lam)
        n, cell = np.unravel_index(lam.argmax(), lam.shape)
        if dt * lam[n, cell] > STABILITY_LIMIT:
            raise StepSizeError(dt, float(lam[n, cell]), int(n) + 1, int(cell))
        rates = self.evaluator.rates
        k1, k2, k3, k4, acc = self._k1, self._k2, self._k3, self._k4, self._stage

        def stage(h: float, k: np.ndarray) -> np.ndarray:
            """flat + h * k, as the out-of-place expression rounds it."""
            return np.add(flat, np.multiply(h, k, out=acc), out=acc)

        _, g1 = rates(flat, lam, out=k1)
        _, g2 = rates(stage(0.5 * dt, k1), out=k2)
        _, g3 = rates(stage(0.5 * dt, k2), out=k3)
        _, g4 = rates(stage(dt, k3), out=k4)
        # (dt/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right; x + y is
        # rounded the same as y + x, and doubling is exact.
        np.multiply(2.0, k2, out=acc)
        acc += k1
        acc += np.multiply(2.0, k3, out=k3)
        acc += k4
        acc *= dt / 6.0
        new = flat + acc
        gel_rate = (g1 + 2.0 * g2 + 2.0 * g3 + g4).sum() * self.cell_volume
        return new, gel + (dt / 6.0) * float(gel_rate)

    def diffuse(self, flat: np.ndarray, u: np.ndarray | None, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
        if tau == 0.0 or not self.grid.dim:
            return flat, u
        mult = self._heat_multipliers.get(tau)
        if mult is None:
            mult = self._heat_multipliers[tau] = _multipliers(self._heat_rates, tau, self.grid)
        if u is None:
            out = heat_step_batched(flat.reshape((-1,) + self.grid.shape), self._heat_rates, tau, self.grid, mult)
            return out.reshape(flat.shape), None
        # The majorant rides along as an extra row at rate d(1): it passes
        # through the same batched transform as species 1, which keeps the
        # pure-diffusion equality case exact to the last bit.
        stack = np.vstack([flat, u]).reshape((-1,) + self.grid.shape)
        out = heat_step_batched(stack, self._heat_rates, tau, self.grid, mult)
        return out[:-1].reshape(flat.shape), out[-1].reshape(-1)

    def step_once(
        self, flat: np.ndarray, gel: float, u: np.ndarray | None, dt: float, carried: float, close: bool
    ) -> tuple[np.ndarray, float, np.ndarray | None, float]:
        """One splitting step; pure, so a rejected step commits nothing.

        Under Strang the step is D(carried + dt/2) R(dt) D(dt/2), where
        ``carried`` is the trailing half-step the previous step left open:
        D(a) D(b) = D(a + b), so one heat step does the work of two.  With
        ``close`` false the trailing D(dt/2) is not applied but returned, to
        be carried into the next step; the state is then between splitting
        steps and must not be recorded.  Lie steps D(dt) R(dt) carry nothing.
        Returns the field, the reservoir, the majorant and the carried time.
        """
        if self.cfg.splitting == STRANG:
            flat, u = self.diffuse(flat, u, carried + 0.5 * dt)
            flat, gel = self.react_rk4(flat, gel, dt)
            if not close:
                return flat, gel, u, 0.5 * dt
            flat, u = self.diffuse(flat, u, 0.5 * dt)
        else:
            flat, u = self.diffuse(flat, u, dt)
            flat, gel = self.react_rk4(flat, gel, dt)
        return flat, gel, u, 0.0

    # -- recording -----------------------------------------------------

    def record(self, rec: RunRecord, t: float, flat: np.ndarray, gel: float, u: np.ndarray | None, dt: float) -> None:
        totals = flat.sum(axis=1)
        rec.times.append(t)
        rec.mass.append(float(self.mass_row @ totals) * self.cell_volume)
        rec.gel.append(gel)
        rec.dt_series.append(dt)
        for a, w in self.moment_rows.items():
            rec.moments.setdefault(a, []).append(float(w @ totals) * self.cell_volume)
        pairs = ((rec.pair_moments, self.pair_matrices), (rec.pair_moments_weighted, self.kernel_pair_matrices))
        for series, matrices in pairs:
            for a, B in matrices.items():
                y = np.einsum("nc,nc->c", flat, B @ flat)
                series.setdefault(a, []).append(float(y.sum()) * self.cell_volume)
        if u is not None:
            rec.weighted_mass_moment.append(self.majorant_row @ flat)
            rec.majorant.append(u.copy())


def run(
    F0: MassField,
    kernel: Kernel,
    dp: DiffusionProfile | None,
    cfg: RunConfig,
    on_stride: Callable[[int, float, np.ndarray, float], None] | None = None,
) -> RunRecord:
    """Iterate the splitting to t_final, sampling diagnostics at each stride.

    ``dp`` may be None only on the point grid.  ``on_stride(index, t, flat,
    gel)``, if given, is called at each recorded stride, t = 0 included,
    with the row's index in the record and the (n_max, n_cells) state, the
    only way a state leaves the run; the run never changes that array
    afterwards, so it may be kept without a copy but must not be written.

    Under Strang, a step that does not end on a recorded stride or at
    t_final leaves its trailing diffusion half-step open and the next step
    applies it together with its own leading one (see ``_Engine.step_once``).
    A rejected step leaves that half-step open too.  The recorded states are
    those of the unmerged scheme up to the roundoff of D(a) D(b) = D(a + b).
    """
    engine = _Engine(F0, kernel, dp, cfg)
    flat, gel = F0.flat().copy(), F0.gel_reservoir
    rec = RunRecord(n_max=engine.n_max, grid=F0.grid, policy=cfg.policy)
    u = None
    if cfg.track_majorant:
        u = engine.mass_row @ flat
        rec.weighted_mass_moment, rec.majorant = [], []
    dt = cfg.dt
    halvings = 0
    # t is t_dt + steps * dt, counted from the last change of dt, so that
    # no roundoff of summed steps enters the times or the last step.
    t = t_dt = 0.0
    steps = 0
    carried = 0.0

    def record(t: float, dt_taken: float) -> None:
        engine.record(rec, t, flat, gel, u, dt_taken)
        if on_stride is not None:
            on_stride(len(rec.times) - 1, t, flat, gel)

    record(t, dt)
    emitted = 1
    # Relative to t_final alone, so that any t_final > 0 takes a step.
    t_end = cfg.t_final * (1.0 - _TIME_EPS)
    while t < t_end:
        # The last step ends on t_final; it is dt exactly when what is left
        # is dt up to roundoff.
        left = cfg.t_final - t
        dt_step = dt if left >= dt * (1.0 - _TIME_EPS) else left
        t_next = cfg.t_final if left <= dt * (1.0 + _TIME_EPS) else t_dt + (steps + 1) * dt
        recorded = t_next + _TIME_EPS * max(dt, 1e-300) >= emitted * cfg.stride or t_next >= t_end
        try:
            new_flat, new_gel, new_u, new_carried = engine.step_once(flat, gel, u, dt_step, carried, recorded)
        except StepSizeError as err:
            if not cfg.auto_halve or halvings >= MAX_HALVINGS:
                raise
            dt /= 2.0
            halvings += 1
            t_dt, steps = t, 0
            msg = f"t={t:g}: halved dt to {dt:g} ({err})"
            rec.events.append(msg)
            log.info(msg)
            continue
        if not np.all(np.isfinite(new_flat)):
            n_bad, c_bad = np.argwhere(~np.isfinite(new_flat))[0]
            rec.events.append(f"aborted: non-finite density at t={t_next:g}, n={n_bad + 1}, cell={c_bad}")
            log.error(rec.events[-1])
            raise FloatingPointError(rec.events[-1])
        flat, gel, u, carried = new_flat, new_gel, new_u, new_carried
        t, steps = t_next, steps + 1
        if recorded:
            record(t, dt_step)
            emitted = int(np.floor(t / cfg.stride + _TIME_EPS)) + 1
    return rec


def homogeneous_run(c0: MassField, kernel: Kernel, cfg: RunConfig) -> RunRecord:
    """Integrate the space-free system dc_n/dt = Q_n(c); ``c0`` lives on ``Grid.point()``."""
    return run(c0, kernel, None, cfg)
