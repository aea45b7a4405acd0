"""Scenario runner: flat ``key = value`` configs in, reproducible CSVs out.

A scenario file is UTF-8 text, one ``key = value`` per line, ``#`` comments,
with dotted section prefixes (``kernel.kind = sum``).  Unknown keys are hard
errors naming the key and line; so are type or range violations.  The full
key list is in the README.  The same config with the same seed produces
byte-identical outputs for any worker count.

Commands::

    smolkit run <config> [--workers N] [--out DIR]
    smolkit gelscan <config> [--workers N] [--out DIR]

Exit codes: 0 all monitors pass, 2 a monitor failed, 1 configuration,
hypothesis, or runtime error.  The default output directory is
``$SMOLKIT_OUT/<name>`` (or ``./smolkit-out/<name>``).

``execute`` builds the scenario's one kernel (``build_kernel``, at the
largest N any of its runs uses) and hands it to one handler per mode,
``_gelscan`` or ``_solve`` (pde, homogeneous and tracer; tracer mode adds
``_tracer``), which pass it to every run, monitor and tracer, then writes the
report lines they return; in pde and tracer modes the ``scope:`` line of
``analysis.scope`` heads them, and the monitors that rest on it read it.
``build_run`` is the one place a solver run is constructed: the main run,
the gronwall rerun on perturbed data, and every level of ``_levels``, which
``_ladder`` runs in forked workers: the moment plateau's (``n_max * 2**k``,
same dt and stride, built before the main run) and gelscan's (each N of
``gelscan.n_list``, on ``Grid.point()`` under the gel reservoir).
Homogeneous mode is the same run on ``Grid.point()``.  The main run's
``on_stride`` keeps its fields for the tracer and gronwall, and feeds
``_snapshot_sink``, which writes them with ``run.record_fields``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._fork import fork_map, fork_sink, usable_cpus
from .analysis import (
    BoundReport,
    HypothesisError,
    check_conservation,
    check_gronwall,
    check_heat_majorant,
    check_moment_bound,
    collision_budget,
    conservation_drift,
    gelation_scan,
    majorant_ratios,
    scope,
)
from .coagulation import RateEvaluator, TruncationPolicy
from .field import Grid, MassField
from .integrator import STABILITY_LIMIT, RunConfig, RunRecord, run
from .integrator import homogeneous_run  # noqa: F401 (no caller; perfbench/spans.py patches cli.homogeneous_run)
from .kernels import DiffusionProfile, Kernel, RangeProfile, kinetic_kernel_from_range
from .tracer import TracerEnsemble, density_consistency, simulate

__all__ = ["Scenario", "ConfigError", "parse_config", "execute", "main"]

OUT_ENV = "SMOLKIT_OUT"
SERIES_SCHEMA = "# smolkit-series v1"
FIELD_SCHEMA = "# smolkit-field v1"

MODES = ("pde", "homogeneous", "tracer", "gelscan")
KERNEL_KINDS = ("constant", "sum", "product", "two_exponent", "range_derived", "table")
DIFFUSION_KINDS = ("constant", "power_law", "table")
INITIAL_KINDS = ("monodisperse", "gaussian_blob", "table")
MONITORS = ("conservation", "heat_majorant", "gronwall", "moment_plateau")


class ConfigError(ValueError):
    """Malformed scenario file; message carries key path and line."""


@dataclass(frozen=True)
class Scenario:
    """Fully validated description of one smolkit invocation."""

    name: str = ""
    mode: str = ""
    seed: int = 0
    workers: int = dataclasses.field(default_factory=usable_cpus)
    out_dir: str | None = None

    kernel_kind: str = "constant"
    kernel_c: float = 1.0
    kernel_c0: float = 1.0
    kernel_a: float = 1.0
    kernel_b: float = 1.0
    kernel_table: str | None = None
    kernel_range_chi: float = 1.0 / 3.0
    kernel_range_scale: float = 1.0
    kernel_range_dim: int = 3

    diffusion_kind: str = "constant"
    diffusion_value: float = 1.0
    diffusion_r2: float = 1.0
    diffusion_b2: float = 0.0
    diffusion_table: str | None = None

    grid_dim: int = 1
    grid_length: float = 1.0
    grid_cells: int = 64

    initial_kind: str = "monodisperse"
    initial_amplitude: float = 1.0
    initial_species: int = 1
    initial_width: float | None = None
    initial_center: tuple[float, ...] | None = None
    initial_table: str | None = None

    n_max: int = 64
    t_final: float = 1.0
    dt: float = 1e-2
    policy: str = "cutoff"
    splitting: str = "strang"
    output_stride: float | None = None
    moments: tuple[float, ...] = (0.0, 1.0, 2.0)
    pair_moments: tuple[float, ...] = ()
    record_fields: bool = False
    auto_halve: bool = True

    tracer_count: int = 10000
    tracer_slices: int = 64
    tracer_times: tuple[float, ...] | None = None
    tracer_immortal: bool = False
    tracer_tv_tolerance: float | None = None
    tracer_z_tolerance: float | None = None

    monitors: tuple[str, ...] = ("conservation",)
    conservation_tolerance: float = 1e-10
    heat_majorant_tolerance: float = 1e-6
    gronwall_a_bound: float | None = None
    gronwall_delta: float = 1e-3
    plateau_a: float = 2.0
    plateau_tolerance: float = 0.05
    plateau_refinements: int = 1

    gelscan_n_list: tuple[int, ...] = (64, 128, 256)
    gelscan_dt: float | None = None


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    raise ValueError(f"expected true or false, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _parse_choice(options: tuple[str, ...]):
    def inner(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {s!r}")
        return s

    return inner


def _parse_names(options: tuple[str, ...]):
    def inner(s: str) -> tuple[str, ...]:
        vals = tuple(x.strip() for x in s.split(",") if x.strip())
        for v in vals:
            if v not in options:
                raise ValueError(f"unknown monitor {v!r}; options: {', '.join(options)}")
        return vals

    return inner


# key in file -> (Scenario attribute, parser)
SCHEMA: dict[str, tuple[str, object]] = {
    "name": ("name", str),
    "mode": ("mode", _parse_choice(MODES)),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "out.dir": ("out_dir", str),
    "kernel.kind": ("kernel_kind", _parse_choice(KERNEL_KINDS)),
    "kernel.c": ("kernel_c", float),
    "kernel.c0": ("kernel_c0", float),
    "kernel.a": ("kernel_a", float),
    "kernel.b": ("kernel_b", float),
    "kernel.table": ("kernel_table", str),
    "kernel.range_chi": ("kernel_range_chi", float),
    "kernel.range_scale": ("kernel_range_scale", float),
    "kernel.range_dim": ("kernel_range_dim", int),
    "diffusion.kind": ("diffusion_kind", _parse_choice(DIFFUSION_KINDS)),
    "diffusion.value": ("diffusion_value", float),
    "diffusion.r2": ("diffusion_r2", float),
    "diffusion.b2": ("diffusion_b2", float),
    "diffusion.table": ("diffusion_table", str),
    "grid.dim": ("grid_dim", int),
    "grid.length": ("grid_length", float),
    "grid.cells": ("grid_cells", int),
    "initial.kind": ("initial_kind", _parse_choice(INITIAL_KINDS)),
    "initial.amplitude": ("initial_amplitude", float),
    "initial.species": ("initial_species", int),
    "initial.width": ("initial_width", float),
    "initial.center": ("initial_center", _parse_floats),
    "initial.table": ("initial_table", str),
    "run.n_max": ("n_max", int),
    "run.t_final": ("t_final", float),
    "run.dt": ("dt", float),
    "run.policy": ("policy", _parse_choice(("cutoff", "gel_reservoir"))),
    "run.splitting": ("splitting", _parse_choice(("strang", "lie"))),
    "run.output_stride": ("output_stride", float),
    "run.moments": ("moments", _parse_floats),
    "run.pair_moments": ("pair_moments", _parse_floats),
    "run.record_fields": ("record_fields", _parse_bool),
    "run.auto_halve": ("auto_halve", _parse_bool),
    "tracer.count": ("tracer_count", int),
    "tracer.slices": ("tracer_slices", int),
    "tracer.times": ("tracer_times", _parse_floats),
    "tracer.immortal": ("tracer_immortal", _parse_bool),
    "tracer.tv_tolerance": ("tracer_tv_tolerance", float),
    "tracer.z_tolerance": ("tracer_z_tolerance", float),
    "monitors": ("monitors", _parse_names(MONITORS)),
    "conservation.tolerance": ("conservation_tolerance", float),
    "heat_majorant.tolerance": ("heat_majorant_tolerance", float),
    "gronwall.a_bound": ("gronwall_a_bound", float),
    "gronwall.delta": ("gronwall_delta", float),
    "moment_plateau.a": ("plateau_a", float),
    "moment_plateau.tolerance": ("plateau_tolerance", float),
    "moment_plateau.refinements": ("plateau_refinements", int),
    "gelscan.n_list": ("gelscan_n_list", _parse_ints),
    "gelscan.dt": ("gelscan_dt", float),
}


def parse_config(path) -> Scenario:
    """Read and fully validate a scenario file."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        attr, parser = SCHEMA[key]
        try:
            values[attr] = parser(value)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from err
    scenario = Scenario(**values)
    _validate(scenario, path)
    return scenario


def _require(cond: bool, key: str, message: str, path) -> None:
    if not cond:
        raise ConfigError(f"{path}: {key}: {message}")


def _validate(s: Scenario, path) -> None:
    _require(bool(s.name), "name", "scenario name is required", path)
    _require(s.mode in MODES, "mode", f"mode is required (one of {', '.join(MODES)})", path)
    _require(s.seed >= 0, "seed", "must be >= 0", path)
    _require(s.workers >= 1, "workers", "must be >= 1", path)
    _require(s.n_max >= 2, "run.n_max", "must be >= 2", path)
    _require(s.dt > 0, "run.dt", "must be > 0", path)
    _require(s.t_final >= 0, "run.t_final", "must be >= 0", path)
    _require(s.output_stride is None or s.output_stride > 0, "run.output_stride", "must be > 0", path)
    for key, exponents in (("run.moments", s.moments), ("run.pair_moments", s.pair_moments)):
        _require(len(set(exponents)) == len(exponents), key, "must not repeat an exponent", path)
        for a in exponents:
            _require(a >= 0, key, f"every exponent must be >= 0, got a={a:g}", path)
    _require(s.initial_amplitude >= 0, "initial.amplitude", "must be >= 0", path)
    width = s.initial_width
    _require(width is None or width > 0, "initial.width", f"must be > 0, got {width}", path)
    _require(1 <= s.initial_species <= s.n_max, "initial.species", "must lie in 1..n_max", path)
    _require(s.grid_dim in (1, 2, 3), "grid.dim", "must be 1, 2 or 3", path)
    _require(s.grid_length > 0, "grid.length", "must be > 0", path)
    m = s.grid_cells
    _require(m >= 2 and (m & (m - 1)) == 0, "grid.cells", "must be a power of two >= 2", path)
    if s.kernel_kind == "table":
        _require(s.kernel_table is not None, "kernel.table", "required for kernel.kind = table", path)
        _require(Path(s.kernel_table).exists(), "kernel.table", f"file not found: {s.kernel_table}", path)
    if s.kernel_kind == "range_derived":
        _require(s.kernel_range_dim >= 3, "kernel.range_dim", "must be >= 3", path)
    if s.diffusion_kind == "table":
        _require(s.diffusion_table is not None, "diffusion.table", "required for diffusion.kind = table", path)
        _require(Path(s.diffusion_table).exists(), "diffusion.table", f"file not found: {s.diffusion_table}", path)
    if s.initial_kind == "table":
        _require(s.initial_table is not None, "initial.table", "required for initial.kind = table", path)
        _require(Path(s.initial_table).exists(), "initial.table", f"file not found: {s.initial_table}", path)
    if s.initial_center is not None:
        _require(len(s.initial_center) == s.grid_dim, "initial.center", "needs one value per grid dimension", path)
    if s.mode == "tracer":
        _require(s.tracer_count >= 1, "tracer.count", "must be >= 1", path)
        _require(s.tracer_slices >= 1, "tracer.slices", "must be >= 1", path)
        _require(s.t_final > 0, "run.t_final", "tracer mode needs a positive horizon", path)
        # The histogram times must be slice boundaries, within simulate's slack.
        slice_dt = s.t_final / s.tracer_slices
        for t in s.tracer_times or ():
            i = round(t / slice_dt) if np.isfinite(t) else -1
            _require(0 <= i <= s.tracer_slices and abs(i * slice_dt - t) <= 1e-9 * max(s.t_final, 1.0), "tracer.times",
                     f"{t:g} is not in [0, run.t_final] on a multiple of run.t_final / tracer.slices", path)
    if s.mode == "gelscan":
        _require(len(s.gelscan_n_list) >= 2, "gelscan.n_list", "needs at least two ranges", path)
        _require(list(s.gelscan_n_list) == sorted(s.gelscan_n_list), "gelscan.n_list", "must increase", path)
        _require(min(s.gelscan_n_list) >= 1, "gelscan.n_list", "every range must be >= 1", path)
        _require(s.gelscan_dt is None or s.gelscan_dt > 0, "gelscan.dt", "must be > 0", path)
        _require(s.initial_species <= min(s.gelscan_n_list), "initial.species", "must lie in 1..min(gelscan.n_list)", path)
    if "gronwall" in s.monitors:
        _require(s.gronwall_delta > 0, "gronwall.delta", "must be > 0", path)
    bound = s.gronwall_a_bound
    # Against a nan or infinite bound the envelope would pass vacuously.
    _require(bound is None or 0 <= bound < np.inf, "gronwall.a_bound", f"must be finite and >= 0, got {bound}", path)
    if "moment_plateau" in s.monitors:
        _require(s.plateau_a >= 1, "moment_plateau.a", "must be >= 1 (the pair moments take the exponent a - 1)", path)
    if s.mode == "homogeneous":
        spatial_only = {"gronwall", "heat_majorant", "moment_plateau"} & set(s.monitors)
        _require(not spatial_only, "monitors", f"{sorted(spatial_only)} need a spatial mode (pde/tracer)", path)
    _require(s.plateau_refinements >= 1, "moment_plateau.refinements", "must be >= 1", path)
    for key, tol in (
        ("conservation.tolerance", s.conservation_tolerance), ("heat_majorant.tolerance", s.heat_majorant_tolerance),
        ("moment_plateau.tolerance", s.plateau_tolerance), ("tracer.tv_tolerance", s.tracer_tv_tolerance),
        ("tracer.z_tolerance", s.tracer_z_tolerance),
    ):
        # A gate passes when its violation is <= tol: below 0, or nan, it never can.
        _require(tol is None or tol >= 0, key, f"must be >= 0, got {tol}", path)


# -- building model objects from a scenario -----------------------------


def build_kernel(s: Scenario) -> Kernel:
    """The scenario's one kernel, at the largest N any of its runs uses:
    max(``gelscan.n_list``) in gelscan mode, ``n_max * 2**refinements`` with
    the moment plateau, ``n_max`` otherwise."""
    if s.mode == "gelscan":
        n = max(s.gelscan_n_list)
    elif "moment_plateau" in s.monitors:
        n = s.n_max * 2**s.plateau_refinements
    else:
        n = s.n_max
    if s.kernel_kind == "constant":
        return Kernel.constant(s.kernel_c, n)
    if s.kernel_kind == "sum":
        return Kernel.sum_kernel(s.kernel_c0, n)
    if s.kernel_kind == "product":
        return Kernel.product(s.kernel_a, n)
    if s.kernel_kind == "two_exponent":
        return Kernel.two_exponent(s.kernel_a, s.kernel_b, n)
    if s.kernel_kind == "range_derived":
        dp = build_diffusion(dataclasses.replace(s, n_max=n))
        rp = RangeProfile(exponent=s.kernel_range_chi, scale=s.kernel_range_scale)
        return kinetic_kernel_from_range(dp, rp, s.kernel_range_dim, s.kernel_c)
    try:
        return Kernel.from_csv(s.kernel_table, n)
    except ValueError as err:
        raise ConfigError(f"kernel.table must cover exactly 1..{n}, the largest N this scenario runs: {err}") from err


def build_diffusion(s: Scenario) -> DiffusionProfile:
    n = s.n_max
    if s.diffusion_kind == "constant":
        return DiffusionProfile.constant(s.diffusion_value, n)
    if s.diffusion_kind == "power_law":
        return DiffusionProfile.power_law(s.diffusion_r2, s.diffusion_b2, n)
    values = np.loadtxt(s.diffusion_table, delimiter=",", ndmin=1)
    if len(values) < n:
        raise ConfigError(f"diffusion.table: {s.diffusion_table} has {len(values)} rows, fewer than a run's N = {n}")
    return DiffusionProfile(values[:n])


def build_initial_field(s: Scenario, grid: Grid) -> MassField:
    if s.initial_kind == "monodisperse":
        return MassField.monodisperse(grid, s.n_max, amplitude=s.initial_amplitude, species=s.initial_species)
    if s.initial_kind == "gaussian_blob":
        return MassField.gaussian_blob(
            grid, s.n_max, amplitude=s.initial_amplitude, width=s.initial_width,
            center=s.initial_center, species=s.initial_species,
        )
    return read_field_csv(s.initial_table, grid, s.n_max)


def build_run_config(s: Scenario) -> RunConfig:
    """Integration parameters of a scenario's solver run, monitors and tracer included."""
    moments, pair_moments = tuple(s.moments), tuple(s.pair_moments)
    if "moment_plateau" in s.monitors:
        moments = tuple(sorted(set(moments) | {s.plateau_a}))
        pair_moments = tuple(sorted(set(pair_moments) | {s.plateau_a - 1}))
    dt, stride = s.dt, s.output_stride
    if s.mode == "tracer":
        # dt divides the slice width, so strides land exactly on slice boundaries.
        stride = s.t_final / s.tracer_slices
        dt = stride / max(1, int(np.ceil(stride / s.dt)))
    return RunConfig(
        t_final=s.t_final, dt=dt, policy=TruncationPolicy(s.policy, s.n_max), splitting=s.splitting,
        output_stride=stride, moment_exponents=moments, pair_moment_exponents=pair_moments,
        track_majorant="heat_majorant" in s.monitors, auto_halve=s.auto_halve,
    )


def _gelscan_config(s: Scenario, field0: MassField, kernel: Kernel) -> RunConfig:
    """A gelscan level: gel reservoir, four strides, and ``gelscan.dt`` or 0.8 of
    the stability limit at the initial data.  That limit is evaluated in any
    case, so each level's first evaluator call is made in the calling process."""
    T, policy = s.t_final, TruncationPolicy.gel_reservoir(s.n_max)
    lam0 = float(RateEvaluator(kernel, policy).loss_coefficients(field0.flat()).max())
    if s.gelscan_dt is not None:
        dt = s.gelscan_dt
    elif lam0 > 0:
        dt = 0.8 * STABILITY_LIMIT / lam0
    else:
        # No reaction at all; any positive step will do, also at t_final = 0.
        dt = T / 100.0 if T > 0 else 1.0
    return RunConfig(
        t_final=T, dt=min(dt, T) if T > 0 else dt, policy=policy,
        output_stride=T / 4.0 if T > 0 else None, moment_exponents=(0.0, 1.0),
    )


def build_run(s: Scenario, kernel: Kernel) -> tuple[MassField, DiffusionProfile | None, RunConfig]:
    """Initial field, diffusion profile and config of the scenario's run at ``s.n_max``.

    ``kernel`` is the scenario's one kernel from :func:`build_kernel`, which
    covers every run's N.  Homogeneous and gelscan modes run on the
    zero-dimensional point grid, which needs no diffusion profile; pde and
    tracer modes run on the scenario's grid, with a profile at ``s.n_max``.
    """
    if s.mode in ("homogeneous", "gelscan"):
        grid, dp = Grid.point(), None
    else:
        grid, dp = Grid(s.grid_dim, s.grid_length, s.grid_cells), build_diffusion(s)
    field0 = build_initial_field(s, grid)
    cfg = _gelscan_config(s, field0, kernel) if s.mode == "gelscan" else build_run_config(s)
    return field0, dp, cfg


def _run_level(kernel: Kernel, level: tuple[MassField, DiffusionProfile | None, RunConfig]) -> RunRecord:
    field0, dp, cfg = level
    return run(field0, kernel, dp, cfg)


def _levels(s: Scenario, n_values: list[int], kernel: Kernel) -> list[tuple]:
    """The scenario at each ``n_max`` in ``n_values``, built by :func:`build_run`
    with the scenario's ``kernel`` (a gelscan level up to its first loss
    coefficients), to run without majorant."""
    levels = []
    for n_max in n_values:
        field0, dp, cfg = build_run(dataclasses.replace(s, n_max=n_max), kernel)
        levels.append((field0, dp, dataclasses.replace(cfg, track_majorant=False)))
    return levels


def _ladder(s: Scenario, levels: list[tuple], kernel: Kernel) -> list[RunRecord]:
    """Run the ``levels`` from :func:`_levels` through ``fork_map`` in up to
    ``s.workers`` processes; each sends back only its stride series."""
    # Largest N first: it takes longest, so the others share the remaining
    # workers while it runs.
    return fork_map(partial(_run_level, kernel), levels[::-1], s.workers)[::-1]


# -- output files --------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_series_csv(path: Path, rec: RunRecord, extra: dict[str, np.ndarray] | None = None) -> None:
    moment_cols = sorted(rec.moments)
    headers = ["t", "I", "I_plus_gel", "gel"] + [f"X{a:g}" for a in moment_cols] + ["dt"]
    for a in sorted(rec.pair_moments):
        headers.append(f"Y{a:g}")
    for a in sorted(rec.pair_moments_weighted):
        headers.append(f"Yk{a:g}")
    extra = extra or {}
    headers += list(extra)
    rows = []
    for i, t in enumerate(rec.times):
        row = [t, rec.mass[i], rec.mass[i] + rec.gel[i], rec.gel[i]]
        row += [rec.moments[a][i] for a in moment_cols]
        row.append(rec.dt_series[i])
        row += [rec.pair_moments[a][i] for a in sorted(rec.pair_moments)]
        row += [rec.pair_moments_weighted[a][i] for a in sorted(rec.pair_moments_weighted)]
        row += [extra[name][i] for name in extra]
        rows.append(",".join(_fmt(v) for v in row))
    text = SERIES_SCHEMA + "\n" + ",".join(headers) + "\n" + "\n".join(rows) + "\n"
    path.write_text(text, encoding="utf-8")


def write_field_csv(path: Path, flat: np.ndarray, grid: Grid, t: float, gel: float) -> None:
    lines = [
        f"{FIELD_SCHEMA} t={_fmt(t)} gel={_fmt(gel)} dim={grid.dim} cells={grid.cells_per_side} length={_fmt(grid.length)}"
    ]
    # repr of a Python float is _fmt's text; tolist() converts a row at once.
    for n, row in enumerate(flat.reshape(flat.shape[0], -1).tolist(), start=1):
        lines.append(f"{n},{','.join(map(repr, row))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_csv(path, grid: Grid, n_max: int) -> MassField:
    """Load a dense per-mass snapshot (rows ``n,v1,v2,...``) as a field."""
    data = np.zeros((n_max, grid.n_cells))
    gel = 0.0
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line.split():
                    if tok.startswith("gel="):
                        gel = float(tok[4:])
                continue
            parts = line.split(",")
            n = int(parts[0])
            if not 1 <= n <= n_max:
                raise ConfigError(f"{path}: species {n} outside 1..{n_max}")
            vals = np.array([float(v) for v in parts[1:]])
            if vals.size != grid.n_cells:
                raise ConfigError(f"{path}: row for species {n} has {vals.size} cells, expected {grid.n_cells}")
            data[n - 1] = vals
    # Snapshots of runs whose gain is taken by FFT carry roundoff of either
    # sign, at most eps * max f, in species whose true density is ~0; read
    # such values as zero and reject anything more negative.
    data[(data < 0) & (data >= -np.finfo(float).eps * np.abs(data).max())] = 0.0
    return MassField(grid, data.reshape((n_max,) + grid.shape), gel_reservoir=gel)


# -- execution -----------------------------------------------------------


def _out_dir(s: Scenario, override: str | None) -> Path:
    if override is not None:
        out = Path(override)
    elif s.out_dir is not None:
        out = Path(s.out_dir)
    else:
        out = Path(os.environ.get(OUT_ENV, "smolkit-out")) / s.name
    out.mkdir(parents=True, exist_ok=True)
    return out


def execute(s: Scenario, out_override: str | None = None) -> int:
    """Run one scenario end to end; returns the process exit code."""
    out = _out_dir(s, out_override)
    lines, reports = (_gelscan if s.mode == "gelscan" else _solve)(s, build_kernel(s), out)
    report = "\n".join([f"scenario {s.name} (mode={s.mode})"] + lines) + "\n"
    (out / "report.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0 if all(r.passed for r in reports) else 2


def _gelscan(s: Scenario, kernel: Kernel, out: Path) -> tuple[list[str], list[BoundReport]]:
    """Gel-reservoir trend over ``gelscan.n_list``; a verdict, not a gate."""
    verdict = gelation_scan(_ladder(s, _levels(s, list(s.gelscan_n_list), kernel), kernel))
    rows = ["n_max,mass_ratio,gel"]
    rows += [f"{n},{_fmt(r)},{_fmt(g)}" for n, r, g in zip(verdict.n_values, verdict.mass_ratios, verdict.gel_values)]
    (out / "gelscan.csv").write_text(SERIES_SCHEMA + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return [str(verdict)], []


def _solve(s: Scenario, kernel: Kernel, out: Path) -> tuple[list[str], list[BoundReport]]:
    """One solver run (pde, homogeneous or tracer mode), its files and its monitors.

    ``snapshots/`` holds one field per series row when ``run.record_fields``
    is set, and is not written otherwise (see :func:`_snapshot_sink`).

    The plateau's levels and the scope are built before the main run, so a
    scenario they reject writes no file."""
    field0, dp, cfg = build_run(s, kernel)
    refinements = range(1, s.plateau_refinements + 1) if "moment_plateau" in s.monitors else []
    plateau = _levels(s, [s.n_max * 2**k for k in refinements], kernel)
    # The mass, a = 1, when no moment is recorded.
    hypotheses = scope(kernel, dp, field0, max(cfg.moment_exponents, default=1.0)) if dp is not None else None
    fields = [] if s.mode == "tracer" or "gronwall" in s.monitors else None
    with _snapshot_sink(s, field0.grid, out) as snapshot:

        def on_stride(i: int, t: float, flat: np.ndarray, gel: float) -> None:
            snapshot(i, t, flat, gel)
            if fields is not None:
                fields.append(flat)

        rec = run(field0, kernel, dp, cfg, on_stride=on_stride)
    extra = {"cons_drift": conservation_drift(rec)}
    if rec.majorant is not None:
        extra["majorant_ratio"] = majorant_ratios(rec, dp).max(axis=1)
    write_series_csv(out / "series.csv", rec, extra)

    reports = [check_conservation(rec, s.conservation_tolerance)]
    if 0.0 in rec.moments:
        reports.append(collision_budget(rec))
    if rec.majorant is not None:
        reports.append(check_heat_majorant(rec, dp, s.heat_majorant_tolerance))
    if "gronwall" in s.monitors:
        perturbed = MassField(field0.grid, field0.data * (1.0 + s.gronwall_delta), field0.gel_reservoir)
        g_fields = []
        g_rec = run(perturbed, kernel, dp, cfg, on_stride=lambda i, t, flat, gel: g_fields.append(flat))
        reports.append(check_gronwall(rec, fields, g_rec, g_fields, hypotheses, s.gronwall_a_bound))
    if plateau:
        records = [rec] + _ladder(s, plateau, kernel)
        reports.append(check_moment_bound(records, s.plateau_a, hypotheses, field0, tolerance=s.plateau_tolerance))

    lines, gates = _tracer(s, rec.grid, fields, kernel, dp, cfg.output_stride, out) if s.mode == "tracer" else ([], [])
    if hypotheses is not None:
        lines.insert(0, str(hypotheses))
    reports += gates
    return lines + [str(r) for r in reports] + [f"note: {event}" for event in rec.events], reports


def _write_snapshot(snapdir: Path, grid: Grid, item: tuple[int, np.ndarray, float, float]) -> None:
    i, flat, t, gel = item
    try:
        write_field_csv(snapdir / f"snapshot_{i:04d}.csv", flat, grid, t, gel)
    except OSError as err:
        # One type for any cause, the same in a writer process and here.
        raise OSError(f"snapshot writer: {err}") from err


@contextmanager
def _snapshot_sink(s: Scenario, grid: Grid, out: Path) -> Iterator[Callable[[int, float, np.ndarray, float], None]]:
    """The main run's ``on_stride`` into ``snapshots/``; a no-op without ``run.record_fields``.

    Each recorded field goes to :func:`write_field_csv` as soon as it is
    recorded: through ``fork_sink`` to one writer process when
    ``s.workers > 1``, so formatting overlaps the steps, and here otherwise.
    Snapshot 0 is held until the first stride after t = 0, so nothing is
    forked before the run's first step: a process that stops at that
    step, as the benchmark's set-up probe does, leaves no writer behind.
    A run or a writer that fails leaves no ``snapshots/``: partial
    snapshots next to an older ``series.csv`` would read as a finished run.
    """
    if not s.record_fields:
        yield lambda i, t, flat, gel: None
        return
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    held = []
    try:
        with fork_sink(partial(_write_snapshot, snapdir, grid), s.workers) as put:

            def on_stride(i: int, t: float, flat: np.ndarray, gel: float) -> None:
                held.append((i, flat, t, gel))
                while i > 0 and held:
                    put(held.pop(0))

            yield on_stride
            for item in held:  # t_final = 0: snapshot 0 alone
                put(item)
    except BaseException:
        shutil.rmtree(snapdir, ignore_errors=True)
        raise


def _tracer(
    s: Scenario, grid: Grid, flats: list[np.ndarray], kernel: Kernel, dp: DiffusionProfile, slice_dt: float, out: Path
) -> tuple[list[str], list[BoundReport]]:
    """Tracer ensemble against the solver's fields, one slice per stride."""
    fields = [MassField(grid, f.reshape((s.n_max,) + grid.shape), validate=False) for f in flats]
    ens = TracerEnsemble(count=s.tracer_count, seed=s.seed, immortal=s.tracer_immortal)
    times = list(s.tracer_times) if s.tracer_times is not None else [s.t_final]
    result = simulate(fields[:-1], kernel, dp, ens, slice_dt, histogram_times=times, workers=s.workers)
    m0 = float(sum(fields[0].species_integrals()))
    lines, gates = [], []
    hist_rows = ["time,mass,cell,count"]
    summary_rows = ["time,tv,max_abs_z,n_z_bins,z_q50,z_q90,z_q99,overflow_fraction,cemetery_empirical,cemetery_model"]
    for hist in result.histograms:
        stride_index = int(round(hist.time / slice_dt))
        rep = density_consistency(hist, fields[stride_index], m0)
        for (mi, ci) in np.argwhere(hist.counts):
            hist_rows.append(f"{_fmt(hist.time)},{mi + 1},{ci},{hist.counts[mi, ci]}")
        for ci in np.flatnonzero(hist.overflow):
            hist_rows.append(f"{_fmt(hist.time)},{s.n_max + 1},{ci},{hist.overflow[ci]}")
        if hist.cemetery:
            hist_rows.append(f"{_fmt(hist.time)},0,-1,{hist.cemetery}")
        q = rep.z_quantiles
        summary_rows.append(
            ",".join(
                [_fmt(hist.time), _fmt(rep.tv_distance), _fmt(rep.max_abs_z), str(rep.n_z_bins)]
                + [_fmt(q.get(name, 0.0)) for name in ("q50", "q90", "q99")]
                + [_fmt(rep.overflow_fraction), _fmt(rep.cemetery_empirical), _fmt(rep.cemetery_model)]
            )
        )
        lines.append(
            f"tracer t={hist.time:g}: TV={rep.tv_distance:.4f}, max|z|={rep.max_abs_z:.2f} over {rep.n_z_bins} bins"
        )
        for name, value, tol in (
            ("tracer_tv", rep.tv_distance, s.tracer_tv_tolerance),
            ("tracer_z", rep.max_abs_z, s.tracer_z_tolerance),
        ):
            if tol is not None:
                gates.append(BoundReport(name=name, max_violation=value, tolerance=tol))
    (out / "histogram.csv").write_text("\n".join(hist_rows) + "\n", encoding="utf-8")
    (out / "summary.csv").write_text("\n".join(summary_rows) + "\n", encoding="utf-8")
    counts = result.collision_counts
    mean_coll = float((np.arange(counts.size) * counts).sum()) / s.tracer_count
    lines.append(
        f"tracer collisions per trajectory: mean {mean_coll:.3f}, max {counts.size - 1}"
        + (" (immortal: counts are descriptive only)" if s.tracer_immortal else "")
    )
    th = result.thinning
    lines.append(
        f"tracer thinning: {th.proposals} proposals, {th.accepted} accepted"
        f" (acceptance rate {th.acceptance_rate:.4f}), {th.extensions} chunk-local table extensions"
    )
    return lines, gates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="smolkit", description="coagulation-diffusion scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "gelscan"):
        p = sub.add_parser(name)
        p.add_argument("config", help="scenario file")
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes for the tracer's chunks or the gelscan and moment-plateau levels,"
            " at most one per chunk or level, and with N > 1 one snapshot writer beside the run"
            " (default: the usable CPUs; outputs bit-identical for any N)",
        )
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        scenario = parse_config(args.config)
        # The command and flags override the file, so check the result again
        # (``smolkit gelscan`` also checks the gelscan keys).
        overrides = {"mode": "gelscan"} if args.command == "gelscan" else {}
        if args.workers is not None:
            overrides["workers"] = args.workers
        scenario = dataclasses.replace(scenario, **overrides)
        _validate(scenario, args.config)
        return execute(scenario, out_override=args.out)
    except (ConfigError, HypothesisError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError, RuntimeError, OSError) as err:
        # Named by type: a worker process that died reads BrokenProcessPool.
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
