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
``on_stride`` keeps its fields for the tracer, gronwall and, with
``run.record_fields``, ``_write_snapshots``, which writes them after the run
through ``fork_map``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._fork import fork_map, usable_cpus
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
from .field import Grid, MassField, moment_weights
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


# -- config keys ----------------------------------------------------------
#
# Each config key is one ``Scenario`` field, declared once by ``_key``: its
# name in the file, default, parser and domain.  A domain raises ValueError
# for a value outside it and never sees None, the "not set" of an optional
# key.  Every number is finite.


def _key(key: str, default, parse, domain=None):
    """The ``Scenario`` field of config key ``key``; a callable default is a factory."""
    meta = {"key": key, "parse": parse, "domain": domain}
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=meta)
    return dataclasses.field(default=default, metadata=meta)


def _real(lo: float | None = None, above: bool = False):
    """Domain: a finite float, >= ``lo`` (> ``lo`` with ``above``) when given."""
    rule = "finite" if lo is None else f"finite and {'>' if above else '>='} {lo:g}"

    def check(x: float) -> None:
        if not math.isfinite(x) or lo is not None and (x <= lo if above else x < lo):
            raise ValueError(f"must be {rule}, got {x:g}")

    return check


def _count(lo: int, hi: int | None = None):
    """Domain: an integer in ``lo..hi``, or >= ``lo`` without ``hi``."""
    rule = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def check(n: int) -> None:
        if n < lo or hi is not None and n > hi:
            raise ValueError(f"must be {rule}, got {n}")

    return check


def _choice(*options: str):
    def check(s: str) -> None:
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {s!r}")

    return check


def _each(check, distinct: bool = False):
    """Domain of a list: each value in ``check``'s, and none twice with ``distinct``."""

    def inner(values: tuple) -> None:
        for v in values:
            try:
                check(v)
            except ValueError as err:
                raise ValueError(f"each value {err}") from None
        if distinct and len(set(values)) != len(values):
            raise ValueError("must not repeat a value")

    return inner


def _required(s: str) -> None:
    if not s:
        raise ValueError("is required")


def _power_of_two(m: int) -> None:
    if m < 2 or m & (m - 1):
        raise ValueError(f"must be a power of two >= 2, got {m}")


def _ranges(ns: tuple[int, ...]) -> None:
    _each(_count(1))(ns)
    if len(ns) < 2 or list(ns) != sorted(set(ns)):
        raise ValueError(f"must be at least two increasing ranges, got {','.join(map(str, ns))}")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    raise ValueError(f"expected true or false, got {s!r}")


def _split(parse):
    return lambda s: tuple(parse(x.strip()) for x in s.split(",") if x.strip())


_FLOATS, _TOLERANCE = _split(float), _real(0)


@dataclass(frozen=True)
class Scenario:
    """Fully validated description of one smolkit invocation, one field per config key."""

    name: str = _key("name", "", str, _required)
    mode: str = _key("mode", "", str, _choice(*MODES))
    seed: int = _key("seed", 0, int, _count(0))
    workers: int = _key("workers", usable_cpus, int, _count(1))
    out_dir: str | None = _key("out.dir", None, str)

    kernel_kind: str = _key("kernel.kind", "constant", str, _choice(*KERNEL_KINDS))
    kernel_c: float = _key("kernel.c", 1.0, float, _real(0))
    kernel_c0: float = _key("kernel.c0", 1.0, float, _real(0))
    kernel_a: float = _key("kernel.a", 1.0, float, _real())
    kernel_b: float = _key("kernel.b", 1.0, float, _real())
    kernel_table: str | None = _key("kernel.table", None, str)
    kernel_range_chi: float = _key("kernel.range_chi", 1.0 / 3.0, float, _real(0))
    kernel_range_scale: float = _key("kernel.range_scale", 1.0, float, _real(0, above=True))
    kernel_range_dim: int = _key("kernel.range_dim", 3, int, _count(3))

    diffusion_kind: str = _key("diffusion.kind", "constant", str, _choice(*DIFFUSION_KINDS))
    diffusion_value: float = _key("diffusion.value", 1.0, float, _real(0, above=True))
    diffusion_r2: float = _key("diffusion.r2", 1.0, float, _real(0, above=True))
    diffusion_b2: float = _key("diffusion.b2", 0.0, float, _real())
    diffusion_table: str | None = _key("diffusion.table", None, str)

    grid_dim: int = _key("grid.dim", 1, int, _count(1, 3))
    grid_length: float = _key("grid.length", 1.0, float, _real(0, above=True))
    grid_cells: int = _key("grid.cells", 64, int, _power_of_two)

    initial_kind: str = _key("initial.kind", "monodisperse", str, _choice(*INITIAL_KINDS))
    initial_amplitude: float = _key("initial.amplitude", 1.0, float, _real(0))
    initial_species: int = _key("initial.species", 1, int, _count(1))
    initial_width: float | None = _key("initial.width", None, float, _real(0, above=True))
    initial_center: tuple[float, ...] | None = _key("initial.center", None, _FLOATS, _each(_real()))
    initial_table: str | None = _key("initial.table", None, str)

    n_max: int = _key("run.n_max", 64, int, _count(2))
    t_final: float = _key("run.t_final", 1.0, float, _real(0, above=True))
    dt: float = _key("run.dt", 1e-2, float, _real(0, above=True))
    policy: str = _key("run.policy", "cutoff", str, _choice("cutoff", "gel_reservoir"))
    splitting: str = _key("run.splitting", "strang", str, _choice("strang", "lie"))
    output_stride: float | None = _key("run.output_stride", None, float, _real(0, above=True))
    moments: tuple[float, ...] = _key("run.moments", (0.0, 1.0, 2.0), _FLOATS, _each(_real(0), distinct=True))
    pair_moments: tuple[float, ...] = _key("run.pair_moments", (), _FLOATS, _each(_real(0), distinct=True))
    record_fields: bool = _key("run.record_fields", False, _parse_bool)
    auto_halve: bool = _key("run.auto_halve", True, _parse_bool)

    tracer_count: int = _key("tracer.count", 10000, int, _count(1))
    tracer_slices: int = _key("tracer.slices", 64, int, _count(1))
    tracer_times: tuple[float, ...] | None = _key("tracer.times", None, _FLOATS, _each(_real(0)))
    tracer_immortal: bool = _key("tracer.immortal", False, _parse_bool)
    # A gate passes when its violation is <= its tolerance: below 0, or nan,
    # it never can, and at inf it always does.
    tracer_tv_tolerance: float | None = _key("tracer.tv_tolerance", None, float, _TOLERANCE)
    tracer_z_tolerance: float | None = _key("tracer.z_tolerance", None, float, _TOLERANCE)

    monitors: tuple[str, ...] = _key("monitors", ("conservation",), _split(str), _each(_choice(*MONITORS)))
    conservation_tolerance: float = _key("conservation.tolerance", 1e-10, float, _TOLERANCE)
    heat_majorant_tolerance: float = _key("heat_majorant.tolerance", 1e-6, float, _TOLERANCE)
    # Against a nan or infinite bound the Gronwall envelope would pass vacuously.
    gronwall_a_bound: float | None = _key("gronwall.a_bound", None, float, _real(0))
    gronwall_delta: float = _key("gronwall.delta", 1e-3, float, _real(0, above=True))
    # The plateau's pair moments take the exponent a - 1.
    plateau_a: float = _key("moment_plateau.a", 2.0, float, _real(1))
    plateau_tolerance: float = _key("moment_plateau.tolerance", 0.05, float, _TOLERANCE)
    plateau_refinements: int = _key("moment_plateau.refinements", 1, int, _count(1))

    gelscan_n_list: tuple[int, ...] = _key("gelscan.n_list", (64, 128, 256), _split(int), _ranges)
    gelscan_dt: float | None = _key("gelscan.dt", None, float, _real(0, above=True))


# file key -> its ``Scenario`` field
SCHEMA: dict[str, dataclasses.Field] = {f.metadata["key"]: f for f in dataclasses.fields(Scenario)}


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
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        field = SCHEMA[key]
        values[field.name] = _checked(field, field.metadata["parse"], value.strip(), f"{path}:{lineno}")
    scenario = Scenario(**values)
    _validate(scenario, path)
    return scenario


def _checked(field: dataclasses.Field, parse, value, where: str):
    """``parse(value)``, checked against ``field``'s domain; a ConfigError at ``where`` names the key."""
    try:
        value = parse(value)
        if value is not None and field.metadata["domain"] is not None:
            field.metadata["domain"](value)
        return value
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{where}: {field.metadata['key']}: {err}") from err


def _require(cond: bool, key: str, message: str, path) -> None:
    if not cond:
        raise ConfigError(f"{path}: {key}: {message}")


def _validate(s: Scenario, path) -> None:
    """Every field against its domain, for keys the file left unset and for
    the command's overrides, then the rules that join keys."""
    for field in dataclasses.fields(s):
        _checked(field, lambda v: v, getattr(s, field.name), str(path))
    for key, kind, table in (
        ("kernel.table", s.kernel_kind, s.kernel_table), ("diffusion.table", s.diffusion_kind, s.diffusion_table),
        ("initial.table", s.initial_kind, s.initial_table),
    ):
        if kind == "table":
            _require(table is not None, key, f"required for {key.split('.')[0]}.kind = table", path)
            _require(Path(table).exists(), key, f"file not found: {table}", path)
    if s.initial_center is not None:
        _require(len(s.initial_center) == s.grid_dim, "initial.center", "needs one value per grid dimension", path)
    if s.mode == "gelscan":
        top, name = min(s.gelscan_n_list), "min(gelscan.n_list)"
    else:
        top, name = s.n_max, "run.n_max"
    _require(s.initial_species <= top, "initial.species", f"must lie in 1..{name}", path)
    if s.mode == "tracer":
        # The histogram times must be slice boundaries, within simulate's slack.
        slice_dt = s.t_final / s.tracer_slices
        for t in s.tracer_times or ():
            i = round(t / slice_dt)
            _require(i <= s.tracer_slices and abs(i * slice_dt - t) <= 1e-9 * max(s.t_final, 1.0), "tracer.times",
                     f"{t:g} is not in [0, run.t_final] on a multiple of run.t_final / tracer.slices", path)
    if s.mode == "homogeneous":
        spatial_only = {"gronwall", "heat_majorant", "moment_plateau"} & set(s.monitors)
        _require(not spatial_only, "monitors", f"{sorted(spatial_only)} need a spatial mode (pde/tracer)", path)
    if "heat_majorant" in s.monitors and s.diffusion_kind == "power_law":
        _require(s.diffusion_b2 >= 0, "diffusion.b2", "must be >= 0 with heat_majorant, whose majorant needs a"
                 " non-increasing profile", path)
    if "gronwall" in s.monitors and s.gronwall_a_bound is not None and s.mode != "gelscan":
        # The bound must hold from t = 0 on, for the run from f(0) and the one from (1 + delta) f(0).
        f0 = build_initial_field(s, Grid(s.grid_dim, s.grid_length, s.grid_cells)).flat()
        a0 = (1.0 + s.gronwall_delta) * float((moment_weights(2.0, s.n_max) @ f0).max())
        _require(s.gronwall_a_bound >= a0 * (1 - 1e-12), "gronwall.a_bound",
                 f"must be >= {a0:g}, the sup of the second moment at t = 0", path)


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
        dt = T / 100.0  # no reaction at all; any positive step will do
    return RunConfig(t_final=T, dt=min(dt, T), policy=policy, output_stride=T / 4.0, moment_exponents=(0.0, 1.0))


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
    is set, and is not written otherwise (see :func:`_write_snapshots`).

    The plateau's levels and the scope are built before the main run, and
    the gronwall rerun checks ``gronwall.a_bound`` before any file is
    written, so a scenario they reject writes no file."""
    field0, dp, cfg = build_run(s, kernel)
    refinements = range(1, s.plateau_refinements + 1) if "moment_plateau" in s.monitors else []
    plateau = _levels(s, [s.n_max * 2**k for k in refinements], kernel)
    # The mass, a = 1, when no moment is recorded.
    hypotheses = scope(kernel, dp, field0, max(cfg.moment_exponents, default=1.0)) if dp is not None else None
    fields = [] if s.record_fields or s.mode == "tracer" or "gronwall" in s.monitors else None
    keep = None if fields is None else lambda i, t, flat, gel: fields.append(flat)
    rec = run(field0, kernel, dp, cfg, on_stride=keep)
    if "gronwall" in s.monitors:
        perturbed = MassField(field0.grid, field0.data * (1.0 + s.gronwall_delta), field0.gel_reservoir)
        g_fields = []
        g_rec = run(perturbed, kernel, dp, cfg, on_stride=lambda i, t, flat, gel: g_fields.append(flat))
        try:
            gronwall = check_gronwall(rec, fields, g_rec, g_fields, hypotheses, s.gronwall_a_bound)
        except HypothesisError as err:  # the runs' second moment exceeds the supplied bound
            raise HypothesisError(f"gronwall.a_bound: {err}") from err
    if s.record_fields:
        _write_snapshots(s, rec, fields, out)
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
        reports.append(gronwall)
    if plateau:
        records = [rec] + _ladder(s, plateau, kernel)
        reports.append(check_moment_bound(records, s.plateau_a, hypotheses, field0, tolerance=s.plateau_tolerance))

    lines, gates = _tracer(s, rec.grid, fields, kernel, dp, cfg.output_stride, out) if s.mode == "tracer" else ([], [])
    if hypotheses is not None:
        lines.insert(0, str(hypotheses))
    reports += gates
    return lines + [str(r) for r in reports] + [f"note: {event}" for event in rec.events], reports


def _write_snapshot(snapdir: Path, grid: Grid, item: tuple[int, tuple[np.ndarray, float, float]]) -> None:
    i, (flat, t, gel) = item
    try:
        write_field_csv(snapdir / f"snapshot_{i:04d}.csv", flat, grid, t, gel)
    except OSError as err:
        # One type for any cause, the same in a writer process and here.
        raise OSError(f"snapshot writer: {err}") from err


def _write_snapshots(s: Scenario, rec: RunRecord, flats: list[np.ndarray], out: Path) -> None:
    """The finished run's recorded fields into ``snapshots/``, one file per
    series row, through ``fork_map`` in up to ``s.workers`` processes.

    A writer that fails leaves no ``snapshots/``: partial snapshots next to
    an older ``series.csv`` would read as a finished run.
    """
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    try:
        items = list(enumerate(zip(flats, rec.times, rec.gel)))
        fork_map(partial(_write_snapshot, snapdir, rec.grid), items, s.workers)
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
            " and the snapshot writers after the run, at most one per chunk, level or snapshot and one per usable CPU"
            " (default: the usable CPUs; outputs bit-identical for any N)",
        )
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        scenario = parse_config(args.config)
        # The command and flags override the file, so check the result again
        # (``smolkit gelscan`` also checks the rules of gelscan mode).
        overrides = {"mode": "gelscan"} if args.command == "gelscan" else {}
        if args.workers is not None:
            overrides["workers"] = args.workers
        scenario = dataclasses.replace(scenario, **overrides)
        _validate(scenario, args.config)
        return execute(scenario, out_override=args.out)
    except HypothesisError as err:
        # Raised by a run that refutes a hypothesis the file supplied.
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError, RuntimeError, OSError) as err:
        # Named by type: a worker process that died reads BrokenProcessPool.
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
