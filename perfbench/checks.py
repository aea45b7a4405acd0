"""Correctness checks on the files one scenario run leaves in its output directory.

Each check returns a list of failure messages; an empty list means the run
is correct.  The solver's CSV columns are compared to the committed copies
in ``reference/`` within ``SERIES_RTOL`` of each column's largest magnitude,
not byte for byte, so a change that only moves roundoff still passes.  The
conservation-drift column is roundoff itself and is held to the run's own
conservation gate instead.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

SERIES_RTOL = 1e-9
DRIFT_ATOL = 1e-10
# sha256 of histogram.csv from tracer_consistency at its shipped seed.
HISTOGRAM_SHA256 = "2e253dd1c1c3416b672b06efef38f49941b6267e14a74fbefe9e2f3282536c93"
TRACER_TV_MAX = 0.02
TRACER_Z_MAX = 4.0
CLOSED_FORM_RTOL = 1e-4
GEL_MIN = 0.1
GEL_MASS_RATIO = 0.5
GEL_MASS_ATOL = 1e-3


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path) -> dict[str, list[float]]:
    """Columns of a smolkit CSV whose first line is a schema comment."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def compare_table(out: Path, ref: Path) -> list[str]:
    got, want = read_table(out), read_table(ref)
    if list(got) != list(want):
        return [f"{out.name}: columns {list(got)} differ from reference {list(want)}"]
    failures = []
    for name, ref_col in want.items():
        col = got[name]
        if len(col) != len(ref_col):
            failures.append(f"{out.name}: {name} has {len(col)} rows, reference {len(ref_col)}")
            continue
        tol = DRIFT_ATOL if name == "cons_drift" else SERIES_RTOL * max(abs(v) for v in ref_col)
        worst = max(abs(a - b) for a, b in zip(col, ref_col))
        if worst > tol:
            failures.append(f"{out.name}: column {name} differs from reference by {worst:.3g} > {tol:.3g}")
    return failures


def gate_lines(report: Path) -> list[str]:
    """Every monitor line the CLI wrote must read PASS."""
    return [
        f"report.txt: {line}"
        for line in report.read_text(encoding="utf-8").splitlines()
        if line.startswith("FAIL")
    ]


def check_gelation_scan(out: Path) -> list[str]:
    failures = compare_table(out / "gelscan.csv", REFERENCE / "gelation_scan.gelscan.csv")
    if "GELLING" not in (out / "report.txt").read_text(encoding="utf-8"):
        failures.append("report.txt: verdict is not GELLING")
    table = read_table(out / "gelscan.csv")
    gel, ratio = table["gel"][-1], table["mass_ratio"][-1]
    if not gel >= GEL_MIN:
        failures.append(f"gelscan.csv: G(T) = {gel!r} < {GEL_MIN} at the largest N")
    if not abs(ratio - GEL_MASS_RATIO) <= GEL_MASS_ATOL:
        failures.append(f"gelscan.csv: I(T)/I(0) = {ratio!r} not within {GEL_MASS_ATOL} of {GEL_MASS_RATIO}")
    return failures


def check_constant_homogeneous(out: Path) -> list[str]:
    failures = compare_table(out / "series.csv", REFERENCE / "constant_homogeneous.series.csv")
    table = read_table(out / "series.csv")
    t, x0 = table["t"][-1], table["X0"][-1]
    exact = 1.0 / (1.0 + t)
    if not abs(x0 - exact) <= CLOSED_FORM_RTOL * exact:
        failures.append(f"series.csv: X0({t!r}) = {x0!r}, closed form {exact!r}")
    return failures


def check_coagulation_diffusion(out: Path) -> list[str]:
    failures = compare_table(out / "series.csv", REFERENCE / "coagulation_diffusion.series.csv")
    snapshots = sorted((out / "snapshots").glob("snapshot_*.csv"))
    if len(snapshots) != len(read_table(out / "series.csv")["t"]):
        failures.append(f"snapshots: {len(snapshots)} files, one per series row expected")
    return failures


def check_tracer_consistency(out: Path, shipped_seed: bool) -> list[str]:
    failures = compare_table(out / "series.csv", REFERENCE / "tracer_consistency.series.csv")
    summary = read_table(out / "summary.csv")
    for tv, z in zip(summary["tv"], summary["max_abs_z"]):
        if not tv <= TRACER_TV_MAX:
            failures.append(f"summary.csv: TV {tv!r} > {TRACER_TV_MAX}")
        if not z <= TRACER_Z_MAX:
            failures.append(f"summary.csv: max|z| {z!r} > {TRACER_Z_MAX}")
    if shipped_seed and sha256(out / "histogram.csv") != HISTOGRAM_SHA256:
        failures.append("histogram.csv: differs from the reference digest for the shipped seed")
    return failures


def check_run(workload: str, out: Path, exit_code: int, shipped_seed: bool) -> list[str]:
    """All checks for one finished run of ``workload``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        failures = gate_lines(out / "report.txt")
        if workload == "gelation_scan":
            failures += check_gelation_scan(out)
        elif workload == "constant_homogeneous":
            failures += check_constant_homogeneous(out)
        elif workload == "coagulation_diffusion":
            failures += check_coagulation_diffusion(out)
        else:
            failures += check_tracer_consistency(out, shipped_seed)
    except (OSError, KeyError, ValueError, IndexError) as err:
        failures = [f"unreadable output: {err!r}"]
    return failures


# The file whose bytes must repeat across runs of one seed.
DETERMINISTIC_OUTPUT = {
    "gelation_scan": "gelscan.csv",
    "constant_homogeneous": "series.csv",
    "coagulation_diffusion": "series.csv",
    "tracer_consistency": "histogram.csv",
}
