"""The benchmark's correctness gates, applied to the shipped scenarios.

``perfbench/checks.py`` decides whether a benchmark run's outputs are
correct: the ``series.csv`` columns against ``perfbench/reference/`` within
1e-9 of each column's maximum (1e-10 absolute for ``cons_drift``), the
closed form of the constant-kernel run, and the digest of the tracer
histogram at the shipped seed.  Running the same checks here shows a change
that would fail them before a benchmark run does.  The span wrappers of
``perfbench/spans.py`` are installed and removed here too, so a binding
they patch that the package no longer has fails this suite rather than a
traced benchmark run.  The perfbench modules are only read, never edited.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from smolkit.cli import execute, parse_config

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark runs tracer_consistency with two workers and gelation_scan
# with the usable CPUs; their outputs are the same for any worker count.
@pytest.mark.parametrize(
    "workload, workers",
    [("coagulation_diffusion", 1), ("constant_homogeneous", 1), ("tracer_consistency", 2), ("gelation_scan", 2)],
)
def test_shipped_scenario_passes_the_benchmark_checks(workload, workers, tmp_path):
    checks = load_perfbench("checks")
    s = dataclasses.replace(parse_config(ROOT / "configs" / f"{workload}.cfg"), workers=workers)
    code = execute(s, out_override=str(tmp_path))
    assert checks.check_run(workload, tmp_path, code, shipped_seed=True) == []


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_span_wrappers_patch_existing_bindings_and_restore_them():
    """Every binding the traced benchmark wraps exists, is wrapped, and is
    the original again after ``remove``."""
    spans = load_perfbench("spans")
    rec = spans.Recorder()
    try:
        spans.install(rec)
        installed = rec.installed()
        assert installed
        for owner, attr, original in installed:
            assert current(owner, attr).__wrapped__ is original, attr
    finally:
        rec.remove()
    for owner, attr, original in installed:
        assert current(owner, attr) is original, attr
