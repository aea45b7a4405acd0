"""The benchmark's correctness gates, applied to the shipped scenarios.

``perfbench/checks.py`` decides whether a benchmark run's outputs are
correct: the ``series.csv`` columns against ``perfbench/reference/`` within
1e-9 of each column's maximum (1e-10 absolute for ``cons_drift``), the
closed form of the constant-kernel run, and the digest of the tracer
histogram at the shipped seed.  Running the same checks here shows a change
that would fail them before a benchmark run does.  The checks module is
only read, never edited.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from smolkit.cli import execute, parse_config

ROOT = Path(__file__).resolve().parent.parent


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark runs tracer_consistency with two workers; its histogram is
# the same for any worker count.
@pytest.mark.parametrize(
    "workload, workers",
    [("coagulation_diffusion", 1), ("constant_homogeneous", 1), ("tracer_consistency", 2)],
)
def test_shipped_scenario_passes_the_benchmark_checks(workload, workers, tmp_path):
    checks = load_checks()
    s = dataclasses.replace(parse_config(ROOT / "configs" / f"{workload}.cfg"), workers=workers)
    code = execute(s, out_override=str(tmp_path))
    assert checks.check_run(workload, tmp_path, code, shipped_seed=True) == []
