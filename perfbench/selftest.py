"""Self-test of the benchmark's own span arithmetic and wrapper handling.

    python3 perfbench/selftest.py

It checks that self time is span minus covered children (nested and
threaded), that worker-thread spans join the tree of the span that started
the pool, that every wrapper is removed after a traced run, and that
``BENCHMARK.json`` names exactly the metrics the benchmark prints.  It lives
outside ``tests/`` so the project's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, busy, covered, self_time  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_interval_arithmetic() -> None:
    check(covered([]) == 0.0, "empty union")
    check(covered([(0, 2), (1, 3), (5, 6)]) == 4.0, "overlapping union")
    check(covered([(0, 10), (2, 3)]) == 10.0, "contained interval")
    # (id, parent, name, start, end, thread, info)
    tree = [
        (1, None, "rates", 0.0, 10.0, 1, None),
        (2, 1, "gain_all", 1.0, 4.0, 1, None),
        (3, 1, "loss", 5.0, 7.0, 1, None),
        (4, None, "rates", 20.0, 30.0, 1, None),
        (5, 4, "gain_all", 21.0, 29.0, 1, None),
    ]
    check(self_time(tree, "rates") == (10 - 5) + (10 - 8), "nested self time")
    check(busy(tree, "gain_all") == 11.0, "busy time of a nested layer")
    threaded = [
        (1, None, "simulate", 0.0, 10.0, 1, None),
        (2, 1, "rate_row", 1.0, 3.0, 2, None),
        (3, 1, "rate_row", 2.0, 5.0, 3, None),
        (4, 1, "rate_row", 9.0, 12.0, 2, None),
    ]
    check(busy(threaded, "rate_row") == 7.0, "busy time is the union across threads")
    check(self_time(threaded, "simulate") == 10.0 - 4.0 - 1.0, "overlapping children clipped to the parent")


def test_recorder_threads() -> None:
    rec = Recorder()

    def leaf(x):
        time.sleep(0.01)
        return x

    leaf = rec.wrap("leaf", leaf)

    def pool_parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(leaf, range(6)))

    def nested():
        return leaf(1) + leaf(2)

    check(rec.wrap("pool", pool_parent)() == 15, "wrapped result passes through")
    check(rec.wrap("nested", nested)() == 3, "nested result passes through")
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[2], []).append(s)
    pool_id = by_name["pool"][0][0]
    nested_id = by_name["nested"][0][0]
    parents = sorted(s[1] for s in by_name["leaf"])
    check(parents == [pool_id] * 6 + [nested_id] * 2, f"leaf parents {parents}")
    threads = {s[5] for s in by_name["leaf"] if s[1] == pool_id}
    check(threading.main_thread().ident not in threads, "pool leaves ran on worker threads")
    pool = by_name["pool"][0]
    kids = [(s[3], s[4]) for s in by_name["leaf"] if s[1] == pool_id]
    want = (pool[4] - pool[3]) - covered(kids)
    check(math.isclose(self_time(rec.spans, "pool"), want, rel_tol=0, abs_tol=1e-12), "threaded self time")


def _binding(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_and_remove() -> None:
    import smolkit.cli as cli

    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "tiny.cfg"
    cfg.write_text(
        "\n".join(
            [
                "name = tiny",
                "mode = tracer",
                "seed = 5",
                "kernel.kind = constant",
                "diffusion.kind = constant",
                "diffusion.value = 0.05",
                "grid.cells = 8",
                "run.n_max = 8",
                "run.t_final = 0.2",
                "run.dt = 0.01",
                "tracer.count = 3000",
                "tracer.slices = 4",
                "",
            ]
        ),
        encoding="utf-8",
    )
    probe = Recorder()
    spans.install(probe)
    patched = [(owner, attr) for owner, attr, _ in probe.installed()]
    probe.remove()
    originals = {(id(owner), attr): _binding(owner, attr) for owner, attr in patched}

    rec = spans.install(Recorder())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg), "--workers", "2", "--out", str(work / "out")])
    finally:
        rec.remove()
    check(code == 0, f"tiny tracer scenario exit code {code}")
    for owner, attr in patched:
        check(_binding(owner, attr) is originals[(id(owner), attr)], f"{attr} restored")

    by_id = {s[0]: s for s in rec.spans}
    rates = [s for s in rec.spans if s[2] == "coagulation.rates"]
    gains = [s for s in rec.spans if s[2] == "coagulation.gain_all"]
    check(rates and all(by_id[g[1]][2] == "coagulation.rates" for g in gains), "gain_all nests in rates")
    rows = [s for s in rec.spans if s[2] == "kernels.rate_row"]
    check(rows and all(by_id[r[1]][2] == "tracer.simulate" for r in rows), "rate_row parented to simulate")
    m = layers.layer_metrics(rec.spans, 0)
    check(m["coagulation.rates.calls"] == 4 * m["integrator.steps_accepted"], "four rates calls per step")
    check(m["tracer.traj_slices_computed"] == 3000 * 4, "trajectory-slices")
    sim = [s for s in rec.spans if s[2] == "tracer.simulate"][0]
    kids = [(max(s[3], sim[3]), min(s[4], sim[4])) for s in rec.spans if s[1] == sim[0]]
    check(
        math.isclose(m["tracer.self_s"], (sim[4] - sim[3]) - covered(kids), rel_tol=0, abs_tol=1e-12),
        "tracer self time",
    )
    shutil.rmtree(work, ignore_errors=True)


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workload names")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END_UNITS, "end-to-end metrics and units")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(per_layer == {k: unit for k, (unit, _) in layers.METRICS.items()}, "per-layer metrics and units")


def main() -> int:
    os.chdir(ROOT)
    tests = [test_interval_arithmetic, test_recorder_threads, test_install_and_remove, test_benchmark_json]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
