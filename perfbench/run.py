"""smolkit benchmark: the four shipped scenarios, each run as a fresh CLI process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Load model: a closed loop with one client.  One scenario process runs at a
time and the next starts only after the previous one exits.  BLAS is pinned
to one thread; ``tracer_consistency`` runs with ``--workers 2``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: it runs
the scenario back to back for ``--seconds`` (at least ``MIN_RUNS`` times) and
interleaves ``SETUP_PROBES`` processes that stop at the first time step.
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics from the traced ones plus the tracing overhead.

Every run's outputs are checked (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment and the
host-drift probe, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = 1
# Pin BLAS before numpy loads here, and for every child through ENV below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "gelation_scan": ["gelscan"],
    "coagulation_diffusion": ["run"],
    "tracer_consistency": ["run", "--workers", "2"],
    "constant_homogeneous": ["run"],
}
SETUP_PROBES = 20
MIN_RUNS = 2
# Every child is killed once the whole benchmark has run this long.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.started = now()
        self.work = ROOT / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SMOLKIT_OUT", None)
        text = (ROOT / "configs" / f"{workload}.cfg").read_text(encoding="utf-8")
        shipped = int(re.search(r"(?m)^seed\s*=\s*(\d+)", text).group(1))
        # Workload seed 0 is the shipped config; only the tracer reads the seed.
        self.config_seed = shipped + seed
        self.shipped_seed = seed == 0
        self.config = self.work / f"{workload}.cfg"
        self.config.write_text(
            re.sub(r"(?m)^seed\s*=.*$", f"seed = {self.config_seed}", text), encoding="utf-8"
        )
        self.runs: list[dict] = []
        self.failures: list[str] = []
        self._n = 0

    def cli_args(self, out: Path) -> list[str]:
        cmd = WORKLOADS[self.workload]
        return [cmd[0], str(self.config), *cmd[1:], "--out", str(out)]

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, int, float]:
        """Run one child to exit; returns (spawn time, wall s, exit code, peak RSS MB)."""
        with open(log, "wb") as fh:
            t0 = now()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.started + DEADLINE_S - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = now() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, wall, proc.returncode, usage.ru_maxrss / 1024.0

    def _slot(self) -> tuple[Path, Path]:
        self._n += 1
        return self.work / f"out-{self._n}", self.work / f"log-{self._n}.txt"

    def scenario(self, traced: bool) -> dict:
        """One full scenario process, checked; its outputs are removed if it passed."""
        out, log = self._slot()
        spans_file = self.work / f"spans-{self._n}.json"
        argv = [sys.executable]
        if traced:
            argv += [str(HERE / "child.py"), "trace", str(spans_file), "--"]
        else:
            argv += ["-m", "smolkit.cli"]
        _, wall, code, rss = self.spawn(argv + self.cli_args(out), log)
        failures = checks.check_run(self.workload, out, code, self.shipped_seed)
        result = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss, "exit_code": code}
        key = out / checks.DETERMINISTIC_OUTPUT[self.workload]
        result["digest"] = hashlib.sha256(key.read_bytes()).hexdigest() if key.exists() else None
        if traced and not failures:
            trace = json.loads(spans_file.read_text(encoding="utf-8"))
            if not trace["restored"]:
                failures.append("a wrapper was still installed after the traced run")
            size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            result["layers"] = layers.layer_metrics(trace["spans"], size)
            spans_file.unlink()
        if failures:
            result["failures"] = failures
            self.failures += [f"run {self._n}: {msg}" for msg in failures]
            print(f"run {self._n} FAILED: " + "; ".join(failures), file=sys.stderr)
            print(log.read_text(encoding="utf-8", errors="replace")[-2000:], file=sys.stderr)
        else:
            shutil.rmtree(out, ignore_errors=True)
            log.unlink()
        self.runs.append(result)
        return result

    def setup_probe(self) -> float | None:
        """Seconds from spawn to the first time step, from a process stopped there."""
        out, log = self._slot()
        marker = self.work / f"marker-{self._n}"
        argv = [sys.executable, str(HERE / "child.py"), "setup", str(marker), "--"] + self.cli_args(out)
        t0, _, code, _ = self.spawn(argv, log)
        if code != 0 or not marker.exists():
            self.failures.append(f"setup probe {self._n}: exit code {code}, no first step reached")
            return None
        setup = float(marker.read_text(encoding="utf-8")) - t0
        shutil.rmtree(out, ignore_errors=True)
        log.unlink()
        marker.unlink()
        return setup

    def measure(self, trace: bool) -> tuple[dict, list[float]]:
        """Run scenarios until the next one would end past ``--seconds``.

        Returns the host-drift probe and the set-up times.
        """
        self.setup_probe()  # warm-up: byte-compiles smolkit and fills the file cache
        calibration = calibrate()
        window_start = now()
        window_end = window_start + self.seconds
        setups: list[float | None] = []
        while True:
            self.scenario(traced=False)
            if trace:
                self.scenario(traced=True)
                next_cost = self.runs[-1]["wall_s"] + self.runs[-2]["wall_s"]
            else:
                # Spread the probes over the window so they see the same host phases.
                while len(setups) < min(SETUP_PROBES, SETUP_PROBES * (now() - window_start) / self.seconds):
                    setups.append(self.setup_probe())
                next_cost = statistics.median(r["wall_s"] for r in self.runs)
            if (trace or len(self.runs) >= MIN_RUNS) and now() + next_cost > window_end:
                break
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        return calibration, [s for s in setups if s is not None]

    def check_repeats(self) -> None:
        """Outputs of one seed must repeat byte for byte, traced or not."""
        digests = {r["digest"] for r in self.runs}
        if len(digests) != 1:
            self.failures.append(f"{checks.DETERMINISTIC_OUTPUT[self.workload]} differs between runs of one seed")
            for r in self.runs:
                r.setdefault("failures", []).append("output not repeated")
        counted = [r["layers"] for r in self.runs if "layers" in r]
        for name in counted[0] if counted else ():
            values = {c[name] for c in counted}
            if layers.METRICS[name][1] and len(values) != 1:
                self.failures.append(f"count {name} differs between traced runs: {sorted(values)}")


def calibrate(reps: int = 5) -> dict:
    """Host-drift probe: fixed pure-Python and numpy loops, medians of ``reps``."""
    py, npy = [], []
    a = np.random.default_rng(0).random((128, 128))
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        py.append(time.perf_counter() - t)
        t = time.perf_counter()
        b = a
        for _ in range(40):
            b = (b @ a) / 128.0
            np.fft.rfft(b, axis=1)
        npy.append(time.perf_counter() - t)
    return {
        "python_loop_s": statistics.median(py),
        "numpy_loop_s": statistics.median(npy),
        "reps": reps,
        "note": "diagnostic only; no metric is rescaled by it",
    }


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "load_model": "closed loop, one client",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    # Only the checkout's own repository counts; an exported tree has none.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], env=git_env, capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    env["git_commit"] = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    env["git_dirty"] = None if status is None else bool(status)
    return env


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    v = sorted(values)
    out = {"median": statistics.median(v), "n": len(v), "tail": None}
    if len(v) >= 11:
        k = len(v) - 11
        out["tail"] = {"percentile": 100.0 * (k + 1) / len(v), "value": v[k]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in ("src/smolkit/cli.py", f"configs/{args.workload}.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a smolkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    calibration, setups = bench.measure(trace=bool(args.trace))
    bench.check_repeats()
    plain = [r for r in bench.runs if not r["traced"]]
    stats = {
        "wall_s": summary([r["wall_s"] for r in plain]),
        "setup_s": summary(setups) if setups else None,
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
    }
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r.get("failures"))
    correct = not bench.failures

    if args.trace:
        traced = [r for r in bench.runs if r["traced"] and "layers" in r]
        metrics = {}
        if traced:
            for name, (unit, exact) in layers.METRICS.items():
                if name in traced[0]["layers"]:
                    values = [r["layers"][name] for r in traced]
                    metrics[name] = {"value": values[0] if exact else statistics.median(values), "unit": unit}
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_wall - stats["wall_s"]["median"], "unit": "s"}
        else:
            correct = False
    elif stats["setup_s"] is None:
        correct = False
        metrics = {}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": bench.config_seed,
        "seed_consumers": "only the tracer (tracer_consistency) reads the seed today",
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "calibration": calibration,
        "end_to_end": stats,
        "fail_frac": failed / attempted,
        "failures": bench.failures,
        "runs": bench.runs,
        "metrics": metrics,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if correct:
        shutil.rmtree(bench.work, ignore_errors=True)

    for name, s in stats.items():
        if s is not None:
            tail = f", p{s['tail']['percentile']:.0f} {s['tail']['value']:.4g}" if s["tail"] else ""
            print(f"{args.workload} {name}: median {s['median']:.4g}{tail} (n={s['n']})")
    print(f"{args.workload} fail_frac: {failed}/{attempted}")
    print(
        f"host probe: python {calibration['python_loop_s']:.4g} s, numpy {calibration['numpy_loop_s']:.4g} s"
        f"; results in {path.relative_to(ROOT)}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
