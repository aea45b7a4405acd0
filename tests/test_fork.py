"""fork_map: item order, in-process fallbacks, worker errors and dead workers."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from smolkit import _fork
from smolkit._fork import fork_map, usable_cpus
from smolkit.integrator import StepSizeError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def no_fork():
    raise AssertionError("a process was started")


def run_python(code: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that sees eight usable CPUs, as
    the tests here do; the timeout turns a hang into a failure."""
    env = dict(os.environ, PYTHONPATH=SRC)
    pin = "import smolkit._fork\nsmolkit._fork.usable_cpus = lambda: 8\n"
    return subprocess.run(
        [sys.executable, "-c", pin + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_results_come_back_in_item_order(workers):
    # A closure over an array: it reaches the workers through the fork,
    # since a local function cannot be pickled.
    table = np.arange(10.0) ** 2

    def square_plus_pid(i):
        return table[i], os.getpid()

    out = fork_map(square_plus_pid, range(10), workers)
    assert [v for v, _ in out] == list(table)
    pids = {pid for _, pid in out}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and 1 <= len(pids) <= workers


def test_map_starts_at_most_one_process_per_usable_cpu(monkeypatch):
    """5,000 workers over 12,208 items, the tracer's chunks for 1e8 tracers,
    ask for two processes on two CPUs; the fake pool starts none, so the
    items run here."""
    asked = []

    def record(processes, fn):
        asked.append(processes)
        return None

    monkeypatch.setattr(_fork, "_forked_pool", record)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    assert fork_map(lambda x: x + 1, range(12_208), 5_000) == list(range(1, 12_209))
    assert asked == [2]


@pytest.mark.parametrize(
    "workers, items, methods", [(1, range(5), None), (4, [7], None), (2, range(3), ["spawn"]), (2, [], None)]
)
def test_one_worker_one_item_or_no_fork_runs_here(monkeypatch, workers, items, methods):
    import multiprocessing

    if methods is not None:  # a platform without fork
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(lambda x: x + 1, items, workers) == [x + 1 for x in items]


def test_worker_exception_is_reraised_with_its_type():
    def fail_on_two(i):
        if i == 2:
            raise StepSizeError(0.5, 3.0, 7, 1)
        return i

    with pytest.raises(StepSizeError) as info:
        fork_map(fail_on_two, range(4), 2)
    assert (info.value.dt, info.value.lam, info.value.species, info.value.cell) == (0.5, 3.0, 7, 1)


@pytest.mark.parametrize("fails", [False, True])
def test_map_reaps_its_processes(fails):
    """A map that returns, or re-raises what a worker raised, leaves no child."""

    def item(i):
        if fails and i == 2:
            raise KeyError(i)
        return i

    if fails:
        with pytest.raises(KeyError):
            fork_map(item, range(4), 2)
    else:
        assert fork_map(item, range(4), 2) == list(range(4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dead_worker_raises_instead_of_hanging():
    """A worker that exits mid-item breaks the pool; the map must raise."""
    proc = run_python(
        """
        import os
        from smolkit._fork import fork_map

        fork_map(lambda i: os._exit(3) if i == 1 else i, range(4), 2)
        """
    )
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr


def test_cli_names_a_dead_worker(tmp_path):
    """A gelscan level whose worker dies exits 1 and names the error."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "name = dead\nmode = gelscan\nkernel.kind = product\nrun.n_max = 32\n"
        "gelscan.n_list = 8,16,32\nrun.t_final = 0.5\n"
    )
    proc = run_python(
        f"""
        import os, sys
        import smolkit.cli as cli
        from smolkit.cli import main

        run_level = cli._run_level

        def die_on_16(kernel, level):
            if level[0].n_max == 16:
                os._exit(3)
            return run_level(kernel, level)

        cli._run_level = die_on_16
        sys.exit(main(["gelscan", {str(cfg)!r}, "--workers", "2", "--out", {str(tmp_path / "out")!r}]))
        """
    )
    assert proc.returncode == 1
    assert "runtime error: BrokenProcessPool" in proc.stderr


def test_cli_names_a_dead_snapshot_writer(tmp_path):
    """A snapshot writer that dies fails the run like any other worker,
    and leaves no ``snapshots/`` and no child behind."""
    cfg = tmp_path / "pde.cfg"
    cfg.write_text(
        "name = dead\nmode = pde\nkernel.kind = sum\ndiffusion.kind = power_law\ndiffusion.r2 = 1.0\n"
        "diffusion.b2 = 0.5\ngrid.dim = 1\ngrid.cells = 8\ninitial.kind = gaussian_blob\nrun.n_max = 8\n"
        "run.t_final = 0.1\nrun.dt = 0.005\nrun.output_stride = 0.05\nrun.record_fields = true\n"
    )
    out = tmp_path / "out"
    proc = run_python(
        f"""
        import os, sys
        import smolkit.cli as cli
        from smolkit.cli import main

        cli._write_snapshot = lambda *args: os._exit(3)
        code = main(["run", {str(cfg)!r}, "--workers", "2", "--out", {str(out)!r}])
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            sys.exit(code)
        sys.exit("a child was left")
        """
    )
    assert proc.returncode == 1, proc.stderr
    assert "runtime error: BrokenProcessPool" in proc.stderr
    assert not (out / "snapshots").exists()


def test_importing_the_cli_loads_no_multiprocessing():
    """Runs that never fork skip its import cost (about 10 ms)."""
    proc = run_python(
        """
        import sys
        import smolkit.cli

        print(sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
        """
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1
