"""Map a function over independent items in forked worker processes.

:func:`fork_map` is the one place smolkit starts processes: the tracer maps
its chunks through it and the CLI's refinement ladder its levels.  The
function and the items reach the workers through the fork, never through
pickle, so closures over large read-only arrays cost nothing to hand over;
only each item's index goes out and only its result comes back.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The function and items of a worker process, set once by its initializer.
_INSTALLED: tuple[Callable, Sequence] | None = None


def _install(fn: Callable, items: Sequence) -> None:
    global _INSTALLED
    _INSTALLED = (fn, items)


def _run_installed(index: int):
    fn, items = _INSTALLED
    return fn(items[index])


def fork_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, in up to ``workers`` forked processes.

    With ``workers > 1`` and more than one item, the items run in
    ``min(workers, len(items))`` worker processes forked from this one, each
    taking the next item in order as it becomes free; results come back in
    item order.  Otherwise, and where ``fork`` is unavailable, the items run
    here, one after another.  Results are therefore the same for any
    ``workers`` as long as ``fn`` reads only its item and state it shares
    read-only.

    Anything a worker changes stays in that worker: module state, spans
    recorded by wrappers, monkeypatched counters and log handlers in this
    process see none of the calls made there.  A worker that dies (killed,
    or ``os._exit``) raises ``BrokenProcessPool`` here instead of leaving
    the map waiting; an exception ``fn`` raises is re-raised here.
    """
    items = list(items)
    processes = min(workers, len(items))
    if processes <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    # Imported here so that runs which never fork never load it.
    from concurrent.futures import ProcessPoolExecutor

    # Named explicitly: the default start method differs across Python
    # versions and platforms, and only fork hands ``fn`` over unpickled.
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(processes, mp_context=ctx, initializer=_install, initargs=(fn, items)) as pool:
        return list(pool.map(_run_installed, range(len(items))))
