"""Forked worker processes: a map over independent items.

This module is the one place smolkit starts processes, all of them in a
``ProcessPoolExecutor`` made by :func:`_forked_pool`.  :func:`fork_map`
maps a function over independent items in forked workers: the tracer maps
its chunks through it, the CLI's refinement ladder its levels and the CLI's
snapshot writer a finished run's recorded fields.

The function reaches the processes through the fork, never through pickle,
so closures over large read-only arrays cost nothing to hand over: a map
sends out only each item's index and gets back its result.
``multiprocessing`` and ``concurrent`` are imported only when a process is
about to start, so runs that never fork never load them.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The function of a worker process, set once by its initializer.
_INSTALLED: Callable | None = None


def _install(fn: Callable) -> None:
    global _INSTALLED
    _INSTALLED = fn


def _call_installed(arg):
    return _INSTALLED(arg)


def _forked_pool(processes: int, fn: Callable):
    """A ``ProcessPoolExecutor`` of ``processes`` workers forked from this
    one, in which :func:`_call_installed` calls ``fn``; None where ``fork``
    is unavailable.  Its workers start at its first submitted call."""
    import multiprocessing

    # Named explicitly: the default start method differs across Python
    # versions and platforms, and only fork hands a function over unpickled.
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(processes, mp_context=ctx, initializer=_install, initargs=(fn,))


def fork_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, in up to ``workers`` forked processes.

    With ``workers > 1`` and more than one item, the items run in
    ``min(workers, len(items), usable_cpus())`` worker processes forked from
    this one, each taking the next item in order as it becomes free; results
    come back in item order.  Otherwise, and where ``fork`` is unavailable, the items run
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
    processes = min(workers, len(items), usable_cpus())
    if processes <= 1 or (pool := _forked_pool(processes, lambda i: fn(items[i]))) is None:
        return [fn(item) for item in items]
    with pool:
        return list(pool.map(_call_installed, range(len(items))))

