"""Forked worker processes: a map over independent items, and one sink.

This module is the one place smolkit starts processes.  :func:`fork_map`
maps a function over independent items in forked workers: the tracer maps
its chunks through it and the CLI's refinement ladder its levels.
:func:`fork_sink` hands a stream of items to one persistent forked process
while the caller goes on: the CLI writes a run's snapshots through it.

The function reaches the processes through the fork, never through pickle,
so closures over large read-only arrays cost nothing to hand over.  A map
sends out only each item's index and gets back its result; a sink sends
each item through a pipe.  ``multiprocessing`` is imported only when a
process is about to start, so runs that never fork never load it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` multiprocessing context, or None where ``fork`` is
    unavailable.  Imported here, so runs that never fork never load it."""
    import multiprocessing

    # Named explicitly: the default start method differs across Python
    # versions and platforms, and only fork hands a function over unpickled.
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


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
    if processes <= 1 or (ctx := _fork_context()) is None:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(processes, mp_context=ctx, initializer=_install, initargs=(fn, items)) as pool:
        return list(pool.map(_run_installed, range(len(items))))


def _consume(fn: Callable, conn) -> None:
    """A sink process: ``fn`` on each item until the closing None, then one
    reply, None or the exception that stopped it."""
    try:
        while (item := conn.recv()) is not None:
            fn(item)
    except Exception as err:
        conn.send(err)  # the caller re-raises it
    else:
        conn.send(None)


class _ForkedSink:
    """The caller's end of one sink process, forked at the first item;
    where ``fork`` is unavailable, ``fn`` runs here instead."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.proc = self.conn = None

    def put(self, item) -> None:
        if self.proc is None:
            ctx = _fork_context()
            if ctx is None:
                self.fn(item)
                return
            self.conn, child = ctx.Pipe()
            self.proc = ctx.Process(target=_consume, args=(self.fn, child))
            self.proc.start()
            child.close()
        try:
            self.conn.send(item)
        except OSError:
            # The process has failed and exited; its reply says why.
            self.finish()

    def finish(self) -> None:
        """Close the stream, reap the process, and raise what it reported."""
        if self.proc is None:
            return
        try:
            self.conn.send(None)
        except OSError:
            pass  # the process has stopped reading; its reply is waiting
        try:
            err = self.conn.recv()
        except (EOFError, OSError):  # closed, or reset with items unread
            code = self.stop(terminate=False)
            raise RuntimeError(f"sink process exited with code {code} before replying") from None
        self.stop(terminate=False)
        if err is not None:
            raise err

    def stop(self, terminate: bool) -> int | None:
        """Reap the process, terminating it first if asked; its exit code."""
        if self.proc is None:
            return None
        if terminate:
            self.proc.terminate()
        self.proc.join()
        self.conn.close()
        code, self.proc = self.proc.exitcode, None
        return code


@contextmanager
def fork_sink(fn: Callable, workers: int) -> Iterator[Callable[[object], None]]:
    """Yield ``put(item)``, which has ``fn(item)`` called on each item, in order.

    With ``workers > 1`` and ``fork`` available, each item goes through a
    pipe to one process, forked at the first ``put``, which calls ``fn``
    while this process goes on; a sink that is fed nothing starts nothing
    and loads nothing.  Otherwise ``put`` calls ``fn`` here.  Items must
    not be None.

    Leaving the block normally waits until the process has handled every
    item, then reaps it.  Leaving it by an exception terminates and reaps
    the process without waiting.  An exception ``fn`` raises in the process
    is re-raised here, by a later ``put`` or on leaving the block; a process
    that dies without replying raises ``RuntimeError``.
    """
    if workers <= 1:
        yield fn
        return
    sink = _ForkedSink(fn)
    try:
        yield sink.put
        sink.finish()
    finally:
        sink.stop(terminate=True)
