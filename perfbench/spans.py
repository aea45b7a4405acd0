"""In-memory span recording around smolkit's public entry points.

A span is one call of a wrapped function: ``(id, parent, name, start, end,
thread, info)``.  Parents are tracked per thread.  A span that opens on a
thread with no open span of its own (a tracer worker thread) takes the
innermost open span of the main thread as its parent, which is where
smolkit starts its worker pools.

``install`` puts wrappers on the bindings that smolkit's own code looks up
at call time (module globals, class attributes, and the names ``smolkit.cli``
imported), and ``Recorder.remove`` puts the originals back.

``busy``, ``self_time`` and ``covered`` hold the span arithmetic the layer
metrics are built from.  ``perfbench/selftest.py`` checks it.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans from wrapped callables; thread-safe under the GIL."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``info(args, kwargs, result)``, if given, returns a small JSON-able
        value stored with the span (shapes, counts).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = info(args, kwargs, result) if info is not None else None
            self.spans.append((sid, parent, name, start, end, tid, extra))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper, remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def remove(self) -> None:
        """Restore every patched binding, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def installed(self) -> list[tuple[object, str, object]]:
        return list(self._installed)


# -- what gets wrapped ---------------------------------------------------


def _flat_shape(args, kwargs, result):
    return list(args[1].shape)


def _data_shape(args, kwargs, result):
    return list(args[0].shape)


def _path_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _halvings(args, kwargs, result):
    return sum(1 for e in result.events if "halved dt" in e)


def _ensemble(args, kwargs, result):
    counts = result.collision_counts
    collisions = int(sum(k * int(c) for k, c in enumerate(counts)))
    return [int(result.count), len(args[0]), collisions]


MONITORS = (
    "check_conservation",
    "check_heat_majorant",
    "check_gronwall",
    "check_moment_bound",
    "collision_budget",
    "density_consistency",
)


def install(rec: Recorder) -> Recorder:
    """Wrap smolkit's public entry points in spans; returns ``rec``."""
    import smolkit.analysis as analysis
    import smolkit.cli as cli
    import smolkit.integrator as integrator
    from smolkit.coagulation import RateEvaluator
    from smolkit.kernels import Kernel

    rec.patch(RateEvaluator, "__init__", "coagulation.init")
    rec.patch(RateEvaluator, "rates", "coagulation.rates", _flat_shape)
    rec.patch(RateEvaluator, "gain_all", "coagulation.gain_all")
    rec.patch(RateEvaluator, "loss_coefficients", "coagulation.loss_coefficients")
    rec.patch(Kernel, "rate_row", "kernels.rate_row")
    rec.patch(Kernel, "dense", "kernels.dense")
    rec.patch(integrator, "heat_step_batched", "diffusion.heat_step_batched", _data_shape)
    rec.patch(analysis, "homogeneous_run", "integrator.homogeneous_run", _halvings)
    rec.patch(cli, "run", "integrator.run", _halvings)
    rec.patch(cli, "homogeneous_run", "integrator.homogeneous_run", _halvings)
    rec.patch(cli, "simulate", "tracer.simulate", _ensemble)
    rec.patch(cli, "gelation_scan", "analysis.gelation_scan")
    for fn in MONITORS:
        rec.patch(cli, fn, "analysis.monitor." + fn)
    rec.patch(cli, "parse_config", "cli.parse_config")
    rec.patch(cli, "write_series_csv", "cli.write_series_csv", _path_size)
    rec.patch(cli, "write_field_csv", "cli.write_field_csv", _path_size)
    return rec


# -- span arithmetic -----------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy(spans, name: str) -> float:
    """Time during which at least one span called ``name`` was open."""
    return covered((s[3], s[4]) for s in spans if s[2] == name)


def self_time(spans, name: str) -> float:
    """Sum over spans called ``name`` of duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    total = 0.0
    for s in spans:
        if s[2] != name:
            continue
        kids = [(max(c[3], s[3]), min(c[4], s[4])) for c in children[s[0]]]
        total += (s[4] - s[3]) - covered(k for k in kids if k[1] > k[0])
    return total


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[2] == name)
