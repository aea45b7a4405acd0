"""Per-layer metrics computed from the spans of one traced run.

Times are busy times (the union of a layer's spans) and self times (busy
time minus what child spans cover).  Work counts marked "computed" are
derived from argument shapes, not measured: dense-equivalent pair products
are N^2 x cells per ``rates`` call, heat-step bytes are rows x cells x 8 per
batched step, and trajectory-slices are tracers x frozen slices.
"""

from __future__ import annotations

from math import prod

from spans import busy, count, self_time

# name -> (unit, whether the value is an exact count that must repeat)
METRICS: dict[str, tuple[str, bool]] = {
    "coagulation.rates.calls": ("count", True),
    "coagulation.rates.s": ("s", False),
    "coagulation.gain_all.s": ("s", False),
    "coagulation.loss_coefficients.calls": ("count", True),
    "coagulation.loss_coefficients.s": ("s", False),
    "coagulation.pairs_computed": ("count", True),
    "coagulation.pairs_per_s": ("1/s", False),
    "coagulation.init.s": ("s", False),
    "kernels.dense.calls": ("count", True),
    "kernels.dense.s": ("s", False),
    "kernels.rate_row.calls": ("count", True),
    "kernels.rate_row.s": ("s", False),
    "diffusion.heat_step_batched.calls": ("count", True),
    "diffusion.heat_step_batched.s": ("s", False),
    "diffusion.heat_step_batched.bytes_computed": ("bytes", True),
    "diffusion.bytes_per_s": ("bytes/s", False),
    "integrator.s": ("s", False),
    "integrator.self_s": ("s", False),
    "integrator.steps_accepted": ("count", True),
    "integrator.dt_halvings": ("count", True),
    "tracer.simulate.s": ("s", False),
    "tracer.self_s": ("s", False),
    "tracer.traj_slices_computed": ("count", True),
    "tracer.traj_slices_per_s": ("1/s", False),
    "tracer.collisions": ("count", True),
    "cli.parse_config.s": ("s", False),
    "cli.write_series_csv.s": ("s", False),
    "cli.write_field_csv.calls": ("count", True),
    "cli.write_field_csv.s": ("s", False),
    "cli.bytes_written": ("bytes", True),
    "analysis.monitors.s": ("s", False),
    "analysis.gelation_scan.self_s": ("s", False),
    "trace.spans": ("count", True),
    "trace.wall_s": ("s", False),
    "trace.overhead_s": ("s", False),
}

INTEGRATOR = ("integrator.run", "integrator.homogeneous_run")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list, bytes_written: int) -> dict[str, float]:
    """Every metric in METRICS except the ``trace.wall_s`` and ``trace.overhead_s`` pair."""
    by_id = {s[0]: s for s in spans}
    infos = {}
    for s in spans:
        infos.setdefault(s[2], []).append(s[6])

    rates_s = busy(spans, "coagulation.rates")
    pairs = sum(n * n * cells for n, cells in infos.get("coagulation.rates", []))
    heat_s = busy(spans, "diffusion.heat_step_batched")
    heat_bytes = sum(shape[0] * prod(shape[1:]) * 8 for shape in infos.get("diffusion.heat_step_batched", []))
    simulate_s = busy(spans, "tracer.simulate")
    ensembles = infos.get("tracer.simulate", [])
    traj_slices = sum(tracers * slices for tracers, slices, _ in ensembles)
    halvings = sum(infos.get("integrator.run", []) + infos.get("integrator.homogeneous_run", []))
    # The stability check is the loss_coefficients call a step makes directly
    # from the integrator; one per attempted step, and a halving rejects one.
    attempted = sum(
        1
        for s in spans
        if s[2] == "coagulation.loss_coefficients" and s[1] in by_id and by_id[s[1]][2] in INTEGRATOR
    )
    monitor_names = {s[2] for s in spans if s[2].startswith("analysis.monitor.")}

    return {
        "coagulation.rates.calls": count(spans, "coagulation.rates"),
        "coagulation.rates.s": rates_s,
        "coagulation.gain_all.s": busy(spans, "coagulation.gain_all"),
        "coagulation.loss_coefficients.calls": count(spans, "coagulation.loss_coefficients"),
        "coagulation.loss_coefficients.s": busy(spans, "coagulation.loss_coefficients"),
        "coagulation.pairs_computed": pairs,
        "coagulation.pairs_per_s": _rate(pairs, rates_s),
        "coagulation.init.s": busy(spans, "coagulation.init"),
        "kernels.dense.calls": count(spans, "kernels.dense"),
        "kernels.dense.s": busy(spans, "kernels.dense"),
        "kernels.rate_row.calls": count(spans, "kernels.rate_row"),
        "kernels.rate_row.s": busy(spans, "kernels.rate_row"),
        "diffusion.heat_step_batched.calls": count(spans, "diffusion.heat_step_batched"),
        "diffusion.heat_step_batched.s": heat_s,
        "diffusion.heat_step_batched.bytes_computed": heat_bytes,
        "diffusion.bytes_per_s": _rate(heat_bytes, self_time(spans, "diffusion.heat_step_batched")),
        "integrator.s": sum(busy(spans, name) for name in INTEGRATOR),
        "integrator.self_s": sum(self_time(spans, name) for name in INTEGRATOR),
        "integrator.steps_accepted": attempted - halvings,
        "integrator.dt_halvings": halvings,
        "tracer.simulate.s": simulate_s,
        "tracer.self_s": self_time(spans, "tracer.simulate"),
        "tracer.traj_slices_computed": traj_slices,
        "tracer.traj_slices_per_s": _rate(traj_slices, simulate_s),
        "tracer.collisions": sum(collisions for _, _, collisions in ensembles),
        "cli.parse_config.s": busy(spans, "cli.parse_config"),
        "cli.write_series_csv.s": busy(spans, "cli.write_series_csv"),
        "cli.write_field_csv.calls": count(spans, "cli.write_field_csv"),
        "cli.write_field_csv.s": busy(spans, "cli.write_field_csv"),
        "cli.bytes_written": bytes_written,
        "analysis.monitors.s": sum(busy(spans, name) for name in monitor_names),
        "analysis.gelation_scan.self_s": self_time(spans, "analysis.gelation_scan"),
        "trace.spans": len(spans),
    }
