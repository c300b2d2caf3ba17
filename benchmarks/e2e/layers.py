"""Per-layer metrics of a traced pass: the names ``BENCHMARK.json`` lists
under ``per_layer`` and where each number comes from.

Every workload reports every name; a layer a workload never enters reads 0.
Times are milliseconds per primary op of the fastest traced pass, so the
layers of one row add up to (at most) that pass's mean op.
"""

from __future__ import annotations

import json
import math
import os

from spans import OP, layer_totals

#: metric -> (span name, "total_s" or "self_s"), as ms per primary op.
SPAN_METRICS = {
    "core.benders.solve_ms": ("core.benders.solve", "total_s"),
    "core.milp_solver.solve_ms": ("core.milp_solver.solve", "total_s"),
    "core.problem.build_ms": ("core.problem.build", "total_s"),
    "forecasting.forecast_ms": ("forecasting.forecast_for", "total_s"),
    "traffic.sample_ms": ("traffic.sample", "total_s"),
    "controlplane.monitoring.report_load_ms": ("controlplane.monitoring.report_load", "total_s"),
    "dataplane.multiplexing.unserved_ms": ("dataplane.multiplexing.unserved", "total_s"),
    "simulation.revenue.record_ms": ("simulation.revenue.record", "total_s"),
    "controlplane.controllers.apply_ms": ("controlplane.controllers.apply", "total_s"),
    "controlplane.orchestrator.self_ms": ("controlplane.orchestrator.run_epoch", "self_s"),
    "api.broker.advance_self_ms": ("api.broker.advance_epoch", "self_s"),
    "api.broker.submit_batch_ms": ("api.broker.submit_batch", "total_s"),
    "api.broker.release_ms": ("api.broker.release", "total_s"),
    "workloads.trace.batch_ms": ("workloads.trace.batch", "total_s"),
}

UNITS = {
    "core.benders.solve_ms": "ms",
    "core.benders.iterations": "count",
    "core.benders.warm_cuts": "count",
    "core.benders.solves": "count",
    "controlplane.orchestrator.reused_share": "ratio",
    "core.problem.build_ms": "ms",
    "core.problem.structure_changes": "count",
    "core.milp_solver.solve_ms": "ms",
    "forecasting.forecast_ms": "ms",
    "forecasting.calls": "count",
    "traffic.sample_ms": "ms",
    "controlplane.monitoring.report_load_ms": "ms",
    "dataplane.multiplexing.unserved_ms": "ms",
    "simulation.revenue.record_ms": "ms",
    "controlplane.controllers.apply_ms": "ms",
    "controlplane.orchestrator.self_ms": "ms",
    "api.broker.advance_self_ms": "ms",
    "api.broker.submit_batch_ms": "ms",
    "api.broker.release_ms": "ms",
    "workloads.trace.batch_ms": "ms",
    "scenarios.generator.sample_ms": "ms",
    "api.server.submit_rtt_ms": "ms",
    "api.server.replay_rtt_ms": "ms",
    "api.server.status_rtt_ms": "ms",
    "api.server.quote_rtt_ms": "ms",
    "api.server.list_rtt_ms": "ms",
    "api.server.release_rtt_ms": "ms",
    "api.server.epoch_rtt_ms": "ms",
    "api.server.events_rtt_ms": "ms",
    "api.broker.submit_inproc_ms": "ms",
    "api.broker.status_inproc_ms": "ms",
    "api.server.wire_overhead_ms": "ms",
    "api.dtos.encode_ms": "ms",
    "api.dtos.decode_ms": "ms",
    "api.server.cpu_share": "ratio",
    "api.client.cpu_share": "ratio",
    "api.server.non2xx": "count",
    "api.server.spawn_s": "s",
    "harness.import_s": "s",
    "harness.trace_overhead": "ratio",
    "harness.pass_spread": "ratio",
    "harness.passes": "count",
}


def per_layer(result, tracer, pace) -> dict[str, float]:
    """Per-layer numbers of one traced pass, its spans scaled op by op to the
    host's undisturbed speed like the end-to-end latencies (``pace.py``)."""
    metrics = dict.fromkeys(UNITS, 0.0)
    spans = tracer.spans
    ops = sum(1 for value in result.primary_s if not math.isnan(value))
    factors = [pace.scale_around(mark) for mark in result.span_marks]
    timed = layer_totals(spans, lambda row: factors[row[OP]] if row[OP] >= 0 else 0.0)
    for metric, (span_name, kind) in SPAN_METRICS.items():
        if span_name in timed:
            metrics[metric] = 1e3 * timed[span_name][kind] / ops
    metrics["forecasting.calls"] = timed.get("forecasting.forecast_for", {}).get("calls", 0)
    # Instances are generated during set-up, before the first op.
    sampled = layer_totals(spans).get("scenarios.generator.sample")
    if sampled:
        metrics["scenarios.generator.sample_ms"] = 1e3 * sampled["total_s"] / sampled["calls"]
    metrics.update(result.counters)
    metrics.update(result.extra)
    return metrics


def write_spans(path: str, tracers) -> None:
    """Every span of every traced pass, one ``[name, start, end, parent, op]``
    row each; parents index into the same pass-and-thread list."""
    lists = [
        member.spans for tracer in tracers for member in getattr(tracer, "members", [tracer])
    ]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "op"], "spans": lists}, handle)
