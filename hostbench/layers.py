"""Per-layer metrics from traced spans and telemetry counter deltas.

A sweep's unit is one pass over its spec list (``*.ms`` metrics are per
pass, ``*_per_spec`` per spec of the pass); the serve workload's unit is
one request of the schedule.  The layer -> metric -> workload map is in
``hostbench/README.md``.
"""

from __future__ import annotations

import bisect
import statistics

from hostbench.tracing import LAYERS, self_times, summarize

#: Timing noise allowed, on top of the tracing overhead, between the layer
#: self times of the traced passes and the untraced pass time.
TILE_TOLERANCE = 0.01

#: ``(name, unit)`` of every per-layer metric, in report order.
METRICS = (
    ("runner.fingerprint.calls_per_spec", "count"),
    ("runner.fingerprint.ms", "ms"),
    ("runner.cache_get.ms", "ms"),
    ("runner.cache_put.ms", "ms"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.batched.share", "ratio"),
    ("runner.batched.groups_per_pass", "count"),
    ("runner.batched.group_size", "count"),
    ("runner.run_many.self_ms", "ms"),
    ("schedulers.record.calls_per_spec", "count"),
    ("schedulers.record.ms_per_spec", "ms"),
    ("schedulers.measure.ms_per_spec", "ms"),
    ("schedulers.run.ms_per_spec", "ms"),
    ("schedulers.multirank_record.ms_per_spec", "ms"),
    ("schedulers.multirank_finalize.ms_per_spec", "ms"),
    ("workloads.build.ms", "ms"),
    ("network.costmodel.queries_per_spec", "count"),
    ("network.costmodel.memo_hit_ratio", "ratio"),
    ("network.autotuner.build_ms", "ms"),
    ("sim.replay_fast_batch.ms_per_group", "ms"),
    ("sim.replay_fast_batch.ns_per_slot", "ns"),
    ("sim.replay_multirank_batch.ms_per_group", "ms"),
    ("sim.replay_multirank_batch.ns_per_rank_slot", "ns"),
    ("sim.replays_per_spec", "count"),
    ("sim.event_kernel.ms_per_spec", "ms"),
    ("bayesopt.trials_per_spec", "count"),
    ("bayesopt.self_ms_per_spec", "ms"),
    ("api.config_from_payload.ms", "ms"),
    ("serve.batcher_wait_ms.p50", "ms"),
    ("serve.batcher_wait_ms.p95", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.encode.ms", "ms"),
    ("loadgen.late_ms.p95", "ms"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"{layer}.self_ms", "ms") for layer in LAYERS)


# -- telemetry counters ----------------------------------------------------------


def _flatten(snapshot: dict) -> dict:
    """``(name, labels) -> (value,)`` for counters, ``(count, sum)`` for histograms."""
    flat = {}
    for name, family in snapshot.items():
        kind = family.get("kind")
        for child in family.get("values", ()):
            key = (name, tuple(sorted(child.get("labels", {}).items())))
            if kind == "counter":
                flat[key] = (child["value"],)
            elif kind == "histogram":
                flat[key] = (child["count"], child["sum"])
    return flat


def counter_deltas(before: dict, after: dict) -> dict:
    """Counter and histogram growth between two registry snapshots."""
    old = _flatten(before)
    return {
        key: tuple(new - prior for new, prior in zip(value, old.get(key, (0,) * len(value))))
        for key, value in _flatten(after).items()
    }


def total(deltas: dict, name: str, index: int = 0, **labels) -> float:
    """Sum of one metric's deltas over the children matching ``labels``."""
    wanted = set(labels.items())
    return sum(value[index] for (metric, key), value in deltas.items()
               if metric == name and wanted <= set(key))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- metrics -------------------------------------------------------------------------


def unit_metrics(summary: dict, deltas: dict, units: int, specs: int) -> dict:
    """Metrics shared by every workload for one unit of work.

    ``units`` divides the ``*.ms`` totals (1 for a sweep pass, the
    request count for serve); ``specs`` divides the per-spec figures.
    """
    names = summary["names"]

    def count(name: str) -> int:
        return names.get(name, {}).get("count", 0)

    def self_ms(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0) * 1e3

    # Batched replays delegate single-config groups to the solo replay
    # (a child span), so group costs are inclusive, not self, times.
    def total_ms(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0) * 1e3

    def per_group(name: str) -> float:
        return _ratio(total_ms(name), count(name))

    def per_slot(name: str, field: str) -> float:
        return _ratio(total_ms(name) * 1e6, names.get(name, {}).get(field, 0))

    hits = total(deltas, "runner.cache.hits")
    misses = total(deltas, "runner.cache.misses")
    batched = total(deltas, "runner.batched.specs", outcome="batched")
    fallback = total(deltas, "runner.batched.specs", outcome="fallback")
    queries = total(deltas, "costmodel.queries")
    metrics = {
        "runner.fingerprint.calls_per_spec": count("runner.fingerprint") / specs,
        "runner.fingerprint.ms": self_ms("runner.fingerprint") / units,
        "runner.cache_get.ms": self_ms("runner.cache_get") / units,
        "runner.cache_put.ms": self_ms("runner.cache_put") / units,
        "runner.cache.hit_ratio": _ratio(hits, hits + misses),
        "runner.batched.share": _ratio(batched, batched + fallback),
        "runner.batched.groups_per_pass": total(deltas, "runner.batched.groups"),
        "runner.batched.group_size": _ratio(
            total(deltas, "runner.batched.group_size", 1),
            total(deltas, "runner.batched.group_size", 0)),
        "runner.run_many.self_ms": self_ms("runner.run_many") / units,
        "schedulers.record.calls_per_spec": count("schedulers.record") / specs,
        "schedulers.record.ms_per_spec": self_ms("schedulers.record") / specs,
        "schedulers.measure.ms_per_spec": self_ms("schedulers.measure") / specs,
        "schedulers.run.ms_per_spec": self_ms("schedulers.run") / specs,
        "schedulers.multirank_record.ms_per_spec": self_ms("schedulers.multirank_record") / specs,
        "schedulers.multirank_finalize.ms_per_spec":
            self_ms("schedulers.multirank_finalize") / specs,
        "workloads.build.ms": self_ms("workloads.build") / units,
        "network.costmodel.queries_per_spec": queries / specs,
        "network.costmodel.memo_hit_ratio": _ratio(total(deltas, "costmodel.memo_hits"), queries),
        "sim.replay_fast_batch.ms_per_group": per_group("sim.replay_fast_batch"),
        "sim.replay_fast_batch.ns_per_slot": per_slot("sim.replay_fast_batch", "slots"),
        "sim.replay_multirank_batch.ms_per_group": per_group("sim.replay_multirank_batch"),
        "sim.replay_multirank_batch.ns_per_rank_slot":
            per_slot("sim.replay_multirank_batch", "rank_slots"),
        "sim.replays_per_spec": count("sim.replay") / specs,
        "sim.event_kernel.ms_per_spec": self_ms("sim.event_kernel") / specs,
        "bayesopt.trials_per_spec": count("bayesopt.observe") / specs,
        "bayesopt.self_ms_per_spec": summary["layers"]["bayesopt"] * 1e3 / specs,
        "api.config_from_payload.ms": _ratio(self_ms("api.config_from_payload"),
                                             count("api.config_from_payload")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = summary["layers"][layer] * 1e3 / units
    return metrics


def tiling_check(layer_s: list[float], untraced_s: float, overhead: float) -> dict:
    """Do the layer self times of the traced passes account for a pass?

    ``layer_s`` holds each traced pass's summed layer self time (the
    benchmark's own root span left out), ``untraced_s`` the median
    untraced pass time.  Their median may differ from it by no more than
    the overhead's distance from 1 plus :data:`TILE_TOLERANCE`: time that
    no layer span covers, because an entry point was not wrapped, shows
    as a shortfall.
    """
    gap = statistics.median(layer_s) / untraced_s - 1.0
    return {"gap": gap, "ok": abs(gap) <= abs(overhead - 1.0) + TILE_TOLERANCE}


def _with_defaults(metrics: dict) -> dict:
    """Every per-layer metric, in report order; absent layers read 0."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in METRICS}


def sweep_layer_metrics(per_pass: list, specs: int, setup_summary: dict,
                        untraced_s: float, traced_s: float) -> tuple[dict, dict]:
    """Median over traced passes of each per-layer metric, and the
    :func:`tiling_check` of the traced passes against the untraced ones."""
    rows, layer_s = [], []
    for spans, deltas in per_pass:
        summary = summarize(spans)
        rows.append(unit_metrics(summary, deltas, 1, specs))
        layer_s.append(sum(summary["layers"].values()))
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    builds = setup_summary["names"].get("network.autotuner.build", {})
    metrics["network.autotuner.build_ms"] = builds.get("self_s", 0.0) * 1e3
    metrics["trace.overhead_ratio"] = overhead = traced_s / untraced_s
    return _with_defaults(metrics), tiling_check(layer_s, untraced_s, overhead)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return float(ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower))


def _percentile(values, q: float) -> float:
    return quantile(values, q) if values else 0.0


def serve_layer_metrics(spans: list[dict], plain: dict, traced: dict) -> dict:
    """Per-request layer metrics of the traced daemon's schedule."""
    records = traced["records"]
    window_end = max(row[4] for row in records)
    spans = [span for span in spans
             if traced["origin"] - 0.01 <= span["start"] <= window_end]
    requests = len(traced["records"])
    summary = summarize(spans)
    deltas = counter_deltas(traced["before"], traced["after"])
    metrics = unit_metrics(summary, deltas, requests, requests)

    names = {span["id"]: span["name"] for span in spans}
    selfs = self_times(spans)
    encode = sum(selfs[span["id"]] for span in spans
                 if span["name"] in ("runner.result_to_dict", "serve.json_dumps")
                 and names.get(span["parent"]) == "serve.request")
    metrics["serve.encode.ms"] = encode * 1e3 / requests

    computes = sorted((span["end"], span["start"]) for span in spans
                      if span["name"] == "runner.run_many" and span["parent"] is None)
    ends = [end for end, _ in computes]
    waits = []
    for span in spans:
        if span["name"] != "wait.serve_queue":
            continue
        wait = span["end"] - span["start"]
        index = bisect.bisect_right(ends, span["end"]) - 1
        if index >= 0 and computes[index][1] >= span["start"]:
            wait -= computes[index][0] - computes[index][1]
        waits.append(wait * 1e3)
    metrics["serve.batcher_wait_ms.p50"] = _percentile(waits, 0.50)
    metrics["serve.batcher_wait_ms.p95"] = _percentile(waits, 0.95)
    submitted = total(deltas, "serve.batch_size", 1)
    metrics["serve.batch_size.mean"] = _ratio(submitted, total(deltas, "serve.batch_size", 0))
    metrics["serve.dedup_ratio"] = _ratio(total(deltas, "serve.dedup_hits"), submitted)
    metrics["loadgen.late_ms.p95"] = _percentile(
        [(sent - due) * 1e3 for _, _, due, sent, _ in records], 0.95)

    def service(run: dict) -> float:
        return sum(done - due for _, _, due, _, done in run["records"])

    metrics["trace.overhead_ratio"] = _ratio(service(traced), service(plain))
    # Handler and batcher threads overlap in wall time, so there is no
    # single pass for the self times to tile: no tiling check here.
    return _with_defaults(metrics)
