"""In-memory span tracing around the public functions of each layer.

The program is not edited: :func:`install` swaps each target function
(or method, or property getter) for a wrapper that records a span
``{id, parent, name, start, end}`` into a :class:`SpanRecorder`, and
:func:`uninstall` puts the originals back.  Functions imported by name
into other ``repro`` modules (``from x import f``) are patched at every
such binding, so the wrapper sees the call whichever module makes it.

A span's *self time* is its duration minus the part of that interval
covered by its children (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

#: The layers, each the prefix of its spans' names.
LAYERS = ("serve", "api", "runner", "schedulers", "workloads", "network", "sim", "bayesopt")


class SpanRecorder:
    """Thread-safe span sink; spans stay in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[dict] = None,
             nest: bool = True) -> Callable[[], None]:
        """Start a span now; the returned callback ends it.

        With ``nest`` the span is the parent of spans opened on this
        thread until it ends; without it, the callback may run on any
        thread (a wait that another thread resolves).
        """
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else None, "name": name}
        if attrs:
            span.update(attrs)
        if nest:
            stack.append(span["id"])
        span["start"] = time.perf_counter()

        def close() -> None:
            span["end"] = time.perf_counter()
            if nest:
                stack.pop()
            self.spans.append(span)

        return close

    def call(self, name: str, fn: Callable, args, kwargs, attrs: Optional[Callable]):
        close = self.open(name, attrs(*args, **kwargs) if attrs is not None else None)
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        close = self.open(name)
        try:
            yield
        finally:
            close()

    def drain(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def _batch_attrs(timelines, *_args, **_kwargs) -> dict:
    """Replayed element counts of a batched call (configs x slots [x ranks])."""
    slots = [len(getattr(timeline, "_handles", ())) for timeline in timelines]
    ranks = [getattr(timeline, "world", 1) for timeline in timelines]
    return {"slots": sum(slots),
            "rank_slots": sum(count * world for count, world in zip(slots, ranks))}


def targets() -> list[tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, attrs)`` for every traced function."""
    import repro.api as api
    import repro.bayesopt.optimizer as optimizer
    import repro.network.autotuner as autotuner
    import repro.network.cost_model as cost_model
    import repro.runner.batched as runner_batched
    import repro.runner.cache as cache
    import repro.runner.executor as executor
    import repro.runner.spec as spec
    import repro.schedulers.base as base
    import repro.schedulers.dear as dear
    import repro.schedulers.horovod as horovod
    import repro.schedulers.multirank as multirank
    import repro.sim.batched as sim_batched
    import repro.sim.engine as engine
    import repro.sim.fastpath as fastpath
    import repro.sim.multirank_fastpath as multirank_fastpath
    import repro.workloads.generators as generators

    return [
        ("api.config_from_payload", api, "config_from_payload", None),
        ("api.to_spec", api.SimulationConfig, "to_spec", None),
        ("runner.run_many", executor, "run_many", None),
        ("runner.fingerprint", spec.RunSpec, "fingerprint", None),
        ("runner.cache_get", cache.ResultCache, "get", None),
        ("runner.cache_put", cache.ResultCache, "put", None),
        ("runner.result_to_dict", cache, "result_to_dict", None),
        ("runner.run_batched", runner_batched, "run_batched", None),
        ("schedulers.run", base.Scheduler, "run", None),
        ("schedulers.record", base.Scheduler, "record_fast", None),
        ("schedulers.measure", base.Scheduler, "measure", None),
        ("schedulers.multirank_record", multirank, "record_heterogeneous_fast", None),
        ("schedulers.multirank_finalize", multirank, "finalize_heterogeneous", None),
        ("schedulers.multirank_run", multirank, "simulate_heterogeneous", None),
        ("workloads.build", generators, "build_workload", None),
        ("network.costmodel.build", cost_model.CollectiveTimeModel, "__init__", None),
        ("network.autotuner.build", autotuner, "build_selection_table", None),
        ("sim.replay_fast_batch", sim_batched, "replay_fast_batch", _batch_attrs),
        ("sim.replay_multirank_batch", sim_batched, "replay_multirank_batch", _batch_attrs),
        ("sim.replay", fastpath.FastTimeline, "replay", None),
        ("sim.replay", multirank_fastpath.MultiRankTimeline, "replay", None),
        ("sim.event_kernel", engine.Simulator, "run", None),
        ("bayesopt.run_bo", dear.DeARScheduler, "_run_bo", None),
        ("bayesopt.run_bo", horovod.HorovodScheduler, "_run_bo", None),
        ("bayesopt.observe", optimizer.BayesianOptimizer, "observe", None),
        ("bayesopt.suggest", optimizer.BayesianOptimizer, "suggest", None),
    ]


def _wrap(recorder: SpanRecorder, name: str, fn: Callable, attrs) -> Callable:
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, attrs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def install(recorder: SpanRecorder, extra: tuple = ()) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for name, owner, attr, attrs in list(targets()) + list(extra):
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(_wrap(recorder, name, original.fget, attrs))
        else:
            replacement = _wrap(recorder, name, original, attrs)
        bindings = [owner]
        if not isinstance(owner, type):
            # Every module that imported the function by name.
            bindings += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for binding in bindings:
            undo.append((binding, attr, original))
            setattr(binding, attr, replacement)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for binding, attr, original in reversed(undo):
        setattr(binding, attr, original)


# -- analysis ------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[dict]) -> dict:
    """Per span name: call count and total self seconds; per layer: self seconds."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        entry = by_name.setdefault(span["name"], {"count": 0, "self_s": 0.0, "total_s": 0.0,
                                                  "slots": 0, "rank_slots": 0})
        entry["count"] += 1
        entry["self_s"] += selfs[span["id"]]
        entry["total_s"] += span["end"] - span["start"]
        entry["slots"] += span.get("slots", 0)
        entry["rank_slots"] += span.get("rank_slots", 0)
        layer = layer_of(span["name"])
        if layer in by_layer:
            by_layer[layer] += selfs[span["id"]]
    return {"names": by_name, "layers": by_layer}
