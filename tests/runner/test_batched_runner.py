"""Batched runner parity: run_many with DEAR_BATCHED on vs off.

The batched path is an engine swap under ``run_many``, so the whole
observable result — every ScheduleResult field, extras dict, and
iteration-time list — must be equal whether a sweep rode the config-axis
replay or the classic per-spec pool.  These tests pin that, plus the
fallback taxonomy: which specs batch, which drop to the classic path,
and how the two populations interleave in one call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import weakref

import pytest

import repro.runner.batched as runner_batched

from repro.faults.plan import FaultPlan, StragglerFault
from repro.runner.batched import batched_enabled, run_batched
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler

STRAGGLER = FaultPlan(stragglers=(StragglerFault(0.0, 5.0, compute_factor=1.5),))


def _mixed_specs(tiny_model, ethernet_cluster) -> list[RunSpec]:
    """Single-rank, faulty, multirank, and collapse specs in one sweep."""
    world = ethernet_cluster.world_size
    return [
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("ddp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="none"),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="buffer", buffer_bytes=25e6),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       faults=STRAGGLER),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=[1.0] * (world - 1) + [1.3]),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=[1.0] * world),  # collapses
    ]


class TestRunManyParity:
    def test_batched_equals_classic(self, tiny_model, ethernet_cluster,
                                    tmp_path, monkeypatch):
        specs = _mixed_specs(tiny_model, ethernet_cluster)
        monkeypatch.setenv("DEAR_BATCHED", "0")
        classic = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path / "a"))
        monkeypatch.setenv("DEAR_BATCHED", "1")
        batched = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path / "b"))
        for spec, left, right in zip(specs, classic, batched):
            assert dataclasses.asdict(left) == dataclasses.asdict(right), spec.label

    def test_batched_results_are_cached(self, tiny_model, ethernet_cluster,
                                        tmp_path, monkeypatch):
        monkeypatch.setenv("DEAR_BATCHED", "1")
        cache = ResultCache(root=tmp_path)
        specs = _mixed_specs(tiny_model, ethernet_cluster)[:3]
        run_many(specs, jobs=1, cache=cache)
        assert cache.puts == len(specs)
        hits_before = cache.hits
        again = run_many(specs, jobs=1, cache=cache)
        assert cache.hits == hits_before + len(specs)
        assert [r.scheduler for r in again] == [s.scheduler for s in specs]


class TestRunBatchedFallback:
    def test_bytescheduler_falls_back(self, tiny_model, ethernet_cluster):
        """Credit-based scheduling is dynamic: no fast path, no batch."""
        spec = RunSpec.create("bytescheduler", tiny_model, ethernet_cluster,
                              iterations=4)
        assert run_batched([spec]) == [None]

    def test_bo_fusion_falls_back(self, tiny_model, ethernet_cluster):
        """DeAR/Horovod BO tuning wraps run() in a trials loop; the
        recorded schedule would skip it, so these must not batch."""
        specs = [
            RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                           fusion="bo", bo_trials=2),
            RunSpec.create("horovod", tiny_model, ethernet_cluster, iterations=4,
                           fusion="bo", bo_trials=2),
        ]
        assert run_batched(specs) == [None, None]

    def test_forced_classic_engine_falls_back(self, tiny_model, ethernet_cluster):
        spec = RunSpec.create("wfbp", tiny_model, ethernet_cluster,
                              iterations=4, fastpath=False)
        assert run_batched([spec]) == [None]

    def test_disabled_via_env(self, tiny_model, ethernet_cluster, monkeypatch):
        monkeypatch.setenv("DEAR_BATCHED", "0")
        assert not batched_enabled()
        spec = RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4)
        assert run_batched([spec]) == [None]

    def test_mixed_batchable_and_not(self, tiny_model, ethernet_cluster):
        specs = [
            RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
            RunSpec.create("bytescheduler", tiny_model, ethernet_cluster,
                           iterations=4),
            RunSpec.create("ddp", tiny_model, ethernet_cluster, iterations=4),
        ]
        outcomes = run_batched(specs)
        assert outcomes[1] is None
        assert outcomes[0] is not None and outcomes[2] is not None
        result, seconds = outcomes[0]
        assert result.scheduler == "wfbp" and result.tracer is None
        assert seconds >= 0.0


class TestSupportsBatchedRun:
    def test_static_schedulers_opt_in(self):
        for name in ("wfbp", "ddp", "mg_wfbp", "serial", "zero"):
            assert get_scheduler(name).supports_batched_run(), name

    @pytest.mark.parametrize("name", ["dear", "horovod"])
    def test_bo_mode_opts_out(self, name):
        assert not get_scheduler(name, fusion="bo").supports_batched_run()
        assert get_scheduler(name, fusion="buffer",
                             buffer_bytes=25e6).supports_batched_run()


@contextlib.contextmanager
def _gc_disabled():
    """Only reference counting frees objects inside the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestRecordingsFreedByRefcount:
    """A finished spec's recording holds no reference cycle, so it is
    freed as soon as the runner lets go of it, not by the cyclic GC."""

    def test_timelines_dead_once_run_many_returns(self, tiny_model, ethernet_cluster,
                                                  tmp_path, monkeypatch):
        refs, kinds = [], set()

        def capturing(replay):
            def wrapper(timelines, tracers=None):
                refs.extend(weakref.ref(timeline) for timeline in timelines)
                kinds.update(type(timeline).__name__ for timeline in timelines)
                return replay(timelines, tracers)
            return wrapper

        for name in ("replay_fast_batch", "replay_multirank_batch"):
            monkeypatch.setattr(runner_batched, name,
                                capturing(getattr(runner_batched, name)))
        monkeypatch.setenv("DEAR_BATCHED", "1")
        specs = _mixed_specs(tiny_model, ethernet_cluster)
        with _gc_disabled():
            results = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
            assert [ref() for ref in refs] == [None] * len(refs)
        assert kinds == {"FastTimeline", "MultiRankTimeline"}
        assert all(result.iteration_time > 0 for result in results)

    def test_job_handles_outlive_their_timeline(self, tiny_timing, ethernet_cost):
        ctx = get_scheduler("wfbp").record_fast(tiny_timing, ethernet_cost)
        final = ctx._timeline.replay()
        jobs = list(ctx.ff_first_jobs)
        timeline = weakref.ref(ctx._timeline)
        with _gc_disabled():
            del ctx
            assert timeline() is None
            assert all(job.end >= job.start >= 0.0 for job in jobs)
            assert max(job.end for job in jobs) <= final
