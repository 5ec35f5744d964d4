"""Non-finite durations are rejected by every engine.

``nan < 0`` is false, so a plain sign check lets NaN through, and an
infinite duration turns into timestamps no engine agrees on.  Each
engine raises :class:`ValueError` instead: the event kernel when a job
body or a multi-rank collective evaluates to a non-finite number, the
recorders when a fixed duration is submitted, and both replays when a
deferred duration resolves to one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.models.zoo import get_model
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import simulate
from repro.schedulers.multirank import simulate_heterogeneous
from repro.sim.batched import replay_multirank_batch
from repro.sim.engine import Simulator
from repro.sim.fastpath import DeferredDuration, FastTimeline
from repro.sim.multirank_fastpath import DeferredRankDurations, MultiRankTimeline
from repro.sim.resources import Stream
from tests.conftest import build_tiny_model

NON_FINITE = [math.nan, math.inf]


class _Fixed(DeferredDuration):
    def __init__(self, value: float):
        self.value = value

    def resolve(self, start: float) -> float:
        return self.value


class _FixedRanks(DeferredRankDurations):
    def __init__(self, values: list[float]):
        self.values = values

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        return np.array(self.values)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "event"])
@pytest.mark.parametrize("scheduler", ["wfbp", "dear"])
def test_non_finite_iteration_compute_rejected(scheduler, fastpath, value):
    with pytest.raises(ValueError, match="non-finite"):
        simulate(scheduler, get_model("resnet50"), cluster_10gbe(),
                 iteration_compute=value, fastpath=fastpath)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "event"])
def test_non_finite_collective_rejected_on_multirank_engines(fastpath, value):
    """A non-finite link latency prices every collective non-finite;
    the rank-axis replay and the per-rank event kernel both refuse it."""
    cluster = cluster_10gbe(nodes=2, gpus_per_node=2)
    link = dataclasses.replace(cluster.inter_link, latency=value)
    cluster = dataclasses.replace(cluster, inter_link=link)
    with pytest.raises(ValueError, match="non-finite"):
        simulate_heterogeneous("wfbp", build_tiny_model(), cluster,
                               [1.0, 1.0, 1.0, 1.2], fastpath=fastpath)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
class TestEngines:
    def test_event_kernel_numeric_body(self, value):
        sim = Simulator()
        Stream(sim, "compute").submit(value)
        with pytest.raises(ValueError, match="non-finite"):
            sim.run()

    def test_event_kernel_callable_body(self, value):
        sim = Simulator()
        Stream(sim, "compute").submit(lambda: value)
        with pytest.raises(ValueError, match="non-finite"):
            sim.run()

    def test_fast_stream_submit(self, value):
        stream = FastTimeline().stream("compute")
        with pytest.raises(ValueError, match="non-finite"):
            stream.submit(value)

    def test_fast_deferred_resolution(self, value):
        timeline = FastTimeline()
        timeline.stream("compute").submit(_Fixed(value))
        with pytest.raises(ValueError, match="non-finite"):
            timeline.replay()

    def test_multirank_submit(self, value):
        stream = MultiRankTimeline(world=2).stream("compute")
        with pytest.raises(ValueError, match="non-finite"):
            stream.submit(np.array([1.0, value]))
        with pytest.raises(ValueError, match="non-finite"):
            stream.submit_collective(value)

    def test_multirank_deferred_collective(self, value):
        timeline = MultiRankTimeline(world=2)
        timeline.stream("comm").submit_collective(_Fixed(value))
        with pytest.raises(ValueError, match="non-finite"):
            timeline.replay()

    def test_multirank_deferred_per_rank_in_a_batch(self, value):
        plain = MultiRankTimeline(world=2)
        plain.stream("compute").submit(np.array([1.0, 1.0]))
        faulty = MultiRankTimeline(world=2)
        faulty.stream("compute").submit(_FixedRanks([1.0, value]))
        with pytest.raises(ValueError, match="non-finite"):
            replay_multirank_batch([plain, faulty])
