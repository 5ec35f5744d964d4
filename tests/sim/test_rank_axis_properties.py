"""Hypothesis property suite for the rank-axis replay kernel.

The differential suites drive :func:`repro.sim.batched.replay_multirank_batch`
with the structures the schedulers record.  This suite generates random
multi-rank recordings instead — worlds 1-5, several stream groups,
per-rank and collective slots, back-edge gates (same-stream and
cross-stream, single and combined), and 1-4 configs whose durations
differ, some of them deferred — and checks every config of one batched
replay against a plain-Python slot recurrence:

- per-rank slot: ``start[r] = max(prev_end[r], gate ends[r])``,
  ``end[r] = start[r] + d[r]``;
- collective: ranks arrive as above, the collective starts at the last
  arrival and every rank ends at ``start + d``;
- a deferred duration is priced from the start it would see there.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.batched import replay_multirank_batch
from repro.sim.fastpath import DeferredDuration
from repro.sim.multirank_fastpath import DeferredRankDurations, MultiRankTimeline
from repro.sim.trace import Tracer


class _Linear(DeferredDuration):
    """Collective duration ``base + slope * start``."""

    __slots__ = ("base", "slope")

    def __init__(self, base: float, slope: float):
        self.base = base
        self.slope = slope

    def resolve(self, start: float) -> float:
        return self.base + self.slope * start


class _RankLinear(DeferredRankDurations):
    """Per-rank durations ``base[r] + slope * start[r]``."""

    __slots__ = ("base", "slope")

    def __init__(self, base: list[float], slope: float):
        self.base = base
        self.slope = slope

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        return np.array([b + self.slope * s for b, s in zip(self.base, starts.tolist())])


#: Small values make ties (equal arrivals, equal ends) common.
durations = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
slopes = st.sampled_from([0.0, 0.125, 0.5])


@st.composite
def recordings(draw):
    """``(world, streams, slots, configs)``: a structure shared by every
    config plus per-config duration specs.

    A slot is ``(stream, collective, gate)``; a duration spec is
    ``(deferred, values, slope)`` with one value for a collective and
    ``world`` values for a per-rank slot.
    """
    world = draw(st.integers(min_value=1, max_value=5))
    streams = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=24))
    slots = []
    for k in range(count):
        gate = (draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=3))
                if k else [])
        slots.append((draw(st.integers(min_value=0, max_value=streams - 1)),
                      draw(st.booleans()), gate))
    configs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        specs = []
        for _, collective, _ in slots:
            width = 1 if collective else world
            specs.append((draw(st.booleans()) and draw(st.booleans()),
                          draw(st.lists(durations, min_size=width, max_size=width)),
                          draw(slopes)))
        configs.append(specs)
    return world, streams, slots, configs


def _record(world, streams, slots, specs) -> MultiRankTimeline:
    timeline = MultiRankTimeline(world)
    groups = [timeline.stream(f"s{sid}") for sid in range(streams)]
    handles = []
    for (sid, collective, gate_ids), (deferred, values, slope) in zip(slots, specs):
        if not gate_ids:
            gate = None
        elif len(gate_ids) == 1:
            gate = handles[gate_ids[0]].done
        else:
            gate = timeline.sim.all_of(handles[gid].done for gid in gate_ids)
        if collective:
            body = _Linear(values[0], slope) if deferred else values[0]
            handles.append(groups[sid].submit_collective(body, gate=gate))
        else:
            body = _RankLinear(values, slope) if deferred else np.array(values)
            handles.append(groups[sid].submit(body, gate=gate))
    return timeline


def _reference(world, streams, slots, specs):
    """Per-slot ``(starts, ends)`` rows from the plain slot recurrence."""
    prev = [[0.0] * world for _ in range(streams)]
    starts, ends = [], []
    for (sid, collective, gate_ids), (deferred, values, slope) in zip(slots, specs):
        arrive = [
            max([prev[sid][rank]] + [ends[gid][rank] for gid in gate_ids])
            for rank in range(world)
        ]
        if collective:
            start = max(arrive)
            duration = _Linear(values[0], slope).resolve(start) if deferred else values[0]
            end = [start + duration] * world
        else:
            per_rank = (_RankLinear(values, slope).resolve(np.array(arrive)).tolist()
                        if deferred else values)
            end = [a + d for a, d in zip(arrive, per_rank)]
        starts.append(arrive)
        ends.append(end)
        prev[sid] = end
    return starts, ends


@settings(deadline=None, max_examples=150)
@given(recording=recordings())
def test_every_config_matches_the_slot_recurrence(recording):
    world, streams, slots, configs = recording
    timelines = [_record(world, streams, slots, specs) for specs in configs]
    tracers = [Tracer() for _ in timelines]
    finals = replay_multirank_batch(timelines, tracers)
    for timeline, tracer, final, specs in zip(timelines, tracers, finals, configs):
        starts, ends = _reference(world, streams, slots, specs)
        assert timeline._starts.tolist() == starts
        assert timeline._ends.tolist() == ends
        assert final == timeline.final_time == max(max(row) for row in ends)
        assert len(tracer.spans) == sum(
            end > start
            for row_starts, row_ends in zip(starts, ends)
            for start, end in zip(row_starts, row_ends)
        )


@settings(deadline=None, max_examples=40)
@given(recording=recordings())
def test_solo_replay_is_a_batch_of_one(recording):
    """Replaying a config on its own gives the floats it gets in a batch."""
    world, streams, slots, configs = recording
    batch = [_record(world, streams, slots, specs) for specs in configs]
    replay_multirank_batch(batch)
    for timeline, specs in zip(batch, configs):
        solo = _record(world, streams, slots, specs)
        assert solo.replay() == timeline.final_time
        assert np.array_equal(solo._starts, timeline._starts)
        assert np.array_equal(solo._ends, timeline._ends)
