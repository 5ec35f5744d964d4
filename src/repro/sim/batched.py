"""Config-axis replay for groups of recorded timelines.

A sweep of structurally identical schedules (same stream layout, same
gate graph, different durations) is what policy sweeps, fusion-plan
grids and fault-scenario matrices produce: the *schedule* a policy
records does not depend on the model's layer times or the cluster's
bandwidth, only the recorded durations do.  Two kernels replay every
recording in the repository:

- :meth:`~repro.sim.fastpath.FastTimeline.replay`, the scalar
  single-rank loop.  :func:`replay_fast_batch` runs it once per config:
  single-rank groups are small, and a stacked replay pays several numpy
  calls per gated slot where the scalar loop pays one Python ``max``.
- :func:`replay_multirank_batch`, the rank-axis kernel.  Multi-rank
  configs stack into one ``(slots, configs, world)`` tensor and replay
  with one set of numpy ops; a solo
  :meth:`~repro.sim.multirank_fastpath.MultiRankTimeline.replay` is a
  batch of one.

Bit-identity contract
---------------------

Each config's replayed timestamps are **bit-identical** to what the
event-driven kernel produces for it alone, because every stacked
operation is the same IEEE float operation, applied per lane:

- a gateless run's seeded ``np.cumsum`` along the slot axis evaluates
  each (config, rank) lane as the strict left fold of the kernel's
  sequential ``end += d``;
- a gate max over ``np.maximum`` rows is the same pairwise max, in the
  same order;
- a collective's ``max`` over the rank axis is the rendezvous instant,
  and its end is one float add per config;
- breaking a cumsum run at *any* config's deferred slot re-seeds the
  next chain with the previous exact partial sums, which a left fold
  is insensitive to.

The differential suite in ``tests/sim/test_batched.py`` pins this
against per-config solo replays, and
``tests/sim/test_rank_axis_properties.py`` against a plain-Python slot
recurrence over random recordings.

Grouping
--------

Batching requires *structural* equality: identical stream-id sequences
and gate tuples (plus collective flags and world size for multi-rank).
Callers group by :func:`fast_signature` / :func:`multirank_signature`
— computed from what was actually *recorded*, so grouping never guesses
from spec fields — and hand each group to :func:`replay_fast_batch` /
:func:`replay_multirank_batch`.  A mixed group raises
:class:`BatchMismatch`.

Deferred durations (timing faults) ride along: a slot where any config
recorded a :class:`~repro.sim.fastpath.DeferredDuration` or
:class:`~repro.sim.multirank_fastpath.DeferredRankDurations` breaks
the cumsum batching there, and each config's deferred body resolves
from exactly the start its solo replay would pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sim.fastpath import FastTimeline, resolved_duration
from repro.sim.multirank_fastpath import MultiRankTimeline

__all__ = [
    "BatchMismatch",
    "fast_signature",
    "multirank_signature",
    "replay_fast_batch",
    "replay_multirank_batch",
]


class BatchMismatch(ValueError):
    """The timelines in one batch are not structurally identical."""


def fast_signature(timeline: FastTimeline) -> tuple:
    """Structural identity of a recorded single-rank schedule.

    Two timelines with equal signatures recorded the same stream-id
    sequence and the same static gate graph, so they replay under the
    same control flow and may form one :func:`replay_fast_batch` group.
    Durations (including whether a slot is deferred) deliberately do
    not participate.
    """
    return (
        tuple(timeline._stream_ids),
        tuple(timeline._gates),
    )


def multirank_signature(timeline: MultiRankTimeline) -> tuple:
    """Structural identity of a recorded multi-rank schedule; mixed
    plain/deferred slots are handled per slot, so durations do not
    participate either."""
    return (
        timeline.world,
        tuple(timeline._slot_streams),
        tuple(timeline._collective),
        tuple(timeline._gates),
    )


def _check_group(timelines: Sequence, signature) -> None:
    first = signature(timelines[0])
    for timeline in timelines[1:]:
        if signature(timeline) != first:
            raise BatchMismatch(
                "batched replay requires structurally identical recordings; "
                "group by fast_signature/multirank_signature first"
            )


def replay_fast_batch(
    timelines: Sequence[FastTimeline],
    tracers: Optional[Sequence] = None,
) -> list[float]:
    """Replay a group of structurally identical single-rank recordings.

    Each config replays on the scalar kernel,
    :meth:`~repro.sim.fastpath.FastTimeline.replay`, which writes the
    timeline's :class:`~repro.sim.fastpath.ReplayResult` (so
    :class:`~repro.sim.fastpath.FastJob` handles and downstream
    measurement code work exactly as after a solo replay) and emits
    spans into the matching ``tracers`` entry.  Returns the per-config
    final times.

    Single-rank configs are not stacked: a stacked replay pays several
    numpy calls per gated slot where the scalar loop pays one Python
    ``max``, which loses at the group sizes sweeps form (2.0-3.4x slower
    per config at 2 configs, 1.05-1.5x at 8; see ``docs/PERF.md``).
    """
    timelines = list(timelines)
    if len(timelines) > 1:
        _check_group(timelines, fast_signature)
    return [
        timeline.replay(tracers[c] if tracers is not None else None)
        for c, timeline in enumerate(timelines)
    ]


def replay_multirank_batch(
    timelines: Sequence[MultiRankTimeline],
    tracers: Optional[Sequence] = None,
) -> list[float]:
    """Replay a group of structurally identical multi-rank recordings.

    The rank-axis kernel (a solo
    :meth:`~repro.sim.multirank_fastpath.MultiRankTimeline.replay` is a
    batch of one): durations stack into a ``(slots, configs, world)``
    tensor, per-rank runs become ``cumsum`` chains along the slot axis,
    and each collective's rendezvous is a ``max`` over the rank axis
    evaluated for all configs at once.  Writes each timeline's
    :class:`~repro.sim.fastpath.ReplayResult`, optionally emits
    spans into the matching ``tracers`` entry, and returns the
    per-config final times.
    """
    timelines = list(timelines)
    if not timelines:
        return []
    if len(timelines) > 1:
        _check_group(timelines, multirank_signature)

    first = timelines[0]
    n = len(first._handles)
    world = first.world
    configs = len(timelines)
    # Slot-major: one slot's (configs, world) block is contiguous, so the
    # per-slot ops below touch contiguous memory, and a batch of one is
    # the solo (slots, world) layout, written back without a copy.
    starts = np.zeros((n, configs, world))
    ends = np.zeros((n, configs, world))
    if n:
        slot_streams = first._slot_streams
        collective = first._collective
        gates = first._gates
        handles = first._handles
        duration_lists = [timeline._durations for timeline in timelines]
        deferred = set().union(*(timeline._deferred for timeline in timelines))
        # A slot ends a cumsum run if it is gated, a collective, or
        # deferred in any config.
        stops = [gate is not None or coll for gate, coll in zip(gates, collective)]
        for k in deferred:
            stops[k] = True
        prev = [np.zeros((configs, world)) for _ in first._actors]
        i = 0
        while i < n:
            sid = slot_streams[i]
            j = i + 1
            while j < n and slot_streams[j] == sid:
                j += 1
            base = prev[sid]
            k = i
            while k < j:
                g = k
                while g < j and not stops[g]:
                    g += 1
                if g > k:
                    # Gateless per-rank run: seeded cumsum along the slot
                    # axis, one strict left fold per (config, rank) lane —
                    # the float association of the kernel's sequential
                    # ``end += d``.
                    run = ends[k:g]
                    for c, durations in enumerate(duration_lists):
                        run[:, c] = durations[k:g]
                    run[0] += base
                    np.cumsum(run, axis=0, out=run)
                    starts[k] = base
                    starts[k + 1:g] = run[:-1]
                    base = run[-1]
                    k = g
                if k < j:
                    # Gated, collective or deferred slot: every rank
                    # arrives at max(prev end, gate ends).  A gate on an
                    # earlier slot of this segment (>= i) is same-stream:
                    # subsumed by order, elementwise in rank space.
                    row = starts[k]
                    arrive = base
                    gate_ids = gates[k]
                    if gate_ids is not None:
                        for gid in gate_ids:
                            if gid < i:
                                np.maximum(arrive, ends[gid], out=row)
                                arrive = row
                    if arrive is base:
                        row[...] = base
                    end = ends[k]
                    if collective[k]:
                        # Rendezvous per config: start at the last
                        # arrival (a max, no arithmetic), end broadcast
                        # back after one float add.
                        rendezvous = row.max(axis=1).tolist()
                        for c, durations in enumerate(duration_lists):
                            start = rendezvous[c]
                            body = durations[k]
                            if type(body) is not float:
                                body = durations[k] = resolved_duration(
                                    body, start, handles[k].name
                                )
                            end[c] = start + body
                    else:
                        for c, durations in enumerate(duration_lists):
                            body = durations[k]
                            if type(body) is not np.ndarray:
                                body = durations[k] = _resolve_per_rank(
                                    body, row[c], handles[k].name
                                )
                            end[c] = body
                        np.add(row, end, out=end)
                    base = end
                    k += 1
            prev[sid] = base
            i = j
    finals = []
    for c, timeline in enumerate(timelines):
        result = timeline._result
        result.starts = starts[:, c]
        result.ends = ends[:, c]
        result.final_time = float(result.ends.max()) if n else 0.0
        finals.append(result.final_time)
        if tracers is not None and tracers[c] is not None:
            timeline.emit_spans(tracers[c])
    return finals


def _resolve_per_rank(body, arrivals: np.ndarray, name: str) -> np.ndarray:
    """Price a deferred per-rank slot from its ``(world,)`` arrivals —
    the values the event kernel's start-time callables see per rank."""
    durations = np.asarray(body.resolve(arrivals), dtype=float)
    if not np.isfinite(durations).all():
        raise ValueError(f"slot {name!r} resolved to non-finite durations")
    return durations
