"""Rank-axis recording for multi-rank two-stream schedules.

:mod:`repro.sim.fastpath` replays a *single* representative rank's
static schedule in closed form.  This module extends the idea along a
second axis: a :class:`MultiRankTimeline` records the per-rank two-
stream schedule of ``world`` workers plus their rendezvous collectives
as ``(slots, world)`` durations and static gates, for the rank-axis
kernel :func:`repro.sim.batched.replay_multirank_batch` to replay — per
stream a prefix sum along the slot axis, per collective a ``max``
reduction across the rank axis.  :meth:`MultiRankTimeline.replay` is
that kernel run on a batch of one.

One *slot* is the unit of recording: a single scheduler submission
fanned out to all ranks.  Two slot kinds exist:

- **per-rank jobs** carry a ``(world,)`` duration vector (each rank's
  own compute time); rank ``r`` obeys the usual stream recurrence
  ``start[r] = max(prev_end[r], gate[r])``, ``end[r] = start[r] + d[r]``.
- **collectives** carry one scalar duration and rendezvous: every rank
  arrives at ``max(prev_end[r], gate[r])``, the collective starts at the
  *last* arrival (a ``max`` over the rank axis, no arithmetic — exactly
  when the event kernel's rendezvous fires), and every rank ends at
  ``start + duration`` (one float add, broadcast back).

Gates always reference earlier-submitted slots, so replaying slots in
submission order resolves every dependency.  Because the replay
performs the same float operations in the same order as the event
kernel, per-rank timestamps agree bit-for-bit and exported Chrome
traces are byte-identical — pinned by the differential suite in
``tests/sim/test_multirank_fastpath.py``.

Timing faults ride along without abandoning the vectorized path: a
per-rank slot may carry a :class:`DeferredRankDurations` (durations
resolved from the per-rank start times once known) and a collective a
:class:`~repro.sim.fastpath.DeferredDuration` (resolved at the global
rendezvous start).

Anything else — generator bodies, dynamic events — raises
:class:`~repro.sim.fastpath.FastPathUnsupported` so the caller
(:func:`repro.schedulers.multirank.simulate_heterogeneous`) can fall
back to the event-kernel engine.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.sim.fastpath import (
    DeferredDuration,
    FastGate,
    FastPathUnsupported,
    FastSimShim,
    fixed_duration,
    static_gate,
)
from repro.sim.trace import Span

__all__ = [
    "DeferredRankDurations",
    "MultiRankJobSet",
    "MultiRankStream",
    "MultiRankTimeline",
]


class DeferredRankDurations:
    """Per-rank durations resolved at replay from the per-rank starts.

    The multi-rank counterpart of
    :class:`~repro.sim.fastpath.DeferredDuration`: implementations
    (e.g. the timing-fault injector's straggler pricer) receive the
    slot's ``(world,)`` start-time vector and return the ``(world,)``
    duration vector, performing the same float operations the event
    kernel's start-time callables would.
    """

    __slots__ = ()

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MultiRankJobSet:
    """One recorded slot: the same submission on every rank's stream.

    ``starts`` / ``ends`` read the replay's ``(world,)`` result rows and
    are ``None`` before :meth:`MultiRankTimeline.replay`.  ``metadata``
    is one dict *shared by all ranks* — scheduler-side mutations (flow
    ids, fusion attribution) apply to every rank's span at once.
    """

    __slots__ = ("_timeline", "index", "name", "category", "metadata", "done")

    def __init__(self, timeline: "MultiRankTimeline", index: int, name: str,
                 category: str, metadata: dict):
        self._timeline = timeline
        self.index = index
        self.name = name
        self.category = category
        self.metadata = metadata
        self.done = FastGate((index,))

    @property
    def starts(self) -> Optional[np.ndarray]:
        starts = self._timeline._starts
        return None if starts is None else starts[self.index]

    @property
    def ends(self) -> Optional[np.ndarray]:
        ends = self._timeline._ends
        return None if ends is None else ends[self.index]

    def rank_start(self, rank: int) -> float:
        starts = self.starts
        if starts is None:
            raise RuntimeError(f"slot {self.name!r} has not been replayed yet")
        return float(starts[rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MultiRankJobSet {self.name!r} cat={self.category!r}>"


class MultiRankStream:
    """One stream *group*: the rank-r instances of one in-order stream."""

    __slots__ = ("_timeline", "stream_id", "name", "actors", "jobs_submitted")

    def __init__(self, timeline: "MultiRankTimeline", stream_id: int,
                 name: str):
        self._timeline = timeline
        self.stream_id = stream_id
        self.name = name
        self.actors = [
            f"rank{rank}.{name}" for rank in range(timeline.world)
        ]
        #: slots recorded on this group (each fans out to ``world`` jobs).
        self.jobs_submitted = 0

    def submit(
        self,
        body: Any,
        name: str = "task",
        category: str = "compute",
        gate: Optional[FastGate] = None,
        metadata: Optional[dict] = None,
    ) -> MultiRankJobSet:
        """Record one per-rank slot from a ``(world,)`` duration vector
        (or a :class:`DeferredRankDurations` priced at replay)."""
        if isinstance(body, DeferredRankDurations):
            durations: Any = body
        else:
            if not isinstance(body, np.ndarray):
                raise FastPathUnsupported(
                    f"multi-rank fast path requires per-rank duration "
                    f"vectors, got {type(body).__name__}"
                )
            if body.shape != (self._timeline.world,):
                raise ValueError(
                    f"slot {name!r}: expected {self._timeline.world} "
                    f"durations, got shape {body.shape}"
                )
            # NaN fails both comparisons; the bare reductions keep this
            # per-slot check cheaper than ``body.min()``/``body.max()``.
            if not (np.minimum.reduce(body) >= 0
                    and np.maximum.reduce(body) < np.inf):
                raise ValueError(
                    f"slot {name!r} has negative or non-finite durations"
                )
            durations = body.astype(float, copy=False)
        self.jobs_submitted += 1
        return self._timeline._record(
            self, durations, False, name, category, static_gate(gate),
            metadata or {},
        )

    def submit_collective(
        self,
        body: Any,
        name: str = "collective",
        category: str = "comm.ar",
        gate: Optional[FastGate] = None,
        metadata: Optional[dict] = None,
    ) -> MultiRankJobSet:
        """Record one rendezvous collective slot (scalar duration shared
        by all ranks, or a :class:`DeferredDuration` priced at the
        rendezvous start)."""
        duration = (body if isinstance(body, DeferredDuration)
                    else fixed_duration(body, name))
        self.jobs_submitted += 1
        return self._timeline._record(
            self, duration, True, name, category, static_gate(gate),
            metadata or {},
        )


class MultiRankTimeline:
    """Slot recorder; :meth:`replay` runs the rank-axis kernel on it."""

    __slots__ = ("world", "sim", "_streams", "_slot_streams", "_durations",
                 "_collective", "_gates", "_deferred", "_handles", "_starts",
                 "_ends", "final_time")

    def __init__(self, world: int):
        if world < 1:
            raise ValueError(f"world size must be >= 1, got {world}")
        self.world = world
        self.sim = FastSimShim(self)
        self._streams: list[MultiRankStream] = []
        self._slot_streams: list[int] = []
        #: per slot: (world,) ndarray | DeferredRankDurations for per-rank
        #: slots, float | DeferredDuration for collectives.
        self._durations: list[Any] = []
        self._collective: list[bool] = []
        self._gates: list[Optional[tuple[int, ...]]] = []
        #: slots recorded with a deferred duration.  The replay writes the
        #: resolved value back; a stale entry then only ends a cumsum run
        #: early, which a strict left fold does not notice.
        self._deferred: list[int] = []
        self._handles: list[MultiRankJobSet] = []
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self.final_time = 0.0

    def stream(self, name: str) -> MultiRankStream:
        """Create a new stream group (``rank<r>.<name>`` for every rank)."""
        stream = MultiRankStream(self, len(self._streams), name)
        self._streams.append(stream)
        return stream

    @property
    def slots_recorded(self) -> int:
        return len(self._handles)

    @property
    def jobs_recorded(self) -> int:
        """Total per-rank jobs the event kernel would have executed."""
        return len(self._handles) * self.world

    def _record(self, stream: MultiRankStream, durations: Any,
                collective: bool, name: str, category: str,
                gate: Optional[FastGate],
                metadata: dict) -> MultiRankJobSet:
        index = len(self._handles)
        handle = MultiRankJobSet(self, index, name, category, metadata)
        self._slot_streams.append(stream.stream_id)
        self._durations.append(durations)
        self._collective.append(collective)
        self._gates.append(gate.ids if gate is not None else None)
        if isinstance(durations, (DeferredRankDurations, DeferredDuration)):
            self._deferred.append(index)
        self._handles.append(handle)
        return handle

    def replay(self, tracer=None) -> float:
        """Compute every slot's per-rank starts/ends; returns final time.

        The rank-axis kernel, :func:`repro.sim.batched.replay_multirank_batch`,
        run on a batch of one.  Optionally records every positive-duration
        per-rank span into ``tracer`` — the same spans the event kernel's
        per-rank streams would have recorded (a collective's rank-r span
        runs from that rank's *arrival* to the shared end).
        """
        # Imported at call time: repro.sim.batched imports this module.
        from repro.sim.batched import replay_multirank_batch

        return replay_multirank_batch([self], [tracer])[0]

    def emit_spans(self, tracer) -> None:
        """Record every positive-duration per-rank span into ``tracer``.

        Requires a prior :meth:`replay` (or a batched replay that wrote
        the result matrices back — see :mod:`repro.sim.batched`).
        """
        if self._starts is None or self._ends is None:
            raise RuntimeError("emit_spans requires a completed replay")
        starts = self._starts
        ends = self._ends
        world = self.world
        spans = tracer.spans
        streams = self._streams
        slot_streams = self._slot_streams
        for index, handle in enumerate(self._handles):
            actors = streams[slot_streams[index]].actors
            row_starts = starts[index].tolist()
            row_ends = ends[index].tolist()
            name = handle.name
            category = handle.category
            metadata = handle.metadata
            for rank in range(world):
                start = row_starts[rank]
                end = row_ends[rank]
                if end > start:
                    spans.append(Span(
                        name, category, actors[rank], start, end, metadata,
                    ))
