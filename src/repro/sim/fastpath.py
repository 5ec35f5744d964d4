"""Vectorized timeline replay for static-gate stream schedules.

The event-driven kernel (:mod:`repro.sim.engine`) is fully general:
processes, dynamic events, priority engines.  But every single-rank
scheduler policy in this repository submits its *entire* schedule up
front as jobs on two strictly in-order streams, where each job's only
dependencies are (a) its stream predecessor and (b) an optional static
gate over the ``done`` events of previously submitted jobs.  For that
shape the timeline is a closed-form recurrence, not a simulation:

    start[i] = max(end[prev on stream], gate[i])
    end[i]   = start[i] + duration[i]

This module records such schedules symbolically (no events, no
generators, no heap) and replays them with numpy.  Within one *segment*
— a maximal run of consecutively submitted same-stream jobs — gateless
runs telescope to a prefix sum, evaluated with ``np.cumsum`` seeded
with the run's base time (a strict left fold, so the float association
matches the kernel's sequential ``end += d``); gated jobs take a
scalar path computing exactly ``max(prev_end, gate_end) + duration``.
Gates always point at earlier-submitted jobs, so processing segments
in submission order resolves every dependency; a same-stream gate is
subsumed by stream ordering and is dropped.  Consequence: any schedule
expressible in this API is deadlock-free by construction (the
dependency graph only has back-edges), matching the event kernel,
which completes the same schedules.

The replay is verified against the event-driven kernel by the
differential suite in ``tests/sim/test_fastpath.py``; because the
replay performs the *same float operations in the same order* as the
kernel, agreement is bit-exact — timestamps are identical, and the
exported Chrome traces are byte-for-byte equal (also pinned by the
differential suite).

Durations need not all be known at record time: a job may carry a
:class:`DeferredDuration`, resolved during replay once its start time
is known — the recorded counterpart of the event kernel's callable job
bodies, and how timing faults (:mod:`repro.faults.timing`) ride the
fast path instead of forcing a fall-back.  A deferred slot breaks the
cumsum batching at that job but everything around it stays vectorized.
Anything genuinely dynamic — process bodies, ``sim.event()``, raw
callbacks — still raises :class:`FastPathUnsupported`, and the caller
falls back to the event kernel.  Selection lives in
:meth:`repro.schedulers.base.Scheduler.run` and can be disabled
globally with ``DEAR_FASTPATH=0``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

import numpy as np

from repro.sim.trace import Span

__all__ = [
    "FastPathUnsupported",
    "fast_path_enabled",
    "DeferredDuration",
    "FastGate",
    "FastJob",
    "FastStream",
    "FastSimShim",
    "FastTimeline",
]

_NEG_INF = float("-inf")


class FastPathUnsupported(RuntimeError):
    """The schedule uses a feature only the event-driven kernel has."""


class DeferredDuration:
    """A job duration resolved at replay time from the job's start.

    Subclasses implement :meth:`resolve`, performing the same float
    operations the event kernel's callable job body would perform at
    job start — so replays with deferred durations stay bit-identical
    to the kernel.  The timing-fault injector's priced bodies
    (:class:`repro.faults.timing.PricedCompute` /
    :class:`~repro.faults.timing.PricedCollective`) are the canonical
    implementations.
    """

    __slots__ = ()

    def resolve(self, start: float) -> float:
        raise NotImplementedError


def fast_path_enabled() -> bool:
    """Whether automatic fast-path selection is on (``DEAR_FASTPATH``).

    Parsed by :func:`repro.core.env.env_flag`: recognised false
    spellings disable it, recognised true spellings (and unset) enable
    it, and anything else warns and keeps the default (enabled).
    """
    # Imported at call time: repro.core's package __init__ transitively
    # imports the collectives (and through them the telemetry registry),
    # so a module-level import here could form a cycle.
    from repro.core.env import env_flag

    return env_flag("DEAR_FASTPATH", True)


class FastGate:
    """A static gate: the recorded jobs (or slots) that must all have ended.

    Plays the role of an :class:`~repro.sim.engine.Event` (a job's
    ``done``, or an ``all_of`` combination) in recorded schedules, on a
    :class:`FastTimeline` and on a
    :class:`~repro.sim.multirank_fastpath.MultiRankTimeline` alike (where
    a slot's end is per rank and the gate holds elementwise).
    """

    __slots__ = ("ids",)

    def __init__(self, ids: tuple[int, ...]):
        self.ids = ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FastGate ids={self.ids}>"


def static_gate(gate: Any) -> Optional[FastGate]:
    """``gate`` if it is ``None`` or recorded; anything dynamic raises."""
    if gate is not None and not isinstance(gate, FastGate):
        raise FastPathUnsupported(
            f"fast path requires static job gates, got {type(gate).__name__}"
        )
    return gate


def fixed_duration(body: Any, name: str) -> float:
    """A recorded scalar duration: a finite, non-negative number.

    Non-numeric bodies (callables, generators) raise
    :class:`FastPathUnsupported`; negative or non-finite numbers raise
    :class:`ValueError` — ``nan < 0`` is false, so a plain sign check
    would let NaN through into plausible-looking timestamps.
    """
    if isinstance(body, bool) or not isinstance(body, (int, float)):
        raise FastPathUnsupported(
            f"fast path requires fixed job durations, got {type(body).__name__}"
        )
    if not 0 <= body < math.inf:
        raise ValueError(f"job {name!r} has negative or non-finite duration {body}")
    return float(body)


def resolved_duration(body: DeferredDuration, start: float, name: str) -> float:
    """Price a deferred scalar duration at ``start``; non-finite raises."""
    duration = float(body.resolve(start))
    if not math.isfinite(duration):
        raise ValueError(f"job {name!r} resolved to non-finite duration {duration}")
    return duration


class FastJob:
    """Recorded counterpart of :class:`repro.sim.resources.Job`.

    ``start`` / ``end`` read the replay's result arrays and are ``None``
    until :meth:`FastTimeline.replay` has run, mirroring the unset
    timestamps of a job the event kernel has not executed yet.
    """

    __slots__ = ("_timeline", "index", "name", "category", "metadata", "done")

    def __init__(self, timeline: "FastTimeline", index: int, name: str,
                 category: str, metadata: dict):
        self._timeline = timeline
        self.index = index
        self.name = name
        self.category = category
        self.metadata = metadata
        self.done = FastGate((index,))

    @property
    def start(self) -> Optional[float]:
        starts = self._timeline._starts
        return None if starts is None else float(starts[self.index])

    @property
    def end(self) -> Optional[float]:
        ends = self._timeline._ends
        return None if ends is None else float(ends[self.index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FastJob {self.name!r} cat={self.category!r}>"


class FastStream:
    """In-order stream recording into a shared :class:`FastTimeline`."""

    __slots__ = ("_timeline", "stream_id", "name", "actor", "jobs_submitted")

    def __init__(self, timeline: "FastTimeline", stream_id: int, name: str,
                 actor: str):
        self._timeline = timeline
        self.stream_id = stream_id
        self.name = name
        self.actor = actor or name
        self.jobs_submitted = 0

    def submit(
        self,
        body: Any,
        name: str = "task",
        category: str = "compute",
        gate: Optional[FastGate] = None,
        metadata: Optional[dict] = None,
    ) -> FastJob:
        """Record one job; mirrors ``Stream.submit``.

        ``body`` is a fixed duration or a :class:`DeferredDuration`
        (priced at replay from the job's start time).
        """
        duration = (body if isinstance(body, DeferredDuration)
                    else fixed_duration(body, name))
        self.jobs_submitted += 1
        return self._timeline._record(
            self, duration, name, category, static_gate(gate), metadata or {}
        )

    def barrier(self, name: str = "barrier") -> FastJob:
        """A zero-duration job marking that all prior work drained."""
        return self.submit(0.0, name=name, category="barrier")

    def wait_event(self, event: FastGate, name: str = "wait_event") -> FastJob:
        """Stall the stream until ``event`` (cudaStreamWaitEvent)."""
        return self.submit(0.0, name=name, category="wait", gate=event)


class FastSimShim:
    """The slice of the :class:`Simulator` API a static schedule may use.

    Shared by :class:`FastTimeline` and
    :class:`~repro.sim.multirank_fastpath.MultiRankTimeline`: ``all_of``
    composes gates; everything dynamic raises
    :class:`FastPathUnsupported` so the caller can fall back to the
    event-driven kernel.
    """

    __slots__ = ("_timeline",)

    def __init__(self, timeline: Any):
        self._timeline = timeline

    def all_of(self, events: Iterable[Any], name: str = "all_of") -> FastGate:
        """Combine gates: all referenced jobs must have ended."""
        ids: list[int] = []
        for event in events:
            if not isinstance(event, FastGate):
                raise FastPathUnsupported(
                    f"fast path cannot wait on {type(event).__name__}"
                )
            ids.extend(event.ids)
        return FastGate(tuple(ids))

    def _unsupported(self, feature: str):
        raise FastPathUnsupported(f"fast path does not support {feature}")

    def event(self, name: str = ""):
        self._unsupported("dynamic events (sim.event)")

    def timeout(self, delay: float, value: Any = None, name: str = "timeout"):
        self._unsupported("timeouts (sim.timeout)")

    def process(self, generator, name: str = ""):
        self._unsupported("processes (sim.process)")

    def any_of(self, events, name: str = "any_of"):
        self._unsupported("any_of combinators")

    def schedule(self, delay: float, callback):
        self._unsupported("raw callbacks (sim.schedule)")

    @property
    def now(self) -> float:
        return self._timeline.final_time


class FastTimeline:
    """Job recorder plus the vectorized replay."""

    __slots__ = ("sim", "_streams", "_stream_ids", "_durations", "_gates",
                 "_handles", "_starts", "_ends", "_has_priced", "final_time")

    def __init__(self):
        self.sim = FastSimShim(self)
        self._streams: list[FastStream] = []
        self._stream_ids: list[int] = []
        #: float durations, with :class:`DeferredDuration` placeholders
        #: replaced by their resolved values during replay.
        self._durations: list = []
        self._gates: list[Optional[tuple[int, ...]]] = []
        self._handles: list[FastJob] = []
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self._has_priced = False
        self.final_time = 0.0

    def stream(self, name: str, actor: str = "") -> FastStream:
        """Create a new in-order stream on this timeline."""
        stream = FastStream(self, len(self._streams), name, actor)
        self._streams.append(stream)
        return stream

    def stream_busy_times(self) -> list[float]:
        """Total recorded duration per stream id (telemetry).

        Recorded durations equal replayed busy time: in-order streams
        never overlap their own jobs, so busy time is the plain sum —
        no replay required (unless deferred durations were recorded,
        which only :meth:`replay` resolves), and O(n) in one
        vectorized pass.
        """
        busy = np.zeros(len(self._streams))
        if self._durations:
            np.add.at(
                busy,
                np.asarray(self._stream_ids),
                np.asarray(self._durations),
            )
        return busy.tolist()

    def _record(self, stream: FastStream, duration, name: str,
                category: str, gate: Optional[FastGate],
                metadata: dict) -> FastJob:
        index = len(self._handles)
        job = FastJob(self, index, name, category, metadata)
        self._stream_ids.append(stream.stream_id)
        self._durations.append(duration)
        if type(duration) is not float:
            self._has_priced = True
        self._gates.append(gate.ids if gate is not None else None)
        self._handles.append(job)
        return job

    def replay(self, tracer=None) -> float:
        """Compute every job's start/end; returns the final virtual time.

        Optionally records spans with positive duration into ``tracer``
        (the same ones the event kernel's streams would have recorded).
        """
        n = len(self._handles)
        starts = np.zeros(n)
        ends = np.zeros(n)
        # Python-float mirror of `ends`, grown as the replay advances:
        # gate lookups and span emission read it instead of extracting
        # numpy scalars one element at a time.
        ends_list: list[float] = []
        if n:
            stream_ids = self._stream_ids
            gates = self._gates
            durations_py = self._durations
            has_priced = self._has_priced
            # With deferred durations in the list, vector slices come
            # straight from the (mixed) Python list run by run instead
            # of one prebuilt array.
            durations = None if has_priced else np.asarray(durations_py)
            prev_end = [0.0] * len(self._streams)
            i = 0
            while i < n:
                sid = stream_ids[i]
                j = i + 1
                while j < n and stream_ids[j] == sid:
                    j += 1
                # Replay the segment as the event kernel would, float op
                # for float op, so the two engines produce *bit-identical*
                # timestamps (the byte-for-byte trace differential relies
                # on this).  Gateless runs telescope to end[k] = end[k-1]
                # + d[k]: seeding ``np.cumsum`` — a strict left fold —
                # with the base reproduces that association exactly.
                # Gated jobs take the scalar path: max(prev, gate) + d.
                base = prev_end[sid]
                k = i
                while k < j:
                    g = k
                    while (g < j and gates[g] is None
                           and (not has_priced
                                or type(durations_py[g]) is float)):
                        g += 1
                    if g > k:
                        chain = np.empty(g - k + 1)
                        chain[0] = base
                        chain[1:] = (
                            durations_py[k:g] if has_priced else durations[k:g]
                        )
                        seg_ends = np.cumsum(chain)
                        starts[k:g] = seg_ends[:-1]
                        ends[k:g] = seg_ends[1:]
                        ends_list.extend(seg_ends[1:].tolist())
                        base = ends_list[-1]
                        k = g
                    if k < j:
                        # A gate id inside the segment (>= i) is an
                        # earlier same-stream job: subsumed by order.
                        gate_time = _NEG_INF
                        gate_ids = gates[k]
                        if gate_ids is not None:
                            for gid in gate_ids:
                                if gid < i:
                                    e = ends_list[gid]
                                    if e > gate_time:
                                        gate_time = e
                        start = base if base >= gate_time else gate_time
                        duration = durations_py[k]
                        if type(duration) is not float:
                            # Deferred: price at the now-known start and
                            # keep the resolved value (busy-time sums and
                            # re-replays read it).
                            duration = resolved_duration(
                                duration, start, self._handles[k].name
                            )
                            durations_py[k] = duration
                        end = start + duration
                        starts[k] = start
                        ends[k] = end
                        ends_list.append(end)
                        base = end
                        k += 1
                prev_end[sid] = base
                i = j
        self._starts = starts
        self._ends = ends
        self.final_time = float(ends.max()) if n else 0.0
        if tracer is not None:
            self.emit_spans(tracer)
        return self.final_time

    def emit_spans(self, tracer) -> None:
        """Record every positive-duration replayed job into ``tracer``.

        Requires a prior :meth:`replay` (or a batched replay that wrote
        the result arrays back — see :mod:`repro.sim.batched`); emits
        the same spans the event kernel's streams would have recorded.
        """
        if self._starts is None or self._ends is None:
            raise RuntimeError("emit_spans requires a completed replay")
        spans = tracer.spans
        streams = self._streams
        stream_ids = self._stream_ids
        starts_list = self._starts.tolist()
        ends_list = self._ends.tolist()
        for index, job in enumerate(self._handles):
            start = starts_list[index]
            end = ends_list[index]
            if end > start:
                spans.append(Span(
                    job.name,
                    job.category,
                    streams[stream_ids[index]].actor,
                    start,
                    end,
                    job.metadata,
                ))
