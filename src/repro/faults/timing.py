"""Timing-domain fault injection for the simulated timeline.

:class:`TimingFaultInjector` turns the timing-level fields of a
:class:`~repro.faults.plan.FaultPlan` — link-degradation windows and
compute stragglers — into perturbed job durations for the scheduler
engine.  It never touches the simulation kernels themselves: a job
starting inside a fault window is charged the degraded time for its
whole duration (factors are sampled at start, matching the plan's
documented semantics), with the sampling instant supplied by whichever
engine runs the schedule.  On the event kernel the engine submits
*callable* job bodies evaluated at job start
(:meth:`TimingFaultInjector.compute_body` /
:meth:`~TimingFaultInjector.collective_body`); on the vectorized
replays it submits *priced* duration placeholders resolved once the
replay knows each job's start time — :class:`PricedCompute` /
:class:`PricedCollective` (single-rank
:class:`~repro.sim.fastpath.FastTimeline`) and
:class:`RankPricedCompute` (rank-axis
:class:`~repro.sim.multirank_fastpath.MultiRankTimeline`).  Both
shapes call the same pricing functions with the same (base, start)
arguments, so faulty runs no longer force a fall-back to the event
kernel and the engines stay bit-for-bit comparable — pinned by the
fault test suite and the multirank differential suite.

Link degradation is priced by real degraded cost models, not by naive
scaling: each distinct ``plan.link_factors(now)`` combination gets one
:class:`~repro.network.cost_model.CollectiveTimeModel` built over
``cluster.degraded(...)`` and cached, so e.g. a hierarchical
collective correctly feels an *inter-node-only* fault on its inter
phase while the intra phase stays at full speed.

Every perturbation is recorded: ``faults.degraded_link_seconds`` /
``faults.straggler_seconds`` counters into the telemetry registry, and
per-event instant markers into the tracer (rendered as globally-scoped
"i" events in Perfetto) via :meth:`TimingFaultInjector.publish`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.plan import FaultPlan
from repro.network.cost_model import CollectiveTimeModel
from repro.sim.fastpath import DeferredDuration
from repro.sim.multirank_fastpath import DeferredRankDurations
from repro.telemetry.registry import default_registry

__all__ = [
    "TimingFaultInjector",
    "PricedCompute",
    "PricedCollective",
    "RankPricedCompute",
]

#: The healthy factor combination (shares the caller's cost model).
_HEALTHY = (1.0, 1.0, 1.0, 1.0)


class TimingFaultInjector:
    """Prices compute and collective jobs under a plan's timing faults.

    Args:
        plan: the fault plan; only ``link_faults`` / ``stragglers``
            are consumed here.
        cost: the healthy cost model the run would otherwise use;
            degraded variants are derived from its cluster and cached
            per factor combination.
    """

    def __init__(self, plan: FaultPlan, cost: CollectiveTimeModel):
        self.plan = plan
        self.cost = cost
        self._models: dict[tuple[float, float, float, float], CollectiveTimeModel] = {
            _HEALTHY: cost
        }
        #: extra comm seconds attributable to degraded links.
        self.degraded_link_seconds = 0.0
        #: extra compute seconds attributable to stragglers.
        self.straggler_seconds = 0.0
        #: (time, name, args) markers for the tracer, in injection order.
        self.events: list[tuple[float, str, dict]] = []

    # -- pricing ---------------------------------------------------------------

    def _model_for(
        self, factors: tuple[float, float, float, float]
    ) -> CollectiveTimeModel:
        model = self._models.get(factors)
        if model is None:
            model = CollectiveTimeModel(
                self.cost.cluster.degraded(*factors),
                algorithm=self.cost.algorithm,
                gamma=self.cost.gamma,
                startup_overhead=self.cost.startup_overhead,
            )
            self._models[factors] = model
        return model

    def compute_duration(self, base: float, now: float) -> float:
        """Duration of a compute job of healthy length ``base`` starting at ``now``."""
        factor = self.plan.compute_factor(now)
        if factor == 1.0:
            return base
        return self._charge_straggler(base, factor, now)

    def _charge_straggler(self, base: float, factor: float, now: float) -> float:
        """Slow ``base`` by ``factor`` (not 1.0), recording the extra time."""
        slowed = base * factor
        self.straggler_seconds += slowed - base
        self.events.append(
            (now, "fault.straggler", {"factor": factor, "extra": slowed - base})
        )
        return slowed

    def collective_duration(
        self, kind: str, nbytes: float, extra: float, now: float
    ) -> float:
        """Duration of a collective starting at ``now`` (``extra`` serialised on top)."""
        factors = self.plan.link_factors(now)
        degraded = getattr(self._model_for(factors), kind)(nbytes) + extra
        if factors != _HEALTHY:
            healthy = getattr(self.cost, kind)(nbytes) + extra
            self.degraded_link_seconds += degraded - healthy
            self.events.append(
                (
                    now,
                    "fault.degraded_link",
                    {
                        "kind": kind,
                        "bytes": nbytes,
                        "factors": factors,
                        "extra": degraded - healthy,
                    },
                )
            )
        return degraded

    # -- job-body factories ----------------------------------------------------

    def compute_body(self, base: float, sim) -> Callable[[], float]:
        """Callable job body evaluating the straggler factor at start time."""
        return lambda: self.compute_duration(base, sim.now)

    def collective_body(
        self, kind: str, nbytes: float, extra: float, sim
    ) -> Callable[[], float]:
        """Callable job body evaluating link degradation at start time."""
        return lambda: self.collective_duration(kind, nbytes, extra, sim.now)

    # -- priced placeholders (vectorized replays) ------------------------------

    def compute_priced(self, base: float) -> "PricedCompute":
        """Recorded compute duration priced at replay (single rank)."""
        return PricedCompute(self, base)

    def collective_priced(
        self, kind: str, nbytes: float, extra: float
    ) -> "PricedCollective":
        """Recorded collective duration priced at the rendezvous start."""
        return PricedCollective(self, kind, nbytes, extra)

    def compute_priced_ranks(self, bases: np.ndarray) -> "RankPricedCompute":
        """Recorded per-rank compute durations priced at replay."""
        return RankPricedCompute(self, bases)

    # -- reporting -------------------------------------------------------------

    def publish(self, tracer=None) -> None:
        """Flush markers into ``tracer`` and totals into the registry."""
        if tracer is not None:
            for time, name, args in self.events:
                tracer.record_instant(name, time, args=args)
        registry = default_registry()
        if self.degraded_link_seconds:
            registry.counter(
                "faults.degraded_link_seconds",
                "extra virtual comm seconds due to degraded links",
            ).inc(self.degraded_link_seconds)
        if self.straggler_seconds:
            registry.counter(
                "faults.straggler_seconds",
                "extra virtual compute seconds due to stragglers",
            ).inc(self.straggler_seconds)

    def summary(self) -> dict:
        """JSON-ready totals (chaos CLI, result extras)."""
        return {
            "degraded_link_seconds": self.degraded_link_seconds,
            "straggler_seconds": self.straggler_seconds,
            "events": len(self.events),
        }


class PricedCompute(DeferredDuration):
    """Compute duration the fast-path replay resolves at job start.

    Calls the exact pricing function the event kernel's callable body
    would (:meth:`TimingFaultInjector.compute_duration`), so the two
    engines charge bit-identical durations and record identical fault
    events.
    """

    __slots__ = ("injector", "base")

    def __init__(self, injector: TimingFaultInjector, base: float):
        self.injector = injector
        self.base = base

    def resolve(self, start: float) -> float:
        return self.injector.compute_duration(self.base, start)


class PricedCollective(DeferredDuration):
    """Collective duration resolved at the (rendezvous) start time."""

    __slots__ = ("injector", "kind", "nbytes", "extra")

    def __init__(self, injector: TimingFaultInjector, kind: str,
                 nbytes: float, extra: float):
        self.injector = injector
        self.kind = kind
        self.nbytes = nbytes
        self.extra = extra

    def resolve(self, start: float) -> float:
        return self.injector.collective_duration(
            self.kind, self.nbytes, self.extra, start
        )


class RankPricedCompute(DeferredRankDurations):
    """Per-rank compute durations the multi-rank replay prices at start.

    The straggler factors of all ranks come from one numpy pass over
    ``starts``, multiplying the active windows in plan order — the
    float products :meth:`FaultPlan.compute_factor` forms per rank.
    Only the slowed ranks then go through the scalar bookkeeping, in
    rank order, so durations, ``straggler_seconds`` and the fault
    events match a per-rank :meth:`TimingFaultInjector.compute_duration`
    loop bit for bit.  Events are appended slot-major here and
    chronologically on the event kernel; the sorted trace export
    normalises that away.
    """

    __slots__ = ("injector", "bases")

    def __init__(self, injector: TimingFaultInjector, bases: np.ndarray):
        self.injector = injector
        self.bases = bases

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        injector = self.injector
        factors = np.ones(len(starts))
        for straggler in injector.plan.stragglers:
            active = (straggler.start <= starts) & (starts < straggler.end)
            factors[active] *= straggler.compute_factor
        slowed_ranks = np.flatnonzero(factors != 1.0)
        durations = self.bases.tolist()
        for rank, factor, start in zip(
            slowed_ranks.tolist(),
            factors[slowed_ranks].tolist(),
            starts[slowed_ranks].tolist(),
        ):
            durations[rank] = injector._charge_straggler(durations[rank], factor, start)
        return np.array(durations)
