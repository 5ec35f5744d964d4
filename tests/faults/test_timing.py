"""Timing-level fault injection: differential bit-identity, inflation,
fast-path fallback, and trace instants."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.faults.timing import RankPricedCompute, TimingFaultInjector
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import SCHEDULER_NAMES, simulate
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)

ITERATIONS = 4

#: Whole-run link degradation: everything gets slower.
SLOW_LINK = FaultPlan(
    link_faults=(LinkFault(0.0, 1e9, alpha_factor=3.0, beta_factor=2.0,
                           link="both"),)
)

#: Whole-run compute straggler.
STRAGGLER = FaultPlan(stragglers=(StragglerFault(0.0, 1e9, compute_factor=1.4),))


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


class TestEmptyPlanBitIdentity:
    """The acceptance differential: an empty plan IS the healthy run."""

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_iteration_timeline_identical(self, scheduler, tiny_model,
                                          ethernet_cluster):
        healthy = simulate(scheduler, tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        empty = simulate(scheduler, tiny_model, ethernet_cluster,
                         iterations=ITERATIONS, faults=FaultPlan())
        assert empty.iteration_times == healthy.iteration_times
        assert empty.iteration_time == healthy.iteration_time
        assert empty.exposed_comm == healthy.exposed_comm
        assert "fault_plan" not in empty.extras

    @pytest.mark.parametrize("scheduler", ("dear", "wfbp", "bytescheduler"))
    def test_chrome_trace_byte_identical(self, scheduler, tiny_model,
                                         ethernet_cluster):
        healthy = simulate(scheduler, tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        empty = simulate(scheduler, tiny_model, ethernet_cluster,
                         iterations=ITERATIONS, faults=FaultPlan())
        assert empty.tracer.to_chrome_trace() == healthy.tracer.to_chrome_trace()


class TestTimingInflation:
    def test_link_fault_slows_communication(self, tiny_model, ethernet_cluster):
        healthy = simulate("dear", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        faulty = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=SLOW_LINK)
        assert faulty.iteration_time > healthy.iteration_time
        summary = faulty.extras["timing_faults"]
        assert summary["degraded_link_seconds"] > 0.0
        assert summary["straggler_seconds"] == 0.0
        assert summary["events"] > 0
        assert faulty.extras["fault_plan"] == SLOW_LINK.label()

    def test_straggler_slows_compute(self, tiny_model, ethernet_cluster):
        healthy = simulate("wfbp", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        faulty = simulate("wfbp", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=STRAGGLER)
        assert faulty.iteration_time > healthy.iteration_time
        summary = faulty.extras["timing_faults"]
        assert summary["straggler_seconds"] > 0.0
        assert summary["degraded_link_seconds"] == 0.0

    def test_windowed_fault_only_touches_the_window(self, tiny_model,
                                                    ethernet_cluster):
        healthy = simulate("dear", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        # Window ends before the simulation starts doing anything close
        # to its end: later iterations must be unperturbed.
        window = FaultPlan(
            link_faults=(LinkFault(0.0, healthy.iteration_times[0] * 0.5,
                                   alpha_factor=4.0, beta_factor=4.0,
                                   link="both"),)
        )
        faulty = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=window)
        assert faulty.iteration_times[0] >= healthy.iteration_times[0]
        assert faulty.iteration_times[-1] == pytest.approx(
            healthy.iteration_times[-1], rel=1e-9
        )

    def test_timing_faults_are_deterministic(self, tiny_model,
                                             ethernet_cluster):
        a = simulate("dear", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, faults=SLOW_LINK)
        b = simulate("dear", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, faults=SLOW_LINK)
        assert a.iteration_times == b.iteration_times
        assert a.tracer.to_chrome_trace() == b.tracer.to_chrome_trace()


class TestFastPathEngines:
    def test_faulty_run_stays_on_the_fast_path(self, registry, tiny_model,
                                               ethernet_cluster):
        """Priced placeholders keep faulty runs off the event kernel."""
        simulate("dear", tiny_model, ethernet_cluster, iterations=ITERATIONS,
                 faults=SLOW_LINK, fastpath=True)
        runs = registry.counter("sim.runs")
        assert runs.value(engine="fastpath") > 0
        assert runs.value(engine="event") == 0

    def test_healthy_run_keeps_the_fast_path(self, registry, tiny_model,
                                             ethernet_cluster):
        simulate("dear", tiny_model, ethernet_cluster, iterations=ITERATIONS,
                 fastpath=True)
        runs = registry.counter("sim.runs")
        assert runs.value(engine="fastpath") > 0
        assert runs.value(engine="event") == 0

    @pytest.mark.parametrize("plan", [SLOW_LINK, STRAGGLER],
                             ids=["slow-link", "straggler"])
    def test_faulty_fastpath_matches_event_kernel(self, plan, tiny_model,
                                                  ethernet_cluster):
        fast = simulate("dear", tiny_model, ethernet_cluster,
                        iterations=ITERATIONS, faults=plan, fastpath=True)
        event_only = simulate("dear", tiny_model, ethernet_cluster,
                              iterations=ITERATIONS, faults=plan,
                              fastpath=False)
        assert fast.iteration_times == event_only.iteration_times
        assert fast.extras["timing_faults"] == event_only.extras["timing_faults"]
        assert fast.tracer.to_chrome_trace() == event_only.tracer.to_chrome_trace()


class TestTraceInstants:
    def test_faulty_trace_carries_instant_events(self, tiny_model,
                                                 ethernet_cluster):
        result = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=SLOW_LINK)
        trace = json.loads(result.tracer.to_chrome_trace())
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert instants
        assert {e["name"] for e in instants} == {"fault.degraded_link"}
        for event in instants:
            assert event["s"] == "g"
            assert event["cat"] == "fault"
            assert "factors" in event["args"]

    def test_healthy_trace_has_no_instants(self, tiny_model,
                                           ethernet_cluster):
        result = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS)
        trace = json.loads(result.tracer.to_chrome_trace())
        assert not [e for e in trace["traceEvents"] if e.get("ph") == "i"]


class TestDegradedCluster:
    def test_healthy_factors_return_self(self, ethernet_cluster):
        assert ethernet_cluster.degraded() is ethernet_cluster
        assert ethernet_cluster.degraded(1.0, 1.0, 1.0, 1.0) is ethernet_cluster

    def test_factors_scale_alpha_and_beta(self, ethernet_cluster):
        degraded = ethernet_cluster.degraded(
            inter_alpha=2.0, inter_beta=4.0, intra_alpha=3.0, intra_beta=5.0
        )
        assert degraded.inter_link.latency == \
            pytest.approx(2.0 * ethernet_cluster.inter_link.latency)
        # A beta cost factor of k divides bandwidth by k.
        assert degraded.inter_link.bandwidth == \
            pytest.approx(ethernet_cluster.inter_link.bandwidth / 4.0)
        assert degraded.intra_link.latency == \
            pytest.approx(3.0 * ethernet_cluster.intra_link.latency)
        assert degraded.intra_link.bandwidth == \
            pytest.approx(ethernet_cluster.intra_link.bandwidth / 5.0)
        assert "[degraded]" in degraded.name

    def test_degraded_cost_model_prices_higher(self, ethernet_cluster):
        healthy = CollectiveTimeModel(ethernet_cluster, algorithm="ring")
        degraded = CollectiveTimeModel(
            ethernet_cluster.degraded(2.0, 2.0, 2.0, 2.0), algorithm="ring"
        )
        nbytes = 25e6
        assert degraded.all_reduce(nbytes) > healthy.all_reduce(nbytes)
        assert degraded.reduce_scatter(nbytes) > healthy.reduce_scatter(nbytes)


def _random_plan(rng: random.Random) -> FaultPlan:
    """Zero to six overlapping windows; some factors multiply back to 1."""
    stragglers = []
    for _ in range(rng.randrange(7)):
        start = rng.choice([0.0, rng.uniform(0.0, 1.0)])
        factor = rng.choice([0.5, 2.0, 1.0, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), 3])
        stragglers.append(StragglerFault(start, start + rng.uniform(0.5, 3.0), factor))
    return FaultPlan(stragglers=tuple(stragglers))


def _random_starts(rng: random.Random, plan: FaultPlan, world: int) -> np.ndarray:
    edges = [edge for s in plan.stragglers for edge in (s.start, s.end)]
    return np.array([
        rng.choice(edges) if edges and rng.random() < 0.2 else rng.uniform(0.0, 4.0)
        for _ in range(world)
    ])


class TestRankPricedCompute:
    """The vectorized per-rank pricer against the scalar per-rank loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_rank_loop(self, seed, ethernet_cluster):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        world = rng.choice([1, 2, 7, 64])
        cost = CollectiveTimeModel(ethernet_cluster)
        loop, vector = TimingFaultInjector(plan, cost), TimingFaultInjector(plan, cost)
        for _ in range(3):
            bases = np.array([rng.uniform(1e-4, 1e-2) for _ in range(world)])
            starts = _random_starts(rng, plan, world)
            expected = np.array([
                loop.compute_duration(base, start)
                for base, start in zip(bases.tolist(), starts.tolist())
            ])
            got = RankPricedCompute(vector, bases).resolve(starts)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.astype(float).tobytes()
        assert vector.events == loop.events
        assert vector.straggler_seconds == loop.straggler_seconds

    def test_healthy_ranks_keep_their_base(self, ethernet_cluster):
        plan = FaultPlan(stragglers=(StragglerFault(1.0, 2.0, 1.5),))
        injector = TimingFaultInjector(plan, CollectiveTimeModel(ethernet_cluster))
        bases = np.array([0.25, 0.5, 0.75])
        got = RankPricedCompute(injector, bases).resolve(np.array([0.0, 1.0, 2.0]))
        assert got.tolist() == [0.25, 0.75, 0.75]
        assert injector.events == [(1.0, "fault.straggler", {"factor": 1.5, "extra": 0.25})]
