"""Seeded input generators for the host-time benchmark.

Every generator takes the workload seed as an argument and returns plain
inputs (run specs or HTTP payloads); the program under test never sees
the seed.  A seed chooses *values* — fabric variants, iteration counts,
straggler shapes, fault windows, request order — while the count per
stratum (policy x model cell, fallback slice, request kind) is fixed, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from typing import Optional

#: The five batched sweep policies, each at 25 MB where a buffer applies.
SWEEP_POLICIES = (
    ("wfbp", {}),
    ("horovod", {"buffer_bytes": 25e6}),
    ("ddp", {"buffer_bytes": 25e6}),
    ("mg_wfbp", {}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
)
SWEEP_MODELS = ("resnet50", "bert_base", "densenet201")
#: Fabric variants: the two paper testbeds plus the latency and
#: bandwidth sweeps of ``repro.experiments.sweeps.sweep_specs``.
FABRIC_KINDS = ("10gbe", "100gbib", "latency", "bandwidth")
LATENCY_FACTORS = (0.25, 0.5, 2.0, 4.0)
BANDWIDTH_FACTORS = (0.5, 2.0, 4.0, 8.0)
#: Per model row, the iteration counts of the four buffered policies are a
#: seeded permutation of these offsets around the base count, so each
#: row's total stays fixed; ``wfbp``, the costliest per iteration, keeps
#: the base count so the permutation does not move the row's cost.
ITERATION_OFFSETS = (-1, 0, 0, 1)
BASE_ITERATIONS = 5
#: Workload DAG slice: (DAG name, policy, options).
DAG_SLICE = (
    ("moe", "dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    ("dlrm", "wfbp", {}),
    ("llm3d", "ddp", {"buffer_bytes": 25e6}),
)

#: Tuned ``algorithm="auto"`` slice: (fabric, model, policy).
AUTO_SLICE = (
    ("10gbe", "resnet50", SWEEP_POLICIES[4]),
    ("100gbib", "bert_base", SWEEP_POLICIES[1]),
)

MULTIRANK_POLICIES = ("wfbp", "ddp", "horovod", "mg_wfbp", "dear")
STRAGGLER_WORLDS = (64, 256)
STRAGGLER_PATTERNS = ("single", "ramp", "uniform")
STRAGGLER_MODEL = "resnet50"

#: serve traffic mix (also stated in BENCHMARK.json).
SERVE_RATE = 8.0
SERVE_FRESH_SHARE = 0.20
SERVE_MALFORMED_SHARE = 0.04
SERVE_LATENCY_LIMIT_MS = 250.0
SERVE_ZIPF_EXPONENT = 1.1
#: The two lighter models: fingerprinting a DenseNet-201 request alone
#: costs ~25 ms of the daemon's single batcher thread on the reference
#: host, which would put 8 req/s at saturation (the sweeps keep it).
SERVE_MODELS = ("resnet50", "bert_base")
SERVE_FABRICS = ("10gbe", "100gbib")
SERVE_BATCH_SIZES = (16, 32, 64)
SERVE_ITERATIONS = (4, 5, 6)
#: Payloads the daemon rejects with 400 at the wire boundary today.
BAD_400 = (
    {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe", "colour": "red"},
    {"scheduler": "wfbp", "model": "resnet50"},
    {"scheduler": "wfbp", "model": 50, "cluster": "10gbe"},
    {"scheduler": "wfbp", "model": "no_such_model", "cluster": "10gbe"},
)
#: Wrong-typed payloads that pass wire validation and fail inside the
#: runner; they should be rejected with 400.
BAD_TYPED = (
    {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe", "iterations": "5"},
    {"scheduler": "dear", "model": "bert_base", "cluster": "10gbe",
     "options": {"fusion": "buffer", "buffer_bytes": "25MB"}},
    {"scheduler": "ddp", "model": "resnet50", "cluster": "100gbib",
     "options": {"bucket": 4}},
)


def _fabric_cluster(kind: str, rng: random.Random, model: str):
    """Cluster for one fabric variant (sweep variants via sweep_specs)."""
    from repro.experiments.sweeps import sweep_specs
    from repro.network.presets import paper_testbed

    if kind == "latency":
        factor = rng.choice(LATENCY_FACTORS)
    elif kind == "bandwidth":
        factor = rng.choice(BANDWIDTH_FACTORS)
    else:
        return paper_testbed(kind)
    return sweep_specs(kind, factor, model)[0][1].cluster


def _balanced(values, count: int, rng: random.Random) -> list:
    """``count`` items cycling through ``values``, in seeded order."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def selection_tables() -> dict:
    """Autotuner tables for the ``algorithm="auto"`` slice, by fabric."""
    from repro.network.autotuner import build_selection_table
    from repro.network.presets import paper_testbed

    return {
        fabric: build_selection_table(paper_testbed(fabric))
        for fabric in ("10gbe", "100gbib")
    }


def sweep_specs(seed: int, tables: Optional[dict] = None) -> list[tuple[str, object]]:
    """The paper-style evaluation grid as ``(stratum, RunSpec)`` pairs.

    Strata: 15 batched policy x model cells, 3 bytescheduler specs and
    one DeAR ``fusion="bo"`` spec (both on the fallback path), 2 tuned
    ``algorithm="auto"`` specs and 3 workload-DAG specs — 24 per seed.
    """
    from repro.network.presets import paper_testbed
    from repro.runner import RunSpec

    rng = random.Random(seed)
    tables = tables if tables is not None else selection_tables()
    cells = len(SWEEP_POLICIES) * len(SWEEP_MODELS)
    fabrics = _balanced(FABRIC_KINDS, cells, rng)
    specs = []
    for row, model in enumerate(SWEEP_MODELS):
        offsets = list(ITERATION_OFFSETS)
        rng.shuffle(offsets)
        offsets.insert(0, 0)  # wfbp
        for col, (policy, options) in enumerate(SWEEP_POLICIES):
            cluster = _fabric_cluster(fabrics[row * len(SWEEP_POLICIES) + col], rng, model)
            specs.append((
                f"batched/{policy}",
                RunSpec.create(
                    policy, model, cluster,
                    iterations=BASE_ITERATIONS + offsets[col], **options,
                ),
            ))
    # The fallback slice keeps one fabric: the event kernel's and the BO
    # loop's work depend on the link, and equal work per seed matters more
    # here than variety.
    testbed = paper_testbed("10gbe")
    for model in SWEEP_MODELS:
        specs.append(("fallback/bytescheduler",
                      RunSpec.create("bytescheduler", model, testbed, iterations=4)))
    specs.append(("fallback/dear_bo",
                  RunSpec.create("dear", "bert_base", testbed, iterations=4)))
    for fabric, model, (policy, options) in AUTO_SLICE:
        specs.append((
            "auto",
            RunSpec.create(
                policy, model, fabric, algorithm="auto", tuned_table=tables[fabric],
                iterations=BASE_ITERATIONS, **options,
            ),
        ))
    for workload, policy, options in DAG_SLICE:
        cluster = _fabric_cluster(rng.choice(("10gbe", "100gbib")), rng, "resnet50")
        specs.append((
            f"dag/{workload}",
            RunSpec.create(policy, "resnet50", cluster, workload=workload,
                           iterations=BASE_ITERATIONS, **options),
        ))
    order = list(range(len(specs)))
    rng.shuffle(order)
    return [specs[index] for index in order]


def _compute_scales(pattern: str, world: int, rng: random.Random) -> tuple[float, ...]:
    if pattern == "single":
        scales = [1.0] * world
        scales[rng.randrange(world)] = rng.uniform(1.2, 2.0)
        return tuple(scales)
    if pattern == "ramp":
        top = rng.uniform(1.1, 1.6)
        return tuple(1.0 + (top - 1.0) * rank / (world - 1) for rank in range(world))
    spread = rng.uniform(0.2, 0.8)
    return tuple(rng.uniform(1.0, 1.0 + spread) for _ in range(world))


def _fault_plan(rng: random.Random, seed: int):
    from repro.faults.plan import FaultPlan, LinkFault, StragglerFault

    start = rng.uniform(0.0, 0.6)
    link_start = rng.uniform(0.0, 0.6)
    return FaultPlan(
        seed=seed,
        stragglers=(StragglerFault(start, start + rng.uniform(0.3, 1.0),
                                   rng.uniform(1.2, 2.0)),),
        link_faults=(LinkFault(link_start, link_start + rng.uniform(0.3, 1.0),
                               alpha_factor=rng.uniform(1.0, 3.0),
                               beta_factor=rng.uniform(1.2, 3.0)),),
    )


def straggler_specs(seed: int) -> list[tuple[str, object]]:
    """Heterogeneous multi-rank grid: 30 healthy specs plus 5 faulty ones.

    Every policy meets every (world, pattern) cell once; the fault slice
    runs each policy once at 64 ranks under a seeded straggler window and
    a seeded link-degradation window.
    """
    from repro.network.presets import cluster_10gbe
    from repro.runner import RunSpec

    rng = random.Random(seed)
    specs = []
    for world in STRAGGLER_WORLDS:
        cluster = cluster_10gbe(nodes=world // 4, gpus_per_node=4)
        for pattern in STRAGGLER_PATTERNS:
            for policy in MULTIRANK_POLICIES:
                specs.append((
                    f"{pattern}/{world}",
                    RunSpec.create(policy, STRAGGLER_MODEL, cluster,
                                   compute_scales=_compute_scales(pattern, world, rng)),
                ))
    cluster = cluster_10gbe(nodes=16, gpus_per_node=4)
    for policy in MULTIRANK_POLICIES:
        specs.append((
            "faults/64",
            RunSpec.create(policy, STRAGGLER_MODEL, cluster,
                           compute_scales=_compute_scales("uniform", 64, rng),
                           faults=_fault_plan(rng, seed)),
        ))
    order = list(range(len(specs)))
    rng.shuffle(order)
    return [specs[index] for index in order]


def _fresh_payloads(count: int, rng: random.Random) -> list[dict]:
    """Distinct valid configs, balanced over policy and model, issued with
    the models in round-robin order so popularity ranks are balanced too."""
    seen = set()
    by_model: dict[str, list[dict]] = {model: [] for model in SERVE_MODELS}
    for index in range(count):
        model = SERVE_MODELS[index % len(SERVE_MODELS)]
        policy, options = SWEEP_POLICIES[(index // len(SERVE_MODELS)) % len(SWEEP_POLICIES)]
        while True:
            payload = {
                "scheduler": policy,
                "model": model,
                "cluster": rng.choice(SERVE_FABRICS),
                "iterations": rng.choice(SERVE_ITERATIONS),
                "batch_size": rng.choice(SERVE_BATCH_SIZES),
            }
            if options:
                payload["options"] = dict(options)
            key = repr(sorted(payload.items()))
            if key not in seen:
                seen.add(key)
                by_model[model].append(payload)
                break
    for payloads in by_model.values():
        rng.shuffle(payloads)
    ordered = []
    while any(by_model.values()):
        for model in SERVE_MODELS:
            if by_model[model]:
                ordered.append(by_model[model].pop(0))
    return ordered


def serve_stream(seed: int, seconds: float) -> list[tuple[float, str, dict]]:
    """Open-loop request schedule: ``(due_seconds, kind, payload)`` rows.

    Kinds: ``fresh`` (first sight of a config), ``repeat`` (cache hits and
    in-flight dedup: a Zipf pick among the earlier fresh payloads of a
    model, models in equal shares), ``bad400`` (rejected at the boundary)
    and ``bad_typed`` (wrong-typed fields that should be rejected too).
    Counts per kind and per model depend only on ``SERVE_RATE x seconds``.
    """
    rng = random.Random(seed)
    total = max(len(SERVE_MODELS), int(round(SERVE_RATE * seconds)))
    malformed = int(round(total * SERVE_MALFORMED_SHARE))
    fresh = max(len(SERVE_MODELS), int(round(total * SERVE_FRESH_SHARE)))
    repeats = total - fresh - malformed
    kinds = (["bad400"] * (malformed - malformed // 2)
             + ["bad_typed"] * (malformed // 2)
             + ["fresh"] * (fresh - len(SERVE_MODELS))
             + ["repeat"] * repeats)
    rng.shuffle(kinds)
    # One fresh payload per model first, so every repeat has a candidate.
    kinds[:0] = ["fresh"] * len(SERVE_MODELS)
    fresh_payloads = iter(_fresh_payloads(fresh, rng))
    repeat_models = iter(_balanced(SERVE_MODELS, repeats, rng))
    issued: dict[str, list[dict]] = {model: [] for model in SERVE_MODELS}
    bad = {"bad400": 0, "bad_typed": 0}
    stream = []
    for index, kind in enumerate(kinds):
        if kind == "fresh":
            payload = next(fresh_payloads)
            issued[payload["model"]].append(payload)
        elif kind == "repeat":
            candidates = issued[next(repeat_models)]
            weights = [1.0 / rank ** SERVE_ZIPF_EXPONENT
                       for rank in range(1, len(candidates) + 1)]
            payload = rng.choices(candidates, weights=weights)[0]
        else:
            pool = BAD_400 if kind == "bad400" else BAD_TYPED
            payload = pool[bad[kind] % len(pool)]
            bad[kind] += 1
        stream.append((index / SERVE_RATE, kind, payload))
    return stream


#: A fixed config per workload family for the set-up probes.
SETUP_SPEC = {"scheduler": "dear", "model": "resnet50", "cluster": "10gbe",
              "options": {"fusion": "buffer", "buffer_bytes": 25e6}}
