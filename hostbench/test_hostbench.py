"""Tests of the benchmark itself: generators, span arithmetic, output checks."""

import json
from collections import Counter
from pathlib import Path

import pytest

from hostbench import gen, layers, tracing
from hostbench.run import Tally, comparable, correct, count_mismatches, grade_serve

ROOT = Path(__file__).resolve().parent.parent


def _fingerprints(pairs):
    return [(stratum, spec.fingerprint) for stratum, spec in pairs]


@pytest.fixture(scope="module")
def tables():
    return gen.selection_tables()


# -- generators ------------------------------------------------------------------


def test_same_seed_same_sweep_specs(tables):
    assert _fingerprints(gen.sweep_specs(7, tables)) == _fingerprints(gen.sweep_specs(7, tables))


def test_same_seed_same_straggler_specs():
    assert _fingerprints(gen.straggler_specs(7)) == _fingerprints(gen.straggler_specs(7))


def test_same_seed_same_request_stream():
    assert gen.serve_stream(7, 10.0) == gen.serve_stream(7, 10.0)


def test_seeds_differ(tables):
    assert _fingerprints(gen.sweep_specs(1, tables)) != _fingerprints(gen.sweep_specs(2, tables))
    assert gen.serve_stream(1, 10.0) != gen.serve_stream(2, 10.0)


def _strata(pairs):
    return Counter(stratum for stratum, _ in pairs)


def _cells(pairs):
    return Counter((spec.scheduler, spec.model.name, spec.workload,
                    spec.compute_scales is not None and len(spec.compute_scales),
                    spec.faults is not None) for _, spec in pairs)


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_sweep_strata_equal_across_seeds(seed, tables):
    base, other = gen.sweep_specs(1, tables), gen.sweep_specs(seed, tables)
    assert _strata(base) == _strata(other)
    # Every policy x model cell appears once, whatever the seed.
    batched = [(spec.scheduler, spec.model.name) for stratum, spec in other
               if stratum.startswith("batched/")]
    assert len(batched) == len(set(batched)) == len(gen.SWEEP_POLICIES) * len(gen.SWEEP_MODELS)
    assert sum(spec.iterations for _, spec in base) == sum(spec.iterations for _, spec in other)


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_straggler_strata_equal_across_seeds(seed):
    base, other = gen.straggler_specs(1), gen.straggler_specs(seed)
    assert _strata(base) == _strata(other)
    assert _cells(base) == _cells(other)


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_request_mix_equal_across_seeds(seed):
    base, other = gen.serve_stream(1, 20.0), gen.serve_stream(seed, 20.0)
    assert Counter(kind for _, kind, _ in base) == Counter(kind for _, kind, _ in other)
    fresh = [(p["scheduler"], p["model"]) for _, kind, p in other if kind == "fresh"]
    assert Counter(fresh) == Counter((p["scheduler"], p["model"])
                                     for _, kind, p in base if kind == "fresh")
    assert [due for due, _, _ in base] == [due for due, _, _ in other]


@pytest.mark.parametrize("seconds", [1.5, 20.0])
def test_repeats_only_reuse_earlier_fresh_payloads(seconds):
    seen = []
    for _, kind, payload in gen.serve_stream(5, seconds):
        if kind == "fresh":
            assert payload not in seen
            seen.append(payload)
        elif kind == "repeat":
            assert payload in seen


def test_benchmark_json_states_the_serve_parameters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (serve,) = [w for w in spec["workloads"] if w["name"] == "serve"]
    assert f"{gen.SERVE_RATE:g} req/s" in serve["why"]
    assert f"{gen.SERVE_FRESH_SHARE:.0%} fresh" in serve["why"]
    assert f"{gen.SERVE_MALFORMED_SHARE:.0%} malformed" in serve["why"]
    assert f"{gen.SERVE_LATENCY_LIMIT_MS:g} ms limit" in serve["why"]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in layers.METRICS]


# -- span arithmetic --------------------------------------------------------------


def _span(span_id, parent, start, end, name="x.y"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_covered_children():
    spans = [
        _span(1, None, 0.0, 10.0, "bench.pass"),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 6.0, 9.0),
        _span(4, 2, 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(2.0),
                     3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    assert sum(tracing.summarize(spans)["layers"].values()) == pytest.approx(0.0)
    assert tracing.summarize(spans)["names"]["x.y"]["self_s"] == pytest.approx(6.0)


def test_tiling_check_needs_layers_to_cover_the_untraced_pass():
    # Layers cover 9.5 s of 10 s traced passes; untraced passes take 9 s.
    assert layers.tiling_check([9.5, 9.4, 9.6], 9.0, overhead=10.0 / 9.0)["ok"]
    # Half of each pass outside any layer span: a shortfall beyond the overhead.
    check = layers.tiling_check([5.0, 5.0, 5.0], 9.0, overhead=10.0 / 9.0)
    assert check["gap"] == pytest.approx(5.0 / 9.0 - 1.0)
    assert not check["ok"]


def test_open_span_closes_from_another_thread():
    import threading

    recorder = tracing.SpanRecorder()
    with recorder.span("bench.pass"):
        close = recorder.open("wait.queue", nest=False)
        with recorder.span("runner.inner"):
            pass
    worker = threading.Thread(target=close)
    worker.start()
    worker.join()
    spans = {span["name"]: span for span in recorder.drain()}
    root = spans["bench.pass"]["id"]
    assert spans["wait.queue"]["parent"] == spans["runner.inner"]["parent"] == root
    assert spans["wait.queue"]["end"] >= spans["bench.pass"]["end"]


def test_overlapping_children_are_counted_once():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 5.0), _span(3, 1, 3.0, 7.0),
             _span(4, 1, 9.0, 12.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_and_restores():
    import repro.runner.spec as spec_module
    from repro.runner import RunSpec

    original = spec_module.RunSpec.__dict__["fingerprint"]
    recorder = tracing.SpanRecorder()
    undo = tracing.install(recorder)
    try:
        with recorder.span("bench.pass"):
            RunSpec.create("wfbp", "resnet50", "10gbe").fingerprint
    finally:
        tracing.uninstall(undo)
    assert spec_module.RunSpec.__dict__["fingerprint"] is original
    spans = recorder.drain()
    root = [s for s in spans if s["name"] == "bench.pass"][0]
    (fingerprint,) = [s for s in spans if s["name"] == "runner.fingerprint"]
    assert fingerprint["parent"] == root["id"]
    assert root["start"] <= fingerprint["start"] <= fingerprint["end"] <= root["end"]


def test_counter_deltas_and_totals():
    before = {"c": {"kind": "counter", "values": [{"labels": {"outcome": "a"}, "value": 2}]}}
    after = {"c": {"kind": "counter", "values": [{"labels": {"outcome": "a"}, "value": 5},
                                                 {"labels": {"outcome": "b"}, "value": 1}]},
             "h": {"kind": "histogram", "values": [{"labels": {}, "count": 2, "sum": 6.0}]}}
    deltas = layers.counter_deltas(before, after)
    assert layers.total(deltas, "c") == 4
    assert layers.total(deltas, "c", outcome="a") == 3
    assert layers.total(deltas, "h", 1) == 6.0


# -- output checks ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_result():
    from repro.runner import RunSpec

    spec = RunSpec.create("wfbp", "resnet50", "10gbe", iterations=3)
    return spec, spec.run()


def test_matching_reference_passes(small_result):
    _, result = small_result
    assert count_mismatches([result], [comparable(result)]) == 0


def test_planted_wrong_reference_is_counted(small_result):
    _, result = small_result
    wrong = comparable(result)
    wrong["iteration_time"] *= 1.0 + 1e-12
    assert count_mismatches([result, result], [comparable(result), wrong]) == 1


def test_planted_wrong_serve_answer_is_failed(small_result):
    from repro.runner.cache import result_to_dict

    _, result = small_result
    payload = {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe", "iterations": 3}
    good = json.dumps({"result": result_to_dict(result)}).encode()
    planted = result_to_dict(result)
    planted["exposed_comm"] += 1.0
    bad = json.dumps({"result": planted}).encode()
    stream = [(0.0, "fresh", payload), (0.1, "repeat", payload), (0.2, "bad400", {}),
              (0.3, "bad_typed", {})]
    records = [(200, good, 0, 0, 0), (200, bad, 0, 0, 0), (400, b"{}", 0, 0, 0),
               (500, b"{}", 0, 0, 0)]
    tally = Tally()
    assert grade_serve(stream, records, tally) == [True, False, True, False]
    assert (tally.attempted, tally.failed, tally.mismatched) == (4, 2, 1)
    # The wrong-typed payload's 500 is expected; the wrong answer is fatal.
    assert (tally.expected, tally.fatal) == (1, 1)


def test_serve_failures_other_than_the_known_500_are_fatal():
    payload = {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe", "iterations": 3}
    known = b'{"error": "TypeError: bad iterations"}'
    stream = [(0.0, "bad_typed", {}), (0.1, "fresh", payload), (0.2, "repeat", payload),
              (0.3, "bad400", {}), (0.4, "repeat", payload)]
    records = [(500, known, 0, 0, 0),
               (500, known, 0, 0, 0),                      # shared the bad micro-batch
               (500, b'{"error": "other"}', 0, 0, 0),      # a failure of its own
               (None, b"", 0, 0, 0),                       # no answer
               (None, b"", 0, 0, 0)]
    tally = Tally()
    assert grade_serve(stream, records, tally) == [False] * 5
    assert (tally.failed, tally.expected, tally.fatal) == (5, 2, 3)


def test_raising_pass_makes_the_run_incorrect():
    tally = Tally()
    tally.record(24, 24)  # what a sweep records for a pass whose run_many raised
    out = {"tally": tally, "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    assert not correct(out)
    assert correct({"tally": Tally(), "metrics": out["metrics"]})
    failed_check = {"gap": -0.5, "ok": False}
    assert not correct({"tally": Tally(), "metrics": out["metrics"],
                        "trace_check": failed_check})
