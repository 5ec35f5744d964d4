"""Fingerprint bytes are pinned: cache entries and goldens keep resolving.

The digests below hash the plain
``json.dumps(canonical_payload(), sort_keys=True, separators=(",", ":"))``
serialisation, which is what fingerprints have always hashed.  A changed
digest orphans every ``.dear-cache/`` entry keyed on it, so any edit to
the identity code must leave them alone.
"""

import dataclasses
import json
import pickle

import pytest

import repro.runner.spec as spec_module
from repro.faults.plan import FaultPlan, LinkFault, RankFailure, StragglerFault
from repro.models.zoo import get_model
from repro.network.autotuner import Selection, SelectionTable
from repro.network.presets import cluster_10gbe
from repro.runner.spec import RunSpec


def _faulty_plan() -> FaultPlan:
    return FaultPlan(
        seed=3,
        drop_prob=0.01,
        rank_failures=(RankFailure(2, 3),),
        link_faults=(LinkFault(0.0, 0.3, alpha_factor=2.0, beta_factor=1.5, link="both"),),
        stragglers=(StragglerFault(0.1, 0.5, 1.5),),
    )


def _table() -> SelectionTable:
    return SelectionTable(
        link_name="10GbE",
        world_size=64,
        entries={
            "all_reduce": {
                10: Selection("ring", "LL", 2),
                20: Selection("tree", "Simple", 4),
            },
            "all_gather": {16: Selection("ring", "LL128", 1)},
        },
    )


#: Every built-in zoo model (other tests register extra ones).
ZOO = ("bert_base", "bert_large", "densenet201", "gpt2_small", "inception_v4",
       "resnet50", "vgg16")


def golden_specs() -> list[tuple[str, RunSpec]]:
    """One spec per identity feature, plus every zoo model."""
    specs = [(f"model/{name}", RunSpec.create("wfbp", name, "10gbe")) for name in ZOO]
    small = cluster_10gbe(nodes=2, gpus_per_node=4)
    specs += [
        ("options", RunSpec.create("dear", "resnet50", "100gbib",
                                   fusion="buffer", buffer_bytes=25e6)),
        ("fields", RunSpec.create("horovod", "bert_base", "10gbe", batch_size=16,
                                  iterations=5, iteration_compute=0.1,
                                  buffer_bytes=64e6)),
        ("list_and_set_options", RunSpec.create(
            "dear", "resnet50", "10gbe", fusion="layers",
            groups=[3, 1, 2], tags=frozenset({"b", "a"}))),
        ("healthy_plan", RunSpec.create("wfbp", "resnet50", "10gbe",
                                        faults=FaultPlan())),
        ("faulty_plan", RunSpec.create("dear", "densenet201", "10gbe",
                                       faults=_faulty_plan())),
        ("compute_scales", RunSpec.create("wfbp", "resnet50", small,
                                          compute_scales=(1.0, 1.25, 1.0, 2.0,
                                                          1.0, 1.0, 1.5, 1.0))),
        ("faulty_multirank", RunSpec.create(
            "dear", "bert_base", small, compute_scales=(1.0,) * 7 + (1.75,),
            faults=_faulty_plan())),
        ("tuned_table", RunSpec.create("dear", "bert_large", "10gbe",
                                       algorithm="auto", tuned_table=_table())),
        ("workload_dag", RunSpec.create("wfbp", "resnet50", "10gbe",
                                        workload="moe", iterations=4)),
        ("workload_options", RunSpec.create("dear", "resnet50", "100gbib",
                                            workload="llm3d", fusion="none")),
    ]
    return specs


GOLDEN = {
    "model/bert_base":
        "0dfad97d7bb9eaf1bb2cc3750a24f01bb9bc6da7d010a640e9f649cdd69f292d",
    "model/bert_large":
        "ba3d7a97fcba31cb08a3d2a9a1c2da3960819163a6cade6b9a82af18fbdef310",
    "model/densenet201":
        "6736375b6ac8caaf580fb4b6aaf24cca9442b7b4a51724f06039cf0f49b82237",
    "model/gpt2_small":
        "bb3bf011352c91ddc562a3801bbe246d1ead74a0d645062241554e80020d607c",
    "model/inception_v4":
        "82dc0a7c5a067353f1ebb3ebdcb138a5a53ad4e9556c6641f4f00f43c46dd872",
    "model/resnet50":
        "c634b7857778785f8fd2cdb037542fb8dc95bf4ec7752c71b36f57fd64c9419b",
    "model/vgg16":
        "4bc6407ecfafa78cd05f2f466936bcabafd6b574e0fb3d6c93aa64e087902730",
    "options":
        "93b75fce06e77e18cb5c43f23359610ab867657cc182b2e86e41c38f331c3d58",
    "fields":
        "846e1f1a51f04c9bb371915ab32933b065cdadeae42d05126b7c38ab9febf4b1",
    "list_and_set_options":
        "26510e997c821b45b93ea65e2bb7eef79f888f4901e7256fef2044cda0fceee4",
    "healthy_plan":
        "c634b7857778785f8fd2cdb037542fb8dc95bf4ec7752c71b36f57fd64c9419b",
    "faulty_plan":
        "1d0802286daafd03e9b52744bbd3a4fabb59233ee23b640cf17b8eec05859810",
    "compute_scales":
        "1bae174d5b47de44c0301af67171e70005e6c5c9912ecda4c8c13ad8c9ac759e",
    "faulty_multirank":
        "a970b76d1361ca542bd42832fe7e87031673b3d743fdabb08cebc15dec3a9894",
    "tuned_table":
        "e5df3ae9cbebc107928d66717a5cba75ff4453e5cc263fb590b67d23f7047374",
    "workload_dag":
        "d2b004ae0da2bab7dfdc74fa4f1c4c26cd6a0f39abc7845965a04e61aa668089",
    "workload_options":
        "d5ac17d079ef7e3a2049b1fa7b0f424b45da553b04cc771fcf0109332cec2662",
}


@pytest.fixture(scope="module")
def specs():
    return golden_specs()


def test_digests_match_the_pinned_bytes(specs):
    assert {label: spec.fingerprint for label, spec in specs} == GOLDEN


def test_canonical_json_is_the_plain_serialisation(specs):
    for label, spec in specs:
        plain = json.dumps(spec.canonical_payload(), sort_keys=True,
                           separators=(",", ":"), default=spec_module._jsonify)
        assert spec.canonical_json() == plain, label


def test_fingerprint_is_a_plain_property():
    # The host-time tracer wraps ``property.fget``; a cached_property
    # would turn ``spec.fingerprint`` into a bound method under it.
    assert isinstance(RunSpec.__dict__["fingerprint"], property)


def test_memo_survives_pickling_and_replace_recomputes(specs):
    spec = dict(specs)["faulty_plan"]
    digest = spec.fingerprint
    clone = pickle.loads(pickle.dumps(spec))
    # The digest travels; the model's serialised fragment does not.
    assert clone.__dict__["_fingerprint"] == digest
    assert clone.model._tensor_cache == {}
    assert clone.fingerprint == digest
    assert clone == spec and hash(clone) == hash(spec)
    assert repr(clone) == repr(spec)
    replaced = dataclasses.replace(spec, iterations=spec.iterations + 1)
    assert replaced.fingerprint != digest
    assert replaced.fingerprint == RunSpec.create(
        "dear", "densenet201", "10gbe", iterations=spec.iterations + 1,
        faults=_faulty_plan()).fingerprint
    assert dataclasses.replace(replaced, iterations=spec.iterations).fingerprint == digest


def test_model_is_serialised_once_across_specs(monkeypatch):
    model = get_model("inception_v4")
    # A private copy: the shared zoo instance may already hold its fragment.
    model = dataclasses.replace(model)
    calls = []
    real_asdict = dataclasses.asdict

    def counting_asdict(obj, *args, **kwargs):
        if obj is model:
            calls.append(obj)
        return real_asdict(obj, *args, **kwargs)

    monkeypatch.setattr(spec_module.dataclasses, "asdict", counting_asdict)
    specs = [RunSpec.create("wfbp", model, "10gbe", iterations=3 + i) for i in range(50)]
    digests = [[spec.fingerprint for _ in range(3)] for spec in specs]
    assert len(calls) == 1
    assert all(len(set(triple)) == 1 for triple in digests)
    assert len({triple[0] for triple in digests}) == 50


def test_replaced_model_serialises_its_own_fragment():
    model = get_model("resnet50")
    RunSpec.create("wfbp", model, "10gbe").fingerprint  # fills the fragment
    bigger = dataclasses.replace(model, default_batch_size=model.default_batch_size + 1)
    spec = RunSpec.create("wfbp", bigger, "10gbe")
    assert spec.fingerprint != RunSpec.create("wfbp", model, "10gbe").fingerprint
    assert json.loads(spec.canonical_json())["model"]["default_batch_size"] == (
        model.default_batch_size + 1)
