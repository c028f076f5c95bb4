from __future__ import annotations

import json

import pytest

from evontree.gateway import ASK_ATTEMPTS, ModelGateway
from evontree.ontology import Relation, Triple, TripleClass, TripleRecord, normalize_label as lbl
from evontree.synthesis import (
    EXPLICIT_INSTRUCTION,
    EXPLICIT_OUTPUT,
    FUNCTION_TEMPLATE,
    HINT_TEMPLATE,
    SUBTYPE_TEMPLATE,
    CorpusEntry,
    SynthesisConfig,
    build_corpus,
    explicit_pair,
    implicit_instructions,
    read_corpus,
    write_corpus,
)
from evontree.synthetic import NoiseProfile, SyntheticBackend, SyntheticModel, sample_ground_truth


class TestTemplates:
    def test_literals(self):
        assert FUNCTION_TEMPLATE == "Outline the primary functions of {concept}."
        assert SUBTYPE_TEMPLATE == ("Identify and describe any subtypes of {concept}. "
                                    "Explain how these subtypes vary in structure "
                                    "and function.")
        assert HINT_TEMPLATE.startswith(" You can consider these relationships")
        assert HINT_TEMPLATE.endswith("{C} is a subclass of {A}.")

    def test_implicit_instruction_order(self):
        out = implicit_instructions("D", "C", "A")
        assert [tid for tid, _ in out] == [1, 2, 3, 4, 5]
        assert out[0][1] == "Outline the primary functions of A."
        assert out[1][1] == "Outline the primary functions of C."
        assert out[2][1] == "Outline the primary functions of D."
        assert out[3][1].startswith("Identify and describe any subtypes of A.")
        assert out[4][1].startswith("Identify and describe any subtypes of C.")

    def test_explicit_pair(self):
        instruction, output = explicit_pair("Retrovirus", "RNA Virus", "Virus")
        assert instruction == ("Is Retrovirus a subclass of Virus? "
                               "Answer and explain using intermediate concepts.")
        assert output == ("Yes. Retrovirus is a subclass of RNA Virus, and RNA Virus "
                          "is a subclass of Virus. Therefore, Retrovirus is a "
                          "subclass of Virus.")

    def test_hint_has_leading_space(self):
        hint = HINT_TEMPLATE.replace("{D}", "d").replace("{C}", "c").replace("{A}", "a")
        assert hint.startswith(" ")
        assert "d is a subclass of c, and c is a subclass of a." in hint


class TestSynthesisConfig:
    def test_strategy_validated(self):
        with pytest.raises(ValueError):
            SynthesisConfig(strategy="both")
        for s in ("explicit", "implicit", "mix"):
            SynthesisConfig(strategy=s)


class ScriptedBackend:
    identity = "scripted://synthesis"

    def __init__(self, responses):
        self.responses = list(responses)
        self.bodies = []

    def generate(self, body):
        self.bodies.append(body)
        return {"text": self.responses.pop(0)}

    def score(self, body):
        raise AssertionError("no scoring during synthesis")


def scripted_gateway(tmp_path, responses):
    backend = ScriptedBackend(responses)
    gw = ModelGateway(backend, model="m", cache_dir=tmp_path / "cache",
                      sleep=lambda s: None)
    return gw, backend


def distill_first(tmp_path, answers):
    """What build_corpus makes of template 1's answers for one gap while the
    other four templates answer at once: the output of its entry, or None
    when the entry was dropped, and every body the backend received."""
    gw, backend = scripted_gateway(tmp_path, [answers[0], *["Other."] * 4, *answers[1:]])
    entries, tallies = build_corpus(gw, [gap_record()], SynthesisConfig(strategy="implicit"))
    assert len(entries) + tallies.distill_drops == 5
    first = [e.output for e in entries if e.template_id == 1]
    return (first[0] if first else None), backend.bodies


class TestDistill:
    def test_returns_stripped_text(self, tmp_path):
        output, bodies = distill_first(tmp_path, ["  An answer.  "])
        assert output == "An answer."
        assert bodies[0]["temperature"] == 0.7
        assert bodies[0]["max_tokens"] == 512

    def test_empty_retries_reissue_identical_request(self, tmp_path):
        output, bodies = distill_first(tmp_path, ["", "  ", "Third time."])
        assert output == "Third time."
        # Same body every time; the cache bypass is what forces a fresh draw.
        assert len(bodies) == 5 + 2
        assert bodies[0] == bodies[5] == bodies[6]

    def test_gives_up_after_retries(self, tmp_path):
        output, _ = distill_first(tmp_path, ["", "", ""])
        assert output is None

    def test_blank_answers_are_re_asked_as_one_bypassed_stream(self, tmp_path):
        # Templates 1 and 3 answer blank; 3 answers the re-ask, 1 never does.
        gw, backend = scripted_gateway(
            tmp_path, ["", "a2", "", "a4", "a5", "", "b3", *[""] * (ASK_ATTEMPTS - 2)])
        lookups, get_many = [], gw.cache.get_many
        gw.cache.get_many = lambda keys: lookups.append(len(keys)) or get_many(keys)
        entries, tallies = build_corpus(gw, [gap_record()], SynthesisConfig(strategy="implicit"))
        assert {e.template_id: e.output for e in entries} == {2: "a2", 3: "b3", 4: "a4",
                                                              5: "a5"}
        assert tallies.distill_drops == 1
        prompts = [b["prompt"] for b in backend.bodies]
        assert prompts == prompts[:5] + [prompts[0], prompts[2]] + [prompts[0]] * (
            ASK_ATTEMPTS - 2)
        assert len(set(prompts[:5])) == 5
        # One lookup, of the first stream; the re-asks bypass the cache.
        assert lookups == [5]


def gap_record(d="Retrovirus", c="RNA Virus", a="Virus", chains=None):
    if chains is None:
        chains = [[(d, c), (c, a)]]
    return TripleRecord(
        triple=Triple(lbl(d), Relation.SUBCLASS_OF, lbl(a)),
        triple_class=TripleClass.GAP,
        scores=[-0.5, -0.6, -0.7, -0.8],
        chains=chains,
    )


def synthetic_gateway(tmp_path):
    gt = sample_ground_truth(depth=2, branching=2, synonym_rate=0.5, seed=11)
    model = SyntheticModel(gt, NoiseProfile(), seed=11)
    return ModelGateway(SyntheticBackend(model), model="synthetic",
                        cache_dir=tmp_path / "cache",
                        sleep=lambda s: None)


class TestBuildCorpus:
    def test_mix_counts_and_order(self, tmp_path):
        gw = synthetic_gateway(tmp_path)
        gaps = [gap_record("T0N3", "T0N1", "T0N0"), gap_record("T0N5", "T0N2", "T0N0")]
        entries, tallies = build_corpus(gw, gaps, SynthesisConfig(strategy="mix"))
        assert tallies.distill_drops == 0 and tallies.malformed_chains == 0
        assert len(entries) == 12  # per gap: 1 explicit + 5 implicit
        assert [e.sort_key for e in entries] == sorted(e.sort_key for e in entries)
        by_strategy = {}
        for e in entries:
            by_strategy.setdefault(e.strategy, []).append(e)
        assert len(by_strategy["explicit"]) == 2
        assert len(by_strategy["implicit"]) == 10

    def test_explicit_strategy_skips_gateway(self, tmp_path):
        gw, backend = scripted_gateway(tmp_path, [])
        entries, _ = build_corpus(gw, [gap_record()], SynthesisConfig(strategy="explicit"))
        assert len(entries) == 1
        assert backend.bodies == []
        e = entries[0]
        assert e.template_id == 0
        assert e.hint_included is False
        assert "Is Retrovirus a subclass of Virus?" in e.instruction

    def test_implicit_hint_retained_by_default(self, tmp_path):
        gw = synthetic_gateway(tmp_path)
        entries, _ = build_corpus(gw, [gap_record("T0N3", "T0N1", "T0N0")],
                                  SynthesisConfig(strategy="implicit"))
        assert len(entries) == 5
        for e in entries:
            assert e.hint_included is True
            assert "You can consider these relationships" in e.instruction
            assert e.output

    def test_strip_hint_removes_it_from_instruction_only(self, tmp_path):
        gw = synthetic_gateway(tmp_path)
        entries, _ = build_corpus(gw, [gap_record("T0N3", "T0N1", "T0N0")],
                                  SynthesisConfig(strategy="implicit", strip_hint=True))
        for e in entries:
            assert e.hint_included is False
            assert "You can consider these relationships" not in e.instruction

    def test_distill_drop_tallied(self, tmp_path):
        # Every distillation returns empty: all five implicit slots drop.
        gw, _ = scripted_gateway(tmp_path, [""] * 15)
        entries, tallies = build_corpus(
            gw, [gap_record()], SynthesisConfig(strategy="implicit"))
        assert entries == []
        assert tallies.distill_drops == 5

    def test_malformed_chain_skipped(self, tmp_path):
        gw, backend = scripted_gateway(tmp_path, [])
        bad_mid = gap_record(chains=[[("Retrovirus", "RNA Virus"), ("Lentivirus", "Virus")]])
        no_chain = gap_record()
        no_chain.chains = None
        entries, tallies = build_corpus(gw, [bad_mid, no_chain],
                                        SynthesisConfig(strategy="explicit"))
        assert entries == []
        assert tallies.malformed_chains == 2

    def test_every_chain_contributes(self, tmp_path):
        gw, _ = scripted_gateway(tmp_path, [])
        record = gap_record(chains=[
            [("Retrovirus", "RNA Virus"), ("RNA Virus", "Virus")],
            [("Retrovirus", "Oncovirus"), ("Oncovirus", "Virus")],
        ])
        entries, _ = build_corpus(gw, [record], SynthesisConfig(strategy="explicit"))
        assert [e.chain for e in entries] == [
            [("Retrovirus", "Oncovirus"), ("Oncovirus", "Virus")],
            [("Retrovirus", "RNA Virus"), ("RNA Virus", "Virus")],
        ]

    def test_good_chain_survives_bad_sibling(self, tmp_path):
        gw, _ = scripted_gateway(tmp_path, [])
        record = gap_record(chains=[
            [("Retrovirus", "RNA Virus"), ("Lentivirus", "Virus")],  # mid mismatch
            [("Retrovirus", "Oncovirus"), ("Oncovirus", "Virus")],
        ])
        entries, tallies = build_corpus(gw, [record], SynthesisConfig(strategy="explicit"))
        assert len(entries) == 1
        assert tallies.malformed_chains == 1

    def test_deterministic_bytes(self, tmp_path):
        gaps = [gap_record("T0N3", "T0N1", "T0N0"), gap_record("T0N5", "T0N2", "T0N0")]
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        e1, _ = build_corpus(synthetic_gateway(tmp_path / "a"), gaps,
                             SynthesisConfig(strategy="mix"))
        e2, _ = build_corpus(synthetic_gateway(tmp_path / "b"), list(reversed(gaps)),
                             SynthesisConfig(strategy="mix"))
        write_corpus(p1, e1)
        write_corpus(p2, e2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorpusFile:
    def test_schema_and_round_trip(self, tmp_path):
        gw = synthetic_gateway(tmp_path)
        entries, _ = build_corpus(gw, [gap_record("T0N3", "T0N1", "T0N0")],
                                  SynthesisConfig(strategy="mix"))
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, entries)
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"instruction", "output", "strategy", "gap",
                                "chain", "template_id", "hint_included"}
            assert set(obj["gap"]) == {"s", "o"}
            assert all(len(pair) == 2 for pair in obj["chain"])
        back = read_corpus(path)
        assert [e.to_json_obj() for e in back] == [e.to_json_obj() for e in entries]
