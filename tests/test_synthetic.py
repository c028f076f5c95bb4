from __future__ import annotations

import json
import math
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from evontree.errors import InvalidParamsError, UnrecognizedPromptError
from evontree.ontology import Relation
from evontree.scoring import JUDGE_TEMPLATES, PROMPT_SET_V1, judge_prompt, templates_for
from evontree.ontology import Triple, normalize_label as lbl
from evontree.extraction import build_tree_prompt
from evontree.synthesis import HINT_TEMPLATE, explicit_pair, implicit_instructions
from evontree import config
from evontree.synthetic import (
    GroundTruth,
    NoiseProfile,
    SyntheticBackend,
    SyntheticModel,
    SyntheticSpec,
    sample_ground_truth,
)


def tree_prompt_for(concept: str) -> str:
    # Mirrors the elicitation prompt layout; kept local so this test module
    # exercises the synthetic model without importing the extraction stage.
    skeleton = (
        "{" + json.dumps(concept) + ": {\n"
        '    "description": "",\n'
        '    "subclasses": [{\n'
        '        "name": "",\n'
        '        "description": "",\n'
        '        "synonyms": ["", ""]\n'
        "}]}}"
    )
    return (
        f"As a medical expert, please generate strict subclasses of {concept} "
        "and their synonyms.\nOutput a JSON tree like below:\n\n" + skeleton
    )


class TestSampleGroundTruth:
    def test_complete_tree_counts(self):
        gt = sample_ground_truth(depth=3, branching=2, synonym_rate=0.0, seed=1)
        assert len(gt.synonym_classes) == 15  # 1 + 2 + 4 + 8
        assert len(gt.edges) == 14
        assert gt.roots == ["T0N0"]

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            sample_ground_truth(depth=0, branching=2, synonym_rate=0.0, seed=1)
        with pytest.raises(InvalidParamsError):
            sample_ground_truth(depth=2, branching=0, synonym_rate=0.0, seed=1)
        with pytest.raises(InvalidParamsError):
            sample_ground_truth(depth=2, branching=2, synonym_rate=1.5, seed=1)

    def test_arguments_are_checked_against_the_spec_fields(self):
        # The domains are SyntheticSpec's, the one the config loads.
        assert config.SyntheticSpec is SyntheticSpec
        with pytest.raises(InvalidParamsError, match=r"^n_roots must be >= 1, got 0$"):
            sample_ground_truth(depth=1, branching=1, synonym_rate=0.0, seed=1, n_roots=0)
        with pytest.raises(InvalidParamsError, match=r"^synonym_rate must be <= 1.0, got 1.5$"):
            sample_ground_truth(depth=1, branching=1, synonym_rate=1.5, seed=1)
        gt = sample_ground_truth(depth=1, branching=1, synonym_rate=0.0, seed=1)
        with pytest.raises(InvalidParamsError, match=r"^hallucination_rate must be >= 0.0"):
            SyntheticModel(gt, NoiseProfile(), seed=1, hallucination_rate=-0.1)

    def test_deterministic_per_seed(self):
        a = sample_ground_truth(depth=2, branching=3, synonym_rate=0.5, seed=7)
        b = sample_ground_truth(depth=2, branching=3, synonym_rate=0.5, seed=7)
        c = sample_ground_truth(depth=2, branching=3, synonym_rate=0.5, seed=8)
        assert a.to_json_obj() == b.to_json_obj()
        assert a.to_json_obj() != c.to_json_obj()

    def test_synonym_rate_one_gives_alias_everywhere(self):
        gt = sample_ground_truth(depth=2, branching=2, synonym_rate=1.0, seed=3)
        assert all(len(members) == 2 for members in gt.synonym_classes)

    def test_multiple_roots(self):
        gt = sample_ground_truth(depth=1, branching=2, synonym_rate=0.0, seed=1, n_roots=3)
        assert gt.roots == ["T0N0", "T1N0", "T2N0"]
        assert len(gt.synonym_classes) == 9


class TestGroundTruthClosure:
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_is_true_matches_breadth_first_walk(self, depth, branching, seed):
        gt = sample_ground_truth(depth=depth, branching=branching,
                                 synonym_rate=0.4, seed=seed)
        # Oracle: reachability by explicit upward walk over the edge list.
        parents = {}
        for c, p in gt.edges:
            parents.setdefault(c, []).append(p)

        def reaches(a, b):
            frontier = [a]
            seen = set()
            while frontier:
                n = frontier.pop()
                if n == b:
                    return True
                if n in seen:
                    continue
                seen.add(n)
                frontier.extend(parents.get(n, ()))
            return False

        reps = sorted({members[0].casefold() for members in gt.synonym_classes})
        for a in reps[:8]:
            for b in reps[:8]:
                expected = a != b and reaches(a, b)
                assert gt.is_true(Relation.SUBCLASS_OF, a, b) == expected

    def test_synonym_truth(self):
        gt = GroundTruth(roots=["A"], edges=[("B", "A")],
                         synonym_classes=[["A"], ["B", "B alt"]])
        assert gt.is_true(Relation.SYNONYM_OF, "b", "b alt")
        assert gt.is_true(Relation.SYNONYM_OF, "b alt", "b")
        assert not gt.is_true(Relation.SYNONYM_OF, "a", "b")
        assert not gt.is_true(Relation.SYNONYM_OF, "b", "b")  # reflexive is not a synonym pair

    def test_unknown_labels_are_false(self):
        gt = GroundTruth(roots=["A"], edges=[], synonym_classes=[["A"]])
        assert not gt.is_true(Relation.SUBCLASS_OF, "ghost", "a")
        assert not gt.is_true(Relation.SUBCLASS_OF, "a", "ghost")

    def test_subclass_is_transitive_and_strict(self):
        gt = GroundTruth(roots=["A"], edges=[("B", "A"), ("C", "B")],
                         synonym_classes=[["A"], ["B"], ["C"]])
        assert gt.is_true(Relation.SUBCLASS_OF, "c", "a")
        assert gt.is_true(Relation.SUBCLASS_OF, "c", "b")
        assert not gt.is_true(Relation.SUBCLASS_OF, "a", "c")
        assert not gt.is_true(Relation.SUBCLASS_OF, "b", "b")

    def test_an_edge_to_a_non_representative_is_refused(self):
        # "B alt" is a member of B's class, not its representative.
        for edges in ([("B alt", "A")], [("B", "Ghost")]):
            with pytest.raises(InvalidParamsError, match="unknown representative"):
                GroundTruth(roots=["A"], edges=edges,
                            synonym_classes=[["A"], ["B", "B alt"]])

    def test_alias_inherits_rep_edges(self):
        gt = GroundTruth(roots=["A"], edges=[("B", "A")],
                         synonym_classes=[["A", "A alt"], ["B", "B alt"]])
        assert gt.is_true(Relation.SUBCLASS_OF, "b alt", "a alt")


class TestNoiseProfile:
    def test_defaults_valid(self):
        NoiseProfile()

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParamsError):
            NoiseProfile(p_true_known=1.0)
        with pytest.raises(InvalidParamsError):
            NoiseProfile(jitter=0.5)
        with pytest.raises(InvalidParamsError):
            NoiseProfile(p_true_known=0.2, p_true_false=0.3)


def small_model(**kw) -> SyntheticModel:
    gt = sample_ground_truth(depth=2, branching=2, synonym_rate=1.0, seed=11)
    kw.setdefault("profile", NoiseProfile())
    kw.setdefault("seed", 42)
    return SyntheticModel(gt, **kw)


def score_p_true(model: SyntheticModel, prompt: str) -> float:
    lps = model.respond_score({"prompt": prompt, "completion": " True"})
    return math.exp(lps[0])


class TestSyntheticStatements:
    def test_true_and_false_probabilities_sum_to_one(self):
        model = small_model()
        prompt = templates_for(Relation.SUBCLASS_OF)[0].instantiate(lbl("T0N1"), lbl("T0N0"))
        p = score_p_true(model, prompt)
        q = math.exp(model.respond_score({"prompt": prompt, "completion": " False"})[0])
        assert p + q == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        model = small_model()
        prompt = templates_for(Relation.SUBCLASS_OF)[1].instantiate(lbl("T0N1"), lbl("T0N0"))
        assert model.respond_score({"prompt": prompt, "completion": " True"}) == \
               model.respond_score({"prompt": prompt, "completion": " True"})

    def test_false_statement_low_probability(self):
        model = small_model()
        profile = model.profile
        prompt = templates_for(Relation.SUBCLASS_OF)[0].instantiate(lbl("T0N0"), lbl("T0N1"))
        p = score_p_true(model, prompt)  # parent under child: false
        assert abs(p - profile.p_true_false) <= profile.jitter + 1e-9

    def test_familiarity_rate_zero_makes_truths_unfamiliar(self):
        model = small_model(profile=NoiseProfile(familiarity_rate=0.0))
        prompt = templates_for(Relation.SUBCLASS_OF)[0].instantiate(lbl("T0N1"), lbl("T0N0"))
        p = score_p_true(model, prompt)
        assert abs(p - model.profile.p_true_unfamiliar) <= model.profile.jitter + 1e-9

    def test_familiarity_rate_one_makes_truths_known(self):
        model = small_model(profile=NoiseProfile(familiarity_rate=1.0))
        for template in templates_for(Relation.SUBCLASS_OF):
            prompt = template.instantiate(lbl("T0N1"), lbl("T0N0"))
            p = score_p_true(model, prompt)
            assert abs(p - model.profile.p_true_known) <= model.profile.jitter + 1e-9

    def test_jitter_varies_across_paraphrases(self):
        model = small_model(profile=NoiseProfile(familiarity_rate=1.0, jitter=0.05))
        ps = {round(score_p_true(model, t.instantiate(lbl("T0N1"), lbl("T0N0"))), 12)
              for t in templates_for(Relation.SUBCLASS_OF)}
        assert len(ps) > 1

    def test_familiarity_shared_across_paraphrases_and_aliases(self):
        # The draw keys on representatives, so alias spellings of the same
        # underlying pair land on the same side of the familiarity split.
        model = small_model(profile=NoiseProfile(familiarity_rate=0.5, jitter=0.0))
        levels = set()
        for a, b in (("T0N1", "T0N0"), ("T0N1 alt1", "T0N0"), ("T0N1 alt1", "T0N0 alt1")):
            for t in templates_for(Relation.SUBCLASS_OF):
                levels.add(score_p_true(model, t.instantiate(lbl(a), lbl(b))))
        assert len(levels) == 1

    def test_synonym_statements(self):
        model = small_model(profile=NoiseProfile(familiarity_rate=1.0))
        p_same = score_p_true(model, templates_for(Relation.SYNONYM_OF)[0]
                              .instantiate(lbl("T0N1"), lbl("T0N1 alt1")))
        p_diff = score_p_true(model, templates_for(Relation.SYNONYM_OF)[0]
                              .instantiate(lbl("T0N1"), lbl("T0N2")))
        assert p_same > 0.5 > p_diff

    def test_probe_generate_matches_probability_side(self):
        model = small_model()
        for a, b in (("T0N1", "T0N0"), ("T0N0", "T0N1"), ("T0N3", "T0N0")):
            for tpl in templates_for(Relation.SUBCLASS_OF):
                prompt = tpl.instantiate(lbl(a), lbl(b))
                p = score_p_true(model, prompt)
                text = model.respond_generate({"prompt": prompt})
                assert text == ("True" if p > 0.5 else "False")

    def test_judge_prompt_answers_from_ground_truth(self):
        # Everything is unfamiliar here, so probe answers deny true edges;
        # the judge reads the reference instead and stays correct.
        model = small_model(profile=NoiseProfile(familiarity_rate=0.0, jitter=0.0))
        true_triple = Triple(lbl("T0N1"), Relation.SUBCLASS_OF, lbl("T0N0"))
        false_triple = Triple(lbl("T0N0"), Relation.SUBCLASS_OF, lbl("T0N1"))
        probe = templates_for(Relation.SUBCLASS_OF)[0]
        assert model.respond_generate(
            {"prompt": probe.instantiate(true_triple.subject, true_triple.object)}) == "False"
        assert model.respond_generate({"prompt": judge_prompt(true_triple)}) == "True"
        assert model.respond_generate({"prompt": judge_prompt(false_triple)}) == "False"

    def test_unknown_completion_rejected(self):
        model = small_model()
        prompt = templates_for(Relation.SUBCLASS_OF)[0].instantiate(lbl("T0N1"), lbl("T0N0"))
        with pytest.raises(UnrecognizedPromptError):
            model.respond_score({"prompt": prompt, "completion": " Maybe"})

    def test_unrecognized_prompt_rejected(self):
        model = small_model()
        with pytest.raises(UnrecognizedPromptError):
            model.respond_generate({"prompt": "Tell me a story about enzymes."})
        with pytest.raises(UnrecognizedPromptError):
            model.respond_score({"prompt": "What is a cell?", "completion": " True"})

    def test_answers_every_prompt_kind_the_pipeline_sends(self):
        model = small_model()
        triple = Triple(lbl("T0N1"), Relation.SUBCLASS_OF, lbl("T0N0"))
        hint = HINT_TEMPLATE.replace("{D}", "T0N3").replace("{C}", "T0N1").replace("{A}", "T0N0")
        prompts = {
            "tree": build_tree_prompt(lbl("T0N0")),
            "probe": templates_for(Relation.SUBCLASS_OF)[0].instantiate(triple.subject,
                                                                         triple.object),
            "judge": judge_prompt(triple),
            # Both templates: the functions of a concept, and its subtypes.
            **{f"implicit {template_id}": instruction + hint
               for template_id, instruction in implicit_instructions("T0N3", "T0N1", "T0N0")},
        }
        for kind, prompt in prompts.items():
            assert model.respond_generate({"prompt": prompt}), kind

    def test_is_question_is_not_a_prompt_it_answers(self):
        # The explicit corpus instruction is templated, never sent to a model.
        instruction, _ = explicit_pair("T0N3", "T0N1", "T0N0")
        assert instruction.startswith("Is ")
        with pytest.raises(UnrecognizedPromptError):
            small_model().respond_generate({"prompt": instruction})


def reference_matcher(template: str) -> re.Pattern[str]:
    # One pattern per template, tried in turn: the model's earlier matching,
    # kept as the reference its single pattern must agree with.
    sent_a, sent_b = "\x00A\x00", "\x00B\x00"
    t = template.replace("{A}", sent_a).replace("{B}", sent_b)
    escaped = re.escape(t)
    escaped = escaped.replace(re.escape(sent_a), "(?P<A>[^']+)")
    escaped = escaped.replace(re.escape(sent_b), "(?P<B>[^']+)")
    return re.compile(escaped)


REFERENCE_MATCHERS = (
    [(t.relation, False, reference_matcher(t.template)) for t in PROMPT_SET_V1]
    + [(rel, True, reference_matcher(tpl)) for rel, tpl in JUDGE_TEMPLATES.items()])
ALL_TEMPLATES = [t.template for t in PROMPT_SET_V1] + list(JUDGE_TEMPLATES.values())


def reference_statement(prompt: str) -> tuple[Relation, str, str, bool]:
    for relation, judge, pattern in REFERENCE_MATCHERS:
        m = pattern.fullmatch(prompt)
        if m:
            return relation, m.group("A").casefold(), m.group("B").casefold(), judge
    raise UnrecognizedPromptError(f"no synthetic scorer for prompt: {prompt[:80]!r}")


def fill(template: str, a: str, b: str) -> str:
    return template.replace("{A}", a).replace("{B}", b)


# Labels in any case, non-ASCII included, never with an apostrophe.
label_text = st.text(st.characters(blacklist_characters="'", blacklist_categories=("Cs",)),
                     min_size=1, max_size=12)


class TestStatementResolution:
    @given(st.sampled_from(ALL_TEMPLATES), label_text, label_text)
    @settings(max_examples=300, deadline=None)
    def test_one_pattern_resolves_as_the_per_template_matchers(self, template, a, b):
        prompt = fill(template, a, b)
        assert small_model()._statement(prompt)[:4] == reference_statement(prompt)

    @given(st.sampled_from(ALL_TEMPLATES), label_text, label_text,
           st.sampled_from(["truncated", "preamble", "apostrophe"]))
    @settings(max_examples=200, deadline=None)
    def test_a_prompt_no_template_makes_is_refused_by_both(self, template, a, b, damage):
        if damage == "truncated":
            prompt = fill(template, a, b)[:-1]
        elif damage == "preamble":
            prompt = "Decide whether" + fill(template, a, b)[len("Please determine if"):]
        else:
            prompt = fill(template, a + "'s", b)
        with pytest.raises(UnrecognizedPromptError):
            reference_statement(prompt)
        with pytest.raises(UnrecognizedPromptError):
            small_model().respond_score({"prompt": prompt, "completion": " True"})
        with pytest.raises(UnrecognizedPromptError):
            small_model().respond_generate({"prompt": prompt})


STATEMENT_LABELS = ["T0N0", "T0N1", "T0N1 alt1", "t0n3", "T0N4 ALT1", "Ghost"]
statement_request = st.tuples(
    st.sampled_from([" True", " False", None]),  # None: a one-shot generation
    st.sampled_from(ALL_TEMPLATES),
    st.sampled_from(STATEMENT_LABELS),
    st.sampled_from(STATEMENT_LABELS))


def answer(model: SyntheticModel, request: tuple) -> str | list[float]:
    completion, template, a, b = request
    prompt = fill(template, a, b)
    if completion is None:
        return model.respond_generate({"prompt": prompt})
    return model.respond_score({"prompt": prompt, "completion": completion})


class TestStatementMemo:
    @given(st.lists(statement_request, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_answers_do_not_depend_on_request_order(self, requests):
        shared = small_model(profile=NoiseProfile(familiarity_rate=0.5))
        for request in requests:
            # Bit for bit: floats compare equal only when they are the same double.
            assert answer(shared, request) == \
                answer(small_model(profile=NoiseProfile(familiarity_rate=0.5)), request)

    def test_threads_sharing_a_model_get_the_fresh_answers(self):
        requests = [(completion, template, a, b)
                    for template in ALL_TEMPLATES for a, b in (("T0N1", "T0N0"), ("T0N2", "Ghost"))
                    for completion in (" True", " False", None)]
        expected = {request: answer(small_model(), request) for request in requests}
        shared = small_model()
        mismatches: list[tuple] = []

        def ask() -> None:
            for _ in range(100):
                for request in requests:
                    try:
                        got = answer(shared, request)
                    except Exception as exc:  # a thread's error would pass unseen
                        got = exc
                    if got != expected[request]:
                        mismatches.append((request, got))

        # The same order in both threads, so that each often asks for the
        # prompt the other has just resolved.
        threads = [threading.Thread(target=ask) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestSyntheticTrees:
    def test_children_cross_list_synonyms(self):
        model = small_model()
        text = model.respond_generate({"prompt": tree_prompt_for("T0N0")})
        obj = json.loads(text)
        assert set(obj) == {"T0N0"}
        entries = obj["T0N0"]["subclasses"]
        names = [e["name"] for e in entries]
        # branching 2 with synonym_rate 1.0: two child classes, two members each
        assert sorted(names) == ["T0N1", "T0N1 alt1", "T0N2", "T0N2 alt1"]
        by_name = {e["name"]: e for e in entries}
        assert by_name["T0N1"]["synonyms"] == ["T0N1 alt1"]
        assert by_name["T0N1 alt1"]["synonyms"] == ["T0N1"]

    def test_alias_expansion_matches_rep(self):
        model = small_model()
        via_rep = json.loads(model.respond_generate({"prompt": tree_prompt_for("T0N1")}))
        via_alias = json.loads(model.respond_generate({"prompt": tree_prompt_for("T0N1 alt1")}))
        assert ([e["name"] for e in via_rep["T0N1"]["subclasses"]]
                == [e["name"] for e in via_alias["T0N1 alt1"]["subclasses"]])

    def test_leaf_and_unknown_expand_empty(self):
        model = small_model()
        leaf = json.loads(model.respond_generate({"prompt": tree_prompt_for("T0N3")}))
        assert leaf["T0N3"]["subclasses"] == []
        ghost = json.loads(model.respond_generate({"prompt": tree_prompt_for("Ghost Concept")}))
        assert ghost["Ghost Concept"]["subclasses"] == []

    def test_hallucination_rate_one_adds_fake_child(self):
        model = small_model(hallucination_rate=1.0)
        obj = json.loads(model.respond_generate({"prompt": tree_prompt_for("T0N0")}))
        names = [e["name"] for e in obj["T0N0"]["subclasses"]]
        fakes = [n for n in names if n.casefold() not in model.gt.vocabulary]
        assert len(fakes) == 1
        assert fakes[0].startswith("X")
        # Fake children expand to nothing.
        fake_tree = json.loads(model.respond_generate({"prompt": tree_prompt_for(fakes[0])}))
        assert fake_tree[fakes[0]]["subclasses"] == []

    def test_hallucination_rate_zero_adds_none(self):
        model = small_model(hallucination_rate=0.0)
        obj = json.loads(model.respond_generate({"prompt": tree_prompt_for("T0N0")}))
        names = [e["name"] for e in obj["T0N0"]["subclasses"]]
        assert all(n.casefold() in model.gt.vocabulary for n in names)

    def test_tree_response_deterministic(self):
        model = small_model(hallucination_rate=0.3)
        a = model.respond_generate({"prompt": tree_prompt_for("T0N0")})
        b = model.respond_generate({"prompt": tree_prompt_for("T0N0")})
        assert a == b


class TestInstructionEchoes:
    def test_function_instruction(self):
        model = small_model()
        text = model.respond_generate({"prompt": "Outline the primary functions of T0N1."})
        assert text.startswith("Outline the primary functions of T0N1.")
        assert len(text) > 40

    def test_subtype_instruction_with_hint(self):
        model = small_model()
        hint = (" You can consider these relationships as follows, but please ignore "
                "them if they are unnecessary: T0N3 is a subclass of T0N1, and T0N1 "
                "is a subclass of T0N0.")
        text = model.respond_generate({
            "prompt": "Identify and describe any subtypes of T0N1. Explain how these "
                      "subtypes vary in structure and function." + hint})
        assert text


class TestSyntheticBackend:
    def test_identity_embeds_seed_and_ground_truth(self):
        gt = sample_ground_truth(depth=1, branching=1, synonym_rate=0.0, seed=2)
        backend = SyntheticBackend(SyntheticModel(gt, NoiseProfile(), seed=9))
        assert backend.identity == f"synthetic://9/{gt.content_hash()[:8]}"
        other = SyntheticBackend(SyntheticModel(gt, NoiseProfile(), seed=10))
        assert other.identity != backend.identity

    def test_wire_shapes(self):
        model = small_model()
        backend = SyntheticBackend(model)
        out = backend.generate({"prompt": tree_prompt_for("T0N0"), "max_tokens": 512,
                                "temperature": 0.7, "seed": 1})
        assert isinstance(out["text"], str)
        prompt = templates_for(Relation.SUBCLASS_OF)[0].instantiate(lbl("T0N1"), lbl("T0N0"))
        scored = backend.score({"prompt": prompt, "completion": " True"})
        assert len(scored["token_logprobs"]) == 1
        assert scored["token_logprobs"][0] <= 0.0
