from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from evontree.errors import EmptySpanError, MissingThresholdError
from evontree.gateway import ModelGateway, ScoreResponse
from evontree.ontology import Relation, Triple, normalize_label as lbl
from evontree.scoring import (
    COMPLETION_FALSE,
    COMPLETION_TRUE,
    JUDGE_TEMPLATES,
    PROMPT_SET_V1,
    confirm_decision,
    confirm_value,
    gap_decision,
    judge_prompt,
    perplexity,
    score_triple,
    score_triples,
    templates_for,
)


class TestPromptSet:
    def test_counts_per_relation(self):
        assert len(templates_for(Relation.SYNONYM_OF)) == 5
        assert len(templates_for(Relation.SUBCLASS_OF)) == 4

    def test_all_end_with_answer_cue(self):
        for t in PROMPT_SET_V1:
            assert t.template.endswith("Answer:")
            assert "{A}" in t.template and "{B}" in t.template
        for template in JUDGE_TEMPLATES.values():
            assert template.endswith("Answer:")

    def test_templates_are_distinct(self):
        texts = [t.template for t in PROMPT_SET_V1] + list(JUDGE_TEMPLATES.values())
        assert len(set(texts)) == len(texts)

    def test_paraphrase_ids_sequential(self):
        for rel in (Relation.SYNONYM_OF, Relation.SUBCLASS_OF):
            ids = [t.paraphrase_id for t in templates_for(rel)]
            assert ids == list(range(1, len(ids) + 1))

    def test_instantiate_handles_braces_in_labels(self):
        t = templates_for(Relation.SUBCLASS_OF)[0]
        prompt = t.instantiate(lbl("CD{4}+ Cell"), lbl("Cell"))
        assert "'CD{4}+ Cell' is a strict subclass of 'Cell'" in prompt

    def test_judge_prompt_distinct_from_probes(self):
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        jp = judge_prompt(t)
        probes = [tpl.instantiate(t.subject, t.object)
                  for tpl in templates_for(Relation.SUBCLASS_OF)]
        assert jp not in probes


class TestPerplexity:
    def test_hand_computed(self):
        # mean logprob of [-ln 2, -ln 8] is -ln 4, so perplexity is 4.
        assert perplexity([-math.log(2), -math.log(8)]) == pytest.approx(4.0, abs=1e-12)

    def test_single_token(self):
        assert perplexity([math.log(0.25)]) == pytest.approx(4.0, abs=1e-12)

    def test_zero_logprobs_give_one(self):
        assert perplexity([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perplexity([])

    @given(st.lists(st.floats(min_value=-20.0, max_value=0.0), min_size=1, max_size=8))
    def test_at_least_one_for_valid_logprobs(self, lps):
        assert perplexity(lps) >= 1.0


class TestConfirmValue:
    def test_true_preferred(self):
        assert confirm_value(2.0, 4.0) == pytest.approx(0.5, abs=1e-12)

    def test_false_preferred(self):
        assert confirm_value(4.0, 2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_tie_is_zero(self):
        assert confirm_value(3.0, 3.0) == 0.0

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e6))
    def test_bounded_and_antisymmetric(self, pt, pf):
        v = confirm_value(pt, pf)
        assert -1.0 <= v <= 1.0
        assert confirm_value(pf, pt) == -v

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_single_token_probability_identity(self, p):
        # With one answer token of probability p, the value collapses to
        # p when the model prefers True and -(1-p) when it prefers False.
        if p == 0.5:
            return
        v = confirm_value(1.0 / p, 1.0 / (1.0 - p))
        expected = p if p > 0.5 else -(1.0 - p)
        assert v == pytest.approx(expected, abs=1e-9)

    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1e-6, max_value=1e5))
    def test_strictly_increases_as_true_gets_easier(self, pt, gap_below_false, margin):
        # Both true-perplexities sit below the false one: making True easier
        # must raise the value strictly.
        pf = pt + gap_below_false + margin
        easier, harder = pt, pt + gap_below_false
        if harder >= pf or easier == harder:
            return
        assert confirm_value(easier, pf) > confirm_value(harder, pf)

    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1.0, max_value=1e5))
    def test_never_decreases_as_true_gets_easier(self, a, b, pf):
        easier, harder = min(a, b), max(a, b)
        assert confirm_value(easier, pf) >= confirm_value(harder, pf)


class FakeScoringGateway:
    """Returns scripted logprobs; p(True) keyed by paraphrase marker words."""

    def __init__(self, p_true: float):
        self.p_true = p_true
        self.requests = []

    def score(self, request):
        self.requests.append(request)
        p = self.p_true if request.completion == COMPLETION_TRUE else 1.0 - self.p_true
        return ScoreResponse(token_logprobs=(math.log(p),))

    def score_many(self, requests):
        return [self.score(request) for request in requests]


class TestScoreTriple:
    def test_subclass_produces_four_ordered_breakdowns(self):
        gw = FakeScoringGateway(p_true=0.8)
        scored = score_triple(gw, Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe")))
        assert [b.paraphrase_id for b in scored.breakdowns] == [1, 2, 3, 4]
        assert len(gw.requests) == 8  # two completions per paraphrase
        for b in scored.breakdowns:
            assert b.confirm_value == pytest.approx(0.8, abs=1e-9)

    def test_synonym_produces_five_breakdowns(self):
        gw = FakeScoringGateway(p_true=0.3)
        scored = score_triple(gw, Triple(lbl("flu"), Relation.SYNONYM_OF, lbl("influenza")))
        assert [b.paraphrase_id for b in scored.breakdowns] == [1, 2, 3, 4, 5]
        for b in scored.breakdowns:
            assert b.confirm_value == pytest.approx(-0.7, abs=1e-9)

    def test_prompts_embed_both_labels(self):
        gw = FakeScoringGateway(p_true=0.8)
        score_triple(gw, Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe")))
        for req in gw.requests:
            assert "'Virus'" in req.prompt and "'Microbe'" in req.prompt


class TestScoreTriples:
    def test_empty_span_triple_leaves_its_neighbours_scored(self, tmp_path):
        class EmptyForPrionBackend:
            identity = "fake://scores"

            def __init__(self):
                self.bodies = []

            def generate(self, body):
                raise AssertionError("scoring never generates")

            def score(self, body):
                self.bodies.append(body)
                if "'Prion'" in body["prompt"]:
                    return {"token_logprobs": []}
                p = 0.8 if body["completion"] == COMPLETION_TRUE else 0.2
                return {"token_logprobs": [math.log(p)]}

        backend = EmptyForPrionBackend()
        gw = ModelGateway(backend, model="m", cache_dir=tmp_path)
        triples = [Triple(lbl(s), Relation.SUBCLASS_OF, lbl("Microbe"))
                   for s in ("Virus", "Prion", "Fungus")]
        try:
            results = list(score_triples(gw, triples))
        finally:
            gw.close()
        assert isinstance(results[1], EmptySpanError)
        for triple, result in ((triples[0], results[0]), (triples[2], results[2])):
            assert result.triple == triple
            assert result.values == pytest.approx([0.8] * 4, abs=1e-9)
        # All three triples travelled in one batch: one lookup, one commit.
        assert len(backend.bodies) == gw.calls == 24
        assert gw.cache_commits == 1


class TestDecisions:
    def test_confirm_requires_strict_majority_free_all(self):
        assert confirm_decision([0.5, 0.5], [0.0, 0.0]) is True
        assert confirm_decision([0.5, 0.0], [0.0, 0.0]) is False  # equality fails
        assert confirm_decision([0.5, -0.1], [0.0, 0.0]) is False

    def test_length_mismatch(self):
        with pytest.raises(MissingThresholdError):
            confirm_decision([0.5], [0.0, 0.0])
        with pytest.raises(MissingThresholdError):
            gap_decision([0.5], [0.0, 0.0])

    def test_gap_all_below(self):
        assert gap_decision([-0.1, -0.2], [0.0, 0.0], "all_below") is True
        assert gap_decision([-0.1, 0.0], [0.0, 0.0], "all_below") is False
        assert gap_decision([-0.1, 0.1], [0.0, 0.0], "all_below") is False

    def test_gap_mean_below(self):
        assert gap_decision([-0.5, 0.1], [0.0, 0.0], "mean_below") is True
        assert gap_decision([0.5, -0.1], [0.0, 0.0], "mean_below") is False

    def test_gap_any_below(self):
        assert gap_decision([0.5, -0.1], [0.0, 0.0], "any_below") is True
        assert gap_decision([0.5, 0.1], [0.0, 0.0], "any_below") is False

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            gap_decision([0.0], [0.0], "sometimes_below")

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5),
           st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5))
    def test_confirm_and_gap_never_both_true(self, values, taus):
        n = min(len(values), len(taus))
        values, taus = values[:n], taus[:n]
        assert not (confirm_decision(values, taus)
                    and gap_decision(values, taus, "all_below"))
