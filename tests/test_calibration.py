from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evontree.gateway as gateway_module
from evontree.calibration import (
    POOLED_KEY,
    CalibrationOutcome,
    CalibrationResult,
    LabeledScore,
    SweepSpec,
    calibrate_relation,
    collect_samples,
    fit_threshold,
    one_shot_label,
)
from evontree.errors import (
    DegenerateLabelsError,
    InvalidParamsError,
    UnparseableError,
)
from evontree.gateway import HttpBackend, ModelGateway
from evontree.ontology import Relation, Triple, normalize_label as lbl
from evontree.scoring import ScoreBreakdown, ScoredTriple, templates_for

SUB_TPL = templates_for(Relation.SUBCLASS_OF)[0]


def ls(pairs):
    return [LabeledScore(score=s, label=b) for s, b in pairs]


def numpy_fit_oracle(samples, lo=0.0, hi=1.0):
    """Independent threshold fit: materialize the candidate-by-sample
    comparison matrix and take the last argmax of J."""
    s = np.array([x.score for x in samples], dtype=float)
    y = np.array([x.label for x in samples], dtype=bool)
    cand = np.unique(np.concatenate([s[(s >= lo) & (s <= hi)], [lo, hi]]))
    above = s[None, :] > cand[:, None]
    tpr = (above & y).sum(axis=1) / y.sum()
    fpr = (above & ~y).sum(axis=1) / (~y).sum()
    j = tpr - fpr
    best = np.flatnonzero(j == j.max())[-1]
    return float(cand[best]), float(j.max()), cand, tpr, fpr


class TestFitThreshold:
    def test_worked_example(self):
        # Two positives at 0.9 and 0.8, two negatives at 0.3 and 0.1: the
        # best split sits at 0.3, where recall is perfect and no negative
        # clears the strict > comparison.
        res = fit_threshold(ls([(0.9, True), (0.8, True), (0.3, False), (0.1, False)]))
        assert res.tau_star == pytest.approx(0.3, abs=1e-12)
        assert res.max_j == pytest.approx(1.0, abs=1e-12)
        assert res.n_pos == 2 and res.n_neg == 2

    def test_tie_breaks_to_largest_tau(self):
        res = fit_threshold(ls([(0.9, True), (0.5, False), (0.5, True), (0.1, False)]))
        # J = 0.5 at both tau = 0.1 and tau = 0.5.
        assert res.tau_star == pytest.approx(0.5, abs=1e-12)
        assert res.max_j == pytest.approx(0.5, abs=1e-12)

    def test_anticorrelated_scores_warn_and_pick_endpoint(self, caplog):
        with caplog.at_level("WARNING"):
            res = fit_threshold(ls([(0.9, False), (0.8, False), (0.2, True), (0.1, True)]))
        assert res.max_j <= 0.0
        assert res.tau_star == pytest.approx(1.0, abs=1e-12)
        assert any("no separating threshold" in r.message for r in caplog.records)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            fit_threshold(ls([(0.9, True), (0.8, True)]))
        with pytest.raises(DegenerateLabelsError):
            fit_threshold(ls([(0.9, False)]))

    def test_scores_outside_sweep_count_but_are_not_candidates(self):
        res = fit_threshold(ls([(-0.5, False), (0.9, True)]))
        assert all(p.tau >= 0.0 for p in res.curve)
        assert res.tau_star == pytest.approx(0.0, abs=1e-12)
        assert res.max_j == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_always_candidates(self):
        res = fit_threshold(ls([(0.4, True), (0.2, False)]))
        taus = [p.tau for p in res.curve]
        assert taus[0] == 0.0 and taus[-1] == 1.0
        assert taus == sorted(taus)

    def test_custom_sweep_range(self):
        res = fit_threshold(ls([(0.9, True), (-0.4, False), (-0.8, True)]),
                            SweepSpec(lo=-1.0, hi=1.0))
        assert any(p.tau == -0.4 for p in res.curve)

    def test_invalid_sweep(self):
        with pytest.raises(InvalidParamsError):
            SweepSpec(lo=1.0, hi=0.0)

    def test_matches_numpy_oracle_on_seeded_fixtures(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(4, 60)
            samples = [LabeledScore(score=rng.uniform(-1.0, 1.0), label=rng.random() < 0.5)
                       for _ in range(n)]
            samples.append(LabeledScore(0.7, True))   # guarantee both labels
            samples.append(LabeledScore(-0.7, False))
            got = fit_threshold(samples)
            want_tau, want_j, cand, tpr, fpr = numpy_fit_oracle(samples)
            assert got.tau_star == want_tau
            assert got.max_j == want_j
            assert [p.tau for p in got.curve] == list(cand)
            assert [p.tpr for p in got.curve] == list(tpr)
            assert [p.fpr for p in got.curve] == list(fpr)

    @given(st.lists(st.tuples(st.floats(min_value=-1, max_value=1,
                                        allow_nan=False, allow_infinity=False),
                              st.booleans()),
                    min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_tau_star_attains_max_j_on_curve(self, pairs):
        samples = ls(pairs)
        if not any(s.label for s in samples) or all(s.label for s in samples):
            return
        res = fit_threshold(samples)
        assert res.max_j == max(p.j for p in res.curve)
        winners = [p.tau for p in res.curve if p.j == res.max_j]
        assert res.tau_star == max(winners)

    @given(st.lists(st.tuples(st.floats(min_value=-1, max_value=1,
                                        allow_nan=False, allow_infinity=False),
                              st.booleans()),
                    min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_curve_rates_nonincreasing_in_tau(self, pairs):
        samples = ls(pairs)
        if not any(s.label for s in samples) or all(s.label for s in samples):
            return
        res = fit_threshold(samples)
        tprs = [p.tpr for p in res.curve]
        fprs = [p.fpr for p in res.curve]
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))


class FakeJudgeGateway:
    def __init__(self, text):
        self.text = text
        self.requests = []

    def generate(self, request, bypass_cache=False):
        self.requests.append(request)
        return self.text


class TestOneShotLabel:
    def test_parses_true_from_template_prompt(self):
        gw = FakeJudgeGateway("True.")
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        assert one_shot_label(gw, t, SUB_TPL) is True
        req = gw.requests[0]
        assert req.temperature == 0.0
        # The label prompt is the same instantiated statement the scorer uses.
        assert req.prompt == SUB_TPL.instantiate(t.subject, t.object)

    def test_parses_false_case_insensitive(self):
        gw = FakeJudgeGateway("  fAlSe, because...")
        t = Triple(lbl("Microbe"), Relation.SUBCLASS_OF, lbl("Virus"))
        assert one_shot_label(gw, t, SUB_TPL) is False

    def test_first_answer_wins(self):
        gw = FakeJudgeGateway("False. Well, actually True.")
        t = Triple(lbl("a"), Relation.SUBCLASS_OF, lbl("b"))
        assert one_shot_label(gw, t, SUB_TPL) is False

    def test_unparseable(self):
        gw = FakeJudgeGateway("It depends on the taxonomy.")
        t = Triple(lbl("a"), Relation.SUBCLASS_OF, lbl("b"))
        with pytest.raises(UnparseableError):
            one_shot_label(gw, t, SUB_TPL)

    def test_word_boundary_required(self):
        gw = FakeJudgeGateway("Truthiness untrue.")
        t = Triple(lbl("a"), Relation.SUBCLASS_OF, lbl("b"))
        # "untrue" contains no standalone true/false token.
        with pytest.raises(UnparseableError):
            one_shot_label(gw, t, SUB_TPL)


def scored_subclass(s, o, values):
    breakdowns = tuple(
        ScoreBreakdown(paraphrase_id=i + 1, ppl_true=1.0, ppl_false=1.0, confirm_value=v)
        for i, v in enumerate(values))
    return ScoredTriple(Triple(lbl(s), Relation.SUBCLASS_OF, lbl(o)), breakdowns)


def samples_from(scored, labels):
    """Per-template samples as collect_samples would build them, given one
    shared label per triple."""
    out = {}
    for st_, label in zip(scored, labels):
        for b in st_.breakdowns:
            out.setdefault(b.paraphrase_id, []).append(
                LabeledScore(score=b.confirm_value, label=label))
    return out


class ScriptedLabelGateway:
    """Answers each generate by prompt lookup; unknown prompts get a
    non-answer, exercising the unparseable path."""

    def __init__(self, answers):
        self.answers = answers
        self.prompts = []

    def generate(self, request, bypass_cache=False):
        self.prompts.append(request.prompt)
        return self.answers.get(request.prompt, "no idea")

    def generate_many(self, requests, bypass_cache=False):
        return [self.generate(request) for request in requests]


class TestCollectSamples:
    def build_gateway(self, scored_a, scored_b):
        answers = {}
        for tpl in templates_for(Relation.SUBCLASS_OF):
            a, b = scored_a.triple, scored_b.triple
            answers[tpl.instantiate(a.subject, a.object)] = "True"
            if tpl.paraphrase_id != 4:
                answers[tpl.instantiate(b.subject, b.object)] = "False"
        return ScriptedLabelGateway(answers)

    def test_pairs_each_label_with_its_templates_value(self):
        a = scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6])
        b = scored_subclass("b", "root", [-0.1, -0.2, -0.3, -0.4])
        gw = self.build_gateway(a, b)
        samples, unparseable = collect_samples(gw, [a, b], Relation.SUBCLASS_OF)
        assert unparseable == 1  # triple b, template 4, answered with garbage
        assert [s.score for s in samples[2]] == [0.8, -0.2]
        assert [s.label for s in samples[2]] == [True, False]
        assert [s.score for s in samples[4]] == [0.6]

    def test_other_relation_is_ignored(self):
        a = scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6])
        syn = ScoredTriple(
            Triple(lbl("x"), Relation.SYNONYM_OF, lbl("y")),
            tuple(ScoreBreakdown(i + 1, 1.0, 1.0, 0.5) for i in range(5)))
        gw = self.build_gateway(a, a)
        samples, _ = collect_samples(gw, [a, syn], Relation.SUBCLASS_OF)
        assert all(len(v) == 1 for v in samples.values())
        assert all("'x'" not in p for p in gw.prompts)

    def test_executor_map_matches_serial(self, monkeypatch):
        # Label requests to an HTTP endpoint fan out over max_in_flight
        # threads inside the gateway; the samples must not depend on it.
        a = scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6])
        b = scored_subclass("b", "root", [-0.1, -0.2, -0.3, -0.4])
        answers = self.build_gateway(a, b).answers

        class ScriptedHttpBackend(HttpBackend):
            def generate(self, body):
                return {"text": answers.get(body["prompt"], "no idea")}

        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", RecordingPool)

        def collect(max_in_flight):
            gw = ModelGateway(ScriptedHttpBackend("http://scripted.invalid"), model="m",
                              cache_dir=None, max_in_flight=max_in_flight)
            try:
                return collect_samples(gw, [a, b], Relation.SUBCLASS_OF)
            finally:
                gw.close()

        serial = collect(1)
        assert pools == []
        threaded = collect(4)
        assert pools == [4]
        assert serial == threaded
        assert serial == collect_samples(self.build_gateway(a, b), [a, b],
                                         Relation.SUBCLASS_OF)


class TestCalibrateRelation:
    def test_per_template_and_pooled_fits(self):
        scored = [
            scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6]),
            scored_subclass("b", "root", [0.5, 0.4, 0.3, 0.2]),
            scored_subclass("c", "root", [-0.1, -0.2, -0.3, -0.4]),
            scored_subclass("d", "root", [-0.5, -0.6, -0.7, -0.8]),
        ]
        labels = [True, True, False, False]
        fits = calibrate_relation(samples_from(scored, labels))
        assert set(fits) == {"1", "2", "3", "4", POOLED_KEY}
        for key in ("1", "2", "3", "4"):
            assert fits[key].n_pos == 2 and fits[key].n_neg == 2
            assert fits[key].max_j == pytest.approx(1.0)
        assert fits[POOLED_KEY].n_pos == 8 and fits[POOLED_KEY].n_neg == 8

    def test_template_one_threshold_from_worked_example(self):
        scored = [
            scored_subclass("a", "root", [0.9, 0.0, 0.0, 0.0]),
            scored_subclass("b", "root", [0.8, 0.0, 0.0, 0.0]),
            scored_subclass("c", "root", [0.3, 0.0, 0.0, 0.0]),
            scored_subclass("d", "root", [0.1, 0.0, 0.0, 0.0]),
        ]
        fits = calibrate_relation(samples_from(scored, [True, True, False, False]))
        assert fits["1"].tau_star == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_template_propagates(self):
        scored = [scored_subclass("a", "b", [0.1] * 4)]
        with pytest.raises(DegenerateLabelsError):
            calibrate_relation(samples_from(scored, [True]))


class TestCalibrationOutcome:
    def build(self):
        scored = [
            scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6]),
            scored_subclass("c", "root", [-0.1, -0.2, -0.3, -0.4]),
        ]
        fits = calibrate_relation(samples_from(scored, [True, False]))
        return CalibrationOutcome(sweep=SweepSpec(), prompt_set="v1",
                                  by_relation={Relation.SUBCLASS_OF.value: fits},
                                  unparseable=3)

    def test_thresholds_ordered_by_paraphrase(self):
        outcome = self.build()
        taus = outcome.thresholds(Relation.SUBCLASS_OF)
        assert len(taus) == 4
        assert taus == [outcome.by_relation["SubclassOf"][str(i)].tau_star
                        for i in (1, 2, 3, 4)]

    def test_json_round_trip_preserves_fits_and_curves(self):
        outcome = self.build()
        back = CalibrationOutcome.from_json_obj(outcome.to_json_obj())
        assert back.prompt_set == "v1"
        assert back.sweep == outcome.sweep
        assert back.unparseable == 3
        assert back.thresholds(Relation.SUBCLASS_OF) == outcome.thresholds(Relation.SUBCLASS_OF)
        assert back.by_relation == outcome.by_relation

    def test_json_obj_carries_curve_and_counts_per_template(self):
        obj = self.build().to_json_obj()
        entry = obj["relations"]["SubclassOf"]["1"]
        assert set(entry) == {"tau_star", "max_j", "counts", "curve"}
        assert entry["counts"] == {"pos": 1, "neg": 1}
        assert all(len(point) == 3 for point in entry["curve"])
