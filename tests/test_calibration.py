from __future__ import annotations

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evontree.gateway as gateway_module
import evontree.report as report_module
from evontree.calibration import (
    CalibrationConfig,
    CalibrationResult,
    LabeledScore,
    calibrate_relation,
    checked_calibration,
    collect_samples,
    fit_threshold,
    one_shot_labels,
    parse_label,
    thresholds,
)
from evontree.errors import (
    InvalidParamsError,
    StaleUpstreamError,
    UnparseableError,
)
from evontree.gateway import GenerateRequest, HttpBackend, ModelGateway
from evontree.ontology import Relation, Triple, TripleRecord, normalize_label as lbl
from evontree.report import judge_triples
from evontree.scoring import probe_requests, templates_for

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

    def test_degenerate_labels(self, caplog):
        # The rate over an empty label class counts as 0. All true: the
        # largest threshold that recalls every positive, the bottom of the
        # range when every positive scores above it.
        with caplog.at_level("WARNING"):
            res = fit_threshold(ls([(0.9, True), (0.8, True)]))
        assert (res.tau_star, res.max_j, res.n_pos, res.n_neg) == (0.0, 1.0, 2, 0)
        assert [(p.tau, p.tpr, p.fpr) for p in res.curve] == [
            (0.0, 1.0, 0.0), (0.8, 0.5, 0.0), (0.9, 0.0, 0.0), (1.0, 0.0, 0.0)]
        assert any("2 positive / 0 negative" in r.message for r in caplog.records)
        # A positive below the range is not recalled by any candidate.
        res = fit_threshold(ls([(0.9, True), (-0.5, True)]))
        assert (res.tau_star, res.max_j) == (0.0, 0.5)
        # All false, or no labels: the top of the range, which confirms nothing.
        for samples in (ls([(0.9, False), (-0.3, False)]), []):
            res = fit_threshold(samples)
            assert (res.tau_star, res.max_j) == (1.0, 0.0)
            assert (res.n_pos, res.n_neg) == (0, len(samples))

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
                            CalibrationConfig(sweep_lo=-1.0, sweep_hi=1.0))
        assert any(p.tau == -0.4 for p in res.curve)

    def test_invalid_sweep(self):
        with pytest.raises(InvalidParamsError):
            CalibrationConfig(sweep_lo=1.0, sweep_hi=0.0)

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


class RecordingGateway:
    """Answers every generation with "True", recording each request."""

    def __init__(self):
        self.requests = []

    def generate_many(self, requests, bypass_cache=False):
        requests = list(requests)
        self.requests += requests
        return ["True"] * len(requests)


class TestOneShotLabel:
    """A one-shot label: one_shot_labels's greedy request, its answer read by parse_label."""

    def test_parses_true_from_template_prompt(self):
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        gw = RecordingGateway()
        collect_samples(gw, [scored_subclass("Virus", "Microbe", [0.5] * 4)], Relation.SUBCLASS_OF)
        req = gw.requests[0]
        assert req == GenerateRequest(prompt=req.prompt, max_tokens=8, temperature=0.0)
        # The label prompt is the same instantiated statement the scorer uses.
        assert req.prompt == SUB_TPL.instantiate(t.subject, t.object)
        assert [r.prompt for r in gw.requests] == [r.prompt for r in probe_requests(t)[::2]]
        assert parse_label("True.") is True

    def test_labels_in_order_with_none_for_unparseable(self):
        gw = ScriptedLabelGateway({"p0": "True", "p1": "no idea", "p2": " false."})
        assert list(one_shot_labels(gw, (f"p{i}" for i in range(4)))) == [True, None, False, None]
        assert gw.prompts == ["p0", "p1", "p2", "p3"]

    def test_calibration_and_judge_ask_the_same_request(self, monkeypatch):
        # Given the same statement text, a calibration label and a judge
        # verdict are one and the same one-shot request.
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        monkeypatch.setattr(report_module, "judge_prompt",
                            lambda triple: SUB_TPL.instantiate(triple.subject, triple.object))
        labels, judge = RecordingGateway(), RecordingGateway()
        collect_samples(labels, [scored_subclass("Virus", "Microbe", [0.5] * 4)],
                        Relation.SUBCLASS_OF)
        assert judge_triples(judge, [t]) == ({t: True}, 0)
        assert judge.requests == labels.requests[:1]

    def test_parses_false_case_insensitive(self):
        assert parse_label("  fAlSe, because...") is False

    def test_first_answer_wins(self):
        assert parse_label("False. Well, actually True.") is False

    def test_unparseable(self):
        with pytest.raises(UnparseableError):
            parse_label("It depends on the taxonomy.")

    def test_word_boundary_required(self):
        # "untrue" contains no standalone true/false token.
        with pytest.raises(UnparseableError):
            parse_label("Truthiness untrue.")


def scored_subclass(s, o, values):
    return TripleRecord(Triple(lbl(s), Relation.SUBCLASS_OF, lbl(o)), scores=list(values))


def samples_from(scored, labels):
    """Per-template samples as collect_samples would build them, given one
    shared label per triple."""
    out = {}
    for record, label in zip(scored, labels):
        for template, value in zip(templates_for(record.triple.relation), record.scores):
            out.setdefault(template.paraphrase_id, []).append(
                LabeledScore(score=value, label=label))
    return out


class ScriptedLabelGateway:
    """Answers each generate by prompt lookup; unknown prompts get a
    non-answer, exercising the unparseable path."""

    def __init__(self, answers):
        self.answers = answers
        self.prompts = []

    def generate(self, request):
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
        syn = TripleRecord(Triple(lbl("x"), Relation.SYNONYM_OF, lbl("y")), scores=[0.5] * 5)
        gw = self.build_gateway(a, a)
        samples, _ = collect_samples(gw, [a, syn], Relation.SUBCLASS_OF)
        assert all(len(v) == 1 for v in samples.values())
        assert all("'x'" not in p for p in gw.prompts)

    def test_executor_map_matches_serial(self, tmp_path, monkeypatch):
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
            # A cache of its own, so that every request reaches the backend.
            gw = ModelGateway(ScriptedHttpBackend("http://scripted.invalid"), model="m",
                              cache_dir=tmp_path / f"cache{max_in_flight}",
                              max_in_flight=max_in_flight)
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
    def test_one_fit_per_template(self):
        scored = [
            scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6]),
            scored_subclass("b", "root", [0.5, 0.4, 0.3, 0.2]),
            scored_subclass("c", "root", [-0.1, -0.2, -0.3, -0.4]),
            scored_subclass("d", "root", [-0.5, -0.6, -0.7, -0.8]),
        ]
        labels = [True, True, False, False]
        fits = calibrate_relation(samples_from(scored, labels))
        assert set(fits) == {"1", "2", "3", "4"}
        for key in ("1", "2", "3", "4"):
            assert fits[key].n_pos == 2 and fits[key].n_neg == 2
            assert fits[key].max_j == pytest.approx(1.0)

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
        # One-sided labels fit every template as fit_threshold does.
        scored = [scored_subclass("a", "b", [0.1] * 4)]
        for label, tau_star, max_j in ((True, 0.0, 1.0), (False, 1.0, 0.0)):
            fits = calibrate_relation(samples_from(scored, [label]))
            assert set(fits) == {"1", "2", "3", "4"}
            assert all((fit.tau_star, fit.max_j, fit.n_pos + fit.n_neg) == (tau_star, max_j, 1)
                       for fit in fits.values())


class TestCalibrationOutcome:
    """The map of fits calibration.json holds, relation -> paraphrase id ->
    fit, as stage_calibrate builds it and checked_calibration and thresholds
    read it."""

    def fits(self):
        scored = [
            scored_subclass("a", "root", [0.9, 0.8, 0.7, 0.6]),
            scored_subclass("c", "root", [-0.1, -0.2, -0.3, -0.4]),
        ]
        return calibrate_relation(samples_from(scored, [True, False]))

    def build(self):
        return {Relation.SUBCLASS_OF.value: {
            key: fit.to_json_obj() for key, fit in self.fits().items()}}

    def test_thresholds_ordered_by_paraphrase(self):
        calibration = self.build()
        taus = thresholds(calibration, Relation.SUBCLASS_OF)
        assert len(taus) == 4
        assert taus == [calibration["SubclassOf"][str(i)]["tau_star"] for i in (1, 2, 3, 4)]

    def test_json_round_trip_preserves_fits(self):
        fits, calibration = self.fits(), self.build()
        back = checked_calibration(json.loads(json.dumps(calibration)))
        assert back == calibration
        assert thresholds(back, Relation.SUBCLASS_OF) == [fits[str(i)].tau_star
                                                          for i in (1, 2, 3, 4)]
        # Curves live in roc_curve.csv; the map holds none.
        assert all(fit.curve for fit in fits.values())
        assert not any("curve" in fit for fit in back["SubclassOf"].values())

    def test_json_obj_carries_threshold_and_counts_per_template(self):
        obj = self.build()
        assert set(obj["SubclassOf"]) == {"1", "2", "3", "4"}
        entry = obj["SubclassOf"]["1"]
        assert set(entry) == {"tau_star", "max_j", "counts"}
        assert entry["counts"] == {"pos": 1, "neg": 1}

    @pytest.mark.parametrize("edit", ["pooled_fit", "curve_key", "missing_template",
                                      "unknown_relation", "relations_key"])
    def test_older_format_is_refused(self, edit):
        obj = self.build()
        fits = obj["SubclassOf"]
        if edit == "pooled_fit":  # written before the pooled fit was dropped
            fits["pooled"] = dict(fits["1"])
        elif edit == "curve_key":  # written before curves left the JSON
            fits["2"]["curve"] = [{"tau": 0.0, "tpr": 1.0, "fpr": 1.0}]
        elif edit == "missing_template":
            del fits["4"]
        elif edit == "unknown_relation":
            obj["PartOf"] = fits
        else:  # written before the fits were the whole file
            obj = {"prompt_set": "v1", "relations": obj, "sweep": {"hi": 1.0, "lo": 0.0},
                   "unparseable": 0}
        with pytest.raises(StaleUpstreamError) as exc:
            checked_calibration(obj)
        assert "calibration.json" in str(exc.value) and "rerun 'calibrate'" in str(exc.value)

    @pytest.mark.parametrize(("key", "value"), [
        ("tau_star", "0.0"), ("tau_star", None), ("tau_star", False), ("max_j", True),
        ("max_j", [0.5]), ("counts", {"pos": -1, "neg": 1}), ("counts", {"pos": 1, "neg": 1.0}),
        ("counts", {"pos": True, "neg": 1}), ("counts", {"pos": 1}), ("counts", [1, 1])])
    def test_a_malformed_fit_is_refused(self, key, value):
        obj = self.build()
        obj["SubclassOf"]["3"][key] = value
        with pytest.raises(StaleUpstreamError) as exc:
            checked_calibration(obj)
        assert str(exc.value) == (
            "calibration.json holds fits for ['SubclassOf'] that are malformed or in an "
            "older format; rerun 'calibrate' and the stages after it")

    def test_thresholds_of_a_relation_with_no_fits_are_refused(self):
        with pytest.raises(StaleUpstreamError) as exc:
            thresholds(self.build(), Relation.SYNONYM_OF)
        assert str(exc.value) == ("calibration.json holds no fits for SynonymOf; "
                                  "rerun 'calibrate' and the stages after it")

