"""Stats table, judge audit, histogram, and threshold sweep."""

from __future__ import annotations

import math
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from evontree.calibration import (
    CalibrationResult,
    LabeledScore,
    RocPoint,
    fit_threshold,
)
from evontree.errors import TransportError
from evontree.gateway import ModelGateway
from evontree.ontology import Relation, Triple, TripleClass, TripleRecord, normalize_label
from evontree.report import (
    ROW_SPECS,
    build_rows,
    histogram_rows,
    judge_triples,
    roc_rows,
    rows_to_csv,
    sweep_gap_offsets,
    sweep_rows,
)
from evontree.scoring import judge_prompt


def sub(a: str, b: str) -> Triple:
    return Triple(normalize_label(a), Relation.SUBCLASS_OF, normalize_label(b))


def rec(a: str, b: str, scores=None) -> TripleRecord:
    return TripleRecord(sub(a, b), scores=scores)


class TestBuildRows:
    def test_row_order_is_pinned(self):
        rows = build_rows({}, None)
        got = [(r.triple_type, r.relation) for r in rows]
        assert got == [(c.value, rel.value) for c, rel in ROW_SPECS]

    def test_empty_class_keeps_row_with_zero_and_nulls(self):
        rows = build_rows({}, None)
        gap_row = rows[-1]
        assert (gap_row.triple_type, gap_row.num) == ("Gap", 0)
        assert gap_row.confirm_value_avg is None
        assert gap_row.acc is None

    def test_mean_is_over_per_triple_means(self):
        scored = [
            rec("a", "b", scores=[1.0, 0.0]),   # triple mean 0.5
            rec("c", "d", scores=[0.1, 0.1]),   # triple mean 0.1
        ]
        row = build_rows({TripleClass.RAW: (scored, scored)}, None)[2]
        assert row.confirm_value_avg == pytest.approx(0.3)

    def test_num_comes_from_counts_not_scored_records(self):
        scored = [rec("a", "b", scores=[0.2])]
        counted = scored + [rec(f"u{i}", f"v{i}") for i in range(4)]
        row = build_rows({TripleClass.RAW: (counted, scored)}, None)[2]
        assert row.num == 5

    def test_each_row_takes_its_relation_from_the_class(self):
        syn = TripleRecord(Triple(normalize_label("x"), Relation.SYNONYM_OF,
                                  normalize_label("y")), scores=[-0.4])
        sub_records = [rec("a", "b", scores=[0.6]), rec("c", "d")]
        rows = build_rows({TripleClass.RAW: ([syn, *sub_records], [syn, sub_records[0]])}, None)
        by_key = {(r.triple_type, r.relation): (r.num, r.confirm_value_avg) for r in rows}
        assert by_key[("Raw", "SynonymOf")] == (1, pytest.approx(-0.4))
        assert by_key[("Raw", "SubclassOf")] == (2, pytest.approx(0.6))

    def test_accuracy_is_fraction_marked_true(self):
        records = [rec("a", "b", scores=[0.5]), rec("c", "d", scores=[0.5]),
                   rec("e", "f", scores=[0.5])]
        verdicts = {records[0].triple: True, records[1].triple: False}
        row = build_rows({TripleClass.RAW: ((), records)}, verdicts)[2]
        assert row.acc == pytest.approx(0.5)  # third triple unjudged, excluded


class TestCsvShaping:
    def test_acc_column_present_with_judge(self):
        cells = rows_to_csv(build_rows({}, {}), with_acc=True)
        assert cells[0] == ["Triple Type", "Relation", "Num", "ConfirmValue Avg.", "Acc."]
        assert len(cells) == 1 + len(ROW_SPECS)

    def test_acc_column_absent_without_judge(self):
        cells = rows_to_csv(build_rows({}, None), with_acc=False)
        assert cells[0] == ["Triple Type", "Relation", "Num", "ConfirmValue Avg."]
        assert all(len(row) == 4 for row in cells)


class ScriptedJudgeBackend:
    """Answers judge prompts from a dict; unknown prompts get gibberish."""

    identity = "scripted://judge"

    def __init__(self, answers: dict[str, str], fail: bool = False):
        self.answers = answers
        self.fail = fail

    def generate(self, body: dict) -> dict:
        if self.fail:
            raise TransportError("judge down")
        return {"text": self.answers.get(body["prompt"], "hmm, unclear")}

    def score(self, body: dict) -> dict:
        raise AssertionError("judge never scores")


def judge_gateway(tmp_path, answers, fail=False) -> ModelGateway:
    return ModelGateway(ScriptedJudgeBackend(answers, fail=fail), model="j",
                        cache_dir=tmp_path, sleep=lambda s: None)


class TestJudgeTriples:
    def test_verdicts_and_unparseable_tally(self, tmp_path):
        t1, t2, t3 = sub("a", "b"), sub("c", "d"), sub("e", "f")
        answers = {judge_prompt(t1): "True", judge_prompt(t2): " false."}
        with closing(judge_gateway(tmp_path, answers)) as gw:
            verdicts, unparseable = judge_triples(gw, [t1, t2, t3])
        assert verdicts == {t1: True, t2: False}
        assert unparseable == 1

    def test_transport_failure_degrades_to_judge_unavailable(self, tmp_path):
        with closing(judge_gateway(tmp_path, {}, fail=True)) as gw:
            with pytest.raises(TransportError):
                judge_triples(gw, [sub("a", "b")])


class TestHistogram:
    def test_bins_cover_minus_one_to_one(self):
        records = [rec("a", "b", scores=[-1.0]), rec("c", "d", scores=[1.0]),
                   rec("e", "f", scores=[-0.05])]
        rows = histogram_rows({TripleClass.RAW: (records, records)}, None)
        assert rows[0] == ["class", "bin_lo", "bin_hi", "count", "accuracy"]
        body = rows[1:]
        assert len(body) == 20  # one class, all bins emitted
        counts = {(r[1], r[2]): int(r[3]) for r in body}
        assert counts[("-1.0", "-0.9")] == 1
        assert counts[("-0.1", "0.0")] == 1
        assert counts[("0.9", "1.0")] == 1  # 1.0 lands in the closed top bin
        assert sum(counts.values()) == 3

    @pytest.mark.parametrize("edge", [f"{tenths / 10:.1f}" for tenths in range(-10, 11)])
    def test_a_mean_on_an_edge_falls_in_the_bin_above_it(self, edge):
        # Every edge from -1.0 to 1.0; 1.0 is the top of the closed last bin.
        records = [rec("a", "b", scores=[float(edge)])]
        rows = histogram_rows({TripleClass.RAW: (records, records)}, None)
        [(lo, hi)] = [(r[1], r[2]) for r in rows[1:] if r[3] == "1"]
        assert lo == (edge if edge != "1.0" else "0.9")
        assert float(hi) == pytest.approx(float(lo) + 0.1)

    def test_per_bin_accuracy_with_verdicts(self):
        r1, r2 = rec("a", "b", scores=[0.55]), rec("c", "d", scores=[0.58])
        verdicts = {r1.triple: True, r2.triple: False}
        rows = histogram_rows({TripleClass.RAW: ([r1, r2], [r1, r2])}, verdicts)
        target = [r for r in rows[1:] if r[1] == "0.5"][0]
        assert target[3] == "2"
        assert target[4] == "0.500000"

    def test_classes_pool_relations(self):
        syn = TripleRecord(Triple(normalize_label("x"), Relation.SYNONYM_OF,
                                  normalize_label("y")), scores=[0.0])
        records = [rec("a", "b", scores=[0.0]), syn]
        rows = histogram_rows({TripleClass.RAW: (records, records)}, None)
        target = [r for r in rows[1:] if r[0] == "Raw" and r[1] == "0.0"][0]
        assert target[3] == "2"


ROC_HEADER = ["relation", "template", "tau", "tpr", "fpr"]


def shaping_row_indices(rows: list[list[str]],
                        by_relation: dict[str, dict[str, CalibrationResult]]) -> list[list[int]]:
    """For each curve of the fits by_relation, in the order roc_rows writes
    them, the indices into its full curve of its rows in rows. Asserts that
    they are a subsequence of the full curve's rows, each row byte for byte
    as flattening every point writes it, with the first, the last and the
    tau_star rows among them."""
    assert rows[0] == ROC_HEADER
    body, kept_by_curve = rows[1:], []
    for relation in sorted(by_relation):
        for key in sorted(by_relation[relation]):
            fit = by_relation[relation][key]
            full = [[relation, key, str(p.tau), f"{p.tpr:.6f}", f"{p.fpr:.6f}"]
                    for p in fit.curve]
            kept = []
            while body and body[0][:2] == [relation, key]:
                row = body.pop(0)
                kept.append(full.index(row, kept[-1] + 1 if kept else 0))
            assert kept[0] == 0 and kept[-1] == len(full) - 1, (relation, key)
            assert [p.tau for p in fit.curve].index(fit.tau_star) in kept, (relation, key)
            kept_by_curve.append(kept)
    assert body == []
    return kept_by_curve


def one_curve(samples: list[LabeledScore]) -> tuple[dict, CalibrationResult]:
    fit = fit_threshold(samples)
    return {"SubclassOf": {"1": fit}}, fit


def cross(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """The cross product of the steps a to b and b to c: 0 when they are parallel."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


class TestRocRows:
    def test_flattens_relations_and_templates(self):
        fit = CalibrationResult(tau_star=0.5, n_pos=1, n_neg=1, max_j=1.0,
                                curve=[RocPoint(0.0, 1.0, 1.0), RocPoint(0.5, 1.0, 0.0)])
        rows = roc_rows({"SubclassOf": {"1": fit, "2": fit}})
        assert rows[0] == ROC_HEADER
        assert rows[1] == ["SubclassOf", "1", "0.0", "1.000000", "1.000000"]
        assert len(rows) == 1 + 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-0.5, 0.0, 0.125, 0.25, 0.375, 0.5, 0.625,
                                               0.75, 0.875, 1.0, 1.5]), st.booleans()),
                    max_size=40))
    def test_thinning_drops_only_points_on_a_straight_run(self, pairs):
        samples = [LabeledScore(score, label) for score, label in pairs]
        by_relation, fit = one_curve(samples)
        [kept] = shaping_row_indices(roc_rows(by_relation), by_relation)
        # The counts above each tau, from the samples themselves.
        counts = [(sum(s.label and s.score > p.tau for s in samples),
                   sum(not s.label and s.score > p.tau for s in samples)) for p in fit.curve]
        star = [p.tau for p in fit.curve].index(fit.tau_star)
        for before, after in zip(kept, kept[1:]):
            a, b = counts[before], counts[after]
            for dropped in range(before + 1, after):
                c = counts[dropped]
                assert cross(a, c, b) == 0
                assert min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                assert min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        # Every point kept between the ends but tau_star's is a turn.
        for before, point, after in zip(kept, kept[1:], kept[2:]):
            if point != star:
                assert cross(counts[before], counts[point], counts[after]) != 0

    def test_tau_star_inside_a_straight_run_is_kept(self):
        # Four (positive, negative) pairs tied at 0.2 to 0.8 make one straight
        # run from (5, 4) to (1, 0) counted above tau, on which J is 0.2 at
        # every point. In floats, 4/5 - 3/5 is the largest, so tau_star is 0.2,
        # inside the run.
        samples = [LabeledScore(-1.0, False), LabeledScore(0.9, True),
                   *(LabeledScore(score, label) for score in (0.2, 0.4, 0.6, 0.8)
                     for label in (True, False))]
        by_relation, fit = one_curve(samples)
        assert fit.tau_star == 0.2
        assert [p.tau for p in fit.curve] == [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
        rows = roc_rows(by_relation)
        assert shaping_row_indices(rows, by_relation) == [[0, 1, 4, 6]]
        assert rows[1:] == [["SubclassOf", "1", "0.0", "1.000000", "0.800000"],
                            ["SubclassOf", "1", "0.2", "0.800000", "0.600000"],
                            ["SubclassOf", "1", "0.8", "0.200000", "0.000000"],
                            ["SubclassOf", "1", "1.0", "0.000000", "0.000000"]]

    def test_a_fit_read_back_has_no_rows(self):
        fit = CalibrationResult(tau_star=0.5, n_pos=1, n_neg=1, max_j=1.0)
        assert roc_rows({"SubclassOf": {"1": fit}}) == [ROC_HEADER]


class TestSweep:
    def make_records(self, means):
        return [rec(f"s{i}", f"o{i}", scores=[m]) for i, m in enumerate(means)]

    def test_extreme_offsets_admit_all_or_none(self):
        records = self.make_records([-0.5, 0.2, 0.9])
        points = sweep_gap_offsets(records, [0.0], [-math.inf, math.inf])
        assert points[0].gap_count == 0
        assert points[0].mean_confirm_value is None
        assert points[-1].gap_count == len(records)

    def test_counts_are_sorted_by_offset(self):
        records = self.make_records([0.1, 0.5])
        points = sweep_gap_offsets(records, [0.3], [1.0, -1.0, 0.0])
        assert [p.offset for p in points] == [-1.0, 0.0, 1.0]

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=0, max_size=30),
           st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    def test_gap_count_never_decreases_in_offset(self, means, offsets, tau):
        records = self.make_records(means)
        points = sweep_gap_offsets(records, [tau], offsets)
        counts = [p.gap_count for p in points]
        assert counts == sorted(counts)

    def test_rows_render_none_as_empty(self):
        rows = sweep_rows(sweep_gap_offsets([], [], [0.0]))
        assert rows == [["offset", "gap_count", "mean_confirm_value"], ["0.0", "0", ""]]
