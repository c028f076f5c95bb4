"""Summary statistics over the pipeline's triple classes.

The report reads one view of the triple classes: each class's records as
counted and the scored records of its triples, which the report stage takes
from scored_raw.jsonl and scored_extrapolated.jsonl, the only files that
hold scores. The main product is a per-(class, relation) table: how many
triples landed in each class, their average confirm value (mean over each
triple's per-paraphrase mean), and, when a judge is available, the fraction
the judge marks true. Counts come from the counted records; averages use
only the scored ones, since a triple left unscored has no values. Each
class's scored records, both relations together, also feed a confirm-value
histogram. roc_rows flattens the ROC curves of fresh per-template fits into
the rows of roc_curve.csv, which the calibrate stage writes: calibration.json
does not keep the curves. Each curve keeps only the points that shape it
(see _shaping_points), as scikit-learn's roc_curve(drop_intermediate=True)
does for a plot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .calibration import CalibrationResult, RocPoint, one_shot_labels
from .gateway import ModelGateway
from .ontology import Relation, Triple, TripleClass, TripleRecord
from .scoring import gap_decision, judge_prompt

# Row order of the stats table: synonym classes first, then the subclass
# lifecycle from raw elicitation down to the mined gaps.
ROW_SPECS: tuple[tuple[TripleClass, Relation], ...] = (
    (TripleClass.RAW, Relation.SYNONYM_OF),
    (TripleClass.CONFIRMED, Relation.SYNONYM_OF),
    (TripleClass.RAW, Relation.SUBCLASS_OF),
    (TripleClass.CONFIRMED, Relation.SUBCLASS_OF),
    (TripleClass.RELIABLE, Relation.SUBCLASS_OF),
    (TripleClass.EXTRAPOLATED, Relation.SUBCLASS_OF),
    (TripleClass.GAP, Relation.SUBCLASS_OF),
)

TABLE_COLUMNS = ("Triple Type", "Relation", "Num", "ConfirmValue Avg.", "Acc.")

HIST_BIN_WIDTH = 0.1
HIST_LO = -1.0
HIST_BINS = 20  # covers [-1, 1]; the top bin is closed at 1.0
# The bins' edges, each rounded to its tenth. A mean is binned by comparing
# it with them, so one on an edge lands in the bin above; dividing by
# HIST_BIN_WIDTH put 7 edges in the bin below ((0.2 + 1.0) / 0.1 is
# 11.999999999999998).
HIST_EDGES = tuple(round(HIST_LO + i * HIST_BIN_WIDTH, 1) for i in range(HIST_BINS + 1))

# Each class's records as counted, and those of them that carry scores.
ClassView = Mapping[TripleClass, tuple[Sequence[TripleRecord], Sequence[TripleRecord]]]


@dataclass(frozen=True)
class ReportRow:
    triple_type: str
    relation: str
    num: int
    confirm_value_avg: float | None
    acc: float | None


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def judge_triples(gateway: ModelGateway,
                  triples: Sequence[Triple]) -> tuple[dict[Triple, bool], int]:
    """Ask the judge once per triple whether it holds, as a one-shot
    question, every triple's in one stream through one_shot_labels.

    Unparseable answers drop the triple from the audit and are tallied.
    A transport failure raises TransportError: the judge endpoint is down,
    which stage_report degrades to an accuracy-free report.
    """
    verdicts: dict[Triple, bool] = {}
    unparseable = 0
    for triple, label in zip(triples, one_shot_labels(gateway, map(judge_prompt, triples))):
        if label is None:
            unparseable += 1
        else:
            verdicts[triple] = label
    return verdicts, unparseable


def build_rows(classes: ClassView, verdicts: dict[Triple, bool] | None) -> list[ReportRow]:
    """One row per ROW_SPECS entry. An absent class keeps its row with a
    zero count and null statistics, so the table shape never varies."""
    rows = []
    for triple_class, relation in ROW_SPECS:
        counted, with_scores = classes.get(triple_class, ((), ()))
        records = [r for r in with_scores if r.triple.relation is relation]
        means = [m for m in (r.mean_score() for r in records) if m is not None]
        acc = None
        if verdicts is not None:
            judged = [verdicts[r.triple] for r in records if r.triple in verdicts]
            acc = _mean([1.0 if v else 0.0 for v in judged])
        rows.append(ReportRow(
            triple_type=triple_class.value,
            relation=relation.value,
            num=sum(r.triple.relation is relation for r in counted),
            confirm_value_avg=_mean(means),
            acc=acc,
        ))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def rows_to_csv(rows: Sequence[ReportRow], with_acc: bool) -> list[list[str]]:
    """Stats table as CSV cells. Without a judge the accuracy column is
    dropped entirely instead of shipping a column of blanks."""
    header = list(TABLE_COLUMNS if with_acc else TABLE_COLUMNS[:-1])
    out = [header]
    for row in rows:
        cells = [row.triple_type, row.relation, str(row.num), _fmt(row.confirm_value_avg)]
        if with_acc:
            cells.append(_fmt(row.acc))
        out.append(cells)
    return out


def histogram_rows(classes: ClassView, verdicts: dict[Triple, bool] | None) -> list[list[str]]:
    """Confirm-value histogram per class, bin width 0.1 over [-1, 1].

    Every bin of a class with scored triples is emitted, empty ones
    included, so consumers can plot without re-indexing. Per-bin accuracy
    appears when a judge audited the run."""
    out = [["class", "bin_lo", "bin_hi", "count", "accuracy"]]
    for triple_class in TripleClass:
        _, with_scores = classes.get(triple_class, ((), ()))
        pairs = [(r.mean_score(), r.triple) for r in with_scores if r.mean_score() is not None]
        if not pairs:
            continue
        counts = [0] * HIST_BINS
        hits: list[list[bool]] = [[] for _ in range(HIST_BINS)]
        for mean, triple in pairs:
            # Past the inner edges only, so -1.0 and below land in the first
            # bin and 1.0 and above in the last.
            idx = bisect_right(HIST_EDGES, mean, 1, HIST_BINS) - 1
            counts[idx] += 1
            if verdicts is not None and triple in verdicts:
                hits[idx].append(verdicts[triple])
        for i in range(HIST_BINS):
            acc = _mean([1.0 if v else 0.0 for v in hits[i]]) if verdicts is not None else None
            out.append([triple_class.value, f"{HIST_EDGES[i]:.1f}", f"{HIST_EDGES[i + 1]:.1f}",
                        str(counts[i]), _fmt(acc)])
    return out


def _shaping_points(fit: CalibrationResult) -> list[RocPoint]:
    """The points of fit's curve that shape it, in order: its first and
    last, each where it turns, and the one at tau_star. A point is dropped
    when the step to it from the last point kept and the step from it to the
    next point are parallel, decided exactly on the counts of positives and
    negatives above tau. The counts only fall as tau rises, so a dropped
    point lies on the segment between the points kept around it."""
    kept: list[tuple[RocPoint, int, int]] = []
    for point in fit.curve:
        pos, neg = round(point.tpr * fit.n_pos), round(point.fpr * fit.n_neg)
        while len(kept) >= 2 and kept[-1][0].tau != fit.tau_star:
            (_, pos0, neg0), (_, pos1, neg1) = kept[-2:]
            if (pos1 - pos0) * (neg - neg1) != (neg1 - neg0) * (pos - pos1):
                break
            kept.pop()
        kept.append((point, pos, neg))
    return [point for point, _, _ in kept]


def roc_rows(by_relation: Mapping[str, Mapping[str, CalibrationResult]]) -> list[list[str]]:
    """Flatten the curves of fresh fits, by relation and template key as
    calibrate_relation returns them, each thinned to its _shaping_points:
    one line per (relation, template, tau) kept."""
    out = [["relation", "template", "tau", "tpr", "fpr"]]
    for relation in sorted(by_relation):
        for template_key in sorted(by_relation[relation]):
            for point in _shaping_points(by_relation[relation][template_key]):
                out.append([relation, template_key, str(point.tau),
                            _fmt(point.tpr), _fmt(point.fpr)])
    return out


@dataclass(frozen=True)
class SweepPoint:
    offset: float
    gap_count: int
    mean_confirm_value: float | None


def sweep_gap_offsets(
    records: Sequence[TripleRecord],
    taus: list[float],
    offsets: Sequence[float],
    mode: str = "all_below",
) -> list[SweepPoint]:
    """Gap yield as the calibrated thresholds shift by a constant offset.

    Raising the offset only loosens the below-threshold test, so the gap
    count is non-decreasing in the offset; a large positive offset admits
    every scored candidate and a large negative one admits none.
    """
    points = []
    for offset in sorted(offsets):
        shifted = [tau + offset for tau in taus]
        means = [r.mean_score() for r in records
                 if r.scores and gap_decision(r.scores, shifted, mode)]
        points.append(SweepPoint(offset=offset, gap_count=len(means),
                                 mean_confirm_value=_mean(means)))
    return points


def sweep_rows(points: Sequence[SweepPoint]) -> list[list[str]]:
    out = [["offset", "gap_count", "mean_confirm_value"]]
    for p in points:
        out.append([str(p.offset), str(p.gap_count), _fmt(p.mean_confirm_value)])
    return out
