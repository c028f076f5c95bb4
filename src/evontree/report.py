"""Summary statistics over the pipeline's triple classes.

The main product is a per-(class, relation) table: how many triples landed
in each class, their average confirm value (mean over each triple's
per-paraphrase mean), and, when a judge is available, the fraction the
judge marks true. Counts come from artifact line counts; averages use only
the scored subset, since unscored triples carry no values. The same scored
records also feed a confirm-value histogram and the ROC points recorded at
calibration time feed a flat CSV for plotting.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .calibration import CalibrationOutcome, parse_label
from .errors import JudgeUnavailableError, TransportError, UnparseableError
from .gateway import GenerateRequest, ModelGateway, chunked
from .ontology import Relation, Triple, TripleClass, TripleRecord
from .scoring import gap_decision, judge_prompt

log = logging.getLogger(__name__)

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

RowKey = tuple[TripleClass, Relation]


@dataclass(frozen=True)
class ReportRow:
    triple_type: str
    relation: str
    num: int
    confirm_value_avg: float | None
    acc: float | None

    def to_json_obj(self) -> dict:
        return {
            "triple_type": self.triple_type,
            "relation": self.relation,
            "num": self.num,
            "confirm_value_avg": self.confirm_value_avg,
            "acc": self.acc,
        }


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def split_by_relation(records: Iterable[TripleRecord]) -> dict[Relation, list[TripleRecord]]:
    out: dict[Relation, list[TripleRecord]] = {r: [] for r in Relation}
    for record in records:
        out[record.triple.relation].append(record)
    return out


def judge_triples(gateway: ModelGateway,
                  triples: Sequence[Triple]) -> tuple[dict[Triple, bool], int]:
    """Ask the judge once per triple whether it holds, one gateway batch of
    triples at a time.

    Unparseable answers drop the triple from the audit and are tallied.
    A transport failure means the judge endpoint is down, which degrades
    the whole report to accuracy-free rather than failing the run.
    """
    verdicts: dict[Triple, bool] = {}
    unparseable = 0
    try:
        for chunk in chunked(triples):
            texts = gateway.generate_many([
                GenerateRequest(prompt=judge_prompt(t), max_tokens=8, temperature=0.0)
                for t in chunk])
            for triple, text in zip(chunk, texts):
                try:
                    verdicts[triple] = parse_label(text)
                except UnparseableError as exc:
                    log.warning("judge answer unparseable for %r: %s", triple, exc)
                    unparseable += 1
    except TransportError as exc:
        raise JudgeUnavailableError(f"judge endpoint failed: {exc}") from exc
    return verdicts, unparseable


def build_rows(
    nums: dict[RowKey, int],
    scored: dict[RowKey, list[TripleRecord]],
    verdicts: dict[Triple, bool] | None,
) -> list[ReportRow]:
    """One row per ROW_SPECS entry. An absent class keeps its row with a
    zero count and null statistics, so the table shape never varies."""
    rows = []
    for triple_class, relation in ROW_SPECS:
        key = (triple_class, relation)
        records = scored.get(key, [])
        means = [m for m in (r.mean_score() for r in records) if m is not None]
        acc = None
        if verdicts is not None:
            judged = [verdicts[r.triple] for r in records if r.triple in verdicts]
            acc = _mean([1.0 if v else 0.0 for v in judged])
        rows.append(ReportRow(
            triple_type=triple_class.value,
            relation=relation.value,
            num=nums.get(key, 0),
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


def histogram_rows(
    scored: dict[RowKey, list[TripleRecord]],
    verdicts: dict[Triple, bool] | None,
) -> list[list[str]]:
    """Confirm-value histogram per class, bin width 0.1 over [-1, 1].

    Every bin of a class with scored triples is emitted, empty ones
    included, so consumers can plot without re-indexing. Per-bin accuracy
    appears when a judge audited the run."""
    out = [["class", "bin_lo", "bin_hi", "count", "accuracy"]]
    by_class: dict[TripleClass, list[TripleRecord]] = {}
    for (triple_class, _), records in sorted(scored.items(),
                                             key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        by_class.setdefault(triple_class, []).extend(records)
    for triple_class in TripleClass:
        records = by_class.get(triple_class, [])
        pairs = [(r.mean_score(), r.triple) for r in records if r.mean_score() is not None]
        if not pairs:
            continue
        counts = [0] * HIST_BINS
        hits: list[list[bool]] = [[] for _ in range(HIST_BINS)]
        for mean, triple in pairs:
            idx = min(int(math.floor((mean - HIST_LO) / HIST_BIN_WIDTH)), HIST_BINS - 1)
            idx = max(idx, 0)
            counts[idx] += 1
            if verdicts is not None and triple in verdicts:
                hits[idx].append(verdicts[triple])
        for i in range(HIST_BINS):
            lo = HIST_LO + i * HIST_BIN_WIDTH
            acc = _mean([1.0 if v else 0.0 for v in hits[i]]) if verdicts is not None else None
            out.append([triple_class.value, f"{lo:.1f}", f"{lo + HIST_BIN_WIDTH:.1f}",
                        str(counts[i]), _fmt(acc)])
    return out


def roc_rows(outcome: CalibrationOutcome) -> list[list[str]]:
    """Flatten the calibration curves: one line per (relation, template, tau)."""
    out = [["relation", "template", "tau", "tpr", "fpr"]]
    for relation in sorted(outcome.by_relation):
        for template_key in sorted(outcome.by_relation[relation]):
            for point in outcome.by_relation[relation][template_key].curve:
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
