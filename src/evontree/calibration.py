"""Threshold calibration for confirm values.

Labels come from the model itself: each (triple, template) pair is judged
once by generating from the same instantiated statement at temperature 0,
so every template is calibrated against its own wording. Scores are the
per-template confirm values. The answer, of at most LABEL_MAX_TOKENS
tokens, is asked for in the same gateway request as the statement's scores,
a probe (scoring.score_triples with answer_tokens), and collect_samples
reads each label from it with parse_label; one_shot_labels asks the same
generation alone, for the report's judge. The calibrated threshold for a template
maximizes the Youden index J = TPR - FPR over a candidate grid built from
the observed scores inside the sweep range plus the range endpoints; ties
resolve to the largest threshold, the conservative choice for confirmation.
A rate over an empty label class counts as 0, so one-sided labels still fit:
all true keeps the largest threshold that recalls every positive, and all
false (or no labels) gives the top of the range, which no confirm value
clears under the default range [0, 1].

calibration.json is the map relation -> paraphrase id -> fit, each fit a
template's threshold tau_star, its Youden J max_j and its label counts, as
CalibrationResult.to_json_obj gives it; stages read it parsed, as that map,
through checked_calibration and thresholds. The ROC curve a fit returns
holds every candidate threshold; it is not part of the JSON, and
roc_curve.csv keeps only the points of it that shape it (see
report.roc_rows).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import tee
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParamsError, StaleUpstreamError, UnparseableError
from .gateway import GenerateRequest, ModelGateway
from .ontology import Relation, TripleRecord, is_finite_number
from .scoring import templates_for

log = logging.getLogger(__name__)

_ANSWER_RE = re.compile(r"\b(true|false)\b", re.IGNORECASE)
# The most tokens a one-shot answer may take: a label's and a judge verdict's.
LABEL_MAX_TOKENS = 8


@dataclass(frozen=True)
class LabeledScore:
    score: float
    label: bool


@dataclass(frozen=True)
class CalibrationConfig:
    """The range [sweep_lo, sweep_hi] of candidate thresholds."""

    sweep_lo: float = 0.0
    sweep_hi: float = 1.0

    def __post_init__(self) -> None:
        if not self.sweep_lo < self.sweep_hi:
            raise InvalidParamsError(f"sweep range [{self.sweep_lo}, {self.sweep_hi}] is empty")


@dataclass(frozen=True)
class RocPoint:
    tau: float
    tpr: float
    fpr: float

    @property
    def j(self) -> float:
        return self.tpr - self.fpr


# The keys of each fit in calibration.json.
FIT_KEYS = frozenset({"tau_star", "max_j", "counts"})


@dataclass
class CalibrationResult:
    tau_star: float
    n_pos: int
    n_neg: int
    max_j: float
    # The fitted curve, for roc_curve.csv; not stored in calibration.json.
    curve: list[RocPoint] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "tau_star": self.tau_star,
            "max_j": self.max_j,
            "counts": {"pos": self.n_pos, "neg": self.n_neg},
        }


def parse_label(text: str) -> bool:
    """First case-insensitive "true" or "false" in the response wins; a
    response containing neither is Unparseable so the caller can drop the
    sample rather than guess. The judge audit shares this rule."""
    match = _ANSWER_RE.search(text)
    if match is None:
        raise UnparseableError(f"no true/false answer in {text!r:.120}")
    return match.group(1).casefold() == "true"


def _label_or_none(text: str, prompt: str) -> bool | None:
    """parse_label of the answer text to prompt, or None, logged, for an
    answer it cannot read."""
    try:
        return parse_label(text)
    except UnparseableError as exc:
        log.warning("dropping unparseable answer to %r: %s", prompt, exc)
        return None


def one_shot_labels(gateway: ModelGateway, prompts: Iterable[str]) -> Iterator[bool | None]:
    """The model's one-shot answer to each prompt, in order, for the
    report's judge: one greedy generation of at most LABEL_MAX_TOKENS
    tokens, the one a calibration probe asks with, streamed through
    gateway.generate_many and read by parse_label. An answer it cannot read
    is logged and comes back as None."""
    prompts, asked = tee(prompts)
    texts = gateway.generate_many(map(
        partial(GenerateRequest, max_tokens=LABEL_MAX_TOKENS, temperature=0.0), asked))
    return map(_label_or_none, texts, prompts)


def collect_samples(
    scored: Sequence[TripleRecord],
    answers: Sequence[Sequence[str]],
    relation: Relation,
) -> tuple[dict[int, list[LabeledScore]], int]:
    """Pair each confirm value of relation's scored records with the label
    parse_label reads in the model's answer to that template's statement:
    answers holds each scored record's answers, in template order, as
    scoring.score_triples gives them. No model is asked.

    Unparseable answers drop the single sample and are tallied, never fatal:
    one garbled response should not sink a calibration run.
    """
    templates = templates_for(relation)
    samples: dict[int, list[LabeledScore]] = {t.paraphrase_id: [] for t in templates}
    unparseable = 0
    for record, texts in zip(scored, answers, strict=True):
        if record.triple.relation is not relation:
            continue
        triple = record.triple
        for template, value, text in zip(templates, record.scores, texts, strict=True):
            label = _label_or_none(text, template.instantiate(triple.subject, triple.object))
            if label is None:
                unparseable += 1
            else:
                samples[template.paraphrase_id].append(LabeledScore(score=value, label=label))
    return samples, unparseable


def _share_above(ordered: list[float], tau: float) -> float:
    """The share of the sorted scores that lie strictly above tau; 0 for none."""
    return (len(ordered) - bisect_right(ordered, tau)) / len(ordered) if ordered else 0.0


def fit_threshold(samples: Sequence[LabeledScore],
                  config: CalibrationConfig = CalibrationConfig()) -> CalibrationResult:
    """Maximize J over candidate thresholds; positives must score strictly
    above the threshold to count as recalled."""
    pos = sorted(s.score for s in samples if s.label)
    neg = sorted(s.score for s in samples if not s.label)
    lo, hi = config.sweep_lo, config.sweep_hi
    candidates = sorted({s.score for s in samples if lo <= s.score <= hi} | {lo, hi})
    curve: list[RocPoint] = []
    best: RocPoint | None = None
    for tau in candidates:
        point = RocPoint(tau=tau, tpr=_share_above(pos, tau), fpr=_share_above(neg, tau))
        curve.append(point)
        if best is None or point.j >= best.j:  # >= keeps the largest tau on ties
            best = point
    if not pos or not neg:
        log.warning("calibrating on one-sided labels (%d positive / %d negative): the rate "
                    "of the empty class counts as 0", len(pos), len(neg))
    elif best.j <= 0.0:
        log.warning("calibration found no separating threshold (max J = %.4f); "
                    "scores may be anticorrelated with labels", best.j)
    return CalibrationResult(tau_star=best.tau, n_pos=len(pos), n_neg=len(neg),
                             max_j=best.j, curve=curve)


def thresholds(calibration: dict, relation: Relation) -> list[float]:
    """The per-template threshold vector of relation in calibration, the map
    calibration.json holds, ordered by paraphrase id. calibrate fits every
    relation it scored a triple of, so a scored triple of a relation with no
    fits raises StaleUpstreamError."""
    if relation.value not in calibration:
        raise StaleUpstreamError(
            f"calibration.json holds no fits for {relation.value}; "
            "rerun 'calibrate' and the stages after it")
    fits = calibration[relation.value]
    return [fits[str(t.paraphrase_id)]["tau_star"] for t in templates_for(relation)]


def checked_calibration(obj: dict) -> dict:
    """obj, calibration.json as json.loads parsed it, if each of its
    relations holds fits as _current_fits checks them. A file in an older
    format, or a malformed one, raises StaleUpstreamError."""
    stale = sorted(rel for rel, fits in obj.items() if not _current_fits(rel, fits))
    if stale:
        raise StaleUpstreamError(
            f"calibration.json holds fits for {stale} that are malformed or in an "
            "older format; rerun 'calibrate' and the stages after it")
    return obj


def _current_fits(relation: str, fits) -> bool:
    """Whether fits are an object of one fit per template of relation, as
    calibrate_relation returns them, each an object with the keys FIT_KEYS:
    finite numbers tau_star and max_j (is_finite_number), and counts of
    non-negative ints pos and neg."""
    try:
        templates = templates_for(Relation(relation))
    except ValueError:  # no such relation
        return False
    if not isinstance(fits, dict) or set(fits) != {str(t.paraphrase_id) for t in templates}:
        return False
    return all(
        isinstance(fit, dict) and set(fit) == FIT_KEYS and isinstance(fit["counts"], dict)
        and all(is_finite_number(fit[key]) for key in ("tau_star", "max_j"))
        and all(type(fit["counts"].get(key)) is int and fit["counts"][key] >= 0
                for key in ("pos", "neg"))
        for fit in fits.values())


def calibrate_relation(samples: dict[int, list[LabeledScore]],
                       config: CalibrationConfig = CalibrationConfig()
                       ) -> dict[str, CalibrationResult]:
    """Fit one threshold per paraphrase template."""
    return {str(paraphrase_id): fit_threshold(samples[paraphrase_id], config)
            for paraphrase_id in sorted(samples)}
