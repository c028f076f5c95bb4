"""Threshold calibration for confirm values.

Labels come from the model itself: each (triple, template) pair is judged
once by generating from the same instantiated statement at temperature 0,
so every template is calibrated against its own wording. Scores are the
per-template confirm values. The calibrated threshold for a template
maximizes the Youden index J = TPR - FPR over a candidate grid built from
the observed scores inside the sweep range plus the range endpoints; ties
resolve to the largest threshold, the conservative choice for confirmation.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateLabelsError, InvalidParamsError, MissingThresholdError, UnparseableError
from .gateway import GenerateRequest, ModelGateway, chunked
from .ontology import Relation, Triple
from .scoring import ProbeTemplate, ScoredTriple, templates_for

log = logging.getLogger(__name__)

POOLED_KEY = "pooled"

_ANSWER_RE = re.compile(r"\b(true|false)\b", re.IGNORECASE)


@dataclass(frozen=True)
class LabeledScore:
    score: float
    label: bool


@dataclass(frozen=True)
class SweepSpec:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidParamsError(f"sweep range [{self.lo}, {self.hi}] is empty")


@dataclass(frozen=True)
class RocPoint:
    tau: float
    tpr: float
    fpr: float

    @property
    def j(self) -> float:
        return self.tpr - self.fpr


@dataclass
class CalibrationResult:
    tau_star: float
    n_pos: int
    n_neg: int
    max_j: float
    curve: list[RocPoint] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "tau_star": self.tau_star,
            "max_j": self.max_j,
            "counts": {"pos": self.n_pos, "neg": self.n_neg},
            "curve": [[p.tau, p.tpr, p.fpr] for p in self.curve],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CalibrationResult":
        return cls(tau_star=obj["tau_star"], max_j=obj["max_j"],
                   n_pos=obj["counts"]["pos"], n_neg=obj["counts"]["neg"],
                   curve=[RocPoint(tau=t, tpr=tp, fpr=fp) for t, tp, fp in obj["curve"]])


def parse_label(text: str) -> bool:
    """First case-insensitive "true" or "false" in the response wins; a
    response containing neither is Unparseable so the caller can drop the
    sample rather than guess. The judge audit shares this rule."""
    match = _ANSWER_RE.search(text)
    if match is None:
        raise UnparseableError(f"no true/false answer in {text!r:.120}")
    return match.group(1).casefold() == "true"


def label_request(triple: Triple, template: ProbeTemplate) -> GenerateRequest:
    """One greedy generation from the instantiated statement."""
    prompt = template.instantiate(triple.subject, triple.object)
    return GenerateRequest(prompt=prompt, max_tokens=8, temperature=0.0)


def one_shot_label(gateway: ModelGateway, triple: Triple, template: ProbeTemplate) -> bool:
    """Ask the model once, greedily, whether the instantiated statement holds."""
    return parse_label(gateway.generate(label_request(triple, template)))


def collect_samples(
    gateway: ModelGateway,
    scored: Sequence[ScoredTriple],
    relation: Relation,
) -> tuple[dict[int, list[LabeledScore]], int]:
    """Label every (triple, template) pair and pair each label with that
    template's confirm value, one gateway batch of label requests at a time.

    Unparseable answers drop the single sample and are tallied, never fatal:
    one garbled response should not sink a calibration run.
    """
    templates = templates_for(relation)
    tasks = ((st, template, value)
             for st in scored if st.triple.relation is relation
             for template, value in zip(templates, st.values))
    samples: dict[int, list[LabeledScore]] = {t.paraphrase_id: [] for t in templates}
    unparseable = 0
    for chunk in chunked(tasks):
        texts = gateway.generate_many([label_request(st.triple, template)
                                       for st, template, _ in chunk])
        for (st, template, value), text in zip(chunk, texts):
            try:
                label = parse_label(text)
            except UnparseableError as exc:
                log.warning("dropping unparseable label for %s: %s", st.triple, exc)
                unparseable += 1
                continue
            samples[template.paraphrase_id].append(LabeledScore(score=value, label=label))
    return samples, unparseable


def fit_threshold(samples: Sequence[LabeledScore], sweep: SweepSpec = SweepSpec()) -> CalibrationResult:
    """Maximize J over candidate thresholds; positives must score strictly
    above the threshold to count as recalled."""
    pos = sorted(s.score for s in samples if s.label)
    neg = sorted(s.score for s in samples if not s.label)
    if not pos or not neg:
        raise DegenerateLabelsError(
            f"need both labels to calibrate, got {len(pos)} positive / {len(neg)} negative")
    in_range = [s.score for s in samples if sweep.lo <= s.score <= sweep.hi]
    candidates = sorted(set(in_range) | {sweep.lo, sweep.hi})
    curve: list[RocPoint] = []
    best: RocPoint | None = None
    for tau in candidates:
        tpr = (len(pos) - bisect_right(pos, tau)) / len(pos)
        fpr = (len(neg) - bisect_right(neg, tau)) / len(neg)
        point = RocPoint(tau=tau, tpr=tpr, fpr=fpr)
        curve.append(point)
        if best is None or point.j >= best.j:  # >= keeps the largest tau on ties
            best = point
    if best.j <= 0.0:
        log.warning("calibration found no separating threshold (max J = %.4f); "
                    "scores may be anticorrelated with labels", best.j)
    return CalibrationResult(tau_star=best.tau, n_pos=len(pos), n_neg=len(neg),
                             max_j=best.j, curve=curve)


@dataclass
class CalibrationOutcome:
    """Per-relation, per-template fits plus a pooled fit across templates."""

    sweep: SweepSpec
    prompt_set: str
    by_relation: dict[str, dict[str, CalibrationResult]]
    unparseable: int = 0

    def thresholds(self, relation: Relation) -> list[float]:
        """Per-template threshold vector, ordered by paraphrase id."""
        if relation.value not in self.by_relation:
            raise MissingThresholdError(f"no calibrated thresholds for {relation.value}")
        fits = self.by_relation[relation.value]
        return [fits[str(t.paraphrase_id)].tau_star for t in templates_for(relation)]

    def to_json_obj(self) -> dict:
        return {
            "prompt_set": self.prompt_set,
            "sweep": {"lo": self.sweep.lo, "hi": self.sweep.hi},
            "unparseable": self.unparseable,
            "relations": {
                rel: {key: res.to_json_obj() for key, res in sorted(fits.items())}
                for rel, fits in sorted(self.by_relation.items())
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CalibrationOutcome":
        return cls(
            sweep=SweepSpec(lo=obj["sweep"]["lo"], hi=obj["sweep"]["hi"]),
            prompt_set=obj["prompt_set"],
            unparseable=obj.get("unparseable", 0),
            by_relation={
                rel: {key: CalibrationResult.from_json_obj(r) for key, r in fits.items()}
                for rel, fits in obj["relations"].items()
            },
        )


def calibrate_relation(samples: dict[int, list[LabeledScore]],
                       sweep: SweepSpec = SweepSpec()) -> dict[str, CalibrationResult]:
    """Fit one threshold per paraphrase template plus a pooled fit over the
    union of every template's samples."""
    fits: dict[str, CalibrationResult] = {}
    pooled: list[LabeledScore] = []
    for paraphrase_id in sorted(samples):
        fits[str(paraphrase_id)] = fit_threshold(samples[paraphrase_id], sweep)
        pooled.extend(samples[paraphrase_id])
    fits[POOLED_KEY] = fit_threshold(pooled, sweep)
    return fits
