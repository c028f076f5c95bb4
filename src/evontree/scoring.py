"""Statement probes and the perplexity-based confirm value.

Each candidate triple is rendered as several paraphrased true-or-false
statements. For each paraphrase the model scores the completions " True"
and " False"; the confirm value compares the two perplexities:

    confirm_value = sign(ppl_false - ppl_true) / min(ppl_true, ppl_false)

Positive values mean the model finds " True" easier to produce than
" False". Because perplexities are at least 1 for log-probabilities <= 0,
the value always lies in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptySpanError, MissingThresholdError
from .gateway import BATCH_SIZE, ModelGateway, ScoreRequest, ScoreResponse, chunked
from .ontology import ConceptLabel, Relation, Triple

COMPLETION_TRUE = " True"
COMPLETION_FALSE = " False"

_PREAMBLE = (
    "Please determine if the statement is true or false, "
    "then answer with True or False: "
)


@dataclass(frozen=True)
class ProbeTemplate:
    relation: Relation
    paraphrase_id: int
    template: str  # contains {A} and {B} placeholders, ends with "Answer:"

    def instantiate(self, subject: ConceptLabel, obj: ConceptLabel) -> str:
        # str.replace, not str.format: labels may themselves contain braces.
        return self.template.replace("{A}", subject.text).replace("{B}", obj.text)


PROMPT_SET_VERSION = "v1"

PROMPT_SET_V1: tuple[ProbeTemplate, ...] = (
    ProbeTemplate(Relation.SYNONYM_OF, 1,
                  _PREAMBLE + "'{A}' is an exact synonym of '{B}'. Answer:"),
    ProbeTemplate(Relation.SYNONYM_OF, 2,
                  _PREAMBLE + "'{A}' and '{B}' refer to the same medical concept. Answer:"),
    ProbeTemplate(Relation.SYNONYM_OF, 3,
                  _PREAMBLE + "'{A}' means the same thing as '{B}'. Answer:"),
    ProbeTemplate(Relation.SYNONYM_OF, 4,
                  _PREAMBLE + "the terms '{A}' and '{B}' are interchangeable names "
                              "for one concept. Answer:"),
    ProbeTemplate(Relation.SYNONYM_OF, 5,
                  _PREAMBLE + "'{A}' is another name for '{B}'. Answer:"),
    ProbeTemplate(Relation.SUBCLASS_OF, 1,
                  _PREAMBLE + "'{A}' is a strict subclass of '{B}'. Answer:"),
    ProbeTemplate(Relation.SUBCLASS_OF, 2,
                  _PREAMBLE + "'{A}' is a specific type of '{B}'. Answer:"),
    ProbeTemplate(Relation.SUBCLASS_OF, 3,
                  _PREAMBLE + "every instance of '{A}' is also an instance of '{B}'. Answer:"),
    ProbeTemplate(Relation.SUBCLASS_OF, 4,
                  _PREAMBLE + "'{A}' belongs to the broader category '{B}'. Answer:"),
)

# Single direct phrasing per relation, used by the accuracy audit in the
# report stage. Deliberately distinct wording from every probe paraphrase
# so the audit does not just echo a probe.
JUDGE_TEMPLATES: dict[Relation, str] = {
    Relation.SUBCLASS_OF: _PREAMBLE + "'{A}' is a subclass of '{B}'. Answer:",
    Relation.SYNONYM_OF: _PREAMBLE + "'{A}' is a synonym of '{B}'. Answer:",
}


def templates_for(relation: Relation) -> tuple[ProbeTemplate, ...]:
    return tuple(t for t in PROMPT_SET_V1 if t.relation is relation)


def judge_prompt(triple: Triple) -> str:
    template = JUDGE_TEMPLATES[triple.relation]
    return template.replace("{A}", triple.subject.text).replace("{B}", triple.object.text)


def perplexity(token_logprobs: tuple[float, ...] | list[float]) -> float:
    """exp of the negative mean token log-probability (natural base)."""
    if not token_logprobs:
        raise ValueError("perplexity of an empty token span is undefined")
    return math.exp(-sum(token_logprobs) / len(token_logprobs))


def confirm_value(ppl_true: float, ppl_false: float) -> float:
    diff = ppl_false - ppl_true
    sign = 0.0 if diff == 0.0 else math.copysign(1.0, diff)
    return sign / min(ppl_true, ppl_false)


@dataclass(frozen=True)
class ScoreBreakdown:
    paraphrase_id: int
    ppl_true: float
    ppl_false: float
    confirm_value: float


@dataclass(frozen=True)
class ScoredTriple:
    triple: Triple
    breakdowns: tuple[ScoreBreakdown, ...]  # ordered by paraphrase_id

    @property
    def values(self) -> list[float]:
        return [b.confirm_value for b in self.breakdowns]


def probe_requests(triple: Triple) -> list[ScoreRequest]:
    """Both completions of every paraphrase of the triple's relation, True
    first, in paraphrase order."""
    return [ScoreRequest(template.instantiate(triple.subject, triple.object), completion)
            for template in templates_for(triple.relation)
            for completion in (COMPLETION_TRUE, COMPLETION_FALSE)]


# Triples whose probes share one gateway batch: as many as fit at the
# largest paraphrase count, two completions each.
TRIPLES_PER_BATCH = BATCH_SIZE // (2 * max(len(templates_for(r)) for r in Relation))


def _scored(triple: Triple,
            responses: list[ScoreResponse | EmptySpanError]) -> ScoredTriple | EmptySpanError:
    empty = next((r for r in responses if isinstance(r, EmptySpanError)), None)
    if empty is not None:
        return empty
    breakdowns = []
    for template, true, false in zip(templates_for(triple.relation),
                                     responses[::2], responses[1::2]):
        ppl_t = perplexity(true.token_logprobs)
        ppl_f = perplexity(false.token_logprobs)
        breakdowns.append(ScoreBreakdown(
            paraphrase_id=template.paraphrase_id,
            ppl_true=ppl_t,
            ppl_false=ppl_f,
            confirm_value=confirm_value(ppl_t, ppl_f),
        ))
    return ScoredTriple(triple=triple, breakdowns=tuple(breakdowns))


def score_triples(gateway: ModelGateway,
                  triples: Iterable[Triple]) -> Iterator[ScoredTriple | EmptySpanError]:
    """Score each triple as score_triple does, one result per triple in
    order, sending the probes of TRIPLES_PER_BATCH triples as one batch.

    A triple with a completion that scores no tokens comes back as that
    EmptySpanError, so only it is dropped; its neighbours are scored.
    """
    for chunk in chunked(triples, TRIPLES_PER_BATCH):
        probes = [probe_requests(triple) for triple in chunk]
        responses = iter(gateway.score_many([r for requests in probes for r in requests]))
        for triple, requests in zip(chunk, probes):
            yield _scored(triple, [next(responses) for _ in requests])


def score_triple(gateway: ModelGateway, triple: Triple) -> ScoredTriple:
    """Score every paraphrase of the triple's relation against both answers.

    A triple is scored in full or not at all: any failure leaves no partial
    breakdown behind, so downstream consumers never see a half-scored triple.
    """
    result = next(score_triples(gateway, [triple]))
    if isinstance(result, EmptySpanError):
        raise result
    return result


def _check_lengths(values: list[float], taus: list[float]) -> None:
    if len(values) != len(taus):
        raise MissingThresholdError(
            f"{len(values)} confirm values but {len(taus)} thresholds")


def confirm_decision(values: list[float], taus: list[float]) -> bool:
    """A triple is confirmed only when every paraphrase clears its threshold
    strictly; a value equal to the threshold does not confirm."""
    _check_lengths(values, taus)
    return all(v > tau for v, tau in zip(values, taus))


GAP_MODES = ("all_below", "mean_below", "any_below")


def gap_decision(values: list[float], taus: list[float], mode: str = "all_below") -> bool:
    """A triple is a knowledge gap when its confirm values sit below the
    calibrated thresholds. all_below is the strict dual of confirmation;
    the looser modes exist for sweeps over gap sensitivity."""
    _check_lengths(values, taus)
    if mode == "all_below":
        return all(v < tau for v, tau in zip(values, taus))
    if mode == "mean_below":
        return sum(values) / len(values) < sum(taus) / len(taus)
    if mode == "any_below":
        return any(v < tau for v, tau in zip(values, taus))
    raise ValueError(f"unknown gap mode {mode!r}; expected one of {GAP_MODES}")
