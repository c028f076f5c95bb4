"""Statement probes and the perplexity-based confirm value.

Each candidate triple is rendered as several paraphrased true-or-false
statements. For each paraphrase the model scores the completions " True"
and " False"; the confirm value compares the two perplexities:

    confirm_value = sign(ppl_false - ppl_true) / min(ppl_true, ppl_false)

Positive values mean the model finds " True" easier to produce than
" False". Because perplexities are at least 1 for log-probabilities <= 0,
the value always lies in [-1, 1]; a perplexity past the largest float is
inf, and equal perplexities, inf included, give 0.0. A completion that
scores no tokens has none: the gateway only caches it, and score_triples
turns it into the EmptySpanError that leaves its triple unscored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, tee
from typing import Iterable, Iterator

from .errors import EmptySpanError
from .gateway import ModelGateway, ScoreRequest
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
    """exp of the negative mean token log-probability (natural base); inf on overflow."""
    if not token_logprobs:
        raise ValueError("perplexity of an empty token span is undefined")
    try:
        return math.exp(-sum(token_logprobs) / len(token_logprobs))
    except OverflowError:
        return math.inf


def confirm_value(ppl_true: float, ppl_false: float) -> float:
    # Equal perplexities are a tie, inf against inf too: inf - inf is NaN.
    if ppl_true == ppl_false:
        return 0.0
    return math.copysign(1.0, ppl_false - ppl_true) / min(ppl_true, ppl_false)


def probe_requests(triple: Triple) -> list[ScoreRequest]:
    """Both completions of every paraphrase of the triple's relation, True
    first, in paraphrase order."""
    return [ScoreRequest(template.instantiate(triple.subject, triple.object), completion)
            for template in templates_for(triple.relation)
            for completion in (COMPLETION_TRUE, COMPLETION_FALSE)]


def _confirm_values(requests: list[ScoreRequest],
                    responses: list[tuple[float, ...]]) -> list[float] | EmptySpanError:
    """Each paraphrase's confirm value from the token log-probabilities that
    answer probe_requests, or the EmptySpanError naming the first completion
    that scored no tokens."""
    ppls = []
    for request, logprobs in zip(requests, responses):
        if not logprobs:
            return EmptySpanError(
                f"no completion tokens scored for completion {request.completion!r}")
        ppls.append(perplexity(logprobs))
    return [confirm_value(t, f) for t, f in zip(ppls[::2], ppls[1::2])]


def score_triples(gateway: ModelGateway,
                  triples: Iterable[Triple]) -> Iterator[list[float] | EmptySpanError]:
    """Each triple's _confirm_values, in order, its probes streamed through
    gateway.score_many with the others': a triple with an empty span gets
    its EmptySpanError, so only it is dropped and its neighbours are scored."""
    sent, paired = tee(map(probe_requests, triples))
    responses = iter(gateway.score_many(chain.from_iterable(sent)))
    for requests in paired:
        yield _confirm_values(requests, list(islice(responses, len(requests))))


def score_triple(gateway: ModelGateway, triple: Triple) -> list[float]:
    """The triple's confirm values in paraphrase order; an empty span raises
    EmptySpanError, so no caller sees a half-scored triple."""
    result = next(score_triples(gateway, [triple]))
    if isinstance(result, EmptySpanError):
        raise result
    return result


def confirm_decision(values: list[float], taus: list[float]) -> bool:
    """A triple is confirmed only when every paraphrase clears its threshold
    strictly; a value equal to the threshold does not confirm. Lengths
    that differ raise ValueError: the list makes zip read every pair."""
    return all([v > tau for v, tau in zip(values, taus, strict=True)])


GAP_MODES = ("all_below", "mean_below", "any_below")


def gap_decision(values: list[float], taus: list[float], mode: str = "all_below") -> bool:
    """A triple is a knowledge gap when its confirm values sit below the
    calibrated thresholds. all_below is the strict dual of confirmation;
    the looser modes exist for sweeps over gap sensitivity. Lengths that
    differ raise ValueError."""
    pairs = list(zip(values, taus, strict=True))
    if mode == "all_below":
        return all(v < tau for v, tau in pairs)
    if mode == "mean_below":
        return sum(values) / len(values) < sum(taus) / len(taus)
    if mode == "any_below":
        return any(v < tau for v, tau in pairs)
    raise ValueError(f"unknown gap mode {mode!r}; expected one of {GAP_MODES}")
