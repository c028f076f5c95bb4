"""Corpus synthesis for knowledge gaps.

Each gap arrives as a subclass triple (D under A) plus the premise chain
that derived it (D under C, C under A). Two strategies turn it into
training text. The explicit strategy writes a question-answer pair that
states the chain outright. The implicit strategy asks the tuned-model-to-be
for open prose about the three concepts and distills the answers from the
current model, with the chain appended as a hint the model may ignore; the
relationship then reaches the corpus embedded in natural text instead of as
a bare fact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

from .errors import UnparseableError, check_fields
from .gateway import GenerateRequest, ModelGateway
from .ontology import TripleRecord

log = logging.getLogger(__name__)

TEMPLATE_SET_VERSION = "v1"

FUNCTION_TEMPLATE = "Outline the primary functions of {concept}."
SUBTYPE_TEMPLATE = ("Identify and describe any subtypes of {concept}. "
                    "Explain how these subtypes vary in structure and function.")
HINT_TEMPLATE = (" You can consider these relationships as follows, but please "
                 "ignore them if they are unnecessary: {D} is a subclass of {C}, "
                 "and {C} is a subclass of {A}.")
EXPLICIT_INSTRUCTION = "Is {D} a subclass of {A}? Answer and explain using intermediate concepts."
EXPLICIT_OUTPUT = ("Yes. {D} is a subclass of {C}, and {C} is a subclass of {A}. "
                   "Therefore, {D} is a subclass of {A}.")

STRATEGIES = ("explicit", "implicit", "mix")


def _fill(template: str, d: str, c: str, a: str) -> str:
    return template.replace("{D}", d).replace("{C}", c).replace("{A}", a)


def implicit_instructions(d: str, c: str, a: str) -> list[tuple[int, str]]:
    """The five instruction slots for one chain: functions of the broad,
    middle, and gap concept, then subtypes of the two enclosing concepts."""
    return [
        (1, FUNCTION_TEMPLATE.replace("{concept}", a)),
        (2, FUNCTION_TEMPLATE.replace("{concept}", c)),
        (3, FUNCTION_TEMPLATE.replace("{concept}", d)),
        (4, SUBTYPE_TEMPLATE.replace("{concept}", a)),
        (5, SUBTYPE_TEMPLATE.replace("{concept}", c)),
    ]


def explicit_pair(d: str, c: str, a: str) -> tuple[str, str]:
    return _fill(EXPLICIT_INSTRUCTION, d, c, a), _fill(EXPLICIT_OUTPUT, d, c, a)


@dataclass(frozen=True)
class SynthesisConfig:
    strategy: str = field(default="mix", metadata={"choices": STRATEGIES})
    max_tokens: int = field(default=512, metadata={"ge": 1})
    temperature: float = field(default=0.7, metadata={"ge": 0.0})
    strip_hint: bool = False

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class CorpusEntry:
    instruction: str
    output: str
    strategy: str  # "explicit" or "implicit"; "mix" only names the run mode
    gap_subject: str
    gap_object: str
    chain: list[tuple[str, str]]
    template_id: int
    hint_included: bool

    @property
    def sort_key(self) -> tuple:
        return (self.strategy, self.gap_subject.casefold(), self.gap_object.casefold(),
                self.template_id, tuple(self.chain))

    def to_json_obj(self) -> dict:
        return {
            "instruction": self.instruction,
            "output": self.output,
            "strategy": self.strategy,
            "gap": {"s": self.gap_subject, "o": self.gap_object},
            "chain": [[s, o] for s, o in self.chain],
            "template_id": self.template_id,
            "hint_included": self.hint_included,
        }


@dataclass
class SynthesisTallies:
    distill_drops: int = 0
    malformed_chains: int = 0

    def to_json_obj(self) -> dict:
        return dict(vars(self))


def _nonblank(text: str) -> str:
    """A distilled answer, stripped; a blank one is refused, to be asked again."""
    if not text.strip():
        raise UnparseableError("blank answer")
    return text.strip()


def _unpack_chain(record: TripleRecord, chain: list[tuple[str, str]]) -> tuple[str, str, str] | None:
    """Unpack one chain as (D, C, A); None when the premises do not line up
    with the gap triple."""
    if len(chain) != 2:
        return None
    (d, c1), (c2, a) = chain
    if c1.casefold() != c2.casefold():
        return None
    if d.casefold() != record.triple.subject.key or a.casefold() != record.triple.object.key:
        return None
    return d, c1, a


def build_corpus(gateway: ModelGateway, gaps: Sequence[TripleRecord],
                 config: SynthesisConfig) -> tuple[list[CorpusEntry], SynthesisTallies]:
    """Every chain of every gap contributes its own examples: distinct
    derivations state the relationship through different intermediates.
    Every implicit instruction is distilled in one generate_read stream; an
    entry whose answer stays blank is dropped rather than shipped blank."""
    tallies = SynthesisTallies()
    entries: list[CorpusEntry] = []
    implicit: list[tuple[CorpusEntry, str]] = []  # each awaiting the answer to its prompt
    for record in sorted(gaps, key=lambda r: r.triple.sort_key):
        gap_s, gap_o = record.triple.subject.text, record.triple.object.text
        for raw_chain in record.chains or []:
            unpacked = _unpack_chain(record, raw_chain)
            if unpacked is None:
                tallies.malformed_chains += 1
                log.warning("gap %r has an unusable chain; skipped", record.triple)
                continue
            d, c, a = unpacked
            chain = [(d, c), (c, a)]
            if config.strategy in ("explicit", "mix"):
                instruction, output = explicit_pair(d, c, a)
                entries.append(CorpusEntry(
                    instruction=instruction, output=output, strategy="explicit",
                    gap_subject=gap_s, gap_object=gap_o, chain=chain,
                    template_id=0, hint_included=False))
            if config.strategy in ("implicit", "mix"):
                hint = _fill(HINT_TEMPLATE, d, c, a)
                for template_id, instruction in implicit_instructions(d, c, a):
                    implicit.append((CorpusEntry(
                        instruction=instruction if config.strip_hint else instruction + hint,
                        output="", strategy="implicit",
                        gap_subject=gap_s, gap_object=gap_o, chain=chain,
                        template_id=template_id, hint_included=not config.strip_hint),
                        instruction + hint))
        if not record.chains:
            tallies.malformed_chains += 1
            log.warning("gap %r has no chains; skipped", record.triple)
    answers = gateway.generate_read(
        (GenerateRequest(prompt=prompt, max_tokens=config.max_tokens,
                         temperature=config.temperature), _nonblank)
        for _, prompt in implicit)
    for (entry, _), answer in zip(implicit, answers):
        if isinstance(answer, UnparseableError):
            tallies.distill_drops += 1
        else:
            entry.output = answer
            entries.append(entry)
    entries.sort(key=lambda e: e.sort_key)
    return entries, tallies
