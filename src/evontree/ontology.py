"""Core domain types: concept labels, triples, elicited trees, and the triple file format.

Labels compare and hash by a case-folded key so that mixed-case spellings of
the same concept merge; the original spelling is kept for display and prompt
text. Synonym triples are stored in a single canonical orientation (smaller
key first), which makes deduplication a plain set operation.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import EmptyLabelError


class Relation(Enum):
    SUBCLASS_OF = "SubclassOf"
    SYNONYM_OF = "SynonymOf"


@dataclass(frozen=True, eq=False)
class ConceptLabel:
    """A normalized concept name. Equality and hashing use the case-folded key."""

    text: str
    key: str

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptLabel):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def normalize_label(raw: str) -> ConceptLabel:
    """Trim, collapse internal whitespace runs, and attach the case-folded key.

    Raises EmptyLabelError when nothing is left after normalization.
    Normalization is idempotent: normalize(normalize(x).text) == normalize(x).
    """
    text = " ".join(raw.split())
    if not text:
        raise EmptyLabelError(f"label {raw!r} is empty after normalization")
    return ConceptLabel(text=text, key=text.casefold())


@dataclass(frozen=True, eq=False)
class Triple:
    """(subject, relation, object) over normalized labels.

    SynonymOf triples are canonicalized on construction so that
    Triple(a, SynonymOf, b) == Triple(b, SynonymOf, a). Reflexive triples
    (equal subject/object keys) are rejected.
    """

    subject: ConceptLabel
    relation: Relation
    object: ConceptLabel
    # (relation value, subject key, object key), set on construction.
    sort_key: tuple[str, str, str] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.subject.key == self.object.key:
            raise ValueError(f"reflexive triple: {self.subject.text!r}")
        if self.relation is Relation.SYNONYM_OF and self.object.key < self.subject.key:
            s, o = self.subject, self.object
            object.__setattr__(self, "subject", o)
            object.__setattr__(self, "object", s)
        # Worked out once: triples are compared, hashed and sorted far more
        # often than they are made.
        sort_key = (self.relation.value, self.subject.key, self.object.key)
        object.__setattr__(self, "sort_key", sort_key)
        object.__setattr__(self, "_hash", hash(sort_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Triple({self.subject.text!r} {self.relation.value} {self.object.text!r})"


class TripleClass(Enum):
    RAW = "Raw"
    CONFIRMED = "Confirmed"
    RELIABLE = "Reliable"
    EXTRAPOLATED = "Extrapolated"
    GAP = "Gap"


@dataclass
class TreeNode:
    label: ConceptLabel
    description: str
    synonyms: tuple[ConceptLabel, ...]
    parent: int | None  # index into OntologyTree.nodes; None only for the root
    depth: int


@dataclass
class OntologyTree:
    """Root concept with layered subclass/synonym children.

    nodes[0] is the root (depth 0). Every other node's depth is its parent's
    depth plus one, and no label repeats along its own ancestor path:
    extraction.extract_forest builds every tree that way.
    """

    nodes: list[TreeNode] = field(default_factory=list)

    @property
    def root(self) -> ConceptLabel:
        return self.nodes[0].label

    def ancestor_keys(self, index: int) -> set[str]:
        keys = set()
        node = self.nodes[index]
        while node.parent is not None:
            node = self.nodes[node.parent]
            keys.add(node.label.key)
        return keys

    def to_json_obj(self) -> dict:
        return {
            "nodes": [
                {
                    "label": n.label.text,
                    "description": n.description,
                    "synonyms": [s.text for s in n.synonyms],
                    "parent": n.parent,
                    "depth": n.depth,
                }
                for n in self.nodes
            ]
        }


def tree_to_triples(tree: OntologyTree) -> set[Triple]:
    """Flatten a tree into its edge triples.

    One (child, SubclassOf, parent) triple per parent-child edge and one
    canonical synonym triple per listed synonym of each node. Extraction
    never keys a child as its parent or a synonym as its node; should such
    an edge occur, Triple raises ValueError.
    """
    triples: set[Triple] = set()
    for node in tree.nodes:
        if node.parent is not None:
            triples.add(Triple(node.label, Relation.SUBCLASS_OF, tree.nodes[node.parent].label))
        for syn in node.synonyms:
            triples.add(Triple(node.label, Relation.SYNONYM_OF, syn))
    return triples


@dataclass
class TripleRecord:
    """One line of the triple file format: a triple, its per-paraphrase
    confirm values in the two scored files (None elsewhere), and, for
    extrapolated conclusions, the premise chains that derived it. The
    file a record is in names its class; the line does not."""

    triple: Triple
    scores: list[float] | None = None
    chains: list[list[tuple[str, str]]] | None = None

    def mean_score(self) -> float | None:
        if not self.scores:
            return None
        return sum(self.scores) / len(self.scores)

    @property
    def sort_key(self) -> tuple[str, str, str]:
        return self.triple.sort_key

    def to_json_obj(self) -> dict:
        obj = {
            "s": self.triple.subject.text,
            "r": self.triple.relation.value,
            "o": self.triple.object.text,
        }
        if self.scores is not None:
            obj["scores"] = self.scores
        if self.chains is not None:
            obj["chains"] = [[[s, o] for s, o in chain] for chain in self.chains]
        return obj


def is_finite_number(value) -> bool:
    """Whether a value JSON gave is a number a float holds finitely: an int
    or a float, not a bool, and neither NaN, an infinity nor beyond float
    range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_list(value, item: Callable[[object], bool]) -> bool:
    return isinstance(value, list) and all(map(item, value))


def _is_label_pair(pair) -> bool:
    return _is_list(pair, lambda label: isinstance(label, str)) and len(pair) == 2


def _record_from_obj(obj: dict, score_counts: Mapping[Relation, int] | None) -> TripleRecord:
    """The record a line's object holds. A "class" key, which files written
    before the class left the line carry, is ignored. Scores that are not a
    list of finite numbers (is_finite_number), or, given score_counts, not as
    many as it gives for the triple's relation (a line with no scores has
    none), or chains that are not lists of [str, str] pairs, raise
    ValueError."""
    triple = Triple(normalize_label(obj["s"]), Relation(obj["r"]), normalize_label(obj["o"]))
    scores, chains = obj.get("scores"), obj.get("chains")
    if scores is not None and not _is_list(scores, is_finite_number):
        raise ValueError(f"scores must be a list of numbers, not {scores!r}")
    if score_counts and len(scores or ()) != score_counts[triple.relation]:
        raise ValueError(f"a {triple.relation.value} triple needs "
                         f"{score_counts[triple.relation]} scores, not {len(scores or ())}")
    if chains is not None:
        if not _is_list(chains, lambda chain: _is_list(chain, _is_label_pair)):
            raise ValueError(f"chains must be lists of [str, str] pairs, not {chains!r}")
        chains = [[(s, o) for s, o in chain] for chain in chains]
    return TripleRecord(triple=triple, scores=scores, chains=chains)


def write_atomic(path: Path, text: str) -> None:
    """Write text to path by way of a temporary file beside it, so no reader
    ever sees the file half written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def write_triple_file(path: Path, records: Iterable) -> list:
    """Write records, triple records or corpus entries, as JSONL: one
    compact JSON object (to_json_obj, keys sorted) per line, sorted by
    sort_key so the output is byte-deterministic; return them in that order."""
    records = sorted(records, key=attrgetter("sort_key"))
    write_atomic(path, "".join(
        json.dumps(r.to_json_obj(), sort_keys=True, ensure_ascii=False,
                   separators=(",", ":")) + "\n"
        for r in records))
    return records


def decode_utf8(data: bytes) -> str:
    """data as UTF-8 text. Bytes that are not raise ValueError naming the
    line of the first, as reading the file in text mode splits lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the byte, and one character for the byte's line.
        before = io.StringIO(data[:exc.start].decode("utf-8") + "|", newline=None)
        raise ValueError(f"line {len(before.readlines())}: {exc}") from None


def parse_triple_file(data: bytes,
                      score_counts: Mapping[Relation, int] | None = None) -> list[TripleRecord]:
    """The records in the bytes of a triple file, split into lines as
    reading the file in text mode splits them; blank lines are skipped. A
    line that holds no record, or, given score_counts, not as many scores as
    it gives for the line's relation, raises ValueError naming its number."""
    records = []
    for number, line in enumerate(io.StringIO(decode_utf8(data), newline=None), 1):
        if line.strip():
            try:
                records.append(_record_from_obj(json.loads(line), score_counts))
            except (ValueError, KeyError, TypeError, AttributeError, EmptyLabelError) as exc:
                raise ValueError(f"line {number}: {exc!r}") from exc
    return records


def read_triple_file(path: Path) -> list[TripleRecord]:
    return parse_triple_file(path.read_bytes())
