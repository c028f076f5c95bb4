"""Core domain types: concept labels, triples, trees, and the indexed triple store.

Labels compare and hash by a case-folded key so that mixed-case spellings of
the same concept merge; the original spelling is kept for display and prompt
text. Synonym triples are stored in a single canonical orientation (smaller
key first), which makes deduplication a plain set operation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

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

    def __lt__(self, other: "ConceptLabel") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"ConceptLabel({self.text!r})"


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

    def __post_init__(self) -> None:
        if self.subject.key == self.object.key:
            raise ValueError(f"reflexive triple: {self.subject.text!r}")
        if self.relation is Relation.SYNONYM_OF and self.object.key < self.subject.key:
            s, o = self.subject, self.object
            object.__setattr__(self, "subject", o)
            object.__setattr__(self, "object", s)

    @property
    def sort_key(self) -> tuple[str, str, str]:
        return (self.relation.value, self.subject.key, self.object.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash(self.sort_key)

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
    depth plus one, and no label repeats along its own ancestor path.
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

    def validate(self) -> None:
        if not self.nodes:
            raise ValueError("tree has no nodes")
        roots = [n for n in self.nodes if n.depth == 0]
        if len(roots) != 1 or self.nodes[0].depth != 0:
            raise ValueError("tree must have exactly one depth-0 node at index 0")
        for i, node in enumerate(self.nodes):
            if i == 0:
                if node.parent is not None:
                    raise ValueError("root node must have no parent")
                continue
            if node.parent is None:
                raise ValueError(f"non-root node {node.label.text!r} has no parent")
            if node.depth != self.nodes[node.parent].depth + 1:
                raise ValueError(f"depth of {node.label.text!r} is not parent depth + 1")
            if node.label.key in self.ancestor_keys(i):
                raise ValueError(f"label {node.label.text!r} repeats on its ancestor path")

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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OntologyTree":
        nodes = [
            TreeNode(
                label=normalize_label(n["label"]),
                description=n.get("description", ""),
                synonyms=tuple(normalize_label(s) for s in n.get("synonyms", [])),
                parent=n["parent"],
                depth=n["depth"],
            )
            for n in obj["nodes"]
        ]
        return cls(nodes=nodes)


def tree_to_triples(tree: OntologyTree) -> tuple[set[Triple], int]:
    """Flatten a tree into its edge triples.

    One (child, SubclassOf, parent) triple per parent-child edge and one
    canonical synonym triple per listed synonym of each node. Degenerate
    edges (equal keys) are skipped, not errors; the second return value
    counts the skips.
    """
    triples: set[Triple] = set()
    skipped = 0
    for node in tree.nodes:
        if node.parent is not None:
            parent = tree.nodes[node.parent]
            if node.label.key == parent.label.key:
                skipped += 1
            else:
                triples.add(Triple(node.label, Relation.SUBCLASS_OF, parent.label))
        for syn in node.synonyms:
            if syn.key == node.label.key:
                skipped += 1
            else:
                triples.add(Triple(node.label, Relation.SYNONYM_OF, syn))
    return triples, skipped


class TripleStore:
    """Set of triples with lookup indices kept consistent on insert.

    Writes happen at stage boundaries (single writer); reads are safe to
    share because inserted values are immutable.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._parents_by_subject: dict[str, set[ConceptLabel]] = defaultdict(set)
        self._synonym_partners: dict[str, set[ConceptLabel]] = defaultdict(set)
        for t in triples:
            self.insert(t)

    def insert(self, triple: Triple) -> bool:
        """Insert a triple; returns False when the canonical form was already present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        if triple.relation is Relation.SUBCLASS_OF:
            self._parents_by_subject[triple.subject.key].add(triple.object)
        else:
            self._synonym_partners[triple.subject.key].add(triple.object)
            self._synonym_partners[triple.object.key].add(triple.subject)
        return True

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=lambda t: t.sort_key))

    def parents_of(self, label: ConceptLabel) -> set[ConceptLabel]:
        return set(self._parents_by_subject.get(label.key, ()))

    def synonym_partners_of(self, label: ConceptLabel) -> set[ConceptLabel]:
        return set(self._synonym_partners.get(label.key, ()))

    def subclass_triples(self) -> set[Triple]:
        return {t for t in self._triples if t.relation is Relation.SUBCLASS_OF}

    def synonym_triples(self) -> set[Triple]:
        return {t for t in self._triples if t.relation is Relation.SYNONYM_OF}


@dataclass
class TripleRecord:
    """One line of the triple file format: a triple, its lifecycle class,
    per-paraphrase confirm values (or None before scoring), and, for
    extrapolated conclusions, the premise chains that derived it."""

    triple: Triple
    triple_class: TripleClass
    scores: list[float] | None = None
    chains: list[list[tuple[str, str]]] | None = None

    def mean_score(self) -> float | None:
        if not self.scores:
            return None
        return sum(self.scores) / len(self.scores)


def _record_to_obj(record: TripleRecord) -> dict:
    obj = {
        "s": record.triple.subject.text,
        "r": record.triple.relation.value,
        "o": record.triple.object.text,
        "class": record.triple_class.value,
        "scores": record.scores,
    }
    if record.chains is not None:
        obj["chains"] = [[[s, o] for s, o in chain] for chain in record.chains]
    return obj


def _record_from_obj(obj: dict) -> TripleRecord:
    triple = Triple(
        normalize_label(obj["s"]),
        Relation(obj["r"]),
        normalize_label(obj["o"]),
    )
    chains = None
    if obj.get("chains") is not None:
        chains = [[(s, o) for s, o in chain] for chain in obj["chains"]]
    return TripleRecord(
        triple=triple,
        triple_class=TripleClass(obj["class"]),
        scores=obj["scores"],
        chains=chains,
    )


def write_atomic(path: Path, text: str) -> None:
    """Write text to path by way of a temporary file beside it, so no reader
    ever sees the file half written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def write_jsonl(path: Path, objs: Iterable[dict]) -> None:
    """One compact JSON object per line, keys sorted, written atomically."""
    write_atomic(path, "".join(
        json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
        for obj in objs))


def read_jsonl(path: Path) -> list[dict]:
    """The JSON objects of a JSONL file; blank lines are skipped."""
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_triple_file(path: Path, records: Iterable[TripleRecord]) -> None:
    """Write records as JSONL, sorted by (relation, subject, object) so the
    output is byte-deterministic."""
    write_jsonl(path, [_record_to_obj(r) for r in sorted(records, key=lambda r: r.triple.sort_key)])


def read_triple_file(path: Path) -> list[TripleRecord]:
    return [_record_from_obj(obj) for obj in read_jsonl(path)]
