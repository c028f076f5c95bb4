"""Rule engine over confirmed triples.

Two structural rules mine the confirmed set. The triangle rule marks a
confirmed subclass triple reliable when a confirmed synonym of its subject
is independently confirmed under the same parent: agreement across surface
forms is treated as evidence the relation is real, not a prompt artifact.
The extrapolation rule composes reliable subclass triples one hop
transitively to propose candidates the elicitation stage never produced;
candidates already present in earlier stages (up to known synonymy) are
dropped. Scored candidates then split three ways: confirmed extensions,
knowledge gaps, and an undecided middle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable

from .ontology import ConceptLabel, Relation, Triple
from .scoring import confirm_decision, gap_decision


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(x, x) != x:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic rep choice: smaller key wins.
            lo, hi = sorted((ra, rb))
            self._parent[hi] = lo


def synonym_classes(synonyms: Iterable[Triple]) -> _UnionFind:
    uf = _UnionFind()
    for t in synonyms:
        if t.relation is not Relation.SYNONYM_OF:
            raise ValueError(f"expected synonym triple, got {t!r}")
        uf.union(t.subject.key, t.object.key)
    return uf


def select_reliable(confirmed: Collection[Triple]) -> set[Triple]:
    """Confirmed subclass triples whose subject has a confirmed synonym that
    is itself confirmed under the same object."""
    partners: dict[str, list[ConceptLabel]] = {}
    for t in confirmed:
        if t.relation is Relation.SYNONYM_OF:
            partners.setdefault(t.subject.key, []).append(t.object)
            partners.setdefault(t.object.key, []).append(t.subject)
    return {t for t in confirmed if t.relation is Relation.SUBCLASS_OF and any(
        Triple(partner, Relation.SUBCLASS_OF, t.object) in confirmed
        for partner in partners.get(t.subject.key, ()) if partner.key != t.object.key)}


@dataclass(frozen=True)
class ExtrapolatedCandidate:
    """A proposed subclass triple with the premise pairs that derived it.
    Each chain is (lower premise, upper premise): subject-to-mid, mid-to-object."""

    triple: Triple
    chains: tuple[tuple[Triple, Triple], ...]


def extrapolate(reliable: Iterable[Triple],
                existing: Collection[Triple]) -> list[ExtrapolatedCandidate]:
    """Compose reliable subclass triples one hop: (A, B) + (B, C) -> (A, C).

    `existing` holds everything already known (raw, confirmed, and reliable
    together). A candidate is kept only if it is new: not equal, up to the
    synonym classes present in `existing`, to any known subclass triple, and
    not reflexive at the class level.
    """
    reliable_set = {t for t in reliable if t.relation is Relation.SUBCLASS_OF}
    uf = synonym_classes(t for t in existing if t.relation is Relation.SYNONYM_OF)
    existing_pairs = {(uf.find(t.subject.key), uf.find(t.object.key))
                      for t in chain(existing, reliable_set)
                      if t.relation is Relation.SUBCLASS_OF}
    by_subject: dict[str, list[Triple]] = {}
    for t in reliable_set:
        by_subject.setdefault(t.subject.key, []).append(t)
    chains_by_candidate: dict[Triple, set[tuple[Triple, Triple]]] = {}
    for lower in reliable_set:
        for upper in by_subject.get(lower.object.key, ()):
            if uf.find(lower.subject.key) == uf.find(upper.object.key):
                continue
            if (uf.find(lower.subject.key), uf.find(upper.object.key)) in existing_pairs:
                continue
            candidate = Triple(lower.subject, Relation.SUBCLASS_OF, upper.object)
            chains_by_candidate.setdefault(candidate, set()).add((lower, upper))
    return [
        ExtrapolatedCandidate(
            triple=candidate,
            chains=tuple(sorted(chains, key=lambda c: (c[0].sort_key, c[1].sort_key))),
        )
        for candidate, chains in sorted(chains_by_candidate.items(),
                                        key=lambda kv: kv[0].sort_key)
    ]


CLASS_CONFIRMED = "confirmed"
CLASS_GAP = "gap"
CLASS_UNDECIDED = "undecided"


def classify_extrapolated(values: list[float], taus: list[float],
                          gap_mode: str = "all_below") -> str:
    """Route a scored candidate: above threshold everywhere it extends the
    ontology, below per the gap mode it is a knowledge gap, otherwise left
    undecided and dropped from both sets."""
    if confirm_decision(values, taus):
        return CLASS_CONFIRMED
    if gap_decision(values, taus, gap_mode):
        return CLASS_GAP
    return CLASS_UNDECIDED
