from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from evontree.ontology import Relation, Triple, normalize_label as lbl
from evontree.rules import (
    CLASS_CONFIRMED,
    CLASS_GAP,
    CLASS_UNDECIDED,
    classify_extrapolated,
    extrapolate,
    select_reliable,
    synonym_classes,
)

SUB, SYN = Relation.SUBCLASS_OF, Relation.SYNONYM_OF


def sub(a, b):
    return Triple(lbl(a), SUB, lbl(b))


def syn(a, b):
    return Triple(lbl(a), SYN, lbl(b))


def of(triples: set[Triple], relation: Relation) -> set[Triple]:
    return {t for t in triples if t.relation is relation}


def reliable_oracle(triples: set[Triple]) -> set[Triple]:
    """Brute force: try every (subclass triple, synonym triple) combination."""
    subs = of(triples, SUB)
    syns = of(triples, SYN)
    out = set()
    for t in subs:
        for s in syns:
            if s.subject == t.subject:
                partner = s.object
            elif s.object == t.subject:
                partner = s.subject
            else:
                continue
            if partner == t.object:
                continue
            if Triple(partner, SUB, t.object) in subs:
                out.add(t)
    return out


class TestSelectReliable:
    def test_triangle_marks_both_edges(self):
        triples = {sub("X", "P"), sub("X alt", "P"), syn("X", "X alt")}
        assert select_reliable(triples) == {sub("X", "P"), sub("X alt", "P")}

    def test_missing_synonym_edge(self):
        triples = {sub("X", "P"), sub("X alt", "P")}
        assert select_reliable(triples) == set()

    def test_missing_partner_subclass(self):
        triples = {sub("X", "P"), syn("X", "X alt")}
        assert select_reliable(triples) == set()

    def test_object_side_synonym_does_not_trigger(self):
        # The rule is about agreeing subjects; a synonym between parents
        # says nothing about the child edge.
        triples = {sub("X", "P"), sub("X", "P alt"), syn("P", "P alt")}
        assert select_reliable(triples) == set()

    def test_partner_under_different_parent_does_not_trigger(self):
        triples = {sub("X", "P"), sub("X alt", "Q"), syn("X", "X alt")}
        assert select_reliable(triples) == set()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        labels = ["a", "b", "c", "d", "e", "f"]
        pairs = [(x, y) for x, y in itertools.permutations(labels, 2)]
        subs = data.draw(st.lists(st.sampled_from(pairs), max_size=15))
        syns = data.draw(st.lists(st.sampled_from(pairs), max_size=8))
        triples = {sub(a, b) for a, b in subs} | {syn(a, b) for a, b in syns}
        assert select_reliable(triples) == reliable_oracle(triples)


class TestExtrapolate:
    def test_one_hop_composition_with_chain(self):
        reliable = {sub("D", "C"), sub("C", "A")}
        out = extrapolate(reliable, reliable)
        assert len(out) == 1
        cand = out[0]
        assert cand.triple == sub("D", "A")
        assert cand.chains == ((sub("D", "C"), sub("C", "A")),)

    def test_candidate_already_raw_is_dropped(self):
        reliable = {sub("D", "C"), sub("C", "A")}
        existing = reliable | {sub("D", "A")}
        assert extrapolate(reliable, existing) == []

    def test_synonym_lifted_dedup(self):
        # (D, A) is new on the surface but D alt already sits under A and
        # D ~ D alt is confirmed, so the candidate is old knowledge.
        reliable = {sub("D", "C"), sub("C", "A")}
        existing = reliable | {sub("D alt", "A"), syn("D", "D alt")}
        assert extrapolate(reliable, existing) == []

    def test_rep_reflexive_candidate_dropped(self):
        reliable = {sub("A", "B"), sub("B", "A alt")}
        existing = reliable | {syn("A", "A alt")}
        assert extrapolate(reliable, existing) == []

    def test_multiple_chains_merge_into_one_candidate(self):
        reliable = {sub("D", "C1"), sub("C1", "A"), sub("D", "C2"), sub("C2", "A")}
        out = extrapolate(reliable, reliable)
        assert len(out) == 1
        assert out[0].triple == sub("D", "A")
        assert set(out[0].chains) == {(sub("D", "C1"), sub("C1", "A")),
                                      (sub("D", "C2"), sub("C2", "A"))}

    def test_output_sorted_and_deterministic(self):
        reliable = {sub("D", "C"), sub("C", "A"), sub("E", "C")}
        out1 = extrapolate(reliable, reliable)
        out2 = extrapolate(set(reversed(sorted(reliable, key=lambda t: t.sort_key))),
                           reliable)
        assert out1 == out2
        assert [c.triple for c in out1] == sorted((c.triple for c in out1),
                                                  key=lambda t: t.sort_key)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_oracle(self, data):
        labels = ["a", "b", "c", "d", "e"]
        pairs = [(x, y) for x, y in itertools.permutations(labels, 2)]
        rel_pairs = data.draw(st.lists(st.sampled_from(pairs), max_size=12))
        raw_extra = data.draw(st.lists(st.sampled_from(pairs), max_size=6))
        reliable = {sub(a, b) for a, b in rel_pairs}
        existing = reliable | {sub(a, b) for a, b in raw_extra}
        out = extrapolate(reliable, existing)
        # Oracle: all compositions, filtered by plain membership (no synonyms
        # in this draw, so lifting reduces to identity).
        expected = {}
        for t1 in reliable:
            for t2 in reliable:
                if t1.object != t2.subject or t1.subject == t2.object:
                    continue
                cand = Triple(t1.subject, SUB, t2.object)
                if cand in existing:
                    continue
                expected.setdefault(cand, set()).add((t1, t2))
        assert {c.triple: set(c.chains) for c in out} == expected

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_candidates_never_collide_with_existing(self, data):
        labels = ["a", "b", "c", "d"]
        pairs = [(x, y) for x, y in itertools.permutations(labels, 2)]
        rel_pairs = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        syn_pairs = data.draw(st.lists(st.sampled_from(pairs), max_size=3))
        reliable = {sub(a, b) for a, b in rel_pairs}
        triples = reliable | {syn(a, b) for a, b in syn_pairs}
        uf = synonym_classes(of(triples, SYN))
        existing = {(uf.find(t.subject.key), uf.find(t.object.key))
                    for t in of(triples, SUB)}
        for cand in extrapolate(reliable, triples):
            pair = (uf.find(cand.triple.subject.key), uf.find(cand.triple.object.key))
            assert pair not in existing
            assert pair[0] != pair[1]


class TestSynonymClasses:
    def test_transitive_union(self):
        uf = synonym_classes([syn("a", "b"), syn("b", "c")])
        assert uf.find("a") == uf.find("c")
        assert uf.find("a") != uf.find("d")

    def test_rejects_subclass_triples(self):
        with pytest.raises(ValueError):
            synonym_classes([sub("a", "b")])


class TestClassifyExtrapolated:
    def test_three_way_split(self):
        taus = [0.0, 0.0, 0.0, 0.0]
        assert classify_extrapolated([0.5, 0.4, 0.3, 0.2], taus) == CLASS_CONFIRMED
        assert classify_extrapolated([-0.5, -0.4, -0.3, -0.2], taus) == CLASS_GAP
        assert classify_extrapolated([0.5, -0.4, 0.3, -0.2], taus) == CLASS_UNDECIDED

    def test_boundary_values_are_undecided(self):
        taus = [0.1]
        assert classify_extrapolated([0.1], taus) == CLASS_UNDECIDED

    def test_gap_mode_forwarded(self):
        taus = [0.0, 0.0]
        assert classify_extrapolated([0.5, -0.1], taus, "any_below") == CLASS_GAP
        assert classify_extrapolated([0.5, -0.1], taus, "all_below") == CLASS_UNDECIDED
