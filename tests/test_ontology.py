from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from evontree.errors import EmptyLabelError
from evontree.ontology import (
    ConceptLabel,
    OntologyTree,
    Relation,
    Triple,
    TripleClass,
    TripleRecord,
    TripleStore,
    TreeNode,
    normalize_label,
    read_triple_file,
    tree_to_triples,
    write_triple_file,
)


def lbl(text: str) -> ConceptLabel:
    return normalize_label(text)


class TestNormalizeLabel:
    def test_trims_and_collapses_whitespace(self):
        label = normalize_label("  Muscle  Cell ")
        assert label.text == "Muscle Cell"
        assert label.key == "muscle cell"

    def test_empty_raises(self):
        with pytest.raises(EmptyLabelError):
            normalize_label("")

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyLabelError):
            normalize_label(" \t\n ")

    def test_equality_ignores_case(self):
        assert lbl("Muscle Cell") == lbl("muscle CELL")
        assert hash(lbl("Muscle Cell")) == hash(lbl("muscle CELL"))

    @given(st.text())
    def test_idempotent(self, raw):
        try:
            once = normalize_label(raw)
        except EmptyLabelError:
            return
        twice = normalize_label(once.text)
        assert twice.text == once.text
        assert twice.key == once.key


class TestTriple:
    def test_synonym_orientation_is_canonical(self):
        a, b = lbl("Heart Attack"), lbl("Myocardial Infarction")
        t1 = Triple(a, Relation.SYNONYM_OF, b)
        t2 = Triple(b, Relation.SYNONYM_OF, a)
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1.subject.key <= t1.object.key

    def test_subclass_orientation_preserved(self):
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        assert t.subject.text == "Virus"
        assert t.object.text == "Microbe"
        assert t != Triple(lbl("Microbe"), Relation.SUBCLASS_OF, lbl("Virus"))

    def test_reflexive_rejected(self):
        with pytest.raises(ValueError):
            Triple(lbl("Cell"), Relation.SUBCLASS_OF, lbl("cell"))
        with pytest.raises(ValueError):
            Triple(lbl("Cell"), Relation.SYNONYM_OF, lbl("CELL"))

    @given(st.sampled_from(["alpha", "Beta", "gamma delta"]),
           st.sampled_from(["alpha", "Beta", "gamma delta"]))
    def test_synonym_symmetry_property(self, x, y):
        a, b = lbl(x), lbl(y)
        if a.key == b.key:
            return
        assert Triple(a, Relation.SYNONYM_OF, b) == Triple(b, Relation.SYNONYM_OF, a)


def build_chain_tree() -> OntologyTree:
    # Cell -> Muscle Cell -> Skeletal Muscle Fiber, with one synonym at the leaf.
    return OntologyTree(nodes=[
        TreeNode(lbl("Cell"), "basic unit", (), None, 0),
        TreeNode(lbl("Muscle Cell"), "contractile", (), 0, 1),
        TreeNode(lbl("Skeletal Muscle Fiber"), "striated", (lbl("Skeletal Myocyte"),), 1, 2),
    ])


class TestOntologyTree:
    def test_validate_accepts_chain(self):
        build_chain_tree().validate()

    def test_validate_rejects_bad_depth(self):
        tree = build_chain_tree()
        tree.nodes[2].depth = 3
        with pytest.raises(ValueError):
            tree.validate()

    def test_validate_rejects_ancestor_repeat(self):
        tree = build_chain_tree()
        tree.nodes.append(TreeNode(lbl("cell"), "", (), 2, 3))
        with pytest.raises(ValueError):
            tree.validate()

    def test_validate_rejects_orphan(self):
        tree = build_chain_tree()
        tree.nodes.append(TreeNode(lbl("Stray"), "", (), None, 1))
        with pytest.raises(ValueError):
            tree.validate()

    def test_json_round_trip(self):
        tree = build_chain_tree()
        again = OntologyTree.from_json_obj(tree.to_json_obj())
        assert again.to_json_obj() == tree.to_json_obj()
        again.validate()


class TestTreeToTriples:
    def test_chain_yields_edge_per_parent_link(self):
        tree = build_chain_tree()
        triples, skipped = tree_to_triples(tree)
        assert skipped == 0
        # Oracle: walk the node list by hand and collect expected edges.
        expected = set()
        for node in tree.nodes:
            if node.parent is not None:
                expected.add(Triple(node.label, Relation.SUBCLASS_OF, tree.nodes[node.parent].label))
            for syn in node.synonyms:
                expected.add(Triple(node.label, Relation.SYNONYM_OF, syn))
        assert triples == expected
        assert sum(1 for t in triples if t.relation is Relation.SUBCLASS_OF) == 2
        assert sum(1 for t in triples if t.relation is Relation.SYNONYM_OF) == 1

    def test_degenerate_synonym_skipped_and_counted(self):
        tree = OntologyTree(nodes=[
            TreeNode(lbl("Cell"), "", (lbl("CELL"),), None, 0),
        ])
        triples, skipped = tree_to_triples(tree)
        assert triples == set()
        assert skipped == 1


triple_strategy = st.builds(
    lambda s, r, o: (s, r, o),
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.sampled_from([Relation.SUBCLASS_OF, Relation.SYNONYM_OF]),
    st.sampled_from(["a", "b", "c", "d", "e"]),
).filter(lambda sro: sro[0] != sro[2]).map(
    lambda sro: Triple(lbl(sro[0]), sro[1], lbl(sro[2]))
)


class TestTripleStore:
    def test_insert_dedups_canonical_synonyms(self):
        store = TripleStore()
        a, b = lbl("flu"), lbl("influenza")
        assert store.insert(Triple(a, Relation.SYNONYM_OF, b)) is True
        assert store.insert(Triple(b, Relation.SYNONYM_OF, a)) is False
        assert len(store) == 1

    def test_indices(self):
        store = TripleStore(tree_to_triples(build_chain_tree())[0])
        assert store.parents_of(lbl("muscle cell")) == {lbl("Cell")}
        assert store.synonym_partners_of(lbl("Skeletal Myocyte")) == {lbl("Skeletal Muscle Fiber")}
        assert store.synonym_partners_of(lbl("Skeletal Muscle Fiber")) == {lbl("Skeletal Myocyte")}
        assert store.parents_of(lbl("Cell")) == set()

    @given(st.lists(triple_strategy, max_size=20), st.randoms())
    def test_iteration_order_independent_of_insertion(self, triples, rng):
        shuffled = list(triples)
        rng.shuffle(shuffled)
        s1, s2 = TripleStore(triples), TripleStore(shuffled)
        assert list(s1) == list(s2)
        assert len(s1) == len(set(triples))

    def test_indices_consistent_with_membership(self):
        store = TripleStore()
        t = Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe"))
        store.insert(t)
        assert t in store
        assert lbl("Microbe") in store.parents_of(lbl("Virus"))


class TestTripleFile:
    def test_round_trip_and_sorted_output(self, tmp_path):
        records = [
            TripleRecord(Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe")),
                         TripleClass.CONFIRMED, scores=[0.5, 0.25, 0.125, 0.0625]),
            TripleRecord(Triple(lbl("flu"), Relation.SYNONYM_OF, lbl("influenza")),
                         TripleClass.RAW, scores=None),
            TripleRecord(Triple(lbl("Adenovirus"), Relation.SUBCLASS_OF, lbl("Virus")),
                         TripleClass.EXTRAPOLATED, scores=None,
                         chains=[[("adenovirus", "dna virus"), ("dna virus", "virus")]]),
        ]
        path = tmp_path / "triples.jsonl"
        write_triple_file(path, records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        # Sorted by (relation, subject key, object key): SubclassOf < SynonymOf.
        assert '"Adenovirus"' in lines[0]
        assert '"Virus"' in lines[1]
        assert '"flu"' in lines[2]
        back = read_triple_file(path)
        assert [r.triple for r in back] == sorted((r.triple for r in records),
                                                  key=lambda t: t.sort_key)
        by_triple = {r.triple: r for r in back}
        orig = {r.triple: r for r in records}
        for t, r in by_triple.items():
            assert r.triple_class == orig[t].triple_class
            assert r.scores == orig[t].scores
            assert r.chains == orig[t].chains

    def test_write_is_byte_deterministic(self, tmp_path):
        records = [
            TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a")), TripleClass.RAW),
            TripleRecord(Triple(lbl("c"), Relation.SUBCLASS_OF, lbl("a")), TripleClass.RAW),
        ]
        p1, p2 = tmp_path / "x.jsonl", tmp_path / "y.jsonl"
        write_triple_file(p1, records)
        write_triple_file(p2, list(reversed(records)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_mean_score(self):
        r = TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a")),
                         TripleClass.CONFIRMED, scores=[0.2, 0.4])
        assert r.mean_score() == pytest.approx(0.3)
        assert TripleRecord(r.triple, TripleClass.RAW).mean_score() is None
