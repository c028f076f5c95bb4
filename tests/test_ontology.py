from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from evontree.errors import EmptyLabelError
from evontree.ontology import (
    ConceptLabel,
    OntologyTree,
    Relation,
    Triple,
    TripleRecord,
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

    @given(st.one_of(st.sampled_from(["alpha", "Beta", "gamma delta"]), st.text()),
           st.one_of(st.sampled_from(["alpha", "Beta", "gamma delta"]), st.text()))
    def test_synonym_symmetry_property(self, x, y):
        try:
            a, b = lbl(x), lbl(y)
        except EmptyLabelError:
            return
        if a.key == b.key:
            return
        t1, t2 = Triple(a, Relation.SYNONYM_OF, b), Triple(b, Relation.SYNONYM_OF, a)
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1.sort_key == t2.sort_key == (Relation.SYNONYM_OF.value, t1.subject.key,
                                              t1.object.key)
        assert Triple(a, Relation.SUBCLASS_OF, b).sort_key == (
            Relation.SUBCLASS_OF.value, a.key, b.key)


def build_chain_tree() -> OntologyTree:
    # Cell -> Muscle Cell -> Skeletal Muscle Fiber, with one synonym at the leaf.
    return OntologyTree(nodes=[
        TreeNode(lbl("Cell"), "basic unit", (), None, 0),
        TreeNode(lbl("Muscle Cell"), "contractile", (), 0, 1),
        TreeNode(lbl("Skeletal Muscle Fiber"), "striated", (lbl("Skeletal Myocyte"),), 1, 2),
    ])


class TestTreeToTriples:
    def test_chain_yields_edge_per_parent_link(self):
        tree = build_chain_tree()
        triples = tree_to_triples(tree)
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


class TestTripleFile:
    def test_round_trip_and_sorted_output(self, tmp_path):
        records = [
            TripleRecord(Triple(lbl("Virus"), Relation.SUBCLASS_OF, lbl("Microbe")),
                         scores=[0.5, 0.25, 0.125, 0.0625]),
            TripleRecord(Triple(lbl("flu"), Relation.SYNONYM_OF, lbl("influenza")),
                         scores=None),
            TripleRecord(Triple(lbl("Adenovirus"), Relation.SUBCLASS_OF, lbl("Virus")),
                         scores=None,
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
            assert r.scores == orig[t].scores
            assert r.chains == orig[t].chains

    def test_a_line_holds_no_class_and_scores_only_when_scored(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        write_triple_file(path, [
            TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a")), scores=[0.5]),
            TripleRecord(Triple(lbl("c"), Relation.SUBCLASS_OF, lbl("a"))),
            TripleRecord(Triple(lbl("d"), Relation.SUBCLASS_OF, lbl("a")), chains=[]),
        ])
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"o":"a","r":"SubclassOf","s":"b","scores":[0.5]}',
            '{"o":"a","r":"SubclassOf","s":"c"}',
            '{"chains":[],"o":"a","r":"SubclassOf","s":"d"}',
        ]

    def test_a_line_with_a_class_and_null_scores_reads_as_without(self, tmp_path):
        # The line format before the class left the line.
        path = tmp_path / "triples.jsonl"
        path.write_text('{"class":"Raw","o":"a","r":"SubclassOf","s":"b","scores":null}\n'
                        '{"class":"Confirmed","o":"a","r":"SubclassOf","s":"c",'
                        '"scores":[0.5]}\n', encoding="utf-8")
        b, c = read_triple_file(path)
        assert b == TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a")))
        assert c == TripleRecord(Triple(lbl("c"), Relation.SUBCLASS_OF, lbl("a")), scores=[0.5])

    @pytest.mark.parametrize(("line", "error"), [
        ("not json", "JSONDecodeError"),
        ('{"s":"b","r":"Foo","o":"a"}', "'Foo' is not a valid Relation"),
        ('{"s":"b","r":"SubclassOf"}', "KeyError('o')"),
        ('{"s":" ","r":"SubclassOf","o":"a"}', "EmptyLabelError"),
        ('["b","SubclassOf","a"]', "TypeError"),
    ])
    def test_a_line_that_holds_no_record_is_named_by_its_number(self, tmp_path, line, error):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"s":"b","r":"SubclassOf","o":"a"}\n\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: ") as exc:
            read_triple_file(path)
        assert error in str(exc.value)

    def test_write_is_byte_deterministic(self, tmp_path):
        records = [
            TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a"))),
            TripleRecord(Triple(lbl("c"), Relation.SUBCLASS_OF, lbl("a"))),
        ]
        p1, p2 = tmp_path / "x.jsonl", tmp_path / "y.jsonl"
        write_triple_file(p1, records)
        write_triple_file(p2, list(reversed(records)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_mean_score(self):
        r = TripleRecord(Triple(lbl("b"), Relation.SUBCLASS_OF, lbl("a")), scores=[0.2, 0.4])
        assert r.mean_score() == pytest.approx(0.3)
        assert TripleRecord(r.triple).mean_score() is None
