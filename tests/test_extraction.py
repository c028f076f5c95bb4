from __future__ import annotations

import json

import pytest

from evontree.errors import ParseFailureError, SchemaMismatchError, TransportError
from evontree.extraction import (
    DEFAULT_ROOTS,
    ExtractionConfig,
    build_tree_prompt,
    extract_forest,
    parse_tree_response,
)
from evontree.gateway import ASK_ATTEMPTS, ModelGateway
from evontree.ontology import normalize_label as lbl, tree_to_triples
from evontree.synthetic import (
    NoiseProfile,
    SyntheticBackend,
    SyntheticModel,
    sample_ground_truth,
)


class TestBuildTreePrompt:
    def test_exact_bytes(self):
        expected = (
            "As a medical expert, please generate strict subclasses of Virus "
            "and their synonyms.\n"
            "Output a JSON tree like below:\n"
            "\n"
            '{"Virus": {\n'
            '    "description": "",\n'
            '    "subclasses": [{\n'
            '        "name": "",\n'
            '        "description": "",\n'
            '        "synonyms": ["", ""]\n'
            "}]}}"
        )
        assert build_tree_prompt(lbl("Virus")) == expected

    def test_quotes_in_concept_are_escaped_in_skeleton(self):
        prompt = build_tree_prompt(lbl('Crohn"s Disease'))
        assert '{"Crohn\\"s Disease": {' in prompt

    def test_default_roots(self):
        assert len(DEFAULT_ROOTS) == 15
        assert "Vertebrate" in DEFAULT_ROOTS and "Non-Infectious Disease" in DEFAULT_ROOTS


def tree_json(concept, subclasses):
    return json.dumps({concept: {"description": "d", "subclasses": subclasses}})


class TestParseTreeResponse:
    def test_plain_json(self):
        text = tree_json("Virus", [
            {"name": "DNA Virus", "description": "x", "synonyms": ["Deoxyvirus"]},
        ])
        children, skipped = parse_tree_response(text, lbl("Virus"))
        assert skipped == 0
        assert len(children) == 1
        assert children[0].label == lbl("DNA Virus")
        assert children[0].synonyms == (lbl("Deoxyvirus"),)

    def test_fenced_json(self):
        inner = tree_json("Virus", [{"name": "RNA Virus", "synonyms": []}])
        for fenced in (f"```json\n{inner}\n```", f"Sure!\n```\n{inner}\n```\nDone."):
            children, _ = parse_tree_response(fenced, lbl("Virus"))
            assert children[0].label == lbl("RNA Virus")

    def test_top_key_matched_casefold(self):
        text = tree_json("vIrUs", [{"name": "RNA Virus"}])
        children, _ = parse_tree_response(text, lbl("Virus"))
        assert children[0].label == lbl("RNA Virus")

    def test_wrong_top_key(self):
        with pytest.raises(SchemaMismatchError):
            parse_tree_response(tree_json("Bacterium", [{"name": "x"}]), lbl("Virus"))

    def test_not_json(self):
        with pytest.raises(ParseFailureError):
            parse_tree_response("A virus is small.", lbl("Virus"))

    def test_top_level_not_single_key_object(self):
        with pytest.raises(SchemaMismatchError):
            parse_tree_response("[1, 2]", lbl("Virus"))
        with pytest.raises(SchemaMismatchError):
            parse_tree_response('{"a": {}, "b": {}}', lbl("Virus"))

    def test_subclasses_must_be_list(self):
        with pytest.raises(SchemaMismatchError):
            parse_tree_response('{"Virus": {"subclasses": "none"}}', lbl("Virus"))

    def test_entry_without_name(self):
        with pytest.raises(SchemaMismatchError):
            parse_tree_response(tree_json("Virus", [{"description": "x"}]), lbl("Virus"))

    def test_non_string_synonyms(self):
        with pytest.raises(SchemaMismatchError):
            parse_tree_response(
                tree_json("Virus", [{"name": "x", "synonyms": [1]}]), lbl("Virus"))

    def test_empty_names_skipped_and_counted(self):
        text = tree_json("Virus", [{"name": ""}, {"name": "  "}, {"name": "RNA Virus"}])
        children, skipped = parse_tree_response(text, lbl("Virus"))
        assert skipped == 2
        assert [c.label.text for c in children] == ["RNA Virus"]

    def test_self_synonyms_dropped(self):
        text = tree_json("Virus", [{"name": "RNA Virus", "synonyms": ["rna virus", "Ribovirus"]}])
        children, _ = parse_tree_response(text, lbl("Virus"))
        assert children[0].synonyms == (lbl("Ribovirus"),)


def synthetic_gateway(tmp_path, *, depth=2, branching=2, synonym_rate=1.0,
                      seed=11, hallucination_rate=0.0):
    gt = sample_ground_truth(depth=depth, branching=branching,
                             synonym_rate=synonym_rate, seed=seed)
    model = SyntheticModel(gt, NoiseProfile(), seed=seed,
                           hallucination_rate=hallucination_rate)
    gw = ModelGateway(SyntheticBackend(model), model="synthetic",
                      cache_dir=tmp_path / "cache",
                      sleep=lambda s: None)
    return gw, gt


def extract_one(gateway, config):
    """The one tree of a one-root config, and the stats."""
    (tree,), stats = extract_forest(gateway, config)
    return tree, stats


class TestExtractTree:
    def test_recovers_ground_truth_levels(self, tmp_path):
        gw, gt = synthetic_gateway(tmp_path)
        config = ExtractionConfig(roots=("T0N0",), max_depth=2)
        tree, stats = extract_one(gw, config)
        tree.validate()
        by_depth = {}
        for node in tree.nodes:
            by_depth.setdefault(node.depth, []).append(node.label.text)
        assert by_depth[0] == ["T0N0"]
        # branching 2, synonym_rate 1.0: four level-1 entries (two classes).
        assert sorted(by_depth[1]) == ["T0N1", "T0N1 alt1", "T0N2", "T0N2 alt1"]
        # Every member expands to its class children, so level-2 entries
        # appear once per level-1 member.
        assert len(by_depth[2]) == 4 * 4
        assert stats.expansions == 5  # root + four level-1 members
        assert not stats.budget_exhausted

    def test_triples_cover_true_edges(self, tmp_path):
        gw, gt = synthetic_gateway(tmp_path)
        config = ExtractionConfig(roots=("T0N0",), max_depth=1)
        tree, _ = extract_one(gw, config)
        triples, skipped = tree_to_triples(tree)
        assert skipped == 0
        texts = {(t.subject.text, t.relation.value, t.object.text) for t in triples}
        assert ("T0N1", "SubclassOf", "T0N0") in texts
        assert ("T0N1 alt1", "SubclassOf", "T0N0") in texts
        # Canonical synonym orientation puts the lexicographically smaller key first.
        assert ("T0N1", "SynonymOf", "T0N1 alt1") in texts

    def test_budget_counts_root(self, tmp_path):
        gw, _ = synthetic_gateway(tmp_path)
        config = ExtractionConfig(roots=("T0N0",), max_depth=3, frontier_budget=1)
        tree, stats = extract_one(gw, config)
        assert stats.expansions == 1
        assert stats.budget_exhausted
        assert {n.depth for n in tree.nodes} == {0, 1}

    def test_deterministic(self, tmp_path):
        gw1, _ = synthetic_gateway(tmp_path / "a")
        gw2, _ = synthetic_gateway(tmp_path / "b")
        config = ExtractionConfig(roots=("T0N0",), max_depth=2)
        t1, _ = extract_one(gw1, config)
        t2, _ = extract_one(gw2, config)
        assert t1.to_json_obj() == t2.to_json_obj()


class ScriptedBackend:
    identity = "scripted://test"

    def __init__(self, responses):
        self.responses = list(responses)
        self.bodies = []

    def generate(self, body):
        self.bodies.append(body)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return {"text": item}

    def score(self, body):
        raise AssertionError("no scoring during extraction")


def scripted_gateway(tmp_path, responses):
    backend = ScriptedBackend(responses)
    return ModelGateway(backend, model="m", cache_dir=tmp_path / "cache",
                        sleep=lambda s: None), backend


class TestSortedFrontier:
    def test_siblings_inserted_and_expanded_in_key_order(self, tmp_path):
        # The model lists children out of order; the tree stores and expands
        # them sorted by key, so numbering survives server-side shuffling.
        root_resp = tree_json("Root", [{"name": "zeta"}, {"name": "Alpha"},
                                       {"name": "midNode"}])
        gw, backend = scripted_gateway(
            tmp_path, [root_resp] + [tree_json(c, []) for c in
                                     ("Alpha", "midNode", "zeta")])
        config = ExtractionConfig(roots=("Root",), max_depth=2)
        tree, _ = extract_one(gw, config)
        assert [n.label.text for n in tree.nodes] == ["Root", "Alpha", "midNode", "zeta"]
        prompts = [b["prompt"] for b in backend.bodies[1:]]
        assert [p.split("subclasses of ")[1].split(" and their")[0] for p in prompts] \
            == ["Alpha", "midNode", "zeta"]


class TestExtractionFailures:
    def test_parse_retry_then_success(self, tmp_path):
        good = tree_json("Root", [{"name": "Child"}])
        gw, backend = scripted_gateway(tmp_path, ["nonsense", "still bad", good,
                                                  tree_json("Child", [])])
        config = ExtractionConfig(roots=("Root",), max_depth=1)
        tree, stats = extract_one(gw, config)
        assert [n.label.text for n in tree.nodes] == ["Root", "Child"]
        # Retries re-issue the identical request; the cache bypass alone
        # forces the fresh draw.
        assert backend.bodies[0] == backend.bodies[1] == backend.bodies[2]

    def test_root_parse_exhaustion_fatal(self, tmp_path):
        gw, _ = scripted_gateway(tmp_path, ["bad", "bad", "bad"])
        config = ExtractionConfig(roots=("Root",), max_depth=1)
        with pytest.raises(ParseFailureError):
            extract_one(gw, config)

    def test_child_parse_exhaustion_tallied(self, tmp_path):
        good_root = tree_json("Root", [{"name": "Child"}])
        gw, _ = scripted_gateway(tmp_path, [good_root, "bad", "bad", "bad"])
        config = ExtractionConfig(roots=("Root",), max_depth=2)
        tree, stats = extract_one(gw, config)
        assert stats.parse_failures == 1
        assert [n.label.text for n in tree.nodes] == ["Root", "Child"]

    def test_child_transport_failure_is_fatal(self, tmp_path):
        # As in scoring, a dead endpoint fails the stage; no node is left a
        # leaf for it.
        good_root = tree_json("Root", [{"name": "Child"}])
        gw, _ = scripted_gateway(
            tmp_path, [good_root, TransportError("down"), TransportError("down"),
                       TransportError("down")])
        config = ExtractionConfig(roots=("Root",), max_depth=2)
        with pytest.raises(TransportError):
            extract_one(gw, config)

    def test_root_transport_failure_fatal(self, tmp_path):
        gw, _ = scripted_gateway(tmp_path, [TransportError("down")] * 3)
        config = ExtractionConfig(roots=("Root",), max_depth=1)
        with pytest.raises(TransportError):
            extract_one(gw, config)

    def test_cycle_child_skipped(self, tmp_path):
        root_resp = tree_json("Root", [{"name": "Child"}])
        child_resp = tree_json("Child", [{"name": "Root"}, {"name": "Leaf"}])
        gw, _ = scripted_gateway(tmp_path, [root_resp, child_resp, tree_json("Leaf", [])])
        config = ExtractionConfig(roots=("Root",), max_depth=2)
        tree, stats = extract_one(gw, config)
        assert stats.cycles_skipped == 1
        assert [n.label.text for n in tree.nodes] == ["Root", "Child", "Leaf"]

    def test_duplicate_siblings_merge_synonyms(self, tmp_path):
        resp = tree_json("Root", [
            {"name": "Child", "synonyms": ["Kid"]},
            {"name": "child", "synonyms": ["Offspring"]},
        ])
        gw, _ = scripted_gateway(tmp_path, [resp, tree_json("Child", [])])
        config = ExtractionConfig(roots=("Root",), max_depth=1)
        tree, stats = extract_one(gw, config)
        assert stats.sibling_merges == 1
        assert len(tree.nodes) == 2
        assert tree.nodes[1].synonyms == (lbl("Kid"), lbl("Offspring"))


class TestExtractForest:
    def test_multiple_roots(self, tmp_path):
        gt = sample_ground_truth(depth=1, branching=2, synonym_rate=0.0, seed=3, n_roots=2)
        model = SyntheticModel(gt, NoiseProfile(), seed=3)
        gw = ModelGateway(SyntheticBackend(model), model="synthetic",
                          cache_dir=tmp_path / "cache",
                          sleep=lambda s: None)
        config = ExtractionConfig(roots=("T0N0", "T1N0"), max_depth=1)
        forest, totals = extract_forest(gw, config)
        assert [t.root.text for t in forest] == ["T0N0", "T1N0"]
        assert totals.expansions == 2


def count_lookups(gw):
    """The key counts of gw's cache lookups, recorded as they happen."""
    lookups, get_many = [], gw.cache.get_many
    gw.cache.get_many = lambda keys: lookups.append(len(keys)) or get_many(keys)
    return lookups


class TestLevels:
    def test_a_level_is_one_stream(self, tmp_path):
        gt = sample_ground_truth(depth=2, branching=2, synonym_rate=0.0, seed=3, n_roots=2)
        gw = ModelGateway(SyntheticBackend(SyntheticModel(gt, NoiseProfile(), seed=3)),
                          model="synthetic", cache_dir=tmp_path / "cache")
        lookups = count_lookups(gw)
        forest, stats = extract_forest(gw, ExtractionConfig(roots=("T0N0", "T1N0"),
                                                            max_depth=2))
        assert stats.expansions == 2 + 4
        # Level 0 holds both roots, level 1 their four children.
        assert lookups == [2, 4]

    def alias_twins(self, tmp_path, twin_answers):
        """Root has children P and Q, and each answers that X is its child:
        level 2 holds X twice. X's answers come from twin_answers."""
        gw, backend = scripted_gateway(tmp_path, [
            tree_json("Root", [{"name": "P"}, {"name": "Q"}]),
            tree_json("P", [{"name": "X"}]),
            tree_json("Q", [{"name": "X"}]),
            *twin_answers,
        ])
        tree, stats = extract_one(gw, ExtractionConfig(roots=("Root",), max_depth=3))
        asked_x = [b for b in backend.bodies if b["prompt"] == build_tree_prompt(lbl("X"))]
        twins = [i for i, node in enumerate(tree.nodes) if node.label == lbl("X")]
        children = [[n.label.text for n in tree.nodes if n.parent == i] for i in twins]
        return stats, asked_x, children

    def test_alias_twins_share_a_re_asked_answer(self, tmp_path):
        stats, asked_x, children = self.alias_twins(
            tmp_path, ["not json", tree_json("X", [{"name": "Y"}])])
        # Once in the level's stream, once in its bypassed re-ask.
        assert len(asked_x) == 2
        assert children == [["Y"], ["Y"]]
        assert stats.parse_failures == 0 and stats.expansions == 5

    def test_alias_twins_use_up_their_attempts_together(self, tmp_path):
        stats, asked_x, children = self.alias_twins(tmp_path, ["not json"] * ASK_ATTEMPTS)
        assert len(asked_x) == ASK_ATTEMPTS
        assert children == [[], []]
        assert stats.parse_failures == 2

    def test_budget_running_out_mid_level_keeps_numbering(self, tmp_path):
        gt = sample_ground_truth(depth=2, branching=2, synonym_rate=1.0, seed=11, n_roots=2)
        model = SyntheticModel(gt, NoiseProfile(), seed=11)
        roots = ("T0N0", "T1N0")

        def extract(budget, where):
            gw = ModelGateway(SyntheticBackend(model), model="synthetic",
                              cache_dir=tmp_path / where)
            return extract_forest(gw, ExtractionConfig(roots=roots, max_depth=2,
                                                       frontier_budget=budget))

        full, full_stats = extract(2000, "full")
        cut, cut_stats = extract(3, "cut")
        assert not full_stats.budget_exhausted and full_stats.expansions == 2 * 5
        # Each root, then the first two of its four level-1 nodes.
        assert cut_stats.budget_exhausted and cut_stats.expansions == 2 * 3
        for full_tree, cut_tree in zip(full, cut):
            expanded = {node.parent for node in cut_tree.nodes[1:]}
            assert expanded == {0, 1, 2}
            assert cut_tree.nodes == full_tree.nodes[:len(cut_tree.nodes)]
