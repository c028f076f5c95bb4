"""Tree elicitation: prompt a model for subclasses of a concept, parse the
JSON it returns, and grow a forest breadth-first under a call budget.

A non-root concept whose answer never parses just stays a leaf, and the
failure is tallied; a root that cannot be parsed aborts the run, because an
empty forest would silently produce an empty pipeline. A transport failure
aborts the stage wherever it happens, as in scoring: the responses fetched
before it are committed, so a rerun resumes from them.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from functools import partial

from .errors import EmptyLabelError, EvontreeError, ParseFailureError, SchemaMismatchError
from .gateway import GenerateRequest, ModelGateway
from .ontology import ConceptLabel, OntologyTree, TreeNode, normalize_label

log = logging.getLogger(__name__)

DEFAULT_ROOTS: tuple[str, ...] = (
    "Antibiotic",
    "Bacterium",
    "Cell",
    "Enzyme",
    "Fungus",
    "Hormone",
    "Tissue",
    "Vertebrate",
    "Virus",
    "Vitamin",
    "Chemical",
    "Inorganic Chemical",
    "Organic Chemical",
    "Infectious Disease",
    "Non-Infectious Disease",
)


@dataclass(frozen=True)
class ExtractionConfig:
    roots: tuple[str, ...] = field(default=DEFAULT_ROOTS, metadata={"nonblank": True})
    max_depth: int = field(default=3, metadata={"ge": 1})
    # Expansions per root, the root included.
    frontier_budget: int = field(default=2000, metadata={"ge": 1})
    gen_max_tokens: int = field(default=1024, metadata={"ge": 1})
    gen_temperature: float = field(default=0.7, metadata={"ge": 0.0})


def build_tree_prompt(concept: ConceptLabel) -> str:
    skeleton = (
        "{" + json.dumps(concept.text, ensure_ascii=False) + ": {\n"
        '    "description": "",\n'
        '    "subclasses": [{\n'
        '        "name": "",\n'
        '        "description": "",\n'
        '        "synonyms": ["", ""]\n'
        "}]}}"
    )
    return (
        f"As a medical expert, please generate strict subclasses of {concept.text} "
        "and their synonyms.\nOutput a JSON tree like below:\n\n" + skeleton
    )


@dataclass
class ChildSpec:
    label: ConceptLabel
    description: str
    synonyms: tuple[ConceptLabel, ...]


_FENCE_RE = re.compile(r"```(?:[a-zA-Z0-9_-]+)?\s*(.*?)```", re.DOTALL)


def _strip_fences(text: str) -> str:
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def parse_tree_response(text: str, concept: ConceptLabel) -> tuple[list[ChildSpec], int]:
    """Parse one elicitation response into child specs.

    Returns (children, skipped) where skipped counts entries dropped for an
    empty name, the usual symptom of the model echoing the skeleton back.
    Malformed JSON raises ParseFailureError; well-formed JSON of the wrong
    shape raises SchemaMismatchError.
    """
    try:
        obj = json.loads(_strip_fences(text).strip())
    except ValueError as exc:
        raise ParseFailureError(f"response is not JSON: {exc}") from exc
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaMismatchError("expected a single-key object at the top level")
    (top_key, payload), = obj.items()
    if not isinstance(top_key, str) or top_key.casefold().strip() != concept.key:
        raise SchemaMismatchError(f"top-level key {top_key!r} does not match {concept.text!r}")
    if not isinstance(payload, dict) or not isinstance(payload.get("subclasses"), list):
        raise SchemaMismatchError("payload must carry a subclasses list")
    children: list[ChildSpec] = []
    skipped = 0
    for entry in payload["subclasses"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaMismatchError(f"subclass entry without a name: {entry!r:.120}")
        if not isinstance(entry["name"], str):
            raise SchemaMismatchError(f"subclass name is not a string: {entry['name']!r}")
        description = entry.get("description", "")
        synonyms = entry.get("synonyms", [])
        if not isinstance(description, str) or not isinstance(synonyms, list) \
                or not all(isinstance(s, str) for s in synonyms):
            raise SchemaMismatchError(f"malformed subclass entry for {entry['name']!r}")
        try:
            label = normalize_label(entry["name"])
        except EmptyLabelError:
            skipped += 1
            continue
        syn_labels = []
        for s in synonyms:
            try:
                syn = normalize_label(s)
            except EmptyLabelError:
                continue
            if syn.key != label.key and syn not in syn_labels:
                syn_labels.append(syn)
        children.append(ChildSpec(
            label=label,
            description=description,
            synonyms=tuple(sorted(syn_labels, key=lambda c: c.key)),
        ))
    return children, skipped


@dataclass
class ExtractionStats:
    expansions: int = 0
    parse_failures: int = 0
    cycles_skipped: int = 0
    empty_names_skipped: int = 0
    sibling_merges: int = 0
    budget_exhausted: bool = False

    def to_json_obj(self) -> dict:
        return dict(vars(self))


def extract_forest(gateway: ModelGateway,
                   config: ExtractionConfig) -> tuple[list[OntologyTree], ExtractionStats]:
    """Grow one tree per root breadth-first, the whole forest one depth
    level at a time: each level's expansions are one generate_read stream.

    Each root may expand frontier_budget nodes, itself included, in
    breadth-first order. Siblings are inserted sorted by key, not in the
    order the model listed them, so node numbering and expansion order are
    stable across servers that shuffle list order. A child equal to any
    label on its ancestor path is a cycle and is skipped; duplicate siblings
    merge (synonym lists union). A node whose answer never parses stays a
    leaf and is tallied; an unparseable root raises.
    """
    stats = ExtractionStats()
    forest = [OntologyTree(nodes=[TreeNode(normalize_label(root), "", (), None, 0)])
              for root in config.roots]
    frontiers = [[0] for _ in forest]
    budgets = [config.frontier_budget] * len(forest)
    for depth in range(config.max_depth):
        level = []  # (tree number, node index) of each node expanded at this depth
        for t, frontier in enumerate(frontiers):
            if len(frontier) > budgets[t]:
                stats.budget_exhausted = True
                frontier = frontier[:budgets[t]]
            budgets[t] -= len(frontier)
            level += [(t, index) for index in frontier]
        labels = [forest[t].nodes[index].label for t, index in level]
        answers = gateway.generate_read(
            (GenerateRequest(prompt=build_tree_prompt(label), max_tokens=config.gen_max_tokens,
                             temperature=config.gen_temperature),
             partial(parse_tree_response, concept=label)) for label in labels)
        frontiers = [[] for _ in forest]
        for (t, index), label, answer in zip(level, labels, answers):
            if isinstance(answer, EvontreeError):
                if index == 0:
                    raise answer
                stats.parse_failures += 1
                log.warning("leaving %r unexpanded: %s", label.text, answer)
                continue
            children, skipped = answer
            stats.expansions += 1
            stats.empty_names_skipped += skipped
            tree = forest[t]
            blocked = tree.ancestor_keys(index) | {label.key}
            merged: dict[str, ChildSpec] = {}
            for child in children:
                if child.label.key in blocked:
                    stats.cycles_skipped += 1
                    continue
                prior = merged.get(child.label.key)
                if prior is not None:
                    stats.sibling_merges += 1
                    union = sorted(set(prior.synonyms) | set(child.synonyms), key=lambda c: c.key)
                    prior.synonyms = tuple(s for s in union if s.key != prior.label.key)
                    continue
                merged[child.label.key] = child
            for key in sorted(merged):
                child = merged[key]
                frontiers[t].append(len(tree.nodes))
                tree.nodes.append(TreeNode(label=child.label, description=child.description,
                                           synonyms=child.synonyms, parent=index,
                                           depth=depth + 1))
    for tree in forest:
        tree.validate()
        log.info("extracted %d nodes under %r", len(tree.nodes), tree.root.text)
    return forest, stats
