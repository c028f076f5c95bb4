"""Tree elicitation: prompt a model for subclasses of a concept, parse the
JSON it returns, and grow a tree breadth-first under a call budget.

Non-root failures degrade gracefully (the concept just stays a leaf and the
failure is tallied); a root that cannot be expanded aborts the run, because
an empty forest would silently produce an empty pipeline.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, fields

from .errors import (
    EmptyLabelError,
    EvontreeError,
    ParseFailureError,
    SchemaMismatchError,
    TransportError,
)
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
    # Total attempts per concept, not extra retries.
    parse_retries: int = field(default=3, metadata={"ge": 1})
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
    transport_failures: int = 0
    cycles_skipped: int = 0
    empty_names_skipped: int = 0
    sibling_merges: int = 0
    budget_exhausted: bool = False

    def to_json_obj(self) -> dict:
        return dict(vars(self))

    def add(self, other: "ExtractionStats") -> None:
        """Sum the counts; a flag is set if it is set on either side."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, (mine or theirs) if isinstance(mine, bool) else mine + theirs)


def _elicit_children(gateway: ModelGateway, concept: ConceptLabel,
                     config: ExtractionConfig,
                     stats: ExtractionStats) -> list[ChildSpec]:
    """One concept expansion with parse retries. Raises on exhaustion; the
    caller decides whether that is fatal.

    Retries re-issue the identical request with the cache bypassed, so a
    sampling server gets a fresh draw while a cached garbage response is
    never trusted twice.
    """
    request = GenerateRequest(
        prompt=build_tree_prompt(concept),
        max_tokens=config.gen_max_tokens,
        temperature=config.gen_temperature,
    )
    last_exc: EvontreeError | None = None
    for attempt in range(config.parse_retries):
        text = gateway.generate(request, bypass_cache=attempt > 0)
        try:
            children, skipped = parse_tree_response(text, concept)
        except (ParseFailureError, SchemaMismatchError) as exc:
            last_exc = exc
            log.warning("unparseable expansion of %r (attempt %d/%d): %s",
                        concept.text, attempt + 1, config.parse_retries, exc)
            continue
        stats.empty_names_skipped += skipped
        return children
    raise last_exc


def extract_tree(gateway: ModelGateway, root: ConceptLabel,
                 config: ExtractionConfig) -> tuple[OntologyTree, ExtractionStats]:
    """Grow one tree breadth-first from a root concept.

    Siblings are inserted sorted by key, not in the order the model listed
    them, so node numbering and expansion order are stable across servers
    that shuffle list order. A child equal to any label on its ancestor path
    is a cycle and is skipped; duplicate siblings merge (synonym lists union).
    """
    stats = ExtractionStats()
    tree = OntologyTree(nodes=[TreeNode(root, "", (), None, 0)])
    frontier = [0]
    budget = config.frontier_budget
    while frontier:
        index = frontier.pop(0)
        node = tree.nodes[index]
        if node.depth >= config.max_depth:
            continue
        if budget <= 0:
            stats.budget_exhausted = True
            break
        budget -= 1
        try:
            children = _elicit_children(gateway, node.label, config, stats)
        except (ParseFailureError, SchemaMismatchError) as exc:
            if index == 0:
                raise
            stats.parse_failures += 1
            log.warning("leaving %r unexpanded: %s", node.label.text, exc)
            continue
        except TransportError as exc:
            if index == 0:
                raise
            stats.transport_failures += 1
            log.warning("leaving %r unexpanded after transport failure: %s",
                        node.label.text, exc)
            continue
        stats.expansions += 1
        blocked = tree.ancestor_keys(index) | {node.label.key}
        merged: dict[str, ChildSpec] = {}
        for child in children:
            if child.label.key in blocked:
                stats.cycles_skipped += 1
                continue
            prior = merged.get(child.label.key)
            if prior is not None:
                stats.sibling_merges += 1
                union = sorted(set(prior.synonyms) | set(child.synonyms),
                               key=lambda c: c.key)
                prior.synonyms = tuple(s for s in union if s.key != prior.label.key)
                continue
            merged[child.label.key] = child
        for key in sorted(merged):
            child = merged[key]
            tree.nodes.append(TreeNode(
                label=child.label,
                description=child.description,
                synonyms=child.synonyms,
                parent=index,
                depth=node.depth + 1,
            ))
            frontier.append(len(tree.nodes) - 1)
    tree.validate()
    return tree, stats


def extract_forest(gateway: ModelGateway,
                   config: ExtractionConfig) -> tuple[list[OntologyTree], ExtractionStats]:
    forest = []
    totals = ExtractionStats()
    for raw_root in config.roots:
        root = normalize_label(raw_root)
        tree, stats = extract_tree(gateway, root, config)
        log.info("extracted %d nodes under %r", len(tree.nodes), root.text)
        forest.append(tree)
        totals.add(stats)
    return forest, totals
