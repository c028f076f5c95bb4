"""Synthetic ground truth and a deterministic stand-in for a served model.

The synthetic model answers every request as a pure function of the request
text, a seed, and a sampled ground-truth ontology, so whole-pipeline runs
are reproducible and can be checked against the ground truth. Its noise
model has three levels: statements that are true and familiar get a high
probability of "True", true-but-unfamiliar statements a low one (these are
the planted knowledge gaps), and false statements the lowest. A small
per-prompt jitter keeps paraphrases from scoring identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, fields
from random import Random

from .errors import InvalidParamsError, UnrecognizedPromptError, check_domain, check_fields
from .ontology import Relation
from .scoring import JUDGE_TEMPLATES, PROMPT_SET_V1

_PROB_FLOOR = 0.01  # keeps answer probabilities away from 0 and 1


class GroundTruth:
    """Reference ontology: subclass edges between synonym-class
    representatives plus the membership of each synonym class.

    Lookups go through case-folded keys. The transitive closure of
    the edges is recomputed on construction, never persisted.
    """

    def __init__(self, roots: list[str], edges: list[tuple[str, str]],
                 synonym_classes: list[list[str]]) -> None:
        self.roots = list(roots)
        self.synonym_classes = [list(c) for c in synonym_classes]
        self._display: dict[str, str] = {}
        self._rep_of: dict[str, str] = {}
        self._members: dict[str, list[str]] = {}
        for members in self.synonym_classes:
            rep_key = members[0].casefold()
            self._members[rep_key] = list(members)
            for m in members:
                self._display[m.casefold()] = m
                self._rep_of[m.casefold()] = rep_key
        self.edges = [(c.casefold(), p.casefold()) for c, p in edges]
        for c, p in self.edges:
            if c not in self._members or p not in self._members:
                raise InvalidParamsError(f"edge ({c}, {p}) references unknown representative")
        self._children: dict[str, list[str]] = {}
        for c, p in self.edges:
            self._children.setdefault(p, []).append(c)
        for kids in self._children.values():
            kids.sort()
        self._ancestors = self._compute_closure()

    def _compute_closure(self) -> dict[str, set[str]]:
        parents: dict[str, list[str]] = {}
        for c, p in self.edges:
            parents.setdefault(c, []).append(p)
        memo: dict[str, set[str]] = {}

        def ancestors(key: str) -> set[str]:
            if key not in memo:
                memo[key] = set()  # cycle guard; edges form a DAG by construction
                acc = set()
                for p in parents.get(key, ()):
                    acc.add(p)
                    acc |= ancestors(p)
                memo[key] = acc
            return memo[key]

        return {k: ancestors(k) for k in self._members}

    def __contains__(self, label_key: str) -> bool:
        return label_key in self._rep_of

    def rep_of(self, label_key: str) -> str | None:
        return self._rep_of.get(label_key)

    def display(self, key: str) -> str:
        return self._display[key]

    def members_of(self, rep_key: str) -> list[str]:
        return list(self._members[rep_key])

    def children_of(self, rep_key: str) -> list[str]:
        return list(self._children.get(rep_key, ()))

    def ancestors_of(self, rep_key: str) -> set[str]:
        return set(self._ancestors.get(rep_key, ()))

    @property
    def vocabulary(self) -> set[str]:
        return set(self._rep_of)

    def is_true(self, relation: Relation, a_key: str, b_key: str) -> bool:
        """Truth of 'a relation b'. Statements naming unknown labels are false."""
        rep_a, rep_b = self._rep_of.get(a_key), self._rep_of.get(b_key)
        if rep_a is None or rep_b is None:
            return False
        if relation is Relation.SYNONYM_OF:
            return rep_a == rep_b and a_key != b_key
        return rep_b in self._ancestors[rep_a]

    def to_json_obj(self) -> dict:
        return {
            "roots": self.roots,
            "edges": [[self._display[c], self._display[p]] for c, p in self.edges],
            "synonym_classes": self.synonym_classes,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GroundTruth":
        return cls(roots=obj["roots"],
                   edges=[(c, p) for c, p in obj["edges"]],
                   synonym_classes=obj["synonym_classes"])

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sample_ground_truth(depth: int, branching: int, synonym_rate: float,
                        seed: int, n_roots: int = 1) -> GroundTruth:
    """Sample a forest of complete trees: every node above the leaf level has
    exactly `branching` children, and each node independently gains one alias
    with probability synonym_rate."""
    _check_spec(depth=depth, branching=branching, synonym_rate=synonym_rate, n_roots=n_roots)
    rng = Random(seed)
    roots: list[str] = []
    edges: list[tuple[str, str]] = []
    classes: list[list[str]] = []
    for r in range(n_roots):
        counter = 0

        def new_node() -> str:
            nonlocal counter
            name = f"T{r}N{counter}"
            counter += 1
            members = [name]
            if rng.random() < synonym_rate:
                members.append(f"{name} alt1")
            classes.append(members)
            return name

        root = new_node()
        roots.append(root)
        frontier = [root]
        for _ in range(depth):
            next_frontier = []
            for parent in frontier:
                for _ in range(branching):
                    child = new_node()
                    edges.append((child, parent))
                    next_frontier.append(child)
            frontier = next_frontier
    return GroundTruth(roots=roots, edges=edges, synonym_classes=classes)


@dataclass(frozen=True)
class NoiseProfile:
    """Answer-probability levels for the synthetic model.

    p_true_known / p_true_unfamiliar apply to true statements depending on
    the familiarity draw; p_true_false applies to false statements. jitter
    bounds a per-prompt perturbation, so it must be small enough that the
    three levels stay on their own side of 0.5 if calibration is expected
    to separate them.
    """

    p_true_known: float = field(default=0.9, metadata={"gt": 0.0, "lt": 1.0})
    p_true_unfamiliar: float = field(default=0.15, metadata={"gt": 0.0, "lt": 1.0})
    p_true_false: float = field(default=0.1, metadata={"gt": 0.0, "lt": 1.0})
    familiarity_rate: float = field(default=0.8, metadata={"ge": 0.0, "le": 1.0})
    jitter: float = field(default=0.05, metadata={"ge": 0.0, "lt": 0.5})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.p_true_known <= self.p_true_false:
            raise InvalidParamsError("p_true_known must exceed p_true_false")


@dataclass(frozen=True)
class SyntheticSpec:
    """The synthetic model's settings, the config's model.synthetic section:
    the shape of its ground truth, its seed and its noise."""

    depth: int = field(default=3, metadata={"ge": 1})
    branching: int = field(default=3, metadata={"ge": 1})
    synonym_rate: float = field(default=0.3, metadata={"ge": 0.0, "le": 1.0})
    n_roots: int = field(default=1, metadata={"ge": 1})
    seed: int = 0
    hallucination_rate: float = field(default=0.0, metadata={"ge": 0.0, "le": 1.0})
    noise: NoiseProfile = NoiseProfile()


def _check_spec(**values) -> None:
    """Check each value against the domain of the SyntheticSpec field it is named for."""
    domains = {f.name: f.metadata for f in fields(SyntheticSpec)}
    for name, value in values.items():
        check_domain(value, domains[name], name)


def _template_matcher(template: str) -> re.Pattern[str]:
    sent_a, sent_b = "\x00A\x00", "\x00B\x00"
    t = template.replace("{A}", sent_a).replace("{B}", sent_b)
    escaped = re.escape(t)
    escaped = escaped.replace(re.escape(sent_a), "(?P<A>[^']+)")
    escaped = escaped.replace(re.escape(sent_b), "(?P<B>[^']+)")
    return re.compile(escaped)


_PROBE_MATCHERS: list[tuple[Relation, re.Pattern[str]]] = [
    (t.relation, _template_matcher(t.template)) for t in PROMPT_SET_V1
]
_JUDGE_MATCHERS: list[tuple[Relation, re.Pattern[str]]] = [
    (rel, _template_matcher(tpl)) for rel, tpl in JUDGE_TEMPLATES.items()
]
_STATEMENT_MATCHERS = _PROBE_MATCHERS + _JUDGE_MATCHERS

_TREE_PROMPT_RE = re.compile(
    r"\AAs a medical expert, please generate strict subclasses of (?P<concept>.+?) "
    r"and their synonyms\.\n", re.DOTALL)

_INSTRUCTION_PREFIXES = (
    "Outline the primary functions of ",
    "Identify and describe any subtypes of ",
    "Is ",
)


class SyntheticModel:
    """Deterministic responder for every prompt shape the pipeline emits.

    Tree prompts get a JSON tree of the concept's true children, with every
    member of a child's synonym class listed as its own entry cross-listing
    the others, plus occasional invented children outside the vocabulary.
    Statement prompts get probability-of-True per the noise profile (scored
    as a single answer token, or thresholded at 0.5 for one-shot text).
    Judge prompts are answered from the ground truth itself, so accuracy
    audits read the reference rather than the noise. Instruction prompts
    get short deterministic prose.
    """

    def __init__(self, ground_truth: GroundTruth, profile: NoiseProfile,
                 seed: int, hallucination_rate: float = 0.0) -> None:
        _check_spec(hallucination_rate=hallucination_rate)
        self.gt = ground_truth
        self.profile = profile
        self.seed = seed
        self.hallucination_rate = hallucination_rate

    # Deterministic uniform draw in [0, 1) from hashed key parts. Python's
    # built-in hash() is salted per process, so it cannot be used here.
    def _unit(self, *parts: str) -> float:
        payload = "\x1f".join((str(self.seed),) + parts).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _familiar(self, relation: Relation, a_key: str, b_key: str) -> bool:
        rep_a = self.gt.rep_of(a_key) or a_key
        rep_b = self.gt.rep_of(b_key) or b_key
        lo, hi = sorted((rep_a, rep_b))
        return self._unit("familiar", relation.value, lo, hi) < self.profile.familiarity_rate

    def _p_true(self, relation: Relation, a_key: str, b_key: str, prompt: str) -> float:
        if self.gt.is_true(relation, a_key, b_key):
            if self._familiar(relation, a_key, b_key):
                base = self.profile.p_true_known
            else:
                base = self.profile.p_true_unfamiliar
        else:
            base = self.profile.p_true_false
        jitter = (self._unit("jitter", prompt) * 2.0 - 1.0) * self.profile.jitter
        return min(max(base + jitter, _PROB_FLOOR), 1.0 - _PROB_FLOOR)

    def _match_statement(self, prompt: str) -> tuple[Relation, str, str] | None:
        for relation, pattern in _STATEMENT_MATCHERS:
            m = pattern.fullmatch(prompt)
            if m:
                return relation, m.group("A").casefold(), m.group("B").casefold()
        return None

    def _tree_response(self, concept: str) -> str:
        key = concept.casefold()
        rep = self.gt.rep_of(key)
        subclasses: list[dict] = []
        if rep is not None:
            for child_rep in self.gt.children_of(rep):
                members = self.gt.members_of(child_rep)
                for member in members:
                    others = [m for m in members if m != member]
                    subclasses.append({
                        "name": member,
                        "description": f"A specific form of {self.gt.display(rep)}.",
                        "synonyms": others,
                    })
            if self._unit("hallucinate", rep) < self.hallucination_rate:
                fake = f"X{self.gt.display(rep).replace(' ', '')}H0"
                subclasses.append({
                    "name": fake,
                    "description": f"A presumed form of {self.gt.display(rep)}.",
                    "synonyms": [],
                })
        body = {concept: {"description": f"Concept {concept}.", "subclasses": subclasses}}
        return json.dumps(body, indent=2, ensure_ascii=False)

    def respond_generate(self, body: dict) -> str:
        prompt = body["prompt"]
        tree_match = _TREE_PROMPT_RE.match(prompt)
        if tree_match:
            return self._tree_response(tree_match.group("concept"))
        for relation, pattern in _JUDGE_MATCHERS:
            m = pattern.fullmatch(prompt)
            if m:
                truth = self.gt.is_true(relation, m.group("A").casefold(),
                                        m.group("B").casefold())
                return "True" if truth else "False"
        statement = self._match_statement(prompt)
        if statement is not None:
            relation, a_key, b_key = statement
            p = self._p_true(relation, a_key, b_key, prompt)
            return "True" if p > 0.5 else "False"
        for prefix in _INSTRUCTION_PREFIXES:
            if prompt.startswith(prefix):
                first_sentence = prompt.split(".")[0] + "."
                return (f"{first_sentence} In clinical practice this concept is "
                        "characterized by its role in diagnosis and treatment, "
                        "and its subtypes differ in structure and function.")
        raise UnrecognizedPromptError(f"no synthetic responder for prompt: {prompt[:80]!r}")

    def respond_score(self, body: dict) -> list[float]:
        prompt, completion = body["prompt"], body["completion"]
        statement = self._match_statement(prompt)
        if statement is None:
            raise UnrecognizedPromptError(f"no synthetic scorer for prompt: {prompt[:80]!r}")
        relation, a_key, b_key = statement
        p = self._p_true(relation, a_key, b_key, prompt)
        if completion == " True":
            return [math.log(p)]
        if completion == " False":
            return [math.log(1.0 - p)]
        raise UnrecognizedPromptError(f"unexpected completion {completion!r}")


@dataclass
class SyntheticBackend:
    """Gateway backend adapter for a SyntheticModel."""

    model: SyntheticModel
    identity: str = field(init=False)

    def __post_init__(self) -> None:
        self.identity = f"synthetic://{self.model.seed}/{self.model.gt.content_hash()[:8]}"

    def generate(self, body: dict) -> dict:
        return {"text": self.model.respond_generate(body)}

    def score(self, body: dict) -> dict:
        return {"token_logprobs": self.model.respond_score(body)}
