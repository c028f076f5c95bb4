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
from typing import NamedTuple

from .errors import InvalidParamsError, UnrecognizedPromptError, check_domain, check_fields
from .extraction import build_tree_prompt
from .ontology import ConceptLabel, Relation
from .scoring import JUDGE_TEMPLATES, PROMPT_SET_V1, _PREAMBLE
from .synthesis import FUNCTION_TEMPLATE, SUBTYPE_TEMPLATE

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

    def rep_of(self, label_key: str) -> str | None:
        return self._rep_of.get(label_key)

    def display(self, key: str) -> str:
        return self._display[key]

    def members_of(self, rep_key: str) -> list[str]:
        return list(self._members[rep_key])

    def children_of(self, rep_key: str) -> list[str]:
        return list(self._children.get(rep_key, ()))

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


def _statement_pattern() -> tuple[re.Pattern[str], dict[str, tuple[Relation, bool, int, int]]]:
    """One pattern for every probe and judge template, and what each of its
    alternatives stands for.

    The shared preamble is matched once, then one alternative per template,
    a named group around each. A match's lastgroup names its template, which
    maps to (relation, judge?, index of the A group, index of the B group).
    Labels never contain an apostrophe, so the quotes around them fix where
    each label ends and a prompt can match at most one template.
    """
    named = [(f"p{i}", t.relation, False, t.template) for i, t in enumerate(PROMPT_SET_V1)]
    named += [(f"j{i}", relation, True, template)
              for i, (relation, template) in enumerate(JUDGE_TEMPLATES.items())]
    alternatives = []
    for name, _, _, template in named:
        if not template.startswith(_PREAMBLE):
            raise ValueError(f"template {template!r} does not start with the shared preamble")
        pieces = re.split(r"(\{[AB]\})", template[len(_PREAMBLE):])
        body = "".join(f"(?P<{name}_{piece[1]}>[^']+)" if piece in ("{A}", "{B}")
                       else re.escape(piece) for piece in pieces)
        alternatives.append(f"(?P<{name}>{body})")
    pattern = re.compile(re.escape(_PREAMBLE) + "(?:" + "|".join(alternatives) + ")")
    meaning = {name: (relation, judge, pattern.groupindex[f"{name}_A"],
                      pattern.groupindex[f"{name}_B"])
               for name, relation, judge, _ in named}
    return pattern, meaning


_STATEMENT_RE, _STATEMENT_TEMPLATES = _statement_pattern()


class _Statement(NamedTuple):
    """What a probe or judge prompt states, and the model's probability that
    it is true. Judge prompts are answered from the ground truth in
    generation; every statement scores by p."""

    relation: Relation
    a_key: str
    b_key: str
    judge: bool
    p: float


# The first line of a tree prompt, as extraction.build_tree_prompt writes it,
# with the concept as a group.
_TREE_HEAD, _TREE_TAIL = build_tree_prompt(ConceptLabel("\0", "\0")).split("\n")[0].split("\0")
_TREE_PROMPT_RE = re.compile(
    rf"\A{re.escape(_TREE_HEAD)}(?P<concept>.+?){re.escape(_TREE_TAIL)}\n", re.DOTALL)

# What synthesis's instruction templates say before their concept.
_INSTRUCTION_PREFIXES = tuple(template.split("{concept}")[0]
                              for template in (FUNCTION_TEMPLATE, SUBTYPE_TEMPLATE))


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
        self._seed_prefix = (str(seed) + "\x1f").encode("utf-8")
        self._bases: dict[tuple[Relation, str, str], float] = {}
        # The last prompt resolved and its statement. The " True" and " False"
        # probes of one paraphrase arrive back to back, so the second reuses
        # the first's work. One tuple, replaced whole, so that threads sharing
        # the model never pair one prompt with another's statement.
        self._last: tuple[str | None, _Statement | None] = (None, None)

    # Deterministic uniform draw in [0, 1) from hashed key parts. Python's
    # built-in hash() is salted per process, so it cannot be used here.
    def _unit(self, *parts: str) -> float:
        payload = self._seed_prefix + "\x1f".join(parts).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _familiar(self, relation: Relation, a_key: str, b_key: str) -> bool:
        rep_a = self.gt.rep_of(a_key) or a_key
        rep_b = self.gt.rep_of(b_key) or b_key
        lo, hi = sorted((rep_a, rep_b))
        return self._unit("familiar", relation.value, lo, hi) < self.profile.familiarity_rate

    def _base(self, relation: Relation, a_key: str, b_key: str) -> float:
        """Probability of True before jitter: the statement's truth crossed
        with the pair's familiarity, worked out once per statement."""
        key = (relation, a_key, b_key)
        base = self._bases.get(key)
        if base is None:
            if not self.gt.is_true(relation, a_key, b_key):
                base = self.profile.p_true_false
            elif self._familiar(relation, a_key, b_key):
                base = self.profile.p_true_known
            else:
                base = self.profile.p_true_unfamiliar
            self._bases[key] = base
        return base

    def _statement(self, prompt: str) -> _Statement | None:
        """The statement a probe or judge prompt makes, with its probability
        of True, or None for any other prompt."""
        last_prompt, last = self._last
        if last_prompt == prompt:
            return last
        m = _STATEMENT_RE.fullmatch(prompt)
        if m is None:
            return None
        relation, judge, a_group, b_group = _STATEMENT_TEMPLATES[m.lastgroup]
        a_key, b_key = m.group(a_group).casefold(), m.group(b_group).casefold()
        jitter = (self._unit("jitter", prompt) * 2.0 - 1.0) * self.profile.jitter
        p = min(max(self._base(relation, a_key, b_key) + jitter, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
        statement = _Statement(relation, a_key, b_key, judge, p)
        self._last = (prompt, statement)
        return statement

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
        statement = self._statement(prompt)
        if statement is not None:
            if statement.judge:
                truth = self.gt.is_true(statement.relation, statement.a_key, statement.b_key)
            else:
                truth = statement.p > 0.5
            return "True" if truth else "False"
        for prefix in _INSTRUCTION_PREFIXES:
            if prompt.startswith(prefix):
                first_sentence = prompt.split(".")[0] + "."
                return (f"{first_sentence} In clinical practice this concept is "
                        "characterized by its role in diagnosis and treatment, "
                        "and its subtypes differ in structure and function.")
        raise UnrecognizedPromptError(f"no synthetic responder for prompt: {prompt[:80]!r}")

    def respond_score(self, body: dict) -> list[float]:
        prompt, completion = body["prompt"], body["completion"]
        statement = self._statement(prompt)
        if statement is None:
            raise UnrecognizedPromptError(f"no synthetic scorer for prompt: {prompt[:80]!r}")
        if completion == " True":
            return [math.log(statement.p)]
        if completion == " False":
            return [math.log(1.0 - statement.p)]
        raise UnrecognizedPromptError(f"unexpected completion {completion!r}")


def synthetic_identity(seed: int, gt: GroundTruth) -> str:
    """A synthetic model's identity, as cache keys and the manifest name it."""
    return f"synthetic://{seed}/{gt.content_hash()[:8]}"


@dataclass
class SyntheticBackend:
    """Gateway backend adapter for a SyntheticModel."""

    model: SyntheticModel
    identity: str = field(init=False)

    def __post_init__(self) -> None:
        self.identity = synthetic_identity(self.model.seed, self.model.gt)

    def generate(self, body: dict) -> dict:
        return {"text": self.model.respond_generate(body)}

    def score(self, body: dict) -> dict:
        return {"token_logprobs": self.model.respond_score(body)}
