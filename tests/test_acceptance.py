"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line and enforcing its runtime budget.

1. confirm-value formula suite against hand-derived values and properties.
2. threshold fitting against a brute-force candidate-by-sample oracle.
3. rule engine against cubic triangle / quadratic composition oracles.
4. end-to-end synthetic run: precision ordering, gap separation, recall.
5. corpus synthesis contract: counts, hint suffix, schema, reproducibility.
6. report contract: table shape, conservation, sweep monotonicity.
7. declared scope boundaries.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from random import Random

import numpy as np
import pytest

from evontree.calibration import CalibrationConfig, LabeledScore, fit_threshold
from evontree.config import parse_config
from evontree.gateway import ModelGateway
from evontree.ontology import (
    Relation,
    Triple,
    TripleRecord,
    normalize_label,
    read_triple_file,
    write_triple_file,
)
from evontree.pipeline import RunContext, run_all, run_stage
from evontree.rules import extrapolate, select_reliable
from evontree.scoring import confirm_value, perplexity
from evontree.synthesis import HINT_TEMPLATE, SynthesisConfig, build_corpus
from evontree.synthetic import NoiseProfile, SyntheticBackend, SyntheticModel, sample_ground_truth


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


def budget(n: int, started: float, limit_s: float) -> float:
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {n} took {elapsed:.1f}s, budget {limit_s}s"
    return elapsed


# --- criterion 1: formula suite ---------------------------------------------

def test_criterion_1_formula_suite():
    started = time.monotonic()
    cases = [
        (perplexity([0.0]), 1.0),
        (perplexity([math.log(0.5), math.log(0.125)]), 4.0),
        (confirm_value(1.25, 5.0), 0.8),
        (confirm_value(4.0, 2.0), -0.5),
        (confirm_value(3.0, 3.0), 0.0),
    ]
    for got, expected in cases:
        assert abs(got - expected) < 1e-12, (got, expected)

    rng = Random(1)
    for _ in range(10_000):
        ppl_t = math.exp(rng.uniform(0.0, 6.0))
        ppl_f = math.exp(rng.uniform(0.0, 6.0))
        cv = confirm_value(ppl_t, ppl_f)
        assert -1.0 <= cv <= 1.0
        assert cv == -confirm_value(ppl_f, ppl_t)

    elapsed = budget(1, started, 5.0)
    report(1, f"5 hand values exact, 10000 range/antisymmetry checks in {elapsed:.2f}s")


# --- criterion 2: calibration oracle ----------------------------------------

def oracle_fit(scores: list[float], labels: list[bool], lo: float, hi: float):
    """Brute force: every candidate against every sample, strict >."""
    score_arr = np.asarray(scores, dtype=float)
    label_arr = np.asarray(labels, dtype=bool)
    pos, neg = score_arr[label_arr], score_arr[~label_arr]
    candidates = sorted({s for s in scores if lo <= s <= hi} | {lo, hi})
    curve = []
    best_tau = best_j = None
    for tau in candidates:
        tpr = int(np.count_nonzero(pos > tau)) / len(pos)
        fpr = int(np.count_nonzero(neg > tau)) / len(neg)
        curve.append((tau, tpr, fpr))
        if best_j is None or tpr - fpr >= best_j:
            best_tau, best_j = tau, tpr - fpr
    return best_tau, best_j, curve


def test_criterion_2_calibration_matches_oracle():
    started = time.monotonic()
    rng = Random(2)
    fixtures = 0
    while fixtures < 200:
        n = rng.randint(2, 1000)
        if rng.random() < 0.5:
            scores = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        else:
            scores = [round(rng.uniform(-1.0, 1.0), 1) for _ in range(n)]  # duplicates
        if rng.random() < 0.5:
            labels = [s + rng.gauss(0.0, 0.3) > 0.2 for s in scores]
        else:
            labels = [rng.random() < 0.5 for s in scores]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        lo, hi = (0.0, 1.0) if rng.random() < 0.5 else (-1.0, 1.0)
        fixtures += 1

        result = fit_threshold([LabeledScore(s, l) for s, l in zip(scores, labels)],
                               CalibrationConfig(sweep_lo=lo, sweep_hi=hi))
        exp_tau, exp_j, exp_curve = oracle_fit(scores, labels, lo, hi)
        assert result.tau_star == exp_tau, f"fixture {fixtures}"
        assert result.max_j == exp_j
        assert [(p.tau, p.tpr, p.fpr) for p in result.curve] == exp_curve

    elapsed = budget(2, started, 30.0)
    report(2, f"200 fixtures, exact tau*/curve equality in {elapsed:.2f}s")


# --- criterion 3: rule-engine oracles ----------------------------------------

def _sub(a: str, b: str) -> Triple:
    return Triple(normalize_label(a), Relation.SUBCLASS_OF, normalize_label(b))


def _syn(a: str, b: str) -> Triple:
    return Triple(normalize_label(a), Relation.SYNONYM_OF, normalize_label(b))


def _of(triples, relation: Relation) -> set[Triple]:
    return {t for t in triples if t.relation is relation}


def oracle_reliable(triples: set[Triple]) -> set[Triple]:
    """Literal triangle enumeration over all (edge, synonym, edge) triples."""
    subs = sorted(_of(triples, Relation.SUBCLASS_OF), key=lambda t: t.sort_key)
    syns = sorted(_of(triples, Relation.SYNONYM_OF), key=lambda t: t.sort_key)
    out = set()
    for t in subs:
        for syn in syns:
            if syn.subject.key == t.subject.key:
                partner = syn.object
            elif syn.object.key == t.subject.key:
                partner = syn.subject
            else:
                continue
            if any(other.subject.key == partner.key
                   and other.object.key == t.object.key for other in subs):
                out.add(t)
                break
    return out


def _synonym_components(synonyms) -> dict[str, str]:
    adjacency = defaultdict(set)
    for t in synonyms:
        adjacency[t.subject.key].add(t.object.key)
        adjacency[t.object.key].add(t.subject.key)
    component: dict[str, str] = {}
    for start in sorted(adjacency):
        if start in component:
            continue
        stack = [start]
        component[start] = start
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in component:
                    component[nxt] = start
                    stack.append(nxt)
    return component


def oracle_extrapolate(reliable: list[Triple], existing: set[Triple]) -> set[Triple]:
    """Literal pairwise composition, minus known pairs, irreflexive up to
    the synonym components of the existing triples."""
    component = _synonym_components(_of(existing, Relation.SYNONYM_OF))
    rep = lambda key: component.get(key, key)
    known = {(rep(t.subject.key), rep(t.object.key))
             for t in _of(existing, Relation.SUBCLASS_OF) | set(reliable)}
    out = set()
    for lower in reliable:
        for upper in reliable:
            if lower.object.key != upper.subject.key:
                continue
            pair = (rep(lower.subject.key), rep(upper.object.key))
            if pair[0] == pair[1] or pair in known:
                continue
            out.add(Triple(lower.subject, Relation.SUBCLASS_OF, upper.object))
    return out


def test_criterion_3_rule_engine_matches_oracles():
    started = time.monotonic()
    rng = Random(3)
    pool = [f"c{i}" for i in range(30)]
    for case in range(100):
        triples: set[Triple] = set()
        for _ in range(rng.randint(5, 150)):
            a, b = rng.sample(pool, 2)
            triples.add(_sub(a, b))
        for _ in range(rng.randint(0, 40)):
            a, b = rng.sample(pool, 2)
            triples.add(_syn(a, b))
        while len(triples) > 200:
            triples.pop()

        assert select_reliable(triples) == oracle_reliable(triples), f"case {case}"

        subs = sorted(_of(triples, Relation.SUBCLASS_OF), key=lambda t: t.sort_key)
        reliable = rng.sample(subs, k=rng.randint(0, len(subs)))
        got = {c.triple for c in extrapolate(reliable, triples)}
        assert got == oracle_extrapolate(reliable, triples), f"case {case}"

    elapsed = budget(3, started, 60.0)
    report(3, f"100 triple sets, exact set equality for both rules in {elapsed:.2f}s")


# --- criteria 4 and 6: end-to-end synthetic run ------------------------------

E2E_SEED = 42


def e2e_config(base_dir: Path, out_name: str):
    return parse_config({
        "model": {"kind": "synthetic",
                  "synthetic": {"depth": 3, "branching": 7, "synonym_rate": 0.3,
                                "seed": E2E_SEED, "hallucination_rate": 0.1}},
        "extraction": {"roots": ["T0N0"], "max_depth": 3},
        "output": {"dir": out_name},
    }, base_dir=base_dir)


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    started = time.monotonic()
    ctx = RunContext(e2e_config(tmp, "out"))
    run_all(ctx)
    return ctx, started


def _precision(gt, records) -> float:
    assert records
    truths = [gt.is_true(r.triple.relation, r.triple.subject.key, r.triple.object.key)
              for r in records]
    return sum(truths) / len(truths)


def _subclass_records(path: Path):
    return [r for r in read_triple_file(path) if r.triple.relation is Relation.SUBCLASS_OF]


def test_criterion_4_end_to_end_synthetic(e2e_run, tmp_path):
    ctx, started = e2e_run
    gt = ctx.ground_truth()
    assert 450 <= len(gt.vocabulary) <= 600  # roughly 500 concepts
    out = ctx.config.output.dir

    raw = _subclass_records(out / "raw.jsonl")
    confirmed = _subclass_records(out / "confirmed.jsonl")
    reliable = _subclass_records(out / "reliable.jsonl")
    prec_raw, prec_conf, prec_rel = (_precision(gt, rs) for rs in (raw, confirmed, reliable))
    assert prec_raw < 1.0, "run planted no false raw triples; ordering would be vacuous"
    assert prec_rel >= prec_conf >= prec_raw

    def mean_cv(path: Path, scored_path: Path) -> float:
        # A class's scores are its triples' lines in the scored file.
        triples = {r.triple for r in read_triple_file(path)}
        scored = [r for r in read_triple_file(scored_path) if r.triple in triples]
        assert len(scored) == len(triples)
        return sum(r.mean_score() for r in scored) / len(scored)

    gaps = read_triple_file(out / "gaps.jsonl")
    assert gaps
    assert (mean_cv(out / "gaps.jsonl", out / "scored_extrapolated.jsonl")
            < mean_cv(out / "confirmed.jsonl", out / "scored_raw.jsonl"))

    spec = ctx.config.model.synthetic
    model = SyntheticModel(gt, spec.noise, seed=spec.seed,
                           hallucination_rate=spec.hallucination_rate)
    extrapolated = read_triple_file(out / "extrapolated.jsonl")
    targets = [r.triple for r in extrapolated
               if gt.is_true(r.triple.relation, r.triple.subject.key, r.triple.object.key)
               and not model._familiar(r.triple.relation, r.triple.subject.key,
                                       r.triple.object.key)]
    assert targets, "no unfamiliar true conclusions planted; recall would be vacuous"
    gap_set = {r.triple for r in gaps}
    recall = sum(1 for t in targets if t in gap_set) / len(targets)
    assert recall >= 0.9

    rerun = RunContext(e2e_config(tmp_path, "rerun"), read_cache=False)
    run_all(rerun)
    for name in ("raw.jsonl", "calibration.json", "gaps.jsonl", "corpus.jsonl"):
        assert ((rerun.config.output.dir / name).read_bytes()
                == (out / name).read_bytes()), f"{name} not deterministic"

    elapsed = budget(4, started, 60.0)
    report(4, f"precision {prec_raw:.3f}<={prec_conf:.3f}<={prec_rel:.3f}, "
              f"gap recall {recall:.2f}, deterministic, {elapsed:.1f}s")


# --- criterion 5: corpus contract --------------------------------------------

CORPUS_KEYS = {"instruction", "output", "strategy", "gap", "chain",
               "template_id", "hint_included"}


def _gap_record(d: str, c_mids: list[str], a: str) -> TripleRecord:
    triple = Triple(normalize_label(d), Relation.SUBCLASS_OF, normalize_label(a))
    chains = [[(d, mid), (mid, a)] for mid in c_mids]
    return TripleRecord(triple, chains=chains)


def test_criterion_5_corpus_contract(tmp_path):
    started = time.monotonic()
    gt = sample_ground_truth(depth=1, branching=1, synonym_rate=0.0, seed=0)
    backend = SyntheticBackend(SyntheticModel(gt, NoiseProfile(), seed=0))
    gateway = ModelGateway(backend, model="synthetic", cache_dir=tmp_path / "cache")
    gaps = [
        _gap_record("ventricular fibrillation", ["arrhythmia"], "heart disease"),
        _gap_record("osteosarcoma", ["bone tumor"], "neoplasm"),
        _gap_record("basal cell carcinoma", ["skin cancer", "carcinoma"], "neoplasm"),
    ]
    config = SynthesisConfig(strategy="mix")
    entries, tallies = build_corpus(gateway, gaps, config)

    explicit = [e for e in entries if e.strategy == "explicit"]
    implicit = [e for e in entries if e.strategy == "implicit"]
    assert len(explicit) == 4  # one per chain
    assert len(implicit) == 20 and tallies.distill_drops == 0  # 5 per chain, none dropped

    for entry in implicit:
        d, c = entry.chain[0]
        _, a = entry.chain[1]
        hint = (HINT_TEMPLATE.replace("{D}", d).replace("{C}", c).replace("{A}", a))
        assert entry.instruction.endswith(hint)
        assert entry.hint_included

    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_triple_file(path_a, entries)
    entries_again, _ = build_corpus(gateway, gaps, config)  # warm cache replay
    write_triple_file(path_b, entries_again)
    assert path_a.read_bytes() == path_b.read_bytes()

    for line in path_a.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        assert set(obj) == CORPUS_KEYS
        assert set(obj["gap"]) == {"s", "o"}
        assert isinstance(obj["chain"], list) and len(obj["chain"]) == 2
        assert all(len(hop) == 2 for hop in obj["chain"])
        assert obj["strategy"] in ("explicit", "implicit")
        assert isinstance(obj["template_id"], int)
        assert isinstance(obj["hint_included"], bool)

    elapsed = budget(5, started, 30.0)
    report(5, f"4 explicit + 20 implicit, hint suffix exact, schema valid, "
              f"byte-identical reruns, {elapsed:.2f}s")


# --- criterion 6: report contract --------------------------------------------

def test_criterion_6_report_contract(e2e_run):
    started = time.monotonic()
    ctx, _ = e2e_run
    with (ctx.config.output.dir / "report.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Triple Type", "Relation", "Num", "ConfirmValue Avg.", "Acc."]

    num = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    assert num[("Raw", "SubclassOf")] >= num[("Confirmed", "SubclassOf")] \
        >= num[("Reliable", "SubclassOf")]
    assert num[("Extrapolated", "SubclassOf")] >= num[("Gap", "SubclassOf")]
    assert num[("Raw", "SynonymOf")] >= num[("Confirmed", "SynonymOf")]

    run_stage(ctx, "sweep")
    sweep_lines = (ctx.config.output.dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    counts = [int(line.split(",")[1]) for line in sweep_lines[1:]]
    assert counts and counts == sorted(counts)

    elapsed = budget(6, started, 30.0)
    report(6, f"table shape + conservation + monotone sweep, {elapsed:.2f}s")


# --- criterion 7: scope boundaries --------------------------------------------

def test_criterion_7_declared_non_goals():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert readme.exists(), "README.md missing"
    text = readme.read_text(encoding="utf-8")
    assert "non-goals" in text.casefold()
    assert "fine-tuning" in text.casefold()
    assert "synthetic" in text.casefold()
    report(7, "scope boundaries declared in README")
