"""Stage-oriented pipeline: extract, calibrate, confirm, reliable,
extrapolate, gap, synthesize, report, plus a threshold sweep.

Each stage reads the artifacts of the stages before it and writes its own,
so a run can be resumed or partially re-executed from any point. Artifacts
are written atomically and deterministically: given the same config and a
warm response cache, re-running a stage reproduces its outputs byte for
byte. A manifest records, per stage, the hashes of everything read and
written, plus enough provenance (config hash, prompt and template set
versions, model identity) to trace an artifact back to its settings.

Stages run sequentially. A stage hands its model requests to the gateway
in batches (see evontree.gateway); the gateway fans a batch out over
scoring.max_in_flight threads when it talks to an HTTP endpoint and runs
it on the calling thread for an in-process backend. Each stage's manifest
entry counts the requests, cache hits, backend calls and cache commits it
made.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .calibration import CalibrationOutcome, SweepSpec, calibrate_relation, collect_samples
from .config import RunConfig
from .errors import EmptySpanError, JudgeUnavailableError, MissingThresholdError, MissingUpstreamError
from .extraction import extract_forest
from .gateway import GATEWAY_COUNTERS, HttpBackend, ModelGateway
from .ontology import (
    Relation,
    Triple,
    TripleClass,
    TripleRecord,
    TripleStore,
    read_triple_file,
    tree_to_triples,
    write_triple_file,
)
from .report import (
    build_rows,
    histogram_rows,
    judge_triples,
    roc_rows,
    rows_to_csv,
    split_by_relation,
    sweep_gap_offsets,
    sweep_rows,
)
from .rules import (
    CLASS_CONFIRMED,
    CLASS_GAP,
    CLASS_UNDECIDED,
    classify_extrapolated,
    extrapolate,
    select_reliable,
)
from .scoring import PROMPT_SET_VERSION, confirm_decision, score_triples
from .scoring import score_triple  # noqa: F401  no stage calls it; perfbench/spans.py wraps it here
from .synthesis import TEMPLATE_SET_VERSION, build_corpus, write_corpus
from .synthetic import GroundTruth, SyntheticBackend, SyntheticModel, sample_ground_truth

log = logging.getLogger(__name__)

STAGE_ORDER = ("extract", "calibrate", "confirm", "reliable", "extrapolate",
               "gap", "synthesize", "report")


class Artifacts:
    """Where every pipeline product lives under the output directory."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.trees_dir = out_dir / "trees"
        self.ground_truth = out_dir / "ground_truth.json"
        self.raw = out_dir / "raw.jsonl"
        self.scored_raw = out_dir / "scored_raw.jsonl"
        self.calibration = out_dir / "calibration.json"
        self.confirmed = out_dir / "confirmed.jsonl"
        self.reliable = out_dir / "reliable.jsonl"
        self.extrapolated = out_dir / "extrapolated.jsonl"
        self.scored_extrapolated = out_dir / "scored_extrapolated.jsonl"
        self.gaps = out_dir / "gaps.jsonl"
        self.corpus = out_dir / "corpus.jsonl"
        self.report_json = out_dir / "report.json"
        self.report_csv = out_dir / "report.csv"
        self.roc_curve = out_dir / "roc_curve.csv"
        self.confirm_hist = out_dir / "confirm_hist.csv"
        self.sweep = out_dir / "sweep.csv"
        self.manifest = out_dir / "manifest.json"


class RunContext:
    """Shared state for one invocation: config, paths, and lazily built
    gateways so a pure stage never touches the model layer."""

    def __init__(self, config: RunConfig, read_cache: bool = True) -> None:
        self.config = config
        self.read_cache = read_cache
        self.paths = Artifacts(config.output.dir)
        self.paths.out_dir.mkdir(parents=True, exist_ok=True)
        self._ground_truth: GroundTruth | None = None
        self._gateway: ModelGateway | None = None
        self._judge_gateway: ModelGateway | None = None
        self._counted = dict.fromkeys(GATEWAY_COUNTERS, 0)

    def ground_truth(self) -> GroundTruth:
        spec = self.config.model.synthetic
        if spec is None:
            raise ValueError("ground truth only exists for the synthetic model")
        if self._ground_truth is None:
            self._ground_truth = sample_ground_truth(
                depth=spec.depth, branching=spec.branching,
                synonym_rate=spec.synonym_rate, seed=spec.seed, n_roots=spec.n_roots)
        return self._ground_truth

    def gateway(self) -> ModelGateway:
        if self._gateway is None:
            model_cfg = self.config.model
            if model_cfg.kind == "synthetic":
                spec = model_cfg.synthetic
                backend = SyntheticBackend(SyntheticModel(
                    self.ground_truth(), spec.noise, seed=spec.seed,
                    hallucination_rate=spec.hallucination_rate))
            else:
                backend = HttpBackend(model_cfg.endpoint)
            self._gateway = ModelGateway(
                backend, model=model_cfg.name,
                cache_dir=self.config.output.resolved_cache_dir(),
                read_cache=self.read_cache,
                max_in_flight=self.config.scoring.max_in_flight)
        return self._gateway

    def judge_gateway(self) -> ModelGateway | None:
        judge = self.config.model.judge
        if judge.kind == "none":
            return None
        if judge.kind == "self":
            return self.gateway()
        if self._judge_gateway is None:
            self._judge_gateway = ModelGateway(
                HttpBackend(judge.endpoint), model=judge.model,
                cache_dir=self.config.output.resolved_cache_dir(),
                read_cache=self.read_cache,
                max_in_flight=self.config.scoring.max_in_flight)
        return self._judge_gateway

    def _open_gateways(self) -> list[ModelGateway]:
        return [g for g in (self._gateway, self._judge_gateway) if g is not None]

    def close(self) -> None:
        """Close the gateways this context opened."""
        for gateway in self._open_gateways():
            gateway.close()

    def take_gateway_counts(self) -> dict[str, int]:
        """The gateways' counters summed, less their sums at the previous
        call: what happened since then."""
        totals = dict.fromkeys(GATEWAY_COUNTERS, 0)
        for gateway in self._open_gateways():
            for name, count in gateway.counters().items():
                totals[name] += count
        delta = {name: totals[name] - self._counted[name] for name in GATEWAY_COUNTERS}
        self._counted = totals
        return delta

    def model_identity(self) -> str:
        model_cfg = self.config.model
        if model_cfg.kind == "synthetic":
            spec = model_cfg.synthetic
            gt_hash = self.ground_truth().content_hash()[:8]
            return f"synthetic://{spec.seed}/{gt_hash}#{model_cfg.name}"
        return f"{model_cfg.endpoint}#{model_cfg.name}"

    def map_concurrent(self, fn: Callable, items: Sequence, gateway: ModelGateway) -> list:
        """fn over items, in order, fanned out as gateway.fan_out does.

        Stages no longer call this: they batch their requests through
        ModelGateway.score_many and generate_many, which fan out
        themselves. The method stays because perfbench/spans.py wraps it
        by name.
        """
        return gateway.fan_out(fn, items)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _file_hash(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _write_csv(path: Path, rows: Iterable[Sequence[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(buf.getvalue(), encoding="utf-8")
    tmp.replace(path)


def _require(paths: Iterable[Path], stage: str) -> None:
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise MissingUpstreamError(
            f"stage {stage!r} needs upstream artifact(s) {missing}; "
            "run the earlier stages first")


def _load_manifest(ctx: RunContext) -> dict:
    path = ctx.paths.manifest
    if path.exists():
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.setdefault("stages", {})
        return manifest
    return {"stages": {}}


def _finish_stage(ctx: RunContext, stage: str, inputs: Sequence[Path],
                  outputs: Sequence[Path], tallies: dict,
                  extra_top: dict | None = None) -> None:
    manifest = _load_manifest(ctx)
    manifest.update({
        "tool_version": __version__,
        "config_hash": ctx.config.config_hash(),
        "prompt_set": PROMPT_SET_VERSION,
        "template_set": TEMPLATE_SET_VERSION,
        "perplexity_base": "e",
        "model_identity": ctx.model_identity(),
        "judge": ctx.config.model.judge.kind,
    })
    if extra_top:
        manifest.update(extra_top)
    rel = ctx.paths.out_dir

    def hashes(paths: Sequence[Path]) -> dict:
        return {str(p.relative_to(rel)): _file_hash(p) for p in sorted(paths)}

    manifest["stages"][stage] = {
        "completed_at": _utc_now(),
        "inputs": hashes(inputs),
        "outputs": hashes(outputs),
        "tallies": tallies,
        "gateway": ctx.take_gateway_counts(),
    }
    _write_json(ctx.paths.manifest, manifest)


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.casefold()).strip("-") or "root"


def stage_extract(ctx: RunContext) -> None:
    """Elicit one tree per configured root; flatten the forest to raw triples."""
    config = ctx.config
    forest, stats = extract_forest(ctx.gateway(), config.extraction)
    ctx.paths.trees_dir.mkdir(parents=True, exist_ok=True)
    tree_paths = []
    used: set[str] = set()
    for tree in forest:
        slug = _slug(tree.root.text)
        while slug in used:
            slug += "-2"
        used.add(slug)
        path = ctx.paths.trees_dir / f"{slug}.json"
        _write_json(path, tree.to_json_obj())
        tree_paths.append(path)

    triples: set[Triple] = set()
    reflexive_skipped = 0
    for tree in forest:
        tree_triples, skipped = tree_to_triples(tree)
        triples |= tree_triples
        reflexive_skipped += skipped
    write_triple_file(ctx.paths.raw, [TripleRecord(t, TripleClass.RAW) for t in triples])

    outputs = [ctx.paths.raw, *tree_paths]
    if config.model.kind == "synthetic":
        _write_json(ctx.paths.ground_truth, ctx.ground_truth().to_json_obj())
        outputs.append(ctx.paths.ground_truth)
    by_relation = Counter(t.relation.value for t in triples)
    _finish_stage(ctx, "extract", inputs=[], outputs=outputs, tallies={
        **stats.to_json_obj(),
        "reflexive_skipped": reflexive_skipped,
        "raw_triples": dict(sorted(by_relation.items())),
    })


def _score_records(ctx: RunContext, triples: Sequence[Triple]) -> tuple[list, int]:
    """Score triples in gateway batches. A triple whose completion yields
    no scoreable tokens is dropped whole and tallied; transport failures
    propagate, since a dead endpoint should fail the stage."""
    scored = []
    for triple, result in zip(triples, score_triples(ctx.gateway(), triples)):
        if isinstance(result, EmptySpanError):
            log.warning("leaving %r unscored: %s", triple, result)
        else:
            scored.append(result)
    return scored, len(triples) - len(scored)


def stage_calibrate(ctx: RunContext) -> None:
    """Score every raw triple, then fit per-template confirm thresholds
    against the model's own one-shot labels."""
    paths = ctx.paths
    _require([paths.raw], "calibrate")
    raw_records = read_triple_file(paths.raw)
    scored, unscored = _score_records(ctx, [r.triple for r in raw_records])
    write_triple_file(paths.scored_raw, [
        TripleRecord(st.triple, TripleClass.RAW, scores=st.values) for st in scored])

    sweep = SweepSpec(lo=ctx.config.calibration.sweep_lo, hi=ctx.config.calibration.sweep_hi)
    by_relation = {}
    unparseable = 0
    for relation in Relation:
        if not any(st.triple.relation is relation for st in scored):
            continue
        samples, dropped = collect_samples(ctx.gateway(), scored, relation)
        unparseable += dropped
        by_relation[relation.value] = calibrate_relation(samples, sweep)
    outcome = CalibrationOutcome(sweep=sweep, prompt_set=PROMPT_SET_VERSION,
                                 by_relation=by_relation, unparseable=unparseable)
    _write_json(paths.calibration, outcome.to_json_obj())

    thresholds = {
        relation: {key: fit.tau_star for key, fit in sorted(fits.items())}
        for relation, fits in sorted(by_relation.items())
    }
    _finish_stage(ctx, "calibrate", inputs=[paths.raw],
                  outputs=[paths.scored_raw, paths.calibration],
                  tallies={"unscored": unscored, "unparseable_labels": unparseable},
                  extra_top={"thresholds": thresholds})


def _load_calibration(path: Path) -> CalibrationOutcome:
    return CalibrationOutcome.from_json_obj(json.loads(path.read_text(encoding="utf-8")))


def _thresholds_or_fail(outcome: CalibrationOutcome, relation: Relation) -> list[float]:
    if relation.value not in outcome.by_relation:
        raise MissingThresholdError(f"no calibrated thresholds for {relation.value}")
    return outcome.thresholds(relation)


def stage_confirm(ctx: RunContext) -> None:
    """Pure partition of the scored raw triples against the calibrated
    thresholds; involves no model calls."""
    paths = ctx.paths
    _require([paths.scored_raw, paths.calibration], "confirm")
    outcome = _load_calibration(paths.calibration)
    records = read_triple_file(paths.scored_raw)
    confirmed = []
    for record in records:
        taus = _thresholds_or_fail(outcome, record.triple.relation)
        if confirm_decision(record.scores, taus):
            confirmed.append(TripleRecord(record.triple, TripleClass.CONFIRMED,
                                          scores=record.scores))
    write_triple_file(paths.confirmed, confirmed)
    by_relation = Counter(r.triple.relation.value for r in confirmed)
    _finish_stage(ctx, "confirm", inputs=[paths.scored_raw, paths.calibration],
                  outputs=[paths.confirmed],
                  tallies={"confirmed": dict(sorted(by_relation.items())),
                           "rejected": len(records) - len(confirmed)})


def stage_reliable(ctx: RunContext) -> None:
    """Keep the confirmed subclass triples corroborated by a confirmed
    synonym triangle; scores carry over from confirmation."""
    paths = ctx.paths
    _require([paths.confirmed], "reliable")
    records = read_triple_file(paths.confirmed)
    store = TripleStore(r.triple for r in records)
    scores_by_triple = {r.triple: r.scores for r in records}
    reliable = select_reliable(store)
    write_triple_file(paths.reliable, [
        TripleRecord(t, TripleClass.RELIABLE, scores=scores_by_triple.get(t))
        for t in reliable])
    _finish_stage(ctx, "reliable", inputs=[paths.confirmed], outputs=[paths.reliable],
                  tallies={"reliable": len(reliable)})


def stage_extrapolate(ctx: RunContext) -> None:
    """Compose reliable subclass pairs one hop, keep only candidates new to
    everything already known, then score them for the gap decision."""
    paths = ctx.paths
    _require([paths.raw, paths.confirmed, paths.reliable], "extrapolate")
    reliable_records = read_triple_file(paths.reliable)
    known_records = (read_triple_file(paths.raw) + read_triple_file(paths.confirmed)
                     + reliable_records)
    existing = TripleStore(r.triple for r in known_records)
    reliable = [r.triple for r in reliable_records]
    candidates = extrapolate(reliable, existing, hops=ctx.config.rules.hops)

    reliable_sub = [t for t in reliable if t.relation is Relation.SUBCLASS_OF]
    by_subject = Counter(t.subject.key for t in reliable_sub)
    compositions = sum(by_subject.get(t.object.key, 0) for t in reliable_sub)

    ext_records = [
        TripleRecord(
            c.triple, TripleClass.EXTRAPOLATED,
            chains=[[(lower.subject.text, lower.object.text),
                     (upper.subject.text, upper.object.text)]
                    for lower, upper in c.chains])
        for c in candidates
    ]
    write_triple_file(paths.extrapolated, ext_records)

    chains_by_triple = {r.triple: r.chains for r in ext_records}
    scored, unscored = _score_records(ctx, [r.triple for r in ext_records])
    write_triple_file(paths.scored_extrapolated, [
        TripleRecord(st.triple, TripleClass.EXTRAPOLATED, scores=st.values,
                     chains=chains_by_triple[st.triple])
        for st in scored])
    _finish_stage(ctx, "extrapolate",
                  inputs=[paths.raw, paths.confirmed, paths.reliable],
                  outputs=[paths.extrapolated, paths.scored_extrapolated],
                  tallies={"compositions": compositions,
                           "extrapolated_new": len(ext_records),
                           "unscored": unscored})


def stage_gap(ctx: RunContext) -> None:
    """Classify scored extrapolations: above threshold everywhere extends
    the ontology, below per the gap mode is a knowledge gap."""
    paths = ctx.paths
    _require([paths.scored_extrapolated, paths.calibration], "gap")
    outcome = _load_calibration(paths.calibration)
    records = read_triple_file(paths.scored_extrapolated)
    counts = Counter()
    gaps = []
    for record in records:
        taus = _thresholds_or_fail(outcome, record.triple.relation)
        verdict = classify_extrapolated(record.scores, taus, ctx.config.gap.mode)
        counts[verdict] += 1
        if verdict == CLASS_GAP:
            gaps.append(TripleRecord(record.triple, TripleClass.GAP,
                                     scores=record.scores, chains=record.chains))
    write_triple_file(paths.gaps, gaps)
    _finish_stage(ctx, "gap", inputs=[paths.scored_extrapolated, paths.calibration],
                  outputs=[paths.gaps],
                  tallies={"confirmed": counts.get(CLASS_CONFIRMED, 0),
                           "gap": counts.get(CLASS_GAP, 0),
                           "undecided": counts.get(CLASS_UNDECIDED, 0),
                           "gap_mode": ctx.config.gap.mode})


def stage_synthesize(ctx: RunContext) -> None:
    """Distill a training corpus targeting the mined gaps."""
    paths = ctx.paths
    _require([paths.gaps], "synthesize")
    gaps = read_triple_file(paths.gaps)
    entries, tallies = build_corpus(ctx.gateway(), gaps, ctx.config.synthesis)
    write_corpus(paths.corpus, entries)
    by_strategy = Counter(e.strategy for e in entries)
    _finish_stage(ctx, "synthesize", inputs=[paths.gaps], outputs=[paths.corpus],
                  tallies={**tallies.to_json_obj(),
                           "entries": dict(sorted(by_strategy.items())),
                           "strategy": ctx.config.synthesis.strategy,
                           "strip_hint": ctx.config.synthesis.strip_hint})


def stage_report(ctx: RunContext) -> None:
    """Summarize every triple class into the stats table, histogram, and
    ROC CSV; audit accuracy through the judge when one is configured."""
    paths = ctx.paths
    needed = [paths.raw, paths.scored_raw, paths.calibration, paths.confirmed,
              paths.reliable, paths.extrapolated, paths.scored_extrapolated, paths.gaps]
    _require(needed, "report")
    outcome = _load_calibration(paths.calibration)

    raw = read_triple_file(paths.raw)
    scored_raw = read_triple_file(paths.scored_raw)
    confirmed = read_triple_file(paths.confirmed)
    reliable = read_triple_file(paths.reliable)
    extrapolated = read_triple_file(paths.extrapolated)
    scored_ext = read_triple_file(paths.scored_extrapolated)
    gaps = read_triple_file(paths.gaps)

    nums: dict[tuple[TripleClass, Relation], int] = {}
    scored: dict[tuple[TripleClass, Relation], list[TripleRecord]] = {}
    for triple_class, counted, with_scores in (
        (TripleClass.RAW, raw, scored_raw),
        (TripleClass.CONFIRMED, confirmed, confirmed),
        (TripleClass.RELIABLE, reliable, reliable),
        (TripleClass.EXTRAPOLATED, extrapolated, scored_ext),
        (TripleClass.GAP, gaps, gaps),
    ):
        for relation, records in split_by_relation(counted).items():
            nums[(triple_class, relation)] = len(records)
        for relation, records in split_by_relation(with_scores).items():
            scored[(triple_class, relation)] = records

    verdicts = None
    judge_unparseable = 0
    judge_unavailable = False
    judge_gateway = ctx.judge_gateway()
    if judge_gateway is not None:
        audited = sorted({r.triple for group in (raw, extrapolated) for r in group},
                         key=lambda t: t.sort_key)
        try:
            verdicts, judge_unparseable = judge_triples(judge_gateway, audited)
        except JudgeUnavailableError as exc:
            log.warning("judge unavailable, reporting without accuracy: %s", exc)
            judge_unavailable = True

    rows = build_rows(nums, scored, verdicts)
    unscored = {
        "raw": len(raw) - len(scored_raw),
        "extrapolated": len(extrapolated) - len(scored_ext),
    }
    _write_json(paths.report_json, {
        "rows": [row.to_json_obj() for row in rows],
        "judge": ctx.config.model.judge.kind,
        "judge_unavailable": judge_unavailable,
        "judge_unparseable": judge_unparseable,
        "unscored": unscored,
    })
    _write_csv(paths.report_csv, rows_to_csv(rows, with_acc=verdicts is not None))
    _write_csv(paths.confirm_hist, histogram_rows(scored, verdicts))
    _write_csv(paths.roc_curve, roc_rows(outcome))
    _finish_stage(ctx, "report", inputs=needed,
                  outputs=[paths.report_json, paths.report_csv,
                           paths.confirm_hist, paths.roc_curve],
                  tallies={"judge_unavailable": judge_unavailable,
                           "judge_unparseable": judge_unparseable,
                           "unscored": unscored})


def stage_sweep(ctx: RunContext) -> None:
    """Gap yield across shifted thresholds; no corpus synthesis involved."""
    paths = ctx.paths
    _require([paths.scored_extrapolated, paths.calibration], "sweep")
    outcome = _load_calibration(paths.calibration)
    records = read_triple_file(paths.scored_extrapolated)
    if records:
        taus = _thresholds_or_fail(outcome, Relation.SUBCLASS_OF)
    else:
        taus = []
    points = sweep_gap_offsets(records, taus, ctx.config.gap.sweep_offsets,
                               mode=ctx.config.gap.mode)
    _write_csv(paths.sweep, sweep_rows(points))
    _finish_stage(ctx, "sweep", inputs=[paths.scored_extrapolated, paths.calibration],
                  outputs=[paths.sweep],
                  tallies={"offsets": len(points), "gap_mode": ctx.config.gap.mode})


STAGES: dict[str, Callable[[RunContext], None]] = {
    "extract": stage_extract,
    "calibrate": stage_calibrate,
    "confirm": stage_confirm,
    "reliable": stage_reliable,
    "extrapolate": stage_extrapolate,
    "gap": stage_gap,
    "synthesize": stage_synthesize,
    "report": stage_report,
}


def run_stage(ctx: RunContext, name: str) -> None:
    if name not in STAGES:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGE_ORDER}")
    log.info("stage %s starting", name)
    STAGES[name](ctx)
    log.info("stage %s done", name)


def run_all(ctx: RunContext) -> None:
    for name in STAGE_ORDER:
        run_stage(ctx, name)
