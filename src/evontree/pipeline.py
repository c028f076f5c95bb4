"""Stage-oriented pipeline: extract, calibrate, confirm, reliable,
extrapolate, gap, synthesize, report, plus a threshold sweep.

TABLE names each stage's body and the artifacts it reads and writes;
run_stage does the rest. It loads the inputs for the body, which writes its
outputs atomically and returns its tallies, and records in the manifest the
hashes of everything read and written, plus the provenance (config hash,
prompt and template set versions, model identity) of the artifacts. Each
stage's entry holds its own config_hash, model_identity and wall_s (from the
input check to the manifest write); the top-level keys name the stage run
last. A run can be resumed or re-executed from any stage, and given the same
config and a warm response cache, re-running a stage reproduces its outputs
byte for byte.

Under run_all, stages hand records over in memory: a body keeps what it
writes to a triple file or calibration.json, as parsing the file would
return it, and a later stage of the same RunContext receives the kept value
if the file still has the hash recorded when it was written. Every file is
still written, hashed and checked as below; a stage run alone, or one whose
input another process rewrote, parses the input from the bytes it hashed.

The manifest's hashes are checked, not just stored. run_stage refuses a
stage with MissingUpstreamError (exit code 3 in the CLI) when an input is
missing, and with its subclass StaleUpstreamError when an input differs
from what its stage last wrote, or a stage upstream read another version of
an artifact than the one last written (say, extract reran with another seed
after calibrate). The error names each such artifact and the stage to
rerun; rerunning those and the stages after them clears it. An input whose
producer has no manifest entry is accepted.

Stages run sequentially and batch their model requests through the gateway
(see evontree.gateway), which fans a batch out over scoring.max_in_flight
threads for an HTTP endpoint and runs it on the calling thread for an
in-process backend. run_stage commits the responses a stage stored once its
body returns. Each stage's manifest entry counts the requests, cache hits,
backend calls and cache commits it made.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __version__
from .calibration import CalibrationOutcome, calibrate_relation, collect_samples
from .config import RunConfig
from .errors import EmptySpanError, JudgeUnavailableError, MissingUpstreamError, StaleUpstreamError
from .extraction import extract_forest
from .gateway import GATEWAY_COUNTERS, HttpBackend, ModelGateway
from .ontology import (
    Relation,
    Triple,
    TripleClass,
    TripleRecord,
    TripleStore,
    parse_triple_file,
    read_triple_file,  # noqa: F401  no stage calls it; perfbench/spans.py wraps it here
    tree_to_triples,
    write_atomic,
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

    def name(self, path: Path) -> str:
        """path as the manifest names it: relative to the output directory."""
        return str(path.relative_to(self.out_dir))


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
        # The stage bodies' parsed outputs, by Artifacts attribute, that
        # run_stage hands to later stages in place of parsing the file:
        # those of the running stage in _written, then, once it completes,
        # in _kept with the hash it recorded for the file.
        self._written: dict[str, object] = {}
        self._kept: dict[str, tuple[str, object]] = {}

    def keep(self, attr: str, value) -> None:
        """Keep value, what the running stage wrote to paths.<attr> as
        _load_input would parse it back, to hand on if the stage completes."""
        self._written[attr] = value

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
        """fn over items, in order, fanned out as gateway.fan_out does. No
        stage calls it; it stays because perfbench/spans.py wraps it by name."""
        return gateway.fan_out(fn, items)


class StageResult(NamedTuple):
    """What a stage body returns when it has more to report than tallies:
    the files it wrote besides its declared outputs."""

    tallies: dict
    extra_outputs: Sequence[Path] = ()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _file_hash(path: Path) -> str:
    return _digest(path.read_bytes())


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False) + "\n")


def _write_csv(path: Path, rows: Iterable[Sequence[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_atomic(path, buf.getvalue())


def _write_records(ctx: RunContext, attr: str, records: Iterable[TripleRecord]) -> None:
    """Write the triple file paths.<attr> and keep its records, sorted as
    the file holds them."""
    ctx.keep(attr, write_triple_file(getattr(ctx.paths, attr), records))


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.casefold()).strip("-") or "root"


def stage_extract(ctx: RunContext) -> StageResult:
    """Elicit one tree per configured root; flatten the forest to raw triples."""
    config = ctx.config
    forest, stats = extract_forest(ctx.gateway(), config.extraction)
    ctx.paths.trees_dir.mkdir(parents=True, exist_ok=True)
    extra_outputs = []
    used: set[str] = set()
    for tree in forest:
        slug = _slug(tree.root.text)
        while slug in used:
            slug += "-2"
        used.add(slug)
        path = ctx.paths.trees_dir / f"{slug}.json"
        _write_json(path, tree.to_json_obj())
        extra_outputs.append(path)

    triples: set[Triple] = set()
    reflexive_skipped = 0
    for tree in forest:
        tree_triples, skipped = tree_to_triples(tree)
        triples |= tree_triples
        reflexive_skipped += skipped
    _write_records(ctx, "raw", [TripleRecord(t, TripleClass.RAW) for t in triples])

    if config.model.kind == "synthetic":
        _write_json(ctx.paths.ground_truth, ctx.ground_truth().to_json_obj())
        extra_outputs.append(ctx.paths.ground_truth)
    by_relation = Counter(t.relation.value for t in triples)
    return StageResult({
        **stats.to_json_obj(),
        "reflexive_skipped": reflexive_skipped,
        "raw_triples": dict(sorted(by_relation.items())),
    }, extra_outputs=extra_outputs)


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


def stage_calibrate(ctx: RunContext, raw: list[TripleRecord]) -> dict:
    """Score every raw triple, then fit per-template confirm thresholds
    against the model's own one-shot labels; their ROC curves go to
    roc_curve.csv."""
    paths = ctx.paths
    scored, unscored = _score_records(ctx, [r.triple for r in raw])
    _write_records(ctx, "scored_raw", [
        TripleRecord(st.triple, TripleClass.RAW, scores=st.values) for st in scored])

    sweep = ctx.config.calibration.sweep()
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
    ctx.keep("calibration", outcome)
    _write_csv(paths.roc_curve, roc_rows(outcome))
    return {"unscored": unscored, "unparseable_labels": unparseable}


def stage_confirm(ctx: RunContext, scored_raw: list[TripleRecord],
                  calibration: CalibrationOutcome) -> dict:
    """Pure partition of the scored raw triples against the calibrated
    thresholds; involves no model calls."""
    confirmed = []
    for record in scored_raw:
        taus = calibration.thresholds(record.triple.relation)
        if confirm_decision(record.scores, taus):
            confirmed.append(TripleRecord(record.triple, TripleClass.CONFIRMED,
                                          scores=record.scores))
    _write_records(ctx, "confirmed", confirmed)
    by_relation = Counter(r.triple.relation.value for r in confirmed)
    return {"confirmed": dict(sorted(by_relation.items())),
            "rejected": len(scored_raw) - len(confirmed)}


def stage_reliable(ctx: RunContext, confirmed: list[TripleRecord]) -> dict:
    """Keep the confirmed subclass triples corroborated by a confirmed
    synonym triangle; scores carry over from confirmation."""
    store = TripleStore(r.triple for r in confirmed)
    scores_by_triple = {r.triple: r.scores for r in confirmed}
    reliable = select_reliable(store)
    _write_records(ctx, "reliable", [
        TripleRecord(t, TripleClass.RELIABLE, scores=scores_by_triple.get(t))
        for t in reliable])
    return {"reliable": len(reliable)}


def stage_extrapolate(ctx: RunContext, raw: list[TripleRecord],
                      confirmed: list[TripleRecord], reliable: list[TripleRecord]) -> dict:
    """Compose reliable subclass pairs one hop, keep only candidates new to
    everything already known, then score them for the gap decision."""
    existing = TripleStore(r.triple for r in raw + confirmed + reliable)
    reliable_triples = [r.triple for r in reliable]
    candidates = extrapolate(reliable_triples, existing, hops=ctx.config.rules.hops)

    reliable_sub = [t for t in reliable_triples if t.relation is Relation.SUBCLASS_OF]
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
    _write_records(ctx, "extrapolated", ext_records)

    chains_by_triple = {r.triple: r.chains for r in ext_records}
    scored, unscored = _score_records(ctx, [r.triple for r in ext_records])
    _write_records(ctx, "scored_extrapolated", [
        TripleRecord(st.triple, TripleClass.EXTRAPOLATED, scores=st.values,
                     chains=chains_by_triple[st.triple])
        for st in scored])
    return {"compositions": compositions,
            "extrapolated_new": len(ext_records),
            "unscored": unscored}


def stage_gap(ctx: RunContext, scored_extrapolated: list[TripleRecord],
              calibration: CalibrationOutcome) -> dict:
    """Classify scored extrapolations: above threshold everywhere extends
    the ontology, below per the gap mode is a knowledge gap."""
    counts = Counter()
    gaps = []
    for record in scored_extrapolated:
        taus = calibration.thresholds(record.triple.relation)
        verdict = classify_extrapolated(record.scores, taus, ctx.config.gap.mode)
        counts[verdict] += 1
        if verdict == CLASS_GAP:
            gaps.append(TripleRecord(record.triple, TripleClass.GAP,
                                     scores=record.scores, chains=record.chains))
    _write_records(ctx, "gaps", gaps)
    return {"confirmed": counts.get(CLASS_CONFIRMED, 0),
            "gap": counts.get(CLASS_GAP, 0),
            "undecided": counts.get(CLASS_UNDECIDED, 0),
            "gap_mode": ctx.config.gap.mode}


def stage_synthesize(ctx: RunContext, gaps: list[TripleRecord]) -> dict:
    """Distill a training corpus targeting the mined gaps."""
    entries, tallies = build_corpus(ctx.gateway(), gaps, ctx.config.synthesis)
    write_corpus(ctx.paths.corpus, entries)
    by_strategy = Counter(e.strategy for e in entries)
    return {**tallies.to_json_obj(),
            "entries": dict(sorted(by_strategy.items())),
            "strategy": ctx.config.synthesis.strategy,
            "strip_hint": ctx.config.synthesis.strip_hint}


def stage_report(ctx: RunContext, raw: list[TripleRecord], scored_raw: list[TripleRecord],
                 confirmed: list[TripleRecord], reliable: list[TripleRecord],
                 extrapolated: list[TripleRecord], scored_extrapolated: list[TripleRecord],
                 gaps: list[TripleRecord]) -> dict:
    """Summarize every triple class into the stats table and histogram;
    audit accuracy through the judge when one is configured."""
    paths = ctx.paths
    nums: dict[tuple[TripleClass, Relation], int] = {}
    scored: dict[tuple[TripleClass, Relation], list[TripleRecord]] = {}
    for triple_class, counted, with_scores in (
        (TripleClass.RAW, raw, scored_raw),
        (TripleClass.CONFIRMED, confirmed, confirmed),
        (TripleClass.RELIABLE, reliable, reliable),
        (TripleClass.EXTRAPOLATED, extrapolated, scored_extrapolated),
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
        "extrapolated": len(extrapolated) - len(scored_extrapolated),
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
    return {"judge_unavailable": judge_unavailable,
            "judge_unparseable": judge_unparseable,
            "unscored": unscored}


def stage_sweep(ctx: RunContext, scored_extrapolated: list[TripleRecord],
                calibration: CalibrationOutcome) -> dict:
    """Gap yield across shifted thresholds; no corpus synthesis involved."""
    if scored_extrapolated:
        taus = calibration.thresholds(Relation.SUBCLASS_OF)
    else:
        taus = []
    points = sweep_gap_offsets(scored_extrapolated, taus, ctx.config.gap.sweep_offsets,
                               mode=ctx.config.gap.mode)
    _write_csv(ctx.paths.sweep, sweep_rows(points))
    return {"offsets": len(points), "gap_mode": ctx.config.gap.mode}


# Every stage: its body, the artifacts it reads and those it writes, by
# Artifacts attribute. The runner loads the inputs and passes them to the
# body by attribute name. `run` runs the stages in this order, sweep aside.
TABLE: dict[str, tuple[Callable, tuple[str, ...], tuple[str, ...]]] = {
    "extract": (stage_extract, (), ("raw",)),
    "calibrate": (stage_calibrate, ("raw",), ("scored_raw", "calibration", "roc_curve")),
    "confirm": (stage_confirm, ("scored_raw", "calibration"), ("confirmed",)),
    "reliable": (stage_reliable, ("confirmed",), ("reliable",)),
    "extrapolate": (stage_extrapolate, ("raw", "confirmed", "reliable"),
                    ("extrapolated", "scored_extrapolated")),
    "gap": (stage_gap, ("scored_extrapolated", "calibration"), ("gaps",)),
    "synthesize": (stage_synthesize, ("gaps",), ("corpus",)),
    "report": (stage_report,
               ("raw", "scored_raw", "confirmed", "reliable",
                "extrapolated", "scored_extrapolated", "gaps"),
               ("report_json", "report_csv", "confirm_hist")),
    "sweep": (stage_sweep, ("scored_extrapolated", "calibration"), ("sweep",)),
}
STAGE_ORDER = tuple(name for name in TABLE if name != "sweep")
# The body the runner calls, looked up at call time, so it can be wrapped.
STAGES: dict[str, Callable] = {name: body for name, (body, _, _) in TABLE.items()}


def _load_input(attr: str, data: bytes):
    """An input artifact, parsed from its bytes, as its stage body takes it."""
    if attr == "calibration":
        return CalibrationOutcome.from_json_obj(json.loads(data.decode("utf-8")))
    return parse_triple_file(data)


def _stale_inputs(paths: Artifacts, stages: dict, name: str, read: dict[str, str]) -> list[str]:
    """Each input of stage name whose hash, in read, is not the one its
    producer last recorded writing; then, going up the table, each input an
    upstream stage recorded reading that its producer has since rewritten,
    from the manifest's records alone. Each as "file (rerun 'stage')"."""
    producer = {paths.name(getattr(paths, attr)): stage
                for stage, (_, _, outputs) in TABLE.items() for attr in outputs}

    def changed(digests: dict[str, str]) -> list[str]:
        """The files whose producer last recorded writing another hash."""
        return [file for file, digest in digests.items()
                if stages.get(producer.get(file), {}).get("outputs", {}).get(file, digest)
                != digest]

    stale = {f"{file} (rerun {producer[file]!r})" for file in changed(read)}
    todo, seen = [name], set()
    while todo:
        for attr in TABLE[todo.pop()][1]:
            upstream = producer[paths.name(getattr(paths, attr))]
            if upstream not in seen:
                seen.add(upstream)
                todo.append(upstream)
                recorded = stages.get(upstream, {}).get("inputs", {})
                stale |= {f"{file} (rerun {upstream!r})" for file in changed(recorded)}
    return sorted(stale)


def run_stage(ctx: RunContext, name: str) -> None:
    """Run one stage of TABLE: refuse it if an input is missing or stale,
    load its inputs, run its body, and record what it read and wrote.

    Each input file is read once, to hash it. An input that a stage of ctx
    wrote and kept is handed over as kept if the file still has the hash
    recorded when it was written; any other input is parsed from the bytes
    just hashed."""
    if name not in TABLE:
        raise ValueError(f"unknown stage {name!r}; expected one of {tuple(TABLE)}")
    log.info("stage %s starting", name)
    start = time.perf_counter()
    paths = ctx.paths
    _, inputs, outputs = TABLE[name]
    missing = [str(getattr(paths, attr)) for attr in inputs if not getattr(paths, attr).exists()]
    if missing:
        raise MissingUpstreamError(
            f"stage {name!r} needs upstream artifact(s) {missing}; "
            "run the earlier stages first")
    stages = {}
    if paths.manifest.exists():
        stages = json.loads(paths.manifest.read_text(encoding="utf-8")).get("stages", {})
    blobs = {attr: getattr(paths, attr).read_bytes() for attr in inputs}
    digests = {attr: _digest(blob) for attr, blob in blobs.items()}
    read = {paths.name(getattr(paths, attr)): digest for attr, digest in digests.items()}
    stale = _stale_inputs(paths, stages, name, read)
    if stale:
        raise StaleUpstreamError(
            f"stage {name!r} refused: upstream artifact(s) changed since the stages "
            f"that wrote or read them last ran: {', '.join(stale)}; rerun the named "
            "stages and the ones after them")

    kwargs = {}
    for attr in inputs:
        kept_digest, kept = ctx._kept.get(attr, (None, None))
        kwargs[attr] = kept if kept_digest == digests[attr] else _load_input(attr, blobs[attr])
    del blobs
    ctx._written.clear()
    result = STAGES[name](ctx, **kwargs)
    # The stage's responses are committed before its entry records it done.
    for gateway in ctx._open_gateways():
        gateway.commit()
    if isinstance(result, dict):
        result = StageResult(result)
    written = [getattr(paths, attr) for attr in outputs] + list(result.extra_outputs)
    hashes = {paths.name(path): _file_hash(path) for path in written}
    for attr, value in ctx._written.items():
        ctx._kept[attr] = (hashes[paths.name(getattr(paths, attr))], value)
    provenance = {"config_hash": ctx.config.config_hash(), "model_identity": ctx.model_identity()}
    stages[name] = {
        "completed_at": _utc_now(),
        **provenance,
        "inputs": read,
        "outputs": hashes,
        "tallies": result.tallies,
        "gateway": ctx.take_gateway_counts(),
        "wall_s": round(time.perf_counter() - start, 6),
    }
    # Only the stage entries carry over; the top level is written afresh, so
    # no key an earlier version wrote outlives it.
    _write_json(paths.manifest, {
        "tool_version": __version__,
        "prompt_set": PROMPT_SET_VERSION,
        "template_set": TEMPLATE_SET_VERSION,
        "perplexity_base": "e",
        "judge": ctx.config.model.judge.kind,
        **provenance,
        "stages": stages,
    })
    log.info("stage %s done", name)


def run_all(ctx: RunContext) -> None:
    for name in STAGE_ORDER:
        run_stage(ctx, name)
