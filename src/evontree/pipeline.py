"""Stage-oriented pipeline: extract, calibrate, confirm, reliable,
extrapolate, gap, synthesize, report, plus a threshold sweep.

TABLE names each stage's body and the files it reads and writes. run_stage
passes the body its inputs in TABLE order; the body returns each output's
value, by file name, and its tallies; run_stage then writes each
output atomically (records as JSONL, rows as CSV, the rest as JSON) and
records in the manifest the hashes of those inputs and outputs, plus the
provenance (config hash, prompt and template set versions, model identity)
of the artifacts. A body that raises leaves every output as it was. Every
file a stage writes is one of its TABLE outputs, written by run_stage at
the top of the output directory; no body writes one itself. Each stage's
entry holds its own config_hash, model_identity and wall_s (from the input
check to the manifest write).
A run can be resumed or re-executed from any stage, and given the same
config and a warm response cache, re-running a stage reproduces its
outputs byte for byte.

One stage at a time writes to an output directory: run_stage holds an
exclusive flock on its lock file from reading the manifest to writing it,
and a stage started on a directory where another process holds it fails at
once with DirectoryBusyError, naming the holder's pid. The kernel drops the
lock when its holder dies, so a killed stage leaves nothing to clean up.

Under run_all, stages hand records over in memory: for each output some
stage reads, run_stage keeps what its writer returns, as parsing the file
would return it (the records in the file's order, or calibration.json's
map of fits), and a later stage of the same RunContext receives the
kept value if the file still has the hash recorded when it was written.
Every file is still written, hashed and checked as below; a stage run
alone, or one whose input another process rewrote, parses the input from
the bytes it hashed.

The manifest's hashes are checked, not just stored. run_stage refuses a
stage with MissingUpstreamError (exit code 3 in the CLI) when an input is
missing, and with its subclass StaleUpstreamError when an input differs
from what its stage last wrote, or a stage upstream read another version of
an artifact than the one last written (say, extract reran with another seed
after calibrate). The error names each such artifact and the stage to
rerun; rerunning those and the stages after them clears it. An input whose
producer has no manifest entry is accepted, if it parses: one that does not
raises StaleUpstreamError too, naming the file, the line of a triple file,
and the stage to rerun.

Each triple fact is written once, by the stage that computes it: scores
only in scored_raw.jsonl and scored_extrapolated.jsonl, chains from
extrapolate on, and no line names its class, which its file does.

Stages run sequentially and stream their model requests through the
gateway (see evontree.gateway), which batches them, fans a batch out over
scoring.max_in_flight threads for an HTTP endpoint and runs it on the
calling thread for an in-process backend. run_stage commits the responses a
stage stored once its body returns. Each stage's manifest entry counts the
requests, cache hits, backend calls and cache commits it made.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import logging
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .calibration import calibrate_relation, checked_calibration, collect_samples, thresholds
from .config import RunConfig
from .errors import (
    DirectoryBusyError,
    EmptyLabelError,
    EmptySpanError,
    MissingUpstreamError,
    StaleUpstreamError,
    TransportError,
)
from .extraction import extract_forest
from .gateway import GATEWAY_COUNTERS, HttpBackend, ModelGateway, close_all, endpoint_identity
from .ontology import (
    Relation,
    TripleClass,
    TripleRecord,
    decode_utf8,
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
from .scoring import PROMPT_SET_VERSION, confirm_decision, score_triples, templates_for
from .scoring import score_triple  # noqa: F401  no stage calls it; perfbench/spans.py wraps it here
from .synthesis import TEMPLATE_SET_VERSION, build_corpus
from .synthetic import (
    GroundTruth,
    SyntheticBackend,
    SyntheticModel,
    sample_ground_truth,
    synthetic_identity,
)

log = logging.getLogger(__name__)


# The files in the output directory beside the TABLE artifacts; no stage reads them.
MANIFEST, LOCK = "manifest.json", "evontree.lock"


class RunContext:
    """Shared state for one invocation: config, and lazily built gateways
    so a pure stage never touches the model layer."""

    def __init__(self, config: RunConfig, read_cache: bool = True) -> None:
        self.config = config
        self.read_cache = read_cache
        config.output.dir.mkdir(parents=True, exist_ok=True)
        self._ground_truth: GroundTruth | None = None
        self._gateway: ModelGateway | None = None
        self._judge_gateway: ModelGateway | None = None
        self._counted = dict.fromkeys(GATEWAY_COUNTERS, 0)
        # What run_stage wrote to each artifact a stage reads, by file name,
        # as _load_input would parse it back, with the file's hash: handed
        # to later stages in place of parsing the file.
        self._kept: dict[str, tuple[str, object]] = {}

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
            self._gateway = self._new_gateway(backend, model_cfg.name)
        return self._gateway

    def judge_gateway(self) -> ModelGateway | None:
        judge = self.config.model.judge
        if judge.kind == "none":
            return None
        if judge.kind == "self":
            return self.gateway()
        if self._judge_gateway is None:
            self._judge_gateway = self._new_gateway(HttpBackend(judge.endpoint), judge.model)
        return self._judge_gateway

    def _new_gateway(self, backend, model: str) -> ModelGateway:
        """A gateway to model at backend, on the run's response cache."""
        return ModelGateway(backend, model=model,
                            cache_dir=self.config.output.resolved_cache_dir(),
                            read_cache=self.read_cache,
                            max_in_flight=self.config.scoring.max_in_flight)

    def _open_gateways(self) -> list[ModelGateway]:
        return [g for g in (self._gateway, self._judge_gateway) if g is not None]

    def close(self) -> None:
        """Close the gateways this context opened, each also after an
        earlier one raised (see close_all)."""
        close_all(gateway.close for gateway in self._open_gateways())

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
        """The model's backend identity and name, as a gateway's backend
        gives them, without opening one."""
        model_cfg = self.config.model
        if model_cfg.kind == "synthetic":
            identity = synthetic_identity(model_cfg.synthetic.seed, self.ground_truth())
        else:
            identity = endpoint_identity(model_cfg.endpoint)
        return f"{identity}#{model_cfg.name}"

    def map_concurrent(self, fn: Callable, items: Sequence, gateway: ModelGateway) -> list:
        """fn over items, in order, fanned out as gateway.fan_out does. No
        stage calls it; it stays because perfbench/spans.py wraps it by name."""
        return gateway.fan_out(fn, items)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False) + "\n")


def stage_extract(ctx: RunContext) -> tuple[dict, dict]:
    """Elicit one tree per configured root, for forest.json in root order;
    flatten the forest to raw triples."""
    forest, stats = extract_forest(ctx.gateway(), ctx.config.extraction)
    triples = set().union(*map(tree_to_triples, forest))
    by_relation = Counter(t.relation.value for t in triples)
    return ({"forest.json": [tree.to_json_obj() for tree in forest],
             "raw.jsonl": [TripleRecord(t) for t in triples]},
            {**stats.to_json_obj(), "raw_triples": dict(sorted(by_relation.items()))})


def _score_records(ctx: RunContext, records: Sequence[TripleRecord]) -> tuple[list, int]:
    """The records whose triples scored, in order, with their confirm values
    as scores and their chains kept, and the count left unscored:
    a triple with an empty span is dropped whole; transport failures
    propagate, since a dead endpoint should fail the stage."""
    scored = []
    results = score_triples(ctx.gateway(), (record.triple for record in records))
    for record, result in zip(records, results):
        if isinstance(result, EmptySpanError):
            log.warning("leaving %r unscored: %s", record.triple, result)
        else:
            scored.append(TripleRecord(record.triple, scores=result, chains=record.chains))
    return scored, len(records) - len(scored)


def stage_calibrate(ctx: RunContext, raw: list[TripleRecord]) -> tuple[dict, dict]:
    """Score every raw triple, then fit per-template confirm thresholds
    against the model's own one-shot labels, with their ROC curves."""
    scored, unscored = _score_records(ctx, raw)
    by_relation = {}
    unparseable = 0
    for relation in Relation:
        if not any(r.triple.relation is relation for r in scored):
            continue
        samples, dropped = collect_samples(ctx.gateway(), scored, relation)
        unparseable += dropped
        by_relation[relation.value] = calibrate_relation(samples, ctx.config.calibration)
    calibration = {relation: {key: fit.to_json_obj() for key, fit in fits.items()}
                   for relation, fits in by_relation.items()}
    return ({"scored_raw.jsonl": scored, "calibration.json": calibration,
             "roc_curve.csv": roc_rows(by_relation)},
            {"unscored": unscored, "unparseable_labels": unparseable})


def stage_confirm(ctx: RunContext, scored_raw: list[TripleRecord],
                  calibration: dict) -> tuple[dict, dict]:
    """Pure partition of the scored raw triples against the calibrated
    thresholds; involves no model calls. Their scores stay in scored_raw."""
    confirmed = [TripleRecord(record.triple) for record in scored_raw
                 if confirm_decision(record.scores,
                                     thresholds(calibration, record.triple.relation))]
    by_relation = Counter(r.triple.relation.value for r in confirmed)
    return ({"confirmed.jsonl": confirmed},
            {"confirmed": dict(sorted(by_relation.items())),
             "rejected": len(scored_raw) - len(confirmed)})


def stage_reliable(ctx: RunContext, confirmed: list[TripleRecord]) -> tuple[dict, dict]:
    """Keep the confirmed subclass triples corroborated by a confirmed
    synonym triangle."""
    reliable = select_reliable({r.triple for r in confirmed})
    return ({"reliable.jsonl": [TripleRecord(t) for t in reliable]},
            {"reliable": len(reliable)})


def stage_extrapolate(ctx: RunContext, raw: list[TripleRecord], confirmed: list[TripleRecord],
                      reliable: list[TripleRecord]) -> tuple[dict, dict]:
    """Compose reliable subclass pairs one hop, keep only candidates new to
    everything already known, then score them for the gap decision."""
    existing = {r.triple for records in (raw, confirmed, reliable) for r in records}
    reliable_triples = [r.triple for r in reliable]
    candidates = extrapolate(reliable_triples, existing)

    reliable_sub = [t for t in reliable_triples if t.relation is Relation.SUBCLASS_OF]
    by_subject = Counter(t.subject.key for t in reliable_sub)
    compositions = sum(by_subject.get(t.object.key, 0) for t in reliable_sub)

    ext_records = [
        TripleRecord(
            c.triple,
            chains=[[(lower.subject.text, lower.object.text),
                     (upper.subject.text, upper.object.text)]
                    for lower, upper in c.chains])
        for c in candidates
    ]
    scored, unscored = _score_records(ctx, ext_records)
    return ({"extrapolated.jsonl": ext_records, "scored_extrapolated.jsonl": scored},
            {"compositions": compositions,
             "extrapolated_new": len(ext_records),
             "unscored": unscored})


def stage_gap(ctx: RunContext, scored_extrapolated: list[TripleRecord],
              calibration: dict) -> tuple[dict, dict]:
    """Classify scored extrapolations: above threshold everywhere extends
    the ontology, below per the gap mode is a knowledge gap. A gap keeps its
    chains, for synthesis; its scores stay in scored_extrapolated."""
    counts = Counter()
    gaps = []
    for record in scored_extrapolated:
        taus = thresholds(calibration, record.triple.relation)
        verdict = classify_extrapolated(record.scores, taus, ctx.config.gap.mode)
        counts[verdict] += 1
        if verdict == CLASS_GAP:
            gaps.append(TripleRecord(record.triple, chains=record.chains))
    return ({"gaps.jsonl": gaps},
            {"confirmed": counts.get(CLASS_CONFIRMED, 0),
             "gap": counts.get(CLASS_GAP, 0),
             "undecided": counts.get(CLASS_UNDECIDED, 0),
             "gap_mode": ctx.config.gap.mode})


def stage_synthesize(ctx: RunContext, gaps: list[TripleRecord]) -> tuple[dict, dict]:
    """Distill a training corpus targeting the mined gaps."""
    entries, tallies = build_corpus(ctx.gateway(), gaps, ctx.config.synthesis)
    by_strategy = Counter(e.strategy for e in entries)
    return ({"corpus.jsonl": entries},
            {**tallies.to_json_obj(),
             "entries": dict(sorted(by_strategy.items())),
             "strategy": ctx.config.synthesis.strategy,
             "strip_hint": ctx.config.synthesis.strip_hint})


def stage_report(ctx: RunContext, raw: list[TripleRecord], scored_raw: list[TripleRecord],
                 confirmed: list[TripleRecord], reliable: list[TripleRecord],
                 extrapolated: list[TripleRecord], scored_extrapolated: list[TripleRecord],
                 gaps: list[TripleRecord]) -> tuple[dict, dict]:
    """Summarize every triple class into the stats table and histogram;
    audit accuracy through the judge when one is configured. A class's
    scores are those of its triples in scored_raw or scored_extrapolated."""

    def scored(records: list[TripleRecord], scored_from: list[TripleRecord]) -> list:
        """The records of scored_from whose triples are in records, in order."""
        triples = {r.triple for r in records}
        return [r for r in scored_from if r.triple in triples]

    classes = {
        TripleClass.RAW: (raw, scored_raw),
        TripleClass.CONFIRMED: (confirmed, scored(confirmed, scored_raw)),
        TripleClass.RELIABLE: (reliable, scored(reliable, scored_raw)),
        TripleClass.EXTRAPOLATED: (extrapolated, scored_extrapolated),
        TripleClass.GAP: (gaps, scored(gaps, scored_extrapolated)),
    }

    verdicts = None
    judge_unparseable = 0
    judge_unavailable = False
    judge_gateway = ctx.judge_gateway()
    if judge_gateway is not None:
        audited = sorted({r.triple for group in (raw, extrapolated) for r in group},
                         key=lambda t: t.sort_key)
        try:
            verdicts, judge_unparseable = judge_triples(judge_gateway, audited)
        except TransportError as exc:
            log.warning("judge unavailable, reporting without accuracy: "
                        "judge endpoint failed: %s", exc)
            judge_unavailable = True

    rows = build_rows(classes, verdicts)
    unscored = {
        "raw": len(raw) - len(scored_raw),
        "extrapolated": len(extrapolated) - len(scored_extrapolated),
    }
    report = {
        "rows": [asdict(row) for row in rows],
        "judge": ctx.config.model.judge.kind,
        "judge_unavailable": judge_unavailable,
        "judge_unparseable": judge_unparseable,
        "unscored": unscored,
    }
    return ({"report.json": report,
             "report.csv": rows_to_csv(rows, with_acc=verdicts is not None),
             "confirm_hist.csv": histogram_rows(classes, verdicts)},
            {"judge_unavailable": judge_unavailable,
             "judge_unparseable": judge_unparseable,
             "unscored": unscored})


def stage_sweep(ctx: RunContext, scored_extrapolated: list[TripleRecord],
                calibration: dict) -> tuple[dict, dict]:
    """Gap yield across shifted thresholds; no corpus synthesis involved."""
    if scored_extrapolated:
        taus = thresholds(calibration, Relation.SUBCLASS_OF)
    else:
        taus = []
    points = sweep_gap_offsets(scored_extrapolated, taus, ctx.config.gap.sweep_offsets,
                               mode=ctx.config.gap.mode)
    return ({"sweep.csv": sweep_rows(points)},
            {"offsets": len(points), "gap_mode": ctx.config.gap.mode})


# Every stage: its body, the files it reads and those it writes. The runner
# passes the inputs to the body in this order, after ctx, as the parameters
# named by their stems; the body returns a value for each output, by file
# name, and its tallies. `run` runs the stages in this order, sweep aside.
TABLE: dict[str, tuple[Callable, tuple[str, ...], tuple[str, ...]]] = {
    "extract": (stage_extract, (), ("forest.json", "raw.jsonl")),
    "calibrate": (stage_calibrate, ("raw.jsonl",),
                  ("scored_raw.jsonl", "calibration.json", "roc_curve.csv")),
    "confirm": (stage_confirm, ("scored_raw.jsonl", "calibration.json"), ("confirmed.jsonl",)),
    "reliable": (stage_reliable, ("confirmed.jsonl",), ("reliable.jsonl",)),
    "extrapolate": (stage_extrapolate, ("raw.jsonl", "confirmed.jsonl", "reliable.jsonl"),
                    ("extrapolated.jsonl", "scored_extrapolated.jsonl")),
    "gap": (stage_gap, ("scored_extrapolated.jsonl", "calibration.json"), ("gaps.jsonl",)),
    "synthesize": (stage_synthesize, ("gaps.jsonl",), ("corpus.jsonl",)),
    "report": (stage_report,
               ("raw.jsonl", "scored_raw.jsonl", "confirmed.jsonl", "reliable.jsonl",
                "extrapolated.jsonl", "scored_extrapolated.jsonl", "gaps.jsonl"),
               ("report.json", "report.csv", "confirm_hist.csv")),
    "sweep": (stage_sweep, ("scored_extrapolated.jsonl", "calibration.json"), ("sweep.csv",)),
}
STAGE_ORDER = tuple(name for name in TABLE if name != "sweep")
# The body the runner calls, looked up at call time, so it can be wrapped.
STAGES: dict[str, Callable] = {name: body for name, (body, _, _) in TABLE.items()}
# The artifacts some stage reads: run_stage keeps what it wrote to them.
_READ = {file for _, inputs, _ in TABLE.values() for file in inputs}
# The stage that writes each artifact.
_PRODUCER = {file: stage for stage, (_, _, outputs) in TABLE.items() for file in outputs}
# The scores a line of a scored file holds: one per template of its relation.
_SCORE_COUNTS = {relation: len(templates_for(relation)) for relation in Relation}


def _write_output(path: Path, value):
    """Write a stage's output value to path, atomically, as the file's kind
    says: records as JSONL, rows as CSV, anything else as compact JSON.
    Return it as _load_input would parse it back, records in file order."""
    if path.suffix == ".jsonl":
        return write_triple_file(path, value)
    if path.suffix == ".csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(value)
        write_atomic(path, buf.getvalue())
    else:
        _write_json(path, value)
    return value


def _load_input(file: str, data: bytes):
    """An input artifact, parsed from its bytes, as its stage body takes it.
    Bytes that hold no such artifact raise StaleUpstreamError, naming the
    file, the line of a triple file, and the stage to rerun."""
    try:
        if file == "calibration.json":
            return checked_calibration(json.loads(decode_utf8(data)))
        # Only the scored files carry scores, and each line of theirs does.
        return parse_triple_file(data, _SCORE_COUNTS if file.startswith("scored_") else None)
    except (ValueError, KeyError, TypeError, AttributeError, EmptyLabelError) as exc:
        # A triple file's error names the line; a KeyError's text alone is a bare key.
        detail = exc if file != "calibration.json" else repr(exc)
        raise StaleUpstreamError(
            f"{file} does not parse ({detail}); "
            f"rerun {_PRODUCER[file]!r} and the stages after it") from exc


def _stale_inputs(stages: dict, name: str, read: dict[str, str]) -> list[str]:
    """Each input of stage name whose hash, in read, is not the one its
    producer last recorded writing; then, going up the table, each input an
    upstream stage recorded reading that its producer has since rewritten,
    from the manifest's records alone. Each as "file (rerun 'stage')"."""

    def changed(digests: dict[str, str]) -> list[str]:
        """The files whose producer last recorded writing another hash."""
        return [file for file, digest in digests.items()
                if stages.get(_PRODUCER.get(file), {}).get("outputs", {}).get(file, digest)
                != digest]

    stale = {f"{file} (rerun {_PRODUCER[file]!r})" for file in changed(read)}
    upstream, todo = set(), [name]
    while todo:
        found = {_PRODUCER[file] for file in TABLE[todo.pop()][1]} - upstream
        upstream |= found
        todo.extend(found)
    for stage in upstream:
        recorded = stages.get(stage, {}).get("inputs", {})
        stale |= {f"{file} (rerun {stage!r})" for file in changed(recorded)}
    return sorted(stale)


@contextmanager
def _holding(lock: Path) -> Iterator[None]:
    """Hold an exclusive flock on the file lock, with this process's pid in
    it, or raise DirectoryBusyError at once if another process holds it. The
    file is emptied before the lock is released, so a finished directory
    holds it empty."""
    fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.pread(fd, 32, 0).decode("ascii", "replace").strip() or "unknown"
            raise DirectoryBusyError(
                f"output directory {lock.parent} is in use by another evontree process "
                f"(pid {holder}); wait for it to finish, or use another directory") from None
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
        try:
            yield
        finally:
            os.ftruncate(fd, 0)
    finally:
        os.close(fd)  # releases the lock


def run_stage(ctx: RunContext, name: str) -> None:
    """Run one stage of TABLE: refuse it if an input is missing or stale,
    load its inputs, run its body, write the outputs it returns, and record
    what it read and wrote.

    Each input file is read once, to hash it. An input that run_stage wrote
    for ctx is handed over as written if the file still has the hash
    recorded then; any other input is parsed from the bytes just hashed.
    Nothing is written if the body raises. The stage holds the output
    directory's lock throughout."""
    if name not in TABLE:
        raise ValueError(f"unknown stage {name!r}; expected one of {tuple(TABLE)}")
    with _holding(ctx.config.output.dir / LOCK):
        _run_held(ctx, name)


def _run_held(ctx: RunContext, name: str) -> None:
    """run_stage's work, with the output directory's lock held."""
    log.info("stage %s starting", name)
    start = time.perf_counter()
    out = ctx.config.output.dir
    _, inputs, outputs = TABLE[name]
    missing = [str(out / file) for file in inputs if not (out / file).exists()]
    if missing:
        raise MissingUpstreamError(
            f"stage {name!r} needs upstream artifact(s) {missing}; "
            "run the earlier stages first")
    stages = {}
    if (out / MANIFEST).exists():
        stages = json.loads((out / MANIFEST).read_text(encoding="utf-8")).get("stages", {})
    blobs = {file: (out / file).read_bytes() for file in inputs}
    read = {file: _digest(blob) for file, blob in blobs.items()}
    stale = _stale_inputs(stages, name, read)
    if stale:
        raise StaleUpstreamError(
            f"stage {name!r} refused: upstream artifact(s) changed since the stages "
            f"that wrote or read them last ran: {', '.join(stale)}; rerun the named "
            "stages and the ones after them")

    kept = {file: value for file, (digest, value) in ctx._kept.items() if read.get(file) == digest}
    args = [kept[file] if file in kept else _load_input(file, blobs[file]) for file in inputs]
    del blobs
    values, tallies = STAGES[name](ctx, *args)
    # The stage's responses are committed before its entry records it done.
    for gateway in ctx._open_gateways():
        gateway.commit()
    hashes = {}
    for file in outputs:
        written = _write_output(out / file, values[file])
        hashes[file] = _digest((out / file).read_bytes())
        if file in _READ:
            ctx._kept[file] = (hashes[file], written)
    stages[name] = {
        "completed_at": _utc_now(),
        "config_hash": ctx.config.config_hash(),
        "model_identity": ctx.model_identity(),
        "inputs": read,
        "outputs": hashes,
        "tallies": tallies,
        "gateway": ctx.take_gateway_counts(),
        "wall_s": round(time.perf_counter() - start, 6),
    }
    # Only the stage entries carry over; the top level is written afresh, so
    # no key an earlier version wrote outlives it.
    _write_json(out / MANIFEST, {
        "tool_version": __version__,
        "prompt_set": PROMPT_SET_VERSION,
        "template_set": TEMPLATE_SET_VERSION,
        "perplexity_base": "e",
        "judge": ctx.config.model.judge.kind,
        "stages": stages,
    })
    log.info("stage %s done", name)


def run_all(ctx: RunContext) -> None:
    for name in STAGE_ORDER:
        run_stage(ctx, name)
