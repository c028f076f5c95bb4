"""Stage orchestration: artifacts, determinism, manifest, and degradation."""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import re
import shutil
import sqlite3
import struct
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import evontree
import evontree.gateway as gateway_module
import evontree.ontology as ontology_module
import evontree.pipeline as pipeline_module
from evontree.calibration import CalibrationOutcome, calibrate_relation
from evontree.config import ENDPOINT_ENV_VAR, parse_config, replace_seed
from evontree.errors import MissingUpstreamError, StaleUpstreamError, TransportError
from evontree.gateway import (
    BATCH_SIZE,
    CACHE_FILE,
    CACHE_FORMAT,
    COMMIT_INTERVAL_S,
    GATEWAY_COUNTERS,
    GenerateRequest,
    HttpBackend,
    ModelGateway,
)
from evontree.ontology import (
    Relation,
    Triple,
    TripleClass,
    TripleRecord,
    normalize_label as lbl,
    read_triple_file,
)
from evontree.pipeline import STAGE_ORDER, TABLE, RunContext, run_all, run_stage
from evontree.scoring import (
    confirm_decision,
    confirm_value,
    perplexity,
    templates_for,
)
from evontree.synthesis import read_corpus
from evontree.synthetic import GroundTruth, SyntheticBackend, SyntheticModel, sample_ground_truth

# Verified to produce every class non-empty: enough synonym pairs for both
# label polarities, hallucinated children for false triples.
BASE_MODEL = {
    "kind": "synthetic",
    "synthetic": {"depth": 3, "branching": 3, "synonym_rate": 0.4,
                  "seed": 7, "hallucination_rate": 0.2},
}


def config_obj(out_name: str = "out", cache_name: str = "cache", **overrides) -> dict:
    obj = {
        "model": BASE_MODEL,
        "extraction": {"roots": ["T0N0"], "max_depth": 3},
        "output": {"dir": out_name, "cache_dir": cache_name},
    }
    obj.update(overrides)
    return obj


def make_config(tmp_path: Path, out_name: str = "out", cache_name: str = "cache",
                **overrides) -> "RunConfig":
    return parse_config(config_obj(out_name, cache_name, **overrides), base_dir=tmp_path)


ARTIFACT_NAMES = (
    "raw.jsonl", "scored_raw.jsonl", "calibration.json", "confirmed.jsonl",
    "reliable.jsonl", "extrapolated.jsonl", "scored_extrapolated.jsonl",
    "gaps.jsonl", "corpus.jsonl", "report.json", "report.csv",
    "roc_curve.csv", "confirm_hist.csv", "manifest.json", "ground_truth.json",
)

# What each stage's manifest entry names as read and written, after run_all
# plus sweep on make_config's one-root synthetic run.
MANIFEST_NAMES = {
    "extract": ((), ("raw.jsonl", "trees/t0n0.json", "ground_truth.json")),
    "calibrate": (("raw.jsonl",), ("scored_raw.jsonl", "calibration.json", "roc_curve.csv")),
    "confirm": (("scored_raw.jsonl", "calibration.json"), ("confirmed.jsonl",)),
    "reliable": (("confirmed.jsonl",), ("reliable.jsonl",)),
    "extrapolate": (("raw.jsonl", "confirmed.jsonl", "reliable.jsonl"),
                    ("extrapolated.jsonl", "scored_extrapolated.jsonl")),
    "gap": (("scored_extrapolated.jsonl", "calibration.json"), ("gaps.jsonl",)),
    "synthesize": (("gaps.jsonl",), ("corpus.jsonl",)),
    "report": (("raw.jsonl", "scored_raw.jsonl", "confirmed.jsonl", "reliable.jsonl",
                "extrapolated.jsonl", "scored_extrapolated.jsonl", "gaps.jsonl"),
               ("report.json", "report.csv", "confirm_hist.csv")),
    "sweep": (("scored_extrapolated.jsonl", "calibration.json"), ("sweep.csv",)),
}


def synthetic_backend(cfg) -> SyntheticBackend:
    """The in-process backend a RunContext builds for cfg's synthetic model."""
    spec = cfg.model.synthetic
    gt = sample_ground_truth(depth=spec.depth, branching=spec.branching,
                             synonym_rate=spec.synonym_rate, seed=spec.seed,
                             n_roots=spec.n_roots)
    return SyntheticBackend(SyntheticModel(gt, spec.noise, seed=spec.seed,
                                           hallucination_rate=spec.hallucination_rate))


@contextmanager
def serve_over_http(backend):
    """Serve backend on a loopback port as an HTTP model endpoint; yields its URL."""
    routes = {"/v1/generate": backend.generate, "/v1/score": backend.score}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as a real endpoint
        disable_nagle_algorithm = True

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            out = json.dumps(routes[self.path](body)).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the gateways build, in order."""
    built = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", RecordingPool)
    return built


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    ctx = RunContext(make_config(tmp))
    run_all(ctx)
    return ctx


class TestRunAll:
    def test_all_artifacts_exist(self, completed_run):
        out = completed_run.paths.out_dir
        for name in ARTIFACT_NAMES:
            assert (out / name).exists(), name

    def test_one_tree_file_per_root(self, completed_run):
        trees = sorted(p.name for p in completed_run.paths.trees_dir.glob("*.json"))
        assert trees == ["t0n0.json"]

    def test_counts_shrink_along_the_lifecycle(self, completed_run):
        paths = completed_run.paths
        n = {p.stem: len(read_triple_file(p)) for p in (
            paths.raw, paths.confirmed, paths.reliable,
            paths.extrapolated, paths.gaps)}
        assert n["raw"] >= n["confirmed"] >= n["reliable"]
        assert n["extrapolated"] >= n["gaps"]
        assert n["gaps"] > 0  # this config plants unfamiliar true triples

    def test_every_stage_recorded_in_manifest(self, completed_run):
        manifest = json.loads(completed_run.paths.manifest.read_text())
        assert set(manifest["stages"]) == set(STAGE_ORDER)
        assert manifest["model_identity"].startswith("synthetic://7/")
        assert manifest["perplexity_base"] == "e"
        assert manifest["prompt_set"] == "v1"
        calibration = json.loads(completed_run.paths.calibration.read_text())
        assert "SubclassOf" in calibration["relations"]

    def test_manifest_hashes_match_artifact_bytes(self, completed_run):
        import hashlib

        manifest = json.loads(completed_run.paths.manifest.read_text())
        outputs = manifest["stages"]["confirm"]["outputs"]
        path = completed_run.paths.confirmed
        expected = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        assert outputs["confirmed.jsonl"] == expected

    def test_manifest_names_each_stages_inputs_and_outputs(self, completed_run):
        run_stage(completed_run, "sweep")
        stages = json.loads(completed_run.paths.manifest.read_text())["stages"]
        assert set(stages) == set(MANIFEST_NAMES)
        for name, (inputs, outputs) in MANIFEST_NAMES.items():
            assert sorted(stages[name]["inputs"]) == sorted(inputs), name
            assert sorted(stages[name]["outputs"]) == sorted(outputs), name

    def test_json_artifacts_are_compact(self, completed_run):
        written = sorted(completed_run.paths.out_dir.rglob("*.json"))
        assert {p.name for p in written} >= {
            "calibration.json", "manifest.json", "report.json", "ground_truth.json", "t0n0.json"}
        for path in written:
            text = path.read_text(encoding="utf-8")
            compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"),
                                 ensure_ascii=False)
            assert text == compact + "\n", path.name

    def test_roc_curve_holds_the_fitted_curves(self, tmp_path, monkeypatch):
        fitted = []

        def recording(samples, sweep):
            fits = calibrate_relation(samples, sweep)
            fitted.append(fits)
            return fits

        monkeypatch.setattr(pipeline_module, "calibrate_relation", recording)
        ctx = RunContext(make_config(tmp_path))
        try:
            run_all(ctx)
        finally:
            ctx.close()
        outcome = CalibrationOutcome.from_json_obj(json.loads(ctx.paths.calibration.read_text()))
        assert len(fitted) == len(outcome.by_relation) == 2
        # The fits calibrate_relation returned, with their curves, by relation.
        fresh = replace(outcome, by_relation={
            relation: next(f for f in fitted if f == fits)
            for relation, fits in outcome.by_relation.items()})
        with ctx.paths.roc_curve.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows == pipeline_module.roc_rows(fresh)
        assert len(rows) == 1 + sum(len(fit.curve) for fits in fitted for fit in fits.values())
        assert {(row[0], row[1]) for row in rows[1:]} == {
            (relation.value, str(t.paraphrase_id)) for relation in Relation
            for t in templates_for(relation)}

    def test_ground_truth_round_trips(self, completed_run):
        obj = json.loads(completed_run.paths.ground_truth.read_text())
        assert (GroundTruth.from_json_obj(obj).content_hash()
                == completed_run.ground_truth().content_hash())

    def test_confirmed_matches_threshold_oracle(self, completed_run):
        from evontree.calibration import CalibrationOutcome

        paths = completed_run.paths
        outcome = CalibrationOutcome.from_json_obj(json.loads(paths.calibration.read_text()))
        scored = read_triple_file(paths.scored_raw)
        expected = {r.triple for r in scored
                    if confirm_decision(r.scores, outcome.thresholds(r.triple.relation))}
        assert {r.triple for r in read_triple_file(paths.confirmed)} == expected

    def test_gap_chains_survive_into_corpus(self, completed_run):
        paths = completed_run.paths
        gaps = read_triple_file(paths.gaps)
        assert all(r.chains for r in gaps)
        corpus = read_corpus(paths.corpus)
        assert corpus
        gap_pairs = {(r.triple.subject.text, r.triple.object.text) for r in gaps}
        assert {(e.gap_subject, e.gap_object) for e in corpus} <= gap_pairs


# Runs the pipeline on the config in argv[1] (JSON, paths relative to
# argv[2]) and ends the process as a kill would, with no close and no
# commit, from inside the synthetic model's score once calibrate, the first
# stage that scores, has sent more than two batches of requests.
KILLED_MID_CALIBRATE = textwrap.dedent("""
    import json, os, sys
    from pathlib import Path
    from evontree.config import parse_config
    from evontree.gateway import BATCH_SIZE
    from evontree.pipeline import RunContext, run_all
    from evontree.synthetic import SyntheticBackend

    score, calls = SyntheticBackend.score, []

    def score_until_killed(self, body):
        calls.append(body)
        if len(calls) > 2 * BATCH_SIZE:
            os._exit(9)
        return score(self, body)

    SyntheticBackend.score = score_until_killed
    run_all(RunContext(parse_config(json.loads(sys.argv[1]), base_dir=Path(sys.argv[2]))))
""")


def stored_rows(cache_dir: Path) -> dict[bytes, str | tuple[float, ...]]:
    """Every row of cache_dir's database, decoded, once SQLite finds the
    file sound and in the current format: a generation's text from its JSON
    string, a score's logprobs from its packed doubles."""
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
        rows = db.execute("SELECT key, value FROM responses").fetchall()
    return {key: json.loads(value) if isinstance(value, str)
            else struct.unpack(f"<{len(value) // 8}d", value) for key, value in rows}


class TestCrash:
    def test_killed_mid_calibrate_keeps_valid_entries_and_reruns_clean(self, completed_run,
                                                                       tmp_path):
        src = str(Path(evontree.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_MID_CALIBRATE, json.dumps(config_obj()),
             str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 9, proc.stderr
        paths = pipeline_module.Artifacts(tmp_path / "out")
        assert list(json.loads(paths.manifest.read_text())["stages"]) == ["extract"]

        # Every entry left decodes to what the clean run stored under its key.
        left = stored_rows(tmp_path / "cache")
        clean = stored_rows(completed_run.config.output.resolved_cache_dir())
        assert 0 < len(left) < len(clean)
        for key, value in left.items():
            assert value == clean[key]

        ctx = RunContext(make_config(tmp_path))
        try:
            run_all(ctx)
        finally:
            ctx.close()
        for name in (*ARTIFACT_NAMES, "trees/t0n0.json"):
            if name != "manifest.json":
                assert ((paths.out_dir / name).read_bytes()
                        == (completed_run.paths.out_dir / name).read_bytes()), name


class TestDeterminism:
    def test_two_runs_produce_identical_artifacts(self, completed_run, tmp_path):
        # Second run shares the cache, so it replays the same responses.
        cache = completed_run.config.output.resolved_cache_dir()
        cfg = make_config(tmp_path, out_name="again")
        from dataclasses import replace

        from evontree.config import OutputConfig
        cfg = replace(cfg, output=OutputConfig(dir=tmp_path / "again", cache_dir=cache))
        ctx = RunContext(cfg)
        run_all(ctx)
        for name in ARTIFACT_NAMES:
            if name in ("manifest.json",):  # timestamps differ by design
                continue
            a = (completed_run.paths.out_dir / name).read_bytes()
            b = (ctx.paths.out_dir / name).read_bytes()
            assert a == b, f"{name} differs between runs"

    def test_cold_cache_equals_warm_cache(self, completed_run, tmp_path):
        cfg = make_config(tmp_path, out_name="cold", cache_name="coldcache")
        ctx = RunContext(cfg, read_cache=False)
        run_all(ctx)
        for name in ("calibration.json", "corpus.jsonl", "report.csv"):
            a = (completed_run.paths.out_dir / name).read_bytes()
            b = (ctx.paths.out_dir / name).read_bytes()
            assert a == b, f"{name} differs without cache reads"

    def test_stage_rerun_reproduces_artifact_hash(self, completed_run):
        path = completed_run.paths.confirmed
        before = path.read_bytes()
        run_stage(completed_run, "confirm")
        assert path.read_bytes() == before

    def test_serial_scoring_equals_concurrent(self, completed_run, tmp_path, pools,
                                              monkeypatch):
        # Only requests to an HTTP endpoint fan out, so the model is served
        # over loopback HTTP; each run has its own cache, so every request
        # reaches the server.
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        scored_raw = {}
        with serve_over_http(synthetic_backend(make_config(tmp_path))) as url:
            for workers in (1, 4):
                cfg = make_config(tmp_path, out_name=f"out{workers}",
                                  cache_name=f"cache{workers}",
                                  model={"kind": "http", "name": "synthetic", "endpoint": url},
                                  scoring={"max_in_flight": workers})
                ctx = RunContext(cfg)
                try:
                    run_stage(ctx, "extract")
                    run_stage(ctx, "calibrate")
                finally:
                    ctx.close()
                scored_raw[workers] = ctx.paths.scored_raw.read_bytes()
        assert pools and set(pools) == {4}  # the concurrent run used a real pool
        assert scored_raw[1] == scored_raw[4]
        assert scored_raw[4] == completed_run.paths.scored_raw.read_bytes()


class TestMapConcurrent:
    def test_in_process_backend_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("in-process work opened a thread pool")

        monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", no_pool)
        backend_threads = []
        for method in ("generate", "score"):
            def recording(self, body, original=getattr(SyntheticBackend, method)):
                backend_threads.append(threading.get_ident())
                return original(self, body)

            monkeypatch.setattr(SyntheticBackend, method, recording)
        ctx = RunContext(make_config(tmp_path, scoring={"max_in_flight": 8}))
        try:
            threads = []

            def fn(item):
                threads.append(threading.get_ident())
                return item * 2

            assert ctx.map_concurrent(fn, range(20), ctx.gateway()) == [i * 2 for i in range(20)]
            assert set(threads) == {threading.get_ident()}
            # Every stage that sends model requests, the judge included.
            assert ctx.config.model.judge.kind == "self"
            run_all(ctx)
        finally:
            ctx.close()
        assert backend_threads and set(backend_threads) == {threading.get_ident()}

    def test_http_backend_fans_out_in_order(self, pools):
        class SlowHttpBackend(HttpBackend):
            """Answers without a network; later prompts answer first."""

            def __init__(self):
                super().__init__("http://127.0.0.1:1")
                self.threads = []

            def generate(self, body):
                self.threads.append(threading.get_ident())
                time.sleep(0.002 * (10 - int(body["prompt"])))
                return {"text": f"answer {body['prompt']}"}

        backend = SlowHttpBackend()
        gateway = ModelGateway(backend, model="m", cache_dir=None, max_in_flight=3)
        try:
            texts = list(gateway.generate_many(
                [GenerateRequest(prompt=str(i), max_tokens=8, temperature=0.0)
                 for i in range(10)]))
        finally:
            gateway.close()
        assert texts == [f"answer {i}" for i in range(10)]
        assert threading.get_ident() not in backend.threads
        assert len(set(backend.threads)) == 3
        assert pools == [3]
        # close() ended the pool's threads.
        assert not set(backend.threads) & {t.ident for t in threading.enumerate()}

    def test_http_judge_fans_out_with_a_synthetic_model(self, completed_run, tmp_path,
                                                        pools):
        with serve_over_http(synthetic_backend(make_config(tmp_path))) as url:
            model = {**BASE_MODEL,
                     "judge": {"kind": "http", "endpoint": url, "model": "judge"}}
            ctx = RunContext(make_config(tmp_path, model=model,
                                         scoring={"max_in_flight": 4}))
            try:
                run_all(ctx)
            finally:
                ctx.close()
        assert pools == [4]  # the judge's calls only
        report = json.loads(ctx.paths.report_json.read_text())
        assert report["judge"] == "http" and not report["judge_unavailable"]
        # The served model judges from the same reference as the self judge.
        assert (ctx.paths.report_csv.read_bytes()
                == completed_run.paths.report_csv.read_bytes())


class TestGatewayCounts:
    def test_each_stage_records_its_own_counts(self, completed_run):
        manifest = json.loads(completed_run.paths.manifest.read_text())
        counts = {name: entry["gateway"] for name, entry in manifest["stages"].items()}
        assert all(set(c) == set(GATEWAY_COUNTERS) for c in counts.values())
        for stage in ("confirm", "reliable", "gap"):
            assert counts[stage] == dict.fromkeys(GATEWAY_COUNTERS, 0)
        for stage in ("extract", "calibrate", "extrapolate", "synthesize", "report"):
            c = counts[stage]
            assert c["requests"] > 0, stage
            assert c["requests"] == c["cache_hits"] + c["backend_calls"], stage
        # Extraction sends one request at a time, and its fetches still
        # commit about once a second, plus once as the stage ends.
        extract = manifest["stages"]["extract"]
        commits = extract["gateway"]["cache_commits"]
        assert 0 < commits <= 1 + extract["wall_s"] / COMMIT_INTERVAL_S
        # The stages' deltas add up to the gateway's totals.
        totals = completed_run.gateway().counters()
        assert {n: sum(c[n] for c in counts.values()) for n in GATEWAY_COUNTERS} == totals
        # The response cache commits about once a second, not once a batch.
        wall_s = sum(entry["wall_s"] for entry in manifest["stages"].values())
        assert totals["cache_commits"] <= len(counts) + math.ceil(wall_s)

    def test_retried_transport_failures_are_counted(self, tmp_path, monkeypatch):
        # The model fails twice, then answers; the back-off is not slept.
        failures = [2]
        generate = SyntheticBackend.generate

        def flaky(self, body):
            if failures[0]:
                failures[0] -= 1
                raise TransportError("scripted failure")
            return generate(self, body)

        monkeypatch.setattr(SyntheticBackend, "generate", flaky)
        monkeypatch.setattr(pipeline_module, "ModelGateway",
                            functools.partial(ModelGateway, sleep=lambda s: None))
        ctx = RunContext(make_config(tmp_path))
        try:
            run_stage(ctx, "extract")
            run_stage(ctx, "calibrate")
        finally:
            ctx.close()
        stages = json.loads(ctx.paths.manifest.read_text())["stages"]
        assert stages["extract"]["gateway"]["retries"] == 2
        assert stages["calibrate"]["gateway"]["retries"] == 0

    def test_calibrate_commits_once_a_second(self, tmp_path):
        ctx = RunContext(make_config(tmp_path))
        statements = []
        try:
            run_stage(ctx, "extract")
            conn = ctx.gateway().cache._conn
            conn.set_trace_callback(statements.append)
            run_stage(ctx, "calibrate")
            open_after_stage = conn.in_transaction
        finally:
            ctx.close()
        raw = read_triple_file(ctx.paths.raw)
        pairs = Counter()
        for record in raw:
            pairs[record.triple.relation] += len(templates_for(record.triple.relation))
        # One stream of probes, two completions per pair, then one stream of
        # labels per relation, each cut into batches by the gateway.
        streams = (2 * sum(pairs.values()), *pairs.values())
        batches = sum(math.ceil(n / BATCH_SIZE) for n in streams)
        entry = json.loads(ctx.paths.manifest.read_text())["stages"]["calibrate"]
        counts = entry["gateway"]
        commits = [s for s in statements if s == "COMMIT"]
        inserts = [s for s in statements if s.startswith("INSERT")]
        assert 0 < len(commits) == counts["cache_commits"] < batches
        assert len(commits) <= 1 + entry["wall_s"] / COMMIT_INTERVAL_S
        # Every response fetched went into a transaction.
        assert len(inserts) == counts["backend_calls"] > len(commits)
        in_transaction = False
        for statement in statements:
            if statement.startswith(("BEGIN", "COMMIT")):
                in_transaction = statement.startswith("BEGIN")
            elif statement.startswith("INSERT"):
                assert in_transaction
        assert not in_transaction and not open_after_stage


class TestPerfectSignal:
    """With full familiarity and no jitter, confirmation accepts exactly
    the triples that are true in the reference ontology."""

    def test_confirmed_equals_ground_truth_membership(self, tmp_path):
        cfg = make_config(tmp_path, model={
            "kind": "synthetic",
            "synthetic": {"depth": 2, "branching": 3, "synonym_rate": 0.0,
                          "seed": 11, "hallucination_rate": 0.5,
                          "noise": {"familiarity_rate": 1.0, "jitter": 0.0}},
        }, extraction={"roots": ["T0N0"], "max_depth": 2})
        ctx = RunContext(cfg)
        for stage in ("extract", "calibrate", "confirm"):
            run_stage(ctx, stage)
        gt = ctx.ground_truth()
        raw = read_triple_file(ctx.paths.raw)
        true_raw = {r.triple for r in raw
                    if gt.is_true(r.triple.relation, r.triple.subject.key,
                                  r.triple.object.key)}
        confirmed = {r.triple for r in read_triple_file(ctx.paths.confirmed)}
        assert confirmed == true_raw
        assert true_raw and len(true_raw) < len(raw)  # both polarities present


class TestDegradation:
    def test_stages_require_upstream_artifacts(self, tmp_path):
        ctx = RunContext(make_config(tmp_path))
        for stage in STAGE_ORDER[1:]:
            with pytest.raises(MissingUpstreamError):
                run_stage(ctx, stage)
        with pytest.raises(MissingUpstreamError):
            run_stage(ctx, "sweep")

    def test_a_failed_commit_still_closes_the_judge_gateway(self, tmp_path, monkeypatch):
        class ClosableJudge:
            identity = "fake://judge"
            closed = False

            def close(self):
                self.closed = True

        ctx = RunContext(make_config(tmp_path))
        model = ctx.gateway()
        judge = ClosableJudge()
        ctx._judge_gateway = ModelGateway(judge, model="judge", cache_dir=tmp_path / "judge")

        def fails(cache):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(gateway_module.ResponseCache, "_commit", fails)
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            ctx.close()
        assert model.cache._closed and ctx._judge_gateway.cache._closed and judge.closed

    def test_unknown_stage_name_rejected(self, tmp_path):
        ctx = RunContext(make_config(tmp_path))
        with pytest.raises(ValueError, match="unknown stage"):
            run_stage(ctx, "distill")

    def test_unscored_triples_are_excluded_and_tallied(self, tmp_path):
        class EmptySpanBackend:
            """Scores every statement except ones naming the poisoned label."""

            def __init__(self, inner, poison: str):
                self.inner = inner
                self.poison = poison
                self.identity = inner.identity + "+poison"

            def generate(self, body):
                return self.inner.generate(body)

            def score(self, body):
                if self.poison in body["prompt"]:
                    return {"token_logprobs": []}
                return self.inner.score(body)

        cfg = make_config(tmp_path)
        ctx = RunContext(cfg)
        ctx._gateway = ModelGateway(EmptySpanBackend(synthetic_backend(cfg), poison="'T0N1'"),
                                    model="synthetic", cache_dir=None)
        run_stage(ctx, "extract")
        run_stage(ctx, "calibrate")
        raw = read_triple_file(ctx.paths.raw)
        scored = read_triple_file(ctx.paths.scored_raw)
        poisoned = {r.triple for r in raw
                    if "T0N1" in (r.triple.subject.text, r.triple.object.text)}
        assert poisoned
        assert {r.triple for r in scored} == {r.triple for r in raw} - poisoned
        manifest = json.loads(ctx.paths.manifest.read_text())
        assert manifest["stages"]["calibrate"]["tallies"]["unscored"] == len(poisoned)


    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Relation)), st.sampled_from(list(TripleClass)),
                              st.booleans(), st.sampled_from([None, " True", " False"])),
                    max_size=60))
    def test_score_records_drops_exactly_the_empty_spans(self, specs):
        # Each spec: relation, class, whether the record has chains, and which
        # completion of its probes, if any, scores no tokens. Up to 60
        # records, up to 600 probes, cross a batch of BATCH_SIZE requests.
        records = [TripleRecord(Triple(lbl(f"S{i}"), relation, lbl(f"O{i}")), triple_class,
                                chains=[[(f"S{i}", f"M{i}"), (f"M{i}", f"O{i}")]]
                                if chained else None)
                   for i, (relation, triple_class, chained, _) in enumerate(specs)]
        empty = {f"S{i}": completion for i, (*_, completion) in enumerate(specs)}

        class Backend:
            identity = "fake://spans"

            def score(self, body):
                subject = re.search(r"'(S\d+)'", body["prompt"]).group(1)
                if empty[subject] == body["completion"]:
                    return {"token_logprobs": []}
                return {"token_logprobs": [-0.5 if body["completion"] == " True" else -1.0]}

        gateway = ModelGateway(Backend(), model="m", cache_dir=None)
        scored, unscored = pipeline_module._score_records(SimpleNamespace(gateway=lambda: gateway),
                                                          records)
        value = confirm_value(perplexity([-0.5]), perplexity([-1.0]))
        kept = [r for r, (*_, completion) in zip(records, specs) if completion is None]
        assert scored == [
            TripleRecord(r.triple, r.triple_class, chains=r.chains,
                         scores=[value] * len(templates_for(r.triple.relation)))
            for r in kept]
        assert unscored == len(records) - len(kept)


class TestSweepStage:
    def test_sweep_csv_is_monotone(self, completed_run):
        run_stage(completed_run, "sweep")
        lines = completed_run.paths.sweep.read_text().splitlines()
        assert lines[0] == "offset,gap_count,mean_confirm_value"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts)
        assert counts[-1] == len(read_triple_file(completed_run.paths.scored_extrapolated))
        assert counts[0] == 0


@pytest.fixture
def run_copy(completed_run, tmp_path):
    """A context over a copy of the completed run's artifacts, sharing its cache."""
    out = tmp_path / "copy"
    shutil.copytree(completed_run.paths.out_dir, out)
    ctx = RunContext(replace(completed_run.config,
                             output=replace(completed_run.config.output, dir=out)))
    yield ctx
    ctx.close()


class TestStaleInputs:
    def test_new_extract_refuses_downstream_until_rerun(self, run_copy):
        reseeded = RunContext(replace_seed(run_copy.config, 8))
        try:
            run_stage(reseeded, "extract")
            confirmed = run_copy.paths.confirmed.read_bytes()
            for stage in ("confirm", "report"):
                with pytest.raises(StaleUpstreamError, match=r"raw\.jsonl \(rerun 'calibrate'\)"):
                    run_stage(run_copy, stage)
            assert run_copy.paths.confirmed.read_bytes() == confirmed
            for stage in STAGE_ORDER[1:] + ("sweep",):
                run_stage(reseeded, stage)
        finally:
            reseeded.close()
        assert issubclass(StaleUpstreamError, MissingUpstreamError)  # CLI exit code 3

    def test_calibrate_failing_after_rewriting_scores_refuses_confirm(self, run_copy,
                                                                       monkeypatch):
        def endpoint_down(*args, **kwargs):
            raise TransportError("endpoint down")

        monkeypatch.setattr(pipeline_module, "collect_samples", endpoint_down)
        scored_raw = run_copy.paths.scored_raw.read_bytes()
        # Another seed scores the same raw triples differently.
        reseeded = RunContext(replace_seed(run_copy.config, 8))
        try:
            with pytest.raises(TransportError):
                run_stage(reseeded, "calibrate")
        finally:
            reseeded.close()
        assert run_copy.paths.scored_raw.read_bytes() != scored_raw
        with pytest.raises(StaleUpstreamError) as exc:
            run_stage(run_copy, "confirm")
        assert "scored_raw.jsonl (rerun 'calibrate')" in str(exc.value)
        assert str(exc.value).count("(rerun") == 1

    def test_hand_edited_input_refuses_its_reader(self, run_copy):
        path = run_copy.paths.confirmed
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        with pytest.raises(StaleUpstreamError, match=r"confirmed\.jsonl \(rerun 'confirm'\)"):
            run_stage(run_copy, "reliable")
        run_stage(run_copy, "confirm")
        run_stage(run_copy, "reliable")

    def test_calibration_json_in_an_older_format_is_refused(self, run_copy):
        # A run directory from before the pooled fit was dropped: its
        # manifest recorded the calibration.json it holds.
        path = run_copy.paths.calibration
        obj = json.loads(path.read_text())
        fits = obj["relations"]["SubclassOf"]
        fits["pooled"] = dict(fits["1"], curve=[])
        path.write_text(json.dumps(obj))
        manifest = json.loads(run_copy.paths.manifest.read_text())
        manifest["stages"]["calibrate"]["outputs"]["calibration.json"] = pipeline_module._file_hash(path)
        run_copy.paths.manifest.write_text(json.dumps(manifest))
        confirmed = run_copy.paths.confirmed.read_bytes()
        with pytest.raises(StaleUpstreamError, match=r"calibration\.json .*rerun 'calibrate'"):
            run_stage(run_copy, "confirm")
        assert run_copy.paths.confirmed.read_bytes() == confirmed

    def test_manifest_top_level_is_rewritten_and_stages_kept(self, run_copy):
        manifest = json.loads(run_copy.paths.manifest.read_text())
        stages = manifest["stages"]
        manifest["thresholds"] = {"SubclassOf": [0.5]}  # a key this version does not write
        run_copy.paths.manifest.write_text(json.dumps(manifest))
        run_stage(run_copy, "confirm")
        after = json.loads(run_copy.paths.manifest.read_text())
        assert "thresholds" not in after
        assert set(after) == {"tool_version", "prompt_set", "template_set", "perplexity_base",
                              "judge", "config_hash", "model_identity", "stages"}
        assert list(after["stages"]) == list(stages)
        assert {k: v for k, v in after["stages"].items() if k != "confirm"} == {
            k: v for k, v in stages.items() if k != "confirm"}

    def test_input_without_a_recorded_producer_is_accepted(self, run_copy):
        manifest = json.loads(run_copy.paths.manifest.read_text())
        del manifest["stages"]["confirm"]
        run_copy.paths.manifest.write_text(json.dumps(manifest))
        path = run_copy.paths.confirmed
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        run_stage(run_copy, "reliable")


class TestHandoff:
    """Under run, each stage hands the records it wrote to the stages after
    it; the files are still written, hashed and checked."""

    def test_run_all_parses_no_artifact_it_wrote(self, tmp_path, monkeypatch):
        handed = []  # (stage, attr, value, the file's bytes as the stage began)

        def recording(name, body):
            def run(ctx, **inputs):
                handed.extend((name, attr, value, getattr(ctx.paths, attr).read_bytes())
                              for attr, value in inputs.items())
                return body(ctx, **inputs)
            return run

        parses = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                parses[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name, body in list(pipeline_module.STAGES.items()):
            monkeypatch.setitem(pipeline_module.STAGES, name, recording(name, body))
        for name in ("_load_input", "parse_triple_file", "read_triple_file"):
            monkeypatch.setattr(pipeline_module, name,
                                counting(name, getattr(pipeline_module, name)))
        monkeypatch.setattr(CalibrationOutcome, "from_json_obj", classmethod(
            counting("from_json_obj", CalibrationOutcome.from_json_obj.__func__)))
        ctx = RunContext(make_config(tmp_path))
        try:
            run_all(ctx)
        finally:
            ctx.close()
        monkeypatch.undo()

        assert parses == Counter()
        assert ({(stage, attr) for stage, attr, _, _ in handed}
                == {(stage, attr) for stage in STAGE_ORDER for attr in TABLE[stage][1]})
        for stage, attr, value, data in handed:
            parsed = pipeline_module._load_input(attr, data)
            assert value == parsed, (stage, attr)
            if attr != "calibration":  # labels compare by key; their text too
                assert ([ontology_module._record_to_obj(r) for r in value]
                        == [ontology_module._record_to_obj(r) for r in parsed]), (stage, attr)

    def test_a_file_rewritten_by_another_context_is_parsed(self, tmp_path):
        a = RunContext(make_config(tmp_path))
        b = RunContext(replace_seed(a.config, 8))
        try:
            run_stage(a, "extract")
            raw_a = {r.triple for r in read_triple_file(a.paths.raw)}
            run_stage(b, "extract")
            raw_b = {r.triple for r in read_triple_file(a.paths.raw)}
            run_stage(a, "calibrate")
        finally:
            a.close()
            b.close()
        assert raw_a != raw_b
        assert {r.triple for r in read_triple_file(a.paths.scored_raw)} == raw_b

    def test_a_failed_stage_hands_nothing_on(self, run_copy, monkeypatch):
        def endpoint_down(*args, **kwargs):
            raise TransportError("endpoint down")

        monkeypatch.setattr(pipeline_module, "collect_samples", endpoint_down)
        with pytest.raises(TransportError):
            run_stage(run_copy, "calibrate")  # after rewriting scored_raw.jsonl
        assert "scored_raw" not in run_copy._kept
        monkeypatch.undo()
        run_stage(run_copy, "calibrate")
        assert set(run_copy._kept) == {"scored_raw", "calibration"}

    def test_stage_by_stage_equals_run_all(self, completed_run, tmp_path):
        # One context per stage, as separate CLI verbs: nothing is handed on.
        cfg = replace(completed_run.config,
                      output=replace(completed_run.config.output, dir=tmp_path / "staged"))
        for name in STAGE_ORDER:
            ctx = RunContext(cfg)
            try:
                run_stage(ctx, name)
            finally:
                ctx.close()
        staged = {p.relative_to(cfg.output.dir): p.read_bytes()
                  for p in cfg.output.dir.rglob("*") if p.is_file()}
        assert Path("corpus.jsonl") in staged
        for name, data in staged.items():
            if name != Path("manifest.json"):
                assert (completed_run.paths.out_dir / name).read_bytes() == data, name
        manifests = [json.loads(m.read_text())["stages"]
                     for m in (completed_run.paths.manifest, cfg.output.dir / "manifest.json")]
        for name in STAGE_ORDER:
            for key in ("inputs", "outputs", "model_identity", "config_hash"):
                assert manifests[0][name][key] == manifests[1][name][key], (name, key)


class TestStageEntries:
    def test_each_stage_records_its_wall_time_and_provenance(self, tmp_path):
        ctx = RunContext(make_config(tmp_path))
        try:
            start = time.perf_counter()
            run_all(ctx)
            elapsed = time.perf_counter() - start
        finally:
            ctx.close()
        stages = json.loads(ctx.paths.manifest.read_text())["stages"]
        assert set(stages) == set(STAGE_ORDER)
        walls = [entry["wall_s"] for entry in stages.values()]
        assert all(wall >= 0 for wall in walls)
        assert sum(walls) <= elapsed
        for entry in stages.values():
            assert entry["config_hash"] == ctx.config.config_hash()
            assert entry["model_identity"] == ctx.model_identity()
