"""Stage orchestration: artifacts, determinism, manifest, and degradation."""

from __future__ import annotations

import csv
import errno
import functools
import itertools
import json
import logging
import math
import os
import re
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import evontree
import evontree.gateway as gateway_module
import evontree.pipeline as pipeline_module
from evontree.calibration import calibrate_relation, checked_calibration, thresholds
from evontree.cli import EXIT_GATEWAY, EXIT_MISSING_UPSTREAM, EXIT_OK, main as cli_main
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
    ScoreRequest,
)
from evontree.ontology import (
    Relation,
    Triple,
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
from evontree.synthetic import GroundTruth, SyntheticBackend, SyntheticModel, sample_ground_truth
from test_report import shaping_row_indices

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
    "roc_curve.csv", "confirm_hist.csv", "manifest.json",
)

# What each stage's manifest entry names as read and written, after run_all
# plus sweep on make_config's one-root synthetic run.
MANIFEST_NAMES = {
    "extract": ((), ("forest.json", "raw.jsonl")),
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


# How long a "slow" fault holds its request: past the client timeout that
# the tests using it set.
SLOW_S = 0.5


@contextmanager
def serve_over_http(backend, faults: dict | None = None, faulted: list | None = None):
    """Serve backend on a loopback port as an HTTP model endpoint; yields its
    URL. faults maps a route to an iterator of the faults its requests meet
    in turn; a request whose route has no fault left is served. A fault is
    a status and its Retry-After or None, answered with no body, or one of:
    "truncated", a 200 whose body stops short of its Content-Length before
    the connection closes; "slow", no reply for SLOW_S, then the connection
    closes; "wrong_shape", a 200 whose JSON is not the route's answer. The
    map is read at each request, so clearing it clears the faults. Each
    faulted request's route and body go to faulted, when given."""
    routes = {"/v1/generate": backend.generate, "/v1/score": backend.score}
    faults = {} if faults is None else faults
    faults_lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as a real endpoint
        disable_nagle_algorithm = True

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with faults_lock:
                fault = next(faults.get(self.path, iter(())), None)
                if fault is not None and faulted is not None:
                    faulted.append((self.path, body))
            if isinstance(fault, tuple):
                status, retry_after = fault
                self.send_response(status)
                if retry_after is not None:
                    self.send_header("Retry-After", retry_after)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if fault == "slow":
                time.sleep(SLOW_S)
                self.close_connection = True
                return
            answer = {"wrong": "shape"} if fault == "wrong_shape" else routes[self.path](body)
            out = json.dumps(answer).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            if fault == "truncated":
                out = out[:len(out) // 2]
                self.close_connection = True
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


def artifact(ctx: RunContext, file: str) -> Path:
    """The path of file in ctx's output directory."""
    return ctx.config.output.dir / file


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    ctx = RunContext(make_config(tmp))
    run_all(ctx)
    return ctx


class TestRunAll:
    def test_all_artifacts_exist(self, completed_run):
        out = completed_run.config.output.dir
        for name in ARTIFACT_NAMES:
            assert (out / name).exists(), name

    def test_one_tree_file_per_root(self, completed_run):
        forest = json.loads(artifact(completed_run, "forest.json").read_text())
        assert [tree["nodes"][0]["label"] for tree in forest] == ["T0N0"]

    def test_counts_shrink_along_the_lifecycle(self, completed_run):
        out = completed_run.config.output.dir
        n = {stem: len(read_triple_file(out / f"{stem}.jsonl")) for stem in (
            "raw", "confirmed", "reliable", "extrapolated", "gaps")}
        assert n["raw"] >= n["confirmed"] >= n["reliable"]
        assert n["extrapolated"] >= n["gaps"]
        assert n["gaps"] > 0  # this config plants unfamiliar true triples

    def test_every_stage_recorded_in_manifest(self, completed_run):
        manifest = json.loads(artifact(completed_run, "manifest.json").read_text())
        assert set(manifest["stages"]) == set(STAGE_ORDER)
        assert all(entry["model_identity"].startswith("synthetic://7/")
                   for entry in manifest["stages"].values())
        assert manifest["perplexity_base"] == "e"
        assert manifest["prompt_set"] == "v1"
        calibration = json.loads(artifact(completed_run, "calibration.json").read_text())
        assert "SubclassOf" in calibration

    def test_manifest_hashes_match_artifact_bytes(self, completed_run):
        import hashlib

        manifest = json.loads(artifact(completed_run, "manifest.json").read_text())
        outputs = manifest["stages"]["confirm"]["outputs"]
        path = artifact(completed_run, "confirmed.jsonl")
        expected = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        assert outputs["confirmed.jsonl"] == expected

    def test_manifest_names_each_stages_inputs_and_outputs(self, completed_run):
        run_stage(completed_run, "sweep")
        stages = json.loads(artifact(completed_run, "manifest.json").read_text())["stages"]
        assert set(stages) == set(MANIFEST_NAMES)
        for name, (inputs, outputs) in MANIFEST_NAMES.items():
            assert sorted(stages[name]["inputs"]) == sorted(inputs), name
            assert sorted(stages[name]["outputs"]) == sorted(outputs), name

    def test_json_artifacts_are_compact(self, completed_run):
        written = sorted(completed_run.config.output.dir.rglob("*.json"))
        assert {p.name for p in written} >= {
            "calibration.json", "manifest.json", "report.json", "forest.json"}
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
        calibration = json.loads(artifact(ctx, "calibration.json").read_text())
        assert len(fitted) == len(calibration) == 2
        # The fits calibrate_relation returned, with their curves, by relation.
        fresh = {relation: next(f for f in fitted
                                if {key: fit.to_json_obj() for key, fit in f.items()} == fits)
                 for relation, fits in calibration.items()}
        with artifact(ctx, "roc_curve.csv").open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows == pipeline_module.roc_rows(fresh)
        # Each curve's rows are its shaping rows: ends and tau_star among them.
        assert len(shaping_row_indices(rows, fresh)) == sum(map(len, fitted))
        assert {(row[0], row[1]) for row in rows[1:]} == {
            (relation.value, str(t.paraphrase_id)) for relation in Relation
            for t in templates_for(relation)}

    def test_the_lock_file_is_left_empty(self, completed_run):
        assert artifact(completed_run, "evontree.lock").read_bytes() == b""

    def test_ground_truth_round_trips(self, completed_run):
        # No file keeps the truth: the config rebuilds it, and the manifest's
        # model_identity pins its content hash.
        truth = completed_run.ground_truth()
        back = GroundTruth(**json.loads(json.dumps(truth.to_json_obj())))
        assert back.to_json_obj() == truth.to_json_obj()
        manifest = json.loads(artifact(completed_run, "manifest.json").read_text())
        assert f"/{back.content_hash()[:8]}#" in manifest["stages"]["extract"]["model_identity"]

    def test_confirmed_matches_threshold_oracle(self, completed_run):
        out = completed_run.config.output.dir
        calibration = checked_calibration(json.loads((out / "calibration.json").read_text()))
        scored = read_triple_file(out / "scored_raw.jsonl")
        expected = {r.triple for r in scored
                    if confirm_decision(r.scores, thresholds(calibration, r.triple.relation))}
        assert {r.triple for r in read_triple_file(out / "confirmed.jsonl")} == expected

    def test_gap_chains_survive_into_corpus(self, completed_run):
        out = completed_run.config.output.dir
        gaps = read_triple_file(out / "gaps.jsonl")
        assert all(r.chains for r in gaps)
        corpus = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
        assert corpus
        gap_pairs = {(r.triple.subject.text, r.triple.object.text) for r in gaps}
        assert {(e["gap"]["s"], e["gap"]["o"]) for e in corpus} <= gap_pairs


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


def stored_rows(cache_dir: Path) -> dict[bytes, bytes]:
    """Every row of cache_dir's database, its value as stored, once SQLite
    finds the file sound and in the current format."""
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
        db.text_factory = bytes
        return dict(db.execute("SELECT key, value FROM responses"))


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
        out = tmp_path / "out"
        assert list(json.loads((out / "manifest.json").read_text())["stages"]) == ["extract"]

        # Every entry left is what the clean run stored under its key.
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
        for name in (*ARTIFACT_NAMES, "forest.json"):
            if name != "manifest.json":
                assert ((out / name).read_bytes()
                        == (completed_run.config.output.dir / name).read_bytes()), name


class TestDeterminism:
    def test_stage_rerun_reproduces_artifact_hash(self, completed_run):
        path = artifact(completed_run, "confirmed.jsonl")
        before = path.read_bytes()
        run_stage(completed_run, "confirm")
        assert path.read_bytes() == before


# A forest of 25 raw triples and 2 gaps, small enough for whole runs over
# HTTP: verified to give both labels of both relations.
SMALL_FOREST = {
    "model": {"kind": "synthetic",
              "synthetic": {"depth": 2, "branching": 3, "synonym_rate": 0.4,
                            "seed": 6, "hallucination_rate": 0.2}},
    "extraction": {"roots": ["T0N0"], "max_depth": 2},
}


def run_over_http(tmp_path: Path, url: str, out_name: str, cache_name: str) -> int:
    """The CLI's exit code for `run` of SMALL_FOREST, asking the synthetic
    model served at url and judged by it, into tmp_path/out_name."""
    model = {"kind": "http", "name": "synthetic", "endpoint": url, "judge": {"kind": "self"}}
    obj = config_obj(out_name, cache_name, **{**SMALL_FOREST, "model": model})
    config = tmp_path / f"{out_name}.json"
    config.write_text(json.dumps(obj))
    return cli_main(["run", "--config", str(config)])


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file under out but the manifest and the response cache."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
            and p.relative_to(out).parts[0] != "cache"}


@pytest.fixture(scope="module")
def http_model(tmp_path_factory):
    """The synthetic model of SMALL_FOREST served over HTTP with the fault
    map of serve_over_http, and a clean run on it into clean/, with its own
    cache in clean-cache/."""
    tmp = tmp_path_factory.mktemp("http")
    faults, faulted = {}, []
    backend = synthetic_backend(make_config(tmp, **SMALL_FOREST))
    with serve_over_http(backend, faults, faulted) as url:
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv(ENDPOINT_ENV_VAR, raising=False)
            assert run_over_http(tmp, url, "clean", "clean-cache") == EXIT_OK
        yield SimpleNamespace(url=url, faults=faults, faulted=faulted,
                              clean=artifact_bytes(tmp / "clean"),
                              clean_rows=stored_rows(tmp / "clean-cache"))


@pytest.fixture
def faulty_http(http_model, monkeypatch):
    """http_model with no fault set and none met yet, every retry wait zero:
    a 503 without Retry-After draws its wait from a patched _JITTER."""
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    monkeypatch.setattr(gateway_module._JITTER, "uniform", lambda lo, hi: 0.0)
    http_model.faults.clear()
    http_model.faulted.clear()
    yield http_model
    http_model.faults.clear()


class TestHttpFaults:
    """Whole runs through the CLI against an endpoint that fails."""

    def test_transient_faults_are_retried_to_the_clean_artifacts(self, tmp_path, faulty_http):
        faults = faulty_http.faults
        faults["/v1/score"] = iter([(503, None)])
        faults["/v1/generate"] = iter([(429, "0")])
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_OK
        assert all(next(pending, None) is None for pending in faults.values())
        assert artifact_bytes(tmp_path / "out") == faulty_http.clean
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert sum(entry["gateway"]["retries"] for entry in stages.values()) == 2

    def test_a_dead_score_route_exits_4_and_a_clean_rerun_reproduces(self, tmp_path,
                                                                     faulty_http):
        faulty_http.faults["/v1/score"] = itertools.repeat((503, None))
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_GATEWAY
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert list(stages) == ["extract"]
        stored = stored_rows(tmp_path / "cache")  # sound, in the current format
        # What the run stored before the fault is what the clean run stored,
        # and no score: every score request met the fault.
        assert stored and stored.items() <= faulty_http.clean_rows.items()
        score_keys = {gateway_module._cache_key(faulty_http.url, body["model"], "score",
                                                ScoreRequest(body["prompt"], body["completion"]))
                      for route, body in faulty_http.faulted if route == "/v1/score"}
        assert score_keys and not stored.keys() & score_keys
        faulty_http.faults.clear()
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_OK
        assert artifact_bytes(tmp_path / "out") == faulty_http.clean

    @pytest.mark.parametrize(("route", "fault"), [("/v1/score", "truncated"),
                                                  ("/v1/generate", "slow")])
    def test_a_reply_cut_short_or_late_is_retried_to_the_clean_artifacts(
            self, tmp_path, faulty_http, monkeypatch, route, fault):
        # A client timeout the slow fault outlasts.
        monkeypatch.setattr(pipeline_module, "HttpBackend",
                            functools.partial(HttpBackend, timeout_s=0.2))
        faulty_http.faults[route] = iter([fault])
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_OK
        assert [path for path, _ in faulty_http.faulted] == [route]
        assert artifact_bytes(tmp_path / "out") == faulty_http.clean
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert sum(entry["gateway"]["retries"] for entry in stages.values()) == 1

    def test_a_wrong_shape_score_exits_4_unstored_and_a_clean_rerun_reproduces(
            self, tmp_path, faulty_http):
        faulty_http.faults["/v1/score"] = iter(["wrong_shape"])
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_GATEWAY
        stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
        assert list(stages) == ["extract"]
        [(_, body)] = faulty_http.faulted
        key = gateway_module._cache_key(faulty_http.url, body["model"], "score",
                                        ScoreRequest(body["prompt"], body["completion"]))
        stored = stored_rows(tmp_path / "cache")
        assert key in faulty_http.clean_rows and key not in stored
        # What the run stored before the fault is what the clean run stored.
        assert stored.items() <= faulty_http.clean_rows.items()
        assert run_over_http(tmp_path, faulty_http.url, "out", "cache") == EXIT_OK
        assert artifact_bytes(tmp_path / "out") == faulty_http.clean


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

    def test_http_backend_fans_out_in_order(self, tmp_path, pools):
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
        gateway = ModelGateway(backend, model="m", cache_dir=tmp_path, max_in_flight=3)
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
        report = json.loads(artifact(ctx, "report.json").read_text())
        assert report["judge"] == "http" and not report["judge_unavailable"]
        # The served model judges from the same reference as the self judge.
        assert (artifact(ctx, "report.csv").read_bytes()
                == artifact(completed_run, "report.csv").read_bytes())


class TestGatewayCounts:
    def test_each_stage_records_its_own_counts(self, completed_run):
        manifest = json.loads(artifact(completed_run, "manifest.json").read_text())
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
        stages = json.loads(artifact(ctx, "manifest.json").read_text())["stages"]
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
        raw = read_triple_file(artifact(ctx, "raw.jsonl"))
        pairs = Counter()
        for record in raw:
            pairs[record.triple.relation] += len(templates_for(record.triple.relation))
        # One stream of probes, two completions per pair, then one stream of
        # labels per relation, each cut into batches by the gateway.
        streams = (2 * sum(pairs.values()), *pairs.values())
        batches = sum(math.ceil(n / BATCH_SIZE) for n in streams)
        entry = json.loads(artifact(ctx, "manifest.json").read_text())["stages"]["calibrate"]
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
        raw = read_triple_file(artifact(ctx, "raw.jsonl"))
        true_raw = {r.triple for r in raw
                    if gt.is_true(r.triple.relation, r.triple.subject.key,
                                  r.triple.object.key)}
        confirmed = {r.triple for r in read_triple_file(artifact(ctx, "confirmed.jsonl"))}
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

    def test_a_dead_judge_leaves_the_report_without_accuracy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_module._JITTER, "uniform", lambda lo, hi: 0.0)
        # Port 1 refuses at once.
        judge = {"kind": "http", "endpoint": "http://127.0.0.1:1", "model": "judge"}
        model = {**SMALL_FOREST["model"], "judge": judge}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_obj(**{**SMALL_FOREST, "model": model})))
        assert cli_main(["run", "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["judge"] == "http" and report["judge_unavailable"] is True
        header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
        assert header == "Triple Type,Relation,Num,ConfirmValue Avg."

    def test_judge_none_reports_without_accuracy_or_requests(self, tmp_path):
        model = {**SMALL_FOREST["model"], "judge": {"kind": "none"}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_obj(**{**SMALL_FOREST, "model": model})))
        assert cli_main(["run", "--config", str(config)]) == EXIT_OK
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["judge"] == "none" and report["judge_unavailable"] is False
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "Triple Type,Relation,Num,ConfirmValue Avg."
        with (out / "confirm_hist.csv").open(newline="") as f:
            hist = list(csv.DictReader(f))
        assert hist and all(row["accuracy"] == "" for row in hist)
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert set(stages["report"]["gateway"].values()) == {0}

    def test_ground_truth_needs_the_synthetic_model(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        model = {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"}
        ctx = RunContext(make_config(tmp_path, **{**SMALL_FOREST, "model": model}))
        with pytest.raises(ValueError, match="only exists for the synthetic model"):
            ctx.ground_truth()

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
                                    model="synthetic", cache_dir=cfg.output.resolved_cache_dir())
        try:
            run_stage(ctx, "extract")
            run_stage(ctx, "calibrate")
        finally:
            ctx.close()
        raw = read_triple_file(artifact(ctx, "raw.jsonl"))
        scored = read_triple_file(artifact(ctx, "scored_raw.jsonl"))
        poisoned = {r.triple for r in raw
                    if "T0N1" in (r.triple.subject.text, r.triple.object.text)}
        assert poisoned
        assert {r.triple for r in scored} == {r.triple for r in raw} - poisoned
        manifest = json.loads(artifact(ctx, "manifest.json").read_text())
        assert manifest["stages"]["calibrate"]["tallies"]["unscored"] == len(poisoned)


    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Relation)),
                              st.booleans(), st.sampled_from([None, " True", " False"])),
                    max_size=60))
    def test_score_records_drops_exactly_the_empty_spans(self, specs):
        # Each spec: relation, whether the record has chains, and which
        # completion of its probes, if any, scores no tokens. Up to 60
        # records, up to 600 probes, cross a batch of BATCH_SIZE requests.
        records = [TripleRecord(Triple(lbl(f"S{i}"), relation, lbl(f"O{i}")),
                                chains=[[(f"S{i}", f"M{i}"), (f"M{i}", f"O{i}")]]
                                if chained else None)
                   for i, (relation, chained, _) in enumerate(specs)]
        empty = {f"S{i}": completion for i, (*_, completion) in enumerate(specs)}

        class Backend:
            identity = "fake://spans"

            def score(self, body):
                subject = re.search(r"'(S\d+)'", body["prompt"]).group(1)
                if empty[subject] == body["completion"]:
                    return {"token_logprobs": []}
                return {"token_logprobs": [-0.5 if body["completion"] == " True" else -1.0]}

        with tempfile.TemporaryDirectory() as tmp, closing(
                ModelGateway(Backend(), model="m", cache_dir=Path(tmp))) as gateway:
            scored, unscored = pipeline_module._score_records(
                SimpleNamespace(gateway=lambda: gateway), records)
        value = confirm_value(perplexity([-0.5]), perplexity([-1.0]))
        kept = [r for r, (*_, completion) in zip(records, specs) if completion is None]
        assert scored == [
            TripleRecord(r.triple, chains=r.chains,
                         scores=[value] * len(templates_for(r.triple.relation)))
            for r in kept]
        assert unscored == len(records) - len(kept)


class TestSweepStage:
    def test_sweep_csv_is_monotone(self, completed_run):
        run_stage(completed_run, "sweep")
        lines = artifact(completed_run, "sweep.csv").read_text().splitlines()
        assert lines[0] == "offset,gap_count,mean_confirm_value"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts)
        assert counts[-1] == len(
            read_triple_file(artifact(completed_run, "scored_extrapolated.jsonl")))
        assert counts[0] == 0


class TestOneSidedLabels:
    def test_all_true_synonym_labels_calibrate_and_the_run_completes(self, tmp_path):
        # SMALL_FOREST's seeds whose SynonymOf one-shot labels are all true.
        for seed in (1, 2, 3, 5):
            synthetic = {**SMALL_FOREST["model"]["synthetic"], "seed": seed}
            obj = config_obj(f"out{seed}", f"cache{seed}", **{
                **SMALL_FOREST, "model": {**SMALL_FOREST["model"], "synthetic": synthetic}})
            config = tmp_path / f"seed{seed}.json"
            config.write_text(json.dumps(obj))
            assert cli_main(["run", "--config", str(config)]) == EXIT_OK
            assert cli_main(["sweep", "--config", str(config)]) == EXIT_OK
            calibration = json.loads((tmp_path / f"out{seed}" / "calibration.json").read_text())
            fits = calibration["SynonymOf"].values()
            assert all(fit["counts"]["pos"] > 0 and fit["counts"]["neg"] == 0 for fit in fits)
            assert all((fit["tau_star"], fit["max_j"]) == (0.0, 1.0) for fit in fits)


def extract_outputs(cfg) -> set[str]:
    """Run extract on cfg; the outputs its manifest entry names."""
    ctx = RunContext(cfg)
    try:
        run_stage(ctx, "extract")
    finally:
        ctx.close()
    manifest = json.loads(artifact(ctx, "manifest.json").read_text())
    return set(manifest["stages"]["extract"]["outputs"])


def forest_roots(out: Path) -> list[str]:
    """The root label of each tree in forest.json, in file order."""
    return [tree["nodes"][0]["label"]
            for tree in json.loads((out / "forest.json").read_text(encoding="utf-8"))]


class TestExtractOutputs:
    """extract writes exactly its TABLE outputs, whole on every run."""

    def test_a_rerun_removes_the_tree_files_of_dropped_roots(self, tmp_path):
        model = {**BASE_MODEL, "synthetic": {**BASE_MODEL["synthetic"], "n_roots": 2}}
        outputs = extract_outputs(make_config(
            tmp_path, model=model, extraction={"roots": ["T1N0", "T0N0"], "max_depth": 1}))
        assert outputs == {"forest.json", "raw.jsonl"}
        assert forest_roots(tmp_path / "out") == ["T1N0", "T0N0"]  # in config order
        outputs = extract_outputs(make_config(
            tmp_path, model=model, extraction={"roots": ["T0N0"], "max_depth": 1}))
        assert outputs == {"forest.json", "raw.jsonl"}
        assert forest_roots(tmp_path / "out") == ["T0N0"]

    def test_roots_whose_slugs_collide_get_a_file_each(self, tmp_path):
        # Roots that differ only in punctuation each keep their own tree.
        # Neither root is in the synthetic forest, so each tree is its root.
        extract_outputs(make_config(
            tmp_path, extraction={"roots": ["T0 N0", "T0-N0"], "max_depth": 1}))
        forest = json.loads((tmp_path / "out" / "forest.json").read_text())
        assert [[node["label"] for node in tree["nodes"]] for tree in forest] == [
            ["T0 N0"], ["T0-N0"]]


@pytest.fixture
def run_copy(completed_run, tmp_path):
    """A context over a copy of the completed run's artifacts, sharing its cache."""
    out = tmp_path / "copy"
    shutil.copytree(completed_run.config.output.dir, out)
    ctx = RunContext(replace(completed_run.config,
                             output=replace(completed_run.config.output, dir=out)))
    yield ctx
    ctx.close()


class TestStaleInputs:
    def test_new_extract_refuses_downstream_until_rerun(self, run_copy):
        reseeded = RunContext(replace_seed(run_copy.config, 8))
        try:
            run_stage(reseeded, "extract")
            confirmed = artifact(run_copy, "confirmed.jsonl").read_bytes()
            for stage in ("confirm", "report"):
                with pytest.raises(StaleUpstreamError, match=r"raw\.jsonl \(rerun 'calibrate'\)"):
                    run_stage(run_copy, stage)
            assert artifact(run_copy, "confirmed.jsonl").read_bytes() == confirmed
            for stage in STAGE_ORDER[1:] + ("sweep",):
                run_stage(reseeded, stage)
        finally:
            reseeded.close()
        assert issubclass(StaleUpstreamError, MissingUpstreamError)  # CLI exit code 3

    def test_calibrate_failing_after_rewriting_scores_refuses_confirm(self, run_copy,
                                                                       monkeypatch):
        def full_disk(path, text, write=pipeline_module.write_atomic):
            if path.name == "calibration.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            write(path, text)

        monkeypatch.setattr(pipeline_module, "write_atomic", full_disk)
        scored_raw = artifact(run_copy, "scored_raw.jsonl").read_bytes()
        # Another seed scores the same raw triples differently.
        reseeded = RunContext(replace_seed(run_copy.config, 8))
        try:
            with pytest.raises(OSError, match="calibration.json"):
                run_stage(reseeded, "calibrate")  # after writing scored_raw.jsonl
        finally:
            reseeded.close()
        assert artifact(run_copy, "scored_raw.jsonl").read_bytes() != scored_raw
        with pytest.raises(StaleUpstreamError) as exc:
            run_stage(run_copy, "confirm")
        assert "scored_raw.jsonl (rerun 'calibrate')" in str(exc.value)
        assert str(exc.value).count("(rerun") == 1

    def test_a_failed_calibrate_writes_none_of_its_outputs(self, run_copy, monkeypatch):
        def endpoint_down(*args, **kwargs):
            raise TransportError("endpoint down")

        monkeypatch.setattr(pipeline_module, "collect_samples", endpoint_down)
        paths = [artifact(run_copy, file)
                 for file in ("scored_raw.jsonl", "calibration.json", "roc_curve.csv")]
        before = [path.read_bytes() for path in paths]
        # Another seed would score the same raw triples differently.
        reseeded = RunContext(replace_seed(run_copy.config, 8))
        try:
            with pytest.raises(TransportError):
                run_stage(reseeded, "calibrate")
        finally:
            reseeded.close()
        assert [path.read_bytes() for path in paths] == before
        run_stage(run_copy, "confirm")

    def test_a_failed_extrapolate_writes_none_of_its_outputs(self, run_copy, monkeypatch):
        def endpoint_down(*args, **kwargs):
            raise TransportError("endpoint down")

        monkeypatch.setattr(pipeline_module, "score_triples", endpoint_down)
        path = artifact(run_copy, "extrapolated.jsonl")
        # A rewrite would give the same bytes, but a new file in place.
        before = (path.read_bytes(), path.stat().st_ino)
        with pytest.raises(TransportError):
            run_stage(run_copy, "extrapolate")
        assert (path.read_bytes(), path.stat().st_ino) == before

    def test_hand_edited_input_refuses_its_reader(self, run_copy):
        path = artifact(run_copy, "confirmed.jsonl")
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        with pytest.raises(StaleUpstreamError, match=r"confirmed\.jsonl \(rerun 'confirm'\)"):
            run_stage(run_copy, "reliable")
        run_stage(run_copy, "confirm")
        run_stage(run_copy, "reliable")

    def test_calibration_json_in_an_older_format_is_refused(self, run_copy, tmp_path, caplog):
        # A run directory from before calibration.json was the bare map of
        # fits: its manifest recorded the calibration.json it holds, as
        # written and as read.
        path = artifact(run_copy, "calibration.json")
        fresh = path.read_bytes()
        path.write_text(json.dumps({"prompt_set": "v1", "relations": json.loads(fresh),
                                    "sweep": {"hi": 1.0, "lo": 0.0}, "unparseable": 0}))
        old, new = pipeline_module._digest(fresh), pipeline_module._digest(path.read_bytes())
        manifest = json.loads(artifact(run_copy, "manifest.json").read_text())
        for entry in manifest["stages"].values():
            for hashes in (entry["inputs"], entry["outputs"]):
                hashes.update({file: new for file, digest in hashes.items() if digest == old})
        artifact(run_copy, "manifest.json").write_text(json.dumps(manifest))
        out, cache = run_copy.config.output.dir, run_copy.config.output.resolved_cache_dir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_obj(str(out), str(cache))))
        flags = ["--config", str(config), "--stage-dir", str(out)]
        written = {file: (out / file).read_bytes() for file in ("confirmed.jsonl", "gaps.jsonl")}
        for stage in ("confirm", "gap", "sweep"):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="evontree.cli"):
                assert cli_main([stage, *flags]) == EXIT_MISSING_UPSTREAM, stage
            assert ("calibration.json holds fits for ['prompt_set', 'relations', 'sweep', "
                    "'unparseable'] that are malformed or in an older format; rerun "
                    "'calibrate' and the stages after it") in caplog.text, stage
        assert {file: (out / file).read_bytes() for file in written} == written
        assert cli_main(["calibrate", *flags]) == EXIT_OK
        assert path.read_bytes() == fresh

    def test_manifest_top_level_is_rewritten_and_stages_kept(self, run_copy):
        manifest = json.loads(artifact(run_copy, "manifest.json").read_text())
        stages = manifest["stages"]
        manifest["thresholds"] = {"SubclassOf": [0.5]}  # a key this version does not write
        artifact(run_copy, "manifest.json").write_text(json.dumps(manifest))
        run_stage(run_copy, "confirm")
        after = json.loads(artifact(run_copy, "manifest.json").read_text())
        assert "thresholds" not in after
        assert set(after) == {"tool_version", "prompt_set", "template_set", "perplexity_base",
                              "judge", "stages"}
        assert list(after["stages"]) == list(stages)
        assert {k: v for k, v in after["stages"].items() if k != "confirm"} == {
            k: v for k, v in stages.items() if k != "confirm"}

    def test_input_without_a_recorded_producer_is_accepted(self, run_copy):
        manifest = json.loads(artifact(run_copy, "manifest.json").read_text())
        del manifest["stages"]["confirm"]
        artifact(run_copy, "manifest.json").write_text(json.dumps(manifest))
        path = artifact(run_copy, "confirmed.jsonl")
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        run_stage(run_copy, "reliable")


class TestHandoff:
    """Under run, the records run_stage wrote for each stage are handed to
    the stages after it; the files are still written, hashed and checked."""

    def test_run_all_parses_no_artifact_it_wrote(self, tmp_path, monkeypatch):
        handed = []  # (stage, file, value, the file's bytes as the stage began)

        def recording(name, body):
            def run(ctx, *inputs):
                handed.extend((name, file, value, artifact(ctx, file).read_bytes())
                              for file, value in zip(TABLE[name][1], inputs, strict=True))
                return body(ctx, *inputs)
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
        monkeypatch.setattr(pipeline_module, "checked_calibration",
                            counting("checked_calibration", checked_calibration))
        ctx = RunContext(make_config(tmp_path))
        try:
            run_all(ctx)
        finally:
            ctx.close()
        monkeypatch.undo()

        assert parses == Counter()
        assert ({(stage, file) for stage, file, _, _ in handed}
                == {(stage, file) for stage in STAGE_ORDER for file in TABLE[stage][1]})
        for stage, file, value, data in handed:
            parsed = pipeline_module._load_input(file, data)
            assert value == parsed, (stage, file)
            if file != "calibration.json":  # labels compare by key; their text too
                assert ([r.to_json_obj() for r in value]
                        == [r.to_json_obj() for r in parsed]), (stage, file)

    def test_a_file_rewritten_by_another_context_is_parsed(self, tmp_path):
        a = RunContext(make_config(tmp_path))
        b = RunContext(replace_seed(a.config, 8))
        try:
            run_stage(a, "extract")
            raw_a = {r.triple for r in read_triple_file(artifact(a, "raw.jsonl"))}
            run_stage(b, "extract")
            raw_b = {r.triple for r in read_triple_file(artifact(a, "raw.jsonl"))}
            run_stage(a, "calibrate")
        finally:
            a.close()
            b.close()
        assert raw_a != raw_b
        assert {r.triple for r in read_triple_file(artifact(a, "scored_raw.jsonl"))} == raw_b

    def test_a_failed_stage_hands_nothing_on(self, run_copy, monkeypatch):
        def endpoint_down(*args, **kwargs):
            raise TransportError("endpoint down")

        monkeypatch.setattr(pipeline_module, "collect_samples", endpoint_down)
        with pytest.raises(TransportError):
            run_stage(run_copy, "calibrate")  # after scoring raw.jsonl
        assert "scored_raw.jsonl" not in run_copy._kept
        monkeypatch.undo()
        run_stage(run_copy, "calibrate")
        assert set(run_copy._kept) == {"scored_raw.jsonl", "calibration.json"}


class TestModelIdentity:
    def test_a_trailing_slash_names_the_same_endpoint(self, tmp_path, monkeypatch):
        # Both spellings share the cache's keys, so the manifest names them
        # alike: the second extract is answered from the first one's cache.
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        entries = []
        with serve_over_http(synthetic_backend(make_config(tmp_path, **SMALL_FOREST))) as url:
            for out_name, endpoint in (("plain", url), ("slashed", url + "/")):
                model = {"kind": "http", "name": "synthetic", "endpoint": endpoint}
                ctx = RunContext(make_config(tmp_path, out_name,
                                             **{**SMALL_FOREST, "model": model}))
                try:
                    run_stage(ctx, "extract")
                finally:
                    ctx.close()
                manifest = json.loads(artifact(ctx, "manifest.json").read_text())
                entries.append(manifest["stages"]["extract"])
        assert entries[0]["model_identity"] == entries[1]["model_identity"] == f"{url}#synthetic"
        assert entries[0]["gateway"]["backend_calls"] > 0
        assert entries[1]["gateway"]["cache_hits"] == entries[1]["gateway"]["requests"] > 0
        assert entries[1]["gateway"]["backend_calls"] == 0


    def test_the_identity_is_the_gateway_backends(self, tmp_path, monkeypatch):
        # model_identity gives, without opening a gateway, the identity the
        # backend of the gateway it would open gives, for either kind.
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        with serve_over_http(synthetic_backend(make_config(tmp_path, **SMALL_FOREST))) as url:
            for model in (SMALL_FOREST["model"],
                          {"kind": "http", "name": "served", "endpoint": url + "/"}):
                ctx = RunContext(make_config(tmp_path, **{**SMALL_FOREST, "model": model}))
                try:
                    identity = ctx.model_identity()
                    assert ctx._open_gateways() == []
                    name = ctx.config.model.name
                    assert identity == f"{ctx.gateway().backend.identity}#{name}"
                finally:
                    ctx.close()

    def test_a_pure_stage_opens_no_gateway(self, run_copy):
        for stage in ("confirm", "reliable", "gap"):
            run_stage(run_copy, stage)
        assert run_copy._open_gateways() == []


class TestStageEntries:
    def test_each_stage_records_its_wall_time_and_provenance(self, tmp_path):
        ctx = RunContext(make_config(tmp_path))
        try:
            start = time.perf_counter()
            run_all(ctx)
            elapsed = time.perf_counter() - start
        finally:
            ctx.close()
        stages = json.loads(artifact(ctx, "manifest.json").read_text())["stages"]
        assert set(stages) == set(STAGE_ORDER)
        walls = [entry["wall_s"] for entry in stages.values()]
        assert all(wall >= 0 for wall in walls)
        assert sum(walls) <= elapsed
        for entry in stages.values():
            assert entry["config_hash"] == ctx.config.config_hash()
            assert entry["model_identity"] == ctx.model_identity()
