"""Stage orchestration: artifacts, determinism, manifest, and degradation."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import evontree.pipeline as pipeline
from evontree.config import ENDPOINT_ENV_VAR, parse_config
from evontree.errors import MissingUpstreamError
from evontree.gateway import HttpBackend, ModelGateway
from evontree.ontology import Relation, TripleClass, read_triple_file
from evontree.pipeline import STAGE_ORDER, RunContext, run_all, run_stage, stage_sweep
from evontree.scoring import confirm_decision
from evontree.synthesis import read_corpus
from evontree.synthetic import GroundTruth, SyntheticBackend, SyntheticModel, sample_ground_truth

# Verified to produce every class non-empty: enough synonym pairs for both
# label polarities, hallucinated children for false triples.
BASE_MODEL = {
    "kind": "synthetic",
    "synthetic": {"depth": 3, "branching": 3, "synonym_rate": 0.4,
                  "seed": 7, "hallucination_rate": 0.2},
}


def make_config(tmp_path: Path, out_name: str = "out", cache_name: str = "cache",
                **overrides) -> "RunConfig":
    obj = {
        "model": BASE_MODEL,
        "extraction": {"roots": ["T0N0"], "max_depth": 3},
        "output": {"dir": out_name, "cache_dir": cache_name},
    }
    obj.update(overrides)
    return parse_config(obj, base_dir=tmp_path)


ARTIFACT_NAMES = (
    "raw.jsonl", "scored_raw.jsonl", "calibration.json", "confirmed.jsonl",
    "reliable.jsonl", "extrapolated.jsonl", "scored_extrapolated.jsonl",
    "gaps.jsonl", "corpus.jsonl", "report.json", "report.csv",
    "roc_curve.csv", "confirm_hist.csv", "manifest.json", "ground_truth.json",
)


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
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the pipeline builds, in order."""
    built = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
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
        assert "SubclassOf" in manifest["thresholds"]

    def test_manifest_hashes_match_artifact_bytes(self, completed_run):
        import hashlib

        manifest = json.loads(completed_run.paths.manifest.read_text())
        outputs = manifest["stages"]["confirm"]["outputs"]
        path = completed_run.paths.confirmed
        expected = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        assert outputs["confirmed.jsonl"] == expected

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

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        ctx = RunContext(make_config(tmp_path, scoring={"max_in_flight": 8}))
        try:
            threads = []

            def fn(item):
                threads.append(threading.get_ident())
                return item * 2

            assert ctx.map_concurrent(fn, range(20), ctx.gateway()) == [i * 2 for i in range(20)]
            assert set(threads) == {threading.get_ident()}
            # Every stage that maps over model requests, the judge included.
            assert ctx.config.model.judge.kind == "self"
            run_all(ctx)
        finally:
            ctx.close()

    def test_http_backend_fans_out_in_order(self, tmp_path, pools):
        ctx = RunContext(make_config(tmp_path, scoring={"max_in_flight": 3}))
        gateway = ModelGateway(HttpBackend("http://127.0.0.1:1"), model="m", cache_dir=None)
        try:
            def fn(item):
                time.sleep(0.002 * (10 - item))  # later items finish first
                return item, threading.get_ident()

            results = ctx.map_concurrent(fn, range(10), gateway)
        finally:
            gateway.close()
        assert [item for item, _ in results] == list(range(10))
        assert threading.get_ident() not in {thread for _, thread in results}
        assert pools == [3]

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
            stage_sweep(ctx)

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


class TestSweepStage:
    def test_sweep_csv_is_monotone(self, completed_run):
        stage_sweep(completed_run)
        lines = completed_run.paths.sweep.read_text().splitlines()
        assert lines[0] == "offset,gap_count,mean_confirm_value"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts)
        assert counts[-1] == len(read_triple_file(completed_run.paths.scored_extrapolated))
        assert counts[0] == 0
