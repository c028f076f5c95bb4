"""Command-line verbs, exit codes, and flag plumbing."""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import random
import shutil
import sqlite3
import struct
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import evontree
import evontree.pipeline
from evontree.cli import EXIT_CONFIG, EXIT_GATEWAY, EXIT_MISSING_UPSTREAM, EXIT_OK, main
from evontree.config import ENDPOINT_ENV_VAR
from evontree.errors import TransportError
from evontree.extraction import build_tree_prompt
from evontree.gateway import CACHE_FILE, RETRY_BACKOFF_S, HttpBackend, ModelGateway, ResponseCache
from evontree.ontology import normalize_label, read_triple_file
from evontree.pipeline import STAGE_ORDER
from evontree.synthetic import SyntheticBackend

CONFIG_OBJ = {
    "model": {
        "kind": "synthetic",
        "synthetic": {"depth": 3, "branching": 3, "synonym_rate": 0.4,
                      "seed": 7, "hallucination_rate": 0.2},
    },
    "extraction": {"roots": ["T0N0"], "max_depth": 3},
    "output": {"dir": "out"},
}


def write_config(tmp_path: Path, obj: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def artifact_files(out: Path) -> dict[str, bytes]:
    """Every file under the output directory by relative path, but the
    manifest and the response cache."""
    return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")
            if path.is_file() and path.name != "manifest.json"
            and path.relative_to(out).parts[0] != "cache"}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    config = write_config(tmp, CONFIG_OBJ)
    assert main(["run", "--config", str(config)]) == EXIT_OK
    return tmp, config


class TestExitCodes:
    def test_run_succeeds(self, finished_run):
        tmp, _ = finished_run
        assert (tmp / "out" / "corpus.jsonl").exists()
        assert (tmp / "out" / "manifest.json").exists()

    def test_run_closes_the_response_cache(self, finished_run):
        # Closing folds the write-ahead log back in; no -wal or -shm is left.
        tmp, _ = finished_run
        assert [p.name for p in (tmp / "out" / "cache").iterdir()] == [CACHE_FILE]

    def test_config_error_exits_2(self, tmp_path):
        config = write_config(tmp_path, {**CONFIG_OBJ, "typo_section": {}})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_root_without_utf8_form_exits_2_and_names_it(self, tmp_path, caplog):
        # json.dumps writes the lone surrogate as the escape \ud800.
        obj = {**CONFIG_OBJ, "extraction": {"roots": ["T0N0\ud800"], "max_depth": 3}}
        config = write_config(tmp_path, obj)
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert "config.extraction.roots[0] has no UTF-8 form" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("section", "key"), [("extraction", "parse_retries"),
                                                  ("synthesis", "empty_retries")])
    def test_retired_retry_keys_are_unknown_exit_2(self, tmp_path, caplog, section, key):
        # One re-ask rule, with no setting, replaced both keys.
        config = write_config(tmp_path, {**CONFIG_OBJ, section: {key: 3}})
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert f"unknown key(s) ['{key}'] in config.{section}" in caplog.text

    def test_rules_section_is_an_unknown_key_exits_2_before_any_stage(self, tmp_path, caplog):
        # Extrapolation is one hop, and the rules section that named it is
        # gone: any rules.hops is an unknown key.
        config = write_config(tmp_path, {**CONFIG_OBJ, "rules": {"hops": 1}})
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert "unknown key(s) ['rules'] in config" in caplog.text
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_missing_upstream_exits_3(self, tmp_path):
        config = write_config(tmp_path, CONFIG_OBJ)
        assert main(["gap", "--config", str(config)]) == EXIT_MISSING_UPSTREAM

    def test_stale_upstream_exits_3_and_names_it(self, finished_run, tmp_path, caplog):
        tmp, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(tmp / "out", out, ignore=shutil.ignore_patterns("cache"))
        flags = ["--config", str(config), "--stage-dir", str(out)]
        assert main(["extract", *flags, "--seed", "8"]) == EXIT_OK
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["confirm", *flags]) == EXIT_MISSING_UPSTREAM
        assert "raw.jsonl (rerun 'calibrate')" in caplog.text

    def test_each_stage_entry_keeps_its_own_provenance(self, finished_run, tmp_path):
        tmp, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(tmp / "out", out, ignore=shutil.ignore_patterns("cache"))
        before = json.loads((out / "manifest.json").read_text())["stages"]
        flags = ["--config", str(config), "--stage-dir", str(out)]
        assert main(["extract", *flags, "--seed", "8"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        stages = manifest["stages"]
        assert before["extract"]["model_identity"].startswith("synthetic://7/")
        assert stages["extract"]["model_identity"].startswith("synthetic://8/")
        assert stages["extract"]["config_hash"] != before["extract"]["config_hash"]
        assert stages["calibrate"] == before["calibrate"]
        assert stages["calibrate"]["model_identity"].startswith("synthetic://7/")
        # The top-level keys name the stage that ran last.
        assert manifest["model_identity"] == stages["extract"]["model_identity"]
        assert manifest["config_hash"] == stages["extract"]["config_hash"]

    def test_endpoint_without_scheme_exits_2_before_any_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        config = write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "127.0.0.1:1"},
            "output": {"dir": "out"},
        })
        assert main(["extract", "--config", str(config)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_non_finite_float_exits_2_before_any_request(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        posted = []
        monkeypatch.setattr(HttpBackend, "_post",
                            lambda self, path, body: posted.append(path))
        # json.dumps writes math.inf as the literal Infinity.
        config = write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"},
            "extraction": {"gen_temperature": math.inf},
            "output": {"dir": "out"},
        })
        assert "Infinity" in config.read_text()
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["extract", "--config", str(config)]) == EXIT_CONFIG
        assert "config.extraction.gen_temperature must be a finite number" in caplog.text
        assert posted == []
        assert not (tmp_path / "out").exists()

    def test_gateway_failure_exits_4(self, tmp_path, monkeypatch, full_backoff):
        # Port 1 refuses instantly; the retries' back-off is recorded, not slept.
        delays = []
        monkeypatch.setattr(evontree.pipeline, "ModelGateway",
                            functools.partial(ModelGateway, sleep=delays.append))
        # One root: a level of the default 15 fans out and records a back-off
        # per request.
        config = write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"},
            "extraction": {"roots": ["Enzyme"]},
            "output": {"dir": "out"},
        })
        assert main(["extract", "--config", str(config)]) == EXIT_GATEWAY
        assert delays == list(RETRY_BACKOFF_S)

    def test_child_transport_failure_exits_4_and_a_rerun_resumes(self, finished_run,
                                                                 tmp_path, monkeypatch):
        # A child's expansion fails in transport: the stage fails rather than
        # leave a leaf, and the rerun on the same cache asks for nothing the
        # failed run was answered, then matches the clean run.
        clean, _ = finished_run
        monkeypatch.setattr(evontree.pipeline, "ModelGateway",
                            functools.partial(ModelGateway, sleep=lambda s: None))
        asked, generate = [], SyntheticBackend.generate

        def child_down(self, body):
            if down and "subclasses of T0N1 and" in body["prompt"]:
                raise TransportError("down")
            asked.append(body["prompt"])
            return generate(self, body)

        monkeypatch.setattr(SyntheticBackend, "generate", child_down)
        config = write_config(tmp_path, CONFIG_OBJ)
        down = True
        assert main(["extract", "--config", str(config)]) == EXIT_GATEWAY
        assert not (tmp_path / "out" / "raw.jsonl").exists()
        answered = set(asked)
        assert build_tree_prompt(normalize_label("T0N0")) in answered
        asked.clear()
        down = False
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        assert asked and not answered & set(asked)
        assert ((tmp_path / "out" / "raw.jsonl").read_bytes()
                == (clean / "out" / "raw.jsonl").read_bytes())

    def test_cache_database_error_exits_1_and_closes_the_cache(self, tmp_path, monkeypatch,
                                                               caplog):
        def full_disk(self):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(ResponseCache, "_commit", full_disk)
        config = write_config(tmp_path, CONFIG_OBJ)
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["extract", "--config", str(config)]) == 1
        cache_file = tmp_path / "out" / "cache" / CACHE_FILE
        assert f"response cache {cache_file} failed: disk I/O error" in caplog.text
        # Closed: the last connection to close removes the -wal and -shm files.
        assert [p.name for p in cache_file.parent.iterdir()] == [CACHE_FILE]

    def test_completion_too_unlikely_for_a_float_perplexity_exits_0(self, tmp_path,
                                                                     monkeypatch):
        # A mean log-probability below about -709.78 overflows exp(); the
        # perplexity is inf, and inf against inf is a tie. The reply is cached,
        # so the rerun replays it.
        def unlikely(self, body, score=SyntheticBackend.score):
            if "'T0N1'" in body["prompt"] and "'T0N0'" in body["prompt"]:
                return {"token_logprobs": [-1000.0]}
            return score(self, body)

        monkeypatch.setattr(SyntheticBackend, "score", unlikely)
        config = write_config(tmp_path, CONFIG_OBJ)
        for _ in range(2):
            assert main(["run", "--config", str(config)]) == EXIT_OK
        scores = {(r.triple.subject.text, r.triple.object.text): r.scores
                  for r in read_triple_file(tmp_path / "out" / "scored_raw.jsonl")}
        assert scores[("T0N1", "T0N0")] == [0.0] * 4

    def test_corrupt_cache_file_exits_1_with_a_message(self, finished_run, tmp_path, caplog):
        # Random bytes, and a finished run's cache in an earlier version's
        # format 1: each is refused and left byte for byte as it was.
        tmp, _ = finished_run
        format_1 = tmp_path / "format-1.sqlite3"
        shutil.copyfile(tmp / "out" / "cache" / CACHE_FILE, format_1)
        with closing(sqlite3.connect(format_1)) as db:
            db.execute("PRAGMA user_version = 1")
        for name, data in [("random", random.Random(0).randbytes(5000)),
                           ("format-1", format_1.read_bytes())]:
            config = write_config(tmp_path, {**CONFIG_OBJ, "output": {"dir": name}})
            cache_file = tmp_path / name / "cache" / CACHE_FILE
            cache_file.parent.mkdir(parents=True)
            cache_file.write_bytes(data)
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="evontree.cli"):
                assert main(["run", "--config", str(config)]) == 1
            assert str(cache_file) in caplog.text
            assert "move or delete" in caplog.text
            assert cache_file.read_bytes() == data

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2


class TestFlags:
    def test_stage_dir_overrides_output_dir(self, finished_run, tmp_path):
        _, config = finished_run
        other = tmp_path / "elsewhere"
        assert main(["extract", "--config", str(config),
                     "--stage-dir", str(other)]) == EXIT_OK
        assert (other / "raw.jsonl").exists()

    def test_seed_changes_the_sampled_ontology(self, finished_run, tmp_path):
        _, config = finished_run
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["extract", "--config", str(config), "--stage-dir", str(a),
                     "--seed", "1"]) == EXIT_OK
        assert main(["extract", "--config", str(config), "--stage-dir", str(b),
                     "--seed", "2"]) == EXIT_OK
        gt_a = (a / "ground_truth.json").read_text()
        gt_b = (b / "ground_truth.json").read_text()
        assert gt_a != gt_b

    def test_no_cache_still_reproduces_artifacts(self, finished_run, tmp_path):
        tmp, config = finished_run
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(config), "--stage-dir", str(fresh),
                     "--no-cache"]) == EXIT_OK
        assert ((fresh / "corpus.jsonl").read_bytes()
                == (tmp / "out" / "corpus.jsonl").read_bytes())

    def test_cached_values_that_fail_their_checks_are_fetched_again(self, finished_run,
                                                                     tmp_path):
        # One score row holding a packed NaN and one generation row that is
        # not JSON: each is a miss, fetched again and replaced.
        tmp, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(tmp / "out", out)
        with closing(sqlite3.connect(out / "cache" / CACHE_FILE)) as db, db:
            for where, value in [("length(value) = 8", struct.pack("<d", math.nan)),
                                 ("substr(value, 1, 1) = '\"'", b"{not json")]:
                assert db.execute(f"UPDATE responses SET value = ? WHERE key = "
                                  f"(SELECT min(key) FROM responses WHERE {where})",
                                  (value,)).rowcount == 1
        flags = ["--config", str(config), "--stage-dir", str(out)]
        for expected_calls in (2, 0):  # then replayed
            assert main(["run", *flags]) == EXIT_OK
            stages = json.loads((out / "manifest.json").read_text())["stages"]
            assert sum(entry["gateway"]["backend_calls"]
                       for entry in stages.values()) == expected_calls
            # Every artifact, trees/ too, as diff -r -x manifest.json -x cache compares them.
            assert artifact_files(out) == artifact_files(tmp / "out")

    def test_stage_verbs_one_process_each_match_run(self, finished_run, tmp_path):
        # Each verb of STAGE_ORDER in its own invocation, into a second
        # directory with its own cache, parses its inputs from the files that
        # run handed over in memory.
        tmp, config = finished_run
        verbs = tmp_path / "verbs"
        for verb in STAGE_ORDER:
            assert main([verb, "--config", str(config), "--stage-dir", str(verbs)]) == EXIT_OK
        # sweep is not in STAGE_ORDER; it reads calibration.json in both.
        for out in (tmp / "out", verbs):
            assert main(["sweep", "--config", str(config), "--stage-dir", str(out)]) == EXIT_OK
        assert (verbs / "cache" / CACHE_FILE).exists()
        assert artifact_files(verbs) == artifact_files(tmp / "out")

    def test_single_stage_verbs_resume_a_run(self, finished_run):
        tmp, config = finished_run
        before = (tmp / "out" / "gaps.jsonl").read_bytes()
        assert main(["gap", "--config", str(config)]) == EXIT_OK
        assert (tmp / "out" / "gaps.jsonl").read_bytes() == before

    def test_sweep_writes_monotone_csv(self, finished_run):
        tmp, config = finished_run
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        lines = (tmp / "out" / "sweep.csv").read_text().splitlines()
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts)

    def test_report_csv_has_the_stats_columns(self, finished_run):
        tmp, _ = finished_run
        header = (tmp / "out" / "report.csv").read_text().splitlines()[0]
        assert header == "Triple Type,Relation,Num,ConfirmValue Avg.,Acc."


# Top-level packages of the HTTP client: http.client imports the other three.
HTTP_STACK = ("http", "ssl", "email", "socket")
# Source of an expression for fresh_python: the HTTP_STACK modules loaded.
HTTP_STACK_LOADED = f"sorted(m for m in sys.modules if m.partition('.')[0] in {HTTP_STACK!r})"


def evontree_env() -> dict:
    """The environment of a fresh interpreter that imports this evontree."""
    src = str(Path(evontree.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh_python(script: str, *args: str):
    """Run script in a fresh interpreter that imports this evontree, and
    return the JSON it prints last."""
    proc = subprocess.run([sys.executable, "-c", script, *args], env=evontree_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_imports_only_the_standard_library(self):
        # Every module importing the CLI and the pipeline adds to a fresh
        # interpreter is evontree's own or the standard library's, so no
        # third-party import weighs on the start of each process; nor does
        # the HTTP client, which only an HTTP backend needs.
        added = fresh_python("import json, sys; before = set(sys.modules); "
                             "import evontree.cli, evontree.pipeline; "
                             "print(json.dumps(sorted(set(sys.modules) - before)))")
        assert "evontree.pipeline" in added
        foreign = [name for name in added
                   if name.partition(".")[0] not in sys.stdlib_module_names | {"evontree"}]
        assert foreign == []
        assert [name for name in added if name.partition(".")[0] in HTTP_STACK] == []

    def test_a_synthetic_run_never_loads_the_http_client(self, tmp_path):
        config = write_config(tmp_path, CONFIG_OBJ)
        code, loaded = fresh_python(
            "import json, sys; from evontree.cli import main; "
            "code = main(['run', '--config', sys.argv[1]]); "
            f"print(json.dumps([code, {HTTP_STACK_LOADED}]))", str(config))
        assert code == EXIT_OK
        assert (tmp_path / "out" / "corpus.jsonl").exists()
        assert loaded == []

    def test_an_http_gateway_loads_the_http_client(self, tmp_path):
        model = {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"}
        config = write_config(tmp_path, {**CONFIG_OBJ, "model": model})
        before, after = fresh_python(
            "import json, sys; from pathlib import Path; "
            "from evontree.config import load_config; "
            "from evontree.pipeline import RunContext; "
            "ctx = RunContext(load_config(Path(sys.argv[1]))); "
            f"before = {HTTP_STACK_LOADED}; "
            "ctx.gateway(); ctx.close(); "
            "print(json.dumps([before, 'http.client' in sys.modules]))", str(config))
        assert before == []
        assert after is True


class TestSharedCache:
    def test_two_runs_write_one_cache_at_once(self, tmp_path):
        # Three roots, so that each run stores thousands of responses and
        # holds the cache's write lock while the other waits for it.
        synthetic = {**CONFIG_OBJ["model"]["synthetic"], "branching": 4, "n_roots": 3}
        procs = []
        for name in ("a", "b"):
            config = write_config(tmp_path, {
                "model": {"kind": "synthetic", "synthetic": synthetic},
                "extraction": {"roots": ["T0N0", "T1N0", "T2N0"], "max_depth": 3},
                "output": {"dir": f"out-{name}", "cache_dir": str(tmp_path / "cache")},
            }, name=f"{name}.json")
            procs.append(subprocess.Popen(
                [sys.executable, "-c", "import sys; from evontree.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "run", "--config", str(config)],
                env=evontree_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        try:
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == EXIT_OK, err
                assert "database is locked" not in err
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        a, b = tmp_path / "out-a", tmp_path / "out-b"
        names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        assert "corpus.jsonl" in names
        assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
        for name in names:
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
