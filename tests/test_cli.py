"""Command-line verbs, exit codes, and flag plumbing."""

from __future__ import annotations

import functools
import json
import logging
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evontree
import evontree.pipeline
from evontree.cli import EXIT_CONFIG, EXIT_GATEWAY, EXIT_MISSING_UPSTREAM, EXIT_OK, main
from evontree.config import ENDPOINT_ENV_VAR
from evontree.gateway import CACHE_FILE, ModelGateway

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

    def test_unsupported_hops_exits_2_before_any_stage(self, tmp_path):
        config = write_config(tmp_path, {**CONFIG_OBJ, "rules": {"hops": 2}})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
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

    def test_gateway_failure_exits_4(self, tmp_path, monkeypatch):
        # Port 1 refuses instantly; the retries' back-off is recorded, not slept.
        delays = []
        monkeypatch.setattr(evontree.pipeline, "ModelGateway",
                            functools.partial(ModelGateway, sleep=delays.append))
        config = write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"},
            "output": {"dir": "out"},
        })
        assert main(["extract", "--config", str(config)]) == EXIT_GATEWAY
        assert delays == [1.0, 2.0]

    def test_corrupt_cache_file_exits_1_with_a_message(self, tmp_path, caplog):
        config = write_config(tmp_path, CONFIG_OBJ)
        cache_file = tmp_path / "out" / "cache" / CACHE_FILE
        cache_file.parent.mkdir(parents=True)
        cache_file.write_bytes(random.Random(0).randbytes(5000))
        with caplog.at_level(logging.ERROR, logger="evontree.cli"):
            assert main(["run", "--config", str(config)]) == 1
        assert str(cache_file) in caplog.text
        assert "move or delete" in caplog.text

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
