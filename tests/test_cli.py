"""Command-line verbs, exit codes, and flag plumbing."""

from __future__ import annotations

import json
import logging
import random
import shutil
from pathlib import Path

import pytest

from evontree.cli import EXIT_CONFIG, EXIT_GATEWAY, EXIT_MISSING_UPSTREAM, EXIT_OK, main
from evontree.gateway import CACHE_FILE

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

    def test_gateway_failure_exits_4(self, tmp_path):
        # Port 1 refuses instantly; the retries back off for a few seconds.
        config = write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://127.0.0.1:1"},
            "output": {"dir": "out"},
        })
        assert main(["extract", "--config", str(config)]) == EXIT_GATEWAY

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
