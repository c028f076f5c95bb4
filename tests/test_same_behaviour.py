"""Same behaviour, pinned: a small seeded run's artifacts, response-cache rows
and manifest counts, against a table.

A change that moves any of them on purpose (a format, a count, a response)
updates the table in the same diff and says so in CHANGES.md, as
test_config.TestPinnedHashes does for config_hash. A change meant to keep
behaviour must leave the table as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

import evontree.gateway as gateway_module
from evontree.cli import EXIT_OK, main
from evontree.gateway import CACHE_FILE, GATEWAY_COUNTERS

CONFIG = {
    "model": {
        "kind": "synthetic",
        "synthetic": {"depth": 3, "branching": 3, "synonym_rate": 0.4,
                      "seed": 7, "hallucination_rate": 0.2},
    },
    "extraction": {"roots": ["T0N0"], "max_depth": 3},
    "output": {"dir": "out"},
}

# SHA-256 of every file under the output directory after `run` and then
# `sweep`, but the manifest (it holds times) and the response cache.
ARTIFACT_SHA256 = {
    "calibration.json": "4825118eb41fe78524784d65c49d6fb4a4ff6e2ac1346fc7d12f7c23785cc9e1",
    "confirm_hist.csv": "224325f9d4f5b49a06a39b469676d7aac95e1ad450bc27652c7a49291dd07962",
    "confirmed.jsonl": "6a199c69ba27420783d4b647b9dd523cbdeeadcc0e07f9e1530ab476732d058d",
    "corpus.jsonl": "e03e0c1c64a6150b5e1ffacc762882f71378f358924020c6bbb1b9cf1235811d",
    "evontree.lock": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "extrapolated.jsonl": "f499d12de9b19a5a176a6c33a33a583b21d1e8e559369e70dd5f794fc999e950",
    "forest.json": "e0277392cc8bf26c6e2259ef31cd3675bacb99b5a322193edc68954766451bed",
    "gaps.jsonl": "75c42c3d432ed3442f6ace77fa77199c82726b947855c8f3c47846795c5cbe63",
    "raw.jsonl": "ff835507c6d0a38bf5d567f1488c12e5025962980a2e11bc5d56ecabd00a8895",
    "reliable.jsonl": "7d1801f23e817b44ee6d0a90aec0728cb2ddc9bbc4a01ea4b63385a8d9930ca3",
    "report.csv": "83a36a95074b2af3bd33b825c9338066ef046bb3a62c892ebdec4bb77442d7b3",
    "report.json": "dd8da7549f18565d4ab49b198f62448e4a389c66f94a9e56d73377da049b0398",
    "roc_curve.csv": "db1dcf4437458fd6683a401b3dfd8f844183ecf0698b4021d2d548903b1ac31d",
    "scored_extrapolated.jsonl":
        "7f7d2fdb6e900e6e542c5e9e0721b0e1b0ab087ae563668bcb2fa35b94fb8a7f",
    "scored_raw.jsonl": "8946f61a413a60c05a9d2d0b6a239e883a3d45a485d47dd3e5aef27eb7ac2da9",
    "sweep.csv": "da816af94f315f892ed80b99beb41884db6b65748b6a110a9d17a608357572bc",
}

# The number of response-cache rows, and the SHA-256 of the repr of their
# (key, storage class, value bytes), in key order.
CACHE_ROWS = (1785, "fb6859a3cbaa9de2cbab257248b33e117e8732f42723c57f5c5e64c161e8d6ad")

# Each stage's manifest tallies, and its gateway counts in GATEWAY_COUNTERS
# order: requests, cache_hits, backend_calls, cache_commits, retries.
MANIFEST_COUNTS = {
    "extract": ({"budget_exhausted": False, "cycles_skipped": 0, "empty_names_skipped": 0,
                 "expansions": 34, "parse_failures": 0,
                 "raw_triples": {"SubclassOf": 97, "SynonymOf": 21}, "sibling_merges": 0},
                (22, 0, 22, 1, 0)),
    "calibrate": ({"unparseable_labels": 0, "unscored": 0}, (1479, 0, 1479, 1, 0)),
    "confirm": ({"confirmed": {"SubclassOf": 84, "SynonymOf": 15}, "rejected": 19},
                (0, 0, 0, 0, 0)),
    "reliable": ({"reliable": 38}, (0, 0, 0, 0, 0)),
    "extrapolate": ({"compositions": 28, "extrapolated_new": 14, "unscored": 0},
                    (112, 0, 112, 1, 0)),
    "gap": ({"confirmed": 10, "gap": 4, "gap_mode": "all_below", "undecided": 0},
            (0, 0, 0, 0, 0)),
    "synthesize": ({"distill_drops": 0, "entries": {"explicit": 8, "implicit": 40},
                    "malformed_chains": 0, "strategy": "mix", "strip_hint": False},
                   (40, 0, 40, 1, 0)),
    "report": ({"judge_unavailable": False, "judge_unparseable": 0,
                "unscored": {"extrapolated": 0, "raw": 0}},
               (132, 0, 132, 1, 0)),
    "sweep": ({"gap_mode": "all_below", "offsets": 10}, (0, 0, 0, 0, 0)),
}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory) -> Path:
    """The output directory of `run` and then `sweep` on CONFIG."""
    tmp = tmp_path_factory.mktemp("pinned")
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        # A commit the interval cuts depends on the clock; beyond any run's
        # length, each stage that fetched commits once, at its end.
        mp.setattr(gateway_module, "COMMIT_INTERVAL_S", math.inf)
        assert main(["run", "--config", str(config)]) == EXIT_OK
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
    return tmp / "out"


def artifact_sha256(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
            if path.is_file() and path.name != "manifest.json"
            and path.relative_to(out).parts[0] != "cache"}


def cache_rows(cache_dir: Path) -> tuple[int, str]:
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        rows = db.execute("SELECT key, typeof(value), CAST(value AS BLOB) FROM responses "
                          "ORDER BY key").fetchall()
    return len(rows), hashlib.sha256(repr(rows).encode("ascii")).hexdigest()


def test_artifacts_are_byte_identical(pinned_run):
    assert artifact_sha256(pinned_run) == ARTIFACT_SHA256


def test_cache_rows_are_identical(pinned_run):
    assert cache_rows(pinned_run / "cache") == CACHE_ROWS


def test_manifest_counts_are_identical(pinned_run):
    stages = json.loads((pinned_run / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert {name: (entry["tallies"], tuple(entry["gateway"][c] for c in GATEWAY_COUNTERS))
            for name, entry in stages.items()} == MANIFEST_COUNTS
