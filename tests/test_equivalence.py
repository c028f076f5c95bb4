"""Every path a run can take writes the same artifacts.

FORESTS draws three small synthetic forests from a fixed seed. On each, a
`run` into an empty cache is the reference, and every path below must write
the same bytes under the output directory, apart from manifest.json (it
holds times) and the response cache:
- each stage in a RunContext of its own, as separate CLI verbs run it;
- a warm cache, and a filled one that is not read (read_cache=False, the
  CLI's --no-cache);
- the same model served over loopback HTTP, at max_in_flight 1 and 4;
- two PYTHONHASHSEED values, each in a fresh interpreter, on one forest.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from evontree.cli import EXIT_OK
from evontree.config import ENDPOINT_ENV_VAR, parse_config
from evontree.pipeline import STAGE_ORDER, RunContext, run_all, run_stage
from test_cli import cli_process
from test_pipeline import artifact_bytes, serve_over_http, synthetic_backend


def draw_forests(seed: int, n: int) -> list[dict]:
    """n synthetic model specs, each with a depth of 2-3, a branching of 2-4,
    a synonym rate of 0.1-0.5, a hallucination rate of 0-0.3 and a seed."""
    rng = random.Random(seed)
    return [{"depth": rng.choice([2, 3]), "branching": rng.choice([2, 3, 4]),
             "synonym_rate": round(rng.uniform(0.1, 0.5), 2),
             "hallucination_rate": round(rng.uniform(0.0, 0.3), 2),
             "seed": rng.randrange(1000)} for _ in range(n)]


FORESTS = draw_forests(seed=0, n=3)
FOREST_IDS = [f"d{f['depth']}-b{f['branching']}-s{f['seed']}" for f in FORESTS]


def config_obj(spec: dict, tmp: Path, out: str, cache: str, **overrides) -> dict:
    obj = {"model": {"kind": "synthetic", "synthetic": spec},
           "extraction": {"roots": ["T0N0"], "max_depth": spec["depth"]},
           "output": {"dir": str(tmp / out), "cache_dir": str(tmp / cache)}}
    obj.update(overrides)
    return obj


def stage_entries(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["stages"]


def run(cfg, read_cache: bool = True) -> dict[str, bytes]:
    """run_all in one RunContext; what it wrote but the manifest and cache."""
    ctx = RunContext(cfg, read_cache=read_cache)
    try:
        run_all(ctx)
    finally:
        ctx.close()
    return artifact_bytes(cfg.output.dir)


@pytest.fixture(scope="module", params=range(len(FORESTS)), ids=FOREST_IDS)
def reference(request, tmp_path_factory):
    """One forest's spec, its scratch directory, a config maker for it, and
    its reference run: `run` into ref/ with an empty cache, cache/, that the
    run fills."""
    spec = FORESTS[request.param]
    tmp = tmp_path_factory.mktemp("forest")

    def make(out: str, cache: str = "cache", **overrides):
        return parse_config(config_obj(spec, tmp, out, cache, **overrides), base_dir=tmp)

    artifacts = run(make("ref"))
    assert "corpus.jsonl" in artifacts
    return SimpleNamespace(spec=spec, tmp=tmp, make=make, artifacts=artifacts)


def test_a_context_per_verb_equals_run(reference):
    # Nothing is handed from one stage to the next: each parses its inputs.
    cfg = reference.make("staged")
    for name in STAGE_ORDER:
        ctx = RunContext(cfg)
        try:
            run_stage(ctx, name)
        finally:
            ctx.close()
    assert artifact_bytes(cfg.output.dir) == reference.artifacts
    staged, ran = stage_entries(cfg.output.dir), stage_entries(reference.tmp / "ref")
    for name in STAGE_ORDER:
        for key in ("inputs", "outputs", "model_identity", "config_hash"):
            assert staged[name][key] == ran[name][key], (name, key)


def test_a_warm_cache_replays_the_cold_run(reference):
    cfg = reference.make("warm")
    assert run(cfg) == reference.artifacts
    assert {entry["gateway"]["backend_calls"]
            for entry in stage_entries(cfg.output.dir).values()} == {0}


def test_a_filled_cache_not_read_gives_the_same_run(reference):
    cfg = reference.make("unread")
    assert run(cfg, read_cache=False) == reference.artifacts
    assert all(entry["gateway"]["cache_hits"] < entry["gateway"]["requests"]
               for entry in stage_entries(cfg.output.dir).values()
               if entry["gateway"]["requests"])


def test_over_http_at_1_and_4_in_flight_equals_in_process(reference, pools, monkeypatch):
    # Only requests to an HTTP endpoint fan out. Each run has its own cache,
    # so every request reaches the server.
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    with serve_over_http(synthetic_backend(reference.make("unused"))) as url:
        model = {"kind": "http", "name": "synthetic", "endpoint": url, "judge": {"kind": "self"}}
        for workers in (1, 4):
            cfg = reference.make(f"http{workers}", f"http{workers}-cache", model=model,
                                 scoring={"max_in_flight": workers})
            assert run(cfg) == reference.artifacts, workers
    assert pools and set(pools) == {4}  # the concurrent run used a real pool


@pytest.mark.parametrize("reference", [0], indirect=True, ids=FOREST_IDS[:1])
def test_two_hash_seeds_in_fresh_interpreters(reference):
    # Each process starts from an empty cache of its own, so string hashing
    # could reorder requests as well as records.
    procs = []
    for hash_seed in ("0", "12345"):
        config = reference.tmp / f"hash{hash_seed}.json"
        config.write_text(json.dumps(config_obj(reference.spec, reference.tmp, f"hash{hash_seed}",
                                                f"hash{hash_seed}-cache")))
        procs.append(cli_process("run", "--config", str(config), PYTHONHASHSEED=hash_seed))
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, err
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for hash_seed in ("0", "12345"):
        assert artifact_bytes(reference.tmp / f"hash{hash_seed}") == reference.artifacts
