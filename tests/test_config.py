"""Config loading: strict schema, defaults, overrides, and path resolution."""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import pytest

from evontree.config import (
    DEFAULT_SWEEP_OFFSETS,
    ENDPOINT_ENV_VAR,
    load_config,
    parse_config,
)
from evontree.errors import ConfigError
from evontree.extraction import DEFAULT_ROOTS

MINIMAL = {"model": {"kind": "synthetic"}}


def write_config(tmp_path: Path, obj: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestDefaults:
    def test_minimal_synthetic_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.model.kind == "synthetic"
        assert cfg.model.name == "synthetic"
        assert cfg.model.synthetic.depth == 3
        assert cfg.model.synthetic.noise.p_true_known == 0.9
        assert cfg.scoring.max_in_flight == 8
        assert (cfg.calibration.sweep_lo, cfg.calibration.sweep_hi) == (0.0, 1.0)
        assert cfg.gap.mode == "all_below"
        assert cfg.gap.sweep_offsets == DEFAULT_SWEEP_OFFSETS
        assert cfg.synthesis.strategy == "mix"
        assert cfg.extraction.roots == DEFAULT_ROOTS

    def test_judge_defaults_to_self_for_synthetic(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.model.judge.kind == "self"

    def test_judge_defaults_to_none_for_http(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        cfg = load_config(write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://host:1"}}))
        assert cfg.model.judge.kind == "none"

    def test_endpoint_is_ignored_for_synthetic(self, tmp_path):
        obj = {"model": {"kind": "synthetic", "endpoint": "http://host:1"}}
        cfg = parse_config(obj, base_dir=tmp_path)
        assert cfg.model.endpoint is None
        assert cfg.config_hash() == parse_config(MINIMAL, base_dir=tmp_path).config_hash()

    def test_output_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            **MINIMAL, "output": {"dir": "runs/a", "cache_dir": "shared_cache"}}))
        assert cfg.output.dir == tmp_path / "runs/a"
        assert cfg.output.resolved_cache_dir() == tmp_path / "shared_cache"

    def test_cache_dir_defaults_under_output_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {**MINIMAL, "output": {"dir": "o"}}))
        assert cfg.output.resolved_cache_dir() == tmp_path / "o" / "cache"


class TestStrictness:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\['extra'\] in config"):
            load_config(write_config(tmp_path, {**MINIMAL, "extra": 1}))

    def test_unknown_nested_key_names_the_section(self, tmp_path):
        obj = {"model": {"kind": "synthetic", "synthetic": {"depht": 3}}}
        with pytest.raises(ConfigError, match=r"config\.model\.synthetic"):
            load_config(write_config(tmp_path, obj))

    def test_wrong_type_rejected(self, tmp_path):
        obj = {"model": {"kind": "synthetic", "synthetic": {"depth": "three"}}}
        with pytest.raises(ConfigError, match="depth"):
            load_config(write_config(tmp_path, obj))

    def test_bool_is_not_an_int(self, tmp_path):
        obj = {**MINIMAL, "scoring": {"max_in_flight": True}}
        with pytest.raises(ConfigError, match="max_in_flight"):
            load_config(write_config(tmp_path, obj))

    def test_unknown_model_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_config(tmp_path, {"model": {"kind": "quantum"}}))

    def test_missing_model_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_config(write_config(tmp_path, {}))

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_empty_sweep_range_rejected(self, tmp_path):
        obj = {**MINIMAL, "calibration": {"sweep_lo": 0.5, "sweep_hi": 0.5}}
        with pytest.raises(ConfigError, match="sweep range"):
            load_config(write_config(tmp_path, obj))

    def test_unknown_gap_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            load_config(write_config(tmp_path, {**MINIMAL, "gap": {"mode": "most_below"}}))

    def test_noise_out_of_range_becomes_config_error(self, tmp_path):
        obj = {"model": {"kind": "synthetic", "synthetic": {"noise": {"jitter": 0.7}}}}
        with pytest.raises(ConfigError, match="jitter"):
            load_config(write_config(tmp_path, obj))

    def test_synthetic_section_rejected_for_http(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://host:1")
        obj = {"model": {"kind": "http", "name": "m", "synthetic": {}}}
        with pytest.raises(ConfigError, match="synthetic"):
            load_config(write_config(tmp_path, obj))


class TestHttpModel:
    def test_endpoint_required_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        with pytest.raises(ConfigError, match="endpoint"):
            load_config(write_config(tmp_path, {"model": {"kind": "http", "name": "m"}}))

    def test_env_var_fills_missing_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://from-env:9")
        cfg = load_config(write_config(tmp_path, {"model": {"kind": "http", "name": "m"}}))
        assert cfg.model.endpoint == "http://from-env:9"

    def test_env_var_overrides_config_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://from-env:9")
        cfg = load_config(write_config(tmp_path, {
            "model": {"kind": "http", "name": "m", "endpoint": "http://file:1"}}))
        assert cfg.model.endpoint == "http://from-env:9"

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:8000", "http://", "http://:8000",
                                          "http://host:port", "http://host:99999", "file:///x"])
    def test_env_var_must_be_an_http_url(self, tmp_path, monkeypatch, endpoint):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, endpoint)
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, {
                "model": {"kind": "http", "name": "m", "endpoint": "http://file:1"}}))
        assert str(exc.value) == (
            f"{ENDPOINT_ENV_VAR} (overriding config.model.endpoint) must be a URL with "
            f"scheme http or https and a host, got {endpoint!r}")

    def test_env_var_must_have_a_utf8_form(self, tmp_path, monkeypatch):
        # A byte that is not UTF-8 reaches os.environ as a lone surrogate.
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://host\udcff:1")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, {"model": {"kind": "http", "name": "m"}}))
        assert str(exc.value) == (f"{ENDPOINT_ENV_VAR} (overriding config.model.endpoint) "
                                  "has no UTF-8 form: 'http://host\\udcff:1'")

    @pytest.mark.parametrize("endpoint", ["https://host", "http://[::1]:8000/api/",
                                          "HTTP://Host:1"])
    def test_http_urls_accepted(self, tmp_path, monkeypatch, endpoint):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        model = {"kind": "http", "name": "m", "endpoint": endpoint,
                 "judge": {"kind": "http", "endpoint": endpoint, "model": "j"}}
        cfg = load_config(write_config(tmp_path, {"model": model}))
        assert cfg.model.endpoint == cfg.model.judge.endpoint == endpoint
        monkeypatch.setenv(ENDPOINT_ENV_VAR, endpoint)
        cfg = load_config(write_config(tmp_path, {"model": {"kind": "http", "name": "m"}}))
        assert cfg.model.endpoint == endpoint

    def test_name_required(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://host:1")
        with pytest.raises(ConfigError, match="name"):
            load_config(write_config(tmp_path, {"model": {"kind": "http"}}))

    def test_http_judge_needs_endpoint_and_model(self, tmp_path):
        obj = {"model": {"kind": "synthetic", "judge": {"kind": "http"}}}
        with pytest.raises(ConfigError, match="judge"):
            load_config(write_config(tmp_path, obj))


class TestOverrides:
    def test_stage_dir_replaces_output_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL), stage_dir=tmp_path / "elsewhere")
        assert cfg.output.dir == tmp_path / "elsewhere"

    def test_seed_override_reaches_synthetic_spec(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL), seed=99)
        assert cfg.model.synthetic.seed == 99

    def test_seed_override_is_noop_for_http(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://host:1")
        obj = {"model": {"kind": "http", "name": "m"}}
        cfg = load_config(write_config(tmp_path, obj), seed=99)
        assert cfg.model.synthetic is None


class TestHashing:
    def test_hash_stable_across_loads(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        assert load_config(path).config_hash() == load_config(path).config_hash()

    def test_hash_changes_with_settings(self, tmp_path):
        a = load_config(write_config(tmp_path, MINIMAL))
        b = load_config(write_config(tmp_path, {
            "model": {"kind": "synthetic", "synthetic": {"seed": 5}}}))
        assert a.config_hash() != b.config_hash()

    def test_hash_ignores_where_the_run_is_written(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "output": {"dir": "a", "cache_dir": "c1"}})
        (tmp_path / "copy").mkdir()
        other_cache = write_config(tmp_path / "copy", {
            **MINIMAL, "output": {"dir": "a", "cache_dir": "c2"}})
        hashes = {load_config(path).config_hash(),
                  load_config(path, stage_dir=tmp_path / "elsewhere").config_hash(),
                  load_config(other_cache).config_hash()}
        assert len(hashes) == 1
        assert load_config(path, seed=99).config_hash() not in hashes

    def test_parse_config_rejects_non_object_root(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            parse_config(["not", "a", "dict"], base_dir=tmp_path)


def with_value(base: dict, dotted_key: str, value) -> dict:
    """A copy of base with value at the dotted key, sections created as needed."""
    obj = copy.deepcopy(base)
    *sections, leaf = dotted_key.split(".")
    node = obj
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return obj


# Every leaf key with a bad value and the message it must give. Written out
# by hand rather than derived from the dataclasses, so a key that loses its
# check, or changes its domain, fails here.
BAD_VALUES = [
    ("model.kind", "quantum", "must be one of ('synthetic', 'http'), got 'quantum'"),
    ("model.kind", 5, "has the wrong type: 5"),
    ("model.name", 5, "has the wrong type: 5"),
    # JSON spells a lone surrogate as an escape; it has no UTF-8 form.
    ("model.name", "m\ud800", "has no UTF-8 form: 'm\\ud800'"),
    ("model.endpoint", 5, "has the wrong type: 5"),
    ("model.endpoint", "localhost:8000",
     "must be a URL with scheme http or https and a host, got 'localhost:8000'"),
    ("model.judge.kind", "oracle", "must be one of ('none', 'self', 'http'), got 'oracle'"),
    ("model.judge.endpoint", 5, "has the wrong type: 5"),
    ("model.judge.endpoint", "ftp://judge:21",
     "must be a URL with scheme http or https and a host, got 'ftp://judge:21'"),
    ("model.judge.model", ["m"], "has the wrong type: ['m']"),
    ("model.synthetic.depth", 0, "must be >= 1, got 0"),
    ("model.synthetic.depth", "three", "has the wrong type: 'three'"),
    ("model.synthetic.branching", 0, "must be >= 1, got 0"),
    ("model.synthetic.synonym_rate", 1.5, "must be <= 1.0, got 1.5"),
    ("model.synthetic.synonym_rate", True, "has the wrong type: True"),
    ("model.synthetic.n_roots", 0, "must be >= 1, got 0"),
    ("model.synthetic.seed", 1.5, "has the wrong type: 1.5"),
    ("model.synthetic.hallucination_rate", -0.1, "must be >= 0.0, got -0.1"),
    ("model.synthetic.noise.p_true_known", 1.0, "must be < 1.0, got 1.0"),
    ("model.synthetic.noise.p_true_unfamiliar", 0, "must be > 0.0, got 0"),
    ("model.synthetic.noise.p_true_false", "low", "has the wrong type: 'low'"),
    ("model.synthetic.noise.familiarity_rate", 1.1, "must be <= 1.0, got 1.1"),
    ("model.synthetic.noise.jitter", 0.5, "must be < 0.5, got 0.5"),
    ("extraction.roots", [], "must be a non-empty list, got []"),
    ("extraction.roots", "Enzyme", "must be a non-empty list, got 'Enzyme'"),
    ("extraction.roots", ["Enzyme", " "], "must not be blank, got ' '"),
    ("extraction.roots", ["Enzyme", 1], "[1] has the wrong type: 1"),
    ("extraction.roots", ["Enzyme", "T0N0\ud800"], "[1] has no UTF-8 form: 'T0N0\\ud800'"),
    ("extraction.max_depth", 0, "must be >= 1, got 0"),
    ("extraction.frontier_budget", 0, "must be >= 1, got 0"),
    ("extraction.frontier_budget", 10.0, "has the wrong type: 10.0"),
    ("extraction.gen_max_tokens", 0, "must be >= 1, got 0"),
    ("extraction.gen_temperature", -0.5, "must be >= 0.0, got -0.5"),
    # Python's json reads Infinity, -Infinity and NaN; no request body can
    # carry them.
    ("extraction.gen_temperature", math.inf, "must be a finite number, got inf"),
    ("scoring.max_in_flight", 0, "must be >= 1, got 0"),
    ("scoring.max_in_flight", True, "has the wrong type: True"),
    ("calibration.sweep_lo", "0", "has the wrong type: '0'"),
    ("calibration.sweep_hi", None, "has the wrong type: None"),
    ("calibration.sweep_lo", -math.inf, "must be a finite number, got -inf"),
    # A section given as anything but an object.
    ("gap", "all_below", "has the wrong type: 'all_below'"),
    ("gap.mode", "most_below",
     "must be one of ('all_below', 'mean_below', 'any_below'), got 'most_below'"),
    ("gap.sweep_offsets", [], "must be a non-empty list, got []"),
    ("gap.sweep_offsets", [0.5, "1"], "[1] has the wrong type: '1'"),
    ("gap.sweep_offsets", [False], "[0] has the wrong type: False"),
    ("gap.sweep_offsets", [math.nan], "[0] must be a finite number, got nan"),
    ("synthesis.strategy", "both", "must be one of ('explicit', 'implicit', 'mix'), got 'both'"),
    ("synthesis.max_tokens", 0, "must be >= 1, got 0"),
    ("synthesis.temperature", -1, "must be >= 0.0, got -1"),
    ("synthesis.strip_hint", 1, "has the wrong type: 1"),
    ("output.dir", 5, "has the wrong type: 5"),
    ("output.dir", "out\udcff", "has no UTF-8 form: 'out\\udcff'"),
    ("output.cache_dir", 5, "has the wrong type: 5"),
]

SECTIONS = ["model", "model.judge", "model.synthetic", "model.synthetic.noise", "extraction",
            "scoring", "calibration", "gap", "synthesis", "output"]


class TestEveryKey:
    @pytest.mark.parametrize(("key", "value", "message"), BAD_VALUES,
                             ids=[f"{k}={v!r}" for k, v, _ in BAD_VALUES])
    def test_bad_value_names_its_dotted_key(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(with_value(MINIMAL, key, value), base_dir=Path("/pinned"))
        separator = "" if message.startswith("[") else " "  # a list item's index
        assert str(exc.value) == f"config.{key}{separator}{message}"

    @pytest.mark.parametrize("section", SECTIONS)
    def test_unknown_sibling_key_names_its_section(self, section):
        with pytest.raises(ConfigError) as exc:
            parse_config(with_value(MINIMAL, f"{section}.typo", 1), base_dir=Path("/pinned"))
        assert str(exc.value) == f"unknown key(s) ['typo'] in config.{section}"

    def test_table_covers_every_leaf_key(self):
        def leaves(obj: dict, prefix: str = "") -> set[str]:
            keys = set()
            for key, value in obj.items():
                if isinstance(value, dict):
                    keys |= leaves(value, f"{prefix}{key}.")
                else:
                    keys.add(f"{prefix}{key}")
            return keys

        schema = parse_config(MINIMAL, base_dir=Path("/pinned")).to_json_obj()
        assert leaves(schema) == {key for key, _, _ in BAD_VALUES} - set(SECTIONS)
        sections = {key.rsplit(".", 1)[0] for key in leaves(schema) if "." in key}
        assert sections == set(SECTIONS)

    def test_noise_levels_out_of_order_rejected(self):
        obj = with_value(MINIMAL, "model.synthetic.noise",
                         {"p_true_known": 0.3, "p_true_false": 0.4})
        with pytest.raises(ConfigError, match=r"config\.model\.synthetic\.noise: "
                                              r"p_true_known must exceed p_true_false"):
            parse_config(obj, base_dir=Path("/pinned"))

    def test_numbers_keep_their_type_and_offsets_become_floats(self):
        obj = {**MINIMAL, "extraction": {"gen_temperature": 0},
               "gap": {"sweep_offsets": [-1, 0, 1]}}
        cfg = parse_config(obj, base_dir=Path("/pinned"))
        assert type(cfg.extraction.gen_temperature) is int
        assert cfg.gap.sweep_offsets == (-1.0, 0.0, 1.0)
        assert all(type(o) is float for o in cfg.gap.sweep_offsets)


# An http config whose every key differs from its default, a judge with it,
# and ints where floats are allowed.
FULL_HTTP = {
    "model": {"kind": "http", "name": "served-model", "endpoint": "http://model:8000",
              "judge": {"kind": "http", "endpoint": "http://judge:8001", "model": "judge-model"}},
    "extraction": {"roots": ["Enzyme", "Virus"], "max_depth": 2, "frontier_budget": 50,
                   "gen_max_tokens": 256, "gen_temperature": 0},
    "scoring": {"max_in_flight": 3},
    "calibration": {"sweep_lo": -1, "sweep_hi": 2.5},
    "gap": {"mode": "mean_below", "sweep_offsets": [-1, 0, 0.5]},
    "synthesis": {"strategy": "implicit", "max_tokens": 64, "temperature": 1,
                  "strip_hint": True},
    "output": {"dir": "runs/a", "cache_dir": "/shared/cache"},
}

FULL_SYNTHETIC = {
    "model": {"kind": "synthetic", "name": "sim", "judge": {"kind": "none"},
              "synthetic": {"depth": 2, "branching": 4, "synonym_rate": 0, "n_roots": 2,
                            "seed": 7, "hallucination_rate": 1,
                            "noise": {"p_true_known": 0.8, "p_true_unfamiliar": 0.2,
                                      "p_true_false": 0.05, "familiarity_rate": 1,
                                      "jitter": 0}}},
}


class TestPinnedHashes:
    # sha256 of every section but output, canonically encoded; a change
    # here changes every run's manifest.
    @pytest.mark.parametrize(("obj", "digest"), [
        (MINIMAL, "81d4495a034fdf1904f81bc0114c0c6ea2209fc24b0b7a8193386b58a7525ef6"),
        (FULL_HTTP, "260c3a5141246338921d7034d6dabfdcd099cc63241d41a4bd4a29cc54c6a98d"),
        (FULL_SYNTHETIC, "09839b16b2602d1bf06fcdb5665fde968087f0fb80d40e826dfa011562ad17f1"),
    ], ids=["minimal", "full-http", "full-synthetic"])
    def test_config_hash_is_pinned(self, obj, digest, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        assert parse_config(obj, base_dir=Path("/pinned")).config_hash() == digest


def test_readme_config_examples_parse(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(json.loads(block), base_dir=Path("/readme"))
