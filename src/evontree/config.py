"""Run configuration: a JSON file with one section per pipeline concern.

Validation is strict and happens before any network activity: unknown keys
anywhere are errors (catching typos beats silently ignoring them), and every
value is range-checked on load. Relative paths are resolved against the
directory containing the config file, so a config can travel with its runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidParamsError
from .extraction import DEFAULT_ROOTS, ExtractionConfig
from .scoring import GAP_MODES
from .synthesis import STRATEGIES, SynthesisConfig
from .synthetic import NoiseProfile

ENDPOINT_ENV_VAR = "EVONTREE_ENDPOINT"

MODEL_KINDS = ("synthetic", "http")
JUDGE_KINDS = ("none", "self", "http")

DEFAULT_SWEEP_OFFSETS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _get(obj: dict, key: str, types, where: str, default):
    value = obj.get(key, default)
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise ConfigError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def _get_num(obj: dict, key: str, where: str, default, lo=None, hi=None):
    value = _get(obj, key, (int, float), where, default)
    if lo is not None and value < lo or hi is not None and value > hi:
        raise ConfigError(f"{where}.{key} out of range: {value!r}")
    return value


def _get_int(obj: dict, key: str, where: str, default, lo=None):
    value = _get(obj, key, int, where, default)
    if lo is not None and value < lo:
        raise ConfigError(f"{where}.{key} must be >= {lo}, got {value}")
    return value


@dataclass(frozen=True)
class SyntheticSpec:
    depth: int = 3
    branching: int = 3
    synonym_rate: float = 0.3
    n_roots: int = 1
    seed: int = 0
    hallucination_rate: float = 0.0
    noise: NoiseProfile = NoiseProfile()


@dataclass(frozen=True)
class JudgeConfig:
    kind: str = "none"  # none | self | http
    endpoint: str | None = None
    model: str | None = None


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # synthetic | http
    name: str
    endpoint: str | None = None
    judge: JudgeConfig = JudgeConfig()
    synthetic: SyntheticSpec | None = None


@dataclass(frozen=True)
class ScoringConfig:
    # Concurrent requests to an HTTP endpoint. The in-process synthetic
    # model answers on the calling thread, so it ignores this.
    max_in_flight: int = 8


@dataclass(frozen=True)
class CalibrationConfig:
    sweep_lo: float = 0.0
    sweep_hi: float = 1.0


@dataclass(frozen=True)
class RulesConfig:
    hops: int = 1


@dataclass(frozen=True)
class GapConfig:
    mode: str = "all_below"
    sweep_offsets: tuple[float, ...] = DEFAULT_SWEEP_OFFSETS


@dataclass(frozen=True)
class OutputConfig:
    dir: Path = Path("out")
    cache_dir: Path | None = None  # None = <dir>/cache

    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.dir / "cache"


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    extraction: ExtractionConfig
    scoring: ScoringConfig
    calibration: CalibrationConfig
    rules: RulesConfig
    gap: GapConfig
    synthesis: SynthesisConfig
    output: OutputConfig

    def config_hash(self) -> str:
        """Hash of the fully resolved configuration, recorded in the manifest
        so artifacts can be traced back to the exact settings."""
        canonical = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_json_obj(self) -> dict:
        syn = self.model.synthetic
        return {
            "model": {
                "kind": self.model.kind,
                "name": self.model.name,
                "endpoint": self.model.endpoint,
                "judge": {"kind": self.model.judge.kind,
                          "endpoint": self.model.judge.endpoint,
                          "model": self.model.judge.model},
                "synthetic": None if syn is None else {
                    "depth": syn.depth, "branching": syn.branching,
                    "synonym_rate": syn.synonym_rate, "n_roots": syn.n_roots,
                    "seed": syn.seed, "hallucination_rate": syn.hallucination_rate,
                    "noise": dict(vars(syn.noise)),
                },
            },
            "extraction": {
                "roots": list(self.extraction.roots),
                "max_depth": self.extraction.max_depth,
                "parse_retries": self.extraction.parse_retries,
                "frontier_budget": self.extraction.frontier_budget,
                "gen_max_tokens": self.extraction.gen_max_tokens,
                "gen_temperature": self.extraction.gen_temperature,
            },
            "scoring": {"max_in_flight": self.scoring.max_in_flight},
            "calibration": {"sweep_lo": self.calibration.sweep_lo,
                            "sweep_hi": self.calibration.sweep_hi},
            "rules": {"hops": self.rules.hops},
            "gap": {"mode": self.gap.mode,
                    "sweep_offsets": list(self.gap.sweep_offsets)},
            "synthesis": {
                "strategy": self.synthesis.strategy,
                "max_tokens": self.synthesis.max_tokens,
                "temperature": self.synthesis.temperature,
                "strip_hint": self.synthesis.strip_hint,
                "empty_retries": self.synthesis.empty_retries,
            },
            "output": {"dir": str(self.output.dir),
                       "cache_dir": str(self.output.resolved_cache_dir())},
        }


def _parse_noise(obj: dict, where: str) -> NoiseProfile:
    _check_keys(obj, ("p_true_known", "p_true_unfamiliar", "p_true_false",
                      "familiarity_rate", "jitter"), where)
    defaults = NoiseProfile()
    try:
        return NoiseProfile(
            p_true_known=_get_num(obj, "p_true_known", where, defaults.p_true_known),
            p_true_unfamiliar=_get_num(obj, "p_true_unfamiliar", where,
                                       defaults.p_true_unfamiliar),
            p_true_false=_get_num(obj, "p_true_false", where, defaults.p_true_false),
            familiarity_rate=_get_num(obj, "familiarity_rate", where,
                                      defaults.familiarity_rate),
            jitter=_get_num(obj, "jitter", where, defaults.jitter),
        )
    except InvalidParamsError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_synthetic(obj: dict, where: str) -> SyntheticSpec:
    _check_keys(obj, ("depth", "branching", "synonym_rate", "n_roots", "seed",
                      "hallucination_rate", "noise"), where)
    noise_obj = _get(obj, "noise", dict, where, {})
    return SyntheticSpec(
        depth=_get_int(obj, "depth", where, 3, lo=1),
        branching=_get_int(obj, "branching", where, 3, lo=1),
        synonym_rate=_get_num(obj, "synonym_rate", where, 0.3, lo=0.0, hi=1.0),
        n_roots=_get_int(obj, "n_roots", where, 1, lo=1),
        seed=_get_int(obj, "seed", where, 0),
        hallucination_rate=_get_num(obj, "hallucination_rate", where, 0.0,
                                    lo=0.0, hi=1.0),
        noise=_parse_noise(noise_obj, f"{where}.noise"),
    )


def _parse_judge(obj: dict, where: str, model_kind: str) -> JudgeConfig:
    _check_keys(obj, ("kind", "endpoint", "model"), where)
    default_kind = "self" if model_kind == "synthetic" else "none"
    kind = _get(obj, "kind", str, where, default_kind)
    if kind not in JUDGE_KINDS:
        raise ConfigError(f"{where}.kind must be one of {JUDGE_KINDS}, got {kind!r}")
    endpoint = obj.get("endpoint")
    model = obj.get("model")
    if kind == "http" and (not endpoint or not model):
        raise ConfigError(f"{where}: judge kind 'http' needs endpoint and model")
    return JudgeConfig(kind=kind, endpoint=endpoint, model=model)


def _parse_model(obj: dict, where: str) -> ModelConfig:
    _check_keys(obj, ("kind", "name", "endpoint", "judge", "synthetic"), where)
    kind = _get(obj, "kind", str, where, "")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"{where}.kind must be one of {MODEL_KINDS}, got {kind!r}")
    judge = _parse_judge(_get(obj, "judge", dict, where, {}), f"{where}.judge", kind)
    if kind == "synthetic":
        synthetic = _parse_synthetic(_get(obj, "synthetic", dict, where, {}),
                                     f"{where}.synthetic")
        return ModelConfig(kind=kind, name=_get(obj, "name", str, where, "synthetic"),
                           judge=judge, synthetic=synthetic)
    if "synthetic" in obj:
        raise ConfigError(f"{where}.synthetic only applies to kind 'synthetic'")
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or obj.get("endpoint")
    if not endpoint:
        raise ConfigError(
            f"{where}.endpoint required for kind 'http' (or set {ENDPOINT_ENV_VAR})")
    name = _get(obj, "name", str, where, "")
    if not name:
        raise ConfigError(f"{where}.name required for kind 'http'")
    return ModelConfig(kind=kind, name=name, endpoint=endpoint, judge=judge)


def _parse_extraction(obj: dict, where: str) -> ExtractionConfig:
    _check_keys(obj, ("roots", "max_depth", "parse_retries", "frontier_budget",
                      "gen_max_tokens", "gen_temperature"), where)
    roots = _get(obj, "roots", list, where, list(DEFAULT_ROOTS))
    if not roots or not all(isinstance(r, str) and r.strip() for r in roots):
        raise ConfigError(f"{where}.roots must be a non-empty list of names")
    return ExtractionConfig(
        roots=tuple(roots),
        max_depth=_get_int(obj, "max_depth", where, 3, lo=1),
        parse_retries=_get_int(obj, "parse_retries", where, 3, lo=1),
        frontier_budget=_get_int(obj, "frontier_budget", where, 2000, lo=1),
        gen_max_tokens=_get_int(obj, "gen_max_tokens", where, 1024, lo=1),
        gen_temperature=_get_num(obj, "gen_temperature", where, 0.7, lo=0.0),
    )


def _parse_gap(obj: dict, where: str) -> GapConfig:
    _check_keys(obj, ("mode", "sweep_offsets"), where)
    mode = _get(obj, "mode", str, where, "all_below")
    if mode not in GAP_MODES:
        raise ConfigError(f"{where}.mode must be one of {GAP_MODES}, got {mode!r}")
    offsets = _get(obj, "sweep_offsets", list, where, list(DEFAULT_SWEEP_OFFSETS))
    if not offsets or not all(isinstance(o, (int, float)) and not isinstance(o, bool)
                              for o in offsets):
        raise ConfigError(f"{where}.sweep_offsets must be a non-empty list of numbers")
    return GapConfig(mode=mode, sweep_offsets=tuple(float(o) for o in offsets))


def _parse_synthesis(obj: dict, where: str) -> SynthesisConfig:
    _check_keys(obj, ("strategy", "max_tokens", "temperature", "strip_hint",
                      "empty_retries"), where)
    strategy = _get(obj, "strategy", str, where, "mix")
    if strategy not in STRATEGIES:
        raise ConfigError(f"{where}.strategy must be one of {STRATEGIES}, got {strategy!r}")
    strip_hint = obj.get("strip_hint", False)
    if not isinstance(strip_hint, bool):
        raise ConfigError(f"{where}.strip_hint must be a boolean")
    return SynthesisConfig(
        strategy=strategy,
        max_tokens=_get_int(obj, "max_tokens", where, 512, lo=1),
        temperature=_get_num(obj, "temperature", where, 0.7, lo=0.0),
        strip_hint=strip_hint,
        empty_retries=_get_int(obj, "empty_retries", where, 2, lo=0),
    )


def parse_config(obj: dict, base_dir: Path) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(obj, ("model", "extraction", "scoring", "calibration", "rules",
                      "gap", "synthesis", "output"), "config")
    if "model" not in obj:
        raise ConfigError("config.model section is required")

    scoring_obj = _get(obj, "scoring", dict, "config", {})
    _check_keys(scoring_obj, ("max_in_flight",), "config.scoring")
    scoring = ScoringConfig(
        max_in_flight=_get_int(scoring_obj, "max_in_flight", "config.scoring", 8, lo=1))

    cal_obj = _get(obj, "calibration", dict, "config", {})
    _check_keys(cal_obj, ("sweep_lo", "sweep_hi"), "config.calibration")
    sweep_lo = _get_num(cal_obj, "sweep_lo", "config.calibration", 0.0)
    sweep_hi = _get_num(cal_obj, "sweep_hi", "config.calibration", 1.0)
    if not sweep_lo < sweep_hi:
        raise ConfigError(f"config.calibration sweep range [{sweep_lo}, {sweep_hi}] is empty")

    rules_obj = _get(obj, "rules", dict, "config", {})
    _check_keys(rules_obj, ("hops",), "config.rules")
    rules = RulesConfig(hops=_get_int(rules_obj, "hops", "config.rules", 1, lo=1))

    out_obj = _get(obj, "output", dict, "config", {})
    _check_keys(out_obj, ("dir", "cache_dir"), "config.output")
    out_dir = base_dir / _get(out_obj, "dir", str, "config.output", "out")
    cache_raw = out_obj.get("cache_dir")
    if cache_raw is not None and not isinstance(cache_raw, str):
        raise ConfigError("config.output.cache_dir must be a string")
    cache_dir = base_dir / cache_raw if cache_raw is not None else None

    return RunConfig(
        model=_parse_model(_get(obj, "model", dict, "config", {}), "config.model"),
        extraction=_parse_extraction(_get(obj, "extraction", dict, "config", {}),
                                     "config.extraction"),
        scoring=scoring,
        calibration=CalibrationConfig(sweep_lo=sweep_lo, sweep_hi=sweep_hi),
        rules=rules,
        gap=_parse_gap(_get(obj, "gap", dict, "config", {}), "config.gap"),
        synthesis=_parse_synthesis(_get(obj, "synthesis", dict, "config", {}),
                                   "config.synthesis"),
        output=OutputConfig(dir=out_dir, cache_dir=cache_dir),
    )


def load_config(path: Path, stage_dir: Path | None = None,
                seed: int | None = None) -> RunConfig:
    """Load and validate a config file.

    stage_dir overrides output.dir; seed overrides the synthetic model seed,
    so sweeps over seeds need no config editing.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = parse_config(obj, base_dir=path.resolve().parent)
    if stage_dir is not None:
        cfg = replace_output_dir(cfg, Path(stage_dir))
    if seed is not None:
        cfg = replace_seed(cfg, seed)
    return cfg


def replace_output_dir(cfg: RunConfig, out_dir: Path) -> RunConfig:
    from dataclasses import replace

    cache = cfg.output.cache_dir
    return replace(cfg, output=OutputConfig(dir=out_dir, cache_dir=cache))


def replace_seed(cfg: RunConfig, seed: int) -> RunConfig:
    from dataclasses import replace

    if cfg.model.synthetic is None:
        return cfg
    synthetic = replace(cfg.model.synthetic, seed=seed)
    return replace(cfg, model=replace(cfg.model, synthetic=synthetic))
