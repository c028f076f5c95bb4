"""Run configuration: a JSON file with one section per pipeline concern.

Each section is a frozen dataclass, and the dataclass is the whole schema:
its field names are the keys, its defaults fill keys left out, its
annotations give the JSON types, and each field's metadata its domain (see
errors.check_domain). One loader walks the fields, recursing into nested
sections. Validation is strict and happens before any network activity:
unknown keys anywhere are errors (catching typos beats silently ignoring
them), a bool is not a number, and every value is checked against its
domain on load. Rules that span fields are written out below or in a
section's __post_init__. Relative paths are resolved against the directory
containing the config file, so a config can travel with its runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .calibration import SweepSpec
from .errors import ConfigError, InvalidParamsError, check_domain
from .extraction import ExtractionConfig
from .scoring import GAP_MODES
from .synthesis import SynthesisConfig
from .synthetic import SyntheticSpec

ENDPOINT_ENV_VAR = "EVONTREE_ENDPOINT"

MODEL_KINDS = ("synthetic", "http")
JUDGE_KINDS = ("none", "self", "http")

DEFAULT_SWEEP_OFFSETS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0)


@dataclass(frozen=True)
class JudgeConfig:
    # Left out, it is "self" for a synthetic model and "none" for http.
    kind: str = field(default="none", metadata={"choices": JUDGE_KINDS})
    endpoint: str | None = None
    model: str | None = None


@dataclass(frozen=True)
class ModelConfig:
    kind: str = field(metadata={"choices": MODEL_KINDS})
    name: str = ""  # required for http; "synthetic" if left out for synthetic
    endpoint: str | None = None  # http only; EVONTREE_ENDPOINT overrides it
    judge: JudgeConfig = JudgeConfig()
    synthetic: SyntheticSpec | None = None  # synthetic only; defaults if left out


@dataclass(frozen=True)
class ScoringConfig:
    # Concurrent requests to an HTTP endpoint. The in-process synthetic
    # model answers on the calling thread, so it ignores this.
    max_in_flight: int = field(default=8, metadata={"ge": 1})


@dataclass(frozen=True)
class CalibrationConfig:
    sweep_lo: float = 0.0
    sweep_hi: float = 1.0

    def __post_init__(self) -> None:
        self.sweep()  # SweepSpec rejects an empty range

    def sweep(self) -> SweepSpec:
        return SweepSpec(lo=self.sweep_lo, hi=self.sweep_hi)


@dataclass(frozen=True)
class RulesConfig:
    # Only one-hop extrapolation exists; the key stays for what may follow.
    hops: int = field(default=1, metadata={"choices": (1,)})


@dataclass(frozen=True)
class GapConfig:
    mode: str = field(default="all_below", metadata={"choices": GAP_MODES})
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
    extraction: ExtractionConfig = ExtractionConfig()
    scoring: ScoringConfig = ScoringConfig()
    calibration: CalibrationConfig = CalibrationConfig()
    rules: RulesConfig = RulesConfig()
    gap: GapConfig = GapConfig()
    synthesis: SynthesisConfig = SynthesisConfig()
    output: OutputConfig = OutputConfig()

    def config_hash(self) -> str:
        """Hash of the fully resolved configuration, recorded in the manifest
        so artifacts can be traced back to the exact settings."""
        canonical = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["output"] = {"dir": str(self.output.dir),
                         "cache_dir": str(self.output.resolved_cache_dir())}
        return obj


# The JSON types a field of each annotated type accepts. A float field also
# takes an int, and keeps it as given.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), Path: (str,)}

# Resolving a class's string annotations is most of a load's work; once
# per class is enough.
_field_types = cache(get_type_hints)


def _load_value(tp, value, where: str):
    """value, checked against the annotation tp, as the field holds it."""
    if is_dataclass(tp):
        return _load_section(tp, value, where)
    args = get_args(tp)
    if get_origin(tp) is tuple:  # tuple[X, ...]: a non-empty JSON list of X
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        # Items are converted, so a list of numbers becomes floats.
        return tuple(args[0](_load_value(args[0], item, f"{where}[{i}]"))
                     for i, item in enumerate(value))
    if args:  # X | None
        return None if value is None else _load_value(args[0], value, where)
    allowed = _JSON_TYPES[tp]
    if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
        raise ConfigError(f"{where} has the wrong type: {value!r}")
    return Path(value) if tp is Path else value


def _load_section(cls, obj, where: str):
    """An instance of the dataclass cls from the JSON object obj."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} has the wrong type: {obj!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(declared))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    types = _field_types(cls)
    kwargs = {}
    for name, f in declared.items():
        if name in obj:
            kwargs[name] = _load_value(types[name], obj[name], f"{where}.{name}")
            check_domain(kwargs[name], f.metadata, f"{where}.{name}", ConfigError)
        elif f.default is MISSING:
            raise ConfigError(f"{where}.{name} is required")
    try:
        return cls(**kwargs)
    except InvalidParamsError as exc:  # a rule spanning the section's fields
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve_model(model: ModelConfig, obj: dict) -> ModelConfig:
    """The model section's rules that depend on its kind."""
    where = "config.model"
    judge = model.judge
    if model.kind == "synthetic" and "kind" not in obj.get("judge", {}):
        judge = replace(judge, kind="self")
    if judge.kind == "http" and not (judge.endpoint and judge.model):
        raise ConfigError(f"{where}.judge: judge kind 'http' needs endpoint and model")
    if model.kind == "synthetic":
        return replace(model, name=obj.get("name", "synthetic"), endpoint=None, judge=judge,
                       synthetic=model.synthetic or SyntheticSpec())
    if "synthetic" in obj:
        raise ConfigError(f"{where}.synthetic only applies to kind 'synthetic'")
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or model.endpoint
    if not endpoint:
        raise ConfigError(
            f"{where}.endpoint required for kind 'http' (or set {ENDPOINT_ENV_VAR})")
    if not model.name:
        raise ConfigError(f"{where}.name required for kind 'http'")
    return replace(model, endpoint=endpoint, judge=judge)


def parse_config(obj: dict, base_dir: Path) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _load_section(RunConfig, obj, "config")
    out = cfg.output
    cache_dir = base_dir / out.cache_dir if out.cache_dir is not None else None
    return replace(cfg, model=_resolve_model(cfg.model, obj["model"]),
                   output=OutputConfig(dir=base_dir / out.dir, cache_dir=cache_dir))


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
    return replace(cfg, output=replace(cfg.output, dir=out_dir))


def replace_seed(cfg: RunConfig, seed: int) -> RunConfig:
    if cfg.model.synthetic is None:
        return cfg
    synthetic = replace(cfg.model.synthetic, seed=seed)
    return replace(cfg, model=replace(cfg.model, synthetic=synthetic))
