"""Exception hierarchy shared across the pipeline, and the check of a value
against the domain a dataclass field declares in its metadata."""

from __future__ import annotations

import operator
from dataclasses import fields
from typing import Mapping


class EvontreeError(Exception):
    """Base class for all package errors."""


class EmptyLabelError(EvontreeError):
    """Label normalization produced an empty string."""


class TransportError(EvontreeError):
    """Model endpoint unreachable after the configured retry attempts."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(EvontreeError):
    """Model endpoint answered with a malformed or contract-violating body."""


class EmptySpanError(EvontreeError):
    """A completion tokenized to zero tokens, so no span can be scored."""


class ParseFailureError(EvontreeError):
    """Model output is not valid JSON, even after code-fence stripping."""


class SchemaMismatchError(EvontreeError):
    """Model output parsed as JSON but misses required tree keys."""


class UnrecognizedPromptError(EvontreeError):
    """The synthetic model received a prompt matching no known template."""


class MissingThresholdError(EvontreeError):
    """No calibrated threshold available for a prompt template."""


class DegenerateLabelsError(EvontreeError):
    """Threshold fitting needs at least one positive and one negative label."""


class UnparseableError(EvontreeError):
    """A one-shot reply contained neither 'true' nor 'false'."""


class InvalidHopsError(EvontreeError):
    """Extrapolation supports exactly one composition hop."""


class InvalidParamsError(EvontreeError, ValueError):
    """Parameter values outside their documented domain; a ValueError too,
    like the checks of built-in functions."""


class ConfigError(EvontreeError):
    """Configuration file failed schema validation."""


class MissingUpstreamError(EvontreeError):
    """A stage was invoked before its upstream artifacts exist."""


class StaleUpstreamError(MissingUpstreamError):
    """An upstream artifact differs from what its stage last wrote."""


class JudgeUnavailableError(EvontreeError):
    """The judge endpoint failed; reports degrade to accuracy-free mode."""


class CacheCorruptError(EvontreeError):
    """The response cache file exists but is not a readable SQLite database."""


# Bounds a field's metadata may declare, with the comparison each makes.
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def check_domain(value, domain: Mapping, where: str,
                 error: type[EvontreeError] = InvalidParamsError) -> None:
    """Raise error, naming where, unless value lies in domain: a field's
    metadata, holding any of the bounds ge/gt/le/lt, choices (a tuple of the
    legal values) and nonblank (a string that is not only whitespace). A
    tuple's domain applies to each of its items."""
    for item in value if isinstance(value, tuple) else (value,):
        for key, bound in domain.items():
            if key in _BOUNDS and not _BOUNDS[key][0](item, bound):
                raise error(f"{where} must be {_BOUNDS[key][1]} {bound}, got {item!r}")
        if "choices" in domain and item not in domain["choices"]:
            raise error(f"{where} must be one of {domain['choices']}, got {item!r}")
        if domain.get("nonblank") and not item.strip():
            raise error(f"{where} must not be blank, got {item!r}")


def check_fields(obj) -> None:
    """check_domain for every field of the dataclass instance obj."""
    for f in fields(obj):
        check_domain(getattr(obj, f.name), f.metadata, f.name)
