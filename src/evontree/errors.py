"""Exception hierarchy shared across the pipeline, and the check of a value
against the domain a dataclass field declares in its metadata.

A reader of model answers refuses one it cannot use with UnparseableError
alone; every other error a reader raises is a fault, not a refusal."""

from __future__ import annotations

import operator
from dataclasses import fields
from typing import Mapping
from urllib.parse import urlsplit


class EvontreeError(Exception):
    """Base class for all package errors."""


class EmptyLabelError(EvontreeError):
    """Label normalization produced an empty string."""


class TransportError(EvontreeError):
    """Model endpoint unreachable after the configured retry attempts.
    retry_after_s is the wait, in seconds, that a 429 or 503 reply asked for
    in its Retry-After header, if it gave one."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ProtocolError(EvontreeError):
    """Model endpoint answered with a malformed or contract-violating body."""


class EmptySpanError(EvontreeError):
    """A completion tokenized to zero tokens, so no span can be scored."""


class UnrecognizedPromptError(EvontreeError):
    """The synthetic model received a prompt matching no known template."""


class UnparseableError(EvontreeError):
    """A model answer its reader cannot use: a tree that is not JSON or not
    of the asked shape, a one-shot reply with neither 'true' nor 'false', a
    blank distilled answer. The one error a reader refuses an answer with."""


class InvalidParamsError(EvontreeError, ValueError):
    """Parameter values outside their documented domain; a ValueError too,
    like the checks of built-in functions."""


class ConfigError(EvontreeError):
    """Configuration file failed schema validation."""


class MissingUpstreamError(EvontreeError):
    """A stage was invoked before its upstream artifacts exist."""


class StaleUpstreamError(MissingUpstreamError):
    """An upstream artifact differs from what its stage last wrote."""


class DirectoryBusyError(EvontreeError):
    """Another process is running a stage on the same output directory."""


class CacheCorruptError(EvontreeError):
    """The response cache file exists but is not a readable SQLite database."""


# Bounds a field's metadata may declare, with the comparison each makes.
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}

# The domain of a model endpoint.
URL_DOMAIN = {"schemes": ("http", "https")}


def _is_url(text: str, schemes: tuple[str, ...]) -> bool:
    """Whether text is a URL with one of schemes, a host, and a numeric port
    if it names one."""
    try:
        url = urlsplit(text)
        url.port  # raises ValueError unless a number in range
    except ValueError:
        return False
    return url.scheme in schemes and bool(url.hostname)


def check_domain(value, domain: Mapping, where: str,
                 error: type[EvontreeError] = InvalidParamsError) -> None:
    """Raise error, naming where, unless value lies in domain: a field's
    metadata, holding any of the bounds ge/gt/le/lt, choices (a tuple of the
    legal values), nonblank (a string that is not only whitespace) and
    schemes (a URL with one of these schemes and a host; None passes). A
    tuple's domain applies to each of its items."""
    for item in value if isinstance(value, tuple) else (value,):
        for key, bound in domain.items():
            if key in _BOUNDS and not _BOUNDS[key][0](item, bound):
                raise error(f"{where} must be {_BOUNDS[key][1]} {bound}, got {item!r}")
        if "choices" in domain and item not in domain["choices"]:
            raise error(f"{where} must be one of {domain['choices']}, got {item!r}")
        if domain.get("nonblank") and not item.strip():
            raise error(f"{where} must not be blank, got {item!r}")
        schemes = domain.get("schemes")
        if schemes and item is not None and not _is_url(item, schemes):
            raise error(f"{where} must be a URL with scheme {' or '.join(schemes)} "
                        f"and a host, got {item!r}")


def check_fields(obj) -> None:
    """check_domain for every field of the dataclass instance obj."""
    for f in fields(obj):
        check_domain(getattr(obj, f.name), f.metadata, f.name)
