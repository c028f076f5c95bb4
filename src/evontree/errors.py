"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


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


class InvalidParamsError(EvontreeError):
    """Parameter values outside their documented domain."""


class ConfigError(EvontreeError):
    """Configuration file failed schema validation."""


class MissingUpstreamError(EvontreeError):
    """A stage was invoked before its upstream artifacts exist."""


class JudgeUnavailableError(EvontreeError):
    """The judge endpoint failed; reports degrade to accuracy-free mode."""


class CacheCorruptError(EvontreeError):
    """The response cache file exists but is not a readable SQLite database."""
