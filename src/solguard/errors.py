"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SolguardError(Exception):
    """Base class for all errors raised by this package."""


class SpanError(SolguardError):
    """A source could not be tokenized or segmented; ``span`` points at the offending bytes."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} at bytes {span[0]}..{span[1]}")
        self.span = span


class LexicalError(SpanError):
    """Tokenization failed."""


class StructuralError(SpanError):
    """Source structure (brace nesting, declarations) could not be resolved."""


class RulesetError(SolguardError):
    """Pattern rule file is malformed or inconsistent."""


class ConfigError(SolguardError):
    """Pipeline or provider configuration is invalid."""


class TranscriptError(SolguardError):
    """Mock provider transcript could not be loaded."""


class TransportError(SolguardError):
    """Completion request failed after exhausting retries."""


class CompletionTimeout(TransportError):
    """Completion request timed out."""


class ExtractionError(SolguardError):
    """No structured object could be extracted from a model response."""

    def __init__(self, message: str, raw_text: str):
        super().__init__(message)
        self.raw_text = raw_text


class SchemaError(ExtractionError):
    """An extracted object is missing or mistypes a required field."""

    def __init__(self, message: str, raw_text: str, field: str):
        super().__init__(message, raw_text)
        self.field = field


class SnapshotError(SolguardError):
    """Snapshot store is missing, partial, or otherwise unreadable."""


class DatasetError(SolguardError):
    """Labeled dataset file is malformed or unusable."""


class ModelChannelError(SolguardError):
    """The model channel failed; ``channels`` holds the static and retrieval results."""

    def __init__(self, message: str, channels: dict):
        super().__init__(message)
        self.channels = channels
