"""Provider abstraction, prompt templates, and structured-output extraction."""

from solguard.llm.mock import MockProvider, TranscriptRecorder, load_transcript
from solguard.llm.provider import (
    ChatExchange,
    ExchangeLog,
    HttpProvider,
    Provider,
    ProviderConfig,
    prompt_fingerprint,
)
from solguard.llm.structured import (
    ADVISOR_SCHEMA,
    ASSESSOR_SCHEMA,
    DETECTOR_SCHEMA,
    FIXER_SCHEMA,
    VERIFIER_SCHEMA,
    StructuredSchema,
    extract_structured,
)
from solguard.llm.template import PromptTemplate, TemplateError, render_prompt


def build_provider(config: ProviderConfig, exchange_log: ExchangeLog | None = None) -> Provider:
    """Instantiate the provider named by a config record."""
    if config.kind == "mock":
        return MockProvider(config, exchange_log)
    return HttpProvider(config, exchange_log)


__all__ = [
    "ADVISOR_SCHEMA",
    "ASSESSOR_SCHEMA",
    "ChatExchange",
    "DETECTOR_SCHEMA",
    "ExchangeLog",
    "FIXER_SCHEMA",
    "HttpProvider",
    "MockProvider",
    "PromptTemplate",
    "Provider",
    "ProviderConfig",
    "StructuredSchema",
    "TemplateError",
    "TranscriptRecorder",
    "VERIFIER_SCHEMA",
    "build_provider",
    "extract_structured",
    "load_transcript",
    "prompt_fingerprint",
    "render_prompt",
]
