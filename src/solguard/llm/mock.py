"""Deterministic transcript-backed provider for hermetic runs.

A transcript is a line-delimited file of ``{role, fingerprint, response}``
records. The fingerprint is a stable hash of the rendered prompt with
whitespace runs collapsed, so formatting-only differences replay the same
response. Prompts absent from the transcript yield the ``UNKNOWN`` sentinel.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

from solguard.errors import TranscriptError
from solguard.jsonl import read_jsonl
from solguard.llm.provider import ChatExchange, ExchangeLog, ProviderConfig
from solguard.records import Record, string

UNKNOWN_RESPONSE = "UNKNOWN"


def prompt_fingerprint(prompt: str) -> str:
    """Stable 16-hex-digit fingerprint of a prompt's normalized text."""
    normalized = " ".join(prompt.split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


TRANSCRIPT_RECORD = Record({"role": string(), "fingerprint": string(), "response": string()})


def load_transcript(path: str | Path) -> dict[tuple[str, str], str]:
    """Map (role, fingerprint) -> response from a transcript file."""
    entries: dict[tuple[str, str], str] = {}

    def read(rec: dict) -> None:
        entries[rec["role"], rec["fingerprint"]] = rec["response"]

    read_jsonl(path, read, TranscriptError, TRANSCRIPT_RECORD)
    return entries


class MockProvider:
    """Replays scripted responses keyed by (role, prompt fingerprint)."""

    def __init__(self, config: ProviderConfig, exchange_log: ExchangeLog | None = None):
        self.config = config
        self._entries = load_transcript(config.transcript)
        self._log = exchange_log

    @property
    def provider_id(self) -> str:
        return f"mock:{self.config.model_id}"

    def complete(self, prompt: str, *, role: str) -> ChatExchange:
        response = self._entries.get((role, prompt_fingerprint(prompt)), UNKNOWN_RESPONSE)
        exchange = ChatExchange(
            role=role,
            request=prompt,
            response=response,
            provider_id=self.provider_id,
            latency_s=0.0,
        )
        if self._log:
            self._log.append(exchange)
        return exchange


class TranscriptRecorder:
    """Provider that answers through a callable and records the transcript.

    Used by fixture builders: run the pipeline once with scripted responses,
    then persist the recorded (role, fingerprint, response) entries for the
    mock provider to replay.
    """

    def __init__(self, responder: Callable[[str, str], str], model_id: str = "recorder"):
        self.config = ProviderConfig(kind="mock", model_id=model_id, transcript="<recording>")
        self._responder = responder
        self.entries: list[dict[str, str]] = []

    def complete(self, prompt: str, *, role: str) -> ChatExchange:
        response = self._responder(role, prompt)
        self.entries.append(
            {"role": role, "fingerprint": prompt_fingerprint(prompt), "response": response}
        )
        return ChatExchange(
            role=role,
            request=prompt,
            response=response,
            provider_id=f"mock:{self.config.model_id}",
            latency_s=0.0,
        )

    def dump(self) -> str:
        """The distinct entries as sorted JSON lines, so the text does not
        depend on the order in which overlapping calls finished."""
        lines = sorted({json.dumps(entry, sort_keys=True) for entry in self.entries})
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dump(), encoding="utf-8")
