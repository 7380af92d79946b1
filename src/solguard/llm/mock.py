"""Deterministic transcript-backed provider for hermetic runs.

A transcript is a line-delimited file of ``{role, fingerprint, response}``
records. The fingerprint is a stable hash of the rendered prompt with
whitespace runs collapsed, so formatting-only differences replay the same
response. Prompts absent from the transcript yield the ``UNKNOWN`` sentinel.

Providers given one transcript map (path -> entries) share each file's
read: the first to need a path reads it into the map. A provider given no
map reads its transcript itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from solguard.errors import TranscriptError
from solguard.jsonl import read_jsonl
from solguard.llm.provider import ExchangeLog, ProviderConfig, prompt_fingerprint
from solguard.records import Record, string

UNKNOWN_RESPONSE = "UNKNOWN"


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

    def __init__(
        self, config: ProviderConfig, exchange_log: ExchangeLog | None = None, transcripts: dict | None = None
    ):
        self.config = config
        read = {} if transcripts is None else transcripts
        if config.transcript not in read:
            read[config.transcript] = load_transcript(config.transcript)
        self._entries = read[config.transcript]
        self._log = exchange_log

    def complete(self, prompt: str, *, role: str) -> str:
        response = self._entries.get((role, prompt_fingerprint(prompt)), UNKNOWN_RESPONSE)
        if self._log:
            self._log.append(role, self.config.provider_id, 0.0, prompt, response)
        return response


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

    def complete(self, prompt: str, *, role: str) -> str:
        response = self._responder(role, prompt)
        self.entries.append(
            {"role": role, "fingerprint": prompt_fingerprint(prompt), "response": response}
        )
        return response

    def dump(self) -> str:
        """The distinct entries as sorted JSON lines, so the text does not
        depend on the order in which overlapping calls finished."""
        lines = sorted({json.dumps(entry, sort_keys=True) for entry in self.entries})
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dump(), encoding="utf-8")
