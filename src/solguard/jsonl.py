"""Line-delimited JSON input: the one reader every ``.jsonl`` file goes
through, and the labelled-contract records that corpus and dataset files
share."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from solguard.errors import DatasetError, SolguardError
from solguard.records import Record, one_of, path, string, strings


def read_jsonl(path: str | Path, read: Callable[[dict], None], error: type[SolguardError], record: Record) -> None:
    """Call ``read`` on each non-blank line of ``path``, streamed, parsed as a
    ``record`` with paths relative to the file's directory. An unopenable file
    is an ``error`` naming it; a fault in a line, a ``ValueError`` from ``read``
    included, is an ``error`` naming ``<file>:<line>``."""
    lineno = 0
    base, decode = Path(path).parent, json.JSONDecoder().decode
    try:
        # bytes, decoded line by line, so a bad byte is charged to its own line
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    read(record.parse(decode(line.decode("utf-8")), error, f"{path}:{lineno}", "record", base))
    except ValueError as exc:
        raise error(f"{path}:{lineno}: malformed record: {exc}") from exc
    except OSError as exc:
        raise error(f"{path}:{lineno}: {exc}" if lineno else f"cannot read {path}: {exc}") from exc


@dataclass(frozen=True)
class DatasetEntry:
    contract_id: str
    source: str
    label: str  # safe | vulnerable
    classes: tuple[str, ...] = ()
    split: str = ""


LABELED_RECORD = Record({
    "id": string(), "label": one_of(("safe", "vulnerable")), "source": string(None), "source_path": path(None),
    "classes": strings([]), "split": string(""),
})


def load_labeled_records(path: str | Path) -> list[DatasetEntry]:
    """Read labelled contracts, one :data:`LABELED_RECORD` per line. A record
    without a readable source, a repeated id, or a file without records is a
    :class:`DatasetError`."""
    entries: dict[str, DatasetEntry] = {}

    def read(rec: dict[str, Any]) -> None:
        contract_id, source = rec["id"], rec["source"]
        if contract_id in entries:
            raise ValueError(f"duplicate contract id {contract_id!r}")
        if source is None:
            if rec["source_path"] is None:
                raise ValueError("record needs source or source_path")
            source = Path(rec["source_path"]).read_text(encoding="utf-8")
        entries[contract_id] = DatasetEntry(contract_id, source, rec["label"], tuple(rec["classes"]), rec["split"])

    read_jsonl(path, read, DatasetError, LABELED_RECORD)
    if not entries:
        raise DatasetError(f"{path}: file holds no records")
    return list(entries.values())
