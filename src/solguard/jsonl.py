"""Input files: the one reader every whole text input and every ``.jsonl``
file goes through, the one YAML parser, and the labelled-contract records
that corpus and dataset files share."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, NamedTuple

import yaml

from solguard.errors import DatasetError, SolguardError
from solguard.records import Record, one_of, path, string, text, texts


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The text of the UTF-8 file ``path``; a read or decode fault is an ``error`` naming it as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def file_id(path: Path) -> str:
    """The id a file name gives: its stem, each byte that is not UTF-8 written as ``\\xNN``."""
    return os.fsencode(path.stem).decode("utf-8", "backslashreplace")


def read_yaml(text: str, error: type[SolguardError], what: str) -> Any:
    """``text`` parsed as YAML; any fault is an ``error`` reading ``<what>: <fault>``.
    Besides syntax errors, that is an integer longer than Python's digit
    limit (a ``ValueError``) and nesting deeper than the recursion limit."""
    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc


def read_jsonl(path: str | Path, read: Callable[[dict], None], error: type[SolguardError], record: Record) -> None:
    """Call ``read`` on each non-blank line of ``path``, streamed, parsed as a
    ``record`` with paths relative to the file's directory. An unopenable file
    is an ``error`` naming it; a fault in a line, a ``ValueError`` or
    ``OSError`` from ``read`` included, is an ``error`` naming ``<file>:<line>``."""
    lineno = 0
    base, decode = Path(path).parent, json.JSONDecoder().decode
    try:
        # bytes, decoded line by line, so a bad byte is charged to its own line
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    read(record.parse(decode(line.decode("utf-8")), error, f"{path}:{lineno}", "record", base))
    except (ValueError, RecursionError) as exc:  # deep nesting exhausts the decoder's recursion
        raise error(f"{path}:{lineno}: malformed record: {exc}") from exc
    except OSError as exc:
        raise error(f"{path}:{lineno}: {exc}" if lineno else f"cannot read {path}: {exc}") from exc


LABELED_RECORD = Record({
    "id": text(), "label": one_of(("safe", "vulnerable")), "source": string(None), "source_path": path(None),
    "classes": texts([]), "split": string(""),
})


class LabeledRow(NamedTuple):
    id: str
    label: str  # safe | vulnerable
    classes: tuple[str, ...]
    source: str
    split: str


def load_labeled_records(path: str | Path) -> list[LabeledRow]:
    """Read labelled contracts, one :data:`LABELED_RECORD` per line, as rows.
    A record without a readable source, a repeated id, or a file without
    records is a :class:`DatasetError`."""
    rows: dict[str, LabeledRow] = {}

    def read(rec: dict[str, Any]) -> None:
        contract_id, source = rec["id"], rec["source"]
        if contract_id in rows:
            raise ValueError(f"duplicate contract id {contract_id!r}")
        if source is None:
            if rec["source_path"] is None:
                raise ValueError("record needs source or source_path")
            source = read_text(rec["source_path"], OSError, "contract source")  # an OSError names its line
        rows[contract_id] = LabeledRow(contract_id, rec["label"], tuple(rec["classes"]), source, rec["split"])

    read_jsonl(path, read, DatasetError, LABELED_RECORD)
    if not rows:
        raise DatasetError(f"{path}: file holds no records")
    return list(rows.values())
