"""Line-delimited JSON input: the one reader every ``.jsonl`` file goes
through, and the labelled-contract records that corpus and dataset files
share."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from solguard.errors import DatasetError, SolguardError


def read_jsonl(path: str | Path, read: Callable[[Any], None], error: type[SolguardError]) -> None:
    """Call ``read`` on the JSON value of each non-blank line of ``path``.

    The file is streamed line by line, never held whole. A file that cannot
    be opened is an ``error`` naming it; any fault in a line (bad JSON or
    UTF-8, a missing field, a wrong type or value, an unreadable file the
    record names) is an ``error`` naming ``<file>:<line>``.
    """
    lineno = 0
    try:
        # bytes, decoded line by line, so a bad byte is charged to its own line
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    read(json.loads(line.decode("utf-8")))
    except KeyError as exc:
        raise error(f"{path}:{lineno}: malformed record: no {exc} field") from exc
    except (TypeError, ValueError) as exc:
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


def load_labeled_records(path: str | Path) -> list[DatasetEntry]:
    """Read labelled contracts, one ``{id, label, source | source_path,
    classes?, split?}`` record per line; ``source_path`` is resolved relative
    to the file.

    A bad label, a repeated id, a record without a readable source, or a
    file without records is a :class:`DatasetError`.
    """
    p = Path(path)
    entries: list[DatasetEntry] = []
    seen: set[str] = set()

    def read(rec: dict) -> None:
        contract_id, label = rec["id"], rec["label"]
        if label not in ("safe", "vulnerable"):
            raise ValueError(f"label must be safe|vulnerable, got {label!r}")
        if contract_id in seen:
            raise ValueError(f"duplicate contract id {contract_id!r}")
        seen.add(contract_id)
        if "source" in rec:
            source = rec["source"]
        elif "source_path" in rec:
            source = (p.parent / rec["source_path"]).read_text(encoding="utf-8")
        else:
            raise ValueError("record needs source or source_path")
        classes = rec.get("classes", [])
        if not isinstance(classes, list) or not all(isinstance(name, str) for name in classes):
            raise ValueError(f"classes must be a list of strings, got {classes!r}")
        entries.append(DatasetEntry(contract_id, source, label, tuple(classes), rec.get("split", "")))

    read_jsonl(p, read, DatasetError)
    if not entries:
        raise DatasetError(f"{p}: file holds no records")
    return entries
