"""Versioned, hot-swappable persistence for retrieval indexes.

Layout under a store root:

    <root>/1/ <root>/2/ ...   immutable version directories
    <root>/CURRENT            pointer file naming the live version

A publish writes the new version directory completely, then replaces
CURRENT atomically. Readers resolve CURRENT once per load, so an audit that
already loaded version N keeps N even while N+1 is being published; a crash
before the pointer swap leaves CURRENT untouched and the half-written
directory unreferenced.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Generic, Iterable, TypeVar

from solguard.errors import SnapshotError, SolguardError
from solguard.jsonl import read_jsonl
from solguard.retrieval.kb import KbChunk, KbIndex, get_embedder
from solguard.retrieval.tfidf import CorpusDocument, CorpusIndex, Postings, add_postings, l2_norm

T = TypeVar("T")

POINTER_NAME = "CURRENT"


class SnapshotStore(Generic[T]):
    """Base store; subclasses serialize one index type."""

    kind = "index"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- public API ----------------------------------------------------

    def current_version(self) -> int | None:
        pointer = self.root / POINTER_NAME
        try:
            return int(pointer.read_text(encoding="utf-8").strip())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"corrupt pointer file {pointer}: {exc}") from exc

    def publish(self, index: T) -> int:
        """Write a new snapshot and swap the pointer; returns the version."""
        version = self._next_version()
        target = self.root / str(version)
        target.mkdir(parents=True, exist_ok=False)
        self._write_files(target, dataclasses.replace(index, snapshot_version=version))
        self._activate(version)
        return version

    def load(self) -> T:
        """Load the currently published snapshot."""
        version = self.current_version()
        if version is None:
            raise SnapshotError(f"no snapshot published under {self.root}")
        return self.load_version(version)

    def load_version(self, version: int) -> T:
        target = self.root / str(version)
        if not target.is_dir():
            raise SnapshotError(f"snapshot directory {target} is missing")
        meta = _read_json(target / "meta.json")
        if meta.get("version") != version:
            raise SnapshotError(
                f"snapshot {target} is internally inconsistent: "
                f"meta names version {meta.get('version')}"
            )
        return self._read_files(target, meta)

    def versions(self) -> list[int]:
        if not self.root.is_dir():
            return []
        return sorted(int(p.name) for p in self.root.iterdir() if p.is_dir() and p.name.isdigit())

    # -- internals -------------------------------------------------------

    def _next_version(self) -> int:
        current = self.current_version() or 0
        existing = self.versions()
        return max([current, *existing]) + 1 if existing or current else 1

    def _activate(self, version: int) -> None:
        """Atomically repoint CURRENT at ``version``."""
        pointer = self.root / POINTER_NAME
        tmp = self.root / f"{POINTER_NAME}.tmp"
        tmp.write_text(f"{version}\n", encoding="utf-8")
        os.replace(tmp, pointer)

    def _write_files(self, target: Path, index: T) -> None:
        raise NotImplementedError

    def _read_files(self, target: Path, meta: dict) -> T:
        raise NotImplementedError


class CorpusSnapshotStore(SnapshotStore[CorpusIndex]):
    kind = "corpus"

    def _write_files(self, target: Path, index: CorpusIndex) -> None:
        _write_json(target / "idf.json", index.idf)
        _write_jsonl(
            target / "docs.jsonl",
            (
                {"id": doc.id, "label": doc.label, "classes": list(doc.classes), "vector": weights}
                for doc, weights in zip(index.documents, index.document_weights())
            ),
        )
        _write_json(
            target / "meta.json",
            {"kind": self.kind, "version": index.snapshot_version, "documents": len(index.documents)},
        )

    def _read_files(self, target: Path, meta: dict) -> CorpusIndex:
        idf = _read_json(target / "idf.json")
        try:
            _checked_norm(idf)
            if bool in set(map(type, idf.values())):  # true and false pass arithmetic as 1 and 0
                raise ValueError("term weights must be numbers, not booleans")
        except ValueError as exc:
            raise SnapshotError(f"snapshot file {target / 'idf.json'} is corrupt: {exc}") from exc
        documents: list[CorpusDocument] = []
        postings: Postings = {}

        def read(rec: dict) -> None:
            vector = rec["vector"]
            doc = CorpusDocument(rec["id"], rec["label"], tuple(rec["classes"]), _checked_norm(vector))
            add_postings(postings, len(documents), vector)
            documents.append(doc)

        read_jsonl(target / "docs.jsonl", read, SnapshotError)
        return CorpusIndex(tuple(documents), idf, postings, snapshot_version=int(meta["version"]))


class KbSnapshotStore(SnapshotStore[KbIndex]):
    kind = "kb"

    def _write_files(self, target: Path, index: KbIndex) -> None:
        _write_jsonl(
            target / "chunks.jsonl",
            (
                {
                    "doc_id": chunk.doc_id,
                    "chunk_index": chunk.chunk_index,
                    "text": chunk.text,
                    "metadata": chunk.metadata,
                    "embedding": list(chunk.embedding),
                }
                for chunk in index.chunks
            ),
        )
        _write_json(
            target / "meta.json",
            {
                "kind": self.kind,
                "version": index.snapshot_version,
                "embedder": index.embedder.embedder_id,
                "documents": len({c.doc_id for c in index.chunks}),
                "chunks": len(index.chunks),
            },
        )

    def _read_files(self, target: Path, meta: dict) -> KbIndex:
        try:
            embedder = get_embedder(meta.get("embedder"))
        except SolguardError as exc:
            raise SnapshotError(f"snapshot file {target / 'meta.json'} cannot be loaded: {exc}") from exc
        chunks: list[KbChunk] = []

        def read(rec: dict) -> None:
            embedding = tuple(rec["embedding"])
            if len(embedding) != embedder.dim or not all(isinstance(x, (int, float)) for x in embedding):
                raise ValueError(f"embedding must be a list of {embedder.dim} numbers for {embedder.embedder_id}")
            chunks.append(KbChunk(rec["doc_id"], rec["chunk_index"], rec["text"], rec["metadata"], embedding))

        read_jsonl(target / "chunks.jsonl", read, SnapshotError)
        return KbIndex(tuple(chunks), embedder, snapshot_version=int(meta["version"]))


def _checked_norm(weights: object) -> float:
    """L2 norm of a stored term->weight map, whose weights must be finite
    numbers >= 0."""
    try:
        norm = l2_norm(weights)
        if math.isfinite(norm) and min(weights.values(), default=0) >= 0:
            return norm
    except (AttributeError, TypeError):
        pass  # not a map of numbers
    raise ValueError("term weights must be finite numbers >= 0")


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=0), encoding="utf-8")


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"snapshot file {path} cannot be read: {exc}") from exc
    except ValueError as exc:
        raise SnapshotError(f"snapshot file {path} is corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot file {path} is corrupt: not a JSON object")
    return payload
