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
import sys
from array import array
from itertools import chain
from operator import gt, mul
from pathlib import Path
from typing import Generic, TypeVar

from solguard.errors import SnapshotError, SolguardError
from solguard.jsonl import read_jsonl
from solguard.records import Field, Record, mapping, one_of, string, whole
from solguard.retrieval.kb import KbChunk, KbIndex, get_embedder
from solguard.retrieval.tfidf import CorpusDocument, CorpusIndex

T = TypeVar("T")

POINTER_NAME = "CURRENT"
FORMAT_VERSION = 2  # of corpus snapshots
POSTINGS = {"idf": "d", "offsets": "q", "positions": "i", "weights": "d", "norms": "d"}  # array -> typecode
ITEMSIZE = {name: array(typecode).itemsize for name, typecode in POSTINGS.items()}
_META = {"kind": string(), "version": whole(1), "documents": whole(0)}  # the meta.json keys of every store


class SnapshotStore(Generic[T]):
    """Base store; subclasses serialize one index type."""

    kind = "index"
    meta: Record
    format_version, republish = 1, "republish it with `solguard kb update`"  # format 1 names no format_version

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
        path = target / "meta.json"
        payload = _read_json(path)
        found = payload.get("format_version", 1)  # before any other key, so an older index is republished
        if found != self.format_version:
            raise SnapshotError(
                f"snapshot file {path} names format {found!r}, not {self.format_version}: {self.republish}"
            )
        meta = self.meta.parse(payload, SnapshotError, f"snapshot file {path} is corrupt", "meta")
        if meta["version"] != version:
            raise SnapshotError(f"snapshot {target} is internally inconsistent: meta names version {meta['version']}")
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
    """Corpus snapshots in format 2: ``terms.json``, the sorted term list;
    ``documents.json``, one ``[id, label, classes]`` row per document; and
    ``postings.bin``, the arrays of ``POSTINGS`` back to back, in the byte
    order and item sizes that ``meta.json`` records with the counts."""

    kind = "corpus"
    format_version, republish = FORMAT_VERSION, "republish the corpus with `solguard kb update --corpus <file>`"
    meta = Record({
        **_META, "format_version": whole(1), "byteorder": one_of(("little", "big")), "itemsize": mapping(),
        "terms": whole(0), "postings": whole(0),
    })

    def _write_files(self, target: Path, index: CorpusIndex) -> None:
        norms = array("d", (doc.norm for doc in index.documents))
        with open(target / "postings.bin", "wb") as fh:
            for values in (index.idf, index.offsets, index.positions, index.weights, norms):
                values.tofile(fh)
        (target / "terms.json").write_text(json.dumps(list(index.term_ids)), encoding="utf-8")
        rows = [[doc.id, doc.label, list(doc.classes)] for doc in index.documents]
        (target / "documents.json").write_text(json.dumps(rows), encoding="utf-8")
        counts = {"terms": len(index.term_ids), "postings": len(index.positions), "documents": len(norms)}
        header = {"format_version": FORMAT_VERSION, "byteorder": sys.byteorder, "itemsize": ITEMSIZE, **counts}
        _write_json(target / "meta.json", {"kind": self.kind, "version": index.snapshot_version, **header})

    def _read_files(self, target: Path, meta: dict) -> CorpusIndex:
        meta_path, terms_path, rows_path, path = (
            target / name for name in ("meta.json", "terms.json", "documents.json", "postings.bin")
        )
        if meta["byteorder"] != sys.byteorder or meta["itemsize"] != ITEMSIZE:
            raise _corrupt(meta_path, f"this machine reads byte order {sys.byteorder!r} with item sizes {ITEMSIZE}")
        n_terms, n_postings, n_documents = meta["terms"], meta["postings"], meta["documents"]
        term_ids = {term: t for t, term in enumerate(_read_json(terms_path, list))}
        if len(term_ids) != n_terms:
            raise _corrupt(terms_path, f"it holds {len(term_ids)} distinct terms, but meta.json counts {n_terms}")
        rows = _read_json(rows_path, list)  # checked column by column, which is faster than row by row
        shaped = len(rows) == n_documents and {*map(type, rows)} <= {list} and {*map(len, rows)} <= {3}
        ids, labels, classes = list(zip(*rows)) if shaped and rows else ((), (), ())
        if not shaped or not {*map(type, classes)} <= {list} or not {*map(type, chain(ids, labels, *classes))} <= {str}:
            raise _corrupt(rows_path, f"it must hold meta.json's {n_documents} [id, label, [class, ...]] rows of strings")
        arrays = {name: array(typecode) for name, typecode in POSTINGS.items()}
        lengths = (n_terms, n_terms + 1, n_postings, n_postings, n_documents)
        try:
            with open(path, "rb") as fh:
                size, expected = os.fstat(fh.fileno()).st_size, sum(map(mul, ITEMSIZE.values(), lengths))
                if size != expected:
                    raise _corrupt(path, f"it holds {size} bytes, but the counts in meta.json make {expected}")
                for values, length in zip(arrays.values(), lengths):
                    values.fromfile(fh, length)
        except (OSError, EOFError) as exc:
            raise SnapshotError(f"snapshot file {path} cannot be read: {exc}") from exc
        for name in ("idf", "weights", "norms"):  # a NaN fails one check or the other
            if min(arrays[name], default=0.0) < 0 or not math.isfinite(sum(arrays[name])):
                raise _corrupt(path, f"{name} must be finite numbers >= 0")
        idf, offsets, positions, weights, norms = arrays.values()
        if offsets[0] != 0 or offsets[-1] != n_postings or any(map(gt, offsets, offsets[1:])):
            raise _corrupt(path, f"offsets must rise from 0 to the {n_postings} postings")
        if positions and max(array("I", positions.tobytes())) >= n_documents:  # unsigned, a negative is >= 2**31
            raise _corrupt(path, f"every position must lie in [0, {n_documents})")
        documents = tuple(map(CorpusDocument, ids, labels, map(tuple, classes), norms))
        return CorpusIndex(documents, term_ids, idf, offsets, positions, weights, meta["version"])


class KbSnapshotStore(SnapshotStore[KbIndex]):
    kind = "kb"
    meta = Record({**_META, "embedder": string(), "chunks": whole(0)})

    def _write_files(self, target: Path, index: KbIndex) -> None:
        with open(target / "chunks.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(dataclasses.asdict(chunk), sort_keys=True) + "\n" for chunk in index.chunks)
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
            embedder = get_embedder(meta["embedder"])
        except SolguardError as exc:
            raise SnapshotError(f"snapshot file {target / 'meta.json'} cannot be loaded: {exc}") from exc
        chunks: list[KbChunk] = []

        def read(rec: dict) -> None:
            if len(rec["embedding"]) != embedder.dim:
                raise ValueError(f"embedding must be a list of {embedder.dim} numbers for {embedder.embedder_id}")
            chunks.append(KbChunk(**{**rec, "embedding": tuple(rec["embedding"])}))

        read_jsonl(target / "chunks.jsonl", read, SnapshotError, CHUNK)
        return KbIndex(tuple(chunks), embedder, snapshot_version=meta["version"])


_NUMBERS = Field("a list of numbers", lambda v: type(v) is list and all(type(x) in (int, float) for x in v))
CHUNK = Record({
    "doc_id": string(), "chunk_index": whole(0), "text": string(), "metadata": mapping(), "embedding": _NUMBERS,
})


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=0), encoding="utf-8")


def _corrupt(path: Path, reason: str) -> SnapshotError:
    return SnapshotError(f"snapshot file {path} is corrupt: {reason}")


def _read_json(path: Path, kind: type = dict) -> dict | list:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"snapshot file {path} cannot be read: {exc}") from exc
    except ValueError as exc:
        raise _corrupt(path, str(exc)) from exc
    if not isinstance(payload, kind):
        raise _corrupt(path, f"not a JSON {'object' if kind is dict else 'array'}")
    return payload
