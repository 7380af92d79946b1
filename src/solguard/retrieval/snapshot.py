"""Versioned, hot-swappable persistence for retrieval indexes.

An index root holds two stores, ``<root>/corpus`` and ``<root>/kb``
(:func:`index_stores`). Layout under a store root:

    <store>/1/ <store>/2/ ...   immutable version directories
    <store>/CURRENT             pointer file naming the live version
    <store>/CURRENT.lock        the lock publishes take turns on

A publish writes the new version directory completely, then replaces
CURRENT atomically. Where the platform has ``fcntl``, it holds an exclusive
``flock`` on ``CURRENT.lock`` from choosing the version through the swap,
so overlapping publishes, in one process or several, take turns and
CURRENT never moves back to a lower version. :meth:`SnapshotStore.load`
reads CURRENT once and returns the live index, which carries its own
``snapshot_version``, or ``None`` when nothing is published, so a reader
never pairs one version's number with another's contents. An audit that
already loaded version N keeps N even while N+1 is being published; a
crash before the pointer swap leaves CURRENT untouched and the
half-written directory unreferenced.

``meta.json`` records each data file's sha256, and a load refuses a file
whose bytes hash otherwise before it parses any. Past the digest, it checks
only what another machine or writer could get wrong: byte order, item sizes
and the shapes that the counts in ``meta.json`` give the files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from array import array
from contextlib import contextmanager
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Generic, Iterable, Iterator, TypeVar

from solguard.core import gc_paused
from solguard.errors import SnapshotError
from solguard.jsonl import read_jsonl
from solguard.records import Record, mapping, one_of, string, strings, whole
from solguard.retrieval.kb import KbChunk, KbIndex
from solguard.retrieval.tfidf import CorpusIndex

try:
    import fcntl
except ImportError:  # no flock on this platform: publishes are not ordered
    fcntl = None

T = TypeVar("T")

POINTER_NAME = "CURRENT"
LOCK_NAME = f"{POINTER_NAME}.lock"
POSTINGS = {  # array -> typecode
    "idf": "d", "offsets": "q", "positions": "i", "weights": "d", "norms": "d", "common_norms": "d",
}
ITEMSIZE = {name: array(typecode).itemsize for name, typecode in POSTINGS.items()}
_META = {"kind": string(), "version": whole(1), "format_version": whole(1), "sha256": mapping()}  # of every store


class SnapshotStore(Generic[T]):
    """Base store; subclasses serialize one index type into the data ``files`` that meta.json digests."""

    kind = "index"
    files: tuple[str, ...]  # the data files of a version, each with its sha256 in meta.json
    meta: Record
    format_version: int  # the one a load accepts; a meta.json without one is format 1
    republish: str  # what a load of another format asks for

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
        """Write a new snapshot and swap the pointer, under the store's lock;
        returns the version, which ``meta.json`` and the pointer record, not
        ``index`` (a load sets it). A write fault is a ``SnapshotError``
        naming the directory, and a swap fault one naming the pointer;
        either way the pointer stays."""
        with self._locked():
            version = self._next_version()
            target = self.root / str(version)
            try:
                target.mkdir(parents=True, exist_ok=False)
                self._write_files(target, index, version)
            except OSError as exc:
                raise SnapshotError(f"cannot write snapshot {target}: {exc}") from exc
            self._activate(version)
        return version

    def load(self) -> T | None:
        """The live snapshot, reading CURRENT once; ``None`` when none is published."""
        version = self.current_version()
        return None if version is None else self.load_version(version)

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
        try:
            for path in (target / name for name in self.files):  # every byte, before any parse
                found, recorded = _sha256(path), meta["sha256"].get(path.name)
                if found != recorded:
                    raise _corrupt(path, f"its sha256 is {found}, but meta.json records {recorded}")
            with gc_paused():
                return self._read_files(target, meta)
        except OSError as exc:  # its message names the file
            raise SnapshotError(f"snapshot {target} cannot be read: {exc}") from exc

    def versions(self) -> list[int]:
        if not self.root.is_dir():
            return []
        return sorted(int(p.name) for p in self.root.iterdir() if p.is_dir() and p.name.isdigit())

    # -- internals -------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold an exclusive ``flock`` on the store's lock file, where ``fcntl``
        exists. A fault is a ``SnapshotError`` naming the lock file."""
        if fcntl is None:
            yield
            return
        lock = self.root / LOCK_NAME
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fh = open(lock, "ab")  # created when missing, never truncated
            try:
                fcntl.flock(fh, fcntl.LOCK_EX)
            except OSError:
                fh.close()
                raise
        except OSError as exc:
            raise SnapshotError(f"cannot lock {lock}: {exc}") from exc
        with fh:  # closing it releases the lock
            yield

    def _next_version(self) -> int:
        return max([self.current_version() or 0, *self.versions()]) + 1

    def _activate(self, version: int) -> None:
        """Atomically repoint CURRENT at ``version``. A fault is a
        ``SnapshotError`` naming the pointer, which stays as it was."""
        pointer = self.root / POINTER_NAME
        tmp = self.root / f"{POINTER_NAME}.tmp"
        try:
            tmp.write_text(f"{version}\n", encoding="utf-8")
            os.replace(tmp, pointer)
        except OSError as exc:
            raise SnapshotError(f"cannot point {pointer} at version {version}: {exc}") from exc

    def _write_all(self, target: Path, version: int, blocks: dict[str, Iterable[bytes | array]], **fields: object) -> None:
        """Each data file from its ``blocks``, hashed on the way out, then meta.json naming ``version``."""
        sha256 = {}
        for name, parts in blocks.items():
            digest = hashlib.sha256()
            with open(target / name, "wb") as fh:
                for block in parts:
                    digest.update(block)
                    fh.write(block)
            sha256[name] = digest.hexdigest()
        header = {"kind": self.kind, "version": version, "format_version": self.format_version, "sha256": sha256}
        (target / "meta.json").write_text(json.dumps({**header, **fields}, sort_keys=True, indent=0), encoding="utf-8")

    def _write_files(self, target: Path, index: T, version: int) -> None:
        raise NotImplementedError

    def _read_files(self, target: Path, meta: dict) -> T:
        raise NotImplementedError


class CorpusSnapshotStore(SnapshotStore[CorpusIndex]):
    """Corpus snapshots in format 4: ``terms.json``, the sorted term list;
    ``documents.json``, one ``[id, label, classes]`` row per document; and
    ``postings.bin``, the arrays of ``POSTINGS`` back to back, in the byte
    order and item sizes that ``meta.json`` records with the counts."""

    kind = "corpus"
    files = ("terms.json", "documents.json", "postings.bin")
    format_version, republish = 4, "republish the corpus with `solguard kb update --corpus <file>`"
    meta = Record({
        **_META, "byteorder": one_of(("little", "big")), "itemsize": mapping(),
        "terms": whole(0), "postings": whole(0), "documents": whole(0),
    })

    def _write_files(self, target: Path, index: CorpusIndex, version: int) -> None:
        rows = list(zip(index.ids, index.labels, index.classes))  # tuples write as JSON arrays
        blocks = {
            "postings.bin": (index.idf, index.offsets, index.positions, index.weights, index.norms, index.common_norms),
            "terms.json": [json.dumps(list(index.term_ids)).encode("utf-8")],
            "documents.json": [json.dumps(rows).encode("utf-8")],
        }
        counts = {"terms": len(index.term_ids), "postings": len(index.positions), "documents": len(index.ids)}
        self._write_all(target, version, blocks, byteorder=sys.byteorder, itemsize=ITEMSIZE, **counts)

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
        lengths = (n_terms, n_terms + 1, n_postings, n_postings, n_documents, n_documents)
        with open(path, "rb") as fh:
            size, expected = os.fstat(fh.fileno()).st_size, sum(map(mul, ITEMSIZE.values(), lengths))
            if size != expected:
                raise _corrupt(path, f"it holds {size} bytes, but the counts in meta.json make {expected}")
            for values, length in zip(arrays.values(), lengths):
                values.fromfile(fh, length)
        return CorpusIndex(
            ids, labels, tuple(map(tuple, classes)), term_ids=term_ids, snapshot_version=meta["version"], **arrays
        )


class KbSnapshotStore(SnapshotStore[KbIndex]):
    """KB snapshots in format 4: ``chunks.jsonl``, one :data:`CHUNK` line per
    chunk, with its document's ``swc_tags``. A load indexes the chunks' texts
    by TF-IDF over their :func:`~solguard.retrieval.terms.words`, and their
    tags, as a build does, so the loaded index ranks as the published one did."""

    kind = "kb"
    files = ("chunks.jsonl",)
    format_version, republish = 4, "republish the knowledge base with `solguard kb update --docs <dir>`"
    meta = Record(_META)

    def _write_files(self, target: Path, index: KbIndex, version: int) -> None:
        lines = ((json.dumps(dataclasses.asdict(c), sort_keys=True) + "\n").encode("utf-8") for c in index.chunks)
        self._write_all(target, version, {"chunks.jsonl": lines})

    def _read_files(self, target: Path, meta: dict) -> KbIndex:
        chunks: list = []
        read_jsonl(target / "chunks.jsonl", chunks.append, SnapshotError, CHUNK)
        return KbIndex(tuple(chunks), meta["version"])


CHUNK = Record(
    {"doc_id": string(), "chunk_index": whole(0), "text": string(), "swc_tags": strings()},
    make=lambda swc_tags, **chunk: KbChunk(**chunk, swc_tags=tuple(swc_tags)),
)


def index_stores(root: str | Path) -> tuple[CorpusSnapshotStore, KbSnapshotStore]:
    """The corpus and KB stores of an index root, each in the directory its kind names."""
    root = Path(root)
    return CorpusSnapshotStore(root / CorpusSnapshotStore.kind), KbSnapshotStore(root / KbSnapshotStore.kind)


def _sha256(path: Path) -> str:
    """The hex sha256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


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
