"""Vulnerability knowledge base: chunked documents with dense embeddings.

Documents are split into overlapping windows of whitespace tokens and
embedded. The default embedder is a deterministic feature-hashing
bag-of-words model so tests and offline runs need no external service;
remote embedders can be plugged in through the same interface.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

import yaml

from solguard.errors import DatasetError, SolguardError

CHUNK_TOKENS = 512
CHUNK_OVERLAP = 64

_WORD_RE = re.compile(r"[a-z0-9]+")


class Embedder(Protocol):
    """Anything that can map text to a fixed-dimension dense vector."""

    @property
    def embedder_id(self) -> str: ...

    @property
    def dim(self) -> int: ...

    def embed(self, text: str) -> list[float]: ...


@dataclass(frozen=True)
class HashingEmbedder:
    """Feature-hashing bag-of-words embedder; deterministic across platforms."""

    dim: int = 256

    @property
    def embedder_id(self) -> str:
        return f"hash-bow-{self.dim}-v1"

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        for word in _WORD_RE.findall(text.lower()):
            digest = hashlib.md5(word.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "big") % self.dim] += 1.0
        norm = math.sqrt(sum(x * x for x in vec))
        if norm > 0:
            vec = [x / norm for x in vec]
        return vec


def get_embedder(embedder_id: str) -> Embedder:
    """The embedder a snapshot's ``embedder`` id names."""
    m = re.fullmatch(r"hash-bow-([1-9]\d*)-v1", embedder_id)
    if m:
        return HashingEmbedder(int(m.group(1)))
    raise SolguardError(f"unknown embedder {embedder_id!r}")


@dataclass(frozen=True)
class KbDocument:
    doc_id: str
    text: str
    metadata: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class KbChunk:
    doc_id: str
    chunk_index: int
    text: str
    metadata: dict[str, object]
    embedding: tuple[float, ...]


@dataclass(frozen=True)
class KbIndex:
    """Embedded chunks and the embedder that made them, which also embeds
    every query; each chunk has exactly ``embedder.dim`` numbers."""

    chunks: tuple[KbChunk, ...]
    embedder: Embedder
    snapshot_version: int = 0

    def __post_init__(self) -> None:
        for c in self.chunks:
            if len(c.embedding) != self.embedder.dim:
                raise SolguardError(
                    f"chunk {c.doc_id}#{c.chunk_index} has embedding dimension {len(c.embedding)}, "
                    f"embedder {self.embedder.embedder_id} gives {self.embedder.dim}"
                )


def chunk_spans(n_tokens: int, size: int = CHUNK_TOKENS, overlap: int = CHUNK_OVERLAP) -> list[tuple[int, int]]:
    """Token-index windows [start, end) covering ``n_tokens`` with overlap."""
    if n_tokens <= 0:
        return []
    spans: list[tuple[int, int]] = []
    stride = size - overlap
    start = 0
    while True:
        end = min(start + size, n_tokens)
        spans.append((start, end))
        if end == n_tokens:
            return spans
        start += stride


def split_chunks(doc: KbDocument) -> list[tuple[int, str]]:
    tokens = doc.text.split()
    return [(i, " ".join(tokens[s:e])) for i, (s, e) in enumerate(chunk_spans(len(tokens)))]


def build_kb_index(
    docs: Iterable[KbDocument], embedder: Embedder, snapshot_version: int = 0
) -> KbIndex:
    """Chunk and embed every document; any embedder failure aborts the build."""
    chunks: list[KbChunk] = []
    for doc in docs:
        for chunk_index, text in split_chunks(doc):
            chunks.append(KbChunk(doc.doc_id, chunk_index, text, dict(doc.metadata), tuple(embedder.embed(text))))
    return KbIndex(tuple(chunks), embedder, snapshot_version)


def _dense_cosine(a: tuple[float, ...] | list[float], b: tuple[float, ...] | list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def kb_search(query: str, index: KbIndex, k: int) -> list[KbChunk]:
    """Top-k chunks by cosine similarity to the query as the index's
    embedder embeds it; ties break on (doc id, chunk index)."""
    qvec = index.embedder.embed(query)
    scored = sorted(
        ((chunk, _dense_cosine(qvec, chunk.embedding)) for chunk in index.chunks),
        key=lambda pair: (-pair[1], pair[0].doc_id, pair[0].chunk_index),
    )
    return [chunk for chunk, _ in scored[:k]]


def load_kb_documents(directory: str | Path) -> list[KbDocument]:
    """Read knowledge documents from a directory of text/markdown files.

    Each file may start with a YAML preamble fenced by ``---`` lines carrying
    metadata (source, swc_tags); the remainder is the document body.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DatasetError(f"knowledge base source {root} is not a directory")
    docs: list[KbDocument] = []
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".md", ".txt"):
            continue
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DatasetError(f"{path}: cannot read knowledge document: {exc}") from exc
        metadata: dict[str, object] = {}
        body = raw
        if raw.startswith("---\n"):
            closing = raw.find("\n---\n", 4)
            if closing == -1:
                raise DatasetError(f"{path}: unterminated metadata preamble")
            try:
                loaded = yaml.safe_load(raw[4:closing])
            except yaml.YAMLError as exc:
                raise DatasetError(f"{path}: bad metadata preamble: {exc}") from exc
            if not isinstance(loaded, dict):
                raise DatasetError(f"{path}: metadata preamble must be a mapping")
            metadata = loaded
            body = raw[closing + 5 :]
        docs.append(KbDocument(doc_id=path.stem, text=body.strip(), metadata=metadata))
    return docs
