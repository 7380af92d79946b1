"""Vulnerability knowledge base: chunked documents with dense embeddings.

Documents are split into overlapping windows of whitespace tokens, and
every chunk and every query is embedded by :func:`embed`, a deterministic
feature-hashing bag-of-words model, so runs need no external service.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from solguard.core import ordered_sum
from solguard.errors import DatasetError
from solguard.jsonl import file_id, read_text, read_yaml
from solguard.retrieval.terms import words

CHUNK_TOKENS = 512
CHUNK_OVERLAP = 64
EMBEDDING_DIM = 256


def embed(text: str) -> list[float]:
    """The L2-normalized counts of ``text``'s :func:`~solguard.retrieval.terms.words`
    hashed into ``EMBEDDING_DIM`` buckets; the same numbers on every platform."""
    vec = [0.0] * EMBEDDING_DIM
    for word in words(text):
        digest = hashlib.md5(word.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % EMBEDDING_DIM] += 1.0
    norm = math.sqrt(ordered_sum(x * x for x in vec))
    if norm > 0:
        vec = [x / norm for x in vec]
    return vec


@dataclass(frozen=True)
class KbDocument:
    doc_id: str
    text: str


@dataclass(frozen=True)
class KbChunk:
    doc_id: str
    chunk_index: int
    text: str
    embedding: tuple[float, ...]


def embedded_chunk(doc_id: str, chunk_index: int, text: str) -> KbChunk:
    """A chunk with its text's :func:`embed` vector, as a build makes it and a snapshot load remakes it."""
    return KbChunk(doc_id, chunk_index, text, tuple(embed(text)))


@dataclass(frozen=True)
class KbIndex:
    """Embedded chunks, each of ``EMBEDDING_DIM`` numbers; a snapshot store's
    publish or load sets the version."""

    chunks: tuple[KbChunk, ...]
    snapshot_version: int = 0


def chunk_spans(n_tokens: int) -> list[tuple[int, int]]:
    """Token-index windows [start, end) of up to ``CHUNK_TOKENS`` covering
    ``n_tokens``, each overlapping the one before by ``CHUNK_OVERLAP``; the
    last is the first to reach the end."""
    if n_tokens <= 0:
        return []
    starts = range(0, max(n_tokens - CHUNK_OVERLAP, 1), CHUNK_TOKENS - CHUNK_OVERLAP)
    return [(start, min(start + CHUNK_TOKENS, n_tokens)) for start in starts]


def split_chunks(doc: KbDocument) -> list[tuple[int, str]]:
    tokens = doc.text.split()
    return [(i, " ".join(tokens[s:e])) for i, (s, e) in enumerate(chunk_spans(len(tokens)))]


def build_kb_index(docs: Iterable[KbDocument]) -> KbIndex:
    """Chunk and embed every document."""
    return KbIndex(tuple(embedded_chunk(doc.doc_id, i, text) for doc in docs for i, text in split_chunks(doc)))


def _dense_cosine(a: tuple[float, ...] | list[float], b: tuple[float, ...] | list[float]) -> float:
    dot = ordered_sum(x * y for x, y in zip(a, b))
    na = math.sqrt(ordered_sum(x * x for x in a))
    nb = math.sqrt(ordered_sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def kb_search(query: str, index: KbIndex, k: int) -> list[KbChunk]:
    """Top-k chunks by cosine similarity to the embedded query; ties break
    on (doc id, chunk index)."""
    qvec = embed(query)
    scored = sorted(
        ((chunk, _dense_cosine(qvec, chunk.embedding)) for chunk in index.chunks),
        key=lambda pair: (-pair[1], pair[0].doc_id, pair[0].chunk_index),
    )
    return [chunk for chunk, _ in scored[:k]]


def load_kb_documents(directory: str | Path) -> list[KbDocument]:
    """Read knowledge documents from a directory of text/markdown files.

    Each file may start with a YAML preamble fenced by ``---`` lines, which
    must be a mapping and is not read further; the remainder is the
    document body. A document's id is its name's :func:`~solguard.jsonl.file_id`; no id may repeat.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DatasetError(f"knowledge base source {root} is not a directory")
    docs: list[KbDocument] = []
    paths: dict[str, Path] = {}  # document id -> its file
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".md", ".txt"):
            continue
        doc_id = file_id(path)
        if doc_id in paths:
            raise DatasetError(f"{paths[doc_id]} and {path}: duplicate document id {doc_id!r}")
        paths[doc_id] = path
        body = read_text(path, DatasetError, "knowledge document")
        if body.startswith("---\n"):
            closing = body.find("\n---\n", 4)
            if closing == -1:
                raise DatasetError(f"{path}: unterminated metadata preamble")
            if not isinstance(read_yaml(body[4:closing], DatasetError, f"{path}: bad metadata preamble"), dict):
                raise DatasetError(f"{path}: metadata preamble must be a mapping")
            body = body[closing + 5 :]
        docs.append(KbDocument(doc_id=doc_id, text=body.strip()))
    return docs
