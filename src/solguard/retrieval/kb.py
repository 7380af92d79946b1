"""Vulnerability knowledge base: chunked documents ranked by TF-IDF.

Documents are split into overlapping windows of whitespace tokens. The
chunks are indexed by the corpus's TF-IDF (:mod:`solguard.retrieval.tfidf`)
over their :func:`~solguard.retrieval.terms.words`, and a query is weighed
by the same words, so runs need no external service. Each chunk carries
its document's ``swc_tags``. A search for an SWC id returns the chunks
tagged with it first, whatever they score; any other chunk that shares no
word with the query scores 0 and is never returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from solguard.errors import DatasetError
from solguard.jsonl import file_id, read_text, read_yaml
from solguard.records import ABSENT, Record, texts
from solguard.retrieval.terms import words
from solguard.retrieval.tfidf import CorpusIndex, build_corpus_index, rank

CHUNK_TOKENS = 512
CHUNK_OVERLAP = 64
PREAMBLE = Record({"swc_tags": texts([])})  # the one preamble key retrieval reads


@dataclass(frozen=True)
class KbDocument:
    doc_id: str
    text: str
    swc_tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class KbChunk:
    doc_id: str
    chunk_index: int
    text: str
    swc_tags: tuple[str, ...] = ()  # its document's


@dataclass(frozen=True)
class KbIndex:
    """Chunks and the one lookup built from them by a build and by a
    snapshot load, never by a query: ``tfidf``, their TF-IDF index (``None``
    without chunks), which names each chunk by its document id at the
    chunk's position. A snapshot load sets the version."""

    chunks: tuple[KbChunk, ...]
    snapshot_version: int = 0
    tfidf: CorpusIndex | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = [(c.doc_id, "", (), c.text) for c in self.chunks]
        tfidf = build_corpus_index(rows, words, "knowledge-base chunk of document") if rows else None
        object.__setattr__(self, "tfidf", tfidf)


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
    """Chunk and index every document."""
    return KbIndex(tuple(
        KbChunk(doc.doc_id, i, text, doc.swc_tags) for doc in docs for i, text in split_chunks(doc)
    ))


def kb_search(query: str, index: KbIndex, k: int, swc_id: str | None = None) -> list[KbChunk]:
    """At most k chunks: first those whose document is tagged ``swc_id``,
    whatever they score, then those that share a word with the query; each
    group by TF-IDF cosine similarity descending, ties broken on (doc id,
    chunk index)."""
    if index.tfidf is None:
        return []
    tagged = {p for p, chunk in enumerate(index.chunks) if swc_id in chunk.swc_tags}
    ranked = rank(index.tfidf, words(query), len(index.chunks) if tagged else k)
    cited = [p for p, sim in ranked if p in tagged or sim > 0.0]
    return [index.chunks[p] for p in sorted(cited, key=lambda p: p not in tagged)[:k]]


def load_kb_documents(directory: str | Path) -> list[KbDocument]:
    """Read knowledge documents from a directory of text/markdown files.

    Each file may start with a YAML preamble fenced by ``---`` lines, which
    must be a mapping; of its keys only ``swc_tags``, a list of strings, is
    read. The remainder is the document body, which must hold text. A
    document's id is its name's :func:`~solguard.jsonl.file_id`; no id may
    repeat, and the directory must hold a document.
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
        tags: list[str] = []
        if body.startswith("---\n"):
            closing = body.find("\n---\n", 4)
            if closing == -1:
                raise DatasetError(f"{path}: unterminated metadata preamble")
            preamble = read_yaml(body[4:closing], DatasetError, f"{path}: bad metadata preamble")
            if not isinstance(preamble, dict):
                raise DatasetError(f"{path}: metadata preamble must be a mapping")
            tags = PREAMBLE.value(
                "swc_tags", preamble.get("swc_tags", ABSENT), DatasetError, str(path), "metadata preamble"
            )
            body = body[closing + 5 :]
        if not body.strip():
            raise DatasetError(f"{path}: knowledge document holds no text")
        docs.append(KbDocument(doc_id=doc_id, text=body.strip(), swc_tags=tuple(tags)))
    if not docs:
        raise DatasetError(f"knowledge base source {root} holds no .md or .txt document")
    return docs
