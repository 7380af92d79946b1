"""Contract-similarity retrieval and the vulnerability knowledge base."""

from solguard.retrieval.kb import (
    Embedder,
    HashingEmbedder,
    KbChunk,
    KbDocument,
    KbIndex,
    build_kb_index,
    chunk_spans,
    get_embedder,
    kb_search,
    load_kb_documents,
)
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore, SnapshotStore
from solguard.retrieval.terms import tokenize_for_tfidf
from solguard.retrieval.tfidf import (
    CorpusDocument,
    CorpusIndex,
    Neighbor,
    build_corpus_index,
    load_corpus_file,
    rank_weighted_probability,
    rank_weights,
    retrieval_channel,
    top_k,
)

__all__ = [
    "CorpusDocument",
    "CorpusIndex",
    "CorpusSnapshotStore",
    "Embedder",
    "HashingEmbedder",
    "KbChunk",
    "KbDocument",
    "KbIndex",
    "KbSnapshotStore",
    "Neighbor",
    "SnapshotStore",
    "build_corpus_index",
    "build_kb_index",
    "chunk_spans",
    "get_embedder",
    "kb_search",
    "load_corpus_file",
    "load_kb_documents",
    "rank_weighted_probability",
    "rank_weights",
    "retrieval_channel",
    "tokenize_for_tfidf",
    "top_k",
]
