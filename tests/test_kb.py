from __future__ import annotations

import math

import pytest

from solguard.errors import DatasetError, SolguardError
from solguard.retrieval.kb import (
    HashingEmbedder,
    KbChunk,
    KbDocument,
    KbIndex,
    build_kb_index,
    chunk_spans,
    get_embedder,
    kb_search,
    load_kb_documents,
    split_chunks,
)


def words(n: int, prefix: str = "w") -> str:
    return " ".join(f"{prefix}{i}" for i in range(n))


class TestChunking:
    def test_short_document_single_chunk(self):
        assert chunk_spans(100) == [(0, 100)]

    def test_thousand_tokens_three_chunks(self):
        assert chunk_spans(1000) == [(0, 512), (448, 960), (896, 1000)]

    def test_exact_window_single_chunk(self):
        assert chunk_spans(512) == [(0, 512)]

    def test_empty(self):
        assert chunk_spans(0) == []

    def test_overlap_is_64_tokens(self):
        spans = chunk_spans(2000)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 - s2 == 64

    def test_split_chunks_reconstructs_token_windows(self):
        doc = KbDocument("d", words(1000))
        chunks = split_chunks(doc)
        tokens = doc.text.split()
        assert [c[0] for c in chunks] == [0, 1, 2]
        assert chunks[1][1] == " ".join(tokens[448:960])


class TestEmbedder:
    def test_dimension_and_determinism(self):
        emb = HashingEmbedder(dim=256)
        v1 = emb.embed("reentrancy guard for withdraw")
        v2 = emb.embed("reentrancy guard for withdraw")
        assert len(v1) == 256
        assert v1 == v2

    def test_unit_norm_for_non_empty_text(self):
        v = HashingEmbedder().embed("some words here")
        assert math.sqrt(sum(x * x for x in v)) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        assert all(x == 0.0 for x in HashingEmbedder().embed(""))

    def test_registry_round_trip(self):
        emb = HashingEmbedder(dim=64)
        resolved = get_embedder(emb.embedder_id)
        assert resolved.dim == 64
        with pytest.raises(SolguardError):
            get_embedder("unheard-of-embedder")


class TestBuildIndex:
    def test_empty_doc_set(self):
        index = build_kb_index([], HashingEmbedder())
        assert index.chunks == ()

    def test_chunks_carry_metadata_and_embeddings(self):
        docs = [KbDocument("d1", words(1000), {"source": "registry"})]
        index = build_kb_index(docs, HashingEmbedder())
        assert len(index.chunks) == 3
        assert all(c.metadata == {"source": "registry"} for c in index.chunks)
        assert all(len(c.embedding) == 256 for c in index.chunks)

    def test_embedder_failure_aborts_build(self):
        class Exploding:
            embedder_id = "boom-v1"
            dim = 4

            def embed(self, text: str):
                raise SolguardError("remote embedder unavailable")

        with pytest.raises(SolguardError, match="unavailable"):
            build_kb_index([KbDocument("d", "text")], Exploding())

    def test_mixed_dimensions_rejected(self):
        c1 = KbChunk("a", 0, "t", {}, (1.0, 0.0))
        c2 = KbChunk("b", 0, "t", {}, (1.0, 0.0, 0.0))
        with pytest.raises(SolguardError, match="b#0 has embedding dimension 3"):
            KbIndex(chunks=(c1, c2), embedder=HashingEmbedder(dim=2))

    def test_embedder_of_the_wrong_dimension_aborts_build(self):
        class Short:
            embedder_id = "short-v1"
            dim = 4

            def embed(self, text: str):
                return [1.0, 0.0]

        with pytest.raises(SolguardError, match="dimension 2, embedder short-v1 gives 4"):
            build_kb_index([KbDocument("d", "text")], Short())


class TestSearch:
    def _index(self, texts: dict[str, str]) -> KbIndex:
        docs = [KbDocument(doc_id, text) for doc_id, text in sorted(texts.items())]
        return build_kb_index(docs, HashingEmbedder())

    def test_identical_text_ranks_first(self):
        index = self._index(
            {
                "re": "reentrancy attack drains funds through repeated callbacks",
                "ts": "timestamp manipulation by miners skews lottery outcomes",
                "tx": "tx origin phishing bypasses authentication checks",
            }
        )
        hits = kb_search("timestamp manipulation by miners skews lottery outcomes", index, k=2)
        assert hits[0].doc_id == "ts"

    def test_k_larger_than_chunk_count_returns_all(self):
        index = self._index({"a": "alpha text", "b": "beta text"})
        assert len(kb_search("alpha", index, k=50)) == 2

    def test_twenty_chunk_ordering_matches_brute_force(self):
        texts = {f"doc{i:02d}": words(30, prefix=f"t{i}x") + " shared token" for i in range(20)}
        index = self._index(texts)
        assert len(index.chunks) == 20
        emb = HashingEmbedder()
        query = "shared token t07x1 t07x2"
        qvec = emb.embed(query)

        def dense_cos(a, b):
            dot = sum(x * y for x, y in zip(a, b))
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            return dot / (na * nb) if na and nb else 0.0

        expected = sorted(
            index.chunks,
            key=lambda c: (-dense_cos(qvec, c.embedding), c.doc_id, c.chunk_index),
        )
        got = kb_search(query, index, k=20)
        assert [(c.doc_id, c.chunk_index) for c in got] == [
            (c.doc_id, c.chunk_index) for c in expected
        ]

    def test_dimension_mismatch_rejected(self):
        # queries are embedded by the index's own embedder, so an index whose
        # embedder disagrees with its chunks must not exist
        index = self._index({"a": "alpha"})
        with pytest.raises(SolguardError, match="dimension"):
            KbIndex(index.chunks, HashingEmbedder(dim=16))

    def test_custom_embedder_builds_and_searches_in_process(self):
        class Letters:
            embedder_id = "letters-v1"
            dim = 2

            def embed(self, text: str):
                return [text.count("a") + 0.0, text.count("b") + 0.0]

        docs = [KbDocument("as", "aaa a"), KbDocument("bs", "bbb b")]
        index = build_kb_index(docs, Letters())
        assert [c.doc_id for c in kb_search("b b", index, k=2)] == ["bs", "as"]

    def test_empty_index(self):
        index = KbIndex(chunks=(), embedder=HashingEmbedder())
        assert kb_search("anything", index, k=3) == []


class TestDocumentLoading:
    def test_metadata_preamble_parsed(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "---\nsource: SWC registry\nswc_tags: [SWC-107]\n---\nBody text here.\n",
            encoding="utf-8",
        )
        docs = load_kb_documents(tmp_path)
        assert docs[0].metadata == {"source": "SWC registry", "swc_tags": ["SWC-107"]}
        assert docs[0].text == "Body text here."

    def test_document_without_preamble(self, tmp_path):
        (tmp_path / "plain.txt").write_text("Just words.", encoding="utf-8")
        docs = load_kb_documents(tmp_path)
        assert docs[0].metadata == {}
        assert docs[0].text == "Just words."

    def test_unterminated_preamble_rejected(self, tmp_path):
        (tmp_path / "bad.md").write_text("---\nsource: x\nno closing fence", encoding="utf-8")
        with pytest.raises(DatasetError, match="unterminated"):
            load_kb_documents(tmp_path)

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_kb_documents(tmp_path / "missing")

    def test_shipped_kb_docs_load(self, fixtures_dir):
        docs = load_kb_documents(fixtures_dir / "kb_docs")
        assert len(docs) == 6
        assert all(d.metadata.get("swc_tags") for d in docs)


def test_non_mapping_preamble_rejected(tmp_path):
    (tmp_path / "odd.md").write_text("---\n- just\n- a list\n---\nbody", encoding="utf-8")
    with pytest.raises(DatasetError, match="mapping"):
        load_kb_documents(tmp_path)
