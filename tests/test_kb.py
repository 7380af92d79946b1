from __future__ import annotations

import dataclasses
import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.pipeline import run_pipeline
from solguard.errors import DatasetError
from solguard.retrieval.kb import (
    CHUNK_OVERLAP,
    CHUNK_TOKENS,
    KbDocument,
    KbIndex,
    build_kb_index,
    chunk_spans,
    embed,
    kb_search,
    load_kb_documents,
    split_chunks,
)
from solguard.retrieval.terms import words as split_words
from solguard.static_analysis.scanner import load_file
from conftest import write_bytes_named
import presign_fixture


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

    def test_windows_of_every_length_to_3000(self):
        assert chunk_spans(0) == []
        for n in range(1, 3001):
            spans = chunk_spans(n)
            assert spans[0][0] == 0 and spans[-1][1] == n, n
            assert all(end - start <= CHUNK_TOKENS for start, end in spans), n
            assert all(end - next_start == CHUNK_OVERLAP for (_, end), (next_start, _) in zip(spans, spans[1:])), n
            assert all(end < n for _, end in spans[:-1]), n

    def test_split_chunks_reconstructs_token_windows(self):
        doc = KbDocument("d", words(1000))
        chunks = split_chunks(doc)
        tokens = doc.text.split()
        assert [c[0] for c in chunks] == [0, 1, 2]
        assert chunks[1][1] == " ".join(tokens[448:960])


class TestEmbedder:
    def test_dimension_and_determinism(self):
        v1 = embed("reentrancy guard for withdraw")
        v2 = embed("reentrancy guard for withdraw")
        assert len(v1) == 256
        assert v1 == v2

    def test_unit_norm_for_non_empty_text(self):
        v = embed("some words here")
        assert math.sqrt(sum(x * x for x in v)) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        assert all(x == 0.0 for x in embed(""))

    # non-ASCII letters (two of whose lowercase forms hold an ASCII letter:
    # "İ" an "i", the Kelvin sign a "k"), "ß", a CJK letter, a lone surrogate,
    # and separators that str.split() splits on but that are not [a-z0-9]
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("aZ9_ -\t\n\x1c\x1f\x85\u2028éİ\u212aß日\ud800"))))
    def test_words_and_embedding_are_the_regex_ones(self, text):
        # the word splitter replaced re.findall(r"[a-z0-9]+", text.lower()),
        # so every embedding keeps its bits
        found = re.findall(r"[a-z0-9]+", text.lower())
        assert split_words(text) == found
        vec = [0.0] * 256
        for word in found:
            vec[int.from_bytes(hashlib.md5(word.encode("utf-8")).digest()[:4], "big") % 256] += 1.0
        norm = math.sqrt(math.fsum(x * x for x in vec))
        assert [x.hex() for x in embed(text)] == [(x / norm if norm else x).hex() for x in vec]


class TestBuildIndex:
    def test_empty_doc_set(self):
        index = build_kb_index([])
        assert index.chunks == ()

    def test_chunks_carry_their_text_embedded(self):
        docs = [KbDocument("d1", words(1000))]
        index = build_kb_index(docs)
        assert len(index.chunks) == 3
        assert all(c.embedding == tuple(embed(c.text)) for c in index.chunks)
        assert all(len(c.embedding) == 256 for c in index.chunks)

    def test_build_assigns_no_snapshot_version(self):
        # only a snapshot store's publish or load sets the version
        assert build_kb_index([KbDocument("d", "alpha beta")]).snapshot_version == 0


class TestSearch:
    def _index(self, texts: dict[str, str]) -> KbIndex:
        docs = [KbDocument(doc_id, text) for doc_id, text in sorted(texts.items())]
        return build_kb_index(docs)

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
        query = "shared token t07x1 t07x2"
        qvec = embed(query)

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

    def test_query_without_words_ties_break_on_doc_id(self):
        # a query of no words embeds to zeros and scores 0 against every chunk
        index = self._index({"b": "beta", "a": words(600), "c": "!!!"})
        got = kb_search("?? --", index, k=4)
        assert [(c.doc_id, c.chunk_index) for c in got] == [("a", 0), ("a", 1), ("b", 0), ("c", 0)]

    def test_empty_index(self):
        index = KbIndex(chunks=())
        assert kb_search("anything", index, k=3) == []


class TestDocumentLoading:
    def test_metadata_preamble_stripped_from_the_body(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "---\nsource: SWC registry\nswc_tags: [SWC-107]\n---\nBody text here.\n",
            encoding="utf-8",
        )
        docs = load_kb_documents(tmp_path)
        assert docs == [KbDocument("doc", "Body text here.")]

    def test_document_without_preamble(self, tmp_path):
        (tmp_path / "plain.txt").write_text("Just words.", encoding="utf-8")
        docs = load_kb_documents(tmp_path)
        assert docs == [KbDocument("plain", "Just words.")]

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
        # every shipped document has a preamble, and none of it reaches the body
        assert all(not d.text.startswith("---") and "swc_tags" not in d.text for d in docs)


def test_non_mapping_preamble_rejected(tmp_path):
    (tmp_path / "odd.md").write_text("---\n- just\n- a list\n---\nbody", encoding="utf-8")
    with pytest.raises(DatasetError, match="mapping"):
        load_kb_documents(tmp_path)


def test_file_name_that_is_not_utf8_gives_a_text_id(tmp_path, fixtures_dir):
    # the byte \xff of the name is written as the four characters \xff; as a
    # surrogate, the id failed every advisor and assessor prompt that cited it
    write_bytes_named(tmp_path, b"x\xff.md", (fixtures_dir / "kb_docs" / "reentrancy.md").read_bytes())
    docs = load_kb_documents(tmp_path)
    assert [d.doc_id for d in docs] == ["x\\xff"]
    ctx, recorders = presign_fixture.recording_context()
    ctx = dataclasses.replace(ctx, kb_index=build_kb_index(docs))
    run = run_pipeline(load_file(fixtures_dir / "presign.sol", "presign"), ctx)
    assert run.errors == {}
    assert len(recorders["advisor"].entries) == len(recorders["assessor"].entries) == len(run.findings) > 0
