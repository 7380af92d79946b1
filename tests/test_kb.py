from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.pipeline import run_pipeline
from solguard.agents.remediate import build_advisor_prompt, build_assessor_prompt
from solguard.errors import DatasetError
from solguard.llm.prompts import NO_REFERENCES_NOTE
from solguard.retrieval.kb import (
    CHUNK_OVERLAP,
    CHUNK_TOKENS,
    KbChunk,
    KbDocument,
    KbIndex,
    build_kb_index,
    chunk_spans,
    kb_search,
    load_kb_documents,
    split_chunks,
)
from solguard.retrieval.terms import words as split_words
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file, scan
from conftest import write_bytes_named
import presign_fixture

SHIPPED = build_kb_index(load_kb_documents(presign_fixture.FIXTURES / "kb_docs"))


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


class TestWords:
    # non-ASCII letters (two of whose lowercase forms hold an ASCII letter:
    # "İ" an "i", the Kelvin sign a "k"), "ß", a CJK letter, a lone surrogate,
    # and separators that str.split() splits on but that are not [a-z0-9]
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("aZ9_ -\t\n\x1c\x1f\x85\u2028éİ\u212aß日\ud800"))))
    def test_words_are_the_regex_ones(self, text):
        # the word splitter replaced re.findall(r"[a-z0-9]+", text.lower())
        assert split_words(text) == re.findall(r"[a-z0-9]+", text.lower())


class TestBuildIndex:
    def test_empty_doc_set(self):
        index = build_kb_index([])
        assert index.chunks == () and index.tfidf is None

    def test_chunks_are_indexed_by_their_words_under_their_document_ids(self):
        docs = [KbDocument("d1", words(1000)), KbDocument("d2", "contract's owner")]
        index = build_kb_index(docs)
        assert [(c.doc_id, c.chunk_index) for c in index.chunks] == [("d1", 0), ("d1", 1), ("d1", 2), ("d2", 0)]
        assert index.tfidf.ids == ("d1", "d1", "d1", "d2")
        # the words after an apostrophe count: no string literal is stripped
        assert {"contract", "s", "owner"} <= set(index.tfidf.term_ids)

    def test_build_assigns_no_snapshot_version(self):
        # only a snapshot store's publish or load sets the version
        assert build_kb_index([KbDocument("d", "alpha beta")]).snapshot_version == 0


def oracle(query: str, chunks: tuple[KbChunk, ...], k: int) -> list[tuple[str, int]]:
    """The chunks ``kb_search`` must return, by the corpus's weighting written
    out: tf = count / term count, idf = ln((1+N)/(1+df)) + 1 over the chunks,
    cosine of the tf * idf vectors; chunks that score 0 dropped, ties broken
    on (doc id, chunk index)."""
    counts = [Counter(split_words(c.text)) for c in chunks]
    df = Counter(term for count in counts for term in count)
    idf = {term: math.log((1 + len(chunks)) / (1 + n)) + 1 for term, n in df.items()}

    def weights(count: Counter) -> dict[str, float]:
        total = sum(count.values())
        return {term: n / total * idf[term] for term, n in count.items() if term in idf}

    def cosine(a: dict[str, float], b: dict[str, float]) -> float:
        dot = math.fsum(w * b[term] for term, w in a.items() if term in b)
        return dot / math.sqrt(math.fsum(w * w for w in a.values()) * math.fsum(w * w for w in b.values())) if dot else 0.0

    q = weights(Counter(split_words(query)))
    scored = sorted(
        ((cosine(q, weights(count)), c.doc_id, c.chunk_index) for c, count in zip(chunks, counts)),
        key=lambda row: (-row[0], row[1], row[2]),
    )
    return [(doc_id, chunk_index) for sim, doc_id, chunk_index in scored if sim > 0][:k]


def found(chunks: list[KbChunk]) -> list[tuple[str, int]]:
    return [(c.doc_id, c.chunk_index) for c in chunks]


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

    def test_k_larger_than_chunk_count_returns_only_the_chunks_sharing_a_word(self):
        index = self._index({"a": "alpha text", "b": "beta text"})
        assert found(kb_search("alpha", index, k=50)) == [("a", 0)]
        assert found(kb_search("text", index, k=50)) == [("a", 0), ("b", 0)]
        assert kb_search("gamma", index, k=50) == []

    def test_twenty_chunk_ordering_matches_brute_force(self):
        texts = {f"doc{i:02d}": words(30, prefix=f"t{i}x") + " shared token" for i in range(20)}
        index = self._index(texts)
        assert len(index.chunks) == 20
        query = "shared token t7x1 t7x2"
        expected = oracle(query, index.chunks, 20)
        assert expected[0] == ("doc07", 0) and len(expected) == 20  # the other 19 tie, in doc id order
        assert found(kb_search(query, index, k=20)) == expected
        assert found(kb_search(query, index, k=5)) == expected[:5]

    def test_query_without_words_gets_no_chunk(self):
        index = self._index({"b": "beta", "a": words(600), "c": "!!!"})
        assert kb_search("?? --", index, k=4) == []

    def test_tied_chunks_keep_chunk_order_past_chunk_nine(self):
        # every chunk of these two documents holds alpha and beta half and half,
        # so all 24 tie; an id like "a#10" would sort chunk 10 before chunk 2
        n = (CHUNK_TOKENS - CHUNK_OVERLAP) * 12
        index = self._index({"b": "alpha beta " * (n // 2), "a": "beta alpha " * (n // 2)})
        assert len(index.chunks) == 24
        assert found(kb_search("alpha", index, k=24)) == [(doc, i) for doc in "ab" for i in range(12)]
        assert found(kb_search("alpha", index, k=3)) == [("a", 0), ("a", 1), ("a", 2)]

    # words of the shipped documents, with noise: words no chunk holds, and
    # characters that split words or hold none
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(sorted({w for c in SHIPPED.chunks for w in split_words(c.text)})),
                st.sampled_from(["zyzzyva", "0xdeadbeef", "--", "'", "İ", "!!"]),
            ),
            max_size=12,
        ).map(" ".join),
        st.integers(1, 8),
    )
    def test_shipped_chunks_returned_share_a_word_and_rank_as_the_oracle(self, query, k):
        got = kb_search(query, SHIPPED, k)
        assert len(got) <= k
        assert all(set(split_words(c.text)) & set(split_words(query)) for c in got)
        assert found(got) == oracle(query, SHIPPED.chunks, k)

    def test_empty_index(self):
        index = KbIndex(chunks=())
        assert kb_search("anything", index, k=3) == []


# the document of the first chunk that the advisor and the assessor prompt
# cite for each catalog class, found by its rule in the rule's positive
# fixture; None where no chunk shares a word with the query
FIRST_CHUNKS = {
    "Reentrancy": ("reentrancy", "reentrancy"),
    "Integer Overflow/Underflow": ("arithmetic", "arithmetic"),
    "Unprotected Function": ("access_control", "access_control"),  # hashing ranked arithmetic first
    "tx.origin Authentication": ("authentication", "authentication"),
    "Unchecked Low-Level Call": ("external_calls", "external_calls"),
    "Timestamp Dependence": ("randomness_time", "randomness_time"),
    "Unprotected Selfdestruct": ("authentication", None),
    "Delegatecall to Untrusted Callee": ("external_calls", "external_calls"),
}
NOTES_RE = re.compile(rf"Reference notes:\n(?:\[([^#\]]+)#\d+\] |{re.escape(NO_REFERENCES_NOTE)}\n)")


def first_note(prompt: str) -> str | None:
    return NOTES_RE.search(prompt).group(1)


def test_each_catalog_class_cites_its_first_chunk(fixtures_dir):
    manifest = json.loads((fixtures_dir / "rules" / "manifest.json").read_text(encoding="utf-8"))
    cited = {}
    for rule in default_ruleset():
        (name,) = [n for n, entry in manifest.items() if n.endswith("_pos.sol") and entry["findings"][0][0] == rule.rule_id]
        contract = load_file(fixtures_dir / "rules" / name)
        (finding,) = scan(contract, [rule])
        cited[rule.vuln_class.name] = (
            first_note(build_advisor_prompt(contract, finding, SHIPPED)),
            first_note(build_assessor_prompt(contract, finding, None, SHIPPED)),
        )
    assert cited == FIRST_CHUNKS


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
