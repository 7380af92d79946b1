from __future__ import annotations

import dataclasses
import json
import logging
import math
import re
from collections import Counter

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.agents.detect import NOTES_PER_PROMPT, build_detection_prompt
from solguard.agents.pipeline import run_pipeline
from solguard.agents.remediate import build_advisor_prompt, build_assessor_prompt
from solguard.core import Channel, Finding, Location, VulnerabilityClass
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
from solguard.static_analysis.scanner import load_file, load_source, scan
from conftest import write_bytes_named
import presign_fixture

SHIPPED = build_kb_index(load_kb_documents(presign_fixture.FIXTURES / "kb_docs"))
# each shipped document's swc_tags, read from its preamble here
SHIPPED_TAGS = {
    path.stem: yaml.safe_load(path.read_text(encoding="utf-8").split("---\n")[1])["swc_tags"]
    for path in sorted((presign_fixture.FIXTURES / "kb_docs").glob("*.md"))
}
CATALOG_SWC_IDS = sorted({r.vuln_class.swc_id for r in default_ruleset() if r.vuln_class.swc_id})


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

    def test_a_chunk_without_words_is_warned_about_as_a_knowledge_base_chunk(self, caplog):
        with caplog.at_level(logging.WARNING, logger="solguard.retrieval.tfidf"):
            build_kb_index([KbDocument("a", "alpha"), KbDocument("c", "!!!")])
        assert [r.getMessage() for r in caplog.records] == [
            "knowledge-base chunk of document c has no terms; indexing a zero vector"
        ]

    def test_build_assigns_no_snapshot_version(self):
        # only a snapshot store's publish or load sets the version
        assert build_kb_index([KbDocument("d", "alpha beta")]).snapshot_version == 0


def scored(query: str, chunks: tuple[KbChunk, ...]) -> list[tuple[float, str, int]]:
    """Every chunk's (similarity, doc id, chunk index) by the corpus's
    weighting written out: tf = count / term count, idf = ln((1+N)/(1+df)) + 1
    over the chunks, cosine of the tf * idf vectors; similarity descending,
    ties broken on (doc id, chunk index)."""
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
    return sorted(
        ((cosine(q, weights(count)), c.doc_id, c.chunk_index) for c, count in zip(chunks, counts)),
        key=lambda row: (-row[0], row[1], row[2]),
    )


def oracle(query: str, chunks: tuple[KbChunk, ...], k: int) -> list[tuple[str, int]]:
    """The chunks ``kb_search`` must return without an SWC id: the
    :func:`scored` ones, those that score 0 dropped."""
    return [(doc_id, chunk_index) for sim, doc_id, chunk_index in scored(query, chunks) if sim > 0][:k]


# words of the shipped documents, with noise: words no chunk holds, and
# characters that split words or hold none
QUERIES = st.lists(
    st.one_of(
        st.sampled_from(sorted({w for c in SHIPPED.chunks for w in split_words(c.text)})),
        st.sampled_from(["zyzzyva", "0xdeadbeef", "--", "'", "İ", "!!"]),
    ),
    max_size=12,
).map(" ".join)


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

    @settings(max_examples=300, deadline=None)
    @given(QUERIES, st.integers(1, 8))
    def test_shipped_chunks_returned_share_a_word_and_rank_as_the_oracle(self, query, k):
        got = kb_search(query, SHIPPED, k)
        assert len(got) <= k
        assert all(set(split_words(c.text)) & set(split_words(query)) for c in got)
        assert found(got) == oracle(query, SHIPPED.chunks, k)

    @settings(max_examples=300, deadline=None)
    @given(QUERIES, st.integers(1, 8), st.sampled_from([None, *CATALOG_SWC_IDS]))
    def test_chunks_tagged_with_the_swc_id_come_first_then_the_oracle_order(self, query, k, swc_id):
        got = kb_search(query, SHIPPED, k, swc_id)
        assert len(got) <= k
        tagged = [(d, i) for _, d, i in scored(query, SHIPPED.chunks) if swc_id in SHIPPED_TAGS[d]]
        assert found(got[: len(tagged)]) == tagged[:k]
        rest = [(d, i) for sim, d, i in scored(query, SHIPPED.chunks) if swc_id not in SHIPPED_TAGS[d] and sim > 0]
        assert found(got[len(tagged) :]) == rest[: max(k - len(tagged), 0)]

    def test_a_tagged_chunk_sharing_no_word_with_the_query_still_comes_first(self):
        index = build_kb_index([
            KbDocument("a", "alpha words", ("SWC-1",)), KbDocument("b", "beta", ("SWC-2",)), KbDocument("c", "alpha"),
        ])
        assert found(kb_search("alpha", index, 3, "SWC-2")) == [("b", 0), ("c", 0), ("a", 0)]
        assert found(kb_search("alpha", index, 1, "SWC-2")) == [("b", 0)]
        # the id must be spelled as the document tags it, and none ranks as today
        assert found(kb_search("alpha", index, 3, "SWC-02")) == found(kb_search("alpha", index, 3)) == [("c", 0), ("a", 0)]

    def test_empty_index(self):
        index = KbIndex(chunks=())
        assert kb_search("anything", index, k=3) == []


# the document of the first chunk that the advisor and the assessor prompt
# cite for each catalog class, found by its rule in the rule's positive
# fixture; None where no chunk shares a word with the query and none is
# tagged with the class's SWC id
FIRST_CHUNKS = {
    "Reentrancy": ("reentrancy", "reentrancy"),
    "Integer Overflow/Underflow": ("arithmetic", "arithmetic"),
    "Unprotected Function": ("access_control", "access_control"),  # hashing ranked arithmetic first
    "tx.origin Authentication": ("authentication", "authentication"),
    "Unchecked Low-Level Call": ("external_calls", "external_calls"),
    "Timestamp Dependence": ("randomness_time", "randomness_time"),
    "Unprotected Selfdestruct": ("access_control", "access_control"),  # tagged SWC-106
    "Delegatecall to Untrusted Callee": ("external_calls", "external_calls"),
}
NOTES_RE = re.compile(rf"Reference notes:\n(?:\[([^#\]]+)#\d+\] |{re.escape(NO_REFERENCES_NOTE)}\n)")


def first_note(prompt: str) -> str | None:
    return NOTES_RE.search(prompt).group(1)


def cited_notes(prompt: str) -> list[str]:
    return re.findall(r"^\[([^#\]]+#\d+)\] ", prompt.split("Reference notes:\n", 1)[1], re.MULTILINE)


def catalog_prompts(fixtures_dir):
    """(rule, advisor prompt, assessor prompt) for each catalog rule's finding
    in the rule's positive fixture, citing the shipped documents."""
    manifest = json.loads((fixtures_dir / "rules" / "manifest.json").read_text(encoding="utf-8"))
    for rule in default_ruleset():
        (name,) = [n for n, entry in manifest.items() if n.endswith("_pos.sol") and entry["findings"][0][0] == rule.rule_id]
        contract = load_file(fixtures_dir / "rules" / name)
        (finding,) = scan(contract, [rule])
        yield rule, build_advisor_prompt(contract, finding, SHIPPED), build_assessor_prompt(contract, finding, None, SHIPPED)


def test_each_catalog_class_cites_its_first_chunk(fixtures_dir):
    cited = {rule.vuln_class.name: (first_note(a), first_note(b)) for rule, a, b in catalog_prompts(fixtures_dir)}
    assert cited == FIRST_CHUNKS


def test_the_document_tagged_with_a_class_swc_id_is_cited_first(fixtures_dir):
    checked = []
    for rule, advisor, assessor in catalog_prompts(fixtures_dir):
        tagged = {doc for doc, tags in SHIPPED_TAGS.items() if rule.vuln_class.swc_id in tags}
        if tagged:
            assert first_note(advisor) in tagged and first_note(assessor) in tagged, rule.rule_id
            checked.append(rule.vuln_class.swc_id)
    # every catalog SWC id is some shipped document's tag
    assert sorted(checked) == CATALOG_SWC_IDS


def test_no_prompt_cites_more_than_three_notes(fixtures_dir):
    assert NOTES_PER_PROMPT == 3
    for _, advisor, assessor in catalog_prompts(fixtures_dir):
        assert len(cited_notes(advisor)) <= 3 and len(cited_notes(assessor)) <= 3
    # six documents that each share a word with every query below
    docs = [KbDocument(f"d{i}", f"reentrancy severity impact contract note {i}", ("SWC-107",) * (i % 2)) for i in range(6)]
    index = build_kb_index(docs)
    contract = load_source("c", "contract C { function f() public {} }")
    finding = Finding("c", VulnerabilityClass("Reentrancy", "SWC-107"), Location(contract.whole, "f"), "call", Channel.STATIC, 0.9)
    prompts = {
        "advisor": build_advisor_prompt(contract, finding, index),
        "assessor": build_assessor_prompt(contract, finding, None, index),
        "enriched detector": build_detection_prompt(contract, "enriched", (), index),
    }
    assert {role: len(cited_notes(prompt)) for role, prompt in prompts.items()} == dict.fromkeys(prompts, 3)
    assert cited_notes(prompts["advisor"]) == ["d1#0", "d3#0", "d5#0"]  # the tagged ones


class TestDocumentLoading:
    def test_metadata_preamble_stripped_from_the_body_and_its_tags_kept(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "---\nsource: SWC registry\nswc_tags: [SWC-107]\n---\nBody text here.\n",
            encoding="utf-8",
        )
        docs = load_kb_documents(tmp_path)
        assert docs == [KbDocument("doc", "Body text here.", ("SWC-107",))]
        assert build_kb_index(docs).chunks == (KbChunk("doc", 0, "Body text here.", ("SWC-107",)),)

    @pytest.mark.parametrize("value", ["oops", "[1]", "{a: b}", "null", '["\\ud800"]'])
    def test_swc_tags_that_are_not_a_list_of_strings_name_the_file(self, tmp_path, value):
        path = tmp_path / "doc.md"
        path.write_text(f"---\nswc_tags: {value}\n---\nbody\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: metadata preamble key swc_tags ")):
            load_kb_documents(tmp_path)

    def test_shipped_tags_are_kept(self, fixtures_dir):
        docs = load_kb_documents(fixtures_dir / "kb_docs")
        assert {d.doc_id: list(d.swc_tags) for d in docs} == SHIPPED_TAGS

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
