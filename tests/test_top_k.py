"""The bounded ``top_k`` against the full scan it replaced.

``tests/reference_top_k.py`` is the replaced full scan. Every comparison
requires equal ``Neighbor`` lists (ids, ranks, labels and classes) and
bit-equal similarities. Each corpus is ranked with the module's
constants, which send small corpora to the full scan, and with pruning
forced (bisection costed at nearly nothing, few probes), so the bound, the
cut and the exact rescoring run on every case the scan handles.
"""

from __future__ import annotations

import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.jsonl import load_labeled_records
from solguard.retrieval import tfidf
from solguard.retrieval.snapshot import CorpusSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, is_common, top_k
from solguard.static_analysis.scanner import load_file, load_source

import reference_top_k as reference
from test_snapshot import QUERIES, generated_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def pruning_forced(probes: int):
    with mock.patch.multiple(tfidf, BISECT_COST=1e-9, PROBES=probes):
        yield


def bits(neighbors):
    return [(nb.contract_id, nb.similarity.hex(), nb.rank, nb.label, nb.classes) for nb in neighbors]


def assert_same(query, index, k):
    expected = reference.top_k(query, index, k)
    for probes in (None, 0, 1, 20):
        if probes is None:
            got = top_k(query, index, k)
        else:
            with pruning_forced(probes):
                got = top_k(query, index, k)
        assert got == expected, (query.id, k, probes)
        assert bits(got) == bits(expected), (query.id, k, probes)


def doc(doc_id: str, text: str, label: str = "safe") -> tuple[str, str, tuple[str, ...], str]:
    return (doc_id, label, ("Reentrancy",) if label == "vulnerable" else (), text)


# corpus, query id, query text, k: one case for each way a ranking can go
CASES = {
    "duplicate documents tie": (
        [doc("d3", "a b c"), doc("d1", "a b c", "vulnerable"), doc("d2", "a b c"), doc("d0", "a d"), doc("d4", "b e")],
        "q", "a b c", 3,
    ),
    # the first-placed copy is probed; the others tie with it at the cut, which
    # their bounds reach only through the slack: without it, they round below
    "duplicates tie at the cut": (
        [doc(f"d{9 - i}", "g b f a d") for i in range(4)] + [doc("e0", "g x"), doc("e1", "b y")], "q", "g b f a d", 1,
    ),
    "fewer than k share a term": (
        [doc(f"d{i}", "a b" if i < 2 else "c d e") for i in range(6)], "q", "a", 4,
    ),
    "query id in the index": (
        [doc("d0", "a b c"), doc("d1", "a b"), doc("d2", "a c"), doc("d3", "b c d")], "d0", "a b c", 2,
    ),
    "no known query term": ([doc("d0", "a b"), doc("d1", "b c"), doc("d2", "c d")], "q", "x y", 2),
    "empty document": ([doc("d0", "a b"), doc("d1", "// a comment only"), doc("d2", "a c")], "q", "a c", 3),
    "all-common vocabulary": (
        [doc(f"d{i}", " ".join(["a"] * (i % 3 + 1) + ["b"] * (i % 2 + 1) + ["c"])) for i in range(7)],
        "q", "c a a b", 3,
    ),
    "no-common vocabulary": ([doc(f"d{i}", f"w{i} v{i}" + " u" * (i < 2)) for i in range(5)], "q", "w1 u", 2),
    "k at least n": ([doc(f"d{i}", "a b" if i % 2 else "a c") for i in range(5)], "q", "a b", 9),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_the_full_scan(case):
    docs, query_id, text, k = CASES[case]
    assert_same(load_source(query_id, text), build_corpus_index(docs), k)


def test_cases_hold_what_they_name():
    def common_terms(docs):
        index = build_corpus_index(docs)
        n = len(index.ids)
        return [is_common(index.offsets[t + 1] - index.offsets[t], n) for t in index.term_ids.values()]

    assert all(common_terms(CASES["all-common vocabulary"][0]))
    assert not any(common_terms(CASES["no-common vocabulary"][0]))
    docs, _, text, k = CASES["fewer than k share a term"]
    assert sum(text in d[3].split() for d in docs) < k
    docs, query_id, _, _ = CASES["query id in the index"]
    assert query_id in [d[0] for d in docs]
    assert build_corpus_index(CASES["empty document"][0]).norms[1] == 0.0
    docs, _, _, k = CASES["k at least n"]
    assert k >= len(docs)


@st.composite
def corpora(draw):
    """A corpus of 1-12 documents, with frequent words "abc" and rarer
    "defghij" so that some terms are common and some are not, and a query
    that may hold unknown words "xyz" and reuse an indexed id."""
    texts = [
        draw(st.lists(st.sampled_from("abc"), max_size=5)) + draw(st.lists(st.sampled_from("defghij"), max_size=3))
        for _ in range(draw(st.integers(1, 12)))
    ]
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # duplicates tie
    order = draw(st.permutations(range(len(texts))))  # ids out of position order
    docs = [doc(f"d{order[i]:02d}", " ".join(draw(st.permutations(words))), ("safe", "vulnerable")[i % 2])
            for i, words in enumerate(texts)]
    query_id = draw(st.sampled_from(["q"] + [d[0] for d in docs]))
    query = " ".join(draw(st.lists(st.sampled_from("abcdefghijxyz"), max_size=8)))
    return docs, load_source(query_id, query), draw(st.integers(1, len(docs) + 2))


@settings(max_examples=300, deadline=None)
@given(corpora(), st.booleans())
def test_generated_corpus_matches_the_full_scan(case, through_snapshot):
    docs, query, k = case
    index = build_corpus_index(docs)
    if through_snapshot:
        with tempfile.TemporaryDirectory() as root:
            store = CorpusSnapshotStore(root)
            store.publish(index)
            index = store.load()  # common norms read back from postings.bin
    assert_same(query, index, k)


@pytest.mark.parametrize("k", [1, 5, 15])
def test_fixture_corpus_matches_the_full_scan(k):
    docs = load_labeled_records(FIXTURES / "corpus.jsonl")
    index = build_corpus_index(docs)
    queries = [load_file(path, path.stem) for path in QUERIES]
    queries += [load_source(doc_id, source) for doc_id, _, _, source, _ in docs]  # ids in the index
    for query in queries:
        assert_same(query, index, k)


def test_a_large_corpus_is_ranked_without_a_full_scan(caplog):
    docs = generated_corpus(2_000, seed=11)
    index = build_corpus_index(docs)
    queries = [load_file(path, path.stem) for path in QUERIES]
    with caplog.at_level(logging.DEBUG, logger=tfidf.__name__):
        for query in queries:
            assert top_k(query, index, 5) == reference.top_k(query, index, 5), query.id
    full_scans = [record for record in caplog.records if "full scan" in record.getMessage()]
    assert len(full_scans) < len(queries) // 2
