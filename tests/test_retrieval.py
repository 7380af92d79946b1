from __future__ import annotations

import logging
import math
import random
import re
import tempfile
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solguard.retrieval.snapshot import CorpusSnapshotStore
from solguard.retrieval.terms import tokenize_for_tfidf
from solguard.retrieval.tfidf import (
    CorpusIndex,
    Neighbor,
    build_corpus_index,
    rank_weighted_probability,
    rank_weights,
    retrieval_channel,
    top_k,
)
from solguard.core import Verdict
from solguard.static_analysis.scanner import load_source

import reference_corpus_build
from reference_corpus_build import same_index
from reference_corpus_snapshot_v1 import document_weights, idf_map

# no documents and no terms
EMPTY_INDEX = CorpusIndex((), (), (), array("d"), {}, array("d"), array("q", [0]), array("i"), array("d"), array("d"))


# --- independent oracle implementations -------------------------------------


def oracle_terms(source: str) -> list[str]:
    """Character-state-machine tokenizer, written independently of the
    production regex pipeline."""
    terms: list[str] = []
    word: list[str] = []
    state = "code"  # code | line_comment | block_comment | string
    quote = ""
    i = 0
    while i < len(source):
        ch = source[i]
        nxt = source[i + 1] if i + 1 < len(source) else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch in "\"'":
                state, quote = "string", ch
                i += 1
                continue
            if ch.isalnum():
                word.append(ch.lower())
            else:
                if word:
                    terms.append("".join(word))
                    word = []
            i += 1
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
        else:  # string
            if ch == "\\":
                i += 2
                continue
            if ch == quote or ch == "\n":
                state = "code"
            i += 1
    if word:
        terms.append("".join(word))
    return terms


def oracle_strip(text: str) -> str:
    """The character walker that term extraction used before its one-regex
    form, kept verbatim as the oracle for that regex."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j == -1 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            i = n if j == -1 else j + 2
            out.append(" ")
            continue
        if ch in "\"'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == ch or text[j] == "\n":
                    break
                j += 1
            i = min(j + 1, n)
            out.append(" ")
            continue
        out.append(ch)
        i += 1
    return "".join(out)


oracle_findall = re.compile(r"[a-z0-9]+").findall

# structure characters weighted up against letters, digits, "_", ASCII
# whitespace, non-ASCII letters (two of whose lowercase forms hold an ASCII
# letter: "İ" an "i", the Kelvin sign a "k") and a lone surrogate
STRUCTURE_HEAVY = st.text(
    alphabet=st.sampled_from(list("/*\"'\\\n") * 3 + list("aZ9_ \t\x0bİ\u212aé日\ud800")), max_size=40
)


def oracle_tfidf(docs: list[list[str]]) -> tuple[dict[str, float], list[dict[str, float]]]:
    """Brute-force tf-idf: tf = count/len, idf = ln((1+N)/(1+df)) + 1, L2."""
    n = len(docs)
    df: Counter[str] = Counter()
    for terms in docs:
        df.update(set(terms))
    idf = {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in df.items()}
    vectors: list[dict[str, float]] = []
    for terms in docs:
        counts = Counter(terms)
        total = len(terms)
        raw = {t: (c / total) * idf[t] for t, c in counts.items()} if total else {}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        vectors.append({t: w / norm for t, w in raw.items()} if norm else {})
    return idf, vectors


def oracle_cosine(a: dict[str, float], b: dict[str, float]) -> float:
    dot = sum(w * b.get(t, 0.0) for t, w in a.items())
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    return dot / (na * nb) if na and nb else 0.0


def synthetic_corpus(n_docs: int, seed: int) -> list[tuple[str, str, tuple[str, ...], str]]:
    rng = random.Random(seed)
    vocab = [f"word{i}" for i in range(60)] + ["function", "uint256", "require", "transfer"]
    docs = []
    for i in range(n_docs):
        words = rng.choices(vocab, k=rng.randint(20, 120))
        label = "vulnerable" if rng.random() < 0.5 else "safe"
        docs.append((f"doc{i:03d}", label, (), " ".join(words)))
    return docs


# --- term extraction ----------------------------------------------------------


class TestTermExtraction:
    def test_presign_signature(self):
        assert tokenize_for_tfidf("function preSign(bytes orderUid)") == [
            "function", "presign", "bytes", "orderuid",
        ]

    def test_empty(self):
        assert tokenize_for_tfidf("") == []

    def test_comments_and_string_contents_dropped(self):
        source = '// top secret\nuint x = 1; /* hidden */ emit Log("payload words");'
        terms = tokenize_for_tfidf(source)
        assert "secret" not in terms
        assert "hidden" not in terms
        assert "payload" not in terms
        assert terms[:3] == ["uint", "x", "1"]

    def test_matches_independent_oracle_on_fixtures(self, fixtures_dir):
        for path in sorted((fixtures_dir / "rules").glob("*.sol")):
            source = path.read_text(encoding="utf-8")
            assert tokenize_for_tfidf(source) == oracle_terms(source), path.name

    def test_splits_on_underscores(self):
        assert tokenize_for_tfidf("total_supply") == ["total", "supply"]

    @settings(max_examples=2000, deadline=None)
    @given(STRUCTURE_HEAVY)
    def test_matches_character_walker(self, text):
        assert tokenize_for_tfidf(text) == oracle_findall(oracle_strip(text).lower())

    @pytest.mark.parametrize(
        "text, terms",
        [
            ('a "open\nb', ["a", "b"]),  # an unterminated string ends at a newline
            ('a "x\\\ny" b', ["a", "b"]),  # backslash-newline stays inside the string
            ("a /*/ b */ c", ["a", "c"]),  # "/*/" does not close the comment
            ("a /* b", ["a"]),  # an unclosed comment runs to the end
            ('a "b\\', ["a"]),  # a trailing backslash ends the text
            ('a "// b" c', ["a", "c"]),  # "//" inside a string is string content
            ("a /* 'b */ c", ["a", "c"]),  # a quote inside a comment opens nothing
            ("a // 'b\nc", ["a", "c"]),  # nor inside a line comment
            ("a//b\nc", ["a", "c"]),  # a line comment keeps its newline
            ("a/*b*/c", ["a", "c"]),  # a block comment separates terms
            ('a "b\\" c" d', ["a", "d"]),  # an escaped quote does not end the string
            ("a \"b' c\" d", ["a", "d"]),  # nor does a quote of the other kind
        ],
    )
    def test_grammar_quirks(self, text, terms):
        assert tokenize_for_tfidf(text) == terms == oracle_findall(oracle_strip(text).lower())


# --- index construction -------------------------------------------------------


class TestBuildCorpusIndex:
    def test_two_doc_idf_hand_arithmetic(self):
        index = build_corpus_index(
            [("d1", "safe", (), "a b"), ("d2", "safe", (), "b c")]
        )
        assert idf_map(index)["b"] == pytest.approx(1.0)  # ln(3/3) + 1
        assert idf_map(index)["a"] == pytest.approx(math.log(3 / 2) + 1)

    def test_single_doc_idf_collapses_to_one(self):
        index = build_corpus_index([("d1", "safe", (), "x y z x")])
        assert all(v == pytest.approx(1.0) for v in idf_map(index).values())

    def test_weights_match_brute_force_oracle(self):
        docs = synthetic_corpus(10, seed=7)
        index = build_corpus_index(docs)
        idf, vectors = oracle_tfidf([oracle_terms(d[3]) for d in docs])
        assert idf_map(index) == pytest.approx(idf, abs=1e-9)
        for weights, expected in zip(document_weights(index), vectors):
            assert set(weights) == set(expected)
            for term, w in expected.items():
                assert weights[term] == pytest.approx(w, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(STRUCTURE_HEAVY | st.lists(st.sampled_from(["a", "b", "B2", "straße", "\u212a", "İd", "日本"]),
                                                max_size=8).map(" ".join), min_size=1, max_size=8))
    def test_vectorize_gives_a_document_its_stored_weights(self, sources):
        # documents and queries share one weighting, so a document read as a
        # query weighs bit for bit as the index stores it
        index = build_corpus_index([(f"d{i}", "safe", (), source) for i, source in enumerate(sources)])
        for source, stored in zip(sources, document_weights(index)):
            weights = index.vectorize(tokenize_for_tfidf(source))
            assert {t: w.hex() for t, w in weights.items()} == {t: w.hex() for t, w in stored.items()}

    def test_common_norms_match_brute_force_oracle(self):
        # a term is common when at least half the documents hold it
        docs = synthetic_corpus(10, seed=7)
        index = build_corpus_index(docs)
        df = Counter(term for doc in docs for term in set(oracle_terms(doc[3])))
        for weights, common_norm in zip(document_weights(index), index.common_norms):
            expected = math.sqrt(sum(w * w for term, w in weights.items() if 2 * df[term] >= len(docs)))
            assert common_norm == pytest.approx(expected, abs=1e-12)
        assert any(0 < common < norm for common, norm in zip(index.common_norms, index.norms))  # both kinds

    def test_empty_document_kept_as_zero_vector_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            index = build_corpus_index(
                [("full", "safe", (), "a b c"), ("blank", "safe", (), "// only a comment")]
            )
        assert document_weights(index)[1] == {}
        assert index.norms[1] == 0.0
        assert any("blank" in rec.message for rec in caplog.records)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_index_as_the_two_pass_build(self, data):
        # n documents, of which exactly ceil(n/2) hold "half", the fewest a
        # common term needs; each side repeats some of its documents exactly.
        # The parity is drawn, not parametrized: a parametrized @given method
        # fails Hypothesis's differing_executors check without its plugin.
        parity = data.draw(st.integers(0, 1))
        words = ["a", "b", "b2", "Zeta", "straße", "Ünïcode", "\u212a", "İd", "日本", "//", "/*", "*/", "\n"]
        texts = st.one_of(
            st.sampled_from(["", "// only a comment", "/* block */"]),
            st.lists(st.sampled_from(words), max_size=8).map(" ".join),
        )

        def side(size: int, holds: bool) -> list[tuple[str, str, tuple[str, ...], str]]:
            distinct = data.draw(st.integers(min(size, 1), size))
            docs = [
                (f"{holds:d}.{i}", data.draw(st.sampled_from(["safe", "vulnerable"])), ("C",) * (i % 2),
                 "half " * holds + data.draw(texts))
                for i in range(distinct)
            ]
            return docs + [data.draw(st.sampled_from(docs)) for _ in range(size - distinct)]

        pairs = data.draw(st.integers(1 - parity, 4))  # n = 2 * pairs + parity
        docs = data.draw(st.permutations(side(pairs + parity, True) + side(pairs, False)))
        warned: dict[str, list[str]] = {"solguard.retrieval.tfidf": [], reference_corpus_build.__name__: []}

        class Warnings(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                warned[record.name].append(record.getMessage())

        handler = Warnings(logging.WARNING)
        loggers = [logging.getLogger(name) for name in warned]
        for logger in loggers:
            logger.addHandler(handler)
        try:
            index, expected = build_corpus_index(docs), reference_corpus_build.build_corpus_index(docs)
        finally:
            for logger in loggers:
                logger.removeHandler(handler)
        assert same_index(index, expected)
        assert all(norm > 0 for norm, doc in zip(index.common_norms, docs) if doc[0][0] == "1")  # "half" is common
        with tempfile.TemporaryDirectory() as root:
            store = CorpusSnapshotStore(root)
            store.publish(index)
            assert same_index(store.load(), expected)
        # one warning per document without terms, as the two-pass build logs
        terms_less = [doc_id for doc_id, _, _, source in docs if not tokenize_for_tfidf(source)]
        assert warned["solguard.retrieval.tfidf"] == warned[reference_corpus_build.__name__]
        assert warned["solguard.retrieval.tfidf"] == [
            f"corpus document {doc_id} has no terms; indexing a zero vector" for doc_id in terms_less
        ]


# --- cosine similarity, as top_k reports it -------------------------------------


def similarities(index: CorpusIndex, query_id: str, text: str) -> dict[str, float]:
    """Similarity of every indexed document to ``text``, read off ``top_k``."""
    neighbors = top_k(load_source(query_id, text), index, len(index.ids))
    return {nb.contract_id: nb.similarity for nb in neighbors}


class TestCosine:
    def test_identical_nonzero_vectors(self):
        # the unclamped quotient rounds to 1.0000000000000002 here
        index = build_corpus_index([("d1", "safe", (), "f a"), ("d2", "safe", (), "y z")])
        assert similarities(index, "q", "a f")["d1"] == 1.0

    def test_disjoint_supports(self):
        index = build_corpus_index([("d1", "safe", (), "x"), ("d2", "safe", (), "y")])
        assert similarities(index, "q", "y")["d1"] == 0.0

    def test_partial_overlap_analytic_value(self):
        # x and y each occur in two documents, so they share one idf
        index = build_corpus_index(
            [("xy", "safe", (), "x y"), ("x", "safe", (), "x"), ("y", "safe", (), "y")]
        )
        assert similarities(index, "q", "x")["xy"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_yields_zero(self):
        index = build_corpus_index([("blank", "safe", (), "// no terms"), ("d", "safe", (), "x")])
        assert similarities(index, "q", "x")["blank"] == 0.0
        assert similarities(index, "q", "")["d"] == 0.0

    @given(
        st.lists(st.sampled_from("abcdef"), max_size=6),
        st.lists(st.sampled_from("abcdef"), max_size=6),
    )
    def test_symmetry_and_range(self, ta, tb):
        index = build_corpus_index([("a", "safe", (), " ".join(ta)), ("b", "safe", (), " ".join(tb))])
        ab = similarities(index, "a", " ".join(ta))["b"]
        ba = similarities(index, "b", " ".join(tb))["a"]
        assert ab == pytest.approx(ba)
        assert 0.0 <= ab <= 1.0



# --- top-k ----------------------------------------------------------------------


def brute_force_top_k(query_terms, index: CorpusIndex, k: int, exclude_id: str):
    qweights = index.vectorize(query_terms)
    sims = [
        (doc_id, oracle_cosine(qweights, weights), label)
        for doc_id, label, weights in zip(index.ids, index.labels, document_weights(index))
        if doc_id != exclude_id
    ]
    sims.sort(key=lambda t: (-t[1], t[0]))
    return sims[:k]


def scan_top_k(query_terms, index: CorpusIndex, k: int, exclude_id: str) -> list[tuple[str, float]]:
    """Score every document by the stated rule (products added one at a time
    in the query's term order, ``min(1, dot / dnorm)`` for the unit query, 0
    at zero norm) and sort by (-similarity, id)."""
    qweights = index.vectorize(query_terms)
    rows = []
    for doc_id, norm, weights in zip(index.ids, index.norms, document_weights(index)):
        if doc_id == exclude_id:
            continue
        dot = 0.0
        for t, qw in qweights.items():
            dot += qw * weights.get(t, 0.0)
        sim = min(1.0, dot / norm) if norm else 0.0
        rows.append((doc_id, sim))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:k]


class TestTopK:
    def test_bounded_by_corpus_size(self):
        index = build_corpus_index(synthetic_corpus(3, seed=1))
        query = load_source("q", "word1 word2 word3")
        assert len(top_k(query, index, 5)) == 3

    def test_identical_document_ranks_first_with_similarity_one(self):
        docs = synthetic_corpus(5, seed=2)
        index = build_corpus_index(docs)
        query = load_source("not-in-index", docs[2][3])
        neighbors = top_k(query, index, 5)
        assert neighbors[0].contract_id == docs[2][0]
        assert neighbors[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_query_id_excluded(self):
        docs = synthetic_corpus(5, seed=3)
        index = build_corpus_index(docs)
        query = load_source(docs[0][0], docs[0][3])
        ids = [nb.contract_id for nb in top_k(query, index, 5)]
        assert docs[0][0] not in ids

    @pytest.mark.parametrize("n_docs,seed", [(10, 11), (50, 12), (200, 13)])
    def test_ordering_matches_exhaustive_oracle(self, n_docs, seed):
        docs = synthetic_corpus(n_docs, seed=seed)
        index = build_corpus_index(docs)
        query = load_source("query", docs[n_docs // 2][3] + " word0 word1")
        neighbors = top_k(query, index, 5)
        expected = brute_force_top_k(oracle_terms(query.source), index, 5, "query")
        assert [nb.contract_id for nb in neighbors] == [e[0] for e in expected]
        for nb, (_, sim, _) in zip(neighbors, expected):
            assert nb.similarity == pytest.approx(sim, abs=1e-9)
        assert [nb.rank for nb in neighbors] == list(range(1, len(neighbors) + 1))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force_scan(self, data):
        # Terms are written in sorted order, so every document and query
        # meets its shared terms in the same order and any exact scan sums
        # the same products in the same order: rounding cannot reorder ties.
        texts = data.draw(st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), min_size=1, max_size=8))
        texts += data.draw(st.lists(st.sampled_from(texts), max_size=3))  # exact duplicates
        order = data.draw(st.permutations(range(len(texts))))  # ids out of position order
        docs = [
            (f"d{order[i]:02d}", ("safe", "vulnerable")[i % 2], (), " ".join(sorted(terms)))
            for i, terms in enumerate(texts)
        ]
        index = build_corpus_index(docs)
        if data.draw(st.booleans()):
            with tempfile.TemporaryDirectory() as root:
                store = CorpusSnapshotStore(root)
                store.publish(index)
                index = store.load()  # norms read back from postings.bin
        # the query may reuse an indexed id; "xyz" are in no document, so a
        # query of those alone scores 0 everywhere and is filled in id order
        query_id = data.draw(st.sampled_from(["q"] + [doc[0] for doc in docs]))
        query_text = " ".join(sorted(data.draw(st.lists(st.sampled_from("abcdefxyz"), max_size=6))))
        k = data.draw(st.integers(1, len(docs) + 2))
        neighbors = top_k(load_source(query_id, query_text), index, k)
        expected = scan_top_k(oracle_terms(query_text), index, k, query_id)
        assert [(nb.contract_id, nb.rank) for nb in neighbors] == [
            (doc_id, rank) for rank, (doc_id, _) in enumerate(expected, start=1)
        ]
        assert [nb.similarity for nb in neighbors] == [sim for _, sim in expected]
        independent = brute_force_top_k(oracle_terms(query_text), index, len(docs), query_id)
        by_id = {doc_id: sim for doc_id, sim, _ in independent}
        for nb in neighbors:
            assert nb.similarity == pytest.approx(by_id[nb.contract_id], abs=1e-12)

    def test_empty_index(self):
        index = EMPTY_INDEX
        assert top_k(load_source("q", "a b"), index, 5) == []

    def test_deterministic_tie_break_by_id(self):
        docs = [
            ("z-doc", "safe", (), "same text here"),
            ("a-doc", "safe", (), "same text here"),
        ]
        index = build_corpus_index(docs)
        neighbors = top_k(load_source("q", "same text here"), index, 2)
        assert [nb.contract_id for nb in neighbors] == ["a-doc", "z-doc"]


# --- rank weighting -------------------------------------------------------------


def neighbor(rank: int, label: str) -> Neighbor:
    return Neighbor(contract_id=f"d{rank}", similarity=1.0 - rank * 0.01, rank=rank, label=label)


class TestRankWeighting:
    def test_weights_sum_to_one(self):
        for m in range(1, 50):
            assert sum(rank_weights(m)) == pytest.approx(1.0, abs=1e-12)

    def test_two_vulnerable_of_five(self):
        labels = ["vulnerable", "vulnerable", "safe", "safe", "safe"]
        nbs = [neighbor(i + 1, lab) for i, lab in enumerate(labels)]
        assert rank_weighted_probability(nbs) == pytest.approx(0.6)  # (5+4)/15

    def test_all_safe(self):
        nbs = [neighbor(i + 1, "safe") for i in range(5)]
        assert rank_weighted_probability(nbs) == 0.0

    def test_all_vulnerable(self):
        nbs = [neighbor(i + 1, "vulnerable") for i in range(5)]
        assert rank_weighted_probability(nbs) == pytest.approx(1.0)

    def test_empty(self):
        assert rank_weighted_probability([]) == 0.0

    def test_all_vulnerable_is_a_probability_for_every_k(self):
        # the rank weights' sum rounds to 1.0000000000000002 for k = 14, 18,
        # 24 and others, and a finding refuses a confidence above 1
        query = load_source("q", "contract Q {}")
        for k in range(1, 201):
            nbs = [Neighbor(f"d{r}", 1.0, r, "vulnerable", ("Reentrancy",)) for r in range(1, k + 1)]
            score = rank_weighted_probability(nbs)
            assert 1.0 - 1e-12 < score <= 1.0, k
            [finding] = retrieval_channel(query, nbs, 0.5).findings
            assert finding.confidence == score

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    def test_flipping_safe_to_vulnerable_never_decreases(self, flags):
        nbs = [neighbor(i + 1, "vulnerable" if f else "safe") for i, f in enumerate(flags)]
        base = rank_weighted_probability(nbs)
        assert 0.0 <= base <= 1.0 + 1e-12
        for i, f in enumerate(flags):
            if not f:
                flipped = list(nbs)
                flipped[i] = neighbor(i + 1, "vulnerable")
                assert rank_weighted_probability(flipped) >= base


# --- retrieval channel ------------------------------------------------------------


class TestRetrievalChannel:
    def _index_with_labels(self, labels: list[str]) -> CorpusIndex:
        # all documents identical so ranks follow id order
        docs = [(f"d{i}", lab, ("Reentrancy",) if lab == "vulnerable" else (), "same body text")
                for i, lab in enumerate(labels)]
        return build_corpus_index(docs)

    def test_two_of_five_vulnerable_crosses_threshold(self):
        index = self._index_with_labels(["vulnerable", "vulnerable", "safe", "safe", "safe"])
        query = load_source("q", "same body text")
        result = retrieval_channel(query, top_k(query, index, 5), 0.5)
        assert result.verdict is Verdict.VULNERABLE
        assert result.score == pytest.approx(0.6)
        assert [f.vuln_class.name for f in result.findings] == ["Reentrancy"]
        assert all(f.confidence == pytest.approx(0.6) for f in result.findings)

    def test_one_of_five_stays_safe(self):
        index = self._index_with_labels(["vulnerable", "safe", "safe", "safe", "safe"])
        query = load_source("q", "same body text")
        result = retrieval_channel(query, top_k(query, index, 5), 0.5)
        assert result.verdict is Verdict.SAFE
        assert result.score == pytest.approx(5 / 15)

    def test_empty_index_is_safe_zero(self):
        index = EMPTY_INDEX
        query = load_source("q", "anything")
        result = retrieval_channel(query, top_k(query, index, 5), 0.5)
        assert result.verdict is Verdict.SAFE
        assert result.score == 0.0
        assert result.findings == ()
