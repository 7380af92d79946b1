"""Similarity index: TF-IDF vectors, cosine ranking, and the retrieval
detection channel. The corpus indexes contracts by
:func:`~solguard.retrieval.terms.tokenize_for_tfidf`, and the knowledge base
indexes its chunks by :func:`~solguard.retrieval.terms.words`.

Weighting scheme (stated exactly so independent oracles can reproduce it):
tf = term count / document term count; idf = ln((1+N)/(1+df)) + 1;
weight = tf * idf; vectors are L2-normalized. A query is a unit vector (or
empty), and its similarity to a document is their dot product divided by the
document's norm. Neighbor ranks are weighted linearly, rank 1 heaviest,
weights summing to 1.

A build counts each document's terms once: that one count gives the
document frequencies, then the document's weights, which go straight into
the postings. Documents and queries are weighed by the one :func:`weigh`.

Ranking (:func:`rank`) is exact but scores only the documents that can win. A
term is common when at least half the documents hold it (``df >=
ceil(n/2)``); the index stores each document's common-term norm, and a
query bounds a document's similarity by its exact rare-term dot product
plus ``|q_common| * |d_common|`` (Cauchy-Schwarz), widened by a relative
``SLACK`` of 1e-9 for rounding. Documents whose bound cannot reach the k-th
best similarity are never scored; the rest are scored exactly, adding
products in the query's term order, so every result is the one a full scan
of the query terms' postings gives, bit for bit. The full scan itself runs
when fewer than k documents share a query term (the zero-fill) or when it
is the cheaper of the two. The snapshot load's sha256 check covers the position
order and the common norms that pruning relies on, so a loaded index holds them as built.
"""

from __future__ import annotations

import heapq
import logging
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import mul, truediv
from typing import Callable, Iterable, Sequence

from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    SourceContract,
    Verdict,
    VulnerabilityClass,
    ordered_sum,
)
from solguard.retrieval.terms import tokenize_for_tfidf

log = logging.getLogger(__name__)

PROBES = 20  # best-bounded documents scored besides k, whose k-th best score is the first cut
SLACK = 1e-9  # relative widening of a bound; a sum of a few thousand products rounds off by < 1e-12
# Looking one document up in a term's postings by bisection costs about as
# much as scanning ten postings: 0.8-1.4 us against 85-120 ns per posting on
# the 20k-document benchmark corpus (CPython 3.11, x86-64).
BISECT_COST = 10


@dataclass(frozen=True)
class CorpusIndex:
    """Term-major index over flat arrays, the layout of a published snapshot.

    Documents are columns by position: ``ids``, ``labels`` (safe or
    vulnerable), ``classes`` and ``norms``, the L2 norms of their weights.
    Term ids follow sorted term order. Term ``t``'s postings are
    ``positions[offsets[t]:offsets[t + 1]]``, ascending document positions,
    and the same slice of ``weights``. A document's norm is the square root
    of its squared weights added in this flat order, so ascending term order;
    its common-term norm (``common_norms``, by position) is the same over the
    terms that ``is_common`` picks. Built once and only read afterwards, so
    concurrent ``top_k`` calls may share an index.
    """

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    norms: array  # "d"
    term_ids: dict[str, int]
    idf: array  # "d", by term id
    offsets: array  # "q", one more than there are terms
    positions: array  # "i"
    weights: array  # "d"
    common_norms: array  # "d", by document position
    snapshot_version: int = 0

    def vectorize(self, terms: list[str]) -> dict[str, float]:
        """Project a term list into this index's weighting space: term ->
        weight over the terms it knows, a unit vector, or empty when none is
        known. Unknown terms still count in the total."""
        known = Counter(term for term in terms if term in self.term_ids)
        idfs = map(self.idf.__getitem__, map(self.term_ids.__getitem__, known))
        return dict(zip(known, weigh(known.values(), len(terms), idfs)[0]))


@dataclass(frozen=True)
class Neighbor:
    contract_id: str
    similarity: float
    rank: int  # 1-based, contiguous
    label: str
    classes: tuple[str, ...] = ()


def weigh(counts: Iterable[int], total: int, idfs: Iterable[float]) -> tuple[list[float], float]:
    """The ``(count / total) * idf`` weights of a document's or a query's
    terms, L2-normalized, and the norm they had before; a zero norm leaves
    them as they are. Each step is a C-level map."""
    raw = list(map(mul, map(truediv, counts, repeat(total)), idfs))
    norm = math.sqrt(ordered_sum(map(mul, raw, raw)))
    return (list(map(truediv, raw, repeat(norm))) if norm else raw), norm


def build_corpus_index(
    docs: Sequence[Sequence], terms_of: Callable[[str], list[str]] = tokenize_for_tfidf, noun: str = "corpus document"
) -> CorpusIndex:
    """Index labeled documents given as rows that start (id, label, classes,
    text), such as :func:`~solguard.jsonl.load_labeled_records` returns, by
    the terms ``terms_of`` gives each text. A document's weights are those
    ``vectorize`` gives its terms, bit for bit. The warning for a document
    without terms calls it ``noun``."""
    ids, labels, classes, sources = list(zip(*docs))[:4]
    counts = [Counter(terms_of(source)) for source in sources]
    n = len(docs)
    df = Counter(chain.from_iterable(counts))  # a count's keys are its distinct terms
    vocabulary = sorted(df)
    term_ids = {term: t for t, term in enumerate(vocabulary)}
    idf = array("d", (math.log((1 + n) / (1 + df[term])) + 1.0 for term in vocabulary))
    offsets = array("q", accumulate((df[term] for term in vocabulary), initial=0))
    positions, weights = array("i", [0]) * offsets[-1], array("d", [0.0]) * offsets[-1]
    free = offsets.tolist()  # each term's next unfilled posting
    for position, (doc_id, terms) in enumerate(zip(ids, counts)):
        if not terms:
            log.warning("%s %s has no terms; indexing a zero vector", noun, doc_id)
            continue
        doc_term_ids = list(map(term_ids.__getitem__, terms))
        for t, w in zip(doc_term_ids, weigh(terms.values(), terms.total(), map(idf.__getitem__, doc_term_ids))[0]):
            slot = free[t]
            positions[slot], weights[slot], free[t] = position, w, slot + 1
    common = [(offsets[t], offsets[t + 1]) for t, term in enumerate(vocabulary) if is_common(df[term], n)]
    common_norms = _norms(
        n, chain.from_iterable(positions[s:e] for s, e in common), chain.from_iterable(weights[s:e] for s, e in common)
    )
    norms, classes = _norms(n, positions, weights), tuple(map(tuple, classes))
    return CorpusIndex(ids, labels, classes, norms, term_ids, idf, offsets, positions, weights, common_norms)


def _norms(n: int, positions: Iterable[int], weights: Iterable[float]) -> array:
    """The ``n`` documents' L2 norms over the given postings, squares added
    in their order."""
    squares = [0.0] * n
    for position, w in zip(positions, weights):
        squares[position] += w * w
    return array("d", map(math.sqrt, squares))


def is_common(df: int, n: int) -> bool:
    """Whether a term that ``df`` of ``n`` documents hold is common: at least
    half of them, ``df >= ceil(n / 2)``."""
    return 2 * df >= n


def top_k(query: SourceContract, index: CorpusIndex, k: int) -> list[Neighbor]:
    """The :func:`rank` neighbors of a contract, its own id excluded."""
    return [
        Neighbor(index.ids[p], sim, i, index.labels[p], index.classes[p])
        for i, (p, sim) in enumerate(rank(index, tokenize_for_tfidf(query.source), k, query.id), start=1)
    ]


def rank(index: CorpusIndex, terms: list[str], k: int, exclude: str | None = None) -> list[tuple[int, float]]:
    """Exact top-k (document position, similarity) pairs for a query of
    ``terms``, similarity descending, ties broken by (id, position); a
    document with the id ``exclude`` never ranks.

    The query is a unit vector (:meth:`CorpusIndex.vectorize`), so a
    similarity is a dot product divided by the document's norm; the dot
    product adds one product per shared query term, in the query's term
    order. Documents that share no term score 0 and fill any remaining ranks.

    Only documents that can reach the k-th best similarity are scored. The
    postings of the rare (not ``is_common``) query terms give every document
    its exact rare part, and Cauchy-Schwarz bounds the common part by
    ``|q_common| * |d_common|``; the sum, widened by the relative ``SLACK``
    for rounding and divided by the document's norm, bounds the similarity.
    The ``PROBES + k`` best-bounded documents are scored exactly, and the k-th
    best of those scores is the cut: the documents whose bound reaches it
    are scored too, and no other can rank. A document is scored by finding
    each query term's posting for it by bisection and adding the products
    in the query's term order, as a full scan adds them, so positions,
    similarities (bit for bit) and tie order are those of the full scan.
    The full scan runs instead when the query holds no common term, when
    the cut is 0 (as when fewer than k documents share a term), or when
    scoring the documents one by one would cost more than the postings it
    reads (``BISECT_COST``).
    """
    qweights = index.vectorize(terms)
    offsets = index.offsets
    term_ids = map(index.term_ids.__getitem__, qweights)
    ranges = [(offsets[t], offsets[t + 1], qw) for t, qw in zip(term_ids, qweights.values())]  # query term order
    sims = _bounded_sims(exclude, index, ranges, k)
    if sims is None:
        log.debug("full scan of the query terms' postings (excluding %s)", exclude)
        sims = {  # _cosine, inlined: a call per document would cost a third of the scan
            p: min(1.0, dot / norm) if dot and norm else 0.0
            for p, (doc_id, norm, dot) in enumerate(zip(index.ids, index.norms, _dots(index, ranges)))
            if doc_id != exclude
        }
    return _ranked(index, sims, k)


def _dots(index: CorpusIndex, terms: list[tuple[int, int, float]]) -> list[float]:
    """Every document's dot product over the given (start, end, query weight)
    posting ranges, products added in their order."""
    positions, weights = index.positions, index.weights
    dots = [0.0] * len(index.ids)
    for start, end, qw in terms:
        for position, w in zip(positions[start:end], weights[start:end]):
            dots[position] += qw * w
    return dots


def _cosine(dot: float, norm: float) -> float:
    return min(1.0, dot / norm) if dot and norm else 0.0


def _bounded_sims(
    qid: str | None, index: CorpusIndex, terms: list[tuple[int, int, float]], k: int
) -> dict[int, float] | None:
    """Exact similarities of a set of documents that holds every document
    scoring at least the k-th best; None when a full scan is due instead.
    ``terms`` are the query's (start, end, weight) posting ranges."""
    ids, norms, positions, weights = index.ids, index.norms, index.positions, index.weights
    n = len(ids)
    common_qweights = [qw for start, end, qw in terms if is_common(end - start, n)]
    if not common_qweights:
        return None  # the scan reads no common postings
    # documents that can be scored one by one for the cost of a full scan
    budget = sum(end - start for start, end, _ in terms) / (BISECT_COST * len(terms))
    if PROBES + k > budget:
        return None
    dots = _dots(index, [term for term in terms if not is_common(term[1] - term[0], n)])
    qcommon = math.sqrt(sum(qw * qw for qw in common_qweights))
    widen = 1.0 + SLACK
    bounds = [
        (dot + qcommon * dcommon) * widen / norm if norm else 0.0
        for dot, dcommon, norm in zip(dots, index.common_norms, norms)
    ]

    def similarity(p: int) -> float:
        dot = 0.0
        for start, end, qw in terms:
            i = bisect_left(positions, p, start, end)
            if i < end and positions[i] == p:
                dot += qw * weights[i]
        return _cosine(dot, norms[p])

    probes = heapq.nlargest(PROBES + k, range(n), key=bounds.__getitem__)
    sims = {p: similarity(p) for p in probes if ids[p] != qid}
    # the k-th best of any k documents is at most the k-th best of all
    cut = min(heapq.nlargest(k, sims.values()), default=0.0) if len(sims) >= k else 0.0
    if cut <= 0.0:
        return None  # the zero-fill ranks documents that share no term
    survivors = [p for p, bound in enumerate(bounds) if bound >= cut and p not in sims and ids[p] != qid]
    if len(sims) + len(survivors) > budget:
        return None
    sims.update(zip(survivors, map(similarity, survivors)))
    return sims


def _ranked(index: CorpusIndex, sims: dict[int, float], k: int) -> list[tuple[int, float]]:
    """The first k (position, similarity) pairs among the scored document
    positions. Every document scoring at least the k-th best similarity (0
    when fewer than k share a term) competes for the k ranks, so ``sims``
    may leave out any document that scores below it. Repeated ids keep
    position order."""
    cut = max(0.0, min(heapq.nlargest(k, sims.values()), default=0.0))
    contenders = [p for p, sim in sims.items() if sim >= cut]
    contenders.sort(key=lambda p: (-sims[p], index.ids[p], p))
    return [(p, sims[p]) for p in contenders[:k]]


def rank_weights(m: int) -> list[float]:
    """Linear-decay rank weights (m+1-i)/sum for ranks i=1..m; they sum to 1."""
    total = m * (m + 1) / 2
    return [(m + 1 - i) / total for i in range(1, m + 1)]


def rank_weighted_probability(neighbors: list[Neighbor]) -> float:
    """Probability of vulnerability from neighbor labels, rank-weighted."""
    if not neighbors:
        return 0.0
    weights = rank_weights(len(neighbors))
    # the weights' sum may round above 1, as for k = 14
    return min(1.0, ordered_sum(w for w, nb in zip(weights, neighbors) if nb.label == "vulnerable"))


def retrieval_channel(
    query: SourceContract, neighbors: list[Neighbor], threshold: float
) -> ChannelResult:
    """Similarity retrieval as a detection channel over ``top_k``'s neighbors.

    The score is the rank-weighted vulnerable probability over the
    neighbors; neighbor vulnerability classes surface as low-confidence,
    contract-level findings.
    """
    score = rank_weighted_probability(neighbors)
    verdict = Verdict.VULNERABLE if score >= threshold else Verdict.SAFE
    classes: list[str] = []
    for nb in neighbors:
        if nb.label != "vulnerable":
            continue
        for name in nb.classes:
            if name not in classes:
                classes.append(name)
    findings = tuple(
        Finding(
            contract_id=query.id,
            vuln_class=VulnerabilityClass(name=name),
            location=Location(query.whole),
            evidence="similar contracts in the corpus share this weakness",
            channel=Channel.RETRIEVAL,
            confidence=score,
        )
        for name in classes
    )
    return ChannelResult(channel=Channel.RETRIEVAL, verdict=verdict, score=score, findings=findings)
