"""Contract-similarity index: TF-IDF vectors, cosine ranking, and the
retrieval detection channel.

Weighting scheme (stated exactly so independent oracles can reproduce it):
tf = term count / document term count; idf = ln((1+N)/(1+df)) + 1;
weight = tf * idf; vectors are L2-normalized. Neighbor ranks are weighted
linearly, rank 1 heaviest, weights summing to 1.
"""

from __future__ import annotations

import heapq
import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from pathlib import Path
from typing import NamedTuple

from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    SourceContract,
    Span,
    Verdict,
    VulnerabilityClass,
    byte_length,
)
from solguard.jsonl import load_labeled_records
from solguard.retrieval.terms import tokenize_for_tfidf

log = logging.getLogger(__name__)


class CorpusDocument(NamedTuple):
    id: str
    label: str  # safe | vulnerable
    classes: tuple[str, ...]
    norm: float  # L2 norm of the document's tf-idf weights


@dataclass(frozen=True)
class CorpusIndex:
    """Term-major index over flat arrays, the layout of a published snapshot.

    Term ids follow sorted term order. Term ``t``'s postings are
    ``positions[offsets[t]:offsets[t + 1]]``, ascending document positions,
    and the same slice of ``weights``. A document's norm is the square root
    of its squared weights added in this flat order, so ascending term order.
    Built once and only read afterwards, so concurrent ``top_k`` calls may
    share an index.
    """

    documents: tuple[CorpusDocument, ...]
    term_ids: dict[str, int]
    idf: array  # "d", by term id
    offsets: array  # "q", one more than there are terms
    positions: array  # "i"
    weights: array  # "d"
    snapshot_version: int = 0

    def vectorize(self, terms: list[str]) -> tuple[dict[str, float], float]:
        """Project a term list into this index's weighting space: the
        (term -> weight, L2 norm) pair."""
        return _tfidf_vector(terms, self.term_ids, self.idf)


@dataclass(frozen=True)
class Neighbor:
    contract_id: str
    similarity: float
    rank: int  # 1-based, contiguous
    label: str
    classes: tuple[str, ...] = ()


def _tfidf_vector(terms: list[str], term_ids: dict[str, int], idf: array) -> tuple[dict[str, float], float]:
    """The L2-normalized ``(count / len(terms)) * idf`` weights of the terms
    that ``term_ids`` knows, and their norm: 1, or 0 when none is known."""
    total = len(terms)
    raw = {term: (count / total) * idf[term_ids[term]] for term, count in Counter(terms).items() if term in term_ids}
    values = raw.values()
    norm = math.sqrt(sum(map(mul, values, values)))
    if norm == 0.0:
        return raw, 0.0
    return {t: w / norm for t, w in raw.items()}, 1.0


def build_corpus_index(
    docs: list[tuple[str, str, tuple[str, ...], str]],
    snapshot_version: int = 0,
) -> CorpusIndex:
    """Index labeled contracts given as (id, label, classes, source) tuples."""
    if not docs:
        raise ValueError("corpus must contain at least one document")
    term_lists = [tokenize_for_tfidf(source) for _, _, _, source in docs]
    n = len(docs)
    df: Counter[str] = Counter()
    for terms in term_lists:
        df.update(set(terms))
    vocabulary = sorted(df)
    term_ids = {term: t for t, term in enumerate(vocabulary)}
    idf = array("d", (math.log((1 + n) / (1 + df[term])) + 1.0 for term in vocabulary))
    offsets = array("q", accumulate((df[term] for term in vocabulary), initial=0))
    positions, weights = array("i", [0]) * offsets[-1], array("d", [0.0]) * offsets[-1]
    free = offsets.tolist()  # each term's next unfilled posting
    for position, ((doc_id, _, _, _), terms) in enumerate(zip(docs, term_lists)):
        if not terms:
            log.warning("corpus document %s has no terms; indexing a zero vector", doc_id)
        for term, w in _tfidf_vector(terms, term_ids, idf)[0].items():
            t = term_ids[term]
            slot = free[t]
            positions[slot], weights[slot], free[t] = position, w, slot + 1
    squares = [0.0] * n
    for position, w in zip(positions, weights):
        squares[position] += w * w
    documents = (
        CorpusDocument(doc_id, label, tuple(classes), math.sqrt(square))
        for (doc_id, label, classes, _), square in zip(docs, squares)
    )
    return CorpusIndex(tuple(documents), term_ids, idf, offsets, positions, weights, snapshot_version)


def top_k(query: SourceContract, index: CorpusIndex, k: int) -> list[Neighbor]:
    """Exact top-k, similarity descending, ties broken by id ascending.

    Dot products accumulate through the postings of the query's terms only,
    adding one product at a time in the query's term order. Documents that
    share no term score 0 and fill any remaining ranks in id order. The
    query's own id is excluded when present in the index.
    """
    qweights, qnorm = index.vectorize(tokenize_for_tfidf(query.source))
    documents, offsets, positions, weights = index.documents, index.offsets, index.positions, index.weights
    dots = [0.0] * len(documents)
    for term, qw in qweights.items():
        t = index.term_ids[term]
        start, end = offsets[t], offsets[t + 1]
        for position, w in zip(positions[start:end], weights[start:end]):
            dots[position] += qw * w
    qid = query.id
    sims = [
        -1.0 if doc.id == qid  # never ranked
        else min(1.0, dot / (qnorm * doc.norm)) if dot and doc.norm
        else 0.0
        for doc, dot in zip(documents, dots)
    ]
    # every document scoring at least the k-th best similarity (0 when fewer
    # than k share a term) competes for the k ranks
    cut = max(0.0, min(heapq.nlargest(k, sims), default=0.0))
    contenders = [position for position, sim in enumerate(sims) if sim >= cut]
    contenders.sort(key=lambda position: (-sims[position], documents[position].id))
    return [
        Neighbor(documents[p].id, sims[p], rank, documents[p].label, documents[p].classes)
        for rank, p in enumerate(contenders[:k], start=1)
    ]


def rank_weights(m: int) -> list[float]:
    """Linear-decay rank weights (m+1-i)/sum for ranks i=1..m; they sum to 1."""
    total = m * (m + 1) / 2
    return [(m + 1 - i) / total for i in range(1, m + 1)]


def rank_weighted_probability(neighbors: list[Neighbor]) -> float:
    """Probability of vulnerability from neighbor labels, rank-weighted."""
    if not neighbors:
        return 0.0
    weights = rank_weights(len(neighbors))
    return sum(w for w, nb in zip(weights, neighbors) if nb.label == "vulnerable")


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
    whole = Location(span=Span(0, byte_length(query.source)), function="")
    findings = tuple(
        Finding(
            contract_id=query.id,
            vuln_class=VulnerabilityClass(name=name),
            location=whole,
            evidence="similar contracts in the corpus share this weakness",
            channel=Channel.RETRIEVAL,
            confidence=score,
        )
        for name in classes
    )
    return ChannelResult(channel=Channel.RETRIEVAL, verdict=verdict, score=score, findings=findings)


def load_corpus_file(path: str | Path) -> list[tuple[str, str, tuple[str, ...], str]]:
    """Read a corpus file of :data:`~solguard.jsonl.LABELED_RECORD` lines as
    (id, label, classes, source) tuples."""
    return [(e.contract_id, e.label, e.classes, e.source) for e in load_labeled_records(path)]
