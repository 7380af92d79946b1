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
from dataclasses import dataclass, field
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

_NO_POSTINGS: tuple[array, array] = (array("i"), array("d"))


def l2_norm(weights: dict[str, float]) -> float:
    """L2 norm of a term->weight map, summed in the map's order."""
    values = weights.values()
    return math.sqrt(sum(map(mul, values, values)))


class CorpusDocument(NamedTuple):
    id: str
    label: str  # safe | vulnerable
    classes: tuple[str, ...]
    norm: float  # L2 norm of the document's tf-idf weights


# term -> (ascending document positions, the documents' weights for the term)
Postings = dict[str, tuple[array, array]]


def add_postings(postings: Postings, position: int, weights: dict[str, float]) -> None:
    """Append one document's term weights to the postings lists."""
    for term, w in weights.items():
        entry = postings.get(term)
        if entry is None:
            entry = postings[term] = (array("i"), array("d"))
        entry[0].append(position)
        entry[1].append(w)


@dataclass(frozen=True)
class CorpusIndex:
    """Term-major index: document metadata plus one postings list per term.

    The postings are built once, with the index, and only read afterwards,
    so concurrent ``top_k`` calls may share an index.
    """

    documents: tuple[CorpusDocument, ...]
    idf: dict[str, float]
    postings: Postings = field(default_factory=dict)
    snapshot_version: int = 0

    def vectorize(self, terms: list[str]) -> tuple[dict[str, float], float]:
        """Project a term list into this index's weighting space: the
        (term -> weight, L2 norm) pair."""
        return _tfidf_vector(terms, self.idf)

    def document_weights(self) -> list[dict[str, float]]:
        """Each document's term->weight map, regrouped from the postings."""
        regrouped: list[dict[str, float]] = [{} for _ in self.documents]
        for term, (positions, weights) in self.postings.items():
            for position, w in zip(positions, weights):
                regrouped[position][term] = w
        return regrouped


@dataclass(frozen=True)
class Neighbor:
    contract_id: str
    similarity: float
    rank: int  # 1-based, contiguous
    label: str
    classes: tuple[str, ...] = ()


def _tfidf_vector(terms: list[str], idf: dict[str, float]) -> tuple[dict[str, float], float]:
    """The L2-normalized ``(count / len(terms)) * idf`` weights of the terms
    that ``idf`` knows, and their norm: 1, or 0 when none is known."""
    total = len(terms)
    raw = {term: (count / total) * idf[term] for term, count in Counter(terms).items() if term in idf}
    norm = l2_norm(raw)
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
    idf = {term: math.log((1 + n) / (1 + d)) + 1.0 for term, d in df.items()}

    documents: list[CorpusDocument] = []
    postings: Postings = {}
    for (doc_id, label, classes, _), terms in zip(docs, term_lists):
        if not terms:
            log.warning("corpus document %s has no terms; indexing a zero vector", doc_id)
        weights, norm = _tfidf_vector(terms, idf)
        add_postings(postings, len(documents), weights)
        documents.append(CorpusDocument(doc_id, label, tuple(classes), norm))
    return CorpusIndex(tuple(documents), idf, postings, snapshot_version)


def top_k(query: SourceContract, index: CorpusIndex, k: int) -> list[Neighbor]:
    """Exact top-k, similarity descending, ties broken by id ascending.

    Dot products accumulate through the postings of the query's terms only,
    adding one product at a time in the query's term order. Documents that
    share no term score 0 and fill any remaining ranks in id order. The
    query's own id is excluded when present in the index.
    """
    qweights, qnorm = index.vectorize(tokenize_for_tfidf(query.source))
    documents = index.documents
    dots = [0.0] * len(documents)
    for term, qw in qweights.items():
        positions, weights = index.postings.get(term, _NO_POSTINGS)
        for position, w in zip(positions, weights):
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
    """Read a line-delimited corpus file as (id, label, classes, source) tuples.

    Each line is a JSON record {id, label, classes?, source | source_path};
    source_path is resolved relative to the corpus file.
    """
    return [(e.contract_id, e.label, e.classes, e.source) for e in load_labeled_records(path)]
