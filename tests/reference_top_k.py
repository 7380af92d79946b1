"""Reference ``top_k``: the full scan that ``solguard.retrieval.tfidf.top_k``
replaced with a bounded search, kept as a test oracle.

It scores every document that shares a query term, adding the products of
every query term's postings in the query's term order. The bounded search
must return the same neighbors with bit-identical similarities, ranks and
tie order; ``tests/test_retrieval.py`` and ``tools/check_top_k.py`` require
that. The code below is the replaced function as it was, except that it
reads the document columns that ``CorpusIndex`` now holds in place of one
record per document, and divides by the document's norm alone, since the
query is a unit vector.

Never import this module from ``src/``.
"""

from __future__ import annotations

import heapq

from solguard.core import SourceContract
from solguard.retrieval.terms import tokenize_for_tfidf
from solguard.retrieval.tfidf import CorpusIndex, Neighbor


def top_k(query: SourceContract, index: CorpusIndex, k: int) -> list[Neighbor]:
    """Exact top-k, similarity descending, ties broken by id ascending.

    Dot products accumulate through the postings of the query's terms only,
    adding one product at a time in the query's term order. Documents that
    share no term score 0 and fill any remaining ranks in id order. The
    query's own id is excluded when present in the index.
    """
    qweights = index.vectorize(tokenize_for_tfidf(query.source))  # a unit vector
    ids, norms, offsets, positions, weights = index.ids, index.norms, index.offsets, index.positions, index.weights
    dots = [0.0] * len(ids)
    for term, qw in qweights.items():
        t = index.term_ids[term]
        start, end = offsets[t], offsets[t + 1]
        for position, w in zip(positions[start:end], weights[start:end]):
            dots[position] += qw * w
    qid = query.id
    sims = [
        -1.0 if doc_id == qid  # never ranked
        else min(1.0, dot / norm) if dot and norm
        else 0.0
        for doc_id, norm, dot in zip(ids, norms, dots)
    ]
    # every document scoring at least the k-th best similarity (0 when fewer
    # than k share a term) competes for the k ranks
    cut = max(0.0, min(heapq.nlargest(k, sims), default=0.0))
    contenders = [position for position, sim in enumerate(sims) if sim >= cut]
    contenders.sort(key=lambda position: (-sims[position], ids[position]))
    return [
        Neighbor(ids[p], sims[p], rank, index.labels[p], index.classes[p])
        for rank, p in enumerate(contenders[:k], start=1)
    ]
