"""Reference corpus build: the two-pass ``build_corpus_index`` that
``solguard.retrieval.tfidf`` replaced with one count per document, kept as a
test oracle.

It tokenizes every document with ``re.findall``, takes the document
frequencies from a ``set`` of each document's terms, then weighs each
document through ``_tfidf_vector`` and fills the postings from its dict.
The one-count build must return the same index bit for bit: equal ids,
labels, classes, term ids, offsets and positions, and the same bytes of
``norms``, ``idf``, ``weights`` and ``common_norms``;
``tests/test_retrieval.py`` and ``tools/check_top_k.py`` require that. The
code below is the replaced code as it was, except that it returns the
document columns that ``CorpusIndex`` now holds in place of one record per
document.

Never import this module from ``src/``.
"""

from __future__ import annotations

import logging
import math
import re
from array import array
from collections import Counter
from itertools import accumulate, chain
from operator import mul
from typing import Iterable

from solguard.core import ordered_sum
from solguard.retrieval.terms import _STRIP_RE
from solguard.retrieval.tfidf import CorpusIndex, is_common

log = logging.getLogger(__name__)

_TERM_RE = re.compile(r"[a-z0-9]+")


def tokenize_for_tfidf(source: str) -> list[str]:
    """Lowercased alphanumeric terms of ``source``, comments and string
    contents excluded."""
    return _TERM_RE.findall(_STRIP_RE.sub(" ", source).lower())


def _tfidf_vector(terms: list[str], term_ids: dict[str, int], idf: array) -> tuple[dict[str, float], float]:
    """The L2-normalized ``(count / len(terms)) * idf`` weights of the terms
    that ``term_ids`` knows, and their norm: 1, or 0 when none is known."""
    total = len(terms)
    raw = {term: (count / total) * idf[term_ids[term]] for term, count in Counter(terms).items() if term in term_ids}
    values = raw.values()
    norm = math.sqrt(ordered_sum(map(mul, values, values)))
    if norm == 0.0:
        return raw, 0.0
    return {t: w / norm for t, w in raw.items()}, 1.0


def build_corpus_index(docs: list[tuple[str, str, tuple[str, ...], str]]) -> CorpusIndex:
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
    common = [(offsets[t], offsets[t + 1]) for t, term in enumerate(vocabulary) if is_common(df[term], n)]
    common_norms = _norms(
        n, chain.from_iterable(positions[s:e] for s, e in common), chain.from_iterable(weights[s:e] for s, e in common)
    )
    ids, labels, classes = (tuple(doc[i] for doc in docs) for i in range(3))
    norms = _norms(n, positions, weights)
    return CorpusIndex(
        ids, labels, tuple(map(tuple, classes)), norms, term_ids, idf, offsets, positions, weights, common_norms
    )


def _norms(n: int, positions: Iterable[int], weights: Iterable[float]) -> array:
    """The ``n`` documents' L2 norms over the given postings, squares added
    in their order."""
    squares = [0.0] * n
    for position, w in zip(positions, weights):
        squares[position] += w * w
    return array("d", map(math.sqrt, squares))


def same_index(built: CorpusIndex, expected: CorpusIndex) -> bool:
    """Whether two indexes are the same: equal ids, labels, classes, term ids,
    offsets and positions, and the same bytes of ``norms``, ``idf``,
    ``weights`` and ``common_norms``."""
    exact = ("ids", "labels", "classes", "term_ids", "offsets", "positions")
    bits = ("norms", "idf", "weights", "common_norms")
    return all(getattr(built, name) == getattr(expected, name) for name in exact) and all(
        getattr(built, name).tobytes() == getattr(expected, name).tobytes() for name in bits
    )
