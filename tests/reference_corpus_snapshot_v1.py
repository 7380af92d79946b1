"""Reference corpus snapshot, format 1: the ``idf.json`` and ``docs.jsonl``
writer and reader that format 2 of
``solguard.retrieval.snapshot.CorpusSnapshotStore`` replaced, with the
per-term postings dict they filled and the ``top_k`` that read it, kept as
a test oracle.

``tests/test_snapshot.py`` requires a format-1 and a format-2 snapshot of
the same corpus to give identical ``top_k`` results and bit-identical
document norms, and pins the format-1 bytes of the fixture corpus. The code
below is the replaced code as it was, except that:

- ``write_v1`` takes a format-2 ``CorpusIndex`` and regroups its flat
  postings per document (``document_weights``);
- a document norm is summed with an explicit loop in the stored (ascending)
  term order, which gives the bits that ``sum()`` gave before Python 3.12.

Never import this module from ``src/``.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from solguard.core import SourceContract
from solguard.errors import SnapshotError
from solguard.jsonl import read_jsonl
from solguard.records import Record, mapping, string, strings
from solguard.retrieval.terms import tokenize_for_tfidf
from solguard.retrieval.tfidf import CorpusDocument, CorpusIndex, Neighbor

_NO_POSTINGS: tuple[array, array] = (array("i"), array("d"))

# term -> (ascending document positions, the documents' weights for the term)
Postings = dict[str, tuple[array, array]]


def idf_map(index: CorpusIndex) -> dict[str, float]:
    """A format-2 index's idf as a term -> weight map."""
    return dict(zip(index.term_ids, index.idf))


def document_weights(index: CorpusIndex) -> list[dict[str, float]]:
    """Each document's term->weight map, in ascending term order, regrouped
    from a format-2 index's flat postings."""
    regrouped: list[dict[str, float]] = [{} for _ in index.documents]
    for term, t in index.term_ids.items():
        for i in range(index.offsets[t], index.offsets[t + 1]):
            regrouped[index.positions[i]][term] = index.weights[i]
    return regrouped


def l2_norm(weights: dict[str, float]) -> float:
    """L2 norm of a term->weight map, summed one square at a time in the
    map's order."""
    total = 0.0
    for w in weights.values():
        total += w * w
    return math.sqrt(total)


def add_postings(postings: Postings, position: int, weights: dict[str, float]) -> None:
    """Append one document's term weights to the postings lists."""
    for term, w in weights.items():
        entry = postings.get(term)
        if entry is None:
            entry = postings[term] = (array("i"), array("d"))
        entry[0].append(position)
        entry[1].append(w)


@dataclass(frozen=True)
class V1CorpusIndex:
    """The replaced in-memory index: one postings list per term."""

    documents: tuple[CorpusDocument, ...]
    idf: dict[str, float]
    postings: Postings = field(default_factory=dict)
    snapshot_version: int = 0

    def vectorize(self, terms: list[str]) -> tuple[dict[str, float], float]:
        total = len(terms)
        raw = {term: (count / total) * self.idf[term] for term, count in Counter(terms).items() if term in self.idf}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        if norm == 0.0:
            return raw, 0.0
        return {t: w / norm for t, w in raw.items()}, 1.0


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=0), encoding="utf-8")


def write_v1(target: Path, index: CorpusIndex) -> None:
    """Write ``index`` as a format-1 version directory ``target``."""
    target.mkdir(parents=True, exist_ok=True)
    _write_json(target / "idf.json", idf_map(index))
    with open(target / "docs.jsonl", "w", encoding="utf-8") as fh:
        for doc, weights in zip(index.documents, document_weights(index)):
            record = {"id": doc.id, "label": doc.label, "classes": list(doc.classes), "vector": weights}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_json(
        target / "meta.json",
        {"kind": "corpus", "version": index.snapshot_version, "documents": len(index.documents)},
    )


def publish_v1(root: Path, index: CorpusIndex) -> Path:
    """A store root whose live version 1 is ``index`` in format 1; returns
    the version directory."""
    target = root / "1"
    write_v1(target, dataclasses.replace(index, snapshot_version=1))
    (root / "CURRENT").write_text("1\n", encoding="utf-8")
    return target


def _checked_norm(weights: object) -> float:
    try:
        norm = l2_norm(weights)
        if math.isfinite(norm) and min(weights.values(), default=0) >= 0:
            return norm
    except (AttributeError, TypeError):
        pass
    raise ValueError("term weights must be finite numbers >= 0")


DOC_RECORD = Record({"id": string(), "label": string(), "classes": strings(), "vector": mapping()})


def load_v1(target: Path) -> V1CorpusIndex:
    """Read the format-1 version directory ``target``."""
    meta = json.loads((target / "meta.json").read_text(encoding="utf-8"))
    idf = json.loads((target / "idf.json").read_text(encoding="utf-8"))
    try:
        _checked_norm(idf)
        if bool in set(map(type, idf.values())):
            raise ValueError("term weights must be numbers, not booleans")
    except ValueError as exc:
        raise SnapshotError(f"snapshot file {target / 'idf.json'} is corrupt: {exc}") from exc
    documents: list[CorpusDocument] = []
    postings: Postings = {}

    def read(rec: dict) -> None:
        vector = rec["vector"]
        doc = CorpusDocument(rec["id"], rec["label"], tuple(rec["classes"]), _checked_norm(vector))
        add_postings(postings, len(documents), vector)
        documents.append(doc)

    read_jsonl(target / "docs.jsonl", read, SnapshotError, DOC_RECORD)
    return V1CorpusIndex(tuple(documents), idf, postings, snapshot_version=int(meta["version"]))


def top_k_v1(query: SourceContract, index: V1CorpusIndex, k: int) -> list[Neighbor]:
    """The replaced ``top_k``, over the per-term postings."""
    qweights, qnorm = index.vectorize(tokenize_for_tfidf(query.source))
    documents = index.documents
    dots = [0.0] * len(documents)
    for term, qw in qweights.items():
        positions, weights = index.postings.get(term, _NO_POSTINGS)
        for position, w in zip(positions, weights):
            dots[position] += qw * w
    qid = query.id
    sims = [
        -1.0 if doc.id == qid
        else min(1.0, dot / (qnorm * doc.norm)) if dot and doc.norm
        else 0.0
        for doc, dot in zip(documents, dots)
    ]
    cut = max(0.0, min(heapq.nlargest(k, sims), default=0.0))
    contenders = [position for position, sim in enumerate(sims) if sim >= cut]
    contenders.sort(key=lambda position: (-sims[position], documents[position].id))
    return [
        Neighbor(documents[p].id, sims[p], rank, documents[p].label, documents[p].classes)
        for rank, p in enumerate(contenders[:k], start=1)
    ]
