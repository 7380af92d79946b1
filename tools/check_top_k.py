#!/usr/bin/env python3
"""Check the corpus build and the bounded ``top_k`` against the code they
replaced, on full-size corpora.

For each seed, builds the benchmark's eval-20k corpus (20,000 documents) and
its 16 query contracts with ``perfbench/generate.py``. The index that
``solguard.retrieval.tfidf.build_corpus_index`` builds must equal the one the
replaced two-pass build in ``tests/reference_corpus_build.py`` builds: equal
ids, labels, classes, term ids, offsets and positions, and the same bytes of
``norms``, ``idf``, ``weights`` and ``common_norms``. The index is then published as a corpus
snapshot and loaded back, and every query is ranked with
``solguard.retrieval.tfidf.top_k`` over the loaded snapshot and with the
replaced full scan in ``tests/reference_top_k.py`` over the built index. Any
difference in neighbors, ranks or similarity bits fails the run. It prints
how many calls fell back to the full scan. Run from the repository root:

    PYTHONPATH=src python tools/check_top_k.py            # seeds 1-3
    PYTHONPATH=src python tools/check_top_k.py --seeds 4 5
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from generate import Fixtures, corpus_records, eval_contracts  # noqa: E402
from reference_corpus_build import build_corpus_index as two_pass_build  # noqa: E402
from reference_corpus_build import same_index  # noqa: E402
from reference_top_k import top_k as full_scan  # noqa: E402

from solguard.retrieval import tfidf  # noqa: E402
from solguard.retrieval.snapshot import CorpusSnapshotStore  # noqa: E402
from solguard.static_analysis.rules import default_ruleset  # noqa: E402
from solguard.static_analysis.scanner import load_source  # noqa: E402

CORPUS_DOCUMENTS = 20_000  # as the eval-20k workload
QUERIES = 16
KS = (1, 5, 20)  # 5 is the configuration default


class FullScans(logging.Handler):
    """Counts the calls that ``top_k`` answered by a full scan."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += "full scan" in record.getMessage()


def check_seed(fx: Fixtures, seed: int, full_scans: FullScans) -> int:
    """Build one seed's corpus and rank every query; return the number of mismatches."""
    records = corpus_records(fx, seed, CORPUS_DOCUMENTS)
    docs = [(r["id"], r["label"], tuple(r["classes"]), r["source"]) for r in records]
    index = tfidf.build_corpus_index(docs)
    built_alike = same_index(index, two_pass_build(docs))
    if not built_alike:
        print(f"seed {seed}: build_corpus_index differs from the two-pass build", file=sys.stderr)
    with tempfile.TemporaryDirectory() as root:
        store = CorpusSnapshotStore(root)
        store.publish(index)
        loaded = store.load()
    queries = [load_source(c.id, c.source) for c in eval_contracts(fx, seed, QUERIES)]
    mismatches, before, elapsed = int(not built_alike), full_scans.count, 0.0
    for query in queries:
        for k in KS:
            expected = full_scan(query, index, k)
            started = time.perf_counter()
            got = tfidf.top_k(query, loaded, k)
            elapsed += time.perf_counter() - started
            same = got == expected and [n.similarity.hex() for n in got] == [n.similarity.hex() for n in expected]
            if not same:
                mismatches += 1
                print(f"seed {seed}: {query.id} k={k}: top_k differs from the full scan", file=sys.stderr)
    calls = len(queries) * len(KS)
    print(
        f"seed {seed}: build {'equal to' if built_alike else 'unlike'} the two-pass build; "
        f"{calls} calls over {len(index.ids)} documents, {mismatches} mismatches, "
        f"{full_scans.count - before} full scans, top_k {elapsed * 1000 / calls:.1f} ms per call"
    )
    return mismatches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    full_scans = FullScans()
    logger = logging.getLogger(tfidf.__name__)
    logger.addHandler(full_scans)
    logger.setLevel(logging.DEBUG)
    catalog = {r.rule_id: (r.vuln_class.name, r.vuln_class.swc_id) for r in default_ruleset()}
    fx = Fixtures(ROOT / "fixtures", catalog)
    mismatches = sum(check_seed(fx, seed, full_scans) for seed in args.seeds)
    if mismatches:
        sys.exit(f"error: {mismatches} builds or top_k calls differ from the code they replaced")


if __name__ == "__main__":
    main()
