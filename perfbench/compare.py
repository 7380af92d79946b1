"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/run.py compare BEFORE_DIR AFTER_DIR

Each directory holds result records as ``run.py`` writes them under
``.perfbench/results`` (copy that directory aside after each set of runs).
Runs pair up by workload and seed. The verdicts follow the pair rule:

- ``better``: the after side wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the before side's
  quartile distance;
- ``WORSE``: the after median is worse than the before median by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved``: a side's quartile distance, as a share of its median, is
  wider than the bound, unless every after run beats every before run;
- ``same``: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def _load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if isinstance(record, dict) and "workload" in record and "seed" in record:
            records.append(record)
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _better(a: float, b: float, higher: bool) -> bool:
    """Whether ``b`` beats ``a``."""
    return b > a if higher else b < a


def verdict(before: dict[int, float], after: dict[int, float], higher: bool, bound: float) -> tuple[str, str]:
    """(verdict, wins over pairs) for one metric of one workload, by seed."""
    a_med, a_q1, a_q3 = _quartiles(list(before.values()))
    b_med, b_q1, b_q3 = _quartiles(list(after.values()))
    seeds = sorted(set(before) & set(after))
    wins = sum(1 for s in seeds if _better(before[s], after[s], higher))
    losses = sum(1 for s in seeds if _better(after[s], before[s], higher))
    pairs = f"{wins}/{len(seeds)} (lost {losses})"
    worse_by = ((a_med - b_med) if higher else (b_med - a_med)) / abs(a_med) if a_med else 0.0
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0, (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    every_after_better = all(_better(a, b, higher) for a in before.values() for b in after.values())
    if every_after_better and seeds:
        return "better", pairs
    if spread > bound:
        return "unresolved", pairs
    if worse_by > bound:
        return "WORSE", pairs
    if seeds and wins >= WIN_SHARE * len(seeds) and abs(b_med - a_med) > (a_q3 - a_q1):
        return "better", pairs
    return "same", pairs


def _fmt(values: list[float]) -> str:
    med, q1, q3 = _quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare_main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BEFORE_DIR AFTER_DIR", file=sys.stderr)
        return 2
    before, after = (_load(Path(d)) for d in argv)
    if not before or not after:
        print("compare: both directories need result records", file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    header = f"{'workload':<12} {'metric':<52} {'before: median [q1, q3]':<34} {'after: median [q1, q3]':<34} {'change':>8}  {'wins':<14} verdict"
    print(header)
    print("-" * len(header))
    flagged = False
    for workload in workloads:
        for trace, metrics, section in ((0, spec["end_to_end"], "end_to_end"), (1, spec["per_layer"], "per_layer")):
            a_runs = {r["seed"]: r for r in before if r["workload"] == workload and r["trace"] == trace}
            b_runs = {r["seed"]: r for r in after if r["workload"] == workload and r["trace"] == trace}
            if not a_runs or not b_runs:
                continue
            for m in metrics:
                a = {s: r[section][m["name"]][0] for s, r in a_runs.items() if m["name"] in r[section]}
                b = {s: r[section][m["name"]][0] for s, r in b_runs.items() if m["name"] in r[section]}
                if not a or not b:
                    continue
                a_med, b_med = statistics.median(a.values()), statistics.median(b.values())
                change = f"{(b_med - a_med) / abs(a_med):+.1%}" if a_med else "n/a"
                if "bound" in m:
                    result, wins = verdict(a, b, m["better"] == "higher", m["bound"])
                    flagged |= result == "WORSE"
                else:
                    result, wins = "(per layer, no bound)", ""
                print(f"{workload:<12} {m['name']:<52} {_fmt(list(a.values())):<34} {_fmt(list(b.values())):<34} {change:>8}  {wins:<14} {result}")
    return 1 if flagged else 0
