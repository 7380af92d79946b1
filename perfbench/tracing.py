"""Span recorder for a traced ``solguard`` process.

``install`` wraps the public functions named in ``TARGETS`` in every loaded
``solguard`` module, before the CLI starts. Each call becomes a span (name,
start, end, parent, contract id, attributes). Parents come from a
thread-local stack, because ``audit --jobs 2`` runs contracts on threads.
Spans stay in memory and are written out when the process ends.

``summarize`` turns a trace file into the per-layer metrics. A layer's self
time is its span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


def _contract(args, kwargs):
    return {"contract": args[0].id}


def _source_bytes(args, kwargs):
    return {"bytes": len(args[0].encode("utf-8"))}


def _completion(args, kwargs):
    prompt = args[1] if len(args) > 1 else kwargs.get("prompt", "")
    provider = args[0]
    return {"role": kwargs.get("role", ""), "kind": provider.config.kind, "prompt_bytes": len(prompt.encode("utf-8"))}


# (module, function or Class.method, span name, attributes taken from the call)
TARGETS = [
    ("solguard.static_analysis.tokenizer", "tokenize_solidity", "static_analysis.tokenize_solidity", _source_bytes),
    ("solguard.static_analysis.structure", "build_view", "static_analysis.build_view", None),
    ("solguard.static_analysis.scanner", "scan", "static_analysis.scan", None),
    ("solguard.retrieval.tfidf", "top_k", "retrieval.top_k", None),
    ("solguard.retrieval.tfidf", "build_corpus_index", "retrieval.build_corpus_index", None),
    ("solguard.retrieval.kb", "kb_search", "retrieval.kb_search", None),
    ("solguard.retrieval.snapshot", "SnapshotStore.publish", "retrieval.snapshot.publish", None),
    ("solguard.retrieval.snapshot", "SnapshotStore.load", "retrieval.snapshot.load", None),
    ("solguard.llm.template", "render_prompt", "llm.render_prompt", None),
    ("solguard.llm.mock", "MockProvider.complete", "llm.complete", _completion),
    ("solguard.llm.provider", "HttpProvider.complete", "llm.complete", _completion),
    ("solguard.llm.structured", "extract_structured", "llm.extract_structured", None),
    ("solguard.agents.detect", "ask_structured", "llm.ask_structured", None),
    ("solguard.agents.detect", "run_channels", "agents.run_channels", _contract),
    ("solguard.agents.remediate", "advise", "agents.advise", _contract),
    ("solguard.agents.remediate", "assess", "agents.assess", _contract),
    ("solguard.agents.remediate", "fix", "agents.fix", _contract),
    ("solguard.agents.remediate", "verify", "agents.verify", _contract),
    ("solguard.agents.report", "build_report", "agents.build_report", None),
    ("solguard.agents.pipeline", "build_context", "agents.build_context", None),
    ("solguard.agents.pipeline", "run_pipeline", "agents.run_pipeline", _contract),
]

# span record fields
ID, NAME, START, END, PARENT, CONTRACT, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, describe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            attrs = describe(args, kwargs) if describe else {}
            contract = attrs.pop("contract", None) or (parent[CONTRACT] if parent else None)
            span = [next(tracer._ids), name, 0.0, 0.0, parent[ID] if parent else None, contract, attrs]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside solguard's modules."""
        importlib.import_module("solguard.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("solguard") and m is not None]
        for module_name, attr, span_name, describe in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span_name, original, describe)
            if cls_path:
                setattr(owner, fn_name, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def _by_name(spans: list[list]) -> dict[str, list[list]]:
    grouped: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        grouped[s[NAME]].append(s)
    return grouped


@dataclass(frozen=True)
class Metric:
    """One per-layer figure with the base it was computed over."""

    name: str
    value: float
    unit: str
    base: str


def summarize(command_trace: dict, build_trace: dict, contracts: int) -> list[Metric]:
    """Per-layer metrics of one traced workload command and one traced
    ``kb build``; per-contract figures are over ``contracts`` contracts."""
    self_s = _self_times(command_trace["spans"])
    by_name = _by_name(command_trace["spans"])
    build_by_name = _by_name(build_trace["spans"])
    n = contracts
    per = f"over {n} contracts"
    out: list[Metric] = []

    def calls(name: str) -> None:
        k = len(by_name[name])
        out.append(Metric(f"{name}.calls_per_contract", k / n, "count", f"{k} calls {per}"))

    def self_ms(name: str) -> None:
        total = sum(self_s[s[ID]] for s in by_name[name]) * 1000
        out.append(Metric(f"{name}.ms", total / n, "ms", f"self time {total:.1f} ms {per}, {len(by_name[name])} calls"))

    def inclusive_ms(name: str) -> None:
        total = sum(s[END] - s[START] for s in by_name[name]) * 1000
        out.append(Metric(f"{name}.ms", total / n, "ms", f"wall {total:.1f} ms {per}, {len(by_name[name])} calls"))

    def seconds(name: str, pool: dict[str, list[list]], where: str) -> None:
        total = sum(s[END] - s[START] for s in pool[name])
        out.append(Metric(f"{name}.s", total, "s", f"{len(pool[name])} calls in {where}"))

    tok = by_name["static_analysis.tokenize_solidity"]
    tok_kb = sum(s[ATTRS].get("bytes", 0) for s in tok) / 1024
    calls("static_analysis.tokenize_solidity")
    tok_ms = sum(self_s[s[ID]] for s in tok) * 1000
    out.append(Metric("static_analysis.tokenize_solidity.ms_per_kb", tok_ms / tok_kb if tok_kb else 0.0, "ms/KB",
                      f"{tok_ms:.1f} ms over {tok_kb:.1f} KB lexed"))
    calls("static_analysis.build_view")
    self_ms("static_analysis.build_view")
    self_ms("static_analysis.scan")
    calls("retrieval.top_k")
    top = sorted(self_s[s[ID]] * 1000 for s in by_name["retrieval.top_k"])
    out.append(Metric("retrieval.top_k.p50_ms", statistics.median(top) if top else 0.0, "ms", f"median of {len(top)} calls"))
    calls("agents.run_channels")
    seconds("retrieval.build_corpus_index", build_by_name, "kb build")
    seconds("retrieval.snapshot.publish", build_by_name, "kb build")
    seconds("retrieval.snapshot.load", by_name, "the command")
    calls("retrieval.kb_search")
    self_ms("retrieval.kb_search")
    self_ms("llm.render_prompt")
    self_ms("llm.complete")
    self_ms("llm.extract_structured")
    calls("llm.complete")
    for role in ("detector", "advisor", "assessor", "fixer", "verifier"):
        k = sum(1 for s in by_name["llm.complete"] if s[ATTRS].get("role") == role)
        out.append(Metric(f"llm.complete.calls_per_contract.{role}", k / n, "count", f"{k} calls {per}"))
    wait = sum(s[END] - s[START] for s in by_name["llm.complete"] if s[ATTRS].get("kind") == "http-endpoint") * 1000
    out.append(Metric("llm.complete.wait_ms", wait / n, "ms", f"http round trips {wait:.1f} ms {per}"))
    completes_under: dict[int, int] = defaultdict(int)
    for s in by_name["llm.complete"]:
        if s[PARENT] is not None:
            completes_under[s[PARENT]] += 1
    asks = by_name["llm.ask_structured"]
    repairs = sum(max(0, completes_under[s[ID]] - 1) for s in asks)
    extractions = by_name["llm.extract_structured"]
    ok = sum(1 for s in extractions if "error" not in s[ATTRS])
    out.append(Metric("llm.repair_prompts", repairs, "count",
                      f"over {len(asks)} structured asks; extractions succeeded {ok}/{len(extractions)}"))
    for stage in ("advise", "assess", "fix", "verify", "build_report"):
        inclusive_ms(f"agents.{stage}")
    seconds("agents.build_context", by_name, "the command")
    runs = sorted((s[END] - s[START]) * 1000 for s in by_name["agents.run_pipeline"])
    if len(runs) >= 2:
        q = statistics.quantiles(runs, n=20, method="inclusive")
        p50, p95 = statistics.median(runs), q[18]
    else:
        p50 = p95 = runs[0] if runs else 0.0
    out.append(Metric("agents.run_pipeline.p50_ms", p50, "ms", f"{len(runs)} contracts"))
    out.append(Metric("agents.run_pipeline.p95_ms", p95, "ms", f"{len(runs)} contracts"))
    return out
