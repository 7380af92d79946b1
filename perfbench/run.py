#!/usr/bin/env python3
"""solguard benchmark: seeded workloads, run through the real CLI.

    python3 perfbench/run.py --workload audit-mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare BEFORE_DIR AFTER_DIR

A run generates its inputs from the seed, then runs the workload's command
as a fresh process, one after another, until at least three commands have
taken ``--seconds`` seconds, and checks every command's outputs. Set-up is
``solguard kb build`` as a fresh process, timed several times: once before
the first command and once between each two commands. With ``--trace 1`` it
instead runs the command traced once (between two untraced runs, for the
overhead) and reports the per-layer metrics. The last line of
standard output is the JSON result; the full record goes to
``.perfbench/results/<workload>/``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from responder import Unattributable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

JOBS = 2  # workers per audit command: the machine's CPU count
MIN_COMMANDS = 3  # timed commands per run, however long they take
STUB_DELAY_S = 0.020
RUN_DEADLINE_S = 170  # a command still running then is killed, so a run ends within 180 s
EVAL_VARIANTS = "W,V,E,w/o Static,w/o RAG"
ROLES = ("detector", "advisor", "assessor", "fixer", "verifier")


@dataclass(frozen=True)
class Workload:
    kind: str  # audit | eval
    provider: str  # mock | stub
    corpus_docs: int
    sizes: list[tuple[str, int, int]] = field(default_factory=list)  # (size class, target bytes, count)
    vulnerable_share: float = 0.5
    eval_contracts: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "audit-mixed": Workload(
        kind="audit", provider="mock", corpus_docs=1000,
        sizes=[("small", 1_000, 16), ("medium", 10_000, 6), ("large", 100_000, 2)], vulnerable_share=0.5,
    ),
    "audit-rtt": Workload(
        kind="audit", provider="stub", corpus_docs=15, sizes=[("small", 1_000, 24)], vulnerable_share=0.75,
    ),
    "eval-20k": Workload(kind="eval", provider="mock", corpus_docs=20_000, eval_contracts=16),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Command:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_command(
    args: list[str], cwd: Path, log: Path, deadline: float,
    trace_out: Path | None = None, count_out: Path | None = None,
) -> Command:
    """Run one ``solguard`` process to completion; wall time and peak RSS.

    ``trace_out`` and ``count_out`` ask ``solguard_cmd.py`` for its spans and
    its model-call counts. The process is killed if it is still running at
    ``deadline`` (``time.monotonic``).
    """
    env = dict(os.environ)
    for name, path in (("PERFBENCH_TRACE_OUT", trace_out), ("PERFBENCH_COUNT_OUT", count_out)):
        env.pop(name, None)
        if path is not None:
            env[name] = str(path)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "solguard_cmd.py"), *args], cwd=cwd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def require(cmd: Command, what: str) -> None:
    if cmd.returncode != 0:
        raise BenchError(f"{what} exited with {cmd.returncode}:\n{cmd.stderr[-2000:]}")


# -- correctness ---------------------------------------------------------


def check_audit(cmd: Command, out_dir: Path, contracts) -> tuple[int, list[str], dict[str, str]]:
    """(failed contracts, problems, run.json digests) of one audit command.

    A contract fails when it errored, recorded a stage error, or produced
    degraded output (an incomplete suggestion or a defaulted risk level,
    which is what an ``UNKNOWN`` replay turns into). Its verdict must equal
    the generated label, and a vulnerable contract must reach a passing
    ``verify``.
    """
    problems: list[str] = []
    if cmd.returncode != 0:
        problems.append(f"audit exited with {cmd.returncode}")
    failed = 0
    digests: dict[str, str] = {}
    for c in contracts:
        path = out_dir / f"{c.id}.run.json"
        try:
            raw = path.read_bytes()
            run = json.loads(raw)
        except (OSError, ValueError) as exc:
            failed += 1
            problems.append(f"{c.id}: no run record ({exc})")
            continue
        digests[c.id] = hashlib.sha256(raw).hexdigest()
        why = []
        if run["verdict"]["verdict"] != c.label:
            why.append(f"verdict {run['verdict']['verdict']} != label {c.label}")
        if run["errors"]:
            why.append(f"stage errors {run['errors']}")
        if any(not s["complete"] for s in run["suggestions"]):
            why.append("incomplete suggestion")
        if any(a["defaulted"] for a in run["risk"]["assignments"]):
            why.append("defaulted risk level")
        if c.label == "vulnerable":
            if "verify" not in run["stages"]:
                why.append(f"did not reach verify (stages {run['stages']})")
            elif not run["verification"]["passed"]:
                why.append("planted patch failed verification")
        if why:
            failed += 1
            problems.append(f"{c.id}: {'; '.join(why)}")
    return failed, problems, digests


EXPECTED_EVAL = {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0, "fpr": 0.0}


def check_eval(cmd: Command, results: Path, contracts) -> tuple[int, list[str], dict[str, str]]:
    """Every variant must score the generator's expected metrics.

    Verdicts follow the model channel (weight 0.7 against a 0.5 threshold)
    and, in voting, the static channel agrees with it on these fixtures, so
    every variant classifies every contract correctly.
    """
    problems: list[str] = []
    try:
        raw = results.read_bytes()
        payload = json.loads(raw)
    except (OSError, ValueError) as exc:
        return len(contracts), [f"eval exited with {cmd.returncode}, no results ({exc})"], {}
    if cmd.returncode != 0:
        problems.append(f"eval exited with {cmd.returncode}")
    failures = 0
    names = []
    for report in payload["results"]:
        names.append(report["variant"])
        failures = max(failures, report["failures"])
        for key, expected in EXPECTED_EVAL.items():
            if report[key] != expected:
                problems.append(f"{report['variant']}: {key} {report[key]} != {expected}")
        if report["evaluated"] + report["failures"] != len(contracts):
            problems.append(f"{report['variant']}: {report['evaluated']} evaluated of {len(contracts)}")
    if names != ["weighted", "voting", "enriched", "no-static", "no-rag"]:
        problems.append(f"variants reported {names}")
    rows = {line.split()[0]: line.split()[1:] for line in cmd.stdout.splitlines() if line.split()[:1] and line.split()[0] in names}
    for name in names:
        table = [float(x) for x in rows.get(name, [])]
        want = [EXPECTED_EVAL[k] for k in ("f1", "recall", "precision", "accuracy", "fpr")]
        if table != want:
            problems.append(f"table row {name}: {table} != {want}")
    if failures:
        problems.append(f"{failures} contracts failed and were excluded")
    # a wrong table cannot be pinned on one contract, so it fails them all
    failed = failures or (len(contracts) if problems else 0)
    return failed, problems, {"eval_results.json": hashlib.sha256(raw).hexdigest()}


# -- the run ---------------------------------------------------------------


def write_config(path: Path, index_root: Path, out_dir: Path, providers: dict[str, dict]) -> None:
    lines = [
        "mode: weighted",
        "weights: {model: 0.7, static: 0.1, retrieval: 0.2}",
        "threshold: 0.5",
        "k: 5",
        f"index_root: {json.dumps(str(index_root))}",
        f"output_dir: {json.dumps(str(out_dir))}",
        "providers:",
    ]
    lines += [f"  {role}: {json.dumps(record)}" for role, record in providers.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    from generate import (
        Fixtures, audit_contracts, copy_kb_docs, corpus_records, eval_contracts,
        write_contracts, write_corpus, write_dataset,
    )
    from responder import Responder, StubServer, record_transcript
    from solguard.agents.config import load_config
    from solguard.agents.pipeline import build_context, run_pipeline
    from solguard.evaluation import load_dataset, normalize_variant, run_variants
    from solguard.llm.prompts import REPAIR_INSTRUCTION
    from solguard.static_analysis.rules import default_ruleset
    from solguard.static_analysis.scanner import load_file

    wl = WORKLOADS[workload_name]
    work = STATE / "work" / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record: dict = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    stub = None
    try:
        # inputs: generated here, not part of any reported time but generate_s
        t0 = time.perf_counter()
        catalog = {r.rule_id: (r.vuln_class.name, r.vuln_class.swc_id) for r in default_ruleset()}
        fx = Fixtures(ROOT / "fixtures", catalog)
        if wl.kind == "audit":
            contracts = audit_contracts(fx, seed, wl.sizes, wl.vulnerable_share)
            write_contracts(work / "contracts", contracts)
        else:
            contracts = eval_contracts(fx, seed, wl.eval_contracts)
            write_dataset(work / "dataset.jsonl", contracts)
        write_corpus(work / "corpus.jsonl", corpus_records(fx, seed, wl.corpus_docs))
        copy_kb_docs(fx, work / "kb_docs")
        record["generate_s"] = time.perf_counter() - t0
        record["contracts"] = len(contracts)
        record["input_kb"] = sum(len(c.source.encode("utf-8")) for c in contracts) / 1024

        # set-up: `kb build` as a fresh process. The workload uses the first
        # build's index; the repeats, which only time set-up, run one between
        # each two timed commands, so both kinds of sample spread evenly over the
        # whole run and average more of the machine's slow and fast stretches.
        setup_walls: list[float] = []

        def build(trace_out: Path | None = None) -> None:
            r = len(setup_walls)
            cmd = run_command(
                ["kb", "build", "--corpus", str(work / "corpus.jsonl"), "--docs", str(work / "kb_docs"),
                 "--index-root", str(work / f"index{r}")],
                work, work / f"setup{r}", deadline, trace_out,
            )
            require(cmd, "kb build")
            setup_walls.append(cmd.wall_s)

        index_root = work / "index0"
        build(work / "build.trace.json" if trace else None)
        build_trace = json.loads((work / "build.trace.json").read_text(encoding="utf-8")) if trace else None

        # providers: a transcript recorded now with the code under test, or the stub
        responder = Responder(contracts, REPAIR_INSTRUCTION)
        out_dir = work / "out"
        config_path = work / "config.yaml"
        transcript = work / "transcript.jsonl"
        models = {role: f"bench-{role}" for role in ROLES}
        if wl.provider == "stub":
            stub = StubServer(responder, {m: r for r, m in models.items()}, STUB_DELAY_S, max_inflight=JOBS)
            stub.start()
            providers = {
                role: {"kind": "http-endpoint", "model_id": models[role], "endpoint": stub.endpoint, "timeout_s": 30}
                for role in ROLES
            }
        else:
            transcript.write_text("", encoding="utf-8")
            providers = {
                role: {"kind": "mock", "model_id": models[role], "transcript": str(transcript)}
                for role in (ROLES if wl.kind == "audit" else ("detector",))
            }
        write_config(config_path, index_root, out_dir, providers)
        if wl.kind == "audit":
            args = ["audit", str(work / "contracts"), "-c", str(config_path), "--jobs", str(JOBS)]
        else:
            args = ["eval", str(work / "dataset.jsonl"), "-c", str(config_path), "--variants", EVAL_VARIANTS,
                    "--out", str(out_dir / "eval_results.json")]

        if wl.provider == "mock":
            t0 = time.perf_counter()
            ctx = build_context(load_config(config_path), roles=tuple(providers))
            if wl.kind == "audit":
                def drive(c):
                    for contract in contracts:
                        run_pipeline(load_file(work / "contracts" / f"{contract.id}.sol", contract.id), c)
            else:
                def drive(c):
                    dataset = load_dataset(work / "dataset.jsonl")
                    run_variants(dataset, [normalize_variant(v) for v in EVAL_VARIANTS.split(",")], c)
            record_transcript(ctx, responder, drive, str(transcript))
            del ctx
            record["record_s"] = time.perf_counter() - t0
        # model calls and prompt bytes of each timed command: at the stub, or
        # at the providers' ``complete`` inside the command
        record["model_calls_counted_at"] = "the stub" if stub else "the providers' complete"
        record["model_calls"] = []
        record["prompt_bytes"] = []

        def timed(i: int, trace_out: Path | None = None) -> tuple[Command, int, list[str], dict[str, str]]:
            shutil.rmtree(out_dir, ignore_errors=True)
            if stub:
                stub.reset()
            count_out = None if stub else work / f"cmd{i}.counts.json"
            cmd = run_command(args, work, work / f"cmd{i}", deadline, trace_out, count_out)
            if wl.kind == "audit":
                failed, problems, digests = check_audit(cmd, out_dir, contracts)
            else:
                failed, problems, digests = check_eval(cmd, out_dir / "eval_results.json", contracts)
            if stub:
                if stub.unattributed:
                    problems.append(f"stub could not attribute {len(stub.unattributed)} requests: {stub.unattributed[:3]}")
                record["model_calls"].append(stub.calls)
                record["prompt_bytes"].append(stub.prompt_bytes)
                record.setdefault("stub_request_bytes", []).append(stub.request_bytes)
                record.setdefault("calls_by_role", stub.calls_by_role)
            elif count_out.is_file():
                counts = json.loads(count_out.read_text(encoding="utf-8"))
                record["model_calls"].append(counts["calls"])
                record["prompt_bytes"].append(counts["prompt_bytes"])
            return cmd, failed, problems, digests

        commands: list[Command] = []
        attempted = failed_total = 0
        problems_all: list[str] = []
        first_digests: dict[str, str] | None = None
        command_trace = None
        plan = ["untraced", "traced", "untraced"] if trace else None
        i = 0
        while True:
            traced_now = bool(plan) and plan[i] == "traced"
            trace_out = work / f"cmd{i}.trace.json" if traced_now else None
            cmd, failed, problems, digests = timed(i, trace_out)
            attempted += len(contracts)
            failed_total += failed
            problems_all += problems
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                diff = sorted(k for k in set(digests) | set(first_digests) if digests.get(k) != first_digests.get(k))
                problems_all.append(f"outputs differ between runs of the same seed: {diff[:5]}")
            if traced_now:
                command_trace = json.loads(trace_out.read_text(encoding="utf-8"))
                record["traced_wall_s"] = cmd.wall_s
            else:
                commands.append(cmd)
            i += 1
            if plan:
                if i == len(plan):
                    break
            elif i >= MIN_COMMANDS and sum(c.wall_s for c in commands) >= seconds:
                break
            else:
                build()
        record["setup_s_samples"] = setup_walls
        record["wall_s_samples"] = [c.wall_s for c in commands]
        record["peak_rss_mb_samples"] = [c.peak_rss_mb for c in commands]
        record["attempted"] = attempted
        record["failed"] = failed_total
        record["problems"] = problems_all
        record["correct"] = not problems_all and failed_total == 0
        n = len(contracts)
        if not record["model_calls"]:
            raise BenchError("no command reported its model calls")
        record["end_to_end"] = {
            "contracts_per_s": (statistics.median(n / w for w in record["wall_s_samples"]), "1/s", len(commands)),
            "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
            "peak_rss_mb": (statistics.median(record["peak_rss_mb_samples"]), "MB", len(commands)),
            "failed_ratio": (failed_total / attempted, "ratio", attempted),
            "model_calls_per_contract": (statistics.median(record["model_calls"]) / n, "count", len(record["model_calls"])),
            "prompt_kb_per_contract": (statistics.median(record["prompt_bytes"]) / 1024 / n, "KB", len(record["prompt_bytes"])),
        }
        if trace:
            from tracing import Metric, summarize

            untraced = statistics.mean(record["wall_s_samples"])
            traced = record["traced_wall_s"]
            layers = summarize(command_trace, build_trace, n)
            layers.append(Metric("trace.overhead_s", traced - untraced, "s",
                                 f"traced {traced:.3f} s - mean untraced {untraced:.3f} s"))
            record["per_layer"] = {m.name: (m.value, m.unit, m.base) for m in layers}
            record["trace_missing"] = command_trace["missing"]
        return record
    finally:
        if stub:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  contracts {record['contracts']} "
          f"({record['input_kb']:.1f} KB)  generate {record['generate_s']:.2f} s"
          + (f"  record transcript {record['record_s']:.2f} s" if "record_s" in record else ""))
    for name, (value, unit, samples) in record["end_to_end"].items():
        print(f"  {name:<28} {value:>12.4f} {unit:<6} n={samples}")
    print(f"  model calls counted at {record['model_calls_counted_at']}"
          + (f", by role {record['calls_by_role']}, request bytes per command {record['stub_request_bytes']}"
             if "calls_by_role" in record else ""))
    for name, (value, unit, base) in record.get("per_layer", {}).items():
        print(f"  {name:<52} {value:>12.4f} {unit:<6} {base}")
    if record.get("trace_missing"):
        print(f"  not traced (absent from the program): {record['trace_missing']}")
    for problem in record["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import compare_main

        return compare_main(argv[1:], load_benchmark())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "solguard" / "cli.py", ROOT / "fixtures" / "rules" / "manifest.json", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = load_benchmark()
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, Unattributable) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = STATE / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    (results / f"seed-{args.seed}-trace-{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_record(record)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
