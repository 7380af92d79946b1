"""Command-line surface: audit, detect, kb, eval, calibrate.

Exit codes: 0 success, 1 processing errors (some contract failed, or audit
recorded a stage error), 2 usage or configuration errors. A vulnerable
verdict alone never fails the exit code; gate CI with --fail-on-vulnerable
instead.

``audit`` and ``detect`` read their contracts through one loop. A contract
that cannot be read, is not UTF-8, or cannot be lexed or segmented prints
``<id>: error: ...`` and the batch goes on with the next contract.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

import click
import yaml

from solguard.agents.config import MODES, WEIGHTS, PipelineConfig, apply_overrides, load_config
from solguard.agents.detect import detect as run_detect
from solguard.agents.pipeline import PipelineContext, PipelineRun, build_context, run_pipeline
from solguard.core import SourceContract, Verdict, gc_paused, payload
from solguard.errors import ConfigError, SnapshotError, SolguardError
from solguard.evaluation import (
    calibrate_threshold,
    format_table,
    fused_variants,
    load_dataset,
    run_variants,
)
from solguard.jsonl import LabeledRow, file_id, load_labeled_records, read_text, read_yaml
from solguard.retrieval.kb import build_kb_index, load_kb_documents
from solguard.retrieval.snapshot import index_stores
from solguard.retrieval.tfidf import build_corpus_index
from solguard.static_analysis.scanner import load_file

EXIT_PROCESSING = 1
EXIT_USAGE = 2

T = TypeVar("T")
Outcome = tuple[str, T | None, str | None]  # (contract id, result, error message)


def _setup_logging(verbose: int) -> None:
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(verbose, 2)]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message: str) -> NoReturn:
    """The one error exit: ``error: <message>`` on stderr, then exit ``code``."""
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _config(config_path: str, weights: str | None = None, **overrides) -> PipelineConfig:
    """The configuration file with the command-line overrides applied;
    ``weights`` is the raw ``model,static,retrieval`` option. Exits 2 on
    any fault in either."""
    if weights is not None:
        parts = weights.split(",")
        if len(parts) != 3:
            _fail(EXIT_USAGE, "--weights expects model,static,retrieval")
        try:
            overrides["weights"] = dict(zip(WEIGHTS.fields, (float(x) for x in parts)))
        except ValueError:
            _fail(EXIT_USAGE, f"--weights values must be numbers, got {weights!r}")
    try:
        return apply_overrides(load_config(config_path), **overrides)
    except ConfigError as exc:
        _fail(EXIT_USAGE, str(exc))


def _context(config: PipelineConfig, roles: tuple[str, ...] | None = None) -> PipelineContext:
    """``build_context``, exiting 1 on an unreadable snapshot and 2 on any
    other configuration fault."""
    try:
        return build_context(config, roles)
    except SolguardError as exc:
        _fail(EXIT_PROCESSING if isinstance(exc, SnapshotError) else EXIT_USAGE, str(exc))


def _dataset_split(
    dataset_path: str, split: str | None, config: PipelineConfig
) -> tuple[list[LabeledRow], PipelineContext]:
    """The dataset's rows of the ``split`` (all rows when none is given) and a
    detector-only context. A dataset file fault exits 1, like any unreadable
    input; an empty split 2."""
    try:
        dataset = load_dataset(dataset_path)
    except SolguardError as exc:
        _fail(EXIT_PROCESSING, str(exc))
    if split:
        dataset = [row for row in dataset if row.split == split]
    if not dataset:
        _fail(EXIT_USAGE, f"no dataset entries for split {split!r}")
    return dataset, _context(config, roles=("detector",))


def _exit_if_detection_failed(failures: int, total: int) -> None:
    """Exit 1 when some contract failed detection: figures over the rest must
    not pass for figures over the whole dataset."""
    if failures:
        _fail(EXIT_PROCESSING, f"{failures} of {total} contracts failed detection")


def _contracts(paths: tuple[str, ...]) -> list[tuple[str, Path]]:
    """(id, path) per contract in argument order. Files stay, directories
    recurse over *.sol; ids are the files' :func:`~solguard.jsonl.file_id`,
    suffixed ``_2``, ``_3``... where one repeats. Exits 2 when there is no
    contract to read."""
    if not paths:
        _fail(EXIT_USAGE, "no input files given")
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.sol")) if path.is_dir() else [path])
    if not files:
        _fail(EXIT_USAGE, "no .sol files found under the given paths")
    items: list[tuple[str, Path]] = []
    used: set[str] = set()
    for path in files:
        stem = contract_id = file_id(path)
        suffix = 2
        while contract_id in used:
            contract_id = f"{stem}_{suffix}"
            suffix += 1
        used.add(contract_id)
        items.append((contract_id, path))
    return items


def _each_contract(
    items: list[tuple[str, Path]], work: Callable[[SourceContract], T], jobs: int
) -> list[Outcome[T]]:
    """Load each contract and run ``work`` on it, up to ``jobs`` at a time.

    Outcomes come back in input order. A contract that cannot be loaded, or
    whose work fails or cannot write its output, gets its error message
    instead of a result; the other contracts go on.
    """

    def one(item: tuple[str, Path]) -> Outcome[T]:
        contract_id, path = item
        try:
            return contract_id, work(load_file(path, contract_id)), None
        except (SolguardError, OSError) as exc:
            return contract_id, None, str(exc)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, items))


@click.group()
@click.version_option(package_name="solguard")
def main() -> None:
    """Smart contract vulnerability management: detect, repair, verify, report."""


@main.command("audit")
@click.argument("paths", nargs=-1, type=click.Path())
@click.option("--config", "-c", "config_path", required=True, type=click.Path(), help="Pipeline configuration file.")
@click.option("--output-dir", "-o", default=None, type=click.Path(), help="Where reports and run records go.")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--weights", default=None, help="Fusion weights as model,static,retrieval.")
@click.option("--threshold", type=float, default=None)
@click.option("--k", type=int, default=None, help="Neighbors for similarity retrieval.")
@click.option("--jobs", type=click.IntRange(min=1), default=None, help="Parallel contracts (default: logical CPUs).")
@click.option("--fail-on-vulnerable", is_flag=True, help="Exit 1 when any contract is vulnerable.")
@click.option("-v", "--verbose", count=True)
def cmd_audit(paths, config_path, output_dir, mode, weights, threshold, k, jobs, fail_on_vulnerable, verbose):
    """Run the full pipeline over contracts and write reports."""
    _setup_logging(verbose)
    items = _contracts(paths)
    config = _config(config_path, weights, mode=mode, threshold=threshold, k=k, output_dir=output_dir)
    ctx = _context(config)
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_PROCESSING, f"cannot create output directory {out_dir}: {exc}")

    def audit(contract: SourceContract) -> PipelineRun:
        run = run_pipeline(contract, ctx)
        (out_dir / f"{contract.id}.report.md").write_text(run.report.to_markdown(), encoding="utf-8")
        for name, record in (("report", run.report), ("run", run)):
            text = json.dumps(payload(record), indent=2, ensure_ascii=False) + "\n"
            (out_dir / f"{contract.id}.{name}.json").write_text(text, encoding="utf-8")
        return run

    outcomes = _each_contract(items, audit, jobs or os.cpu_count() or 1)
    runs = [run for _, run, error in outcomes if error is None]
    vulnerable = [r for r in runs if r.fused.verdict is Verdict.VULNERABLE]
    patched = [r for r in runs if r.patch is not None]
    verified = [r for r in patched if r.verification is not None and r.verification.passed]
    for contract_id, run, error in outcomes:
        if error is not None:
            click.echo(f"{contract_id}: error: {error}", err=True)
        else:
            failed = f"; failed stages: {', '.join(run.errors)}" if run.errors else ""
            click.echo(f"{contract_id}: {run.fused.verdict.value} (report written to {out_dir}{failed})")
    click.echo(
        f"processed {len(runs)}/{len(outcomes)} contracts, {len(vulnerable)} vulnerable"
    )
    if patched:
        # both denominators: verified patches over patched contracts and over all processed
        click.echo(
            f"patch verification passed: {len(verified)}/{len(patched)} patched "
            f"({len(verified)}/{len(runs)} of all processed)"
        )
    if len(runs) < len(outcomes) or any(r.errors for r in runs) or (fail_on_vulnerable and vulnerable):
        sys.exit(EXIT_PROCESSING)


@main.command("detect")
@click.argument("paths", nargs=-1, type=click.Path())
@click.option("--config", "-c", "config_path", required=True, type=click.Path(), help="Pipeline configuration file.")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--weights", default=None, help="Fusion weights as model,static,retrieval.")
@click.option("--threshold", type=float, default=None)
@click.option("--k", type=int, default=None, help="Neighbors for similarity retrieval.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("-v", "--verbose", count=True)
def cmd_detect(paths, config_path, mode, weights, threshold, k, as_json, verbose):
    """Detection only: verdict, fused score, and the per-channel breakdown."""
    _setup_logging(verbose)
    items = _contracts(paths)
    config = _config(config_path, weights, mode=mode, threshold=threshold, k=k)
    ctx = _context(config, roles=("detector",))
    outcomes = _each_contract(items, lambda contract: run_detect(contract, ctx), jobs=1)
    for contract_id, fused, error in outcomes:
        if error is not None:
            click.echo(f"{contract_id}: error: {error}", err=True)
        elif not as_json:
            click.echo(f"{contract_id}: {fused.verdict.value} {fused.score:.2f} (mode {fused.mode})")
            for channel in fused.channel_results:
                click.echo(f"  {channel.channel.value:<10} {channel.verdict.value:<10} {channel.score:.2f}")
    if as_json:
        verdicts = [{"contract_id": cid, **fused.to_payload()} for cid, fused, error in outcomes if error is None]
        click.echo(json.dumps(verdicts, indent=2, ensure_ascii=False))
    if any(error is not None for _, _, error in outcomes):
        sys.exit(EXIT_PROCESSING)


@main.group("kb")
def cmd_kb() -> None:
    """Build, update, and inspect the retrieval index snapshots."""


def _publish_snapshots(
    command: str, corpus: str | None, docs: str | None, index_root: str, verbose: int
) -> None:
    """The body of ``kb build`` and ``kb update``: build an index of each
    source given, then publish each one, so that a failed build publishes
    nothing. ``build`` refuses an index that already exists."""
    _setup_logging(verbose)
    if not corpus and not docs:
        _fail(EXIT_USAGE, f"kb {command} needs --corpus and/or --docs")
    corpus_store, kb_store = index_stores(index_root)
    try:
        if command == "build" and (corpus_store.current_version() or kb_store.current_version()):
            _fail(EXIT_USAGE, f"index under {index_root} already exists; use 'kb update'")
        with gc_paused():
            built = [("corpus", corpus_store, build_corpus_index(load_labeled_records(corpus)))] if corpus else []
            if docs:
                built.append(("kb", kb_store, build_kb_index(load_kb_documents(docs))))
            for name, store, index in built:
                click.echo(f"{name}: published version {store.publish(index)}")
    except SolguardError as exc:
        _fail(EXIT_PROCESSING, str(exc))


@cmd_kb.command("build")
@click.option("--corpus", type=click.Path(), default=None, help="Labeled contract corpus (JSONL).")
@click.option("--docs", type=click.Path(), default=None, help="Knowledge document directory.")
@click.option("--index-root", required=True, type=click.Path())
@click.option("-v", "--verbose", count=True)
def cmd_kb_build(corpus, docs, index_root, verbose):
    """Create the first snapshot of the corpus and/or knowledge base."""
    _publish_snapshots("build", corpus, docs, index_root, verbose)


@cmd_kb.command("update")
@click.option("--corpus", type=click.Path(), default=None, help="Labeled contract corpus (JSONL).")
@click.option("--docs", type=click.Path(), default=None, help="Knowledge document directory.")
@click.option("--index-root", required=True, type=click.Path())
@click.option("-v", "--verbose", count=True)
def cmd_kb_update(corpus, docs, index_root, verbose):
    """Publish a new snapshot version and swap the pointer atomically.

    Audits already running keep the snapshot they loaded. Every index given
    is built before any is published, so a failed build leaves every
    pointer untouched.
    """
    _publish_snapshots("update", corpus, docs, index_root, verbose)


@cmd_kb.command("status")
@click.option("--index-root", required=True, type=click.Path())
def cmd_kb_status(index_root):
    """Show the live snapshot versions and document counts."""
    corpus_store, kb_store = index_stores(index_root)
    try:
        index = corpus_store.load()
        if index is None:
            click.echo("corpus: no snapshot published")
        else:
            click.echo(f"corpus: version {index.snapshot_version}, {len(index.ids)} documents")
        kb_index = kb_store.load()
        if kb_index is None:
            click.echo("kb: no snapshot published")
        else:
            docs = len({c.doc_id for c in kb_index.chunks})
            click.echo(f"kb: version {kb_index.snapshot_version}, {docs} documents, {len(kb_index.chunks)} chunks")
    except SnapshotError as exc:
        _fail(EXIT_PROCESSING, str(exc))


@main.command("eval")
@click.argument("dataset_path", type=click.Path())
@click.option("--config", "-c", "config_path", required=True, type=click.Path())
@click.option("--variants", default="weighted", help="Comma-separated: weighted, voting, enriched, no-static, no-rag (aliases W, V, E, 'w/o Static', 'w/o RAG').")
@click.option("--split", default=None, help="Restrict to entries with this split tag.")
@click.option("--out", type=click.Path(), default=None, help="Structured results file (JSON).")
@click.option("-v", "--verbose", count=True)
def cmd_eval(dataset_path, config_path, variants, split, out, verbose):
    """Score detection variants against a labeled dataset."""
    _setup_logging(verbose)
    config = _config(config_path)
    try:
        dataset, ctx = _dataset_split(dataset_path, split, config)
        reports = run_variants(dataset, [v for v in variants.split(",") if v.strip()], ctx)
    except SolguardError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(format_table(reports))
    results = payload({"dataset": str(dataset_path), "results": reports})
    out_path = Path(out) if out else Path(config.output_dir) / "eval_results.json"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_PROCESSING, f"cannot write results to {out_path}: {exc}")
    click.echo(f"results written to {out_path}")
    _exit_if_detection_failed(reports[0].failures, len(dataset))


@main.command("calibrate")
@click.argument("dataset_path", type=click.Path())
@click.option("--config", "-c", "config_path", required=True, type=click.Path())
@click.option("--split", default="validation", show_default=True)
@click.option("--write", is_flag=True, help="Write the chosen threshold back into the config file.")
@click.option("-v", "--verbose", count=True)
def cmd_calibrate(dataset_path, config_path, split, write, verbose):
    """Sweep fused scores on a validation split and pick the F1-best threshold."""
    _setup_logging(verbose)
    config = _config(config_path)
    try:
        dataset, ctx = _dataset_split(dataset_path, split, config)
        failures, fused = fused_variants(dataset, ctx, ["weighted"])
        _exit_if_detection_failed(failures, len(dataset))
        threshold = calibrate_threshold([(f.score, label) for f, label in fused["weighted"]])
    except SolguardError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(f"calibrated threshold: {threshold}")
    if write:
        path = Path(config_path)
        try:
            text = read_text(path, ConfigError, "configuration")
            settings = read_yaml(text, ConfigError, f"configuration {path} is not valid YAML") or {}
            settings["threshold"] = threshold
            path.write_text(yaml.safe_dump(settings, sort_keys=False), encoding="utf-8")
        except (OSError, ConfigError) as exc:
            _fail(EXIT_PROCESSING, f"cannot write threshold to {path}: {exc}")
        click.echo(f"threshold written to {path}")


if __name__ == "__main__":
    main()
