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
from solguard.core import SourceContract, Verdict
from solguard.errors import ConfigError, SnapshotError, SolguardError
from solguard.evaluation import (
    LabeledDataset,
    calibrate_threshold,
    format_table,
    fused_scores,
    load_dataset,
    normalize_variant,
    run_variants,
)
from solguard.retrieval.kb import HashingEmbedder, build_kb_index, load_kb_documents
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file
from solguard.static_analysis.scanner import load_file

EXIT_PROCESSING = 1
EXIT_USAGE = 2

T = TypeVar("T")
Outcome = tuple[str, T | None, str | None]  # (contract id, result, error message)


def _setup_logging(verbose: int) -> None:
    level = logging.WARNING
    if verbose == 1:
        level = logging.INFO
    elif verbose >= 2:
        level = logging.DEBUG
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
) -> tuple[LabeledDataset, PipelineContext]:
    """The ``split`` entries of the dataset and a detector-only context. A
    dataset file fault exits 1, like any unreadable input; an empty split 2."""
    try:
        dataset = load_dataset(dataset_path).subset(split)
    except SolguardError as exc:
        _fail(EXIT_PROCESSING, str(exc))
    if not dataset.entries:
        _fail(EXIT_USAGE, f"no dataset entries for split {split!r}")
    return dataset, _context(config, roles=("detector",))


def _contracts(paths: tuple[str, ...]) -> list[tuple[str, Path]]:
    """(id, path) per contract in argument order. Files stay, directories
    recurse over *.sol; ids are file stems, suffixed ``_2``, ``_3``... where
    a stem repeats. Exits 2 when there is no contract to read."""
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
        contract_id, suffix = path.stem, 2
        while contract_id in used:
            contract_id = f"{path.stem}_{suffix}"
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

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
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
@click.option("--jobs", type=int, default=None, help="Parallel contracts (default: logical CPUs).")
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
        report_payload = {
            "sections": [{"title": s.title, "body": s.body} for s in run.report.sections],
            "machine_payload": run.report.machine_payload,
        }
        (out_dir / f"{contract.id}.report.md").write_text(run.report.to_markdown(), encoding="utf-8")
        (out_dir / f"{contract.id}.report.json").write_text(
            json.dumps(report_payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        (out_dir / f"{contract.id}.run.json").write_text(
            json.dumps(run.to_payload(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
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
@click.option("--config", "-c", "config_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--weights", default=None, help="Fusion weights as model,static,retrieval.")
@click.option("--threshold", type=float, default=None)
@click.option("--k", type=int, default=None)
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
        payload = [{"contract_id": cid, **fused.to_payload()} for cid, fused, error in outcomes if error is None]
        click.echo(json.dumps(payload, indent=2, ensure_ascii=False))
    if any(error is not None for _, _, error in outcomes):
        sys.exit(EXIT_PROCESSING)


@main.group("kb")
def cmd_kb() -> None:
    """Build, update, and inspect the retrieval index snapshots."""


def _publish_snapshots(
    command: str, corpus: str | None, docs: str | None, index_root: str, verbose: int
) -> None:
    """The body of ``kb build`` and ``kb update``: publish a new snapshot of
    each source given. ``build`` refuses an index that already exists."""
    _setup_logging(verbose)
    if not corpus and not docs:
        _fail(EXIT_USAGE, f"kb {command} needs --corpus and/or --docs")
    corpus_store = CorpusSnapshotStore(Path(index_root) / "corpus")
    kb_store = KbSnapshotStore(Path(index_root) / "kb")
    published: list[str] = []
    try:
        if command == "build" and (corpus_store.current_version() or kb_store.current_version()):
            _fail(EXIT_USAGE, f"index under {index_root} already exists; use 'kb update'")
        if corpus:
            version = corpus_store.publish(build_corpus_index(load_corpus_file(corpus)))
            published.append(f"corpus: published version {version}")
        if docs:
            version = kb_store.publish(build_kb_index(load_kb_documents(docs), HashingEmbedder()))
            published.append(f"kb: published version {version}")
    except SolguardError as exc:
        _fail(EXIT_PROCESSING, str(exc))
    for line in published:
        click.echo(line)


@cmd_kb.command("build")
@click.option("--corpus", type=click.Path(), default=None, help="Labeled contract corpus (JSONL).")
@click.option("--docs", type=click.Path(), default=None, help="Knowledge document directory.")
@click.option("--index-root", required=True, type=click.Path())
@click.option("-v", "--verbose", count=True)
def cmd_kb_build(corpus, docs, index_root, verbose):
    """Create the first snapshot of the corpus and/or knowledge base."""
    _publish_snapshots("build", corpus, docs, index_root, verbose)


@cmd_kb.command("update")
@click.option("--corpus", type=click.Path(), default=None)
@click.option("--docs", type=click.Path(), default=None)
@click.option("--index-root", required=True, type=click.Path())
@click.option("-v", "--verbose", count=True)
def cmd_kb_update(corpus, docs, index_root, verbose):
    """Publish a new snapshot version and swap the pointer atomically.

    Audits already running keep the snapshot they loaded; a failed build
    leaves the pointer untouched.
    """
    _publish_snapshots("update", corpus, docs, index_root, verbose)


@cmd_kb.command("status")
@click.option("--index-root", required=True, type=click.Path())
def cmd_kb_status(index_root):
    """Show the live snapshot versions and document counts."""
    corpus_store = CorpusSnapshotStore(Path(index_root) / "corpus")
    kb_store = KbSnapshotStore(Path(index_root) / "kb")
    try:
        corpus_version = corpus_store.current_version()
        if corpus_version is None:
            click.echo("corpus: no snapshot published")
        else:
            index = corpus_store.load()
            click.echo(f"corpus: version {corpus_version}, {len(index.documents)} documents")
        kb_version = kb_store.current_version()
        if kb_version is None:
            click.echo("kb: no snapshot published")
        else:
            kb_index = kb_store.load()
            docs = len({c.doc_id for c in kb_index.chunks})
            click.echo(f"kb: version {kb_version}, {docs} documents, {len(kb_index.chunks)} chunks")
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
        names = [normalize_variant(v) for v in variants.split(",") if v.strip()]
        dataset, ctx = _dataset_split(dataset_path, split, config)
        reports = run_variants(dataset, names, ctx)
    except SolguardError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(format_table(reports))
    payload = {"dataset": str(dataset_path), "results": [r.to_payload() for r in reports]}
    out_path = Path(out) if out else Path(config.output_dir) / "eval_results.json"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_PROCESSING, f"cannot write results to {out_path}: {exc}")
    click.echo(f"results written to {out_path}")


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
        threshold = calibrate_threshold(fused_scores(dataset, ctx))
    except SolguardError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(f"calibrated threshold: {threshold}")
    if write:
        path = Path(config_path)
        payload = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
        payload["threshold"] = threshold
        path.write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
        click.echo(f"threshold written to {path}")


if __name__ == "__main__":
    main()
