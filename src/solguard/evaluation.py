"""Detection metrics and the variant/ablation harness.

One fusion pass, :func:`fused_variants`, runs each contract's channels once
and fuses them per variant: ``eval`` counts a confusion matrix from each
variant's (verdict, gold label) pairs, and ``calibrate`` sweeps the
weighted variant's fused scores. The positive class is "vulnerable"
throughout; the false positive rate is the fraction of safe contracts
flagged vulnerable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from solguard.agents.detect import FusedVerdict, fuse_channels, run_channels
from solguard.agents.pipeline import PipelineContext
from solguard.core import Channel
from solguard.errors import ConfigError, DatasetError, SolguardError
from solguard.jsonl import LabeledRow, load_labeled_records
from solguard.static_analysis.scanner import load_source

log = logging.getLogger(__name__)

# name: (detect mode, channel dropped from fusion, other accepted spellings).
# The mode picks both the channel results and the fusion rule; fusion
# renormalizes the remaining weights when a channel is dropped.
VARIANTS: dict[str, tuple[str, Channel | None, tuple[str, ...]]] = {
    "weighted": ("weighted", None, ("w",)),
    "voting": ("voting", None, ("v",)),
    "enriched": ("enriched", None, ("e",)),
    "no-static": ("weighted", Channel.STATIC, ("w/o static", "wo static", "without static")),
    "no-rag": ("weighted", Channel.RETRIEVAL, ("w/o rag", "wo rag", "without rag")),
}
_SPELLINGS = {spelling: name for name, (_, _, aliases) in VARIANTS.items() for spelling in (name, *aliases)}


def normalize_variant(name: str) -> str:
    key = " ".join(name.strip().lower().split())
    if key not in _SPELLINGS:
        raise DatasetError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANTS)} "
            "(aliases: W, V, E, 'w/o Static', 'w/o RAG')"
        )
    return _SPELLINGS[key]


def load_dataset(path: str | Path) -> list[LabeledRow]:
    """Read a dataset file of :data:`~solguard.jsonl.LABELED_RECORD` lines."""
    return load_labeled_records(path)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pairs: Iterable[tuple[str, str]]) -> ConfusionMatrix:
    """Count tp/fp/fn/tn over (predicted, actual) label pairs."""
    tp = fp = fn = tn = 0
    for predicted, actual in pairs:
        if predicted == "vulnerable" and actual == "vulnerable":
            tp += 1
        elif predicted == "vulnerable":
            fp += 1
        elif actual == "vulnerable":
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class MetricsReport:
    variant: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    degenerate: tuple[str, ...] = ()  # metrics whose denominator was zero
    failures: int = 0
    evaluated: int = 0


def metrics(cm: ConfusionMatrix, variant: str = "", failures: int = 0) -> MetricsReport:
    """Standard binary metrics; zero-denominator divisions yield 0, flagged."""
    degenerate: list[str] = []

    def ratio(name: str, numerator: float, denominator: float) -> float:
        if denominator == 0:
            degenerate.append(name)
            return 0.0
        return numerator / denominator

    accuracy = ratio("accuracy", cm.tp + cm.tn, cm.total)
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    recall = ratio("recall", cm.tp, cm.tp + cm.fn)
    f1 = ratio("f1", 2 * precision * recall, precision + recall)
    fpr = ratio("fpr", cm.fp, cm.fp + cm.tn)
    return MetricsReport(
        variant=variant,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        fpr=fpr,
        degenerate=tuple(degenerate),
        failures=failures,
        evaluated=cm.total,
    )


def fused_variants(
    dataset: Sequence[LabeledRow], ctx: PipelineContext, names: Sequence[str]
) -> tuple[int, dict[str, list[tuple[FusedVerdict, str]]]]:
    """The one fusion pass: the number of contracts that failed detection,
    and per variant name each surviving contract's fused verdict beside its
    gold label, in dataset order.

    Channels run once per contract, for the detect modes the variants name,
    and are re-fused per variant. A contract whose detection fails is
    excluded from every variant, counted, and logged.
    """
    config = ctx.config
    modes = tuple(dict.fromkeys(VARIANTS[name][0] for name in names))
    fused: dict[str, list[tuple[FusedVerdict, str]]] = {name: [] for name in names}
    failures = 0
    for row in dataset:
        try:
            by_mode = run_channels(load_source(row.id, row.source), ctx, modes)
        except SolguardError as exc:
            failures += 1
            log.warning("evaluation: %s failed and is excluded: %s", row.id, exc)
            continue
        for name in names:
            mode, dropped, _ = VARIANTS[name]
            channels = {ch: res for ch, res in by_mode[mode].items() if ch is not dropped}
            fused[name].append((fuse_channels(channels, mode, config.weights, config.threshold), row.label))
    return failures, fused


def run_variants(dataset: Sequence[LabeledRow], variants: list[str], ctx: PipelineContext) -> list[MetricsReport]:
    """Evaluate each variant over the dataset through :func:`fused_variants`.

    The model is asked once per distinct prompt, so only an enriched variant
    adds a call; re-fusing per variant keeps ablations from disturbing the
    surviving channels' raw scores. An empty or repeated variant list, or an
    ablation that would leave no fusion weight, is refused before any
    channel runs.
    """
    names = [normalize_variant(v) for v in variants]
    if not names:
        raise DatasetError("no variants requested")
    if len(set(names)) != len(names):
        raise DatasetError(f"duplicate variants requested: {names}")
    for name in names:
        dropped = VARIANTS[name][1]
        if dropped and not any(getattr(ctx.config.weights, ch.value) for ch in Channel if ch is not dropped):
            raise ConfigError(f"cannot drop {dropped.value}: no weight would remain")
    failures, fused = fused_variants(dataset, ctx, names)
    return [
        metrics(confusion((f.verdict.value, label) for f, label in fused[name]), variant=name, failures=failures)
        for name in names
    ]


def format_table(reports: list[MetricsReport]) -> str:
    header = f"{'variant':<12} {'F1':>8} {'Recall':>8} {'Precision':>10} {'Accuracy':>9} {'FPR':>7}"
    rows = [header, "-" * len(header)]
    for r in reports:
        rows.append(
            f"{r.variant:<12} {r.f1:>8.4f} {r.recall:>8.4f} {r.precision:>10.4f} "
            f"{r.accuracy:>9.4f} {r.fpr:>7.4f}"
        )
    return "\n".join(rows)


def calibrate_threshold(scores: list[tuple[float, str]]) -> float:
    """Threshold over fused scores maximizing F1 on a validation split.

    Candidates are the distinct observed scores; a contract is predicted
    vulnerable when its score >= threshold. Ties break toward the larger
    threshold. Requires both labels present. One sweep down the sorted
    scores counts, at each candidate, the contracts scored at or above it.
    """
    labels = [label for _, label in scores]
    if set(labels) != {"safe", "vulnerable"}:
        raise DatasetError("calibration needs both safe and vulnerable examples")
    vulnerable = labels.count("vulnerable")
    best_threshold, best_f1 = 0.0, -1.0
    tp = fp = 0
    for candidate, group in groupby(sorted(scores, reverse=True), key=itemgetter(0)):
        above = [label for _, label in group]
        tp += above.count("vulnerable")
        fp += above.count("safe")
        f1 = 2 * tp / (2 * tp + fp + (vulnerable - tp))  # a vulnerable contract below is a false negative
        if f1 > best_f1:  # strictly: of thresholds with equal F1, the larger came first
            best_f1, best_threshold = f1, candidate
    return best_threshold
