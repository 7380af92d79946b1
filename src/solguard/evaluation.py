"""Detection metrics and the variant/ablation harness.

The positive class is "vulnerable" throughout; the false positive rate is
the fraction of safe contracts flagged vulnerable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from solguard.agents.detect import fuse_channels, run_channels
from solguard.agents.pipeline import PipelineContext
from solguard.core import Channel, ChannelResult
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


def confusion(predictions: dict[str, str], gold: dict[str, str]) -> ConfusionMatrix:
    """Count tp/fp/fn/tn over predictions aligned with gold by contract id."""
    if set(predictions) != set(gold):
        missing = set(gold) ^ set(predictions)
        raise DatasetError(f"predictions and gold labels disagree on ids: {sorted(missing)[:5]}")
    tp = fp = fn = tn = 0
    for contract_id, predicted in predictions.items():
        actual = gold[contract_id]
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


@dataclass(frozen=True)
class ChannelCache:
    """Channel results per contract and detection mode, computed once and
    re-fused for every variant or calibration sweep."""

    labels: dict[str, str]  # contract id -> gold label
    channels: dict[str, dict[str, dict[Channel, ChannelResult]]]  # contract id -> mode -> channels
    failures: int


def channel_cache(dataset: Sequence[LabeledRow], ctx: PipelineContext, modes: tuple[str, ...]) -> ChannelCache:
    """Run the channels once per contract for ``modes``.

    A contract whose detection fails is excluded, counted, and logged.
    """
    labels: dict[str, str] = {}
    channels: dict[str, dict[str, dict[Channel, ChannelResult]]] = {}
    failures = 0
    for row in dataset:
        try:
            channels[row.id] = run_channels(load_source(row.id, row.source), ctx, modes)
            labels[row.id] = row.label
        except SolguardError as exc:
            failures += 1
            log.warning("evaluation: %s failed and is excluded: %s", row.id, exc)
    return ChannelCache(labels, channels, failures)


def run_variants(
    dataset: Sequence[LabeledRow],
    variants: list[str],
    ctx: PipelineContext,
) -> list[MetricsReport]:
    """Evaluate each variant over the dataset with shared channel results.

    Channels run once per contract, for the detect modes the variants name;
    the model is asked once per distinct prompt, so only an enriched variant
    adds a call. Fusion is then re-applied per variant, so ablations cannot
    disturb the surviving channels' raw scores. Contracts that fail
    detection are excluded from every variant and counted. An empty or
    repeated variant list, or an ablation that would leave no fusion
    weight, is refused before any channel runs.
    """
    names = [normalize_variant(v) for v in variants]
    if not names:
        raise DatasetError("no variants requested")
    if len(set(names)) != len(names):
        raise DatasetError(f"duplicate variants requested: {variants}")
    config = ctx.config
    for name in names:
        dropped = VARIANTS[name][1]
        if dropped and not any(getattr(config.weights, ch.value) for ch in Channel if ch is not dropped):
            raise ConfigError(f"cannot drop {dropped.value}: no weight would remain")
    cache = channel_cache(dataset, ctx, tuple(dict.fromkeys(VARIANTS[name][0] for name in names)))

    reports: list[MetricsReport] = []
    for name in names:
        mode, dropped, _ = VARIANTS[name]
        predictions: dict[str, str] = {}
        for cid, by_mode in cache.channels.items():
            channels = {ch: res for ch, res in by_mode[mode].items() if ch is not dropped}
            predictions[cid] = fuse_channels(channels, mode, config.weights, config.threshold).verdict.value
        reports.append(metrics(confusion(predictions, cache.labels), variant=name, failures=cache.failures))
    return reports


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


def fused_scores(dataset: Sequence[LabeledRow], ctx: PipelineContext) -> tuple[list[tuple[float, str]], int]:
    """(weighted fused score, gold label) per contract, for calibration, and
    the number of contracts that failed detection.

    Failed contracts are excluded and logged, as in :func:`run_variants`.
    """
    config = ctx.config
    cache = channel_cache(dataset, ctx, ("weighted",))
    scores = [
        (fuse_channels(by_mode["weighted"], "weighted", config.weights, config.threshold).score, cache.labels[cid])
        for cid, by_mode in cache.channels.items()
    ]
    return scores, cache.failures
