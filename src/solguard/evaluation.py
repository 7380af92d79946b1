"""Detection metrics and the variant/ablation harness.

The positive class is "vulnerable" throughout; the false positive rate is
the fraction of safe contracts flagged vulnerable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from solguard.agents.detect import fuse_channels, run_channels
from solguard.agents.pipeline import PipelineContext
from solguard.core import Channel, ChannelResult
from solguard.errors import DatasetError, SolguardError
from solguard.jsonl import DatasetEntry, load_labeled_records
from solguard.static_analysis.scanner import load_source

log = logging.getLogger(__name__)

# name: (detect mode, channel dropped from fusion, other accepted spellings).
# The mode picks both the channel results and the fusion rule; dropping a
# channel renormalizes the remaining weights proportionally.
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


@dataclass(frozen=True)
class LabeledDataset:
    entries: tuple[DatasetEntry, ...]

    def subset(self, split: str | None) -> "LabeledDataset":
        if not split:
            return self
        return LabeledDataset(tuple(e for e in self.entries if e.split == split))


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a dataset file of :data:`~solguard.jsonl.LABELED_RECORD` lines."""
    return LabeledDataset(tuple(load_labeled_records(path)))


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

    def to_payload(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "fpr": self.fpr,
            "degenerate": list(self.degenerate),
            "failures": self.failures,
            "evaluated": self.evaluated,
        }


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


def channel_cache(dataset: LabeledDataset, ctx: PipelineContext, modes: tuple[str, ...]) -> ChannelCache:
    """Run the channels once per contract for ``modes``.

    A contract whose detection fails is excluded, counted, and logged.
    """
    labels: dict[str, str] = {}
    channels: dict[str, dict[str, dict[Channel, ChannelResult]]] = {}
    failures = 0
    for entry in dataset.entries:
        try:
            contract = load_source(entry.contract_id, entry.source)
            channels[entry.contract_id] = run_channels(contract, ctx, modes)
            labels[entry.contract_id] = entry.label
        except SolguardError as exc:
            failures += 1
            log.warning("evaluation: %s failed and is excluded: %s", entry.contract_id, exc)
    return ChannelCache(labels, channels, failures)


def run_variants(
    dataset: LabeledDataset,
    variants: list[str],
    ctx: PipelineContext,
) -> list[MetricsReport]:
    """Evaluate each variant over the dataset with shared channel results.

    Channels run once per contract, for the detect modes the variants name;
    the model is asked once per distinct prompt, so only an enriched variant
    adds a call. Fusion is then re-applied per variant, so ablations cannot
    disturb the surviving channels' raw scores. Contracts that fail
    detection are excluded from every variant and counted.
    """
    names = [normalize_variant(v) for v in variants]
    if len(set(names)) != len(names):
        raise DatasetError(f"duplicate variants requested: {variants}")
    config = ctx.config
    cache = channel_cache(dataset, ctx, tuple(dict.fromkeys(VARIANTS[name][0] for name in names)))

    reports: list[MetricsReport] = []
    for name in names:
        mode, dropped, _ = VARIANTS[name]
        weights = config.weights.without(dropped.value) if dropped else config.weights
        predictions: dict[str, str] = {}
        for cid, by_mode in cache.channels.items():
            channels = {ch: res for ch, res in by_mode[mode].items() if ch is not dropped}
            predictions[cid] = fuse_channels(channels, mode, weights, config.threshold).verdict.value
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
    threshold. Requires both labels present.
    """
    labels = {label for _, label in scores}
    if labels != {"safe", "vulnerable"}:
        raise DatasetError("calibration needs both safe and vulnerable examples")
    best_threshold = None
    best_f1 = -1.0
    for candidate in sorted({s for s, _ in scores}):
        tp = sum(1 for s, l in scores if s >= candidate and l == "vulnerable")
        fp = sum(1 for s, l in scores if s >= candidate and l == "safe")
        fn = sum(1 for s, l in scores if s < candidate and l == "vulnerable")
        denom = 2 * tp + fp + fn
        f1 = (2 * tp / denom) if denom else 0.0
        if f1 >= best_f1:
            best_f1 = f1
            best_threshold = candidate
    assert best_threshold is not None
    return best_threshold


def fused_scores(dataset: LabeledDataset, ctx: PipelineContext) -> list[tuple[float, str]]:
    """(weighted fused score, gold label) per contract, for calibration.

    Contracts that fail detection are excluded and logged, as in
    :func:`run_variants`.
    """
    config = ctx.config
    cache = channel_cache(dataset, ctx, ("weighted",))
    return [
        (fuse_channels(by_mode["weighted"], "weighted", config.weights, config.threshold).score, cache.labels[cid])
        for cid, by_mode in cache.channels.items()
    ]
