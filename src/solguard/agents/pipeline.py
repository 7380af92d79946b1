"""End-to-end pipeline: detect, then advise/assess/fix/verify, then report.

Later stages run only when detection judged the contract vulnerable and
produced actionable findings. One runner times each stage and records a
``SolguardError`` as ``errors[stage]``; only the stages that need the failed
one are skipped. Advise and assess need detect (assess runs without
suggestions if advise failed), fix needs advise and assess, verify needs fix,
and the report always renders. A failed model channel is a ``detect`` error
that keeps a verdict, fused from the static and retrieval channels with their
weights renormalized, and skips the repair chain. ``solguard audit`` exits 1
on any recorded stage error.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, TypeVar

from solguard.core import (
    AuditReport,
    Finding,
    Patch,
    RepairSuggestion,
    SourceContract,
    Verdict,
    VerificationResult,
)
from solguard.errors import ConfigError, ModelChannelError, SolguardError
from solguard.llm import build_provider
from solguard.llm.provider import ExchangeLog, Provider
from solguard.retrieval.kb import KbIndex
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import CorpusIndex
from solguard.static_analysis.rules import PatternRule, default_ruleset, load_ruleset

from solguard.agents.config import PipelineConfig
from solguard.agents.detect import FusedVerdict, actionable_findings, detect, fuse_channels
from solguard.agents.remediate import RiskAssignment, advise, assess, fix, verify
from solguard.agents.report import build_report

log = logging.getLogger(__name__)

STAGE_ORDER = ("detect", "advise", "assess", "fix", "verify", "report")

T = TypeVar("T")


@dataclass(frozen=True)
class PipelineRun:
    """Everything one contract's audit produced, in stage order."""

    contract_id: str
    fused: FusedVerdict
    findings: tuple[Finding, ...] = ()
    suggestions: tuple[RepairSuggestion, ...] = ()
    risk_assignments: tuple[RiskAssignment, ...] = ()
    risk_distribution: dict[str, int] = field(default_factory=dict)
    patch: Patch | None = None
    verification: VerificationResult | None = None
    report: AuditReport | None = None
    stages: tuple[str, ...] = ()
    errors: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  # in-memory only

    def __post_init__(self) -> None:
        order = [STAGE_ORDER.index(s) for s in self.stages]
        if order != sorted(order) or len(set(order)) != len(order):
            raise ValueError(f"stages out of order: {self.stages}")
        for name, entries in (("suggestions", self.suggestions), ("risk assignments", self.risk_assignments)):
            if entries and [e.finding for e in entries] != list(self.findings):
                raise ValueError(f"{name} must hold one entry per finding, in findings order")

    def per_finding(self) -> list[tuple[Finding, RepairSuggestion | None, RiskAssignment | None]]:
        """Each finding with its suggestion and risk assignment, or None
        where that stage did not run."""
        missing = (None,) * len(self.findings)
        return list(zip(self.findings, self.suggestions or missing, self.risk_assignments or missing))

    def to_payload(self) -> dict[str, Any]:
        """Serializable run record.

        Wall-clock timings are deliberately left out so repeated runs over
        identical inputs serialize byte-identically; timings go to the log.
        """
        return {
            "contract_id": self.contract_id,
            "verdict": self.fused.to_payload(),
            "findings": [f.to_payload() for f in self.findings],
            "suggestions": [s.to_payload() for s in self.suggestions],
            "risk": {
                "assignments": [a.to_payload() for a in self.risk_assignments],
                "distribution": self.risk_distribution,
            },
            "patch": self.patch.to_payload() if self.patch else None,
            "verification": self.verification.to_payload() if self.verification else None,
            "stages": list(self.stages),
            "errors": self.errors,
        }


@dataclass(frozen=True)
class PipelineContext:
    """Loaded resources shared by every run: rules, indexes, providers."""

    config: PipelineConfig
    ruleset: list[PatternRule]
    corpus_index: CorpusIndex
    kb_index: KbIndex | None
    providers: dict[str, Provider]

    def provider(self, role: str) -> Provider:
        if role not in self.providers:
            raise ConfigError(f"no provider configured for role {role!r}")
        return self.providers[role]


def build_context(config: PipelineConfig, roles: tuple[str, ...] | None = None) -> PipelineContext:
    """Load rules, index snapshots, and providers named by the config.

    ``roles`` limits which providers must exist (detection-only commands
    need just the detector). A knowledge base that was never published
    disables advisory retrieval; one that cannot be read is a
    ``SnapshotError``.
    """
    ruleset = load_ruleset(config.ruleset_path) if config.ruleset_path else default_ruleset()
    corpus_store = CorpusSnapshotStore(f"{config.index_root}/corpus")
    corpus_index = corpus_store.load()
    kb_store = KbSnapshotStore(f"{config.index_root}/kb")
    kb_index: KbIndex | None = None
    if kb_store.current_version() is None:
        log.info("no knowledge base snapshot under %s; advisory retrieval disabled", config.index_root)
    else:
        kb_index = kb_store.load()
    exchange_log = ExchangeLog(config.exchange_log) if config.exchange_log else None
    providers: dict[str, Provider] = {}
    for role in roles or ("detector", "advisor", "assessor", "fixer", "verifier"):
        providers[role] = build_provider(config.require_provider(role), exchange_log)
    return PipelineContext(
        config=config,
        ruleset=ruleset,
        corpus_index=corpus_index,
        kb_index=kb_index,
        providers=providers,
    )


def run_pipeline(contract: SourceContract, ctx: PipelineContext) -> PipelineRun:
    """Audit one contract end to end and return the full run record."""
    cfg = ctx.config
    stages: list[str] = []
    failures: dict[str, SolguardError] = {}
    timings: dict[str, float] = {}

    def run_stage(stage: str, needs: tuple[str, ...], call: Callable[[], T]) -> T | None:
        """Time ``call`` once every stage it needs succeeded; record its ``SolguardError``."""
        if not set(needs) <= set(stages):
            return None
        started = time.perf_counter()
        try:
            result = call()
            stages.append(stage)
            return result
        except SolguardError as exc:
            failures[stage] = exc
            log.warning("%s: %s stage failed: %s", contract.id, stage, exc)
        finally:
            timings[stage] = time.perf_counter() - started
            log.info("%s: stage %s finished in %.3fs", contract.id, stage, timings[stage])

    fused = run_stage("detect", (), lambda: detect(contract, ctx))
    if fused is None:
        failure = failures["detect"]
        if not isinstance(failure, ModelChannelError) or not (cfg.weights.static or cfg.weights.retrieval):
            raise failure  # not the model channel, or no other channel has weight: no verdict
        fused = fuse_channels(failure.channels, cfg.mode, cfg.weights.without("model"), cfg.threshold)
    findings = actionable_findings(fused, contract)

    suggestions: list[RepairSuggestion] = []
    assignments: list[RiskAssignment] = []
    distribution: dict[str, int] = {}
    patch: Patch | None = None
    verification: VerificationResult | None = None

    if fused.verdict is Verdict.VULNERABLE and findings:
        suggestions = run_stage("advise", ("detect",), lambda: advise(
            contract, findings, ctx.kb_index, ctx.provider("advisor"), cfg.k
        )) or []
        assignments, distribution = run_stage("assess", ("detect",), lambda: assess(
            contract, findings, suggestions, ctx.kb_index, ctx.provider("assessor"), cfg.k
        )) or ([], {})
        patch = run_stage("fix", ("advise", "assess"), lambda: fix(
            contract, suggestions, assignments, ctx.provider("fixer")
        ))
        verification = run_stage("verify", ("fix",), lambda: verify(
            contract, patch, findings, ctx.ruleset, ctx.provider("verifier")
        ))
    elif fused.verdict is Verdict.VULNERABLE:
        log.warning("%s: vulnerable verdict without actionable findings; skipping repair chain", contract.id)

    run = PipelineRun(
        contract_id=contract.id,
        fused=fused,
        findings=tuple(findings),
        suggestions=tuple(suggestions),
        risk_assignments=tuple(assignments),
        risk_distribution=distribution,
        patch=patch,
        verification=verification,
        stages=tuple(stages),
        errors={stage: str(exc) for stage, exc in failures.items()},
        timings=timings,
    )
    report = run_stage("report", (), lambda: build_report(run, contract))
    return replace(run, report=report, stages=tuple(stages))
