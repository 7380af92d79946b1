"""End-to-end pipeline: detect, then advise/assess/fix/verify, then report.

Later stages run only when detection judged the contract vulnerable and
produced actionable findings. One runner times each stage and records a
``SolguardError`` as ``errors[stage]``; only the stages that need the failed
one are skipped. A reply still unusable after the one repair prompt of
:func:`~solguard.agents.detect.ask_structured` degrades its finding in advise
and assess (an unusable patch is a ``fix`` error); they fail only when every
finding's call failed. Advise and assess need detect (assess runs without
suggestions if advise failed), fix needs advise and assess, verify needs fix,
and the report always renders. A failed model channel is a ``detect`` error
that keeps a verdict, fused from the static and retrieval channels with their
weights renormalized, and skips the repair chain; when neither of them has
weight, the verdict is undetermined. ``solguard audit`` exits 1 on any
recorded stage error.
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
    RiskLevel,
    SourceContract,
    Verdict,
    VerificationResult,
    payload,
)
from solguard.errors import ConfigError, ModelChannelError, SnapshotError, SolguardError
from solguard.llm.mock import MockProvider
from solguard.llm.provider import ExchangeLog, HttpProvider, Provider, ProviderConfig
from solguard.retrieval.kb import KbIndex
from solguard.retrieval.snapshot import index_stores
from solguard.retrieval.tfidf import CorpusIndex
from solguard.static_analysis.rules import PatternRule, default_ruleset, load_ruleset

from solguard.agents.config import ROLES, PipelineConfig
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
    patch: Patch | None = None
    verification: VerificationResult | None = None
    report: AuditReport | None = None
    stages: tuple[str, ...] = ()
    errors: dict[str, str] = field(default_factory=dict)

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

    @property
    def risk_distribution(self) -> dict[str, int]:
        """Assignments per risk level, every level named in :class:`RiskLevel`
        order; empty when assess did not run or failed."""
        levels = [a.level for a in self.risk_assignments]
        return {level.value: levels.count(level) for level in RiskLevel} if levels else {}

    def to_payload(self) -> dict[str, Any]:
        """Serializable run record; stage timings go only to the log, so identical inputs serialize byte-identically."""
        return {
            "contract_id": self.contract_id,
            "verdict": payload(self.fused),
            "findings": payload(self.findings),
            "suggestions": payload(self.suggestions),
            "risk": {
                "assignments": payload(self.risk_assignments),
                "distribution": self.risk_distribution,
            },
            "patch": payload(self.patch),
            "verification": payload(self.verification),
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


def build_provider(
    config: ProviderConfig, exchange_log: ExchangeLog | None = None, transcripts: dict | None = None
) -> Provider:
    """Instantiate the provider named by a config record; a mock one reads
    its transcript through ``transcripts`` (see :mod:`solguard.llm.mock`)."""
    if config.kind == "mock":
        return MockProvider(config, exchange_log, transcripts)
    return HttpProvider(config, exchange_log)


def build_context(config: PipelineConfig, roles: tuple[str, ...] | None = None) -> PipelineContext:
    """Load rules, index snapshots, and providers named by the config.

    ``roles`` limits which providers must exist (detection-only commands
    need just the detector); :meth:`PipelineContext.provider` refuses a
    requested role without one. Each store's CURRENT is read once, by its
    load. A corpus that was never published, or a snapshot that cannot be
    read, is a ``SnapshotError``; a knowledge base that was never published
    disables advisory retrieval. The providers share one transcript map
    (path -> entries), so mock roles that name one transcript read it once per
    context, and a transcript rewritten before the next context is read again.
    """
    ruleset = load_ruleset(config.ruleset_path) if config.ruleset_path else default_ruleset()
    corpus_store, kb_store = index_stores(config.index_root)
    corpus_index = corpus_store.load()
    if corpus_index is None:
        raise SnapshotError(f"no snapshot published under {corpus_store.root}")
    kb_index = kb_store.load()
    if kb_index is None:
        log.info("no knowledge base snapshot under %s; advisory retrieval disabled", config.index_root)
    exchange_log = ExchangeLog(config.exchange_log) if config.exchange_log else None
    transcripts: dict[str, dict[tuple[str, str], str]] = {}
    wanted = {role: config.provider_for(role) for role in roles or ROLES}
    providers = {role: build_provider(p, exchange_log, transcripts) for role, p in wanted.items() if p is not None}
    ctx = PipelineContext(config, ruleset, corpus_index, kb_index, providers)
    for role in wanted:
        ctx.provider(role)
    return ctx


def run_pipeline(contract: SourceContract, ctx: PipelineContext) -> PipelineRun:
    """Audit one contract end to end and return the full run record."""
    cfg = ctx.config
    stages: list[str] = []
    failures: dict[str, SolguardError] = {}

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
            log.info("%s: stage %s finished in %.3fs", contract.id, stage, time.perf_counter() - started)

    fused = run_stage("detect", (), lambda: detect(contract, ctx))
    if fused is None:
        failure = failures["detect"]
        if not isinstance(failure, ModelChannelError):
            raise failure  # no channel results at all
        fused = fuse_channels(failure.channels, cfg.mode, cfg.weights, cfg.threshold)
    findings = actionable_findings(fused, contract, ctx.ruleset) if fused.verdict is not Verdict.UNDETERMINED else []

    suggestions: list[RepairSuggestion] = []
    assignments: list[RiskAssignment] = []
    patch: Patch | None = None
    verification: VerificationResult | None = None

    if fused.verdict is Verdict.VULNERABLE and findings:
        suggestions = run_stage("advise", ("detect",), lambda: advise(
            contract, findings, ctx.kb_index, ctx.provider("advisor")
        )) or []
        assignments = run_stage("assess", ("detect",), lambda: assess(
            contract, findings, suggestions, ctx.kb_index, ctx.provider("assessor")
        )) or []
        patch = run_stage("fix", ("advise", "assess"), lambda: fix(
            contract, suggestions, assignments, ctx.provider("fixer")
        ))
        verification = run_stage("verify", ("fix",), lambda: verify(
            contract, patch, ctx.ruleset, ctx.provider("verifier")
        ))
    elif fused.verdict is Verdict.VULNERABLE:
        log.warning("%s: vulnerable verdict without actionable findings; skipping repair chain", contract.id)

    run = PipelineRun(
        contract_id=contract.id,
        fused=fused,
        findings=tuple(findings),
        suggestions=tuple(suggestions),
        risk_assignments=tuple(assignments),
        patch=patch,
        verification=verification,
        stages=tuple(stages),
        errors={stage: str(exc) for stage, exc in failures.items()},
    )
    report = run_stage("report", (), lambda: build_report(run, contract))
    return replace(run, report=report, stages=tuple(stages))
