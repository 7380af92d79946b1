"""End-to-end pipeline: detect, then advise/assess/fix/verify, then report.

Later stages run only when detection judged the contract vulnerable and
produced actionable findings. A stage failure is recorded and the pipeline
degrades: the report always renders with whatever completed.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

from solguard.core import (
    AuditReport,
    Finding,
    Patch,
    RepairSuggestion,
    SourceContract,
    Verdict,
    VerificationResult,
)
from solguard.errors import ConfigError, PipelineError
from solguard.llm import build_provider
from solguard.llm.provider import ExchangeLog, Provider
from solguard.retrieval.kb import KbIndex
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import CorpusIndex, RetrievalConfig
from solguard.static_analysis.rules import PatternRule, default_ruleset, load_ruleset

from solguard.agents.config import PipelineConfig
from solguard.agents.detect import FusedVerdict, actionable_findings, detect
from solguard.agents.remediate import RiskAssignment, advise, assess, fix, verify
from solguard.agents.report import build_report

log = logging.getLogger(__name__)

STAGE_ORDER = ("detect", "advise", "assess", "fix", "verify", "report")


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
    retrieval_cfg: RetrievalConfig

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
        retrieval_cfg=RetrievalConfig(k=config.k, threshold=config.channel_threshold),
    )


def run_pipeline(contract: SourceContract, ctx: PipelineContext) -> PipelineRun:
    """Audit one contract end to end and return the full run record."""
    cfg = ctx.config
    stages: list[str] = []
    errors: dict[str, str] = {}
    timings: dict[str, float] = {}

    @contextmanager
    def timed(stage: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            timings[stage] = time.perf_counter() - started
            log.info("%s: stage %s finished in %.3fs", contract.id, stage, timings[stage])

    with timed("detect"):
        fused = detect(contract, ctx)
    stages.append("detect")
    findings = actionable_findings(fused, contract)

    suggestions: list[RepairSuggestion] = []
    assignments: list[RiskAssignment] = []
    distribution: dict[str, int] = {}
    patch: Patch | None = None
    verification: VerificationResult | None = None

    if fused.verdict is Verdict.VULNERABLE and findings:
        with timed("advise"):
            suggestions = advise(contract, findings, ctx.kb_index, ctx.provider("advisor"), cfg.k)
        stages.append("advise")

        with timed("assess"):
            assignments, distribution = assess(
                contract, findings, suggestions, ctx.kb_index, ctx.provider("assessor"), cfg.k
            )
        stages.append("assess")

        try:
            with timed("fix"):
                patch = fix(contract, suggestions, assignments, ctx.provider("fixer"))
            stages.append("fix")
        except PipelineError as exc:
            errors["fix"] = str(exc)
            log.warning("%s: fix stage failed: %s", contract.id, exc)

        if patch is not None:
            try:
                with timed("verify"):
                    verification = verify(
                        contract, patch, findings, ctx.ruleset, ctx.provider("verifier")
                    )
                stages.append("verify")
            except PipelineError as exc:
                errors["verify"] = str(exc)
                log.warning("%s: verify stage failed; patch left unverified: %s", contract.id, exc)
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
        errors=errors,
        timings=timings,
    )
    with timed("report"):
        report = build_report(run, contract)
    return replace(run, report=report, stages=run.stages + ("report",))
