"""The repair chain: advise, assess, fix, verify."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from solguard.core import (
    Channel,
    Finding,
    Location,
    Patch,
    RepairSuggestion,
    RiskLevel,
    SourceContract,
    Span,
    VerificationResult,
    VulnerabilityClass,
    byte_length,
)
from solguard.errors import ExtractionError, LexicalError, PipelineError, StructuralError
from solguard.llm.prompts import (
    ADVISOR_TEMPLATE,
    ASSESSOR_TEMPLATE,
    FIXER_TEMPLATE,
    VERIFIER_TEMPLATE,
)
from solguard.llm.provider import Provider
from solguard.llm.structured import (
    ADVISOR_SCHEMA,
    ASSESSOR_SCHEMA,
    FIXER_SCHEMA,
    VERIFIER_SCHEMA,
)
from solguard.llm.template import render_prompt
from solguard.retrieval.kb import KbIndex
from solguard.static_analysis.rules import PatternRule
from solguard.static_analysis.scanner import scan

from solguard.agents.detect import ask_structured, reference_notes

log = logging.getLogger(__name__)

# Per-finding advisor or assessor calls one contract keeps in flight at once.
FINDING_CALLS_IN_FLIGHT = 4

T = TypeVar("T")
R = TypeVar("R")


def _per_finding(call: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[call(item) for item in items]`` with the calls overlapped on up to
    :data:`FINDING_CALLS_IN_FLIGHT` threads when there are two or more.

    Results keep the items' order. If calls raise, the exception of the
    earliest failing item propagates, as in the sequential loop; calls not
    yet started are cancelled and those already running finish first.
    """
    if len(items) < 2:
        return [call(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(len(items), FINDING_CALLS_IN_FLIGHT)) as pool:
        return list(pool.map(call, items))


def build_advisor_prompt(
    contract: SourceContract, finding: Finding, kb_index: KbIndex | None, k: int = 5
) -> str:
    notes = reference_notes(kb_index, f"{finding.vuln_class.name} {finding.evidence}", k)
    return render_prompt(
        ADVISOR_TEMPLATE,
        {
            "vulnerability": finding.vuln_class.name,
            "function": finding.location.function or "(contract level)",
            "evidence": finding.evidence or "(none)",
            "reference_notes": notes,
            "code": contract.source,
        },
    )


def advise(
    contract: SourceContract,
    findings: list[Finding],
    kb_index: KbIndex | None,
    provider: Provider,
    k: int = 5,
) -> list[RepairSuggestion]:
    """One repair suggestion per finding, grounded in retrieved knowledge,
    in findings order; the per-finding calls overlap.

    A suggestion that cannot be extracted even after the repair retry, or
    that leaves a field empty, is recorded as incomplete; the pipeline
    carries on.
    """
    if not findings:
        raise PipelineError(f"{contract.id}: advise requires at least one finding")

    def suggest(finding: Finding) -> RepairSuggestion:
        prompt = build_advisor_prompt(contract, finding, kb_index, k)
        try:
            record = ask_structured(provider, "advisor", prompt, ADVISOR_SCHEMA)
            return RepairSuggestion(
                vulnerability_name=record["vulnerability_name"],
                cause_analysis=record["cause_analysis"],
                impact_assessment=record["impact_assessment"],
                repair_steps=tuple(str(s) for s in record["repair_steps"]),
                preventive_measures=tuple(str(s) for s in record["preventive_measures"]),
                finding=finding,
            )
        except (ExtractionError, ValueError) as exc:  # ValueError: a field left empty
            log.warning("%s: advisor output unusable for %s: %s", contract.id, finding.vuln_class.name, exc)
            return RepairSuggestion(
                vulnerability_name=finding.vuln_class.name,
                cause_analysis="",
                impact_assessment="",
                repair_steps=(),
                preventive_measures=(),
                finding=finding,
                complete=False,
            )

    return _per_finding(suggest, findings)


@dataclass(frozen=True)
class RiskAssignment:
    finding: Finding
    level: RiskLevel
    defaulted: bool = False  # model answer unusable; level fell back to High

    def to_payload(self) -> dict[str, Any]:
        return {
            "finding": self.finding.to_payload(),
            "level": self.level.value,
            "defaulted": self.defaulted,
        }


def build_assessor_prompt(
    contract: SourceContract,
    finding: Finding,
    suggestion: RepairSuggestion | None,
    kb_index: KbIndex | None,
    k: int = 5,
) -> str:
    summary = "(no suggestion available)"
    if suggestion is not None and suggestion.complete:
        summary = f"{suggestion.cause_analysis} Repair: {'; '.join(suggestion.repair_steps)}"
    notes = reference_notes(kb_index, f"{finding.vuln_class.name} severity impact", k)
    return render_prompt(
        ASSESSOR_TEMPLATE,
        {
            "vulnerability": finding.vuln_class.name,
            "function": finding.location.function or "(contract level)",
            "evidence": finding.evidence or "(none)",
            "suggestion_summary": summary,
            "reference_notes": notes,
            "code": contract.source,
        },
    )


def assess(
    contract: SourceContract,
    findings: list[Finding],
    suggestions: list[RepairSuggestion],
    kb_index: KbIndex | None,
    provider: Provider,
    k: int = 5,
) -> tuple[list[RiskAssignment], dict[str, int]]:
    """Risk level per finding plus the count-per-level distribution.

    ``suggestions`` is empty or holds one entry per finding, in order; the
    per-finding calls overlap and the levels come back in that order. An
    unusable model answer falls back to High, flagged, erring toward caution
    rather than silence.
    """

    def rate(pair: tuple[Finding, RepairSuggestion | None]) -> RiskAssignment:
        finding, suggestion = pair
        prompt = build_assessor_prompt(contract, finding, suggestion, kb_index, k)
        try:
            record = ask_structured(provider, "assessor", prompt, ASSESSOR_SCHEMA)
            raw = str(record["level"]).strip().title()
            return RiskAssignment(finding=finding, level=RiskLevel(raw))
        except (ExtractionError, ValueError) as exc:
            log.warning("%s: assessor output unusable for %s: %s", contract.id, finding.vuln_class.name, exc)
            return RiskAssignment(finding=finding, level=RiskLevel.HIGH, defaulted=True)

    paired = list(zip(findings, suggestions or [None] * len(findings), strict=True))
    assignments = _per_finding(rate, paired)
    distribution = {lvl.value: 0 for lvl in RiskLevel}
    for a in assignments:
        distribution[a.level.value] += 1
    return assignments, distribution


def _priority(assignment: RiskAssignment) -> tuple[int, int, int]:
    """Repair order: risk descending, then source location ascending."""
    span = assignment.finding.location.span
    return (-assignment.level.severity, span.start, span.end)


def build_fixer_prompt(
    contract: SourceContract,
    ordered: list[tuple[RiskAssignment, RepairSuggestion]],
) -> str:
    lines: list[str] = []
    for i, (assignment, suggestion) in enumerate(ordered, start=1):
        finding = assignment.finding
        line = (
            f"{i}. [{assignment.level.value}] {finding.vuln_class.name} in "
            f"{finding.location.function or '(contract level)'}"
        )
        if suggestion.complete:
            line += f": {'; '.join(suggestion.repair_steps)}"
        else:
            line += ": (no complete suggestion; repair from first principles)"
        lines.append(line)
    return render_prompt(
        FIXER_TEMPLATE, {"suggestions": "\n".join(lines), "code": contract.source}
    )


def fix(
    contract: SourceContract,
    suggestions: list[RepairSuggestion],
    assignments: list[RiskAssignment],
    provider: Provider,
) -> Patch:
    """Generate a patch; the repaired source must tokenize and segment cleanly.

    ``suggestions`` and ``assignments`` hold one entry per finding, in the
    same order. An answer that does not tokenize or segment earns one repair
    retry; a second failure raises :class:`PipelineError`. The returned patch
    carries its lexed and segmented source as :attr:`Patch.repaired`, which
    :func:`verify` reuses.
    """
    if not suggestions:
        raise PipelineError(f"{contract.id}: fix requires at least one suggestion")
    ordered = sorted(zip(assignments, suggestions, strict=True), key=lambda pair: _priority(pair[0]))
    prompt = build_fixer_prompt(contract, ordered)

    def ask(fixer_prompt: str) -> Patch:
        record = ask_structured(provider, "fixer", fixer_prompt, FIXER_SCHEMA)
        return Patch(
            original=contract.id,
            repaired_source=record["repaired_source"],
            addressed_findings=tuple(a.finding for a, _ in ordered),
            rationale=record["rationale"],
        )

    patch = ask(prompt)
    try:
        patch.repaired.view  # lexes and segments the repaired source now, so verify need not
    except (LexicalError, StructuralError):
        patch = ask(
            f"{prompt}\n\nThe repaired source you returned does not lex as Solidity. "
            "Return the complete corrected source."
        )
        try:
            patch.repaired.view
        except LexicalError as exc:
            raise PipelineError(f"{contract.id}: repaired source does not tokenize: {exc}") from exc
        except StructuralError as exc:
            raise PipelineError(f"{contract.id}: repaired source does not segment: {exc}") from exc
    return patch


def build_verifier_prompt(contract: SourceContract, patch: Patch) -> str:
    findings_text = "\n".join(
        f"- {f.vuln_class.name} in {f.location.function or '(contract level)'}"
        for f in patch.addressed_findings
    )
    return render_prompt(
        VERIFIER_TEMPLATE,
        {
            "findings": findings_text,
            "code": contract.source,
            "patched_code": patch.repaired_source,
        },
    )


def verify(
    contract: SourceContract,
    patch: Patch,
    original_findings: list[Finding],
    ruleset: list[PatternRule],
    provider: Provider,
) -> VerificationResult:
    """Independent patch verification: model judgment plus a static re-scan.

    The patched source is re-scanned; static findings absent from the
    original finding set count as new issues, and an addressed finding that
    still fires blocks the pass regardless of the model's opinion.
    """
    prompt = build_verifier_prompt(contract, patch)
    record = ask_structured(provider, "verifier", prompt, VERIFIER_SCHEMA)
    model_passed = bool(record["passed"])

    rescan = scan(patch.repaired, ruleset)
    original_keys = {f.key for f in original_findings}
    rescan_keys = {f.key for f in rescan}
    new_from_rescan = tuple(f for f in rescan if f.key not in original_keys)
    still_present = {f.key for f in patch.addressed_findings if f.key in rescan_keys}

    whole = Location(span=Span(0, byte_length(patch.repaired_source)), function="")
    model_new = tuple(
        Finding(
            contract_id=contract.id,
            vuln_class=VulnerabilityClass(name=str(item.get("class", "Unspecified"))),
            location=Location(
                span=whole.span, function=str(item.get("function", ""))
            ),
            evidence=str(item.get("evidence", "")),
            channel=Channel.MODEL,
            confidence=0.5,
        )
        for item in record.get("new_issues", [])
        if isinstance(item, dict)
    )

    new_issues = new_from_rescan + model_new
    passed = model_passed and not new_issues and not still_present
    eliminated = tuple(f for f in patch.addressed_findings if f.key not in rescan_keys)
    return VerificationResult(
        passed=passed,
        eliminated=eliminated,
        new_issues=new_issues,
        verifier_model=f"{provider.config.kind}:{provider.config.model_id}",
    )
