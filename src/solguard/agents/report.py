"""Audit report assembly: seven canonical sections plus a machine payload.

Rendering is deterministic: reports are a pure function of the pipeline
run, with no wall-clock content, so repeated runs over the same inputs are
byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from solguard.core import (
    AuditReport,
    Channel,
    ReportSection,
    RiskLevel,
    SourceContract,
    Verdict,
    byte_length,
)

if TYPE_CHECKING:
    from solguard.agents.pipeline import PipelineRun

_NOT_PERFORMED = "Not performed: the contract was judged safe during detection."

_DISCLAIMER = (
    "This report was produced by automated analysis: a pattern-based static "
    "scanner, similarity retrieval over an audit corpus, and language-model "
    "review. Automated findings are advisory and do not replace a manual "
    "audit by qualified security engineers. No warranty, express or implied, "
    "is given that the contract is free of defects, and the authors of this "
    "report accept no liability for losses arising from its use."
)


def _basic_information(contract: SourceContract) -> str:
    view = contract.view
    functions = ", ".join(fn.name for fn in view.functions) or "(none)"
    lines = [
        f"- Contract id: {contract.id}",
        f"- Source size: {byte_length(contract.source)} bytes",
        f"- Compiler pragma: {view.pragma_version or '(none declared)'}",
        f"- Functions ({len(view.functions)}): {functions}",
        f"- State variables: {', '.join(sorted(view.state_variables)) or '(none)'}",
    ]
    return "\n".join(lines)


def _executive_summary(run: "PipelineRun") -> str:
    fused = run.fused
    lines = [
        f"Overall verdict: **{fused.verdict.value}** "
        f"(fused score {fused.score:.4f}, mode {fused.mode}, threshold {fused.threshold:.2f})."
    ]
    if fused.verdict is Verdict.SAFE:
        lines.append("No actionable vulnerabilities were identified.")
    else:
        lines.append(f"Actionable findings: {len(run.findings)}.")
        if run.risk_distribution:
            parts = [
                f"{level.value}: {run.risk_distribution.get(level.value, 0)}" for level in RiskLevel
            ]
            lines.append("Risk distribution: " + ", ".join(parts) + ".")
        if run.verification is not None:
            status = "passed" if run.verification.passed else "failed"
            lines.append(f"A repair patch was generated; independent verification {status}.")
        elif run.patch is not None:
            lines.append("A repair patch was generated; verification did not complete.")
    if run.errors:
        lines.append(
            "Stages with errors: " + ", ".join(sorted(run.errors)) + " (see run record)."
        )
    return "\n".join(lines)


def _methodology(run: "PipelineRun") -> str:
    lines = [
        "Detection combines three independent channels:",
        "1. Static analysis: a deterministic pattern library over the token stream,",
        "   scoped per function.",
        "2. Similarity retrieval: TF-IDF vectors with cosine ranking over a labeled",
        "   contract corpus; neighbor labels weighted by rank.",
        "3. Model review: a language model reads the raw source and returns a",
        "   structured verdict with a probability score.",
        "",
        f"Channel outputs were fused in {run.fused.mode!r} mode. Confirmed findings "
        "then flow through remediation: repair suggestions grounded in a "
        "vulnerability knowledge base, four-level risk grading, automated repair "
        "ordered by priority, and independent patch verification (a distinct "
        "model plus a static re-scan of the patched source).",
    ]
    per_channel = [
        f"- {c.channel.value}: verdict {c.verdict.value}, score {c.score:.4f}"
        for c in run.fused.channel_results
    ]
    return "\n".join(lines + ["", "Channel results:"] + per_channel)


def _discovery_summary(run: "PipelineRun") -> str:
    if not run.findings:
        retrieval_hints = [
            f"- corpus neighbors suggest: {f.vuln_class.name}"
            for c in run.fused.channel_results
            if c.channel is Channel.RETRIEVAL
            for f in c.findings
        ]
        if run.fused.verdict is Verdict.VULNERABLE and retrieval_hints:
            return "No localized findings.\n" + "\n".join(retrieval_hints)
        return "No vulnerabilities were found."
    rows = ["| # | Class | SWC | Function | Channel | Confidence | Risk |", "|---|---|---|---|---|---|---|"]
    for i, (f, _, assignment) in enumerate(run.per_finding(), start=1):
        risk = assignment.level.value if assignment else "(not assessed)"
        rows.append(
            f"| {i} | {f.vuln_class.name} | {f.vuln_class.swc_id or '-'} | "
            f"{f.location.function or '(contract level)'} | {f.channel.value} | "
            f"{f.confidence:.2f} | {risk} |"
        )
    return "\n".join(rows)


def _in_depth(run: "PipelineRun") -> str:
    if run.fused.verdict is Verdict.SAFE:
        return _NOT_PERFORMED
    if not run.findings:
        return "No localized findings to analyze."
    blocks: list[str] = []
    for i, (f, suggestion, assignment) in enumerate(run.per_finding(), start=1):
        risk = assignment.level.value if assignment else "(not assessed)"
        block = [
            f"### {i}. {f.vuln_class.name} ({risk})",
            f"- Location: function {f.location.function or '(contract level)'} "
            f"(bytes {f.location.span.start}..{f.location.span.end})",
            f"- Evidence: `{f.evidence}`" if f.evidence else "- Evidence: (none)",
        ]
        if suggestion is not None and suggestion.complete:
            block.append(f"- Cause: {suggestion.cause_analysis}")
            block.append(f"- Impact: {suggestion.impact_assessment}")
        elif suggestion is not None:
            block.append("- Cause analysis unavailable (advisor output could not be parsed).")
        blocks.append("\n".join(block))
    return "\n\n".join(blocks)


def _improvements(run: "PipelineRun") -> str:
    if run.fused.verdict is Verdict.SAFE:
        return _NOT_PERFORMED
    blocks: list[str] = []
    for suggestion in run.suggestions:
        if not suggestion.complete:
            continue
        steps = "\n".join(f"  {j}. {step}" for j, step in enumerate(suggestion.repair_steps, 1))
        measures = "\n".join(f"  - {m}" for m in suggestion.preventive_measures)
        blocks.append(
            f"**{suggestion.vulnerability_name}**\n- Repair steps:\n{steps}\n"
            f"- Preventive measures:\n{measures}"
        )
    if run.patch is not None:
        blocks.append(f"**Applied repair**\n{run.patch.rationale}")
        if run.verification is not None:
            if run.verification.passed:
                blocks.append(
                    "Verification: passed; addressed vulnerabilities eliminated and "
                    "no new issues introduced."
                )
            else:
                issues = ", ".join(f.vuln_class.name for f in run.verification.new_issues) or "none"
                blocks.append(
                    f"Verification: failed (new or remaining issues: {issues}). "
                    "Apply the repair steps manually and re-audit."
                )
    if not blocks:
        return "No improvement suggestions could be generated; review the findings manually."
    return "\n\n".join(blocks)


def build_report(run: "PipelineRun", contract: SourceContract) -> AuditReport:
    """Assemble the seven-section report from a completed run."""
    sections = (
        ReportSection("Contract Basic Information Overview", _basic_information(contract)),
        ReportSection("Executive Summary", _executive_summary(run)),
        ReportSection("Audit Methodology Explanation", _methodology(run)),
        ReportSection("Vulnerability Discovery Summary", _discovery_summary(run)),
        ReportSection("In-Depth Analysis Report", _in_depth(run)),
        ReportSection("Improvement Suggestions", _improvements(run)),
        ReportSection("Compliance Disclaimer", _DISCLAIMER),
    )
    return AuditReport(sections=sections, machine_payload=run.to_payload())
