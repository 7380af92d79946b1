"""Audit report assembly: seven canonical sections plus a machine payload.

Rendering is deterministic: reports are a pure function of the pipeline
run, with no wall-clock content, so repeated runs over the same inputs are
byte-identical. Text a reply or finding supplies is put on one line, and a
discovery-table cell escapes ``|`` and the backslash, so no reply can open a
section of its own or split a table row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from solguard.core import (
    REPORT_SECTION_TITLES,
    AuditReport,
    ReportSection,
    SourceContract,
    Verdict,
)

if TYPE_CHECKING:
    from solguard.agents.pipeline import PipelineRun

_NOT_PERFORMED = {  # the in-depth and improvement sections under any verdict but vulnerable
    Verdict.SAFE: "Not performed: the contract was judged safe during detection.",
    Verdict.UNDETERMINED: "Not performed: detection failed, so no verdict was reached.",
}

_DISCLAIMER = (
    "This report was produced by automated analysis: a pattern-based static "
    "scanner, similarity retrieval over an audit corpus, and language-model "
    "review. Automated findings are advisory and do not replace a manual "
    "audit by qualified security engineers. No warranty, express or implied, "
    "is given that the contract is free of defects, and the authors of this "
    "report accept no liability for losses arising from its use."
)


def _line(text: str) -> str:
    return text.replace("\r", " ").replace("\n", " ")


def _cell(text: str) -> str:
    return _line(text).replace("\\", "\\\\").replace("|", "\\|")


def _basic_information(contract: SourceContract) -> str:
    view = contract.view
    functions = ", ".join(fn.name for fn in view.functions) or "(none)"
    lines = [
        f"- Contract id: {contract.id}",
        f"- Source size: {contract.whole.end} bytes",
        f"- Compiler pragma: {view.pragma_version or '(none declared)'}",
        f"- Functions ({len(view.functions)}): {functions}",
        f"- State variables: {', '.join(sorted(view.state_variables)) or '(none)'}",
    ]
    return "\n".join(lines)


def _executive_summary(run: "PipelineRun") -> str:
    fused = run.fused
    if fused.verdict is Verdict.UNDETERMINED:
        lines = ["Overall verdict: **undetermined**: detection failed, and no other channel carries fusion weight."]
    else:
        lines = [
            f"Overall verdict: **{fused.verdict.value}** "
            f"(fused score {fused.score:.4f}, mode {fused.mode}, threshold {fused.threshold:.2f})."
        ]
    if fused.verdict is Verdict.SAFE:
        lines.append("No actionable vulnerabilities were identified.")
    elif fused.verdict is Verdict.VULNERABLE:
        lines.append(f"Actionable findings: {len(run.findings)}.")
        if run.risk_distribution:
            parts = [f"{level}: {count}" for level, count in run.risk_distribution.items()]
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
    if run.fused.verdict is Verdict.UNDETERMINED:
        return _NOT_PERFORMED[Verdict.UNDETERMINED]
    if not run.findings:
        return "No vulnerabilities were found."
    rows = ["| # | Class | SWC | Function | Channel | Confidence | Risk |", "|---|---|---|---|---|---|---|"]
    for i, (f, _, assignment) in enumerate(run.per_finding(), start=1):
        risk = assignment.level.value if assignment else "(not assessed)"
        rows.append(
            f"| {i} | {_cell(f.vuln_class.name)} | {_cell(f.vuln_class.swc_id or '-')} | "
            f"{_cell(f.function_label)} | {f.channel.value} | "
            f"{f.confidence:.2f} | {risk} |"
        )
    return "\n".join(rows)


def _in_depth(run: "PipelineRun") -> str:
    if not run.findings:
        return "No localized findings to analyze."
    blocks: list[str] = []
    for i, (f, suggestion, assignment) in enumerate(run.per_finding(), start=1):
        risk = assignment.level.value if assignment else "(not assessed)"
        block = [
            f"### {i}. {_line(f.vuln_class.name)} ({risk})",
            f"- Location: function {_line(f.function_label)} "
            f"(bytes {f.location.span.start}..{f.location.span.end})",
            f"- Evidence: `{_line(f.evidence)}`" if f.evidence else "- Evidence: (none)",
        ]
        if suggestion is not None and suggestion.complete:
            block.append(f"- Cause: {_line(suggestion.cause_analysis)}")
            block.append(f"- Impact: {_line(suggestion.impact_assessment)}")
        elif suggestion is not None:
            block.append("- Cause analysis unavailable (advisor output could not be parsed).")
        blocks.append("\n".join(block))
    return "\n\n".join(blocks)


def _improvements(run: "PipelineRun") -> str:
    blocks: list[str] = []
    for suggestion in run.suggestions:
        if not suggestion.complete:
            continue
        steps = "\n".join(f"  {j}. {_line(step)}" for j, step in enumerate(suggestion.repair_steps, 1))
        measures = "\n".join(f"  - {_line(m)}" for m in suggestion.preventive_measures)
        blocks.append(
            f"**{_line(suggestion.vulnerability_name)}**\n- Repair steps:\n{steps}\n"
            f"- Preventive measures:\n{measures}"
        )
    if run.patch is not None:
        blocks.append(f"**Applied repair**\n{_line(run.patch.rationale)}")
        if run.verification is not None:
            if run.verification.passed:
                blocks.append(
                    "Verification: passed; addressed vulnerabilities eliminated and "
                    "no new issues introduced."
                )
            else:
                issues = ", ".join(_line(f.vuln_class.name) for f in run.verification.new_issues) or "none"
                blocks.append(
                    f"Verification: failed (new or remaining issues: {issues}). "
                    "Apply the repair steps manually and re-audit."
                )
    if not blocks:
        return "No improvement suggestions could be generated; review the findings manually."
    return "\n\n".join(blocks)


def build_report(run: "PipelineRun", contract: SourceContract) -> AuditReport:
    """Assemble the seven-section report from a completed run."""
    skipped = _NOT_PERFORMED.get(run.fused.verdict)
    analysis = (skipped, skipped) if skipped else (_in_depth(run), _improvements(run))
    bodies = (_basic_information(contract), _executive_summary(run), _methodology(run), _discovery_summary(run),
              *analysis, _DISCLAIMER)
    return AuditReport(tuple(map(ReportSection, REPORT_SECTION_TITLES, bodies)), machine_payload=run.to_payload())
