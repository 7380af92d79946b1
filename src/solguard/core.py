"""Shared domain types and pure helpers.

Everything here is immutable after construction and free of I/O, so values
can be shared across threads and serialized deterministically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

if TYPE_CHECKING:
    from solguard.static_analysis.structure import ContractView


class Span(NamedTuple):
    """Half-open byte range ``[start, end)`` into a contract's UTF-8 source."""

    start: int
    end: int


class TokenKind(str, enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punct"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    span: Span


class Channel(str, enum.Enum):
    STATIC = "static"
    RETRIEVAL = "retrieval"
    MODEL = "model"


class Verdict(str, enum.Enum):
    SAFE = "safe"
    VULNERABLE = "vulnerable"


class RiskLevel(str, enum.Enum):
    CRITICAL = "Critical"
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"

    @property
    def severity(self) -> int:
        return _RISK_SEVERITY[self]


_RISK_SEVERITY = {
    RiskLevel.CRITICAL: 4,
    RiskLevel.HIGH: 3,
    RiskLevel.MEDIUM: 2,
    RiskLevel.LOW: 1,
}


def normalize_text(text: str) -> str:
    """Normalize line endings to LF so byte spans are stable across platforms."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def byte_length(text: str) -> int:
    return len(text.encode("utf-8"))


@dataclass(frozen=True)
class SourceContract:
    """One Solidity source unit with its tokenized view.

    Construct through :func:`solguard.static_analysis.load_source`, which
    normalizes line endings and tokenizes; the raw constructor only checks
    span sanity.
    """

    id: str
    source: str
    token_stream: tuple[Token, ...] = ()

    def __post_init__(self) -> None:
        limit = byte_length(self.source)
        prev_end = 0
        for tok in self.token_stream:
            if not (0 <= tok.span.start < tok.span.end <= limit):
                raise ValueError(f"token span {tok.span} outside source bounds 0..{limit}")
            if tok.span.start < prev_end:
                raise ValueError(f"token spans overlap or descend at {tok.span}")
            prev_end = tok.span.end

    @cached_property
    def view(self) -> ContractView:
        """The function-segmented view every consumer shares, built on first use."""
        from solguard.static_analysis.structure import build_view

        return build_view(self.token_stream)


@dataclass(frozen=True)
class VulnerabilityClass:
    """A named weakness class, optionally keyed into the SWC registry."""

    name: str
    swc_id: str | None = None

    def to_payload(self) -> dict[str, Any]:
        return {"name": self.name, "swc_id": self.swc_id}


@dataclass(frozen=True)
class Location:
    span: Span
    function: str = ""

    def to_payload(self) -> dict[str, Any]:
        return {"start": self.span.start, "end": self.span.end, "function": self.function}


@dataclass(frozen=True)
class Finding:
    """One detected vulnerability instance."""

    contract_id: str
    vuln_class: VulnerabilityClass
    location: Location
    evidence: str
    channel: Channel
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def key(self) -> tuple[str, str]:
        """The defect's identity, (class name, enclosing function): findings
        that share it report the same weakness."""
        return (self.vuln_class.name, self.location.function)

    def to_payload(self) -> dict[str, Any]:
        return {
            "contract_id": self.contract_id,
            "class": self.vuln_class.to_payload(),
            "location": self.location.to_payload(),
            "evidence": self.evidence,
            "channel": self.channel.value,
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class ChannelResult:
    """Per-channel binary signal with its probability-of-vulnerable score."""

    channel: Channel
    verdict: Verdict
    score: float
    findings: tuple[Finding, ...] = ()

    def to_payload(self) -> dict[str, Any]:
        return {
            "channel": self.channel.value,
            "verdict": self.verdict.value,
            "score": self.score,
            "findings": [f.to_payload() for f in self.findings],
        }


@dataclass(frozen=True)
class RepairSuggestion:
    """Advisor output for one finding; ``complete`` requires all five fields."""

    vulnerability_name: str
    cause_analysis: str
    impact_assessment: str
    repair_steps: tuple[str, ...]
    preventive_measures: tuple[str, ...]
    finding: Finding
    complete: bool = True

    def __post_init__(self) -> None:
        if self.complete:
            filled = (
                self.vulnerability_name
                and self.cause_analysis
                and self.impact_assessment
                and self.repair_steps
                and self.preventive_measures
            )
            if not filled:
                raise ValueError("a complete suggestion requires all five fields non-empty")

    def to_payload(self) -> dict[str, Any]:
        return {
            "vulnerability_name": self.vulnerability_name,
            "cause_analysis": self.cause_analysis,
            "impact_assessment": self.impact_assessment,
            "repair_steps": list(self.repair_steps),
            "preventive_measures": list(self.preventive_measures),
            "finding": self.finding.to_payload(),
            "complete": self.complete,
        }


@dataclass(frozen=True)
class Patch:
    """Repaired source produced by the fixer for a set of findings."""

    original: str  # contract id
    repaired_source: str
    addressed_findings: tuple[Finding, ...]
    rationale: str

    def __post_init__(self) -> None:
        if not self.addressed_findings:
            raise ValueError("a patch must address at least one finding")

    @cached_property
    def repaired(self) -> SourceContract:
        """The repaired source loaded as a contract, lexed on first use.

        Raises :class:`~solguard.errors.LexicalError` when it does not lex.
        """
        from solguard.static_analysis.scanner import load_source

        return load_source(f"{self.original}.patched", self.repaired_source)

    def to_payload(self) -> dict[str, Any]:
        return {
            "original": self.original,
            "repaired_source": self.repaired_source,
            "addressed_findings": [f.to_payload() for f in self.addressed_findings],
            "rationale": self.rationale,
        }


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    eliminated: tuple[Finding, ...]
    new_issues: tuple[Finding, ...]
    verifier_model: str

    def __post_init__(self) -> None:
        if self.passed and self.new_issues:
            raise ValueError("a passing verification cannot carry new issues")

    def to_payload(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "eliminated": [f.to_payload() for f in self.eliminated],
            "new_issues": [f.to_payload() for f in self.new_issues],
            "verifier_model": self.verifier_model,
        }


REPORT_SECTION_TITLES: tuple[str, ...] = (
    "Contract Basic Information Overview",
    "Executive Summary",
    "Audit Methodology Explanation",
    "Vulnerability Discovery Summary",
    "In-Depth Analysis Report",
    "Improvement Suggestions",
    "Compliance Disclaimer",
)


@dataclass(frozen=True)
class ReportSection:
    title: str
    body: str


@dataclass(frozen=True)
class AuditReport:
    """Final audit artifact: seven canonical sections plus a machine payload."""

    sections: tuple[ReportSection, ...]
    machine_payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        titles = tuple(s.title for s in self.sections)
        if titles != REPORT_SECTION_TITLES:
            raise ValueError(
                f"report must carry exactly the canonical seven sections, got {titles!r}"
            )

    def to_markdown(self) -> str:
        lines = ["# Smart Contract Security Audit Report", ""]
        for i, section in enumerate(self.sections, start=1):
            lines.append(f"## {i}. {section.title}")
            lines.append("")
            lines.append(section.body.rstrip())
            lines.append("")
        return "\n".join(lines)


def merge_findings(lists: Iterable[Iterable[Finding]]) -> list[Finding]:
    """Merge findings from several channels into one deduplicated list.

    Findings that share a :attr:`Finding.key` are considered the same
    defect reported by different channels; the highest-confidence
    instance wins. Output is sorted by location ascending. All findings must
    reference the same contract.
    """
    flat = [f for group in lists for f in group]
    if not flat:
        return []
    ids = {f.contract_id for f in flat}
    if len(ids) > 1:
        raise ValueError(f"cannot merge findings from different contracts: {sorted(ids)}")

    best: dict[tuple[str, str], Finding] = {}
    for f in flat:
        cur = best.get(f.key)
        if cur is None or (f.confidence, f.channel.value) > (cur.confidence, cur.channel.value):
            best[f.key] = f
    return sorted(
        best.values(),
        key=lambda f: (f.location.span.start, f.location.span.end, f.vuln_class.name),
    )
