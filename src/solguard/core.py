"""Shared domain types and pure helpers.

Everything here is immutable after construction and free of I/O, so values
can be shared across threads and serialized deterministically.

One rule, :func:`payload`, turns any run-record value into JSON data: an
enum becomes its value, a list or tuple a list, a dict a dict of payloads,
and a dataclass its fields in declaration order. Only a record whose JSON
differs from its fields defines ``to_payload()``, and ``payload`` returns
that instead.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from solguard.static_analysis.structure import ContractView
    from solguard.static_analysis.tokenizer import TokenTable


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
    UNDETERMINED = "undetermined"  # detection failed and no channel with fusion weight was left


class RiskLevel(str, enum.Enum):
    """Declared from the most severe level down: :attr:`severity` and the
    risk distribution read this order."""

    CRITICAL = "Critical"
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"

    @property
    def severity(self) -> int:
        """4 for Critical down to 1 for Low."""
        levels = list(RiskLevel)
        return len(levels) - levels.index(self)


def normalize_text(text: str) -> str:
    """Normalize line endings to LF so byte spans are stable across platforms."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def ordered_sum(values: Iterable[float]) -> float:
    """``sum`` added left to right, as before Python 3.12's compensated float sums: the same bits on every Python."""
    return reduce(add, values, 0)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection, then restore the caller's setting. A
    corpus read, build or snapshot load allocates tens of thousands of
    containers (a 20k-document corpus has a few per document) and keeps them
    all, so the collections they would set off free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def payload(value: Any) -> Any:
    """Plain JSON data for a run-record value, by the rule in the module docstring."""
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [payload(item) for item in value]
    if isinstance(value, dict):
        return {key: payload(item) for key, item in value.items()}
    to_payload = getattr(value, "to_payload", None)
    if to_payload is not None:
        return to_payload()
    return {f.name: payload(getattr(value, f.name)) for f in fields(value)}


@dataclass(frozen=True)
class SourceContract:
    """One Solidity source unit with its tokenized view.

    Construct through :func:`solguard.static_analysis.scanner.load_source`,
    which normalizes line endings and tokenizes; the raw constructor only
    checks span sanity.
    """

    id: str
    source: str
    token_stream: TokenTable

    def __post_init__(self) -> None:
        tokens = self.token_stream
        limit = self.whole.end
        for start, end, prev_end in zip(tokens.starts, tokens.ends, chain((0,), tokens.ends)):
            if not (0 <= start < end <= limit):
                raise ValueError(f"token span {Span(start, end)} outside source bounds 0..{limit}")
            if start < prev_end:
                raise ValueError(f"token spans overlap or descend at {Span(start, end)}")

    @cached_property
    def whole(self) -> Span:
        """The span of the whole source: a contract-level finding's location."""
        return Span(0, len(self.token_stream.data))

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

    @property
    def function_label(self) -> str:
        """The enclosing function's name as prompts and reports print it."""
        return self.location.function or "(contract level)"

    def to_payload(self) -> dict[str, Any]:
        return {
            "contract_id": self.contract_id,
            "class": payload(self.vuln_class),
            "location": payload(self.location),
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


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    eliminated: tuple[Finding, ...]
    new_issues: tuple[Finding, ...]
    verifier_model: str

    def __post_init__(self) -> None:
        if self.passed and self.new_issues:
            raise ValueError("a passing verification cannot carry new issues")


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
    instance wins. Output is sorted by location ascending. The caller passes
    one contract's findings.
    """
    best: dict[tuple[str, str], Finding] = {}
    for f in chain.from_iterable(lists):
        cur = best.get(f.key)
        if cur is None or (f.confidence, f.channel.value) > (cur.confidence, cur.channel.value):
            best[f.key] = f
    return sorted(
        best.values(),
        key=lambda f: (f.location.span.start, f.location.span.end, f.vuln_class.name),
    )
