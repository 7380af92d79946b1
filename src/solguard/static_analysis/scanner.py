"""Contract loading and the static detection channel."""

from __future__ import annotations

from pathlib import Path

from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    SourceContract,
    Verdict,
    merge_findings,
    normalize_text,
)
from solguard.errors import SolguardError
from solguard.static_analysis.rules import PatternRule, evaluate_rule
from solguard.static_analysis.tokenizer import tokenize_solidity


def load_source(contract_id: str, text: str) -> SourceContract:
    """Build a contract from raw text: LF-normalize, tokenize."""
    source = normalize_text(text)
    return SourceContract(id=contract_id, source=source, token_stream=tokenize_solidity(source))


def load_file(path: str | Path, contract_id: str | None = None) -> SourceContract:
    """``load_source`` over a UTF-8 file; a file that cannot be read or
    decoded is a ``SolguardError`` naming it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SolguardError(f"cannot read {p}: {exc}") from exc
    return load_source(contract_id or p.stem, text)


def evidence_line(source: str, byte_offset: int) -> str:
    """The trimmed source line containing ``byte_offset``."""
    data = source.encode("utf-8")
    start = data.rfind(b"\n", 0, byte_offset) + 1
    end = data.find(b"\n", byte_offset)
    end = len(data) if end == -1 else end
    return data[start:end].decode("utf-8", errors="replace").strip()[:160]


def scan(contract: SourceContract, ruleset: list[PatternRule]) -> list[Finding]:
    """Evaluate every rule over every function span; one finding per match.

    Results pass through :func:`merge_findings`, so duplicate (class,
    function) hits collapse to the highest-confidence instance.
    """
    if not ruleset:
        raise ValueError("ruleset must not be empty")
    view = contract.view
    findings: list[Finding] = []
    for fn in view.functions:
        for rule in ruleset:
            fired = evaluate_rule(rule, fn, view)
            if fired is None:
                continue
            tok = fn.body_tokens[fired]
            findings.append(
                Finding(
                    contract_id=contract.id,
                    vuln_class=rule.vuln_class,
                    location=Location(span=fn.body_span, function=fn.name),
                    evidence=evidence_line(contract.source, tok.span.start),
                    channel=Channel.STATIC,
                    confidence=rule.default_confidence,
                )
            )
    return merge_findings([findings])


def static_channel(contract: SourceContract, ruleset: list[PatternRule]) -> ChannelResult:
    """Static analysis as a detection channel.

    Vulnerable iff any rule fired; the score is the strongest rule
    confidence among the findings (0 when clean).
    """
    findings = scan(contract, ruleset)
    score = max((f.confidence for f in findings), default=0.0)
    verdict = Verdict.VULNERABLE if findings else Verdict.SAFE
    return ChannelResult(channel=Channel.STATIC, verdict=verdict, score=score, findings=tuple(findings))
