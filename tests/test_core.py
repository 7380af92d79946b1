from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solguard.core import (
    AuditReport,
    Channel,
    Finding,
    Location,
    REPORT_SECTION_TITLES,
    RepairSuggestion,
    ReportSection,
    RiskLevel,
    SourceContract,
    Span,
    VerificationResult,
    VulnerabilityClass,
    merge_findings,
)
from solguard.static_analysis.tokenizer import WORD, TokenTable

LEVELS = [RiskLevel.CRITICAL, RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW]


def _finding(
    cls: str = "Reentrancy",
    function: str = "f",
    confidence: float = 0.5,
    channel: Channel = Channel.STATIC,
    start: int = 0,
) -> Finding:
    return Finding(
        contract_id="c1",
        vuln_class=VulnerabilityClass(cls),
        location=Location(Span(start, start + 10), function),
        evidence="e",
        channel=channel,
        confidence=confidence,
    )


class TestCompareRisk:
    def test_sorting_follows_total_order(self):
        shuffled = [RiskLevel.LOW, RiskLevel.CRITICAL, RiskLevel.MEDIUM, RiskLevel.HIGH]
        ordered = sorted(shuffled, key=lambda l: l.severity, reverse=True)
        assert ordered == LEVELS


class TestMergeFindings:
    def test_identical_findings_collapse(self):
        f = _finding()
        assert merge_findings([[f], [f]]) == [f]

    def test_max_confidence_wins(self):
        low = _finding(confidence=0.6, channel=Channel.STATIC)
        high = _finding(confidence=0.9, channel=Channel.MODEL)
        merged = merge_findings([[low], [high]])
        assert merged == [high]
        assert merged[0].channel is Channel.MODEL

    def test_disjoint_classes_concatenate_sorted_by_location(self):
        a = _finding(cls="Reentrancy", start=100)
        b = _finding(cls="Timestamp Dependence", start=5)
        assert merge_findings([[a], [b]]) == [b, a]

    def test_empty_input(self):
        assert merge_findings([]) == []
        assert merge_findings([[], []]) == []

    def test_against_exhaustive_small_case_oracle(self):
        # oracle: group by (class, function), pick max (confidence, channel),
        # sort by location
        classes = ["Reentrancy", "Unprotected Function"]
        functions = ["f", "g"]
        confidences = [0.3, 0.9]
        channels = [Channel.STATIC, Channel.MODEL]
        pool = [
            _finding(cls=c, function=fn, confidence=conf, channel=ch, start=10 * i)
            for i, (c, fn, conf, ch) in enumerate(
                itertools.product(classes, functions, confidences, channels)
            )
        ]
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                best: dict[tuple[str, str], Finding] = {}
                for f in combo:
                    key = (f.vuln_class.name, f.location.function)
                    if key not in best or (f.confidence, f.channel.value) > (
                        best[key].confidence,
                        best[key].channel.value,
                    ):
                        best[key] = f
                expected = sorted(
                    best.values(),
                    key=lambda f: (f.location.span.start, f.location.span.end, f.vuln_class.name),
                )
                assert merge_findings([combo]) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                st.sampled_from(["f", "g", ""]),
                st.floats(min_value=0, max_value=1),
                st.sampled_from([Channel.STATIC, Channel.RETRIEVAL, Channel.MODEL]),
                st.integers(min_value=0, max_value=500),
            ),
            max_size=12,
        )
    )
    def test_idempotent(self, specs):
        findings = [
            _finding(cls=c, function=fn, confidence=conf, channel=ch, start=s)
            for c, fn, conf, ch, s in specs
        ]
        once = merge_findings([findings])
        assert merge_findings([once]) == once


class TestDomainTypes:
    def test_finding_confidence_bounds(self):
        with pytest.raises(ValueError):
            _finding(confidence=1.5)
        with pytest.raises(ValueError):
            _finding(confidence=-0.1)

    def test_source_contract_rejects_overlapping_spans(self):
        tokens = TokenTable(b"abcd", bytes([WORD, WORD]), [0, 1], [2, 3], ["ab", "bc"])
        with pytest.raises(ValueError, match=r"overlap or descend at Span\(start=1, end=3\)"):
            SourceContract(id="x", source="abcd", token_stream=tokens)

    def test_source_contract_rejects_out_of_bounds_span(self):
        tokens = TokenTable(b"ab", bytes([WORD]), [0], [99], ["abcd"])
        with pytest.raises(ValueError, match="bounds"):
            SourceContract(id="x", source="ab", token_stream=tokens)

    @pytest.mark.parametrize(
        "starts, ends, fault",
        [
            ([0, 2, 2], [1, 3, 2], r"Span\(start=2, end=2\) outside source bounds"),  # empty
            ([-1], [1], r"Span\(start=-1, end=1\) outside"),
            ([2, 0], [3, 1], r"descend at Span\(start=0, end=1\)"),
            ([0, 3], [1, 5], r"Span\(start=3, end=5\) outside source bounds 0..4"),
        ],
    )
    def test_source_contract_names_the_first_bad_span(self, starts, ends, fault):
        tokens = TokenTable(b"abcd", bytes([WORD]) * len(starts), starts, ends, ["a"] * len(starts))
        with pytest.raises(ValueError, match=fault):
            SourceContract(id="x", source="abcd", token_stream=tokens)

    def test_source_contract_accepts_adjacent_spans(self):
        tokens = TokenTable(b"abcd", bytes([WORD, WORD]), [0, 2], [2, 4], ["ab", "cd"])
        assert SourceContract(id="x", source="abcd", token_stream=tokens).token_stream is tokens

    def test_verification_cannot_pass_with_new_issues(self):
        with pytest.raises(ValueError):
            VerificationResult(
                passed=True, eliminated=(), new_issues=(_finding(),), verifier_model="m"
            )

    def test_complete_suggestion_requires_all_fields(self):
        with pytest.raises(ValueError):
            RepairSuggestion(
                vulnerability_name="x",
                cause_analysis="",
                impact_assessment="i",
                repair_steps=("s",),
                preventive_measures=("p",),
                finding=_finding(),
            )


class TestAuditReport:
    def test_canonical_sections_accepted(self):
        report = AuditReport(
            sections=tuple(ReportSection(t, "body") for t in REPORT_SECTION_TITLES)
        )
        assert len(report.sections) == 7

    def test_permuted_sections_rejected(self):
        titles = list(REPORT_SECTION_TITLES)
        titles[0], titles[1] = titles[1], titles[0]
        with pytest.raises(ValueError, match="canonical"):
            AuditReport(sections=tuple(ReportSection(t, "b") for t in titles))

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            AuditReport(
                sections=tuple(ReportSection(t, "b") for t in REPORT_SECTION_TITLES[:6])
            )
