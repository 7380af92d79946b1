"""The per-finding advise and assess calls of one contract overlap, bounded
and in findings order, and transcripts recorded over them stay stable."""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter

import pytest

from solguard.agents import remediate
from solguard.agents.remediate import FINDING_CALLS_IN_FLIGHT, advise, assess
from solguard.core import Channel, Finding, Location, Span, VulnerabilityClass
from solguard.errors import TransportError
from solguard.llm.mock import TranscriptRecorder
from solguard.llm.provider import ChatExchange, ProviderConfig
from solguard.static_analysis.scanner import load_source

FUNCTIONS = ("fnAlpha", "fnBravo", "fnCharlie")
LEVELS = {"fnAlpha": "Critical", "fnBravo": "Low", "fnCharlie": "Medium"}
CONTRACT = load_source("c", "contract C {}")


def findings_for(functions=FUNCTIONS) -> list[Finding]:
    return [
        Finding(
            contract_id="c",
            vuln_class=VulnerabilityClass(f"Class{i}"),
            location=Location(Span(10 * i, 10 * i + 5), name),
            evidence="evidence line",
            channel=Channel.STATIC,
            confidence=0.9,
        )
        for i, name in enumerate(functions)
    ]


def function_in(prompt: str) -> str:
    (name,) = [f for f in LEVELS if f in prompt]
    return name


def scripted_reply(role: str, prompt: str) -> str:
    name = function_in(prompt)
    if role == "advisor":
        return json.dumps({
            "vulnerability_name": name,
            "cause_analysis": f"{name} acts before it checks.",
            "impact_assessment": "Funds can move.",
            "repair_steps": [f"Guard {name}."],
            "preventive_measures": ["Review entry points."],
        })
    return json.dumps({"level": LEVELS[name]})


class SlowProvider:
    """Answers after a per-function delay, so the first finding finishes
    last; counts calls in flight per role and the threads that made them.
    A function named in ``failures`` raises ``TransportError`` instead."""

    def __init__(self, delays: dict[str, float], failures: frozenset[str] = frozenset()):
        self.config = ProviderConfig(kind="mock", model_id="slow", transcript="<scripted>")
        self.delays = delays
        self.failures = failures
        self.lock = threading.Lock()
        self.in_flight: Counter[str] = Counter()
        self.peak: Counter[str] = Counter()
        self.threads: set[int] = set()

    def complete(self, prompt: str, *, role: str) -> ChatExchange:
        name = function_in(prompt)
        with self.lock:
            self.in_flight[role] += 1
            self.peak[role] = max(self.peak[role], self.in_flight[role])
            self.threads.add(threading.get_ident())
        try:
            time.sleep(self.delays.get(name, 0.0))
            if name in self.failures:
                raise TransportError(f"server error 503 for {name}")
            response = scripted_reply(role, prompt)
        finally:
            with self.lock:
                self.in_flight[role] -= 1
        return ChatExchange(role=role, request=prompt, response=response, provider_id="mock:slow", latency_s=0.0)


REVERSED = {"fnAlpha": 0.12, "fnBravo": 0.08, "fnCharlie": 0.04}


def sequential_baseline(findings: list[Finding]):
    provider = SlowProvider({})
    suggestions = [advise(CONTRACT, [f], None, provider)[0] for f in findings]
    assignments = [assess(CONTRACT, [f], [s], None, provider)[0][0] for f, s in zip(findings, suggestions)]
    return suggestions, assignments


class TestFindingOverlap:
    def test_calls_overlap_within_the_cap_and_keep_findings_order(self):
        findings = findings_for()
        provider = SlowProvider(REVERSED)
        suggestions = advise(CONTRACT, findings, None, provider)
        assignments, distribution = assess(CONTRACT, findings, suggestions, None, provider)
        for role in ("advisor", "assessor"):
            assert 2 <= provider.peak[role] <= FINDING_CALLS_IN_FLIGHT, role
        expected_suggestions, expected_assignments = sequential_baseline(findings)
        assert suggestions == expected_suggestions
        assert assignments == expected_assignments
        assert [a.level.value for a in assignments] == ["Critical", "Low", "Medium"]
        assert distribution == {"Critical": 1, "High": 0, "Medium": 1, "Low": 1}

    def test_cap_bounds_calls_in_flight(self, monkeypatch):
        monkeypatch.setattr(remediate, "FINDING_CALLS_IN_FLIGHT", 2)
        provider = SlowProvider(REVERSED)
        suggestions = advise(CONTRACT, findings_for(), None, provider)
        assess(CONTRACT, findings_for(), suggestions, None, provider)
        assert provider.peak == Counter({"advisor": 2, "assessor": 2})

    @pytest.mark.parametrize("stage", ["advise", "assess"])
    def test_earliest_failing_finding_error_is_raised(self, stage):
        findings = findings_for()
        # the third finding fails first in time, the second one later
        provider = SlowProvider({"fnAlpha": 0.1, "fnBravo": 0.06, "fnCharlie": 0.0}, frozenset({"fnBravo", "fnCharlie"}))
        with pytest.raises(TransportError, match="fnBravo"):
            if stage == "advise":
                advise(CONTRACT, findings, None, provider)
            else:
                assess(CONTRACT, findings, [], None, provider)

    def test_single_finding_runs_on_the_calling_thread(self):
        (finding,) = findings_for(FUNCTIONS[:1])
        provider = SlowProvider({})
        before = threading.active_count()
        suggestions = advise(CONTRACT, [finding], None, provider)
        assess(CONTRACT, [finding], suggestions, None, provider)
        assert provider.threads == {threading.get_ident()}
        assert threading.active_count() == before

    def test_shared_recorder_loses_no_entry_under_contention(self):
        names = [f"fn{i:02d}" for i in range(12)]  # more calls than the cap, and the cap above the cores
        recorder = TranscriptRecorder(
            lambda role, prompt: json.dumps({"level": "Low"}) if role == "assessor" else "no structure"
        )
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            findings = findings_for(names)
            suggestions = advise(CONTRACT, findings, None, recorder)
            assignments, _ = assess(CONTRACT, findings, suggestions, None, recorder)
        finally:
            sys.setswitchinterval(previous)
        assert [s.finding for s in suggestions] == [a.finding for a in assignments] == findings
        assert not any(s.complete for s in suggestions)
        # every advisor call earns one repair retry: 2 x 12 advisor + 12 assessor entries
        assert Counter(e["role"] for e in recorder.entries) == {"advisor": 24, "assessor": 12}


class TestRecordingOrder:
    def test_transcript_text_does_not_depend_on_reply_order(self):
        dumps, orders = [], []
        for delays in (REVERSED, {"fnAlpha": 0.0, "fnBravo": 0.06, "fnCharlie": 0.12}):

            def responder(role: str, prompt: str, delays=delays) -> str:
                time.sleep(delays[function_in(prompt)])
                return scripted_reply(role, prompt)

            recorder = TranscriptRecorder(responder)
            findings = findings_for()
            assess(CONTRACT, findings, advise(CONTRACT, findings, None, recorder), None, recorder)
            dumps.append(recorder.dump())
            orders.append([e["response"] for e in recorder.entries])
        assert orders[0] != orders[1]  # the replies were recorded in different orders
        assert dumps[0] == dumps[1]
        assert dumps[0].splitlines() == sorted(dumps[0].splitlines())
        assert len(dumps[0].splitlines()) == 6
