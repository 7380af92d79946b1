"""The repair chain: advise, assess, fix, verify.

Every repair prompt decomposes: it shows the model an excerpt of the
source, not the whole file; only the detector sees the whole source. A
container is a top-level contract, interface or library. An excerpt starts
from where a function name points (:func:`_homes`): the containers that
define a function of that name (every one, for a repeated or overloaded
name) and the bodies of the free functions of that name. A container also
stays when its name appears as an identifier inside a kept container or
one of those bodies (bases, libraries, interfaces, ``new X`` and casts),
until nothing more is added. Every other container is cut with the
whitespace after it; everything outside containers (licence, pragma,
imports, comments, free functions) stays in order. The whole source goes
instead for a file of fewer than two containers or when there is nothing
to start from.

An advisor or assessor prompt (:func:`excerpt`) starts from the finding's
name; a contract-level finding or a name that no function has starts from
nothing. A verifier prompt (:func:`verifier_excerpts`) shows each side of
the patch, original and patched, on its own. A side starts from the
addressed findings' names, from the containers whose exact text matches
no container on the other side (matched as a multiset, so renamed, added,
removed and reordered containers count), and from every container that
names one of these containers, transitively (a contract derived from a
changed base, a user of a changed library). :func:`verify` still re-scans
the whole patched source and compares it with the addressed findings.

A fixer prompt (:func:`fix`) starts from the addressed findings' names;
two containers of one name send the whole source. The fixer returns the
code it was shown, repaired. :func:`fix` cuts that excerpt once, and
:func:`splice` reads the reply against the same text: if the reply keeps
the excerpt's bytes outside containers and the kept containers' names in
order, the whole file takes the reply's text for each kept container.
Otherwise each cut container whose name the reply lacks goes before the
next kept one the reply has, or at the end; a whole-file reply stands as
it is.

Both closures are linear in the file: the kept rows are read once, each
container name looked up until it is first seen, and a seed's dependents
come from the rows of its name, each mapped to its container by bisection.

Each role's answer step runs inside :func:`~solguard.agents.detect.ask_structured`,
so a value it refuses (an empty advisor field, an assessor level outside the
four, a patch that does not lex or segment) earns the one repair prompt.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence, TypeVar

from solguard.core import Finding, Patch, RepairSuggestion, RiskLevel, SourceContract, VerificationResult
from solguard.errors import ExtractionError, LexicalError, SolguardError, SpanError
from solguard.llm.prompts import (
    ADVISOR_TEMPLATE,
    ASSESSOR_TEMPLATE,
    FIXER_TEMPLATE,
    VERIFIER_TEMPLATE,
)
from solguard.llm.provider import Provider
from solguard.llm.structured import ADVISOR_REPLY, ASSESSOR_REPLY, FIXER_REPLY, VERIFIER_REPLY
from solguard.llm.template import render_prompt
from solguard.retrieval.kb import KbIndex
from solguard.static_analysis.rules import PatternRule
from solguard.static_analysis.scanner import scan

from solguard.agents.detect import ask_structured, model_finding, reference_notes

log = logging.getLogger(__name__)

# Per-finding advisor or assessor calls one contract keeps in flight at once.
FINDING_CALLS_IN_FLIGHT = 4

T = TypeVar("T")
R = TypeVar("R")


def _per_finding(call: Callable[[T], R], items: Sequence[T], fallback: Callable[[T], R], what: str) -> list[R]:
    """``[call(item) for item in items]`` with the calls overlapped on a pool
    of up to :data:`FINDING_CALLS_IN_FLIGHT` threads.

    Results keep the items' order. An item whose reply stayed unusable (an
    :class:`ExtractionError`) or whose call raises another
    :class:`SolguardError`, such as a transport fault, gets ``fallback(item)``
    instead, so one finding's failure costs only its own answer. Only when
    every item's call failed (an unusable reply is not a failed call) does the
    exception of the first item propagate, failing the stage.
    """

    def attempt(item: T) -> R | SolguardError:
        try:
            return call(item)
        except ExtractionError as exc:
            log.warning("%s output unusable for one finding: %s", what, exc)
            return fallback(item)
        except SolguardError as exc:
            log.warning("%s call failed for one finding: %s", what, exc)
            return exc

    with ThreadPoolExecutor(max_workers=max(1, min(len(items), FINDING_CALLS_IN_FLIGHT))) as pool:
        outcomes = list(pool.map(attempt, items))
    failed = [outcome for outcome in outcomes if isinstance(outcome, SolguardError)]
    if failed and len(failed) == len(outcomes):
        raise failed[0]
    return [fallback(item) if isinstance(outcome, SolguardError) else outcome for item, outcome in zip(items, outcomes)]


_TRAILING_SPACE = re.compile(rb"\s*")


def _homes(side: SourceContract, names: set[str]) -> tuple[set[int], list[range]]:
    """Where the function names in ``names`` point in ``side``: the containers
    that define one, and the bodies of the free functions so named."""
    named = [fn for fn in side.view.functions if fn.name in names]
    return {fn.container for fn in named if fn.container is not None}, [fn.body for fn in named if fn.container is None]


def _kept(side: SourceContract, seeds: set[int], roots: list[range]) -> set[int]:
    """The containers of ``side`` that ``seeds`` (container indices) and ``roots`` (rows outside
    containers) need by the module docstring's closure; all when there is nothing to decompose."""
    view = side.view
    if len(view.containers) < 2 or not (seeds or roots):
        return set(range(len(view.containers)))
    unseen: dict[str, list[int]] = {}  # container name -> its containers, until the name is first seen
    for c, container in enumerate(view.containers):
        unseen.setdefault(container.name, []).append(c)
    kept = set(seeds)
    todo = [view.containers[c].rows for c in kept] + roots
    while todo:
        rows = todo.pop()
        for lexeme in view.index.lexemes[rows.start : rows.stop]:
            for c in unseen.pop(lexeme, ()):
                if c not in kept:
                    kept.add(c)
                    todo.append(view.containers[c].rows)
    return kept


def _edited(data: bytes, edits: Iterable[tuple[tuple[int, int], bytes]]) -> bytes:
    """``data`` with each ``(span, text)`` of ``edits``, in span order, putting ``text`` in place of the span."""
    pieces: list[bytes] = []
    at = 0
    for (start, end), text in edits:
        pieces += (data[at:start], text)
        at = end
    pieces.append(data[at:])
    return b"".join(pieces)


def _cut(side: SourceContract, kept: set[int]) -> str:
    """``side``'s source without the containers ``kept`` lacks: the module docstring's cut."""
    containers = side.view.containers
    if len(kept) == len(containers):
        return side.source
    data = side.token_stream.data
    cuts = (container.span for c, container in enumerate(containers) if c not in kept)
    return _edited(data, (((start, _TRAILING_SPACE.match(data, end).end()), b"") for start, end in cuts)).decode("utf-8")


def excerpt(contract: SourceContract, finding: Finding) -> str:
    """The source an advisor or assessor prompt shows for ``finding``: the
    module docstring's rule, over the containers and functions of the view."""
    return _cut(contract, _kept(contract, *_homes(contract, {finding.location.function})))


def verifier_excerpts(contract: SourceContract, patch: Patch) -> tuple[str, str]:
    """The original and patched sources a verifier prompt shows: the module
    docstring's rule, applied to each side on its own."""
    names = {f.location.function for f in patch.addressed_findings}
    sides = (contract, patch.repaired)
    texts = [[side.token_stream.data[c.span.start : c.span.end] for c in side.view.containers] for side in sides]
    shown: list[str] = []
    for side, own, other in zip(sides, texts, reversed(texts)):
        containers = side.view.containers
        seeds, roots = _homes(side, names)
        unmatched = Counter(other)
        for c, text in enumerate(own):
            if unmatched[text]:
                unmatched[text] -= 1
            else:
                seeds.add(c)
        # add each container that names a seed: the rows of a seed's name, read
        # once per name, each mapped to its container by bisection
        starts = [container.rows.start for container in containers]
        unlooked = {container.name: side.view.index.positions.get(container.name, ()) for container in containers}
        todo = [containers[c].name for c in seeds]
        while todo:
            for row in unlooked.pop(todo.pop(), ()):
                c = bisect_right(starts, row) - 1
                if c >= 0 and row in containers[c].rows and c not in seeds:
                    seeds.add(c)
                    todo.append(containers[c].name)
        shown.append(_cut(side, _kept(side, seeds, roots)))
    return shown[0], shown[1]


def _finding_bindings(
    contract: SourceContract, finding: Finding, kb_index: KbIndex | None, query: str
) -> dict[str, str]:
    """What advisor and assessor prompts bind for ``finding``, with the
    knowledge retrieved for ``query`` and the finding's SWC id."""
    return {
        "vulnerability": finding.vuln_class.name,
        "function": finding.function_label,
        "evidence": finding.evidence or "(none)",
        "reference_notes": reference_notes(kb_index, query, finding.vuln_class.swc_id),
        "code": excerpt(contract, finding),
    }


def build_advisor_prompt(contract: SourceContract, finding: Finding, kb_index: KbIndex | None) -> str:
    query = f"{finding.vuln_class.name} {finding.evidence}"
    return render_prompt(ADVISOR_TEMPLATE, _finding_bindings(contract, finding, kb_index, query))


def advise(
    contract: SourceContract,
    findings: list[Finding],
    kb_index: KbIndex | None,
    provider: Provider,
) -> list[RepairSuggestion]:
    """One repair suggestion per finding, grounded in retrieved knowledge,
    in findings order; the per-finding calls overlap.

    A reply that leaves a field empty earns the repair prompt, as a reply
    fault does. A suggestion still unusable after it, or whose call failed,
    is recorded as incomplete; the pipeline carries on. The stage fails
    only when every call failed.
    """

    def incomplete(finding: Finding) -> RepairSuggestion:
        return RepairSuggestion(finding.vuln_class.name, "", "", (), (), finding, complete=False)

    def suggest(finding: Finding) -> RepairSuggestion:
        def answer(record: dict) -> RepairSuggestion:  # ValueError: a field left empty
            return RepairSuggestion(
                record["vulnerability_name"], record["cause_analysis"], record["impact_assessment"],
                tuple(record["repair_steps"]), tuple(record["preventive_measures"]), finding,
            )

        prompt = build_advisor_prompt(contract, finding, kb_index)
        return ask_structured(provider, "advisor", prompt, ADVISOR_REPLY, answer)

    return _per_finding(suggest, findings, incomplete, f"{contract.id}: advisor")


@dataclass(frozen=True)
class RiskAssignment:
    finding: Finding
    level: RiskLevel
    defaulted: bool = False  # model answer unusable; level fell back to High


def build_assessor_prompt(
    contract: SourceContract,
    finding: Finding,
    suggestion: RepairSuggestion | None,
    kb_index: KbIndex | None,
) -> str:
    summary = "(no suggestion available)"
    if suggestion is not None and suggestion.complete:
        summary = f"{suggestion.cause_analysis} Repair: {'; '.join(suggestion.repair_steps)}"
    bindings = _finding_bindings(contract, finding, kb_index, f"{finding.vuln_class.name} severity impact")
    return render_prompt(ASSESSOR_TEMPLATE, {**bindings, "suggestion_summary": summary})


def assess(
    contract: SourceContract,
    findings: list[Finding],
    suggestions: list[RepairSuggestion],
    kb_index: KbIndex | None,
    provider: Provider,
) -> list[RiskAssignment]:
    """Risk level per finding.

    ``suggestions`` is empty or holds one entry per finding, in order; the
    per-finding calls overlap and the levels come back in that order. A
    level outside the four earns the repair prompt, as a reply fault does.
    An answer still unusable after it, or a failed call, falls back to
    High, flagged, erring toward caution rather than silence. The stage
    fails only when every call failed.
    """

    def high(pair: tuple[Finding, RepairSuggestion | None]) -> RiskAssignment:
        return RiskAssignment(finding=pair[0], level=RiskLevel.HIGH, defaulted=True)

    def rate(pair: tuple[Finding, RepairSuggestion | None]) -> RiskAssignment:
        finding, suggestion = pair
        prompt = build_assessor_prompt(contract, finding, suggestion, kb_index)
        return ask_structured(
            provider, "assessor", prompt, ASSESSOR_REPLY,
            lambda record: RiskAssignment(finding=finding, level=RiskLevel(record["level"].strip().title())),
        )

    paired = list(zip(findings, suggestions or [None] * len(findings), strict=True))
    return _per_finding(rate, paired, high, f"{contract.id}: assessor")


def _priority(assignment: RiskAssignment) -> tuple[int, int, int]:
    """Repair order: risk descending, then source location ascending."""
    span = assignment.finding.location.span
    return (-assignment.level.severity, span.start, span.end)


def splice(contract: SourceContract, kept: set[int], shown: str, patch: Patch) -> Patch:
    """``patch``, the repair of ``shown``, the excerpt of ``contract`` that
    keeps the containers ``kept``, with the cut containers put back by the
    module docstring's rule; ``patch`` itself when none goes back. When some
    were cut, a reply that does not lex or segment raises as its view does."""
    containers = contract.view.containers
    if len(kept) == len(containers):
        return patch
    data, reply = contract.token_stream.data, patch.repaired
    got, got_data = reply.view.containers, reply.token_stream.data
    held = [containers[c] for c in sorted(kept)]
    if [c.name for c in got] == [c.name for c in held]:
        unedited = _edited(got_data, ((new.span, data[old.span.start : old.span.end]) for old, new in zip(held, got)))
        if unedited == shown.encode("utf-8"):  # the reply changed only the kept containers
            edits = ((old.span, got_data[new.span.start : new.span.end]) for old, new in zip(held, got))
            return replace(patch, repaired_source=_edited(data, edits).decode("utf-8"))
    starts = {c.name: c.span.start for c in reversed(got)}  # the first reply container of each name
    puts, waiting = [], []
    for c, container in enumerate(containers):
        if c not in kept and container.name not in starts:
            waiting.append(data[container.span.start : _TRAILING_SPACE.match(data, container.span.end).end()])
        elif c in kept and waiting and container.name in starts:
            puts.append(((starts[container.name],) * 2, b"".join(waiting)))
            waiting = []
    if waiting:  # on a line of their own, so that no comment on the reply's last line takes them in
        puts.append(((len(got_data),) * 2, (b"" if got_data.endswith(b"\n") else b"\n") + b"".join(waiting)))
    return replace(patch, repaired_source=_edited(got_data, sorted(puts)).decode("utf-8")) if puts else patch


def build_fixer_prompt(ordered: list[tuple[RiskAssignment, RepairSuggestion]], shown: str) -> str:
    lines: list[str] = []
    for i, (assignment, suggestion) in enumerate(ordered, start=1):
        finding = assignment.finding
        line = f"{i}. [{assignment.level.value}] {finding.vuln_class.name} in {finding.function_label}"
        if suggestion.complete:
            line += f": {'; '.join(suggestion.repair_steps)}"
        else:
            line += ": (no complete suggestion; repair from first principles)"
        lines.append(line)
    return render_prompt(FIXER_TEMPLATE, {"suggestions": "\n".join(lines), "code": shown})


def fix(
    contract: SourceContract,
    suggestions: list[RepairSuggestion],
    assignments: list[RiskAssignment],
    provider: Provider,
) -> Patch:
    """Generate a patch; the repaired source must tokenize and segment cleanly.

    ``suggestions`` and ``assignments`` hold one entry per finding, in the
    same order. The model repairs an excerpt, which :func:`splice` puts back
    into the whole file. A result that does not tokenize or segment is a
    reply fault (:class:`ExtractionError`), so it earns the one repair prompt
    of :func:`ask_structured`. The returned patch carries its lexed and
    segmented source as :attr:`Patch.repaired`, which :func:`verify` reuses.
    """
    ordered = sorted(zip(assignments, suggestions, strict=True), key=lambda pair: _priority(pair[0]))
    names = [container.name for container in contract.view.containers]
    unique = len(set(names)) == len(names)  # splice tells containers apart by name, so else the whole source goes
    kept = _kept(contract, *_homes(contract, {a.finding.location.function for a, _ in ordered} if unique else set()))
    shown = _cut(contract, kept)

    def answer(record: dict) -> Patch:
        patch = Patch(contract.id, record["repaired_source"], tuple(a.finding for a, _ in ordered), record["rationale"])
        try:
            patch = splice(contract, kept, shown, patch)
            patch.repaired.view  # lexes and segments the repaired source now, so verify need not
        except SpanError as exc:
            fault = "tokenize" if isinstance(exc, LexicalError) else "segment"
            raise ExtractionError(f"{contract.id}: repaired source does not {fault}: {exc}", patch.repaired_source)
        return patch

    return ask_structured(provider, "fixer", build_fixer_prompt(ordered, shown), FIXER_REPLY, answer)


def build_verifier_prompt(contract: SourceContract, patch: Patch) -> str:
    findings_text = "\n".join(f"- {f.vuln_class.name} in {f.function_label}" for f in patch.addressed_findings)
    code, patched_code = verifier_excerpts(contract, patch)
    return render_prompt(
        VERIFIER_TEMPLATE,
        {
            "findings": findings_text,
            "code": code,
            "patched_code": patched_code,
        },
    )


def verify(
    contract: SourceContract,
    patch: Patch,
    ruleset: list[PatternRule],
    provider: Provider,
) -> VerificationResult:
    """Independent patch verification: model judgment plus a static re-scan.

    The patched source is re-scanned. A re-scan finding whose key no
    addressed finding holds is a new issue; an addressed finding whose key
    the re-scan no longer holds is eliminated. The patch passes when the
    model says so, nothing is new and every addressed finding is eliminated,
    so one that still fires vetoes the model. The verifier's own new issues
    are findings in the patched source, located as
    :func:`~solguard.agents.detect.model_finding` locates a detector's, at
    confidence 0.5. ``verifier_model`` is the provider's id.
    """
    prompt = build_verifier_prompt(contract, patch)
    record = ask_structured(provider, "verifier", prompt, VERIFIER_REPLY)

    rescan = scan(patch.repaired, ruleset)
    addressed_keys = {f.key for f in patch.addressed_findings}
    rescan_keys = {f.key for f in rescan}
    new_issues = tuple(f for f in rescan if f.key not in addressed_keys) + tuple(
        model_finding(patch.repaired, item, 0.5) for item in record["new_issues"]
    )
    eliminated = tuple(f for f in patch.addressed_findings if f.key not in rescan_keys)
    return VerificationResult(
        passed=record["passed"] and not new_issues and len(eliminated) == len(patch.addressed_findings),
        eliminated=eliminated,
        new_issues=new_issues,
        verifier_model=provider.config.provider_id,
    )
