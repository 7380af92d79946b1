"""Three-channel vulnerability detection and verdict fusion.

Channels: the static pattern scanner, corpus-similarity retrieval, and a
chat model. In the default modes the model sees only the contract code;
channel outputs are combined afterwards, either as a weighted score or by
majority vote. The enriched mode instead folds retrieved context into the
model prompt.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    SourceContract,
    Span,
    Verdict,
    VulnerabilityClass,
    merge_findings,
    payload,
)
from solguard.errors import ExtractionError, ModelChannelError, SolguardError, TransportError
from solguard.llm.prompts import (
    DETECTOR_ENRICHED_TEMPLATE,
    DETECTOR_TEMPLATE,
    NO_REFERENCES_NOTE,
    REPAIR_INSTRUCTION,
)
from solguard.llm.provider import Provider
from solguard.llm.structured import DETECTOR_REPLY, FINDING, extract_structured
from solguard.llm.template import render_prompt
from solguard.records import Record
from solguard.retrieval.kb import KbIndex, kb_search
from solguard.retrieval.tfidf import Neighbor, retrieval_channel, top_k
from solguard.static_analysis.rules import PatternRule, canonical_class
from solguard.static_analysis.scanner import static_channel

from solguard.agents.config import FusionWeights

if TYPE_CHECKING:
    from solguard.agents.pipeline import PipelineContext

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusedVerdict:
    verdict: Verdict
    score: float
    mode: str  # weighted | voting | enriched
    channel_results: tuple[ChannelResult, ...]
    threshold: float

    def channel(self, channel: Channel) -> ChannelResult:
        for result in self.channel_results:
            if result.channel is channel:
                return result
        raise KeyError(channel)

    def to_payload(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "score": self.score,
            "mode": self.mode,
            "threshold": self.threshold,
            "channels": payload(self.channel_results),
        }


def weighted_score(weights: FusionWeights, s_model: float, s_static: float, s_retrieval: float) -> float:
    return weights.model * s_model + weights.static * s_static + weights.retrieval * s_retrieval


def fuse_channels(
    channels: dict[Channel, ChannelResult],
    mode: str,
    weights: FusionWeights,
    threshold: float,
) -> FusedVerdict:
    """Combine the results of any subset of the three channels into one verdict.

    Weighted (and enriched) modes threshold the weighted score; voting takes
    the majority of the present channels' verdicts. When a channel is absent
    (an ablation, or a failed model channel), each present weight is divided
    by the present weights' sum; when that sum is 0, the verdict is
    undetermined with score 0.
    """
    ordered = tuple(channels[ch] for ch in Channel if ch in channels)
    if len(channels) < len(Channel):
        present = {ch.value: getattr(weights, ch.value) for ch in channels}
        total = sum(present.values())
        if total <= 0:
            return FusedVerdict(Verdict.UNDETERMINED, 0.0, mode, ordered, threshold)
        weights = FusionWeights(**{ch.value: present.get(ch.value, 0.0) / total for ch in Channel})

    def score_of(ch: Channel) -> float:
        return channels[ch].score if ch in channels else 0.0

    score = weighted_score(
        weights, score_of(Channel.MODEL), score_of(Channel.STATIC), score_of(Channel.RETRIEVAL)
    )
    if mode == "voting":
        votes = sum(1 for c in channels.values() if c.verdict is Verdict.VULNERABLE)
        verdict = Verdict.VULNERABLE if votes * 2 > len(channels) else Verdict.SAFE
    else:
        verdict = Verdict.VULNERABLE if score >= threshold else Verdict.SAFE
    return FusedVerdict(
        verdict=verdict, score=score, mode=mode, channel_results=ordered, threshold=threshold
    )


def ask_structured(
    provider: Provider, role: str, prompt: str, schema: Record, answer: Callable[[dict[str, Any]], Any] = lambda r: r
) -> Any:
    """``answer`` of the reply record ``schema`` (the record itself by default),
    by the one rule for a reply fault: an :class:`ExtractionError`, from
    extraction or ``answer``, or a ``ValueError`` from ``answer`` earns one
    retry with :data:`REPAIR_INSTRUCTION` appended, and a second fault is
    raised as an :class:`ExtractionError`. A provider's own exception that is
    not a :class:`SolguardError` is a :class:`TransportError`, not a reply fault."""

    def attempt(text: str) -> Any:
        try:
            reply = provider.complete(text, role=role)
        except SolguardError:
            raise
        except Exception as exc:
            raise TransportError(f"{role}: provider failed: {exc!r}") from exc
        try:
            return answer(extract_structured(reply, schema, role))
        except ValueError as exc:
            raise ExtractionError(f"{role}: reply unusable: {exc}", reply) from exc

    try:
        return attempt(prompt)
    except ExtractionError:
        return attempt(f"{prompt}\n\n{REPAIR_INSTRUCTION}")


NOTES_PER_PROMPT = 3  # knowledge-base chunks a prompt cites at most


def reference_notes(kb_index: KbIndex | None, query: str, swc_id: str | None = None) -> str:
    """At most :data:`NOTES_PER_PROMPT` knowledge-base chunks for ``query``,
    rendered for a prompt's reference-notes slot: those of documents tagged
    ``swc_id`` first, then the nearest by similarity (:func:`kb_search`)."""
    if kb_index is None:
        return NO_REFERENCES_NOTE
    chunks = kb_search(query, kb_index, NOTES_PER_PROMPT, swc_id)
    if not chunks:
        return NO_REFERENCES_NOTE
    return "\n\n".join(f"[{c.doc_id}#{c.chunk_index}] {c.text}" for c in chunks)


def build_detection_prompt(
    contract: SourceContract,
    mode: str = "weighted",
    neighbors: Sequence[Neighbor] = (),
    kb_index: KbIndex | None = None,
) -> str:
    """Render the detection prompt; enriched mode injects the retrieval
    channel's corpus neighbors and knowledge-base notes."""
    if mode != "enriched":
        return render_prompt(DETECTOR_TEMPLATE, {"code": contract.source})
    similar = NO_REFERENCES_NOTE
    if neighbors:
        similar = "\n".join(
            f"- {nb.contract_id} (label: {nb.label}, similarity: {nb.similarity:.4f})"
            for nb in neighbors
        )
    return render_prompt(
        DETECTOR_ENRICHED_TEMPLATE,
        {
            "code": contract.source,
            "similar_contracts": similar,
            "reference_notes": reference_notes(kb_index, contract.source),
        },
    )


def model_channel(
    contract: SourceContract,
    provider: Provider,
    channel_threshold: float = 0.5,
    prompt: str | None = None,
) -> ChannelResult:
    """Ask the model for a verdict, score, and itemized findings.

    ``prompt`` defaults to the plain (non-enriched) detection prompt.
    """
    record = ask_structured(provider, "detector", prompt or build_detection_prompt(contract), DETECTOR_REPLY)
    score = min(1.0, max(0.0, record["score"]))
    findings = _model_findings(contract, record["findings"], score)
    verdict = Verdict.VULNERABLE if score >= channel_threshold else Verdict.SAFE
    return ChannelResult(channel=Channel.MODEL, verdict=verdict, score=score, findings=findings)


def model_finding(source: SourceContract, item: dict[str, Any], confidence: float) -> Finding:
    """The finding a model reports in ``source`` as a parsed finding record
    ``item``: located at the smallest span covering every body of the
    function it names (functions come in source order), or at the whole
    source when no function has that name."""
    name = item["function"]
    bodies = [fn.body_span for fn in source.view.functions if fn.name == name]
    return Finding(
        contract_id=source.id,
        vuln_class=VulnerabilityClass(name=item["class"]),
        location=Location(span=Span(bodies[0].start, bodies[-1].end) if bodies else source.whole, function=name),
        evidence=item["evidence"],
        channel=Channel.MODEL,
        confidence=confidence,
    )


def _model_findings(contract: SourceContract, raw: list[Any], score: float) -> tuple[Finding, ...]:
    """The detector's findings by :func:`model_finding`, each at ``score``;
    an item that is not a finding record is logged and skipped."""
    findings: list[Finding] = []
    for item in raw:
        try:
            item = FINDING.parse(item, SolguardError, "detector", "finding")
        except SolguardError as exc:
            log.warning("%s: ignoring malformed model finding %r: %s", contract.id, item, exc)
            continue
        findings.append(model_finding(contract, item, score))
    return tuple(findings)


def run_channels(
    contract: SourceContract, ctx: PipelineContext, modes: Sequence[str]
) -> dict[str, dict[Channel, ChannelResult]]:
    """Run the three channels for each detection mode, keyed by mode.

    The static and retrieval channels do not depend on the mode, so they run
    once, and their ``top_k`` neighbors also feed the enriched prompt. The
    model is asked once per distinct prompt. Fusion happens separately so
    ablations can reuse these results. Any failure of the model channel is a
    :class:`ModelChannelError` carrying the static and retrieval results.
    """
    static = static_channel(contract, ctx.ruleset)
    neighbors = top_k(contract, ctx.corpus_index, ctx.config.k)
    retrieval = retrieval_channel(contract, neighbors, ctx.config.channel_threshold)
    survivors = {Channel.STATIC: static, Channel.RETRIEVAL: retrieval}
    answers: dict[str, ChannelResult] = {}
    results: dict[str, dict[Channel, ChannelResult]] = {}
    try:
        for mode in modes:
            prompt = build_detection_prompt(contract, mode, neighbors, ctx.kb_index)
            if prompt not in answers:
                answers[prompt] = model_channel(
                    contract, ctx.provider("detector"), ctx.config.channel_threshold, prompt
                )
            results[mode] = {**survivors, Channel.MODEL: answers[prompt]}
    except SolguardError as exc:
        raise ModelChannelError(f"{contract.id}: model channel failed: {exc}", survivors) from exc
    return results


def detect(contract: SourceContract, ctx: PipelineContext) -> FusedVerdict:
    """Full detection for one contract in the configured mode: run the
    channels, fuse the verdict."""
    cfg = ctx.config
    channels = run_channels(contract, ctx, (cfg.mode,))[cfg.mode]
    return fuse_channels(channels, cfg.mode, cfg.weights, cfg.threshold)


def actionable_findings(fused: FusedVerdict, contract: SourceContract, ruleset: list[PatternRule]) -> list[Finding]:
    """Findings handed to the repair chain.

    Findings take the ruleset's name for their class (:func:`canonical_class`),
    then merge by (class, function). Static and model findings (of whichever
    of the two ran) come first; unlocalized retrieval hints step in only when
    those found nothing despite a vulnerable verdict.
    """
    def folded(channels: Sequence[ChannelResult]) -> list[Finding]:
        return merge_findings(
            [replace(f, vuln_class=canonical_class(f.vuln_class.name, ruleset)) for f in c.findings] for c in channels
        )

    localized = folded([c for c in fused.channel_results if c.channel is not Channel.RETRIEVAL])
    if localized or fused.verdict is Verdict.SAFE:
        return localized
    return folded([fused.channel(Channel.RETRIEVAL)])
