"""Three-channel vulnerability detection and verdict fusion.

Channels: the static pattern scanner, corpus-similarity retrieval, and a
chat model. In the default modes the model sees only the contract code;
channel outputs are combined afterwards, either as a weighted score or by
majority vote. The enriched mode instead folds retrieved context into the
model prompt.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from solguard.core import (
    Channel,
    ChannelResult,
    Finding,
    Location,
    SourceContract,
    Span,
    Verdict,
    VulnerabilityClass,
    byte_length,
)
from solguard.errors import ExtractionError, ModelChannelError, SolguardError
from solguard.llm.prompts import (
    DETECTOR_ENRICHED_TEMPLATE,
    DETECTOR_TEMPLATE,
    NO_REFERENCES_NOTE,
    REPAIR_INSTRUCTION,
)
from solguard.llm.provider import Provider
from solguard.llm.structured import DETECTOR_SCHEMA, StructuredSchema, extract_structured
from solguard.llm.template import render_prompt
from solguard.retrieval.kb import KbIndex, kb_search
from solguard.retrieval.tfidf import Neighbor, retrieval_channel, top_k
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
            "channels": [c.to_payload() for c in self.channel_results],
        }


def weighted_score(weights: FusionWeights, s_model: float, s_static: float, s_retrieval: float) -> float:
    return weights.model * s_model + weights.static * s_static + weights.retrieval * s_retrieval


def fuse_channels(
    channels: dict[Channel, ChannelResult],
    mode: str,
    weights: FusionWeights,
    threshold: float,
) -> FusedVerdict:
    """Combine channel results into one verdict.

    Weighted (and enriched) modes threshold the weighted score; voting takes
    the majority of the three channel verdicts. Channels absent from
    ``channels`` (ablations) contribute nothing and must carry zero weight.
    """
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
    ordered = tuple(
        channels[ch] for ch in (Channel.STATIC, Channel.RETRIEVAL, Channel.MODEL) if ch in channels
    )
    return FusedVerdict(
        verdict=verdict, score=score, mode=mode, channel_results=ordered, threshold=threshold
    )


def ask_structured(
    provider: Provider, role: str, prompt: str, schema: StructuredSchema
) -> dict[str, Any]:
    """Complete and extract; on a parse failure, retry once with a repair
    instruction appended."""
    exchange = provider.complete(prompt, role=role)
    try:
        return extract_structured(exchange.response, schema)
    except ExtractionError:
        retry = provider.complete(f"{prompt}\n\n{REPAIR_INSTRUCTION}", role=role)
        return extract_structured(retry.response, schema)


def reference_notes(kb_index: KbIndex | None, query: str, k: int) -> str:
    """The ``k`` knowledge-base chunks nearest ``query``, rendered for a
    prompt's reference-notes slot."""
    if kb_index is None:
        return NO_REFERENCES_NOTE
    chunks = kb_search(query, kb_index, k)
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
            "reference_notes": reference_notes(kb_index, contract.source, 3),
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
    record = ask_structured(
        provider, "detector", prompt or build_detection_prompt(contract), DETECTOR_SCHEMA
    )
    score = min(1.0, max(0.0, float(record["score"])))
    findings = _model_findings(contract, record.get("findings", []), score)
    verdict = Verdict.VULNERABLE if score >= channel_threshold else Verdict.SAFE
    return ChannelResult(channel=Channel.MODEL, verdict=verdict, score=score, findings=findings)


def _model_findings(
    contract: SourceContract, raw: list[Any], score: float
) -> tuple[Finding, ...]:
    spans_by_name = {fn.name: fn.body_span for fn in contract.view.functions}
    whole = Span(0, byte_length(contract.source))
    findings: list[Finding] = []
    for item in raw:
        if not isinstance(item, dict) or "class" not in item:
            log.warning("%s: ignoring malformed model finding %r", contract.id, item)
            continue
        function = str(item.get("function", ""))
        findings.append(
            Finding(
                contract_id=contract.id,
                vuln_class=VulnerabilityClass(name=str(item["class"])),
                location=Location(span=spans_by_name.get(function, whole), function=function),
                evidence=str(item.get("evidence", "")),
                channel=Channel.MODEL,
                confidence=score,
            )
        )
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


def actionable_findings(fused: FusedVerdict, contract: SourceContract) -> list[Finding]:
    """Findings handed to the repair chain.

    Static and model findings (of whichever of the two ran) merge by (class,
    function); unlocalized retrieval hints step in only when the localized
    channels found nothing despite a vulnerable verdict.
    """
    from solguard.core import merge_findings

    localized = merge_findings(
        c.findings for c in fused.channel_results if c.channel is not Channel.RETRIEVAL
    )
    if localized or fused.verdict is Verdict.SAFE:
        return localized
    return merge_findings([fused.channel(Channel.RETRIEVAL).findings])
