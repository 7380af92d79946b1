"""The six pipeline agents and their orchestrator."""

from solguard.agents.config import (
    FusionWeights,
    PipelineConfig,
    apply_overrides,
    load_config,
    parse_config,
)
from solguard.agents.detect import (
    FusedVerdict,
    actionable_findings,
    build_detection_prompt,
    detect,
    fuse_channels,
    model_channel,
    run_channels,
    weighted_score,
)
from solguard.agents.pipeline import PipelineContext, PipelineRun, build_context, run_pipeline
from solguard.agents.remediate import RiskAssignment, advise, assess, fix, verify
from solguard.agents.report import build_report

__all__ = [
    "FusedVerdict",
    "FusionWeights",
    "PipelineConfig",
    "PipelineContext",
    "PipelineRun",
    "RiskAssignment",
    "actionable_findings",
    "advise",
    "apply_overrides",
    "assess",
    "build_context",
    "build_detection_prompt",
    "build_report",
    "detect",
    "fix",
    "fuse_channels",
    "load_config",
    "model_channel",
    "parse_config",
    "run_channels",
    "run_pipeline",
    "verify",
    "weighted_score",
]
