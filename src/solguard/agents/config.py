"""Pipeline configuration: fusion weights, modes, per-role providers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import yaml

from solguard.errors import ConfigError
from solguard.llm.provider import ProviderConfig

MODES = ("weighted", "voting", "enriched")
ROLES = ("detector", "advisor", "assessor", "fixer", "verifier")
_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FusionWeights:
    model: float = 0.7
    static: float = 0.1
    retrieval: float = 0.2

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if isinstance(value, bool) or not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"fusion weight {name} must be a finite number >= 0, got {value}")
        total = self.model + self.static + self.retrieval
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise ConfigError(f"fusion weights must sum to 1, got {total}")

    def as_dict(self) -> dict[str, float]:
        return {"model": self.model, "static": self.static, "retrieval": self.retrieval}

    def without(self, dropped: str) -> "FusionWeights":
        """Remove one channel and renormalize the rest proportionally."""
        weights = self.as_dict()
        if dropped not in weights:
            raise ConfigError(f"unknown channel {dropped!r}")
        weights[dropped] = 0.0
        remaining = sum(weights.values())
        if remaining <= 0:
            raise ConfigError(f"cannot drop {dropped}: no weight would remain")
        return FusionWeights(**{k: v / remaining for k, v in weights.items()})


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "weighted"
    weights: FusionWeights = field(default_factory=FusionWeights)
    threshold: float = 0.5
    channel_threshold: float = 0.5
    k: int = 5
    ruleset_path: str | None = None  # None -> packaged default rules
    index_root: str = "index"
    output_dir: str = "out"
    providers: dict[str, ProviderConfig] = field(default_factory=dict)
    exchange_log: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("threshold", "channel_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        unknown = set(self.providers) - set(ROLES) - {"base"}
        if unknown:
            raise ConfigError(f"unknown provider roles: {sorted(unknown)}")
        fixer = self.provider_for("fixer")
        verifier = self.provider_for("verifier")
        if fixer and verifier and fixer.model_id == verifier.model_id:
            raise ConfigError(
                "verifier must use a different model than the fixer "
                f"(both are {fixer.model_id!r})"
            )

    def provider_for(self, role: str) -> ProviderConfig | None:
        """Effective provider for a role: explicit entry, else the base entry."""
        return self.providers.get(role) or self.providers.get("base")

    def require_provider(self, role: str) -> ProviderConfig:
        cfg = self.provider_for(role)
        if cfg is None:
            raise ConfigError(f"no provider configured for role {role!r}")
        return cfg


def parse_config(payload: dict[str, Any], base_dir: Path | None = None) -> PipelineConfig:
    """Build a validated config from a parsed mapping.

    Relative transcript/ruleset/index/output paths resolve against
    ``base_dir`` (the config file's directory) when given.
    """
    if not isinstance(payload, dict):
        raise ConfigError("configuration must be a mapping")
    known = {
        "mode", "weights", "threshold", "channel_threshold", "k", "ruleset",
        "index_root", "output_dir", "providers", "exchange_log",
    }
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    def _path(name: str, value: object, required: bool = False) -> str | None:
        if value is None and not required:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a path, got {value!r}")
        return str((base_dir / value).resolve()) if base_dir and not Path(value).is_absolute() else value

    weights_payload = payload.get("weights", {})
    if not isinstance(weights_payload, dict):
        raise ConfigError("weights must be a mapping of channel -> weight")
    try:
        weights = FusionWeights(**weights_payload) if weights_payload else FusionWeights()
    except TypeError as exc:
        raise ConfigError(f"bad weights: {exc}") from exc

    records = payload.get("providers") or {}
    if not isinstance(records, dict):
        raise ConfigError("providers must be a mapping of role -> provider")
    providers: dict[str, ProviderConfig] = {}
    for role, record in records.items():
        if not isinstance(record, dict):
            raise ConfigError(f"provider entry for {role!r} must be a mapping")
        record = dict(record)
        if record.get("transcript"):
            record["transcript"] = _path("transcript", record["transcript"])
        providers[role] = ProviderConfig.from_payload(record)

    def _number(name: str, default: float) -> float:
        value = payload.get(name, default)
        if not isinstance(value, bool):  # YAML true/false are not numbers here
            try:
                return float(value)
            except (TypeError, ValueError):
                pass
        raise ConfigError(f"{name} must be a number, got {value!r}")

    k = _number("k", 5)
    if not k.is_integer():
        raise ConfigError(f"k must be a whole number, got {payload['k']!r}")

    return PipelineConfig(
        mode=payload.get("mode", "weighted"),
        weights=weights,
        threshold=_number("threshold", 0.5),
        channel_threshold=_number("channel_threshold", 0.5),
        k=int(k),
        ruleset_path=_path("ruleset", payload.get("ruleset")),
        index_root=_path("index_root", payload.get("index_root", "index"), required=True),
        output_dir=_path("output_dir", payload.get("output_dir", "out"), required=True),
        providers=providers,
        exchange_log=_path("exchange_log", payload.get("exchange_log")),
    )


def load_config(path: str | Path) -> PipelineConfig:
    p = Path(path)
    try:
        payload = yaml.safe_load(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {p}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration {p} is not valid YAML: {exc}") from exc
    return parse_config(payload or {}, base_dir=p.parent)


def apply_overrides(
    config: PipelineConfig,
    *,
    mode: str | None = None,
    weights: tuple[float, float, float] | None = None,
    threshold: float | None = None,
    k: int | None = None,
    output_dir: str | None = None,
) -> PipelineConfig:
    """Apply CLI overrides; the result re-runs the same validation."""
    changes: dict[str, Any] = {}
    if mode is not None:
        changes["mode"] = mode
    if weights is not None:
        changes["weights"] = FusionWeights(model=weights[0], static=weights[1], retrieval=weights[2])
    if threshold is not None:
        changes["threshold"] = threshold
    if k is not None:
        changes["k"] = k
    if output_dir is not None:
        changes["output_dir"] = output_dir
    return replace(config, **changes) if changes else config
