"""Pipeline configuration: fusion weights, modes, per-role providers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from solguard.errors import ConfigError
from solguard.jsonl import read_text, read_yaml
from solguard.llm.provider import PROVIDER, ProviderConfig
from solguard.records import Record, naming, number, one_of, path, whole

MODES = ("weighted", "voting", "enriched")
ROLES = ("detector", "advisor", "assessor", "fixer", "verifier")
_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FusionWeights:
    model: float = 0.7
    static: float = 0.1
    retrieval: float = 0.2

    def __post_init__(self) -> None:
        total = self.model + self.static + self.retrieval
        if not abs(total - 1.0) <= _WEIGHT_TOLERANCE:
            raise ConfigError(f"fusion weights must sum to 1, got {total}")


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


# the records of the configuration file; each default is the dataclass's own
WEIGHTS = Record(
    {name: number("[0, 1]", getattr(FusionWeights, name)) for name in ("model", "static", "retrieval")},
    noun="channel", make=FusionWeights,
)
CONFIG = Record({
    "mode": one_of(MODES, PipelineConfig.mode),
    "weights": WEIGHTS.field({}),
    "threshold": number("[0, 1]", PipelineConfig.threshold),
    "channel_threshold": number("[0, 1]", PipelineConfig.channel_threshold),
    "k": whole(1, PipelineConfig.k),
    "ruleset": path(None),
    "index_root": path(PipelineConfig.index_root),
    "output_dir": path(PipelineConfig.output_dir),
    "providers": Record({role: PROVIDER.field(None) for role in (*ROLES, "base")}, noun="role").field(None),
    "exchange_log": path(None),
})


def parse_config(payload: Any, base_dir: Path | None = None, where: str = "configuration") -> PipelineConfig:
    """Build a config from a :data:`CONFIG` mapping read from ``where``;
    relative paths resolve against ``base_dir``, the config file's directory.
    Every fault names ``where``."""
    values = CONFIG.parse(payload, ConfigError, where, "configuration", base_dir)
    providers = {role: provider for role, provider in (values.pop("providers") or {}).items() if provider is not None}
    with naming(where, ConfigError):
        return PipelineConfig(ruleset_path=values.pop("ruleset"), providers=providers, **values)


def load_config(path: str | Path) -> PipelineConfig:
    p = Path(path)
    payload = read_yaml(read_text(p, ConfigError, "configuration"), ConfigError, f"configuration {p} is not valid YAML")
    return parse_config(payload or {}, base_dir=p.parent, where=str(p))


def apply_overrides(config: PipelineConfig, **overrides: Any) -> PipelineConfig:
    """Apply the CLI overrides that are not None, each given as the config
    file gives it and parsed by its key's :data:`CONFIG` field."""
    given = {key: value for key, value in overrides.items() if value is not None}
    changes = {key: CONFIG.value(key, v, ConfigError, "command line", "configuration") for key, v in given.items()}
    return replace(config, **changes) if changes else config
