"""The README's configuration example and field tables against the record
declarations, so the docs cannot drift from what the readers accept."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
import yaml

from solguard.agents.config import CONFIG, WEIGHTS, parse_config
from solguard.jsonl import LABELED_RECORD
from solguard.llm.mock import TRANSCRIPT_RECORD
from solguard.llm.provider import PROVIDER
from solguard.records import REQUIRED, Field, Record
from solguard.static_analysis.rules import _MATCHERS, RULE

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TRANSCRIPT = ROOT / "fixtures" / "presign_transcript.jsonl"


def cells(field: Field) -> str:
    default = "required" if field.default is REQUIRED else f"`{json.dumps(field.default)}`"
    return f"{field.expected.replace('|', chr(92) + '|')} | {default} |"


def table(rows: list[str]) -> list[str]:
    """The README table that starts with ``rows[0]``, row by row."""
    lines = README.splitlines()
    start = lines.index(rows[0])
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


@pytest.mark.parametrize(
    "record", [CONFIG, WEIGHTS, PROVIDER, LABELED_RECORD, TRANSCRIPT_RECORD, RULE], ids=lambda r: next(iter(r.fields))
)
def test_record_table_lists_every_field_with_its_type_and_default(record: Record):
    rows = [f"| `{key}` | {cells(field)}" for key, field in record.fields.items()]
    assert table(rows) == rows


def test_matcher_table_lists_every_parameter_of_every_type():
    rows = [
        f"| `{mtype}` | `{key}` | {cells(field)}"
        for mtype, (_, parameters) in _MATCHERS.items()
        for key, field in parameters.fields.items()
        if key != "type"
    ]
    assert table(rows) == rows


def test_configuration_example_parses():
    block = re.search(r"## Configuration\n\n```yaml\n(.*?)```", README, re.DOTALL).group(1)
    payload = yaml.safe_load(block)
    for provider in payload["providers"].values():
        if "transcript" in provider:
            provider["transcript"] = str(TRANSCRIPT)
    config = parse_config(payload, base_dir=ROOT)
    assert config.ruleset_path == str(ROOT / "rules.yaml")
    assert config.provider_for("fixer").model_id == "base-model"
    assert config.providers["detector"].endpoint == "https://models.internal/v1/chat"
    assert config.providers["verifier"].transcript == str(TRANSCRIPT)
