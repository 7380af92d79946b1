"""The closed-world record declarations every input reader parses through."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from solguard.agents.config import parse_config
from solguard.errors import ConfigError
from solguard.records import Record, boolean, items, mapping, number, one_of, path, string, strings, text, whole

INNER = Record({"size": whole(1, 3)}, noun="setting")
RECORD = Record(
    {
        "name": string(),
        "mode": one_of(("fast", "slow"), "fast"),
        "count": whole(0, 0),
        "share": number("[0, 1]", 0.5),
        "timeout": number("(0, inf)", 1.0),
        "tags": strings([]),
        "extra": mapping({}),
        "file": path(None),
        "inner": INNER.field({}),
    }
)


def parse(value, base=None):
    return RECORD.parse(value, ConfigError, "cfg.yaml", "thing", base)


def test_defaults_fill_absent_keys_in_declaration_order():
    values = parse({"inner": {}, "name": "n"})
    assert values == {
        "name": "n", "mode": "fast", "count": 0, "share": 0.5, "timeout": 1.0,
        "tags": [], "extra": {}, "file": None, "inner": {"size": 3},
    }
    assert list(values) == list(RECORD.fields)


@pytest.mark.parametrize(
    "key, value",
    [
        ("name", 5),
        ("mode", "medium"),
        ("mode", ["fast"]),
        ("count", -1),
        ("count", 1.0),
        ("count", True),
        ("share", True),
        ("share", "0.5"),
        ("share", 1.5),
        ("share", math.nan),
        ("timeout", 0),
        ("timeout", math.inf),
        ("timeout", 10**400),
        ("tags", "a"),
        ("tags", ["a", 1]),
        ("extra", []),
        ("file", ""),
        ("file", 5),
        ("inner", "big"),
    ],
)
def test_value_of_the_wrong_type_names_where_and_the_key(key, value):
    with pytest.raises(ConfigError, match=rf"^cfg\.yaml: thing key {key} must be .*, got {re.escape(repr(value))}$"):
        parse({"name": "n", key: value})


def test_absent_required_key_is_named():
    with pytest.raises(ConfigError, match="^cfg.yaml: thing needs a name key$"):
        parse({})


@pytest.mark.parametrize("payload", [{"name": "n", "nmae": "m"}, {1: "a", "name": "n", "z": 2}, {(1, "a"): 0}])
def test_first_unknown_key_is_named_whatever_its_type(payload):
    unknown = next(key for key in payload if key != "name")
    with pytest.raises(ConfigError, match=re.escape(f"cfg.yaml: unknown thing key {unknown!r}")):
        parse(payload)


@pytest.mark.parametrize("value", [[("name", "n")], "name: n", None])
def test_record_that_is_not_a_mapping_rejected(value):
    with pytest.raises(ConfigError, match="^cfg.yaml: thing must be a mapping"):
        parse(value)


def test_nested_record_is_named_by_its_key_and_uses_its_noun():
    with pytest.raises(ConfigError, match="^cfg.yaml: unknown inner setting 'sise'$"):
        parse({"name": "n", "inner": {"sise": 2}})
    nested = Record({"inner": Record({"size": whole(1)}, noun="setting").field()})
    with pytest.raises(ConfigError, match="^cfg.yaml: inner needs a size setting$"):
        nested.parse({"inner": {}}, ConfigError, "cfg.yaml", "thing")
    with pytest.raises(ConfigError, match="^cfg.yaml: inner setting size must be a whole number >= 1, got 0$"):
        parse({"name": "n", "inner": {"size": 0}})


def test_a_convert_fault_names_the_record_and_key_as_a_type_fault_does():
    with pytest.raises(ConfigError) as raised:
        Record({"id": text()}).parse({"id": "a\ud800"}, ConfigError, "cfg.yaml", "thing")
    assert str(raised.value) == "cfg.yaml: thing key id 'a\\ud800' holds a lone surrogate, which is not text"
    provider = {"kind": "mock", "model_id": "detector-\ud800", "transcript": "t.jsonl"}
    with pytest.raises(ConfigError) as raised:
        parse_config({"providers": {"detector": provider}}, where="cfg.yaml")
    assert str(raised.value) == (
        "cfg.yaml: detector provider key model_id 'detector-\\ud800' holds a lone surrogate, which is not text"
    )


def test_null_is_taken_only_where_the_default_is_none():
    assert parse({"name": "n", "file": None})["file"] is None
    with pytest.raises(ConfigError, match=re.escape("thing key mode must be fast|slow, got None")):
        parse({"name": "n", "mode": None})


def test_numbers_come_back_as_floats_and_square_bracket_ends_are_kept():
    assert parse({"name": "n", "timeout": 10**300})["timeout"] == 1e300
    assert parse({"name": "n", "share": 0})["share"] == 0.0
    assert type(parse({"name": "n", "share": 1})["share"]) is float


def test_relative_path_resolves_against_the_base(tmp_path):
    assert parse({"name": "n", "file": "a/b.txt"}, base=tmp_path)["file"] == str((tmp_path / "a/b.txt").resolve())
    assert parse({"name": "n", "file": "a/b.txt"})["file"] == "a/b.txt"
    absolute = str(Path("/x/y.txt"))
    assert parse({"name": "n", "file": absolute}, base=tmp_path)["file"] == absolute


def test_one_value_parses_through_its_field():
    assert RECORD.value("count", 4, ConfigError, "command line", "thing") == 4
    with pytest.raises(ConfigError, match="^command line: thing key count must be a whole number >= 0, got -4$"):
        RECORD.value("count", -4, ConfigError, "command line", "thing")


def test_a_record_with_make_parses_into_its_object_whose_faults_name_where_it_came_from():
    def pair(low: int, high: int) -> tuple[int, int]:
        if low > high:
            raise ConfigError(f"low {low} exceeds high {high}")
        return low, high

    nested = Record({"range": Record({"low": whole(0), "high": whole(0)}, make=pair).field()})
    assert nested.parse({"range": {"low": 1, "high": 2}}, ConfigError, "cfg.yaml", "thing") == {"range": (1, 2)}
    with pytest.raises(ConfigError, match="^cfg.yaml: range: low 3 exceeds high 2$"):
        nested.parse({"range": {"low": 3, "high": 2}}, ConfigError, "cfg.yaml", "thing")


def test_of_several_faults_the_first_field_in_declaration_order_is_named():
    with pytest.raises(ConfigError, match="^cfg.yaml: thing key name must be a string, got 5$"):
        parse({"count": -1, "name": 5})
    with pytest.raises(ConfigError, match="^cfg.yaml: thing needs a name key$"):
        parse({"count": -1})


REPLY = Record(
    {
        "name": string(), "tag": string("none"), "flag": boolean(False),
        "sizes": items(INNER.field(), []), "any": items(default=[]),
    },
    noun="field",
    reply=True,
)


def parse_reply(value):
    return REPLY.parse(value, ConfigError, "detector", "reply")


def test_reply_record_keeps_undeclared_keys_and_takes_null_for_a_default():
    got = parse_reply({"extra": [1], "name": "n", "tag": None, "flag": None, "sizes": [{}, {"size": 2}], "any": [0]})
    assert got == {
        "extra": [1], "name": "n", "tag": "none", "flag": False, "sizes": [{"size": 3}, {"size": 2}], "any": [0]
    }
    with pytest.raises(ConfigError, match="^detector: reply field name must be a string, got None$"):
        parse_reply({"name": None})


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("flag", 1, "true or false"),
        ("sizes", [{}, "big"], "a list, each item a mapping"),
        ("sizes", {"size": 2}, "a list, each item a mapping"),
        ("any", "a", "a list"),
    ],
)
def test_reply_field_of_the_wrong_type_is_named(key, value, expected):
    message = rf"^detector: reply field {key} must be {expected}, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        parse_reply({"name": "n", key: value})


def test_list_item_faults_name_the_list():
    with pytest.raises(ConfigError, match="^detector: sizes setting size must be a whole number >= 1, got 0$"):
        parse_reply({"name": "n", "sizes": [{"size": 0}]})
