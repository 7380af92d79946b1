"""Every line-delimited input goes through one reader and fails the same way."""

from __future__ import annotations

import ast
import json
import os
import re
from pathlib import Path

import pytest

import solguard
from solguard.errors import DatasetError, TranscriptError
from solguard.evaluation import load_dataset
from solguard.jsonl import load_labeled_records
from solguard.llm.mock import load_transcript

GOOD_CONTRACT = b'{"id": "a", "label": "safe", "source": "contract A {}"}\n'

LOADERS = {
    "transcript": (load_transcript, TranscriptError, b'{"role": "detector", "fingerprint": "f", "response": "r"}\n'),
    "corpus": (load_labeled_records, DatasetError, GOOD_CONTRACT),
    "dataset": (load_dataset, DatasetError, GOOD_CONTRACT),
}

FAULTS = {
    "not json": b"{oops\n",
    "bad utf-8": b'{"id": "\xff"}\n',
    "missing field": b"{}\n",
    "not an object": b"[1]\n",
    "100,000 nested [": b"[" * 100_000 + b"]" * 100_000 + b"\n",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_faulty_line_is_named_by_file_and_line(tmp_path, kind, fault):
    load, error, good = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    path.write_bytes(good + b"\n" + FAULTS[fault] + good)
    with pytest.raises(error, match=re.escape(f"{path}:3: ")):
        load(path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_unreadable_file_is_named(tmp_path, kind):
    load, error, _ = LOADERS[kind]
    for path in (tmp_path / "absent.jsonl", tmp_path):
        with pytest.raises(error, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_labeled_record_faults_name_the_line(tmp_path, kind):
    load, error, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    faults = {
        b'{"id": "b", "label": "meh", "source": "x"}\n': "label must be safe|vulnerable",
        GOOD_CONTRACT: "duplicate contract id 'a'",
        b'{"id": "b", "label": "safe"}\n': "record needs source or source_path",
        b'{"id": "b", "label": "safe", "source_path": "gone.sol"}\n': "gone.sol",
        # a string used to load as one class per letter
        b'{"id": "b", "label": "safe", "source": "x", "classes": "Reentrancy"}\n': "classes must be a list of strings",
        b'{"id": "b", "label": "safe", "source": "x", "classes": ["Reentrancy", 7]}\n': "classes must be a list of strings",
    }
    for line, message in faults.items():
        path.write_bytes(GOOD_CONTRACT + line)
        with pytest.raises(error, match=re.escape(f"{path}:2: ") + ".*" + re.escape(message)):
            load(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(b"\n  \n" + GOOD_CONTRACT + b"\r\n\n")
    assert [doc[0] for doc in load_labeled_records(path)] == ["a"]
    path.write_bytes(b"\n  \n")
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        load_labeled_records(path)


# each of these used to load (an int id even published a corpus snapshot that
# no later load accepts), to fail with a TypeError, or to be dropped unread
@pytest.mark.parametrize("kind", ["corpus", "dataset"])
@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"id": 5, "label": "safe", "source": "x"}\n', "record key id must be a string, got 5"),
        (b'{"id": "b", "label": "safe", "source": 5}\n', "record key source must be a string, got 5"),
        (b'{"id": "b", "label": "safe", "source": "x", "clases": ["R"]}\n', "unknown record key 'clases'"),
        (b'{"id": "b", "label": "safe", "source": "x", "split": 1}\n', "record key split must be a string, got 1"),
    ],
)
def test_labeled_record_of_the_wrong_shape_names_line_and_key(tmp_path, kind, line, message):
    load, error, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    path.write_bytes(GOOD_CONTRACT + line)
    with pytest.raises(error, match=re.escape(f"{path}:2: {message}")):
        load(path)


def test_null_source_counts_as_absent(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(b'{"id": "b", "label": "safe", "source": null}\n')
    with pytest.raises(DatasetError, match="record needs source or source_path"):
        load_labeled_records(path)


def test_transcript_record_fields_are_strings(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"role": "detector", "fingerprint": 7, "response": "r"}\n')
    with pytest.raises(TranscriptError, match=re.escape(f"{path}:1: record key fingerprint must be a string, got 7")):
        load_transcript(path)


# A corpus or dataset fault names the first faulty line in file order.
def contract(contract_id: str, **fields) -> bytes:
    return json.dumps({"id": contract_id, "label": "safe", "source": "contract C {}", **fields}).encode() + b"\n"


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_first_faulty_line_in_file_order_is_named(tmp_path, kind):
    load, error, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    wrong_type, undecodable = contract("b", split=1), b"{oops\n"
    path.write_bytes(contract("a") + wrong_type + contract("c") + undecodable)
    with pytest.raises(error, match=re.escape(f"{path}:2: record key split must be a string, got 1")):
        load(path)
    path.write_bytes(contract("a") + undecodable + contract("c") + wrong_type)
    with pytest.raises(error, match=re.escape(f"{path}:2: malformed record: ")):
        load(path)


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_repeated_id_names_its_second_line(tmp_path, kind):
    load, error, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    path.write_bytes(contract("a") + contract("b") + contract("c") + contract("b"))
    with pytest.raises(error, match=re.escape(f"{path}:4: malformed record: duplicate contract id 'b'")):
        load(path)


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_source_paths_and_inline_sources_mix(tmp_path, kind):
    load, _, _ = LOADERS[kind]
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.sol").write_text("contract A {}", encoding="utf-8")
    path = tmp_path / "input.jsonl"
    path.write_bytes(
        contract("a", source=None, source_path="sub/a.sol", classes=["Reentrancy"], split="test")
        + contract("b", source="contract B {}")
        + contract("c", source="inline wins", source_path="gone.sol", label="vulnerable")
        + contract("d", source_path=str(tmp_path / "sub" / "a.sol"))
    )
    expected = [
        ("a", "safe", ("Reentrancy",), "contract A {}", "test"),
        ("b", "safe", (), "contract B {}", ""),
        ("c", "vulnerable", (), "inline wins", ""),
        ("d", "safe", (), "contract C {}", ""),
    ]
    assert load(path) == expected


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_source_file_that_is_not_utf8_is_named_with_its_line(tmp_path, kind):
    # the record is well formed; its source file is the fault
    load, error, _ = LOADERS[kind]
    source = tmp_path / "x.sol"
    source.write_bytes(b"contract X { \xff }")
    path = tmp_path / "input.jsonl"
    path.write_bytes(contract("a") + contract("b", source=None, source_path="x.sol"))
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:2: cannot read contract source {source}: 'utf-8' codec can't decode")
    assert "malformed record" not in str(err.value)


@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_faulty_last_line_of_a_long_file_is_named(tmp_path, kind):
    load, error, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    path.write_bytes(b"".join(contract(f"c{i}") for i in range(19_999)) + contract("last", label="meh"))
    with pytest.raises(error, match=re.escape(f"{path}:20000: record key label must be safe|vulnerable")):
        load(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("kind", ["corpus", "dataset"])
def test_faulty_line_of_a_pipe_is_named(kind):
    load, error, _ = LOADERS[kind]
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, contract("a") + contract("b", label="meh") + contract("c"))
        os.close(write_end)
        path = f"/dev/fd/{read_end}"  # a pipe can be read once
        with pytest.raises(error, match=re.escape(f"{path}:2: record key label must be safe|vulnerable")):
            load(path)
    finally:
        os.close(read_end)


def test_yaml_is_parsed_only_in_read_yaml():
    # one home for the YAML parser, so a change of loader changes every reader
    parsers = {"safe_load", "load", "full_load", "unsafe_load"}
    package = Path(solguard.__file__).parent
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, where: str, path: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        imported = isinstance(node, ast.ImportFrom) and node.module == "yaml" and {a.name for a in node.names} & parsers
        called = (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in parsers
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "yaml"
        )
        if imported or called:
            found.append((path, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where, path)

    for module in sorted(package.rglob("*.py")):
        path = module.relative_to(package).as_posix()
        visit(ast.parse(module.read_text(encoding="utf-8"), path), "", path)
    assert found == [("jsonl.py", "read_yaml")]
