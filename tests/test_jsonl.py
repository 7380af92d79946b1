"""Every line-delimited input goes through one reader and fails the same way."""

from __future__ import annotations

import re

import pytest

from solguard.errors import DatasetError, TranscriptError
from solguard.evaluation import load_dataset
from solguard.llm.mock import load_transcript
from solguard.retrieval.tfidf import load_corpus_file

GOOD_CONTRACT = b'{"id": "a", "label": "safe", "source": "contract A {}"}\n'

LOADERS = {
    "transcript": (load_transcript, TranscriptError, b'{"role": "detector", "fingerprint": "f", "response": "r"}\n'),
    "corpus": (load_corpus_file, DatasetError, GOOD_CONTRACT),
    "dataset": (load_dataset, DatasetError, GOOD_CONTRACT),
}

FAULTS = {
    "not json": b"{oops\n",
    "bad utf-8": b'{"id": "\xff"}\n',
    "missing field": b"{}\n",
    "not an object": b"[1]\n",
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
    assert [doc[0] for doc in load_corpus_file(path)] == ["a"]
    path.write_bytes(b"\n  \n")
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        load_corpus_file(path)


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
        load_corpus_file(path)


def test_transcript_record_fields_are_strings(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"role": "detector", "fingerprint": 7, "response": "r"}\n')
    with pytest.raises(TranscriptError, match=re.escape(f"{path}:1: record key fingerprint must be a string, got 7")):
        load_transcript(path)
