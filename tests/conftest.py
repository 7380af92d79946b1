from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import pytest
import yaml
from click.testing import CliRunner

from solguard.agents.detect import FusedVerdict
from solguard.agents.pipeline import PipelineRun
from solguard.core import Verdict
from solguard.jsonl import load_labeled_records
from solguard.llm.provider import Provider, ProviderConfig
from solguard.retrieval.kb import build_kb_index, load_kb_documents
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def built_index_root(tmp_path_factory) -> Path:
    """Corpus and KB snapshots built once from the shipped fixtures."""
    root = tmp_path_factory.mktemp("index")
    corpus = build_corpus_index(load_labeled_records(FIXTURES / "corpus.jsonl"))
    CorpusSnapshotStore(root / "corpus").publish(corpus)
    kb = build_kb_index(load_kb_documents(FIXTURES / "kb_docs"))
    KbSnapshotStore(root / "kb").publish(kb)
    return root


def risk_distribution(assignments) -> dict[str, int]:
    """The distribution a run record derives from these risk assignments."""
    fused = FusedVerdict(Verdict.VULNERABLE, 0.9, "weighted", (), 0.5)
    findings = tuple(a.finding for a in assignments)
    return PipelineRun("c", fused, findings=findings, risk_assignments=tuple(assignments)).risk_distribution


def write_pipeline_config(
    path: Path,
    index_root: Path,
    output_dir: Path,
    transcript: Path,
    **overrides,
) -> Path:
    payload = {
        "mode": "weighted",
        "weights": {"model": 0.7, "static": 0.1, "retrieval": 0.2},
        "threshold": 0.5,
        "k": 5,
        "index_root": str(index_root),
        "output_dir": str(output_dir),
        "providers": {
            "detector": {"kind": "mock", "model_id": "detector-sim", "transcript": str(transcript)},
            "base": {"kind": "mock", "model_id": "base-sim", "transcript": str(transcript)},
            "verifier": {"kind": "mock", "model_id": "verifier-sim", "transcript": str(transcript)},
        },
    }
    payload.update(overrides)
    path.write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
    return path


@pytest.fixture
def presign_config(tmp_path, built_index_root) -> Path:
    """A ready-to-run pipeline config for the preSign fixture."""
    return write_pipeline_config(
        tmp_path / "config.yaml",
        index_root=built_index_root,
        output_dir=tmp_path / "out",
        transcript=FIXTURES / "presign_transcript.jsonl",
    )


@pytest.fixture(scope="session")
def eval_env(tmp_path_factory) -> dict[str, Path]:
    from eval_fixture import build_eval_fixture

    return build_eval_fixture(tmp_path_factory.mktemp("eval"))


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def fake_providers(monkeypatch) -> Callable[[Callable[[ProviderConfig], Provider]], None]:
    """``fake_providers(make)``: from then until the test ends, each provider
    that ``build_context`` builds is ``make(config)`` of its role's record."""

    def install(make: Callable[[ProviderConfig], Provider]) -> None:
        monkeypatch.setattr(
            "solguard.agents.pipeline.build_provider",
            lambda config, exchange_log=None, transcripts=None: make(config),
        )

    return install


def write_bytes_named(directory: Path, name: bytes, content: bytes) -> Path:
    """Write ``content`` to the file ``name`` of ``directory``, a name that need
    not be UTF-8; skips the test where the filesystem refuses such a name."""
    path = Path(os.fsdecode(os.fsencode(directory) + b"/" + name))
    try:
        path.write_bytes(content)
    except (OSError, UnicodeError) as exc:
        pytest.skip(f"the filesystem refuses the file name {name!r}: {exc}")
    return path
