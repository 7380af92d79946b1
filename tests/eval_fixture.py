"""Synthetic 40-contract evaluation fixture.

Channel behavior is engineered per contract so each detection channel
carries signal the others lack:

- type A/D (vulnerable): confident model, static pattern fires, vulnerable
  neighbors -> every variant catches them.
- type B (vulnerable): weak model (0.4); only the full weighted fusion of
  static (0.9) and retrieval (0.8) pushes the score over 0.5, so both
  ablations miss them.
- type C (vulnerable): pattern-invisible logic flaw, weak model (0.45) but
  unanimous vulnerable neighbors; dropping retrieval (w/o RAG) misses them.
- type E (safe): quiet on every channel under every variant.

Expected F1 ordering: weighted 1.0 > w/o Static 0.8889 > w/o RAG 0.75.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from solguard.agents.detect import build_detection_prompt
from solguard.llm.mock import prompt_fingerprint
from solguard.retrieval.kb import HashingEmbedder, build_kb_index, load_kb_documents
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file, top_k
from solguard.static_analysis.scanner import load_source

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# per contract type: (gold label, model score, static fires, neighbor labels)
_TYPES = {
    "A": ("vulnerable", 0.80, True, ["vulnerable"] * 3 + ["safe"] * 2),   # retrieval 0.8
    "B": ("vulnerable", 0.40, True, ["vulnerable"] * 3 + ["safe"] * 2),   # retrieval 0.8
    "C": ("vulnerable", 0.45, False, ["vulnerable"] * 5),                  # retrieval 1.0
    "D": ("vulnerable", 0.90, True, ["vulnerable"] * 3 + ["safe"] * 2),   # retrieval 0.8
    "E": ("safe", 0.10, False, ["safe"] * 5),                              # retrieval 0.0
}
_COUNTS = {"A": 4, "B": 4, "C": 4, "D": 8, "E": 20}

EXPECTED_F1 = {"weighted": 1.0, "no-static": 8 / 9, "no-rag": 0.75}


@dataclass(frozen=True)
class EvalContract:
    contract_id: str
    kind: str
    label: str
    model_score: float
    source: str


def _source_for(kind: str, cid: str) -> str:
    marker = cid.replace("-", "_")
    if kind in ("A", "B", "D"):  # unprotected setter: static rule fires at 0.9
        return (
            f"pragma solidity ^0.8.0;\n\n"
            f"contract Pool_{marker} {{\n"
            f"    uint256 public level_{marker};\n\n"
            f"    function configure(uint256 v) external {{\n"
            f"        level_{marker} = v;\n"
            f"    }}\n"
            f"}}\n"
        )
    if kind == "C":  # guarded sweep: semantically flawed, pattern-silent
        return (
            f"pragma solidity ^0.8.0;\n\n"
            f"contract Treasury_{marker} {{\n"
            f"    address public curator_{marker};\n\n"
            f"    constructor() {{\n"
            f"        curator_{marker} = msg.sender;\n"
            f"    }}\n\n"
            f"    function sweep(address payable to) external {{\n"
            f"        require(msg.sender == curator_{marker}, \"auth\");\n"
            f"        to.transfer(address(this).balance);\n"
            f"    }}\n"
            f"}}\n"
        )
    return (  # E: view-only reader
        f"pragma solidity ^0.8.0;\n\n"
        f"contract Ledger_{marker} {{\n"
        f"    uint256 public tally_{marker};\n\n"
        f"    function peek() external view returns (uint256) {{\n"
        f"        return tally_{marker};\n"
        f"    }}\n"
        f"}}\n"
    )


def eval_contracts() -> list[EvalContract]:
    contracts: list[EvalContract] = []
    serial = 0
    for kind, count in _COUNTS.items():
        for _ in range(count):
            serial += 1
            cid = f"c{serial:02d}"
            label, score, _, _ = _TYPES[kind]
            contracts.append(EvalContract(cid, kind, label, score, _source_for(kind, cid)))
    return contracts


def _detector_response(score: float) -> str:
    verdict = "vulnerable" if score >= 0.5 else "safe"
    return json.dumps({"verdict": verdict, "score": score, "findings": []})


def build_eval_fixture(root: Path) -> dict[str, Path]:
    """Write dataset, corpus, transcript, snapshots, and config under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    contracts = eval_contracts()

    dataset_path = root / "dataset.jsonl"
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for c in contracts:
            fh.write(
                json.dumps(
                    {
                        "id": c.contract_id,
                        "label": c.label,
                        "classes": ["Unprotected Function"] if c.label == "vulnerable" else [],
                        "split": "validation",
                        "source": c.source,
                    }
                )
                + "\n"
            )

    corpus_path = root / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for c in contracts:
            neighbor_labels = _TYPES[c.kind][3]
            for i, label in enumerate(neighbor_labels, start=1):
                fh.write(
                    json.dumps(
                        {
                            "id": f"ref-{c.contract_id}-{i}",
                            "label": label,
                            "classes": ["Unprotected Function"] if label == "vulnerable" else [],
                            "source": c.source,
                        }
                    )
                    + "\n"
                )

    index_root = root / "index"
    corpus_index = build_corpus_index(load_corpus_file(corpus_path))
    CorpusSnapshotStore(index_root / "corpus").publish(corpus_index)
    kb_index = build_kb_index(load_kb_documents(FIXTURES / "kb_docs"), HashingEmbedder())
    KbSnapshotStore(index_root / "kb").publish(kb_index)

    transcript_path = root / "transcript.jsonl"
    with open(transcript_path, "w", encoding="utf-8") as fh:
        for c in contracts:
            contract = load_source(c.contract_id, c.source)
            plain = build_detection_prompt(contract, "weighted")
            fh.write(
                json.dumps(
                    {
                        "role": "detector",
                        "fingerprint": prompt_fingerprint(plain),
                        "response": _detector_response(c.model_score),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            enriched = build_detection_prompt(
                contract, "enriched", top_k(contract, corpus_index, 5), kb_index
            )
            fh.write(
                json.dumps(
                    {
                        "role": "detector",
                        "fingerprint": prompt_fingerprint(enriched),
                        "response": _detector_response(max(0.0, c.model_score - 0.3)),
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    config_path = root / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "mode": "weighted",
                "weights": {"model": 0.7, "static": 0.1, "retrieval": 0.2},
                "threshold": 0.5,
                "k": 5,
                "index_root": str(index_root),
                "output_dir": str(root / "out"),
                "providers": {
                    "detector": {
                        "kind": "mock",
                        "model_id": "detector-sim",
                        "transcript": str(transcript_path),
                    }
                },
            },
            sort_keys=False,
        ),
        encoding="utf-8",
    )
    return {
        "dataset": dataset_path,
        "corpus": corpus_path,
        "transcript": transcript_path,
        "config": config_path,
        "index_root": index_root,
    }
