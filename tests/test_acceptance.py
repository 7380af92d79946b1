"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from pathlib import Path

import pytest

from click.testing import CliRunner

from solguard.agents.config import FusionWeights
from solguard.agents.detect import fuse_channels, weighted_score
from solguard.cli import main
from solguard.core import Channel, ChannelResult, Verdict
from solguard.evaluation import ConfusionMatrix, metrics
from solguard.retrieval.tfidf import (
    build_corpus_index,
    rank_weighted_probability,
    rank_weights,
    top_k,
)
from solguard.retrieval.snapshot import CorpusSnapshotStore
from solguard.static_analysis.rules import default_ruleset
from solguard.static_analysis.scanner import load_file, load_source

from conftest import write_pipeline_config
from reference_corpus_snapshot_v1 import document_weights, idf_map
from test_retrieval import (
    brute_force_top_k,
    neighbor,
    oracle_terms,
    oracle_tfidf,
    synthetic_corpus,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRANSCRIPT = FIXTURES / "presign_transcript.jsonl"


def _criterion(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def _channels(s_static: float, s_retrieval: float, s_model: float, threshold: float = 0.5):
    def result(channel: Channel, score: float) -> ChannelResult:
        verdict = Verdict.VULNERABLE if score >= threshold else Verdict.SAFE
        return ChannelResult(channel=channel, verdict=verdict, score=score)

    return {
        Channel.STATIC: result(Channel.STATIC, s_static),
        Channel.RETRIEVAL: result(Channel.RETRIEVAL, s_retrieval),
        Channel.MODEL: result(Channel.MODEL, s_model),
    }


def test_criterion_01_fusion_arithmetic():
    started = time.perf_counter()
    weights = FusionWeights(model=0.7, static=0.1, retrieval=0.2)
    rng = random.Random(1)
    for _ in range(1000):
        s_model, s_static, s_retrieval = (rng.random() for _ in range(3))
        fused = fuse_channels(_channels(s_static, s_retrieval, s_model), "weighted", weights, 0.5)
        by_hand = 0.7 * s_model + 0.1 * s_static + 0.2 * s_retrieval
        assert abs(fused.score - by_hand) <= 1e-12
        assert 0.0 <= fused.score <= 1.0
        # pairwise perturbation: bumping any single channel never lowers the score
        for bump in ("model", "static", "retrieval"):
            scores = {"model": s_model, "static": s_static, "retrieval": s_retrieval}
            scores[bump] = min(1.0, scores[bump] + rng.random() * (1.0 - scores[bump]))
            perturbed = weighted_score(weights, scores["model"], scores["static"], scores["retrieval"])
            assert perturbed >= fused.score - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fusion arithmetic took {elapsed:.2f}s"
    _criterion(1, f"weighted fusion matches the hand formula on 1000 triples ({elapsed:.2f}s)")


def test_criterion_02_voting_oracle():
    started = time.perf_counter()
    for bits in itertools.product([0, 1], repeat=3):
        s_static, s_retrieval, s_model = (float(b) for b in bits)
        fused = fuse_channels(
            _channels(s_static, s_retrieval, s_model), "voting", FusionWeights(), 0.5
        )
        majority = sum(bits) >= 2
        assert (fused.verdict is Verdict.VULNERABLE) == majority, bits
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _criterion(2, "voting verdict equals brute-force majority on all 8 combinations")


def test_criterion_03_retrieval_oracle():
    started = time.perf_counter()
    for n_docs, seed in ((10, 31), (50, 32), (200, 33)):
        docs = synthetic_corpus(n_docs, seed=seed)
        index = build_corpus_index(docs)
        term_lists = [oracle_terms(d[3]) for d in docs]
        oracle_idf, oracle_vectors = oracle_tfidf(term_lists)
        idf = idf_map(index)
        assert set(idf) == set(oracle_idf)
        for term, value in oracle_idf.items():
            assert abs(idf[term] - value) <= 1e-9
        for weights, expected in zip(document_weights(index), oracle_vectors):
            assert set(weights) == set(expected)
            for term, weight in expected.items():
                assert abs(weights[term] - weight) <= 1e-9
        query = load_source("query", docs[n_docs // 3][3] + " word2 word5")
        neighbors = top_k(query, index, 5)
        expected_order = brute_force_top_k(oracle_terms(query.source), index, 5, "query")
        assert [nb.contract_id for nb in neighbors] == [e[0] for e in expected_order]
        for nb, (_, sim, _) in zip(neighbors, expected_order):
            assert abs(nb.similarity - sim) <= 1e-9
    for m in range(1, 30):
        assert abs(sum(rank_weights(m)) - 1.0) <= 1e-12
    labels = ["vulnerable", "vulnerable", "safe", "safe", "safe"]
    nbs = [neighbor(i + 1, lab) for i, lab in enumerate(labels)]
    assert abs(rank_weighted_probability(nbs) - 0.6) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"retrieval oracle took {elapsed:.2f}s"
    _criterion(3, f"tf-idf, cosine, and top-5 match the brute-force oracle on 10/50/200 docs ({elapsed:.2f}s)")


def test_criterion_04_static_analyzer_corpus():
    from solguard.static_analysis.scanner import scan

    started = time.perf_counter()
    ruleset = default_ruleset()
    classes = {r.rule_id: r.vuln_class.name for r in ruleset}
    manifest = json.loads((FIXTURES / "rules" / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest) >= 16
    disagreements = []
    for name, expected in manifest.items():
        contract = load_file(FIXTURES / "rules" / name)
        got = sorted((f.vuln_class.name, f.location.function) for f in scan(contract, ruleset))
        want = sorted((classes[rule_id], fn) for rule_id, fn in expected["findings"])
        if got != want:
            disagreements.append((name, got, want))
    assert disagreements == [], disagreements
    presign = load_file(FIXTURES / "presign.sol")
    assert {f.vuln_class.name for f in scan(presign, ruleset)} == {"Unprotected Function"}
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _criterion(4, f"{len(manifest)} labeled snippets scanned with 100% agreement ({elapsed:.2f}s)")


@pytest.fixture
def audit_config_factory(tmp_path, built_index_root):
    def make(out_name: str) -> Path:
        return write_pipeline_config(
            tmp_path / f"config_{out_name}.yaml",
            index_root=built_index_root,
            output_dir=tmp_path / out_name,
            transcript=TRANSCRIPT,
        )

    return make


def test_criterion_05_audit_determinism(audit_config_factory, tmp_path):
    runner = CliRunner()
    fixture_set = [str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol")]
    for out_name in ("out1", "out2"):
        config = audit_config_factory(out_name)
        result = runner.invoke(main, ["audit", *fixture_set, "-c", str(config)])
        assert result.exit_code == 0, result.output
    first, second = tmp_path / "out1", tmp_path / "out2"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert names  # reports and run records exist
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _criterion(5, f"two audit runs produced byte-identical files: {', '.join(names)}")


def test_criterion_06_presign_end_to_end(audit_config_factory, tmp_path):
    started = time.perf_counter()
    runner = CliRunner()
    config = audit_config_factory("e2e")
    result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
    assert result.exit_code == 0, result.output
    run = json.loads((tmp_path / "e2e" / "presign.run.json").read_text(encoding="utf-8"))

    assert run["verdict"]["verdict"] == "vulnerable"
    risk = {
        a["finding"]["class"]["name"]: a["level"] for a in run["risk"]["assignments"]
    }
    assert risk["Unprotected Function"] == "Critical"
    patched = run["patch"]["repaired_source"]
    assert "require(msg.sender == owner" in patched or "onlyOwner" in patched
    assert run["verification"]["passed"] is True
    from solguard.static_analysis.scanner import scan

    assert scan(load_source("patched", patched), default_ruleset()) == []
    report = (tmp_path / "e2e" / "presign.report.md").read_text(encoding="utf-8")
    for i, title in enumerate(
        (
            "Contract Basic Information Overview",
            "Executive Summary",
            "Audit Methodology Explanation",
            "Vulnerability Discovery Summary",
            "In-Depth Analysis Report",
            "Improvement Suggestions",
            "Compliance Disclaimer",
        ),
        start=1,
    ):
        assert f"## {i}. {title}" in report
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _criterion(6, f"preSign audit: vulnerable, Critical, owner-guard patch, verified, 7 sections ({elapsed:.2f}s)")


def test_criterion_07_ablation_ordering(eval_env, tmp_path):
    started = time.perf_counter()
    runner = CliRunner()
    out = tmp_path / "ablation.json"
    result = runner.invoke(
        main,
        [
            "eval", str(eval_env["dataset"]),
            "-c", str(eval_env["config"]),
            "--variants", "W,w/o Static,w/o RAG",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    rows = {r["variant"]: r for r in json.loads(out.read_text(encoding="utf-8"))["results"]}
    f1_w = rows["weighted"]["f1"]
    f1_no_static = rows["no-static"]["f1"]
    f1_no_rag = rows["no-rag"]["f1"]
    assert f1_w >= f1_no_static >= f1_no_rag
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _criterion(
        7,
        f"ablation F1 ordering holds: {f1_w:.4f} >= {f1_no_static:.4f} >= {f1_no_rag:.4f} ({elapsed:.2f}s)",
    )


def test_criterion_08_metrics_identities():
    started = time.perf_counter()
    rng = random.Random(8)
    for _ in range(1000):
        tp, fp, fn, tn = (rng.randint(0, 500) for _ in range(4))
        if tp + fp + fn + tn == 0:
            tn = 1
        report = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        total = tp + fp + fn + tn
        assert abs(report.accuracy - (tp + tn) / total) <= 1e-12
        if tp + fp:
            assert abs(report.precision - tp / (tp + fp)) <= 1e-12
        if tp + fn:
            assert abs(report.recall - tp / (tp + fn)) <= 1e-12
        if report.precision + report.recall > 0:
            expected_f1 = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert abs(report.f1 - expected_f1) <= 1e-12
        if fp + tn:
            assert abs(report.fpr - fp / (fp + tn)) <= 1e-12
    worked = metrics(ConfusionMatrix(tp=90, fp=5, fn=10, tn=95))
    assert abs(worked.fpr - 0.0500) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _criterion(8, f"metric identities hold on 1000 random matrices; worked example fpr = {worked.fpr:.4f}")


def test_criterion_09_hot_swap_safety(tmp_path, monkeypatch):
    store = CorpusSnapshotStore(tmp_path / "store")

    def corpus_for(tag: int):
        return build_corpus_index(
            [(f"doc{i}", "safe", (f"tag{tag}",), f"snapshot {tag} doc {i}") for i in range(3)]
        )

    store.publish(corpus_for(0))
    stop = threading.Event()
    problems: list[str] = []
    observed: set[int] = set()

    def reader() -> None:
        while not stop.is_set():
            index = store.load()
            tags = {classes[0] for classes in index.classes}
            observed.add(index.snapshot_version)
            if tags != {f"tag{index.snapshot_version - 1}"}:
                problems.append(f"version {index.snapshot_version} saw tags {tags}")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        for tag in range(1, 100):
            store.publish(corpus_for(tag))
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert problems == [], problems[:3]
    assert len(store.versions()) == 100

    # simulated crash mid-publish: pointer must stay on the previous version
    live_before = store.current_version()

    def explode(version: int) -> None:
        raise OSError("simulated crash before the pointer swap")

    monkeypatch.setattr(store, "_activate", explode)
    with pytest.raises(OSError):
        store.publish(corpus_for(1000))
    monkeypatch.undo()
    assert store.current_version() == live_before
    assert {classes[0] for classes in store.load().classes} == {f"tag{live_before - 1}"}
    _criterion(
        9,
        f"100 publish cycles, {len(observed)} versions observed consistently; crash left v{live_before} live",
    )


def test_criterion_10_config_validation_exit_codes(tmp_path, built_index_root):
    import yaml

    runner = CliRunner()

    def config_with(mutate) -> Path:
        payload = {
            "mode": "weighted",
            "weights": {"model": 0.7, "static": 0.1, "retrieval": 0.2},
            "threshold": 0.5,
            "k": 5,
            "index_root": str(built_index_root),
            "output_dir": str(tmp_path / "out"),
            "providers": {
                "detector": {"kind": "mock", "model_id": "det", "transcript": str(TRANSCRIPT)},
                "base": {"kind": "mock", "model_id": "base", "transcript": str(TRANSCRIPT)},
                "fixer": {"kind": "mock", "model_id": "fix", "transcript": str(TRANSCRIPT)},
                "verifier": {"kind": "mock", "model_id": "ver", "transcript": str(TRANSCRIPT)},
            },
        }
        mutate(payload)
        path = tmp_path / f"cfg_{mutate.__name__}.yaml"
        path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        return path

    def same_verifier(p):
        p["providers"]["verifier"]["model_id"] = "fix"

    def bad_weights(p):
        p["weights"] = {"model": 0.6, "static": 0.1, "retrieval": 0.2}

    def zero_k(p):
        p["k"] = 0

    for mutate in (same_verifier, bad_weights, zero_k):
        config = config_with(mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2, f"{mutate.__name__}: exit {result.exit_code}\n{result.output}"
    _criterion(10, "verifier-equals-fixer, bad weights, and k=0 each rejected with exit code 2")
