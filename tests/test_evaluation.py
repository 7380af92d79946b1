from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solguard.agents import build_context, load_config
from solguard.errors import DatasetError
from solguard.evaluation import (
    ConfusionMatrix,
    calibrate_threshold,
    confusion,
    format_table,
    fused_scores,
    load_dataset,
    metrics,
    normalize_variant,
    run_variants,
)


class TestConfusion:
    def test_perfect_predictions(self):
        gold = {"a": "vulnerable", "b": "safe"}
        cm = confusion(dict(gold), gold)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 0, 0, 1)

    def test_all_safe_on_all_vulnerable(self):
        gold = {f"c{i}": "vulnerable" for i in range(8)}
        predictions = {cid: "safe" for cid in gold}
        cm = confusion(predictions, gold)
        assert (cm.tp, cm.fn) == (0, 8)

    def test_twenty_prediction_hand_tally(self):
        # hand-tallied: 6 tp, 3 fp, 4 fn, 7 tn
        gold, predictions = {}, {}
        for i in range(6):
            gold[f"tp{i}"], predictions[f"tp{i}"] = "vulnerable", "vulnerable"
        for i in range(3):
            gold[f"fp{i}"], predictions[f"fp{i}"] = "safe", "vulnerable"
        for i in range(4):
            gold[f"fn{i}"], predictions[f"fn{i}"] = "vulnerable", "safe"
        for i in range(7):
            gold[f"tn{i}"], predictions[f"tn{i}"] = "safe", "safe"
        cm = confusion(predictions, gold)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (6, 3, 4, 7)
        assert cm.total == 20

    def test_id_mismatch_rejected(self):
        with pytest.raises(DatasetError, match="disagree"):
            confusion({"a": "safe"}, {"b": "safe"})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


class TestMetrics:
    def test_worked_example(self):
        report = metrics(ConfusionMatrix(tp=90, fp=5, fn=10, tn=95))
        assert report.precision == pytest.approx(0.9474, abs=5e-5)
        assert report.recall == pytest.approx(0.9000, abs=5e-5)
        assert report.f1 == pytest.approx(0.9231, abs=5e-5)
        assert report.accuracy == pytest.approx(0.9250, abs=5e-5)
        assert report.fpr == pytest.approx(0.0500, abs=5e-5)
        assert report.degenerate == ()

    def test_no_positive_predictions_degenerate_precision(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert report.precision == 0.0
        assert "precision" in report.degenerate

    def test_all_negatives_correct_fpr_zero(self):
        report = metrics(ConfusionMatrix(tp=3, fp=0, fn=0, tn=7))
        assert report.fpr == 0.0

    @given(
        st.tuples(
            st.integers(0, 200), st.integers(0, 200), st.integers(0, 200), st.integers(0, 200)
        ).filter(lambda t: sum(t) > 0)
    )
    def test_defining_identities(self, counts):
        tp, fp, fn, tn = counts
        report = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        assert report.accuracy == pytest.approx((tp + tn) / (tp + fp + fn + tn), abs=1e-12)
        if tp + fp:
            assert report.precision == pytest.approx(tp / (tp + fp), abs=1e-12)
        if tp + fn:
            assert report.recall == pytest.approx(tp / (tp + fn), abs=1e-12)
        if report.precision + report.recall:
            assert report.f1 == pytest.approx(
                2 * report.precision * report.recall / (report.precision + report.recall),
                abs=1e-12,
            )
        if fp + tn:
            assert report.fpr == pytest.approx(fp / (fp + tn), abs=1e-12)
            specificity = tn / (fp + tn)
            assert report.fpr + specificity == pytest.approx(1.0, abs=1e-12)


class TestVariantNames:
    def test_aliases(self):
        assert normalize_variant("W") == "weighted"
        assert normalize_variant("v") == "voting"
        assert normalize_variant("E") == "enriched"
        assert normalize_variant("w/o Static") == "no-static"
        assert normalize_variant("w/o RAG") == "no-rag"
        assert normalize_variant("no-rag") == "no-rag"

    def test_exactly_the_documented_spellings(self):
        spellings = {
            "weighted": ["weighted", "W"],
            "voting": ["voting", "V"],
            "enriched": ["enriched", "E"],
            "no-static": ["no-static", "w/o Static", "wo static", "Without  Static"],
            "no-rag": ["no-rag", "w/o RAG", "wo rag", "without RAG"],
        }
        assert sum(len(v) for v in spellings.values()) == 14
        for name, accepted in spellings.items():
            for spelling in accepted:
                assert normalize_variant(f" {spelling} ") == name
        for near_miss in ("no static", "w/o-static", "norag", "weight", "x"):
            with pytest.raises(DatasetError):
                normalize_variant(near_miss)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(DatasetError, match="valid names"):
            normalize_variant("mystery")


class TestCalibration:
    def test_perfectly_separable_returns_min_vulnerable_score(self):
        scores = [(0.1, "safe"), (0.2, "safe"), (0.7, "vulnerable"), (0.9, "vulnerable")]
        assert calibrate_threshold(scores) == pytest.approx(0.7)

    def test_all_scores_equal_returns_that_score(self):
        scores = [(0.5, "safe"), (0.5, "vulnerable")]
        assert calibrate_threshold(scores) == pytest.approx(0.5)

    def test_single_label_rejected(self):
        with pytest.raises(DatasetError, match="both safe and vulnerable"):
            calibrate_threshold([(0.3, "safe"), (0.6, "safe")])

    def test_matches_exhaustive_sweep_oracle(self):
        import random

        rng = random.Random(99)
        scores = [(round(rng.random(), 3), rng.choice(["safe", "vulnerable"])) for _ in range(60)]
        scores += [(0.9, "vulnerable"), (0.05, "safe")]  # both labels guaranteed

        def oracle(pairs):
            best_t, best_f1 = None, -1.0
            for t in sorted({s for s, _ in pairs}):
                tp = sum(1 for s, l in pairs if s >= t and l == "vulnerable")
                fp = sum(1 for s, l in pairs if s >= t and l == "safe")
                fn = sum(1 for s, l in pairs if s < t and l == "vulnerable")
                f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
                if f1 >= best_f1:
                    best_f1, best_t = f1, t
            return best_t

        assert calibrate_threshold(scores) == pytest.approx(oracle(scores))


class TestRunVariants:
    def test_engineered_ordering_and_exact_f1(self, eval_env):
        from eval_fixture import EXPECTED_F1

        config = load_config(eval_env["config"])
        ctx = build_context(config, roles=("detector",))
        dataset = load_dataset(eval_env["dataset"])
        reports = run_variants(dataset, ["W", "w/o Static", "w/o RAG"], ctx)
        by = {r.variant: r for r in reports}
        for name, want in EXPECTED_F1.items():
            assert by[name].f1 == pytest.approx(want, abs=1e-9)
        assert by["weighted"].f1 >= by["no-static"].f1 >= by["no-rag"].f1
        assert all(r.failures == 0 for r in reports)

    def test_single_variant_single_row(self, eval_env):
        config = load_config(eval_env["config"])
        ctx = build_context(config, roles=("detector",))
        dataset = load_dataset(eval_env["dataset"])
        reports = run_variants(dataset, ["weighted"], ctx)
        assert len(reports) == 1
        assert format_table(reports).count("\n") == 2  # header, rule, one row

    def test_duplicate_variants_rejected(self, eval_env):
        config = load_config(eval_env["config"])
        ctx = build_context(config, roles=("detector",))
        dataset = load_dataset(eval_env["dataset"])
        with pytest.raises(DatasetError, match="duplicate"):
            run_variants(dataset, ["W", "weighted"], ctx)

    @pytest.mark.parametrize(
        "variants, prompts_per_contract",
        [(["W", "V", "E", "w/o Static", "w/o RAG"], 2), (["W", "V", "w/o Static", "w/o RAG"], 1), (["E"], 1)],
    )
    def test_detector_asked_once_per_distinct_prompt(self, eval_env, monkeypatch, variants, prompts_per_contract):
        from solguard.llm.mock import MockProvider

        calls: list[str] = []
        original = MockProvider.complete

        def counted(self, prompt, *, role):
            calls.append(role)
            return original(self, prompt, role=role)

        monkeypatch.setattr(MockProvider, "complete", counted)
        ctx = build_context(load_config(eval_env["config"]), roles=("detector",))
        dataset = load_dataset(eval_env["dataset"])
        run_variants(dataset, variants, ctx)
        assert calls == ["detector"] * prompts_per_contract * len(dataset.entries)

    def test_deterministic_across_invocations(self, eval_env):
        config = load_config(eval_env["config"])
        ctx = build_context(config, roles=("detector",))
        dataset = load_dataset(eval_env["dataset"])
        first = [r.to_payload() for r in run_variants(dataset, ["W", "V"], ctx)]
        second = [r.to_payload() for r in run_variants(dataset, ["W", "V"], ctx)]
        assert json.dumps(first) == json.dumps(second)


class TestDatasetLoading:
    def test_missing_source_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"id": "a", "label": "safe"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="source"):
            load_dataset(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"id": "a", "label": "meh", "source": "x"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="label"):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            '{"id": "a", "label": "safe", "source": "x"}\n'
            '{"id": "a", "label": "safe", "source": "y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_source_path_resolution_and_splits(self, tmp_path):
        (tmp_path / "c.sol").write_text("contract C {}", encoding="utf-8")
        path = tmp_path / "ds.jsonl"
        path.write_text(
            '{"id": "a", "label": "safe", "source_path": "c.sol", "split": "validation"}\n'
            '{"id": "b", "label": "safe", "source": "contract B {}"}\n',
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        assert dataset.entries[0].source == "contract C {}"
        assert len(dataset.subset("validation").entries) == 1


class TestFailureCounting:
    def test_unscripted_contract_is_excluded_and_counted(self, eval_env, tmp_path):
        dataset_path = tmp_path / "ds.jsonl"
        original = Path(eval_env["dataset"]).read_text(encoding="utf-8")
        extra = {
            "id": "zz-unscripted",
            "label": "vulnerable",
            "source": "pragma solidity ^0.8.0;\ncontract Mystery { function x() external view returns (uint256) { return 1; } }",
        }
        dataset_path.write_text(original + json.dumps(extra) + "\n", encoding="utf-8")
        config = load_config(eval_env["config"])
        ctx = build_context(config, roles=("detector",))
        reports = run_variants(load_dataset(dataset_path), ["weighted"], ctx)
        assert reports[0].failures == 1
        assert reports[0].evaluated == 40
        assert len(fused_scores(load_dataset(dataset_path), ctx)) == 40  # calibrate excludes it too
