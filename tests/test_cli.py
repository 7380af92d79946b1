from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import pytest
import yaml

from solguard.cli import EXIT_PROCESSING, main
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file
from conftest import write_pipeline_config
import presign_fixture
from chat_stub import ChatStub, Reply
import reference_corpus_snapshot_v1

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRANSCRIPT = FIXTURES / "presign_transcript.jsonl"


class TestAudit:
    def test_presign_audit_writes_report(self, runner, presign_config, tmp_path):
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(presign_config)])
        assert result.exit_code == 0, result.output
        report = (tmp_path / "out" / "presign.report.md").read_text(encoding="utf-8")
        assert "Unprotected Function" in report
        assert "## 7. Compliance Disclaimer" in report
        run_record = json.loads((tmp_path / "out" / "presign.run.json").read_text(encoding="utf-8"))
        assert run_record["verdict"]["verdict"] == "vulnerable"
        assert "vulnerable" in result.output

    def test_zero_input_files_is_usage_error(self, runner, presign_config):
        result = runner.invoke(main, ["audit", "-c", str(presign_config)])
        assert result.exit_code == 2

    def test_directory_input_recurses_over_sol_files(self, runner, built_index_root, tmp_path):
        contracts = tmp_path / "contracts" / "nested"
        contracts.mkdir(parents=True)
        (contracts / "one.sol").write_text(
            (FIXTURES / "safe.sol").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (contracts.parent / "two.sol").write_text(
            (FIXTURES / "safe.sol").read_text(encoding="utf-8"), encoding="utf-8"
        )
        config = write_pipeline_config(
            tmp_path / "cfg.yaml",
            index_root=built_index_root,
            output_dir=tmp_path / "out",
            transcript=TRANSCRIPT,
        )
        result = runner.invoke(main, ["audit", str(tmp_path / "contracts"), "-c", str(config)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "one.report.md").exists()
        assert (tmp_path / "out" / "two.report.md").exists()

    def test_fail_on_vulnerable_flag(self, runner, presign_config):
        result = runner.invoke(
            main,
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--fail-on-vulnerable"],
        )
        assert result.exit_code == 1

    def test_unreadable_file_is_processing_error_but_continues(self, runner, presign_config, tmp_path):
        result = runner.invoke(
            main,
            ["audit", str(tmp_path / "ghost.sol"), str(FIXTURES / "presign.sol"), "-c", str(presign_config)],
        )
        assert result.exit_code == 1
        assert (tmp_path / "out" / "presign.report.md").exists()

    @pytest.mark.parametrize(
        "bad_body",
        ["<html>gateway hiccup</html>", "[1, 2]", '{"choices": [{"message": {"content": null}}]}'],
    )
    def test_malformed_provider_reply_fails_one_contract_not_the_batch(
        self, runner, built_index_root, tmp_path, bad_body
    ):
        def answer(request):
            if "preSign" in request["messages"][0]["content"]:
                return Reply(body=bad_body.encode("utf-8"))
            return Reply(body={"content": presign_fixture.safe_detector_response()})

        with ChatStub(answer) as stub:
            providers = {
                role: {"kind": "http-endpoint", "model_id": f"{role}-model", "endpoint": stub.endpoint}
                for role in ("base", "verifier")
            }
            config = write_pipeline_config(
                tmp_path / "cfg.yaml", built_index_root, tmp_path / "out", TRANSCRIPT, providers=providers
            )
            result = runner.invoke(
                main,
                ["audit", str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol"), "-c", str(config), "--jobs", "2"],
            )
        assert result.exit_code == 1
        assert "processed 2/2 contracts" in result.output
        assert "presign: " in result.output and "failed stages: detect" in result.output
        assert (tmp_path / "out" / "safe.run.json").exists()
        presign = json.loads((tmp_path / "out" / "presign.run.json").read_text(encoding="utf-8"))
        assert "model channel failed" in presign["errors"]["detect"]

    def test_missing_config_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(tmp_path / "none.yaml")]
        )
        assert result.exit_code == 2


def write_batch_with_undecodable_contract(directory: Path) -> Path:
    """``presign.sol`` and ``safe.sol`` around a contract that is not UTF-8."""
    directory.mkdir()
    shutil.copy(FIXTURES / "presign.sol", directory / "presign.sol")
    (directory / "bad.sol").write_bytes(b"contract Bad { string s = \"\xff\"; }\n")
    shutil.copy(FIXTURES / "safe.sol", directory / "safe.sol")
    return directory


class TestUndecodableContract:
    def test_audit_reports_it_and_finishes_the_batch(self, runner, presign_config, tmp_path):
        batch = write_batch_with_undecodable_contract(tmp_path / "batch")
        result = runner.invoke(main, ["audit", str(batch), "-c", str(presign_config), "--jobs", "2"])
        assert result.exit_code == EXIT_PROCESSING, result.output
        assert "Traceback" not in result.output
        errors = [l for l in result.stderr.splitlines() if ": error: " in l]
        assert len(errors) == 1 and errors[0].startswith("bad: error: "), errors
        assert "processed 2/3 contracts" in result.stdout
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == [
            f"{cid}.{kind}" for cid in ("presign", "safe") for kind in ("report.json", "report.md", "run.json")
        ]

    def test_detect_reports_it_and_prints_the_other_verdicts(self, runner, presign_config, tmp_path):
        batch = write_batch_with_undecodable_contract(tmp_path / "batch")
        result = runner.invoke(main, ["detect", str(batch), "-c", str(presign_config)])
        assert result.exit_code == EXIT_PROCESSING, result.output
        assert "Traceback" not in result.output
        assert "bad: error: " in result.stderr
        verdicts = [l for l in result.stdout.splitlines() if not l.startswith(" ")]
        assert verdicts == ["presign: vulnerable 0.84 (mode weighted)", "safe: safe 0.00 (mode weighted)"]


class TestDetect:
    def test_safe_fixture_prints_three_channel_rows(self, runner, presign_config):
        result = runner.invoke(main, ["detect", str(FIXTURES / "safe.sol"), "-c", str(presign_config)])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("safe: safe 0.0")
        channel_lines = [l for l in lines[1:4]]
        assert [l.split()[0] for l in channel_lines] == ["static", "retrieval", "model"]

    def test_voting_mode_override(self, runner, presign_config):
        result = runner.invoke(
            main,
            ["detect", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--mode", "voting"],
        )
        assert result.exit_code == 0, result.output
        assert "presign: vulnerable" in result.output
        assert "(mode voting)" in result.output

    def test_json_output_round_trips_schema(self, runner, presign_config):
        result = runner.invoke(
            main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert len(payload) == 1
        record = payload[0]
        assert list(record) == ["contract_id", "verdict", "score", "mode", "threshold", "channels"]
        assert record["contract_id"] == "presign"
        assert record["verdict"] == "vulnerable"
        assert [c["channel"] for c in record["channels"]] == ["static", "retrieval", "model"]
        for channel in record["channels"]:
            assert list(channel) == ["channel", "verdict", "score", "findings"]

    def test_corrupt_snapshot_file_is_processing_error(self, runner, built_index_root, tmp_path):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        postings = index_root / "corpus" / "1" / "postings.bin"
        postings.write_bytes(postings.read_bytes()[:-1])
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        result = runner.invoke(main, ["detect", str(FIXTURES / "safe.sol"), "-c", str(config)])
        assert result.exit_code == EXIT_PROCESSING
        assert isinstance(result.exception, SystemExit)
        assert f"error: snapshot file {postings} is corrupt: " in result.output
        assert "Traceback" not in result.output

    def test_weights_override_validation(self, runner, presign_config):
        result = runner.invoke(
            main,
            ["detect", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--weights", "0.5,0.1,0.2"],
        )
        assert result.exit_code == 2
        assert "sum to 1" in result.output

    # the range checks of the command-line overrides are the configuration's own
    @pytest.mark.parametrize("option, value, key", [("--threshold", "1.5", "threshold"), ("--k", "0", "k")])
    def test_out_of_range_override_is_usage_error_naming_the_key(self, runner, presign_config, option, value, key):
        result = runner.invoke(
            main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(presign_config), option, value]
        )
        assert result.exit_code == 2
        assert "error: " in result.output and f" {key} must " in result.output

    def test_nan_weight_is_usage_error(self, runner, presign_config):
        result = runner.invoke(
            main,
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--weights", "nan,0.5,0.5"],
        )
        assert result.exit_code == 2
        assert "weights channel model must be a number in [0, 1], got nan" in result.output


class TestKb:
    def test_build_then_status_version_one(self, runner, tmp_path):
        index_root = tmp_path / "idx"
        result = runner.invoke(
            main,
            [
                "kb", "build",
                "--corpus", str(FIXTURES / "corpus.jsonl"),
                "--docs", str(FIXTURES / "kb_docs"),
                "--index-root", str(index_root),
            ],
        )
        assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert "corpus: version 1, 15 documents" in status.output
        assert "kb: version 1, 6 documents" in status.output

    def test_corpus_record_of_the_wrong_type_publishes_nothing(self, runner, tmp_path):
        # an int id used to publish a snapshot that kb status then rejected as corrupt
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            FIXTURES.joinpath("corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
            + '\n{"id": 5, "label": "safe", "source": "contract A {}"}\n',
            encoding="utf-8",
        )
        index_root = tmp_path / "idx"
        result = runner.invoke(main, ["kb", "build", "--corpus", str(corpus), "--index-root", str(index_root)])
        assert result.exit_code == EXIT_PROCESSING
        assert f"error: {corpus}:2: record key id must be a string, got 5" in result.output
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert status.exit_code == 0, status.output
        assert "corpus: no snapshot published" in status.output

    def test_update_bumps_version(self, runner, tmp_path):
        index_root = tmp_path / "idx"
        runner.invoke(
            main,
            ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)],
        )
        result = runner.invoke(
            main,
            ["kb", "update", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)],
        )
        assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert "corpus: version 2" in status.output

    def test_build_twice_is_usage_error(self, runner, tmp_path):
        index_root = tmp_path / "idx"
        args = ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "kb update" in result.output

    def test_failed_update_leaves_pointer_untouched(self, runner, tmp_path):
        index_root = tmp_path / "idx"
        runner.invoke(
            main,
            ["kb", "build", "--docs", str(FIXTURES / "kb_docs"), "--index-root", str(index_root)],
        )
        bad_docs = tmp_path / "bad_docs"
        bad_docs.mkdir()
        (bad_docs / "broken.md").write_text("---\nsource: x\nno closing fence", encoding="utf-8")
        result = runner.invoke(
            main, ["kb", "update", "--docs", str(bad_docs), "--index-root", str(index_root)]
        )
        assert result.exit_code == 1
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert "kb: version 1" in status.output

    def test_build_without_sources_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["kb", "build", "--index-root", str(tmp_path / "idx")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "fault", ["corpus meta not an object", "kb meta without embedder", "kb meta naming an unknown embedder"]
    )
    def test_status_on_corrupt_meta_is_processing_error(self, runner, built_index_root, tmp_path, fault):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        if fault == "corpus meta not an object":
            meta = index_root / "corpus" / "1" / "meta.json"
            meta.write_text("[1]", encoding="utf-8")
        else:
            meta = index_root / "kb" / "1" / "meta.json"
            payload = json.loads(meta.read_text(encoding="utf-8"))
            if fault == "kb meta without embedder":
                del payload["embedder"]
            else:
                payload["embedder"] = "remote-embedder-v2"
            meta.write_text(json.dumps(payload), encoding="utf-8")
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert status.exit_code == EXIT_PROCESSING
        assert isinstance(status.exception, SystemExit)
        assert f"error: snapshot file {meta} " in status.output
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for command in ("detect", "audit"):
            result = runner.invoke(main, [command, str(FIXTURES / "safe.sol"), "-c", str(config)])
            assert result.exit_code == EXIT_PROCESSING, command
            assert f"error: snapshot file {meta} " in result.output


def assert_clean_error(result, exit_code: int, *fragments: str) -> None:
    """The command failed through its error path: ``error: ...`` naming every
    fragment, the documented exit code, no traceback."""
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert "error: " in result.output
    for fragment in fragments:
        assert fragment in result.output


def write_corpus_with_missing_source(path: Path) -> Path:
    path.write_text(
        '{"id": "a", "label": "safe", "source": "contract A {}"}\n'
        '{"id": "b", "label": "vulnerable", "source_path": "missing.sol"}\n',
        encoding="utf-8",
    )
    return path


class TestInputFileErrors:
    @pytest.mark.parametrize("command", ["build", "update"])
    def test_missing_corpus_file_is_processing_error(self, runner, tmp_path, command):
        corpus = tmp_path / "nonexistent.jsonl"
        result = runner.invoke(
            main, ["kb", command, "--corpus", str(corpus), "--index-root", str(tmp_path / "idx")]
        )
        assert_clean_error(result, EXIT_PROCESSING, str(corpus))

    @pytest.mark.parametrize("command", ["build", "update"])
    def test_corpus_record_with_missing_source_path_names_file_and_line(self, runner, tmp_path, command):
        corpus = write_corpus_with_missing_source(tmp_path / "corpus.jsonl")
        result = runner.invoke(
            main, ["kb", command, "--corpus", str(corpus), "--index-root", str(tmp_path / "idx")]
        )
        assert_clean_error(result, EXIT_PROCESSING, f"{corpus}:2: ", "missing.sol")
        assert not (tmp_path / "idx" / "corpus" / "CURRENT").exists()

    @pytest.mark.parametrize("command", ["build", "update"])
    @pytest.mark.parametrize("fault", ["not utf-8", "unreadable"])
    def test_unreadable_knowledge_document_names_file(self, runner, tmp_path, command, fault):
        docs = tmp_path / "docs"
        shutil.copytree(FIXTURES / "kb_docs", docs)
        bad = docs / "x.md"
        if fault == "not utf-8":
            bad.write_bytes(b"bad \xff byte")
        else:
            bad.mkdir()  # listed as a document, but reading it fails
        result = runner.invoke(main, ["kb", command, "--docs", str(docs), "--index-root", str(tmp_path / "idx")])
        assert_clean_error(result, EXIT_PROCESSING, f"error: {bad}: ")
        assert not (tmp_path / "idx" / "kb" / "CURRENT").exists()

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_dataset_record_with_missing_source_path_names_file_and_line(self, runner, eval_env, tmp_path, command):
        dataset = write_corpus_with_missing_source(tmp_path / "ds.jsonl")
        result = runner.invoke(main, [command, str(dataset), "-c", str(eval_env["config"])])
        assert_clean_error(result, EXIT_PROCESSING, f"{dataset}:2: ", "missing.sol")

    def test_build_over_corrupt_pointer_is_processing_error(self, runner, tmp_path):
        pointer = tmp_path / "idx" / "corpus" / "CURRENT"
        pointer.parent.mkdir(parents=True)
        pointer.write_text("garbage\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(tmp_path / "idx")],
        )
        assert_clean_error(result, EXIT_PROCESSING, str(pointer))

    def test_status_with_unreadable_snapshot_file_is_processing_error(self, runner, built_index_root, tmp_path):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        postings = index_root / "corpus" / "1" / "postings.bin"
        postings.unlink()
        postings.mkdir()
        result = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert_clean_error(result, EXIT_PROCESSING, str(postings))


class TestSnapshotChecksOnLoad:
    """A snapshot fault is found where the snapshot is read, so every command
    that loads it stops with exit 1 naming the file, before any contract."""

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_bad_idf_value_stops_status_audit_and_eval(self, runner, built_index_root, eval_env, tmp_path, value):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        postings = index_root / "corpus" / "1" / "postings.bin"
        postings.write_bytes(struct.pack("=d", value) + postings.read_bytes()[8:])  # the first term's idf
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
            ["eval", str(eval_env["dataset"]), "-c", str(config)],
        ):
            result = runner.invoke(main, args)
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {postings} is corrupt: idf must be")

    def test_format1_corpus_stops_status_and_audit_until_kb_update(self, runner, built_index_root, tmp_path):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root / "kb", index_root / "kb")
        corpus = build_corpus_index(load_corpus_file(FIXTURES / "corpus.jsonl"))
        meta = reference_corpus_snapshot_v1.publish_v1(index_root / "corpus", corpus) / "meta.json"
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
        ):
            result = runner.invoke(main, args)
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {meta} names format 1", "kb update")
        update = ["kb", "update", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)]
        assert runner.invoke(main, update).output == "corpus: published version 2\n"
        result = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert result.exit_code == 0
        assert "corpus: version 2, 15 documents" in result.output

    @pytest.mark.parametrize("lines", ["one", "every"])
    def test_wrong_embedding_dimension_names_the_line(self, runner, built_index_root, tmp_path, lines):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        chunks = index_root / "kb" / "1" / "chunks.jsonl"
        records = [json.loads(line) for line in chunks.read_text(encoding="utf-8").splitlines()]
        for rec in records if lines == "every" else records[2:3]:
            rec["embedding"].append(0.0)
        chunks.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        where = f"{chunks}:{1 if lines == 'every' else 3}: "
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
        ):
            assert_clean_error(runner.invoke(main, args), EXIT_PROCESSING, where, "256 numbers")


class TestOutputLocations:
    def test_audit_output_dir_that_is_a_file(self, runner, presign_config, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "-o", str(taken)])
        assert_clean_error(result, EXIT_PROCESSING, f"cannot create output directory {taken}")

    def test_eval_out_under_a_file(self, runner, eval_env, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / "x.json"
        result = runner.invoke(main, ["eval", str(eval_env["dataset"]), "-c", str(eval_env["config"]), "--out", str(out)])
        assert_clean_error(result, EXIT_PROCESSING, f"cannot write results to {out}")


class TestEval:
    def test_all_variants_five_rows(self, runner, eval_env, tmp_path):
        out = tmp_path / "results.json"
        result = runner.invoke(
            main,
            [
                "eval", str(eval_env["dataset"]),
                "-c", str(eval_env["config"]),
                "--variants", "W,V,E,w/o Static,w/o RAG",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        table_rows = [
            l for l in result.output.splitlines()
            if l.split() and l.split()[0] in ("weighted", "voting", "enriched", "no-static", "no-rag")
        ]
        assert len(table_rows) == 5
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [r["variant"] for r in payload["results"]] == [
            "weighted", "voting", "enriched", "no-static", "no-rag",
        ]

    def test_unknown_variant_usage_error(self, runner, eval_env):
        result = runner.invoke(
            main,
            ["eval", str(eval_env["dataset"]), "-c", str(eval_env["config"]), "--variants", "Q"],
        )
        assert result.exit_code == 2
        assert "valid names" in result.output

    def test_repeated_invocation_identical_results_file(self, runner, eval_env, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "eval", str(eval_env["dataset"]),
                    "-c", str(eval_env["config"]),
                    "--variants", "W,w/o Static",
                    "--out", str(out),
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dataset_parse_error_nonzero_exit(self, runner, eval_env, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(bad), "-c", str(eval_env["config"])])
        assert result.exit_code == EXIT_PROCESSING


class TestConfigValidationExitCodes:
    def _write_config(self, tmp_path, mutate) -> Path:
        payload = {
            "mode": "weighted",
            "weights": {"model": 0.7, "static": 0.1, "retrieval": 0.2},
            "threshold": 0.5,
            "k": 5,
            "index_root": str(tmp_path / "idx"),
            "output_dir": str(tmp_path / "out"),
            "providers": {
                "detector": {"kind": "mock", "model_id": "a", "transcript": str(TRANSCRIPT)},
                "base": {"kind": "mock", "model_id": "b", "transcript": str(TRANSCRIPT)},
                "fixer": {"kind": "mock", "model_id": "fix", "transcript": str(TRANSCRIPT)},
                "verifier": {"kind": "mock", "model_id": "ver", "transcript": str(TRANSCRIPT)},
            },
        }
        mutate(payload)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        return path

    def test_verifier_equal_fixer_rejected_exit_2(self, runner, tmp_path):
        def mutate(p):
            p["providers"]["verifier"]["model_id"] = "fix"

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2
        assert "different model" in result.output

    def test_weights_not_summing_rejected_exit_2(self, runner, tmp_path):
        def mutate(p):
            p["weights"] = {"model": 0.9, "static": 0.3, "retrieval": 0.2}

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2

    def test_channel_threshold_outside_unit_interval_rejected_exit_2(self, runner, tmp_path):
        def mutate(p):
            p["channel_threshold"] = 7

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2
        assert "channel_threshold must be a number in [0, 1]" in result.output

    def test_int_key_beside_str_keys_rejected_exit_2(self, runner, tmp_path):
        config = self._write_config(tmp_path, lambda p: None)
        config.write_text(config.read_text(encoding="utf-8") + "1: a\nfoo: b\n", encoding="utf-8")
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2
        assert f"error: {config}: unknown configuration key 1" in result.output

    @pytest.mark.parametrize(
        "fields, complaint",
        [
            ("class: [a]", "rule odd: record key class must be a string, got ['a']"),
            ("class: X, descripton: typo", "rule odd: unknown record key 'descripton'"),
        ],
    )
    def test_malformed_rule_record_rejected_exit_2(self, runner, tmp_path, fields, complaint):
        rules = tmp_path / "rules.yaml"
        rules.write_text(
            f"- {{rule_id: odd, {fields}, matcher: {{type: unguarded_token, token: t}}, confidence: 0.5}}\n",
            encoding="utf-8",
        )

        def mutate(p):
            p["ruleset"] = str(rules)

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2
        assert complaint in result.output

    def test_missing_ruleset_file_rejected_exit_2(self, runner, tmp_path):
        def mutate(p):
            p["ruleset"] = str(tmp_path / "no-rules.yaml")

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, str(tmp_path / "no-rules.yaml"))

    @pytest.mark.parametrize(
        "key, mutate",
        [
            ("providers", lambda p: p.update(providers=["x"])),
            ("index_root", lambda p: p.update(index_root=5)),
            ("exchange_log", lambda p: p.update(exchange_log=True)),
            ("transcript", lambda p: p["providers"]["base"].update(transcript=7)),
            ("retry_count", lambda p: p["providers"]["base"].update(retry_count="2")),
            ("timeout_s", lambda p: p["providers"]["base"].update(timeout_s="60")),
        ],
    )
    def test_value_of_the_wrong_type_rejected_exit_2(self, runner, tmp_path, key, mutate):
        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, key)

    @pytest.mark.parametrize("command", ["audit", "detect"])
    def test_rule_missing_a_matcher_parameter_rejected_exit_2(self, runner, tmp_path, command):
        rules = tmp_path / "rules.yaml"
        rules.write_text(
            "- {rule_id: origin, class: X, matcher: {type: token_sequence_in_condition}, confidence: 0.8}\n",
            encoding="utf-8",
        )
        config = self._write_config(tmp_path, lambda p: p.update(ruleset=str(rules)))
        result = runner.invoke(main, [command, str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, "rule origin: ", "sequences")

    @pytest.mark.parametrize("key, value", [("k", 2.5), ("threshold", True)])
    def test_fractional_k_or_boolean_threshold_rejected_exit_2(self, runner, tmp_path, key, value):
        def mutate(p):
            p[key] = value

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, key)

    # each of these used to load, then spend every retry of every call on it
    @pytest.mark.parametrize("endpoint", ["localhost:8080/v1", "ftp://models.example/v1", "http:///v1"])
    def test_endpoint_that_is_not_an_http_url_rejected_exit_2(self, runner, tmp_path, endpoint):
        def mutate(p):
            p["providers"]["base"] = {"kind": "http-endpoint", "model_id": "b", "endpoint": endpoint}

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, f"http provider 'b' endpoint {endpoint!r}")

    def test_zero_k_rejected_exit_2(self, runner, tmp_path):
        def mutate(p):
            p["k"] = 0

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert result.exit_code == 2


class TestCalibrate:
    def test_prints_threshold_and_writes_back(self, runner, eval_env, tmp_path):
        config_copy = tmp_path / "config.yaml"
        config_copy.write_text(Path(eval_env["config"]).read_text(encoding="utf-8"), encoding="utf-8")
        result = runner.invoke(
            main, ["calibrate", str(eval_env["dataset"]), "-c", str(config_copy), "--write"]
        )
        assert result.exit_code == 0, result.output
        assert "calibrated threshold:" in result.output
        updated = yaml.safe_load(config_copy.read_text(encoding="utf-8"))
        printed = float(result.output.split("calibrated threshold:")[1].split()[0])
        assert updated["threshold"] == pytest.approx(printed)

    def test_missing_split_is_usage_error(self, runner, eval_env):
        result = runner.invoke(
            main,
            ["calibrate", str(eval_env["dataset"]), "-c", str(eval_env["config"]), "--split", "nope"],
        )
        assert result.exit_code == 2


class TestHelp:
    @pytest.mark.parametrize(
        "args",
        [["--help"], ["audit", "--help"], ["detect", "--help"], ["kb", "--help"], ["eval", "--help"], ["calibrate", "--help"]],
    )
    def test_every_command_supports_help(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "Usage" in result.output


def test_audit_sequential_jobs_one(runner, presign_config, tmp_path):
    result = runner.invoke(
        main,
        [
            "audit", str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol"),
            "-c", str(presign_config), "--jobs", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "presign.report.md").exists()
    assert (tmp_path / "out" / "safe.report.md").exists()
    assert "patch verification passed: 1/1 patched (1/2 of all processed)" in result.output
