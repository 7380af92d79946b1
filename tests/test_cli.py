from __future__ import annotations

import gc
import json
import re
import shutil
import struct
import sys
from pathlib import Path

import pytest
import yaml

from solguard.agents.config import load_config
from solguard.agents.pipeline import build_context, run_pipeline
from solguard.cli import EXIT_PROCESSING, main
from solguard.core import payload
from solguard.jsonl import load_labeled_records
from solguard.static_analysis.scanner import load_file
from solguard.retrieval.snapshot import CorpusSnapshotStore, SnapshotStore
from solguard.retrieval.tfidf import build_corpus_index
from conftest import write_bytes_named, write_pipeline_config
import presign_fixture
from chat_stub import ChatStub, Reply, closed_port_endpoint
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

    def test_model_spelling_of_a_static_finding_merges_into_one_finding(self, runner, built_index_root, tmp_path):
        # the detector names the static rule's weakness by its SWC id and a call
        responses = presign_fixture.scripted_responses()
        responses["detector"] = json.dumps({"verdict": "vulnerable", "score": 0.9, "findings": [
            {"class": "SWC-107", "function": "refund()", "evidence": "payee.call{value: amount}"}
        ]})
        patched = (FIXTURES / "rules" / "reentrancy_neg.sol").read_text(encoding="utf-8")
        responses["fixer"] = json.dumps({"repaired_source": patched, "rationale": "write before the call"})
        ctx, recorders = presign_fixture.recording_context(responses)
        contract = load_file(FIXTURES / "rules" / "reentrancy_pos.sol", "reentrancy_pos")
        run_pipeline(contract, ctx)
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text("".join(r.dump() for r in recorders.values()), encoding="utf-8")
        exchanges = tmp_path / "exchanges.jsonl"
        config = write_pipeline_config(
            tmp_path / "cfg.yaml", built_index_root, tmp_path / "out", transcript, exchange_log=str(exchanges)
        )
        result = runner.invoke(main, ["audit", str(FIXTURES / "rules" / "reentrancy_pos.sol"), "-c", str(config)])
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "out" / "reentrancy_pos.run.json").read_text(encoding="utf-8"))
        refund = next(fn for fn in contract.view.functions if fn.name == "refund").body_span
        assert [(f["class"], f["location"]) for f in record["findings"]] == [(
            {"name": "Reentrancy", "swc_id": "SWC-107"},
            {"start": refund.start, "end": refund.end, "function": "refund"},
        )]
        report = (tmp_path / "out" / "reentrancy_pos.report.md").read_text(encoding="utf-8")
        assert len(re.findall(r"^\| \d+ \| ", report, re.MULTILINE)) == 1
        roles = [json.loads(line)["role"] for line in exchanges.read_text(encoding="utf-8").splitlines()]
        assert (roles.count("advisor"), roles.count("assessor")) == (1, 1)

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

    def test_failed_detector_with_model_only_weights_still_writes_every_record(self, runner, built_index_root, tmp_path):
        # no other channel has weight to fall back on, so no verdict can be fused
        with ChatStub(lambda request: Reply(body=b"<html>gateway hiccup</html>")) as stub:
            providers = {
                role: {"kind": "http-endpoint", "model_id": f"{role}-model", "endpoint": stub.endpoint}
                for role in ("base", "verifier")
            }
            config = write_pipeline_config(
                tmp_path / "cfg.yaml", built_index_root, tmp_path / "out", TRANSCRIPT, providers=providers,
                weights={"model": 1.0, "static": 0.0, "retrieval": 0.0},
            )
            result = runner.invoke(
                main,
                ["audit", str(FIXTURES / "presign.sol"), str(FIXTURES / "safe.sol"), "-c", str(config), "--jobs", "2"],
            )
        assert result.exit_code == EXIT_PROCESSING, result.output
        assert "processed 2/2 contracts, 0 vulnerable" in result.output
        for name in ("presign", "safe"):
            assert f"{name}: undetermined (report written to {tmp_path / 'out'}; failed stages: detect)" in result.output
            record = json.loads((tmp_path / "out" / f"{name}.run.json").read_text(encoding="utf-8"))
            assert record["verdict"]["verdict"] == "undetermined"
            assert [c["channel"] for c in record["verdict"]["channels"]] == ["static", "retrieval"]
            assert "model channel failed" in record["errors"]["detect"]
            assert (record["stages"], record["findings"], record["patch"]) == (["report"], [], None)
            report = (tmp_path / "out" / f"{name}.report.md").read_text(encoding="utf-8")
            assert "Overall verdict: **undetermined**: detection failed" in report
            assert "Stages with errors: detect" in report

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


@pytest.mark.parametrize("command", ["audit", "detect"])
def test_a_contract_that_cannot_be_lexed_or_segmented_is_one_error_line(runner, presign_config, tmp_path, command):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "open_brace.sol").write_text("contract A {\n    function f() public {\n", encoding="utf-8")
    (batch / "open_string.sol").write_text('contract B { string s = "never closed; }\n', encoding="utf-8")
    shutil.copy(FIXTURES / "presign.sol", batch / "presign.sol")
    result = runner.invoke(main, [command, str(batch), "-c", str(presign_config)])
    assert result.exit_code == EXIT_PROCESSING, result.output
    assert "Traceback" not in result.output
    errors = sorted(l for l in result.stderr.splitlines() if ": error: " in l)
    assert len(errors) == 2, errors
    assert errors[0].startswith("open_brace: error: ") and "unbalanced braces at bytes " in errors[0]
    assert errors[1].startswith("open_string: error: ") and "unterminated string literal at bytes " in errors[1]
    assert result.stdout.startswith("presign: vulnerable ")
    if command == "audit":
        assert "processed 1/3 contracts" in result.stdout
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            f"presign.{kind}" for kind in ("report.json", "report.md", "run.json")
        ]


def test_contract_file_name_that_is_not_utf8_gives_a_text_id(runner, presign_config, tmp_path):
    # the byte \xff of the name is written as the four characters \xff; as a
    # surrogate it aborted the batch while its report was written, with no summary
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(FIXTURES / "presign.sol", batch / "presign.sol")
    write_bytes_named(batch, b"bad\xff.sol", (FIXTURES / "presign.sol").read_bytes())
    result = runner.invoke(main, ["audit", str(batch), "-c", str(presign_config), "--jobs", "1"])
    assert result.exit_code == 0, result.output
    assert "bad\\xff: vulnerable" in result.stdout
    assert "processed 2/2 contracts, 2 vulnerable" in result.stdout
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == [
        f"{cid}.{kind}" for cid in ("bad\\xff", "presign") for kind in ("report.json", "report.md", "run.json")
    ]


def test_load_file_gives_a_name_that_is_not_utf8_the_id_that_audit_gives(runner, presign_config, tmp_path):
    # load_file once named a contract by its file's stem, so \xff became a
    # lone surrogate that neither its run record nor its report could encode
    path = write_bytes_named(tmp_path, b"bad\xff.sol", (FIXTURES / "presign.sol").read_bytes())
    contract = load_file(path)
    assert contract.id == "bad\\xff"
    run = run_pipeline(contract, build_context(load_config(presign_config)))
    library = tmp_path / "library"
    library.mkdir()
    (library / "run.json").write_text(json.dumps(payload(run), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    (library / "report.md").write_text(run.report.to_markdown(), encoding="utf-8")
    result = runner.invoke(main, ["audit", str(path), "-c", str(presign_config)])
    assert result.exit_code == 0, result.output
    for name in ("run.json", "report.md"):
        assert (library / name).read_bytes() == (tmp_path / "out" / f"bad\\xff.{name}").read_bytes()


class TestDetect:
    def test_safe_fixture_prints_three_channel_rows(self, runner, presign_config):
        result = runner.invoke(main, ["detect", str(FIXTURES / "safe.sol"), "-c", str(presign_config)])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("safe: safe 0.0")
        channel_lines = [l for l in lines[1:4]]
        assert [l.split()[0] for l in channel_lines] == ["static", "retrieval", "model"]

    def test_all_vulnerable_neighbors_at_any_k(self, runner, tmp_path):
        # at k = 14 the rank weights of 14 vulnerable neighbors sum to
        # 1.0000000000000002, which used to abort the command
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"v{i:02d}", "label": "vulnerable", "classes": ["Unprotected Function"],
                        "source": f"contract V{i} {{ function preSign() external {{}} }}"}) + "\n"
            for i in range(16)
        ), encoding="utf-8")
        index_root = tmp_path / "index"
        built = runner.invoke(main, ["kb", "build", "--corpus", str(corpus), "--docs", str(FIXTURES / "kb_docs"),
                                     "--index-root", str(index_root)])
        assert built.exit_code == 0, built.output
        config = write_pipeline_config(
            tmp_path / "config.yaml", index_root, tmp_path / "out", FIXTURES / "presign_transcript.jsonl"
        )
        for k in ("13", "14"):
            result = runner.invoke(main, ["detect", str(FIXTURES / "presign.sol"), "-c", str(config), "--k", k])
            assert result.exit_code == 0, (k, result.output)
            assert "presign: vulnerable" in result.output
            assert re.search(r"retrieval +vulnerable +1\.00", result.output), result.output

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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_restores_the_callers_collector(self, runner, tmp_path, enabled):
        # the build pauses cyclic garbage collection; a caller that had
        # paused it keeps it paused, whether the build publishes or fails
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "label": "meh", "source": "contract A {}"}\n', encoding="utf-8")
        faulty = ["kb", "build", "--corpus", str(corpus), "--index-root", str(tmp_path / "idx")]
        publishing = ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(tmp_path / "idx")]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert runner.invoke(main, faulty).exit_code == EXIT_PROCESSING
            assert gc.isenabled() is enabled
            assert runner.invoke(main, publishing).exit_code == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

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

    def test_status_prints_the_version_and_counts_of_one_snapshot(self, runner, tmp_path, monkeypatch):
        # an update landing between two reads of CURRENT paired version 1's
        # number with version 2's document count
        index_root = tmp_path / "idx"
        build = ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)]
        assert runner.invoke(main, build).exit_code == 0
        read, landed = SnapshotStore.current_version, []

        def read_then_publish(store):
            version = read(store)
            if store.kind == "corpus" and not landed:
                landed.append(True)
                rows = load_labeled_records(FIXTURES / "corpus.jsonl")[:3]
                CorpusSnapshotStore(store.root).publish(build_corpus_index(rows))
            return version

        monkeypatch.setattr(SnapshotStore, "current_version", read_then_publish)
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert status.exit_code == 0, status.output
        assert landed and read(CorpusSnapshotStore(index_root / "corpus")) == 2
        assert "corpus: version 1, 15 documents" in status.output

    def test_audit_without_a_corpus_snapshot_is_processing_error(self, runner, tmp_path):
        index_root = tmp_path / "idx"
        build = ["kb", "build", "--docs", str(FIXTURES / "kb_docs"), "--index-root", str(index_root)]
        assert runner.invoke(main, build).exit_code == 0
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, EXIT_PROCESSING, f"error: no snapshot published under {index_root / 'corpus'}\n")

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

    def test_a_failed_pointer_swap_is_an_error_naming_the_pointer(self, runner, tmp_path):
        # a directory in the way of the pointer's temporary file used to end
        # the update in an IsADirectoryError traceback
        index_root = tmp_path / "idx"
        build = ["kb", "build", "--docs", str(FIXTURES / "kb_docs"), "--index-root", str(index_root)]
        assert runner.invoke(main, build).exit_code == 0
        (index_root / "kb" / "CURRENT.tmp").mkdir()
        update = ["kb", "update", "--docs", str(FIXTURES / "kb_docs"), "--index-root", str(index_root)]
        result = runner.invoke(main, update)
        assert_clean_error(result, EXIT_PROCESSING, f"error: cannot point {index_root / 'kb' / 'CURRENT'} at version 2")
        assert (index_root / "kb" / "CURRENT").read_text(encoding="utf-8") == "1\n"
        status = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert "kb: version 1, 6 documents" in status.output

    @pytest.mark.parametrize("command", ["build", "update"])
    def test_a_failed_build_publishes_none_of_the_sources_given(self, runner, tmp_path, command):
        # a good corpus with missing docs used to publish the corpus, print
        # only the error, and leave a retried build refused as already there
        index_root = tmp_path / "idx"
        both = ["--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(index_root)]
        if command == "update":
            assert runner.invoke(main, ["kb", "build", *both, "--docs", str(FIXTURES / "kb_docs")]).exit_code == 0
        pointers = [index_root / kind / "CURRENT" for kind in ("corpus", "kb")]
        before = [p.read_bytes() if p.exists() else None for p in pointers]
        missing = tmp_path / "missing"
        result = runner.invoke(main, ["kb", command, *both, "--docs", str(missing)])
        assert_clean_error(result, EXIT_PROCESSING, f"error: knowledge base source {missing} is not a directory")
        assert "published" not in result.output
        assert [p.read_bytes() if p.exists() else None for p in pointers] == before
        if command == "build":
            retry = runner.invoke(main, ["kb", "build", *both, "--docs", str(FIXTURES / "kb_docs")])
            assert (retry.exit_code, retry.output) == (0, "corpus: published version 1\nkb: published version 1\n")

    def test_build_without_sources_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["kb", "build", "--index-root", str(tmp_path / "idx")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fault", ["corpus meta not an object", "kb meta without its digests"])
    def test_status_on_corrupt_meta_is_processing_error(self, runner, built_index_root, tmp_path, fault):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        if fault == "corpus meta not an object":
            meta = index_root / "corpus" / "1" / "meta.json"
            meta.write_text("[1]", encoding="utf-8")
        else:
            meta = index_root / "kb" / "1" / "meta.json"
            payload = json.loads(meta.read_text(encoding="utf-8"))
            del payload["sha256"]
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
        assert_clean_error(result, EXIT_PROCESSING, f"error: cannot read knowledge document {bad}: ")
        assert not (tmp_path / "idx" / "kb" / "CURRENT").exists()

    @pytest.mark.parametrize("command", ["build", "update"])
    @pytest.mark.parametrize("body", ["", "\n  \n"], ids=["empty", "blank"])
    def test_knowledge_document_without_text_names_file(self, runner, tmp_path, command, body):
        # its tags would reach no chunk, so it would drop out of retrieval without a word
        docs = tmp_path / "docs"
        shutil.copytree(FIXTURES / "kb_docs", docs)
        empty = docs / "empty.md"
        empty.write_text(f"---\nswc_tags: [SWC-999]\n---\n{body}", encoding="utf-8")
        result = runner.invoke(main, ["kb", command, "--docs", str(docs), "--index-root", str(tmp_path / "idx")])
        assert_clean_error(result, EXIT_PROCESSING, f"error: {empty}: knowledge document holds no text")
        assert not (tmp_path / "idx" / "kb" / "CURRENT").exists()

    @pytest.mark.parametrize("command", ["build", "update"])
    def test_docs_directory_without_a_document_names_it(self, runner, tmp_path, command):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "notes.rst").write_text("not a knowledge document\n", encoding="utf-8")
        result = runner.invoke(main, ["kb", command, "--docs", str(docs), "--index-root", str(tmp_path / "idx")])
        assert_clean_error(result, EXIT_PROCESSING, f"error: knowledge base source {docs} holds no .md or .txt document")
        assert not (tmp_path / "idx" / "kb" / "CURRENT").exists()

    @pytest.mark.parametrize("value", ["2024-05-01", "{1: one}", ".nan"])
    def test_knowledge_document_preamble_value_that_is_not_json_is_stripped(self, runner, tmp_path, value):
        docs = tmp_path / "docs"
        shutil.copytree(FIXTURES / "kb_docs", docs)
        (docs / "x.md").write_text(f"---\nupdated: {value}\n---\nbody\n", encoding="utf-8")
        index_root = tmp_path / "idx"
        result = runner.invoke(main, ["kb", "build", "--docs", str(docs), "--index-root", str(index_root)])
        assert result.exit_code == 0, result.output
        lines = (index_root / "kb" / "1" / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
        assert {"chunk_index": 0, "doc_id": "x", "swc_tags": [], "text": "body"} in [json.loads(line) for line in lines]
        result = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert result.exit_code == 0
        assert "kb: version 1, 7 documents, 7 chunks" in result.output

    def test_knowledge_documents_sharing_a_stem_name_both_files(self, runner, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("alpha words\n", encoding="utf-8")
        (docs / "a.txt").write_text("beta words\n", encoding="utf-8")
        result = runner.invoke(main, ["kb", "build", "--docs", str(docs), "--index-root", str(tmp_path / "idx")])
        assert_clean_error(result, EXIT_PROCESSING, str(docs / "a.md"), str(docs / "a.txt"), "duplicate document id 'a'")
        assert not (tmp_path / "idx").exists()

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
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {postings} is corrupt: its sha256 is ")

    @pytest.mark.parametrize("name", [
        "corpus/1/terms.json", "corpus/1/documents.json", "corpus/1/postings.bin", "kb/1/chunks.jsonl",
    ])
    def test_flipped_byte_of_a_data_file_stops_status_audit_and_eval(
        self, runner, built_index_root, eval_env, tmp_path, name
    ):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        path = index_root / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(data)
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
            ["eval", str(eval_env["dataset"]), "-c", str(config)],
        ):
            result = runner.invoke(main, args)
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {path} is corrupt: its sha256 is ")

    def test_format1_corpus_stops_status_and_audit_until_kb_update(self, runner, built_index_root, tmp_path):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root / "kb", index_root / "kb")
        corpus = build_corpus_index(load_labeled_records(FIXTURES / "corpus.jsonl"))
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
    def test_chunk_line_carrying_an_embedding_fails_the_digest(self, runner, built_index_root, tmp_path, lines):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        chunks = index_root / "kb" / "1" / "chunks.jsonl"
        records = [json.loads(line) for line in chunks.read_text(encoding="utf-8").splitlines()]
        for rec in records if lines == "every" else records[2:3]:
            rec["embedding"] = [0.0] * 256  # a format-1 line: later formats embed the text on load
        chunks.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
        ):
            result = runner.invoke(main, args)
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {chunks} is corrupt: its sha256 is ")

    def test_format1_kb_stops_status_and_audit_until_kb_update(self, runner, built_index_root, tmp_path):
        index_root = tmp_path / "idx"
        shutil.copytree(built_index_root, index_root)
        meta = index_root / "kb" / "1" / "meta.json"
        payload = json.loads(meta.read_text(encoding="utf-8"))
        del payload["format_version"]  # format 1 named no format, but its embedder
        meta.write_text(json.dumps({**payload, "embedder": "hash-bow-256-v1"}), encoding="utf-8")
        config = write_pipeline_config(tmp_path / "cfg.yaml", index_root, tmp_path / "out", TRANSCRIPT)
        for args in (
            ["kb", "status", "--index-root", str(index_root)],
            ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)],
        ):
            result = runner.invoke(main, args)
            assert_clean_error(result, EXIT_PROCESSING, f"error: snapshot file {meta} names format 1, not 4",
                               "solguard kb update --docs <dir>")
        update = ["kb", "update", "--docs", str(FIXTURES / "kb_docs"), "--index-root", str(index_root)]
        assert runner.invoke(main, update).output == "kb: published version 2\n"
        result = runner.invoke(main, ["kb", "status", "--index-root", str(index_root)])
        assert result.exit_code == 0
        assert "kb: version 2, 6 documents, 6 chunks" in result.output


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
    def test_split_keeps_only_its_rows(self, runner, eval_env, tmp_path):
        # a row of another split is left out, so its missing reply counts nowhere
        dataset, out = tmp_path / "ds.jsonl", tmp_path / "results.json"
        extra = {"id": "zz-test", "label": "safe", "split": "test", "source": "contract T { uint x; }"}
        dataset.write_text(Path(eval_env["dataset"]).read_text(encoding="utf-8") + json.dumps(extra) + "\n", encoding="utf-8")
        args = ["eval", str(dataset), "-c", str(eval_env["config"]), "--out", str(out)]
        result = runner.invoke(main, args + ["--split", "validation"])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text(encoding="utf-8"))["results"][0]["evaluated"] == 40
        result = runner.invoke(main, args)
        assert_clean_error(result, EXIT_PROCESSING, "error: 1 of 41 contracts failed detection")

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

    def test_empty_variant_list_is_usage_error_before_any_channel_runs(self, runner, eval_env, tmp_path, monkeypatch):
        import solguard.evaluation
        from solguard.llm.mock import MockProvider

        calls: list[str] = []
        run_channels, complete = solguard.evaluation.run_channels, MockProvider.complete
        monkeypatch.setattr(solguard.evaluation, "run_channels", lambda *a: calls.append("channels") or run_channels(*a))
        monkeypatch.setattr(MockProvider, "complete", lambda *a, **kw: calls.append("model") or complete(*a, **kw))
        out = tmp_path / "results.json"
        result = runner.invoke(
            main, ["eval", str(eval_env["dataset"]), "-c", str(eval_env["config"]), "--variants", ",", "--out", str(out)]
        )
        assert_clean_error(result, 2, "error: no variants requested")
        assert not out.exists()
        assert calls == []

    def test_ablation_that_leaves_no_weight_is_usage_error(self, runner, eval_env, tmp_path):
        payload = yaml.safe_load(Path(eval_env["config"]).read_text(encoding="utf-8"))
        payload["weights"] = {"model": 0.0, "static": 1.0, "retrieval": 0.0}
        config = tmp_path / "static-only.yaml"
        config.write_text(yaml.safe_dump(payload), encoding="utf-8")
        out = tmp_path / "results.json"
        result = runner.invoke(
            main, ["eval", str(eval_env["dataset"]), "-c", str(config), "--variants", "no-static", "--out", str(out)]
        )
        assert_clean_error(result, 2, "error: cannot drop static: no weight would remain")
        assert not out.exists()

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

    def test_a_role_without_a_provider_rejected_exit_2_naming_it(self, runner, built_index_root, tmp_path):
        def mutate(p):
            p["index_root"] = str(built_index_root)
            del p["providers"]["base"], p["providers"]["verifier"]
            for role in ("advisor", "assessor"):
                p["providers"][role] = {"kind": "mock", "model_id": role, "transcript": str(TRANSCRIPT)}

        config = self._write_config(tmp_path, mutate)
        result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(config)])
        assert_clean_error(result, 2, "no provider configured for role 'verifier'")
        assert not (tmp_path / "out").exists()

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
        assert_clean_error(result, 2, f"{config}: base provider key endpoint must be ", repr(endpoint))

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


class TestDetectionFailures:
    """A contract that fails detection makes eval and calibrate exit 1 with
    the count, so a provider outage cannot pass a gate on their figures."""

    def with_unscripted_contract(self, eval_env, tmp_path) -> Path:
        dataset = tmp_path / "ds.jsonl"
        extra = {
            "id": "zz-unscripted",
            "label": "vulnerable",
            "split": "validation",
            "source": "pragma solidity ^0.8.0;\ncontract Mystery { function x() external view returns (uint256) { return 1; } }",
        }
        dataset.write_text(Path(eval_env["dataset"]).read_text(encoding="utf-8") + json.dumps(extra) + "\n", encoding="utf-8")
        return dataset

    def with_detector_down(self, eval_env, tmp_path) -> Path:
        """The eval config with its detector at a loopback port nothing listens on."""
        payload = yaml.safe_load(Path(eval_env["config"]).read_text(encoding="utf-8"))
        payload["providers"]["detector"] = {
            "kind": "http-endpoint", "model_id": "down", "endpoint": closed_port_endpoint(), "retry_count": 0,
        }
        config = tmp_path / "down.yaml"
        config.write_text(yaml.safe_dump(payload), encoding="utf-8")
        return config

    def test_eval_writes_results_then_exits_1(self, runner, eval_env, tmp_path):
        out = tmp_path / "results.json"
        dataset = self.with_unscripted_contract(eval_env, tmp_path)
        result = runner.invoke(main, ["eval", str(dataset), "-c", str(eval_env["config"]), "--out", str(out)])
        assert_clean_error(result, EXIT_PROCESSING, "error: 1 of 41 contracts failed detection")
        assert "weighted" in result.output
        assert f"results written to {out}" in result.output
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert (results[0]["failures"], results[0]["evaluated"]) == (1, 40)

    def test_eval_excludes_and_counts_a_source_with_a_lone_surrogate(self, runner, eval_env, tmp_path):
        # the JSON escape "\ud800" decodes to a lone surrogate, which has no
        # UTF-8 bytes; it used to end the command with a UnicodeEncodeError
        dataset, out = tmp_path / "ds.jsonl", tmp_path / "results.json"
        extra = {"id": "zz-surrogate", "label": "safe", "source": "contract S { uint x; \ud800 }"}
        dataset.write_text(Path(eval_env["dataset"]).read_text(encoding="utf-8") + json.dumps(extra) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["eval", str(dataset), "-c", str(eval_env["config"]), "--out", str(out)])
        assert_clean_error(result, EXIT_PROCESSING, "error: 1 of 41 contracts failed detection")
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert (results[0]["failures"], results[0]["evaluated"]) == (1, 40)

    def test_eval_with_every_contract_failing_exits_1(self, runner, eval_env, tmp_path):
        out = tmp_path / "results.json"
        config = self.with_detector_down(eval_env, tmp_path)
        result = runner.invoke(main, ["eval", str(eval_env["dataset"]), "-c", str(config), "--out", str(out)])
        assert_clean_error(result, EXIT_PROCESSING, "error: 40 of 40 contracts failed detection")
        assert json.loads(out.read_text(encoding="utf-8"))["results"][0]["evaluated"] == 0

    @pytest.mark.parametrize("fault", ["unscripted", "detector down"])
    def test_calibrate_exits_1_and_writes_nothing(self, runner, eval_env, tmp_path, fault):
        if fault == "unscripted":
            dataset, expected = self.with_unscripted_contract(eval_env, tmp_path), "1 of 41"
            config = tmp_path / "config.yaml"
            config.write_bytes(Path(eval_env["config"]).read_bytes())
        else:
            dataset, config, expected = eval_env["dataset"], self.with_detector_down(eval_env, tmp_path), "40 of 40"
        before = config.read_bytes()
        result = runner.invoke(main, ["calibrate", str(dataset), "-c", str(config), "--write"])
        assert_clean_error(result, EXIT_PROCESSING, f"error: {expected} contracts failed detection")
        assert "calibrated threshold:" not in result.output
        assert config.read_bytes() == before


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_audit_jobs_below_one_is_usage_error(runner, presign_config, tmp_path, jobs):
    result = runner.invoke(main, ["audit", str(FIXTURES / "presign.sol"), "-c", str(presign_config), "--jobs", jobs])
    assert result.exit_code == 2
    assert "--jobs" in result.output
    assert not (tmp_path / "out").exists()


# --- every input fault names its file ----------------------------------------


def _detect(config: Path, *extra: str) -> list[str]:
    return ["detect", str(FIXTURES / "presign.sol"), "-c", str(config), *extra]


def _edited(mutate):
    """The fault is an edit of the (otherwise valid) config file."""

    def write(tmp_path: Path, config: Path) -> tuple[list[str], str]:
        payload = yaml.safe_load(config.read_text(encoding="utf-8"))
        mutate(payload)
        config.write_text(yaml.safe_dump(payload), encoding="utf-8")
        return _detect(config), str(config)

    return write


def _detector(**entry):
    return _edited(lambda p: p["providers"].update(detector={"model_id": "detector-sim", **entry}))


def _config_file(make):
    """The config file is one that ``make`` leaves at its path."""

    def write(tmp_path: Path, config: Path) -> tuple[list[str], str]:
        bad = tmp_path / "bad.yaml"
        make(bad)
        return _detect(bad), str(bad)

    return write


def _rule_file(text: str):
    def write(tmp_path: Path, config: Path) -> tuple[list[str], str]:
        rules = tmp_path / "rules.yaml"
        rules.write_text(text, encoding="utf-8")
        args, _ = _edited(lambda p: p.update(ruleset=str(rules)))(tmp_path, config)
        return args, str(rules)

    return write


def _weights_option(tmp_path: Path, config: Path) -> tuple[list[str], str]:
    return _detect(config, "--weights", "0.4,0.1,0.2"), "command line"


def _contract(tmp_path: Path, config: Path) -> tuple[list[str], str]:
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"contract C { // caf\xe9\n}\n")
    return ["detect", str(bad), "-c", str(config)], str(bad)


def _knowledge_document(content: bytes):
    def write(tmp_path: Path, config: Path) -> tuple[list[str], str]:
        docs = tmp_path / "docs"
        shutil.copytree(FIXTURES / "kb_docs", docs)
        (docs / "x.md").write_bytes(content)
        return ["kb", "build", "--docs", str(docs), "--index-root", str(tmp_path / "idx")], str(docs / "x.md")

    return write


def _labeled_records(command: str, **record: object):
    """A corpus (``kb build``) or dataset (``eval``) file of one labelled record
    with the fields ``record`` sets; JSON writes a lone surrogate as an escape."""

    def write(tmp_path: Path, config: Path) -> tuple[list[str], str]:
        path = tmp_path / "records.jsonl"
        line = json.dumps({"id": "a", "label": "safe", "source": "contract A {}", **record})
        path.write_text(line + "\n", encoding="utf-8")
        if command == "kb build":
            return ["kb", "build", "--corpus", str(path), "--index-root", str(tmp_path / "idx")], f"{path}:1: "
        return [command, str(path), "-c", str(config)], f"{path}:1: "

    return write


# YAML values PyYAML refuses with a ValueError or a RecursionError, not a YAMLError
HUGE, DEEP = "1" * 5001, "[" * 5000 + "]" * 5000
DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")


INPUT_FAULTS = [
    pytest.param(_config_file(lambda path: None), 2, ["cannot read configuration"], id="config-missing"),
    pytest.param(_config_file(Path.mkdir), 2, ["cannot read configuration"], id="config-directory"),
    pytest.param(
        _config_file(lambda path: path.write_bytes(b"k: 5  # caf\xe9\n")), 2, ["cannot read configuration", "utf-8"],
        id="config-not-utf-8",
    ),
    pytest.param(_detector(kind="mockk"), 2, ["detector provider key kind", "'mockk'"], id="provider-kind"),
    pytest.param(
        _detector(kind="http-endpoint", endpoint="localhost:8080/v1"), 2,
        ["detector provider key endpoint", "'localhost:8080/v1'"], id="provider-endpoint",
    ),
    pytest.param(_detector(kind="mock"), 2, ["detector: ", "transcript"], id="mock-without-transcript"),
    pytest.param(
        _edited(lambda p: p.update(weights={"model": 0.4, "static": 0.1, "retrieval": 0.2})), 2,
        ["weights must sum to 1"], id="weights-in-file",
    ),
    pytest.param(_weights_option, 2, ["weights must sum to 1"], id="weights-option"),
    pytest.param(
        _edited(lambda p: p["providers"].update(fixer={**p["providers"]["verifier"], "model_id": "verifier-sim"})), 2,
        ["verifier must use a different model than the fixer"], id="fixer-is-verifier",
    ),
    pytest.param(
        _config_file(lambda path: path.write_text(f"threshold: {HUGE}\n", encoding="utf-8")), 2, ["not valid YAML"],
        id="config-5001-digits", marks=DIGIT_LIMIT,
    ),
    pytest.param(
        _config_file(lambda path: path.write_text(f"threshold: {DEEP}\n", encoding="utf-8")), 2, ["not valid YAML"],
        id="config-5000-deep",
    ),
    pytest.param(_rule_file("- {rule_id: [\n"), 2, ["not valid YAML"], id="rules-bad-yaml"),
    pytest.param(
        _rule_file(f"- {{rule_id: r, class: X, matcher: {{type: unguarded_token, token: x}}, confidence: {HUGE}}}\n"),
        2, ["not valid YAML"], id="rules-5001-digits", marks=DIGIT_LIMIT,
    ),
    pytest.param(
        _rule_file(f"- {{rule_id: r, class: X, matcher: {{type: unguarded_token, token: x}}, confidence: {DEEP}}}\n"),
        2, ["not valid YAML"], id="rules-5000-deep",
    ),
    pytest.param(
        _rule_file("- {rule_id: r, class: X, matcher: {type: nope}, confidence: 0.5}\n"), 2,
        ["rule r: ", "matcher type 'nope'"], id="rules-bad-record",
    ),
    pytest.param(_contract, EXIT_PROCESSING, ["cannot read contract", "utf-8"], id="contract-not-utf-8"),
    # a lone surrogate in a name that prompts, reports or run records carry
    pytest.param(
        _detector(kind="mock", model_id="detector-\ud800", transcript=str(TRANSCRIPT)), 2,
        ["model_id 'detector-\\ud800' holds a lone surrogate"], id="provider-model-id-surrogate",
    ),
    pytest.param(
        _rule_file('- {rule_id: r, class: "X\\ud800", matcher: {type: unguarded_token, token: x}, confidence: 0.5}\n'),
        2, ["class 'X\\ud800' holds a lone surrogate"], id="rules-class-surrogate",
    ),
    pytest.param(
        _labeled_records("kb build", classes=["Bad\ud800Class"]), EXIT_PROCESSING,
        ["classes 'Bad\\ud800Class' holds a lone surrogate"], id="corpus-class-surrogate",
    ),
    pytest.param(
        _labeled_records("eval", id="a\ud800"), EXIT_PROCESSING, ["id 'a\\ud800' holds a lone surrogate"],
        id="dataset-id-surrogate",
    ),
    pytest.param(
        _knowledge_document(b"caf\xe9\n"), EXIT_PROCESSING, ["cannot read knowledge document", "utf-8"],
        id="knowledge-document-not-utf-8",
    ),
    pytest.param(
        _knowledge_document(f"---\nsource: {HUGE}\n---\nbody\n".encode()), EXIT_PROCESSING, ["bad metadata preamble"],
        id="knowledge-preamble-5001-digits", marks=DIGIT_LIMIT,
    ),
    pytest.param(
        _knowledge_document(f"---\nswc_tags: {DEEP}\n---\nbody\n".encode()), EXIT_PROCESSING, ["bad metadata preamble"],
        id="knowledge-preamble-5000-deep",
    ),
]


@pytest.mark.parametrize("case, exit_code, fragments", INPUT_FAULTS)
def test_input_fault_names_its_file(runner, presign_config, tmp_path, case, exit_code, fragments):
    args, named = case(tmp_path, presign_config)
    result = runner.invoke(main, args)
    assert_clean_error(result, exit_code, named, *fragments)


def test_index_root_that_cannot_be_created_is_processing_error(runner, tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    root = tmp_path / "idx"
    result = runner.invoke(
        main, ["kb", "build", "--corpus", str(FIXTURES / "corpus.jsonl"), "--index-root", str(root)]
    )
    monkeypatch.undo()
    # the store's directory is made first, for its publish lock
    assert_clean_error(result, EXIT_PROCESSING, f"cannot lock {root / 'corpus' / 'CURRENT.lock'}: ", "Permission denied")
    assert not (root / "corpus" / "CURRENT").exists()


def test_calibrate_write_that_fails_is_processing_error(runner, eval_env, tmp_path, monkeypatch):
    config = tmp_path / "config.yaml"
    config.write_text(Path(eval_env["config"]).read_text(encoding="utf-8"), encoding="utf-8")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    result = runner.invoke(main, ["calibrate", str(eval_env["dataset"]), "-c", str(config), "--write"])
    monkeypatch.undo()
    assert_clean_error(result, EXIT_PROCESSING, f"cannot write threshold to {config}: ", "Permission denied")
    assert "calibrated threshold:" in result.output
