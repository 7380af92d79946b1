from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solguard.errors import (
    ConfigError,
    ExtractionError,
    SchemaError,
    TranscriptError,
    TransportError,
)
from solguard.llm.mock import MockProvider, TranscriptRecorder, prompt_fingerprint
from solguard.llm.provider import ChatExchange, HttpProvider, ProviderConfig
from solguard.llm.structured import DETECTOR_SCHEMA, StructuredSchema, extract_structured
from solguard.llm.template import PromptTemplate, TemplateError, render_prompt
from solguard.llm.prompts import DETECTOR_TEMPLATE
from solguard.agents.detect import ask_structured
import reference_reply_reader


class TestRenderPrompt:
    def test_code_binding_appears_exactly_once(self):
        rendered = render_prompt(DETECTOR_TEMPLATE, {"code": "contract A {}"})
        assert rendered.count("contract A {}") == 1

    def test_four_sections_in_canonical_order(self):
        rendered = render_prompt(DETECTOR_TEMPLATE, {"code": "contract A {}"})
        positions = [rendered.index(h) for h in ("## Role", "## Task", "## Expected Output", "## Background Information")]
        assert positions == sorted(positions)

    def test_template_without_placeholders_is_identity_on_body(self):
        template = PromptTemplate(
            name="t", role_playing="r", task_description="t", expected_output="e",
            background_information="b", body="fixed body, no slots",
        )
        rendered = render_prompt(template, {})
        assert rendered.endswith("fixed body, no slots")

    def test_missing_binding_names_the_placeholder(self):
        with pytest.raises(TemplateError, match="unbound placeholder: code"):
            render_prompt(DETECTOR_TEMPLATE, {})

    def test_literal_json_braces_survive(self):
        rendered = render_prompt(DETECTOR_TEMPLATE, {"code": "x"})
        assert '"verdict": "safe" | "vulnerable"' in rendered

    def test_injective_in_code(self):
        a = render_prompt(DETECTOR_TEMPLATE, {"code": "contract A {}"})
        b = render_prompt(DETECTOR_TEMPLATE, {"code": "contract B {}"})
        assert a != b


class TestFingerprint:
    def test_whitespace_runs_collapse(self):
        assert prompt_fingerprint("a  b\n\tc") == prompt_fingerprint("a b c")

    def test_distinct_prompts_distinct_fingerprints(self):
        assert prompt_fingerprint("alpha") != prompt_fingerprint("beta")

    def test_stable_hex_length(self):
        fp = prompt_fingerprint("anything")
        assert len(fp) == 16
        int(fp, 16)


class TestMockProvider:
    def _provider(self, tmp_path, entries) -> MockProvider:
        path = tmp_path / "transcript.jsonl"
        path.write_text(
            "\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n", encoding="utf-8"
        )
        cfg = ProviderConfig(kind="mock", model_id="m", transcript=str(path))
        return MockProvider(cfg)

    def test_scripted_response_byte_exact(self, tmp_path):
        response = '{"verdict": "vulnerable", "score": 0.9, "findings": []}'
        provider = self._provider(
            tmp_path,
            [{"role": "detector", "fingerprint": prompt_fingerprint("hello  world"), "response": response}],
        )
        exchange = provider.complete("hello world", role="detector")
        assert exchange.response == response

    def test_unknown_key_sentinel(self, tmp_path):
        provider = self._provider(tmp_path, [])
        assert provider.complete("anything", role="detector").response == "UNKNOWN"

    def test_same_prompt_twice_identical(self, tmp_path):
        provider = self._provider(
            tmp_path,
            [{"role": "detector", "fingerprint": prompt_fingerprint("p"), "response": "r"}],
        )
        first = provider.complete("p", role="detector")
        second = provider.complete("p", role="detector")
        assert first.response == second.response == "r"

    def test_role_scopes_the_lookup(self, tmp_path):
        provider = self._provider(
            tmp_path,
            [{"role": "fixer", "fingerprint": prompt_fingerprint("p"), "response": "fix it"}],
        )
        assert provider.complete("p", role="fixer").response == "fix it"
        assert provider.complete("p", role="detector").response == "UNKNOWN"

    def test_malformed_transcript_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"role": "detector"}\n', encoding="utf-8")
        with pytest.raises(TranscriptError, match="malformed"):
            MockProvider(ProviderConfig(kind="mock", model_id="m", transcript=str(path)))

    def test_missing_transcript_path_rejected_at_config(self):
        with pytest.raises(ConfigError, match="transcript"):
            ProviderConfig(kind="mock", model_id="m")

    def test_recorder_round_trip(self, tmp_path):
        recorder = TranscriptRecorder(lambda role, prompt: f"answer for {role}")
        recorder.complete("some prompt", role="detector")
        path = tmp_path / "rec.jsonl"
        recorder.write(path)
        provider = MockProvider(ProviderConfig(kind="mock", model_id="m", transcript=str(path)))
        assert provider.complete("some  prompt", role="detector").response == "answer for detector"


class TestExtractStructured:
    def test_object_amid_prose(self):
        response = 'Sure! Here is my analysis: {"verdict":"vulnerable","score":0.9,"findings":[]} Hope it helps.'
        record = extract_structured(response, DETECTOR_SCHEMA)
        assert record == {"verdict": "vulnerable", "score": 0.9, "findings": []}

    def test_pure_prose_raises_extraction_error(self):
        with pytest.raises(ExtractionError):
            extract_structured("no structure here at all", DETECTOR_SCHEMA)

    def test_missing_field_names_it(self):
        with pytest.raises(SchemaError, match="score") as err:
            extract_structured('{"verdict": "safe", "findings": []}', DETECTOR_SCHEMA)
        assert err.value.field == "score"

    def test_error_carries_raw_text_unmutated(self):
        raw = "  weird   response\nwith lines  "
        with pytest.raises(ExtractionError) as err:
            extract_structured(raw, DETECTOR_SCHEMA)
        assert err.value.raw_text == raw

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError, match="wrong type"):
            extract_structured('{"verdict": "safe", "score": "high", "findings": []}', DETECTOR_SCHEMA)

    def test_first_well_formed_object_wins(self):
        schema = StructuredSchema("t", {"a": (int,)})
        record = extract_structured('{not json} then {"a": 1} then {"a": 2}', schema)
        assert record == {"a": 1}

    def test_braces_inside_strings_handled(self):
        schema = StructuredSchema("t", {"code": (str,)})
        record = extract_structured('{"code": "contract C { uint x; }"}', schema)
        assert record["code"] == "contract C { uint x; }"

    def test_object_after_a_brace_that_never_closes(self):
        response = 'Looking at { the code: {"verdict": "safe", "score": 0.1, "findings": []}'
        record = extract_structured(response, DETECTOR_SCHEMA)
        assert record == {"verdict": "safe", "score": 0.1, "findings": []}


REPLY_SCHEMA = StructuredSchema("t", {"a": (str,), "b": (list,)})
REPLY_ALPHABET = st.sampled_from(
    list('{}"\\:,[]') + ["a", "b", "x", "0", "7", "null", "NaN", "\n", " ", '"a"', '"b"']
)


def reply_outcome(extract, response: str):
    """The record read, the field a ``SchemaError`` names, or None."""
    try:
        return extract(response, REPLY_SCHEMA)
    except SchemaError as exc:
        return ("schema error", exc.field)
    except ExtractionError:
        return None


def never_closes(response: str, position: int) -> bool:
    """Whether the reference scan from the ``{`` at ``position`` runs off
    the end of the reply without balancing it."""
    return next(reference_reply_reader.candidate_objects(response[position:]), None) is None


@settings(max_examples=2000, deadline=None)
@given(st.lists(REPLY_ALPHABET, max_size=24).map("".join))
@example('{"a": "x", "b": [null, NaN]}')
@example('{"a": 7} {"a": "x", "b": []}')
@example('a { b {"a": "x", "b": []}')
def test_reply_reader_matches_reference(response):
    expected = reply_outcome(reference_reply_reader.extract_structured, response)
    got = reply_outcome(extract_structured, response)
    if expected is not None or got is None:
        assert got == expected
        return
    # the reference gave up at a brace that never closes; the new reader
    # found its object behind it and agrees on everything before it
    unclosed = [p for p, ch in enumerate(response) if ch == "{" and never_closes(response, p)]
    assert unclosed
    assert reply_outcome(extract_structured, response[: unclosed[0]]) is None


class _StubHandler(BaseHTTPRequestHandler):
    failures_left = 0
    canned = {"content": "stub says hi"}

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        _ = self.rfile.read(length)
        if _StubHandler.failures_left > 0:
            _StubHandler.failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps(_StubHandler.canned).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    server.shutdown()
    thread.join()


class TestHttpProvider:
    def test_returns_canned_body(self, stub_server):
        _StubHandler.failures_left = 0
        cfg = ProviderConfig(kind="http-endpoint", model_id="remote", endpoint=stub_server)
        exchange = HttpProvider(cfg).complete("hello", role="detector")
        assert exchange.response == "stub says hi"
        assert exchange.provider_id == "http:remote"

    def test_retries_through_server_errors(self, stub_server):
        _StubHandler.failures_left = 2
        cfg = ProviderConfig(kind="http-endpoint", model_id="remote", endpoint=stub_server, retry_count=2)
        assert HttpProvider(cfg).complete("hello", role="detector").response == "stub says hi"

    def test_exhausted_retries_raise_transport_error(self, stub_server):
        _StubHandler.failures_left = 99
        cfg = ProviderConfig(kind="http-endpoint", model_id="remote", endpoint=stub_server, retry_count=1)
        with pytest.raises(TransportError):
            HttpProvider(cfg).complete("hello", role="detector")
        _StubHandler.failures_left = 0

    def test_openai_style_response_shape_accepted(self, stub_server):
        _StubHandler.failures_left = 0
        old = _StubHandler.canned
        _StubHandler.canned = {"choices": [{"message": {"content": "nested style"}}]}
        try:
            cfg = ProviderConfig(kind="http-endpoint", model_id="remote", endpoint=stub_server)
            assert HttpProvider(cfg).complete("x", role="detector").response == "nested style"
        finally:
            _StubHandler.canned = old

    def test_endpoint_required(self):
        with pytest.raises(ConfigError, match="endpoint"):
            ProviderConfig(kind="http-endpoint", model_id="remote")


class _Reply:
    def __init__(self, status_code: int, headers: dict[str, str] | None = None):
        self.status_code = status_code
        self.headers = headers or {}

    def json(self):
        return {"content": "after the wait"}


@pytest.fixture
def scripted_http(monkeypatch):
    """Replaces ``requests.post`` with a queue of replies and ``time.sleep``
    with a recorder; yields (replies, posts, sleeps)."""
    replies: list[_Reply] = []
    posts: list[str] = []
    sleeps: list[float] = []

    def post(url, **kwargs):
        posts.append(url)
        return replies.pop(0) if len(replies) > 1 else replies[0]

    monkeypatch.setattr("solguard.llm.provider.requests.post", post)
    monkeypatch.setattr("solguard.llm.provider.time.sleep", sleeps.append)
    return replies, posts, sleeps


class TestRateLimit:
    def complete(self, **config):
        # never contacted: requests.post is replaced
        cfg = ProviderConfig(kind="http-endpoint", model_id="remote", endpoint="http://127.0.0.1:9/v1", **config)
        return HttpProvider(cfg).complete("hello", role="detector")

    def test_429_is_retried_after_its_retry_after_seconds(self, scripted_http):
        replies, posts, sleeps = scripted_http
        replies += [_Reply(429, {"Retry-After": "3"}), _Reply(200)]
        assert self.complete().response == "after the wait"
        assert len(posts) == 2
        assert sleeps == [3.0]

    def test_retry_after_is_capped_at_the_timeout(self, scripted_http):
        replies, _, sleeps = scripted_http
        replies += [_Reply(429, {"Retry-After": "120"}), _Reply(200)]
        assert self.complete(timeout_s=5.0).response == "after the wait"
        assert sleeps == [5.0]

    @pytest.mark.parametrize("headers", [{}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, {"Retry-After": "-1"}])
    def test_429_without_seconds_backs_off_as_for_server_errors(self, scripted_http, headers):
        replies, _, sleeps = scripted_http
        replies += [_Reply(429, headers), _Reply(200)]
        assert self.complete().response == "after the wait"
        assert sleeps == [0.05]

    def test_429_counts_against_retry_count(self, scripted_http):
        replies, posts, sleeps = scripted_http
        replies.append(_Reply(429, {"Retry-After": "1"}))
        with pytest.raises(TransportError, match="429"):
            self.complete(retry_count=1)
        assert len(posts) == 2
        assert sleeps == [1.0]


class _ScriptedProvider:
    """Returns queued responses in order; used to exercise the repair retry."""

    def __init__(self, responses: list[str]):
        self.config = ProviderConfig(kind="mock", model_id="scripted", transcript="<inline>")
        self._responses = list(responses)
        self.prompts: list[str] = []

    def complete(self, prompt: str, *, role: str) -> ChatExchange:
        self.prompts.append(prompt)
        return ChatExchange(role, prompt, self._responses.pop(0), "mock:scripted", 0.0)


class TestAskStructured:
    def test_repair_retry_recovers(self):
        provider = _ScriptedProvider(["not parseable", '{"verdict":"safe","score":0.1,"findings":[]}'])
        record = ask_structured(provider, "detector", "prompt", DETECTOR_SCHEMA)
        assert record["verdict"] == "safe"
        assert len(provider.prompts) == 2
        assert "could not be parsed" in provider.prompts[1]

    def test_second_failure_propagates(self):
        provider = _ScriptedProvider(["junk", "more junk"])
        with pytest.raises(ExtractionError):
            ask_structured(provider, "detector", "prompt", DETECTOR_SCHEMA)


class TestExchangeLog:
    def test_appends_line_records_without_prompt_content(self, tmp_path):
        from solguard.llm.provider import ExchangeLog

        log_path = tmp_path / "exchanges.jsonl"
        log = ExchangeLog(log_path)
        recorder_cfg = ProviderConfig(kind="mock", model_id="m", transcript="<x>")
        log.append(ChatExchange("detector", "secret prompt body", "resp", "mock:m", 0.01))
        log.append(ChatExchange("fixer", "another prompt", "resp2", "mock:m", 0.02))
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["role"] == "detector"
        assert first["request_chars"] == len("secret prompt body")
        assert first["response"] == "resp"  # responses kept verbatim for audit
        assert "secret prompt body" not in lines[0]  # prompts logged by fingerprint only
        assert first["request_fingerprint"] == prompt_fingerprint("secret prompt body")
        assert recorder_cfg.kind == "mock"

    def test_mock_provider_writes_to_log(self, tmp_path):
        from solguard.llm.provider import ExchangeLog

        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            json.dumps(
                {"role": "detector", "fingerprint": prompt_fingerprint("p"), "response": "r"}
            )
            + "\n",
            encoding="utf-8",
        )
        log_path = tmp_path / "log.jsonl"
        provider = MockProvider(
            ProviderConfig(kind="mock", model_id="m", transcript=str(transcript)),
            ExchangeLog(log_path),
        )
        provider.complete("p", role="detector")
        assert json.loads(log_path.read_text(encoding="utf-8"))["provider"] == "mock:m"


class TestCredentials:
    def test_bearer_header_sent_from_env(self, monkeypatch):
        captured = {}

        class CapturingHandler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802
                captured["auth"] = self.headers.get("Authorization")
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                body = json.dumps({"content": "ok"}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), CapturingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("TEST_PROVIDER_KEY", "s3cret")
            cfg = ProviderConfig(
                kind="http-endpoint",
                model_id="remote",
                endpoint=f"http://127.0.0.1:{server.server_port}/chat",
                api_key_env="TEST_PROVIDER_KEY",
            )
            HttpProvider(cfg).complete("hello", role="detector")
            assert captured["auth"] == "Bearer s3cret"
        finally:
            server.shutdown()
            thread.join()


class TestProviderConfigPayload:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown provider config keys"):
            ProviderConfig.from_payload(
                {"kind": "mock", "model_id": "m", "transcript": "t", "api_key": "nope"}
            )

    # each of these used to load, then fail the first HTTP call (or a mock
    # build) with a TypeError or ValueError outside the error hierarchy
    @pytest.mark.parametrize(
        "field, value",
        [
            ("retry_count", "2"),
            ("retry_count", 1.5),
            ("retry_count", -1),
            ("timeout_s", "60"),
            ("timeout_s", 0),
            ("timeout_s", float("inf")),
            ("temperature", True),
            ("temperature", float("nan")),
            ("max_output_tokens", 0),
            ("max_output_tokens", "2048"),
            ("endpoint", 8080),
            ("api_key_env", ["KEY"]),
            ("transcript", 5),
        ],
    )
    def test_field_of_the_wrong_type_or_range_rejected(self, field, value):
        payload = {"kind": "http-endpoint", "model_id": "m", "endpoint": "http://x/v1", field: value}
        with pytest.raises(ConfigError, match=f"provider {field} must be"):
            ProviderConfig.from_payload(payload)

    def test_round_trip_fields(self):
        cfg = ProviderConfig.from_payload(
            {
                "kind": "http-endpoint",
                "model_id": "m",
                "endpoint": "http://x/v1",
                "temperature": 0.2,
                "retry_count": 5,
            }
        )
        assert cfg.retry_count == 5
        assert cfg.temperature == 0.2
