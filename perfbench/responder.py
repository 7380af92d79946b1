"""Scripted model answers, transcript recording and the loopback stub.

The responder answers every role from the generator's plan for the contract
named by the prompt's ``perfbench-id`` comment: the detector reports the
planted findings under model-style spellings, the fixer returns the planted
patch and the verifier accepts it. For a seeded share of contracts the
detector first answers with prose, which earns one repair prompt.

``record_transcript`` runs the code under test in this process with a
``TranscriptRecorder`` so the mock provider's fingerprints always match the
prompts the program renders. ``StubServer`` serves the same answers over
HTTP for ``http-endpoint`` providers, after a fixed delay per call.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from generate import ID_RE, Contract

PROSE_REPLY = "I reviewed the contract and will summarise my findings in structured form next."


class Unattributable(Exception):
    """A prompt that names no generated contract, or more than one."""


class Responder:
    def __init__(self, contracts: list[Contract], repair_instruction: str):
        self.contracts = {c.id: c for c in contracts}
        self.repair_instruction = repair_instruction

    def contract_for(self, prompt: str) -> Contract:
        ids = set(ID_RE.findall(prompt))
        if len(ids) != 1 or next(iter(ids)) not in self.contracts:
            raise Unattributable(f"prompt names contracts {sorted(ids)}")
        return self.contracts[ids.pop()]

    def __call__(self, role: str, prompt: str) -> str:
        c = self.contract_for(prompt)
        if c.malformed_first and role == "detector" and self.repair_instruction not in prompt:
            return PROSE_REPLY
        if role == "detector":
            vulnerable = c.label == "vulnerable"
            return json.dumps({
                "verdict": c.label,
                "score": c.score,
                "findings": [
                    {**r, "evidence": "state change reachable by an untrusted caller"} for r in c.reported
                ] if vulnerable else [],
            })
        if role == "advisor":
            return "Suggested repair:\n" + json.dumps({
                "vulnerability_name": "Planted weakness",
                "cause_analysis": "The function acts before checking who calls it or what the call returned.",
                "impact_assessment": "An attacker can move funds or change settings the owner never approved.",
                "repair_steps": ["Apply checks-effects-interactions.", "Guard the function with an owner check."],
                "preventive_measures": ["Review every external entry point for access control."],
            })
        if role == "assessor":
            return json.dumps({"level": c.risk})
        if role == "fixer":
            if c.patched is None:
                return PROSE_REPLY  # no patch planned: the program records a fix failure
            return json.dumps({"repaired_source": c.patched, "rationale": "Replaced each flawed segment with its guarded twin."})
        if role == "verifier":
            return json.dumps({"passed": True, "new_issues": []})
        raise Unattributable(f"unknown role {role!r}")


def record_transcript(ctx, responder: Responder, drive: Callable, path: str) -> None:
    """Run ``drive(ctx)`` with every provider recording; write the transcript."""
    from solguard.llm import TranscriptRecorder

    recorder = TranscriptRecorder(responder)
    drive(replace(ctx, providers={role: recorder for role in ctx.providers}))
    recorder.write(path)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def log_message(self, format, *args):  # noqa: A002 - keep the benchmark's stdout clean
        pass

    def do_POST(self):  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, answer = self.server.answer(body)
        payload = json.dumps({"content": answer}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class StubServer(ThreadingHTTPServer):
    """Loopback chat endpoint: one model id per role, a fixed delay per call,
    and at most ``max_inflight`` calls answered at once.

    A request whose model or contract cannot be attributed is answered with
    status 400 and counted; the benchmark fails the run on any.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, responder: Responder, roles_by_model: dict[str, str], delay_s: float, max_inflight: int = 2):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.responder = responder
        self.roles_by_model = roles_by_model
        self.delay_s = delay_s
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.reset()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat"

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.request_bytes = 0
            self.prompt_bytes = 0
            self.calls_by_role: dict[str, int] = {}
            self.unattributed: list[str] = []

    def answer(self, body: bytes) -> tuple[int, str]:
        try:
            request = json.loads(body)
            role = self.roles_by_model[request["model"]]
            prompt = request["messages"][0]["content"]
            answer = self.responder(role, prompt)
        except (ValueError, KeyError, IndexError, TypeError, Unattributable) as exc:
            with self._lock:
                self.unattributed.append(f"{type(exc).__name__}: {exc}")
            return 400, ""
        with self._slots:
            time.sleep(self.delay_s)
        with self._lock:
            self.calls += 1
            self.request_bytes += len(body)
            self.prompt_bytes += len(prompt.encode("utf-8"))
            self.calls_by_role[role] = self.calls_by_role.get(role, 0) + 1
        return 200, answer

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, name="perfbench-stub")
        self._thread.start()

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()
