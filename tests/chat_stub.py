"""A loopback chat-completion endpoint for ``HttpProvider`` tests.

``ChatStub`` listens on ``127.0.0.1`` on a free port, so the provider's real
wire path runs: connect, POST, status line, headers and body. Each request
is recorded and answered with a scripted :class:`Reply`, either from a
queue (the last reply repeats) or from an ``answer`` function of the
decoded request body. As an HTTP proxy it records each ``CONNECT`` target
and refuses the tunnel with 502. ``closed_port_endpoint`` names a loopback
endpoint that nothing listens on.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, field
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable


def closed_port_endpoint() -> str:
    """An endpoint on a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat"


@dataclass
class Reply:
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    # a dict is sent as JSON, bytes as they are
    body: Any = field(default_factory=lambda: {"content": "after the wait"})
    # never answer: hold the connection open until the stub closes
    stall: bool = False


class _Handler(BaseHTTPRequestHandler):
    server: "ChatStub"

    def do_POST(self):  # noqa: N802 (http.server API)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        reply = self.server.reply_to(self.headers, body)
        if reply.stall:
            self.server.closing.wait(30)
            return
        payload = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode("utf-8")
        self.send_response(reply.status)
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        with self.server._lock:
            self.server.tunnels.append(self.path)
        self.send_error(502)

    def log_message(self, *args):
        pass


class ChatStub(ThreadingHTTPServer):
    """Use as a context manager: serving starts on enter and stops on exit."""

    daemon_threads = True

    def __init__(self, answer: Callable[[dict], Reply] | None = None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies: list[Reply] = []
        # (request headers, decoded JSON body), one per POST
        self.received: list[tuple[Message, dict]] = []
        # "host:port", one per CONNECT
        self.tunnels: list[str] = []
        self.closing = threading.Event()
        self._answer = answer
        self._lock = threading.Lock()
        # a short poll keeps shutdown (which waits for the next poll) quick
        self._thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1/chat"

    def reply_to(self, headers: Message, body: bytes) -> Reply:
        request = json.loads(body)
        with self._lock:
            self.received.append((headers, request))
            if self._answer is not None:
                return self._answer(request)
            return self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.closing.set()
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
