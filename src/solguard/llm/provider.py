"""Chat-completion provider abstraction.

Two provider kinds ship with the tool: an HTTP provider speaking a minimal
chat-completion wire shape, and a transcript-backed mock for hermetic runs
(see :mod:`solguard.llm.mock`). Exchanges can be appended to an audit log;
credentials come from the environment and are never logged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol
from urllib.parse import urlsplit

from solguard.errors import CompletionTimeout, ConfigError, TransportError
from solguard.records import Field, Record, number, one_of, path, string, text, whole

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProviderConfig:
    kind: str  # "http-endpoint" | "mock"
    model_id: str
    endpoint: str | None = None
    api_key_env: str | None = None
    transcript: str | None = None
    temperature: float = 0.0
    max_output_tokens: int = 2048
    timeout_s: float = 60.0
    retry_count: int = 2

    def __post_init__(self) -> None:
        if self.kind == "mock" and not self.transcript:
            raise ConfigError("a mock provider needs a transcript key")
        if self.kind == "http-endpoint" and not self.endpoint:
            raise ConfigError("an http-endpoint provider needs an endpoint key")

    @property
    def provider_id(self) -> str:
        """``<kind>:<model_id>``: the provider as run records, the exchange log and transport errors name it."""
        return f"{self.kind}:{self.model_id}"


def _is_http_url(value: Any) -> bool:
    if type(value) is not str:
        return False
    try:
        parts = urlsplit(value)
        parts.port  # ValueError unless absent or a number from 0 to 65535
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname) and (parts.username, parts.password) == (None, None)


# a provider record of the configuration; each default is the dataclass's own
PROVIDER = Record({
    "kind": one_of(("http-endpoint", "mock")),
    "model_id": text(),
    "endpoint": Field("an http(s) URL with a host, no user or password, and a numeric port if any", _is_http_url, None),
    "api_key_env": string(None),
    "transcript": path(None),
    "temperature": number("[0, inf)", ProviderConfig.temperature),
    "max_output_tokens": whole(1, ProviderConfig.max_output_tokens),
    "timeout_s": number("(0, inf)", ProviderConfig.timeout_s),
    "retry_count": whole(0, ProviderConfig.retry_count),
}, noun="provider key", make=ProviderConfig)


class Provider(Protocol):
    config: ProviderConfig

    def complete(self, prompt: str, *, role: str) -> str: ...  # the reply text


def prompt_fingerprint(prompt: str) -> str:
    """Stable 16-hex-digit fingerprint of a prompt's normalized text."""
    normalized = " ".join(prompt.split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


class ExchangeLog:
    """Append-only line-delimited exchange log with serialized writes.

    Each line is appended by one ``os.write`` on a descriptor opened with
    ``O_APPEND``, however long its verbatim response, so processes that
    share the log add whole lines at its end rather than pieces of them.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, role: str, provider_id: str, latency_s: float, request: str, response: str) -> None:
        # the response is kept verbatim for audit; the (potentially huge)
        # request is identified by fingerprint and size only
        record = {
            "role": role,
            "provider": provider_id,
            "latency_s": round(latency_s, 6),
            "request_fingerprint": prompt_fingerprint(request),
            "request_chars": len(request),
            "request_bytes": len(request.encode("utf-8")),
            "response": response,
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if os.write(fd, line) != len(line):
                    raise OSError(f"short write to exchange log {self.path}")
            finally:
                os.close(fd)


class HttpProvider:
    """Minimal chat-completion client.

    Request body: ``{"model", "messages": [{"role","content"}], "temperature",
    "max_tokens"}``. The response may carry the text either as a top-level
    ``content`` string or under ``choices[0].message.content``.

    Each call opens one connection through one :mod:`urllib.request` opener,
    built at the provider's first call, which reads the proxies from
    ``HTTP(S)_PROXY``/``NO_PROXY`` as they are then and verifies HTTPS
    against the system trust store. Timeouts, connection failures, 5xx and
    429 replies are retried up to ``retry_count`` times, after the reply's
    ``Retry-After`` seconds (capped at ``timeout_s``) or else a backoff of
    50 ms times the attempt number.
    """

    def __init__(self, config: ProviderConfig, exchange_log: ExchangeLog | None = None):
        self.config = config
        self._log = exchange_log
        self._opener: Any = None  # a urllib.request.OpenerDirector, from the first call on
        self._opener_lock = threading.Lock()

    def complete(self, prompt: str, *, role: str) -> str:
        # the HTTP stack is imported here, not with this module, so that runs
        # making no HTTP call (mock audits, kb, eval) never load it
        import http.client
        import urllib.error
        import urllib.request

        from solguard import __version__

        headers = {"Content-Type": "application/json", "User-Agent": f"solguard/{__version__}"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env)
            if key:
                headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
        }
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        with self._opener_lock:
            if self._opener is None:  # one per provider: building one loads the CA store on Python 3.12+
                self._opener = urllib.request.build_opener()
            opener = self._opener
        provider_id = self.config.provider_id
        started = time.perf_counter()
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.config.retry_count + 1):
            if attempt:
                time.sleep(0.05 * attempt if retry_after is None else retry_after)
                retry_after = None
            # a new Request for each attempt: opening one through a proxy
            # changes it in place, and a reused one goes out as plain http
            request = urllib.request.Request(self.config.endpoint, data=data, headers=headers, method="POST")
            try:
                with opener.open(request, timeout=self.config.timeout_s) as resp:
                    status, reply_headers, raw = resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:  # any status outside 2xx
                status, reply_headers, raw = exc.code, exc.headers, b""
                exc.close()
            # ValueError: a header value http.client refuses, such as a key with a line break
            except (OSError, http.client.HTTPException, ValueError) as exc:
                # a timeout comes bare from the reply, wrapped in URLError from the connect
                if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                    last_error = CompletionTimeout(f"{provider_id}: request timed out")
                    log.warning("completion timeout (attempt %d): %s", attempt + 1, exc)
                else:
                    last_error = TransportError(f"{provider_id}: {exc}")
                    log.warning("completion transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if status >= 500 or status == 429:
                reason = "rate limited" if status == 429 else "server error"
                last_error = TransportError(f"{provider_id}: {reason} {status}")
                retry_after = _retry_after_s(reply_headers.get("Retry-After"), self.config.timeout_s)
                continue
            if status != 200:
                raise TransportError(f"{provider_id}: unexpected status {status}")
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError included
                raise TransportError(f"{provider_id}: response body is not JSON") from exc
            text = _response_text(payload, provider_id)
            if self._log:
                self._log.append(role, provider_id, time.perf_counter() - started, prompt, text)
            return text
        raise last_error


def _retry_after_s(header: str | None, cap: float) -> float | None:
    """A ``Retry-After`` header given in seconds, capped at ``cap``; None
    when it is absent or not a non-negative number (an HTTP date included)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return min(seconds, cap) if seconds >= 0 else None


def _response_text(payload: Any, provider_id: str) -> str:
    if isinstance(payload, dict) and isinstance(payload.get("content"), str):
        return payload["content"]
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise TransportError(f"{provider_id}: unrecognized response shape")
    return text
