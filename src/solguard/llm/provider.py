"""Chat-completion provider abstraction.

Two provider kinds ship with the tool: an HTTP provider speaking a minimal
chat-completion wire shape, and a transcript-backed mock for hermetic runs
(see :mod:`solguard.llm.mock`). Exchanges can be appended to an audit log;
credentials come from the environment and are never logged.
"""

from __future__ import annotations

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
from solguard.records import Record, number, path, string, whole

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
        if self.kind == "mock":
            if not self.transcript:
                raise ConfigError(f"mock provider {self.model_id!r} requires a transcript path")
        elif self.kind == "http-endpoint":
            if not self.endpoint:
                raise ConfigError(f"http provider {self.model_id!r} requires an endpoint")
            try:
                parts = urlsplit(self.endpoint)
                parts.port  # ValueError unless absent or a number from 0 to 65535
            except ValueError:
                parts = None
            if (
                parts is None
                or parts.scheme not in ("http", "https")
                or not parts.hostname
                or parts.username is not None
                or parts.password is not None
            ):
                raise ConfigError(
                    f"http provider {self.model_id!r} endpoint {self.endpoint!r} must be an "
                    "http:// or https:// URL with a host, no user or password, and, if any, a numeric port"
                )
        else:
            raise ConfigError(f"unknown provider kind {self.kind!r}")


# a provider record of the configuration; each default is the dataclass's own
PROVIDER = Record({
    "kind": string(),
    "model_id": string(),
    "endpoint": string(None),
    "api_key_env": string(None),
    "transcript": path(None),
    "temperature": number("[0, inf)", ProviderConfig.temperature),
    "max_output_tokens": whole(1, ProviderConfig.max_output_tokens),
    "timeout_s": number("(0, inf)", ProviderConfig.timeout_s),
    "retry_count": whole(0, ProviderConfig.retry_count),
}, noun="provider key")


@dataclass(frozen=True)
class ChatExchange:
    """One request/response pair, recorded verbatim for auditability."""

    role: str
    request: str
    response: str
    provider_id: str
    latency_s: float


class Provider(Protocol):
    config: ProviderConfig

    def complete(self, prompt: str, *, role: str) -> ChatExchange: ...


class ExchangeLog:
    """Append-only line-delimited exchange log with serialized writes."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, exchange: ChatExchange) -> None:
        # the response is kept verbatim for audit; the (potentially huge)
        # request is identified by fingerprint and size only
        from solguard.llm.mock import prompt_fingerprint

        record = {
            "role": exchange.role,
            "provider": exchange.provider_id,
            "latency_s": round(exchange.latency_s, 6),
            "request_fingerprint": prompt_fingerprint(exchange.request),
            "request_chars": len(exchange.request),
            "response": exchange.response,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)


class HttpProvider:
    """Minimal chat-completion client.

    Request body: ``{"model", "messages": [{"role","content"}], "temperature",
    "max_tokens"}``. The response may carry the text either as a top-level
    ``content`` string or under ``choices[0].message.content``.

    Each call opens one connection through :mod:`urllib.request`, which takes
    proxies from ``HTTP(S)_PROXY``/``NO_PROXY`` and verifies HTTPS against the
    system trust store. Timeouts, connection failures, 5xx and 429 replies are
    retried up to ``retry_count`` times, after the reply's ``Retry-After``
    seconds (capped at ``timeout_s``) or else a backoff of 50 ms times the
    attempt number.
    """

    def __init__(self, config: ProviderConfig, exchange_log: ExchangeLog | None = None):
        self.config = config
        self._log = exchange_log

    @property
    def provider_id(self) -> str:
        return f"http:{self.config.model_id}"

    def complete(self, prompt: str, *, role: str) -> ChatExchange:
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
        # a new opener reads the proxy variables as they are now
        opener = urllib.request.build_opener()
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
                    last_error = CompletionTimeout(f"{self.provider_id}: request timed out")
                    log.warning("completion timeout (attempt %d): %s", attempt + 1, exc)
                else:
                    last_error = TransportError(f"{self.provider_id}: {exc}")
                    log.warning("completion transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if status >= 500 or status == 429:
                reason = "rate limited" if status == 429 else "server error"
                last_error = TransportError(f"{self.provider_id}: {reason} {status}")
                retry_after = _retry_after_s(reply_headers.get("Retry-After"), self.config.timeout_s)
                continue
            if status != 200:
                raise TransportError(f"{self.provider_id}: unexpected status {status}")
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError included
                raise TransportError(f"{self.provider_id}: response body is not JSON") from exc
            text = _response_text(payload, self.provider_id)
            exchange = ChatExchange(
                role=role,
                request=prompt,
                response=text,
                provider_id=self.provider_id,
                latency_s=time.perf_counter() - started,
            )
            if self._log:
                self._log.append(exchange)
            return exchange
        raise last_error or TransportError(f"{self.provider_id}: no attempts made")


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
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"{provider_id}: unrecognized response shape") from exc
    if not isinstance(text, str):
        raise TransportError(f"{provider_id}: unrecognized response shape")
    return text
