"""A seeded fault-injecting provider wrapper for robustness tests.

Each call's fate is a hash of (seed, role, prompt fingerprint), never of
call order, so runs that overlap calls on threads stay reproducible: the
same prompt under the same seed always meets the same fault. A repair
prompt has its own fingerprint and so draws its own fate.
"""

from __future__ import annotations

import hashlib
import json
import time

from solguard.errors import CompletionTimeout, TransportError
from solguard.llm.mock import prompt_fingerprint
from solguard.llm.provider import Provider

# "provider-bug" is an exception of the provider's own, not a SolguardError
FAULTS = ("timeout", "server-error", "provider-bug", "truncated-json", "wrong-type")
PASS_THROUGH_WEIGHT = 12  # clean calls per round of the five faults


def fault_for(seed: int, role: str, prompt: str) -> tuple[str | None, int, float]:
    """The fault (or None) for one call, a number that picks the field a
    wrong-type fault breaks, and a delay of up to 2 ms."""
    digest = hashlib.sha256(f"{seed}:{role}:{prompt_fingerprint(prompt)}".encode()).digest()
    pick = digest[0] % (len(FAULTS) + PASS_THROUGH_WEIGHT)
    return (FAULTS[pick] if pick < len(FAULTS) else None), digest[1], digest[2] / 255 * 0.002


def _wrong_type(response: str, field_pick: int) -> str:
    """The reply with one top-level field given a value of another type."""
    try:
        record = json.loads(response)
    except json.JSONDecodeError:
        return "[]"
    if not isinstance(record, dict) or not record:
        return "[]"
    key = sorted(record)[field_pick % len(record)]
    record[key] = 7 if isinstance(record[key], (str, list, dict, bool)) else "seven"
    return json.dumps(record)


class FaultInjectingProvider:
    """Wraps a provider; raises or corrupts the calls its seed picks."""

    def __init__(self, inner: Provider, seed: int):
        self.inner = inner
        self.seed = seed
        self.config = inner.config

    def complete(self, prompt: str, *, role: str) -> str:
        fault, field_pick, delay_s = fault_for(self.seed, role, prompt)
        time.sleep(delay_s)  # lets overlapped calls finish out of order
        if fault == "timeout":
            raise CompletionTimeout(f"injected: {role} request timed out")
        if fault == "server-error":
            raise TransportError(f"injected: {role} server error 503")
        if fault == "provider-bug":
            raise ValueError(f"injected: {role} provider bug")
        response = self.inner.complete(prompt, role=role)
        if fault == "truncated-json":
            return response[: len(response) // 2]
        if fault == "wrong-type":
            return _wrong_type(response, field_pick)
        return response
