"""Run the ``solguard`` CLI from this checkout's ``src``, as a user would.

With ``PERFBENCH_COUNT_OUT`` set, calls to the providers' ``complete`` and
their prompt bytes are counted and written to that path when the command
ends. With ``PERFBENCH_TRACE_OUT`` set, the layers are wrapped by
:mod:`tracing` before the CLI starts and the spans are written to that path
when the command ends.
"""

import json
import os
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def count_model_calls() -> dict:
    """Count every provider ``complete`` call of this process and its prompt bytes."""
    from solguard.llm.mock import MockProvider
    from solguard.llm.provider import HttpProvider

    counts = {"calls": 0, "prompt_bytes": 0}
    lock = threading.Lock()

    def counted(original):
        def complete(self, prompt, *, role):
            with lock:
                counts["calls"] += 1
                counts["prompt_bytes"] += len(prompt.encode("utf-8"))
            return original(self, prompt, role=role)

        return complete

    for cls in (MockProvider, HttpProvider):
        cls.complete = counted(cls.complete)
    return counts


if __name__ == "__main__":
    count_out = os.environ.get("PERFBENCH_COUNT_OUT")
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    counts = count_model_calls() if count_out else None
    tracer = None
    if trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from solguard.cli import main

    try:
        main(prog_name="solguard")
    finally:
        if counts is not None:
            Path(count_out).write_text(json.dumps(counts), encoding="utf-8")
        if tracer:
            tracer.write(trace_out)
