"""Provider abstraction, prompt templates, and structured-output extraction."""

# the one package-level name: the benchmark's stub responder
# (perfbench/responder.py) imports it from the package
from solguard.llm.mock import TranscriptRecorder
