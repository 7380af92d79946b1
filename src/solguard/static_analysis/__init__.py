"""Pattern-library-driven static scanner over a lexical view of Solidity."""

from solguard.static_analysis.rules import (
    PatternRule,
    default_ruleset,
    dump_ruleset,
    load_ruleset,
    parse_ruleset,
    save_ruleset,
)
from solguard.static_analysis.scanner import load_file, load_source, scan, static_channel
from solguard.static_analysis.structure import ContractView, FunctionSpan, build_view
from solguard.static_analysis.tokenizer import tokenize_solidity

__all__ = [
    "ContractView",
    "FunctionSpan",
    "PatternRule",
    "build_view",
    "default_ruleset",
    "dump_ruleset",
    "load_file",
    "load_ruleset",
    "load_source",
    "parse_ruleset",
    "save_ruleset",
    "scan",
    "static_channel",
    "tokenize_solidity",
]
