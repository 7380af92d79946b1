"""Seeded workload inputs built only from the repository's fixtures.

Contracts are made by renaming and concatenating the rule fixtures
(``fixtures/rules/*_pos.sol``, ``*_neg*.sol``) and ``fixtures/presign.sol``.
Each generated contract carries a ``// perfbench-id: <id>`` comment, which is
how the scripted responder knows which contract a prompt is about. A
vulnerable contract's planted patch swaps every ``_pos`` segment for one of
its ``_neg`` twins (``presign.sol`` for ``presign_patched.sol``).

The corpus mutates ``fixtures/corpus.jsonl``; the knowledge documents are
``fixtures/kb_docs`` copied as they are. The same seed always gives the same
files.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ID_TAG = "perfbench-id"
ID_RE = re.compile(r"perfbench-id: ([a-z]\d{4})")

# Free-text ways a model names a catalog finding: (class spelling, function
# suffix). Each keeps the finding apart from the static rule's, under the
# exact (class, function) merge.
FREE_TEXT = [("lower", ""), ("upper", ""), ("swc", ""), ("name+swc", ""), ("exact", "()")]

SMALL_BYTES = 5_000  # contracts below this carry one to three planted segments

# The integer-overflow rule fires only below Solidity 0.8, and a concatenated
# contract has one ^0.8.0 header, so there this fixture's finding is reported
# by the model alone. It is planted in small contracts only, which keeps the
# finding count of the large ones the same for every seed.
PRAGMA_DEPENDENT = ("overflow_pos",)

PRESIGN_FINDINGS = [("unprotected-function", "preSign")]


@dataclass(frozen=True)
class Segment:
    """One fixture contract: its body and the names the generator renames."""

    stem: str
    text: str
    functions: tuple[str, ...]
    rule_findings: tuple[tuple[str, str], ...] = ()  # (rule id, function)


@dataclass(frozen=True)
class PlantedFinding:
    vuln_class: str
    function: str


@dataclass
class Contract:
    id: str
    label: str  # safe | vulnerable
    source: str
    patched: str | None = None
    planted: list[PlantedFinding] = field(default_factory=list)
    # how the responder's detector names each planted finding
    reported: list[dict[str, str]] = field(default_factory=list)
    malformed_first: bool = False  # the detector first replies with prose
    score: float = 0.0
    risk: str = "High"


class Fixtures:
    """The fixture files, paired into vulnerable segments and patched twins."""

    def __init__(self, root: Path, catalog: dict[str, tuple[str, str | None]]):
        rules = root / "rules"
        manifest = json.loads((rules / "manifest.json").read_text(encoding="utf-8"))
        self.catalog = catalog  # rule id -> (class name, swc id)

        def segment(path: Path, entry: dict) -> Segment:
            return Segment(
                stem=path.stem,
                text=path.read_text(encoding="utf-8"),
                functions=tuple(f for f in entry["functions"] if f not in ("constructor", "fallback", "receive")),
                rule_findings=tuple((r, fn) for r, fn in entry["findings"]),
            )

        self.pairs: list[tuple[Segment, list[Segment]]] = []
        for pos in sorted(rules.glob("*_pos.sol")):
            prefix = pos.stem[: -len("_pos")]
            twins = [segment(p, manifest[p.name]) for p in sorted(rules.glob(f"{prefix}_neg*.sol"))]
            if not twins:
                raise ValueError(f"{pos.name} has no _neg twin")
            self.pairs.append((segment(pos, manifest[pos.name]), twins))
        presign = segment(root / "presign.sol", {"functions": ["preSign"], "findings": PRESIGN_FINDINGS})
        self.pairs.append((presign, [segment(root / "presign_patched.sol", {"functions": ["preSign"], "findings": []})]))
        self.safe_segments = [twin for _, twins in self.pairs for twin in twins]
        self.corpus = [
            json.loads(line)
            for line in (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        self.kb_docs = root / "kb_docs"


def _rename(text: str, names: list[str], suffix: str) -> str:
    """Append ``suffix`` to contract names and the given function names.

    Member accesses (``x.name``) are left alone, so calls such as
    ``payee.transfer`` keep their meaning for the rules.
    """
    contracts = re.findall(r"\bcontract\s+(\w+)", text)
    for name in contracts + names:
        text = re.sub(rf"(?<![\w.]){re.escape(name)}\b", name + suffix, text)
    return text


def _body(text: str) -> str:
    """A fixture without its licence and pragma lines."""
    lines = [
        line for line in text.splitlines()
        if not line.startswith("// SPDX-License-Identifier") and not line.startswith("pragma solidity")
    ]
    return "\n".join(lines).strip() + "\n"


def _header(contract_id: str) -> str:
    return f"// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n// {ID_TAG}: {contract_id}\n"


def _spelling(kind: str, name: str, swc: str | None) -> str:
    if swc is None and kind in ("swc", "name+swc"):
        kind = "lower"
    return {
        "exact": name,
        "lower": name.lower(),
        "upper": name.upper(),
        "swc": swc or name,
        "name+swc": f"{name} ({swc})",
    }[kind]


def _cycle(rng: random.Random, items: list, n: int) -> list:
    """``n`` items drawn round-robin from a seeded permutation, so every
    item appears equally often whatever the seed."""
    order = list(items)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(n)]


def _one_to_three(rng: random.Random, n: int) -> list[int]:
    """``n`` counts from 1 to 3 in seeded order, summing to exactly ``2 * n``."""
    counts = [1, 2, 3] * (n // 3) + {0: [], 1: [2], 2: [1, 3]}[n % 3]
    rng.shuffle(counts)
    return counts


def _shuffled(rng: random.Random, k: int, n: int) -> list[bool]:
    """``k`` of ``n`` flags set, at seeded positions."""
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def audit_contracts(
    fx: Fixtures,
    seed: int,
    sizes: list[tuple[str, int, int]],
    vulnerable_share: float,
    prefix: str = "m",
) -> list[Contract]:
    """Concatenated contracts per (size class, target bytes, count).

    Within each size class, ``vulnerable_share`` of the contracts are
    vulnerable: small ones carry one to three planted segments, larger ones
    two. A contract's first planted finding is reported under its catalog
    name, the others under free-text spellings. One contract in eight,
    rounded down per size class, gets a prose first detector reply. Filler cycles
    evenly through the patched twins. So the work is nearly the same for
    every seed; only the choices vary.
    """
    rng = random.Random(f"audit:{seed}")
    contracts: list[Contract] = []
    for _, target, count in sizes:
        small = target < SMALL_BYTES
        n_vuln = round(count * vulnerable_share)
        pos_counts = _one_to_three(rng, n_vuln) if small else [2] * n_vuln
        pool = fx.pairs if small else [p for p in fx.pairs if p[0].stem not in PRAGMA_DEPENDENT]
        pairs = iter(_cycle(rng, pool, sum(pos_counts)))
        spellings = iter(_cycle(rng, FREE_TEXT, sum(pos_counts)))
        counts = iter(pos_counts)
        for vulnerable, prose_first in zip(_shuffled(rng, n_vuln, count), _shuffled(rng, count // 8, count)):
            cid = f"{prefix}{len(contracts):04d}"
            header = _header(cid)
            original: list[str] = []
            patched: list[str] = []
            planted: list[PlantedFinding] = []
            reported: list[dict[str, str]] = []
            for j in range(next(counts) if vulnerable else 0):
                pos, twins = next(pairs)
                kind, call_suffix = ("exact", "") if j == 0 else next(spellings)
                suffix = f"_{cid}s{j}"
                original.append(_body(_rename(pos.text, list(pos.functions), suffix)))
                twin = rng.choice(twins)
                patched.append(_body(_rename(twin.text, list(twin.functions), suffix)))
                for rule_id, function in pos.rule_findings:
                    name, swc = fx.catalog[rule_id]
                    finding = PlantedFinding(name, function + suffix)
                    planted.append(finding)
                    reported.append({"class": _spelling(kind, name, swc), "function": finding.function + call_suffix})
            fillers = _cycle(rng, fx.safe_segments, len(fx.safe_segments))
            size = len(header) + sum(len(s) for s in original)
            while size < target:
                seg = fillers[len(original) % len(fillers)]
                text = _body(_rename(seg.text, list(seg.functions), f"_{cid}s{len(original)}"))
                # filler lands at a seeded position among the planted segments
                at = rng.randint(0, len(original))
                original.insert(at, text)
                patched.insert(at, text)
                size += len(text)
            contracts.append(
                Contract(
                    id=cid,
                    label="vulnerable" if vulnerable else "safe",
                    source=header + "\n".join(original),
                    patched=header + "\n".join(patched) if vulnerable else None,
                    planted=planted,
                    reported=reported,
                    malformed_first=prose_first,
                    score=round(rng.uniform(0.8, 0.95), 2) if vulnerable else round(rng.uniform(0.02, 0.15), 2),
                    risk=rng.choice(["Critical", "High", "Medium", "Low"]),
                )
            )
    return contracts


def eval_contracts(fx: Fixtures, seed: int, count: int) -> list[Contract]:
    """Small labelled contracts: one renamed fixture each, half vulnerable.

    Each keeps its own pragma, so the static rules fire exactly on the
    vulnerable ones, as the fixture manifest says.
    """
    rng = random.Random(f"eval:{seed}")
    n_vuln = count // 2
    pairs = _cycle(rng, fx.pairs, n_vuln)
    safes = _cycle(rng, fx.safe_segments, count - n_vuln)
    flags = _shuffled(rng, n_vuln, count)
    malformed = _shuffled(rng, count // 8, count)
    contracts: list[Contract] = []
    vi = si = 0
    for i, vulnerable in enumerate(flags):
        cid = f"e{i:04d}"
        suffix = f"_{cid}"
        if vulnerable:
            seg = pairs[vi][0]
            vi += 1
        else:
            seg = safes[si]
            si += 1
        text = _rename(seg.text, list(seg.functions), suffix)
        lines = text.splitlines()
        lines.insert(1, f"// {ID_TAG}: {cid}")
        planted = [PlantedFinding(fx.catalog[rule_id][0], function + suffix) for rule_id, function in seg.rule_findings]
        contracts.append(
            Contract(
                id=cid,
                label="vulnerable" if vulnerable else "safe",
                source="\n".join(lines) + "\n",
                planted=planted,
                reported=[{"class": p.vuln_class, "function": p.function} for p in planted],
                malformed_first=malformed[i],
                score=round(rng.uniform(0.8, 0.95), 2) if vulnerable else round(rng.uniform(0.02, 0.15), 2),
            )
        )
    return contracts


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))).capitalize())
    return sorted(words)


def corpus_records(fx: Fixtures, seed: int, n: int) -> list[dict]:
    """``n`` labelled corpus documents mutated from ``fixtures/corpus.jsonl``.

    Contract and function names take words from a seeded pool, so terms are
    shared by some documents and not others; a quarter of the documents
    concatenate two fixture documents.
    """
    rng = random.Random(f"corpus:{seed}")
    pool = _pseudo_words(rng, 4000)
    records: list[dict] = []
    for i in range(n):
        parts = [rng.choice(fx.corpus)]
        if rng.random() < 0.25:
            parts.append(rng.choice(fx.corpus))
        sources: list[str] = []
        classes: list[str] = []
        for part in parts:
            text = part["source"]
            for name in sorted(set(re.findall(r"\b(?:contract|function)\s+(\w+)", text))):
                text = re.sub(rf"(?<![\w.]){re.escape(name)}\b", name + rng.choice(pool), text)
            sources.append(text)
            for cls in part.get("classes", []):
                if part["label"] == "vulnerable" and cls not in classes:
                    classes.append(cls)
        label = "vulnerable" if any(p["label"] == "vulnerable" for p in parts) else "safe"
        records.append({"id": f"corp-{i:05d}", "label": label, "classes": classes, "source": "\n".join(sources)})
    return records


def write_corpus(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def write_contracts(directory: Path, contracts: list[Contract]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for c in contracts:
        (directory / f"{c.id}.sol").write_text(c.source, encoding="utf-8")


def write_dataset(path: Path, contracts: list[Contract]) -> None:
    path.write_text(
        "".join(
            json.dumps({"id": c.id, "label": c.label, "classes": [p.vuln_class for p in c.planted], "source": c.source})
            + "\n"
            for c in contracts
        ),
        encoding="utf-8",
    )


def copy_kb_docs(fx: Fixtures, target: Path) -> None:
    shutil.copytree(fx.kb_docs, target)
