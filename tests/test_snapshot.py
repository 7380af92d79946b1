from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import struct
import sys
import threading
from array import array
from pathlib import Path

import pytest

from solguard.errors import SnapshotError
from solguard.retrieval.kb import HashingEmbedder, KbDocument, build_kb_index
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file, top_k
from solguard.static_analysis.scanner import load_file, load_source

import reference_corpus_snapshot_v1 as reference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def corpus_for(version_tag: int):
    # every document's content encodes the tag so readers can check
    # cross-file consistency of a loaded snapshot
    return build_corpus_index(
        [
            (f"doc{i}", "safe", (f"tag{version_tag}",), f"content v{version_tag} doc {i}")
            for i in range(4)
        ]
    )


class TestPublishLoad:
    def test_round_trip_reproduces_the_built_index(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        index = corpus_for(1)
        version = store.publish(index)
        assert version == 1
        assert store.load() == dataclasses.replace(index, snapshot_version=1)

    def test_kb_round_trip(self, tmp_path):
        store = KbSnapshotStore(tmp_path)
        index = build_kb_index(
            [KbDocument("d", "alpha beta gamma", {"source": "x"})], HashingEmbedder()
        )
        store.publish(index)
        loaded = store.load()
        assert loaded == dataclasses.replace(index, snapshot_version=1)
        assert loaded.chunks[0].text == "alpha beta gamma"
        assert loaded.chunks[0].embedding == pytest.approx(index.chunks[0].embedding, abs=1e-12)

    def test_versions_increment_and_old_reader_keeps_its_snapshot(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        reader_version = store.current_version()
        held = store.load_version(reader_version)
        store.publish(corpus_for(2))
        assert store.current_version() == 2
        # the held snapshot is untouched by the publish
        assert held.documents[0].classes == ("tag1",)
        assert store.load().documents[0].classes == ("tag2",)

    def test_load_without_publish(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            CorpusSnapshotStore(tmp_path).load()

    def test_corrupt_pointer(self, tmp_path):
        tmp_path.joinpath("CURRENT").write_text("not-a-number", encoding="utf-8")
        with pytest.raises(SnapshotError, match="corrupt pointer"):
            CorpusSnapshotStore(tmp_path).current_version()


class TestCrashSafety:
    def test_crash_before_pointer_swap_leaves_previous_live(self, tmp_path, monkeypatch):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))

        def explode(version: int) -> None:
            raise OSError("simulated crash during pointer swap")

        monkeypatch.setattr(store, "_activate", explode)
        with pytest.raises(OSError):
            store.publish(corpus_for(2))
        monkeypatch.undo()
        assert store.current_version() == 1
        assert store.load().documents[0].classes == ("tag1",)
        # and the next publish still finds a fresh version number
        assert store.publish(corpus_for(3)) == 3

    def test_crash_during_payload_write_leaves_previous_live(self, tmp_path, monkeypatch):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))

        def explode(target, index) -> None:
            (target / "postings.bin").write_bytes(b"partial")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(store, "_write_files", explode)
        with pytest.raises(OSError):
            store.publish(corpus_for(2))
        monkeypatch.undo()
        assert store.current_version() == 1
        assert store.load().snapshot_version == 1


class TestConcurrentReaders:
    def test_readers_always_observe_one_complete_version(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(0))
        stop = threading.Event()
        problems: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                index = store.load()
                tags = {doc.classes[0] for doc in index.documents}
                if len(tags) != 1 or tags != {f"tag{index.snapshot_version - 1}"}:
                    problems.append(f"mixed snapshot: version={index.snapshot_version} tags={tags}")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for v in range(1, 21):
                store.publish(corpus_for(v))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert problems == []


def fixture_index():
    return build_corpus_index(load_corpus_file(FIXTURES / "corpus.jsonl"))


def digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


class TestRoundTrip:
    def test_republished_fixture_snapshot_is_byte_identical(self, tmp_path):
        first, second = CorpusSnapshotStore(tmp_path / "a"), CorpusSnapshotStore(tmp_path / "b")
        first.publish(fixture_index())
        second.publish(first.load())
        assert digests(tmp_path / "b" / "1") == digests(tmp_path / "a" / "1")
        assert sorted(digests(tmp_path / "a" / "1")) == ["documents.json", "meta.json", "postings.bin", "terms.json"]

    def test_fixture_snapshot_bytes_are_pinned(self, tmp_path):
        # any change to term extraction or weighting that alters the published
        # bytes must update these digests on purpose; format 1 is written by
        # the reference writer, which the product no longer has
        reference.write_v1(tmp_path, fixture_index())
        v1 = {name: digest for name, digest in digests(tmp_path).items() if name != "meta.json"}
        assert v1 == {
            "docs.jsonl": "40c1248fd6b537d89bbb45e77fcec437d9c9dad96009dbc50fca91263a20d964",
            "idf.json": "c7ac17cb8a492c24d3760e960f1a2a13987f371c2380a1890107a4b3a9b99138",
        }

    def test_fixture_snapshot_v2_bytes_are_pinned(self, tmp_path):
        # postings.bin and meta.json as written on a little-endian machine
        CorpusSnapshotStore(tmp_path).publish(fixture_index())
        assert digests(tmp_path / "1") == {
            "documents.json": "a3eb05de2346c5ca8bb87f68e306d9ed05bc3ade0ad5538f44b0f3a8fb854ba2",
            "meta.json": "2085bb456d21e04fc36f6497c048eb8f2484a09401c177a92afc871ddd9c8b43",
            "postings.bin": "34e8e30512c410bfa722233de6220f0579062595a9d1999dda42211084d3bee6",
            "terms.json": "48299822ba707d2139cd31f4a74b5353cc07d250e0b1887484acf1ac532dde97",
        }


QUERIES = sorted(FIXTURES.glob("*.sol")) + sorted((FIXTURES / "rules").glob("*.sol"))


def generated_corpus(n: int, seed: int) -> list[tuple[str, str, tuple[str, ...], str]]:
    """``n`` documents mixed from the fixture corpus records: one record's
    lines, some lines of another, a few rare terms, and some exact copies."""
    records = load_corpus_file(FIXTURES / "corpus.jsonl")
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        _, label, classes, source = rng.choice(records)
        if docs and rng.random() < 0.05:
            source = rng.choice(docs)[3]
        else:
            lines = source.splitlines() + rng.choice(records)[3].splitlines()[: rng.randrange(8)]
            rng.shuffle(lines)
            source = "\n".join(lines + [f"w{rng.randrange(3000)}" for _ in range(rng.randrange(4))])
        docs.append((f"gen-{i:05d}", label, classes, source))
    return docs


class TestSameResultsAsFormat1:
    """A format-1 snapshot, read by the replaced reader and ranked by the
    replaced ``top_k``, and a format-2 snapshot of the same corpus give the
    same neighbors and bit-identical document norms."""

    @pytest.mark.parametrize("corpus", ["fixture", "generated"])
    def test_top_k_and_norms_match(self, tmp_path, corpus):
        docs = load_corpus_file(FIXTURES / "corpus.jsonl") if corpus == "fixture" else generated_corpus(2_000, seed=5)
        index = build_corpus_index(docs)
        store = CorpusSnapshotStore(tmp_path / "v2")
        store.publish(index)
        v2 = store.load()
        v1 = reference.load_v1(reference.publish_v1(tmp_path / "v1", index))
        assert len(v1.documents) == len(v2.documents) == len(docs) >= (15 if corpus == "fixture" else 2_000)
        norms = [array("d", (doc.norm for doc in snapshot.documents)).tobytes() for snapshot in (v1, v2)]
        assert norms[0] == norms[1]
        assert any(doc.norm != 1.0 for doc in v2.documents)  # so the order of the sum shows
        queries = [load_file(path, path.stem) for path in QUERIES]
        queries += [load_source(doc_id, source) for doc_id, _, _, source in docs[:15]]  # ids in the index
        for query in queries:
            for k in (5, len(docs)):
                assert top_k(query, v2, k) == reference.top_k_v1(query, v1, k), (query.id, k)


def edit_record(path: Path, lineno: int, edit) -> None:
    """Rewrite line ``lineno`` (1-based) of a JSONL file through ``edit``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("".join(lines), encoding="utf-8")


def with_field(mutate):
    def edit(line: str) -> str:
        rec = json.loads(line)
        mutate(rec)
        return json.dumps(rec) + "\n"

    return edit


def truncated(line: str) -> str:
    return line[: len(line) // 2] + "\n"


# postings.bin as documented: these arrays back to back, native byte order
LAYOUT = {"idf": "d", "offsets": "q", "positions": "i", "weights": "d", "norms": "d"}


def set_item(name: str, item: int, value):
    """Overwrite item ``item`` (negative counts from the end) of one array in
    a version's postings.bin."""

    def edit(version: Path) -> None:
        meta = json.loads((version / "meta.json").read_text(encoding="utf-8"))
        terms, postings, documents = meta["terms"], meta["postings"], meta["documents"]
        lengths = {"idf": terms, "offsets": terms + 1, "positions": postings, "weights": postings, "norms": documents}
        names = list(LAYOUT)
        start = sum(struct.calcsize("=" + LAYOUT[n]) * lengths[n] for n in names[: names.index(name)])
        start += struct.calcsize("=" + LAYOUT[name]) * (item % lengths[name])
        data = bytearray((version / "postings.bin").read_bytes())
        struct.pack_into("=" + LAYOUT[name], data, start, value)
        (version / "postings.bin").write_bytes(bytes(data))

    return edit


def edit_json(name: str, edit):
    def apply(version: Path) -> None:
        path = version / name
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")

    return apply


def edit_bytes(name: str, edit):
    def apply(version: Path) -> None:
        (version / name).write_bytes(edit((version / name).read_bytes()))

    return apply


def meta_with(**changes):
    return edit_json("meta.json", lambda meta: {**meta, **changes})


def rows_with(edit_row):
    return edit_json("documents.json", lambda rows: [edit_row(row) for row in rows])


# fault -> (edit of a published corpus_for(1) version directory, the file the
# error must name); corpus_for(1) has 7 terms, 16 postings and 4 documents
CORPUS_FAULTS = {
    "postings.bin truncated": (edit_bytes("postings.bin", lambda data: data[:-1]), "postings.bin"),
    "postings.bin with trailing bytes": (edit_bytes("postings.bin", lambda data: data + bytes(8)), "postings.bin"),
    "meta.json counts a posting too many": (meta_with(postings=17), "postings.bin"),
    "meta.json counts a term too few": (meta_with(terms=6), "terms.json"),
    "meta.json counts a document too many": (meta_with(documents=5), "documents.json"),
    "meta.json without a count": (edit_json("meta.json", lambda meta: {k: v for k, v in meta.items() if k != "terms"}), "meta.json"),
    "meta.json count not a number": (meta_with(postings="heavy"), "meta.json"),
    "meta.json count a boolean": (meta_with(documents=True), "meta.json"),
    "meta.json count negative": (meta_with(documents=-1), "meta.json"),
    "meta.json item sizes": (meta_with(itemsize=dict.fromkeys(LAYOUT, 8)), "meta.json"),
    "meta.json byte order": (meta_with(byteorder="big" if sys.byteorder == "little" else "little"), "meta.json"),
    "meta.json format version 3": (meta_with(format_version=3), "meta.json"),
    "meta.json format version a string": (meta_with(format_version="2"), "meta.json"),
    "idf NaN": (set_item("idf", 0, math.nan), "postings.bin"),
    "idf negative": (set_item("idf", -1, -0.5), "postings.bin"),
    "weight NaN": (set_item("weights", 3, math.nan), "postings.bin"),
    "weight negative": (set_item("weights", -1, -0.5), "postings.bin"),
    "weight infinite": (set_item("weights", 0, math.inf), "postings.bin"),
    "norm NaN": (set_item("norms", 0, math.nan), "postings.bin"),
    "norm negative": (set_item("norms", 2, -1.0), "postings.bin"),
    "position past the documents": (set_item("positions", 5, 4), "postings.bin"),
    "position negative": (set_item("positions", 0, -1), "postings.bin"),
    "offsets decreasing": (set_item("offsets", 4, 9), "postings.bin"),
    "offsets not from 0": (set_item("offsets", 0, 1), "postings.bin"),
    "terms.json one term short": (edit_json("terms.json", lambda terms: terms[:-1]), "terms.json"),
    "terms.json repeating a term": (edit_json("terms.json", lambda terms: terms[:-1] + terms[:1]), "terms.json"),
    "terms.json not an array": (edit_json("terms.json", lambda terms: dict.fromkeys(terms, 1)), "terms.json"),
    "terms.json truncated": (edit_bytes("terms.json", lambda data: data[: len(data) // 2]), "terms.json"),
    "documents.json one row short": (edit_json("documents.json", lambda rows: rows[:-1]), "documents.json"),
    "documents.json row without classes": (rows_with(lambda row: row[:2]), "documents.json"),
    "documents.json classes a string": (rows_with(lambda row: [*row[:2], "tag1"]), "documents.json"),
    "documents.json id a number": (rows_with(lambda row: [7, *row[1:]]), "documents.json"),
    "documents.json row not an array": (rows_with(lambda row: dict(zip(("id", "label", "classes"), row))), "documents.json"),
    "documents.json not an array": (edit_json("documents.json", lambda rows: {"rows": rows}), "documents.json"),
    "documents.json truncated": (edit_bytes("documents.json", lambda data: data[: len(data) // 2]), "documents.json"),
}

KB_FAULTS = {
    "truncated line": truncated,
    "missing key": with_field(lambda rec: rec.pop("text")),
    "non-numeric embedding": with_field(lambda rec: rec.update(embedding=["x"] * len(rec["embedding"]))),
    "embedding one number short": with_field(lambda rec: rec.update(embedding=rec["embedding"][:-1])),
}


class TestCorruptRecords:
    @pytest.mark.parametrize("fault", sorted(CORPUS_FAULTS))
    def test_corpus_file_fault_names_the_file(self, tmp_path, fault):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        edit, name = CORPUS_FAULTS[fault]
        edit(tmp_path / "1")
        with pytest.raises(SnapshotError, match=re.escape(f"snapshot file {tmp_path / '1' / name} ")):
            store.load()

    def test_published_corpus_matches_the_fault_table(self, tmp_path):
        CorpusSnapshotStore(tmp_path).publish(corpus_for(1))
        meta = json.loads((tmp_path / "1" / "meta.json").read_text(encoding="utf-8"))
        assert (meta["terms"], meta["postings"], meta["documents"]) == (7, 16, 4)
        offsets = struct.unpack_from("=8q", (tmp_path / "1" / "postings.bin").read_bytes(), 7 * 8)
        assert offsets == (0, 1, 2, 3, 4, 8, 12, 16)  # so offsets[4] = 9 decreases

    def test_format1_version_asks_for_kb_update(self, tmp_path):
        version = reference.publish_v1(tmp_path, corpus_for(1))
        store = CorpusSnapshotStore(tmp_path)
        with pytest.raises(
            SnapshotError, match=re.escape(f"snapshot file {version / 'meta.json'} names format 1, not 2: ") + ".*kb update"
        ):
            store.load()
        assert store.publish(corpus_for(2)) == 2  # what `kb update` does
        assert store.load().documents[0].classes == ("tag2",)

    @pytest.mark.parametrize("fault", sorted(KB_FAULTS))
    def test_kb_line_fault_names_file_and_line(self, tmp_path, fault):
        store = KbSnapshotStore(tmp_path)
        docs = [KbDocument(f"d{i}", f"alpha beta {i}", {}) for i in range(3)]
        store.publish(build_kb_index(docs, HashingEmbedder()))
        edit_record(tmp_path / "1" / "chunks.jsonl", 2, KB_FAULTS[fault])
        with pytest.raises(SnapshotError, match=r"chunks\.jsonl:2: "):
            store.load()


def kb_store_with_docs(root: Path) -> KbSnapshotStore:
    store = KbSnapshotStore(root)
    store.publish(build_kb_index([KbDocument("d", "alpha beta", {})], HashingEmbedder()))
    return store


def set_kb_embedder(meta_path: Path, embedder_id: str) -> None:
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["embedder"] = embedder_id
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


class TestCorruptMeta:
    @pytest.mark.parametrize("kind", ["corpus", "kb"])
    @pytest.mark.parametrize("payload", ["[1]", '"text"', "3"])
    def test_non_object_meta_names_file(self, tmp_path, kind, payload):
        if kind == "corpus":
            store = CorpusSnapshotStore(tmp_path)
            store.publish(corpus_for(1))
        else:
            store = kb_store_with_docs(tmp_path)
        meta = tmp_path / "1" / "meta.json"
        meta.write_text(payload, encoding="utf-8")
        with pytest.raises(SnapshotError, match=f"{meta}.*not a JSON object"):
            store.load()

    def test_kb_embedding_dimension_other_than_the_embedder_names_first_line(self, tmp_path):
        store = kb_store_with_docs(tmp_path)
        set_kb_embedder(tmp_path / "1" / "meta.json", "hash-bow-64-v1")
        with pytest.raises(SnapshotError, match=r"chunks\.jsonl:1: .*64 numbers"):
            store.load()

    @pytest.mark.parametrize("embedder", ["letters-v1", "hash-bow-x-v1", "hash-bow-0-v1"])
    def test_kb_meta_naming_an_unknown_embedder_names_file(self, tmp_path, embedder):
        store = kb_store_with_docs(tmp_path)
        meta_path = tmp_path / "1" / "meta.json"
        set_kb_embedder(meta_path, embedder)
        with pytest.raises(SnapshotError, match=f"{meta_path} cannot be loaded: unknown embedder"):
            store.load()

    def test_snapshot_of_a_custom_embedder_fails_to_load(self, tmp_path):
        class Letters:
            embedder_id = "letters-v1"
            dim = 2

            def embed(self, text: str):
                return [text.count("a") + 0.0, text.count("b") + 0.0]

        store = KbSnapshotStore(tmp_path)
        store.publish(build_kb_index([KbDocument("d", "a b", {})], Letters()))
        with pytest.raises(SnapshotError, match="unknown embedder 'letters-v1'"):
            store.load()

    @pytest.mark.parametrize("embedder", [None, 7])
    def test_kb_meta_without_embedder_name_names_file(self, tmp_path, embedder):
        store = kb_store_with_docs(tmp_path)
        meta_path = tmp_path / "1" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if embedder is None:
            del meta["embedder"]
        else:
            meta["embedder"] = embedder
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SnapshotError, match=f"{meta_path}.*embedder"):
            store.load()


class TestUnreadableFiles:
    @pytest.mark.parametrize("name", ["meta.json", "terms.json", "documents.json", "postings.bin"])
    def test_directory_in_place_of_a_snapshot_file_names_it(self, tmp_path, name):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        path = tmp_path / "1" / name
        path.unlink()
        path.mkdir()
        with pytest.raises(SnapshotError, match=str(path)):
            store.load()

    def test_directory_in_place_of_the_pointer_names_it(self, tmp_path):
        (tmp_path / "CURRENT").mkdir()
        with pytest.raises(SnapshotError, match=str(tmp_path / "CURRENT")):
            CorpusSnapshotStore(tmp_path).current_version()
