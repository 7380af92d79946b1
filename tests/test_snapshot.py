from __future__ import annotations

import dataclasses
import gc
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
from solguard.jsonl import load_labeled_records
from solguard.retrieval.kb import KbDocument, build_kb_index, kb_search, load_kb_documents
from solguard.retrieval import snapshot
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, top_k
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
        index = build_kb_index([KbDocument("d", "alpha beta gamma")])
        store.publish(index)
        loaded = store.load()
        assert loaded == dataclasses.replace(index, snapshot_version=1)
        assert loaded.chunks[0].text == "alpha beta gamma"

    def test_kb_snapshot_stores_text_and_a_load_indexes_it_as_the_build_did(self, tmp_path):
        store = KbSnapshotStore(tmp_path)
        index = build_kb_index(load_kb_documents(FIXTURES / "kb_docs"))
        store.publish(index)
        lines = (tmp_path / "1" / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
        assert [sorted(json.loads(line)) for line in lines] == [["chunk_index", "doc_id", "swc_tags", "text"]] * len(index.chunks)
        loaded = store.load()
        assert loaded.tfidf.ids == index.tfidf.ids and loaded.tfidf.term_ids == index.tfidf.term_ids
        assert [getattr(loaded.tfidf, name).tobytes() for name in LAYOUT] == [
            getattr(index.tfidf, name).tobytes() for name in LAYOUT
        ]  # bit for bit, where == would take -0.0 for 0.0
        assert loaded == dataclasses.replace(index, snapshot_version=1)

    def test_kb_tags_round_trip_and_rank_the_loaded_index(self, tmp_path):
        store = KbSnapshotStore(tmp_path)
        index = build_kb_index([KbDocument("a", "alpha", ("SWC-1", "SWC-2")), KbDocument("b", "beta alpha")])
        store.publish(index)
        lines = (tmp_path / "1" / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["swc_tags"] for line in lines] == [["SWC-1", "SWC-2"], []]
        loaded = store.load()
        assert [c.swc_tags for c in loaded.chunks] == [("SWC-1", "SWC-2"), ()]
        assert [c.doc_id for c in kb_search("beta", loaded, 3)] == ["b"]
        for tag in ("SWC-1", "SWC-2"):
            assert [c.doc_id for c in kb_search("beta", loaded, 3, tag)] == ["a", "b"]

    def test_versions_increment_and_old_reader_keeps_its_snapshot(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        reader_version = store.current_version()
        held = store.load_version(reader_version)
        store.publish(corpus_for(2))
        assert store.current_version() == 2
        # the held snapshot is untouched by the publish
        assert held.classes[0] == ("tag1",)
        assert store.load().classes[0] == ("tag2",)

    def test_load_without_publish(self, tmp_path):
        assert CorpusSnapshotStore(tmp_path).load() is None

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
        assert store.load().classes[0] == ("tag1",)
        # and the next publish still finds a fresh version number
        assert store.publish(corpus_for(3)) == 3

    def test_crash_during_payload_write_leaves_previous_live(self, tmp_path, monkeypatch):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))

        def explode(target, index, version) -> None:
            (target / "postings.bin").write_bytes(b"partial")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(store, "_write_files", explode)
        with pytest.raises(SnapshotError, match=re.escape(f"cannot write snapshot {tmp_path / '2'}: simulated crash")):
            store.publish(corpus_for(2))
        monkeypatch.undo()
        assert store.current_version() == 1
        assert store.load().snapshot_version == 1


class TestPublishOrder:
    def test_a_publish_started_while_another_writes_waits_for_it(self, tmp_path, monkeypatch):
        store = KbSnapshotStore(tmp_path)
        store.publish(build_kb_index([KbDocument("first", "alpha")]))
        writing, release = threading.Event(), threading.Event()
        write = KbSnapshotStore._write_files

        def paused(self, target, index, version):
            if index.chunks[0].doc_id == "a":  # publish A pauses mid-write
                writing.set()
                release.wait(10)
            write(self, target, index, version)

        monkeypatch.setattr(KbSnapshotStore, "_write_files", paused)
        versions: dict[str, int] = {}

        def publish(doc_id: str) -> None:
            versions[doc_id] = KbSnapshotStore(tmp_path).publish(build_kb_index([KbDocument(doc_id, "alpha")]))

        a, b = (threading.Thread(target=publish, args=(doc_id,)) for doc_id in "ab")
        a.start()
        assert writing.wait(10)
        b.start()
        b.join(0.5)  # unordered, B would publish version 3 meanwhile, and A's swap then set CURRENT back to 2
        release.set()
        a.join(10)
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert versions == {"a": 2, "b": 3}
        assert store.current_version() == 3
        assert [c.doc_id for c in store.load().chunks] == ["b"]

    def test_a_lock_that_fails_is_an_error_naming_it_and_the_pointer_stays(self, tmp_path, monkeypatch):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))

        def refuse(fh, operation):
            raise OSError(37, "No locks available")

        monkeypatch.setattr(snapshot.fcntl, "flock", refuse)
        with pytest.raises(SnapshotError, match=re.escape(f"cannot lock {tmp_path / 'CURRENT.lock'}: ")):
            store.publish(corpus_for(2))
        assert store.versions() == [1] and store.current_version() == 1

    def test_without_fcntl_a_publish_takes_no_lock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot, "fcntl", None)
        store = CorpusSnapshotStore(tmp_path / "corpus")
        assert store.publish(corpus_for(1)) == 1
        assert sorted(p.name for p in store.root.iterdir()) == ["1", "CURRENT"]


class TestConcurrentReaders:
    def test_readers_always_observe_one_complete_version(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(0))
        stop = threading.Event()
        problems: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                index = store.load()
                tags = {classes[0] for classes in index.classes}
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
    return build_corpus_index(load_labeled_records(FIXTURES / "corpus.jsonl"))


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

    def test_fixture_snapshot_v4_bytes_are_pinned(self, tmp_path):
        # postings.bin and meta.json as written on a little-endian machine
        CorpusSnapshotStore(tmp_path).publish(fixture_index())
        assert digests(tmp_path / "1") == {
            "documents.json": "a3eb05de2346c5ca8bb87f68e306d9ed05bc3ade0ad5538f44b0f3a8fb854ba2",
            "meta.json": "f69072fb1c3e359f9c59267e2890a9ccd588cd88374d2e204fbf315d596f3f72",
            "postings.bin": "16a2343daf624efd85ac7357d0a5d4d26aef3f58dd7af8985ceb8311b7ec62ae",
            "terms.json": "48299822ba707d2139cd31f4a74b5353cc07d250e0b1887484acf1ac532dde97",
        }
        # format 4 writes format 3's data files, and meta.json records their digests
        meta = json.loads((tmp_path / "1" / "meta.json").read_text(encoding="utf-8"))
        assert meta["sha256"] == {name: d for name, d in digests(tmp_path / "1").items() if name != "meta.json"}
        # format 3 appends one float64 per document to format 2's postings.bin,
        # whose bytes stay what format 2 wrote
        postings = (tmp_path / "1" / "postings.bin").read_bytes()
        format2 = postings[: -8 * len(fixture_index().ids)]
        assert hashlib.sha256(format2).hexdigest() == "34e8e30512c410bfa722233de6220f0579062595a9d1999dda42211084d3bee6"

    def test_fixture_kb_snapshot_bytes_are_pinned(self, tmp_path):
        KbSnapshotStore(tmp_path).publish(build_kb_index(load_kb_documents(FIXTURES / "kb_docs")))
        assert digests(tmp_path / "1") == {
            "chunks.jsonl": "ce213a1b5d437cee648c7d8c06ac98e475a868a3e64d02e86fb2b69bdc3d62b1",
            "meta.json": "4b65409e6a080d07e61d50051805916f588d148aa3b7b7201f1f40925484577a",
        }
        meta = json.loads((tmp_path / "1" / "meta.json").read_text(encoding="utf-8"))
        chunks = digests(tmp_path / "1")["chunks.jsonl"]
        assert meta == {"format_version": 4, "kind": "kb", "sha256": {"chunks.jsonl": chunks}, "version": 1}


QUERIES = sorted(FIXTURES.glob("*.sol")) + sorted((FIXTURES / "rules").glob("*.sol"))


def generated_corpus(n: int, seed: int) -> list[tuple[str, str, tuple[str, ...], str]]:
    """``n`` documents mixed from the fixture corpus records: one record's
    lines, some lines of another, a few rare terms, and some exact copies."""
    records = load_labeled_records(FIXTURES / "corpus.jsonl")
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        _, label, classes, source, _ = rng.choice(records)
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
        docs = load_labeled_records(FIXTURES / "corpus.jsonl") if corpus == "fixture" else generated_corpus(2_000, seed=5)
        index = build_corpus_index(docs)
        store = CorpusSnapshotStore(tmp_path / "v2")
        store.publish(index)
        v2 = store.load()
        v1 = reference.load_v1(reference.publish_v1(tmp_path / "v1", index))
        assert len(v1.documents) == len(v2.ids) == len(docs) >= (15 if corpus == "fixture" else 2_000)
        assert array("d", (doc.norm for doc in v1.documents)).tobytes() == v2.norms.tobytes()
        assert any(norm != 1.0 for norm in v2.norms)  # so the order of the sum shows
        queries = [load_file(path, path.stem) for path in QUERIES]
        queries += [load_source(doc[0], doc[3]) for doc in docs[:15]]  # ids in the index
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


def write_kb_v1(root: Path, docs: list[KbDocument]) -> Path:
    """Publish ``docs`` as KB format 1 wrote them: each chunk line with its
    embedding and the document's preamble metadata, and meta.json naming the
    embedder but no format; returns the version directory."""
    version = root / "1"
    version.mkdir(parents=True)
    chunks = build_kb_index(docs).chunks
    rows = [{**dataclasses.asdict(c), "embedding": [0.0] * 256, "metadata": {}} for c in chunks]
    (version / "chunks.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    meta = {"kind": "kb", "version": 1, "embedder": "hash-bow-256-v1", "documents": len(docs), "chunks": len(chunks)}
    (version / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (root / "CURRENT").write_text("1\n", encoding="utf-8")
    return version


def truncated(line: str) -> str:
    return line[: len(line) // 2] + "\n"


# postings.bin as documented: these arrays back to back, native byte order
LAYOUT = {"idf": "d", "offsets": "q", "positions": "i", "weights": "d", "norms": "d", "common_norms": "d"}


def read_postings(version: Path) -> dict[str, array]:
    """The arrays of a version's postings.bin, cut by the counts in its meta.json."""
    meta = json.loads((version / "meta.json").read_text(encoding="utf-8"))
    terms, postings, documents = meta["terms"], meta["postings"], meta["documents"]
    lengths = (terms, terms + 1, postings, postings, documents, documents)
    data, arrays, start = (version / "postings.bin").read_bytes(), {}, 0
    for (name, typecode), length in zip(LAYOUT.items(), lengths):
        arrays[name] = array(typecode, data[start : start + array(typecode).itemsize * length])
        start += arrays[name].itemsize * length
    return arrays


def write_postings(version: Path, arrays: dict[str, array]) -> None:
    (version / "postings.bin").write_bytes(b"".join(arrays[name].tobytes() for name in LAYOUT))


def set_item(name: str, item: int, value):
    """Overwrite item ``item`` (negative counts from the end) of one array in
    a version's postings.bin."""

    def edit(version: Path) -> None:
        arrays = read_postings(version)
        arrays[name][item] = value
        write_postings(version, arrays)

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


def meta_without(key: str):
    return edit_json("meta.json", lambda meta: {k: v for k, v in meta.items() if k != key})


def digest_recorded(name: str, digest):
    """meta.json recording ``digest(the recorded digests)`` for the data file ``name``."""
    return edit_json("meta.json", lambda meta: {**meta, "sha256": {**meta["sha256"], name: digest(meta["sha256"])}})


def rows_with(edit_row):
    return edit_json("documents.json", lambda rows: [edit_row(row) for row in rows])


def redigest(version: Path) -> None:
    """Record in meta.json the sha256 of each data file as it now stands, so
    that a load of an edited file passes the digest and reaches the check
    behind it, as a file that its writer got wrong would."""
    edit_json("meta.json", lambda meta: {
        **meta, "sha256": {name: hashlib.sha256((version / name).read_bytes()).hexdigest() for name in meta["sha256"]},
    })(version)


def redigested(edit):
    def apply(version: Path) -> None:
        edit(version)
        redigest(version)

    return apply


DIGEST = "its sha256 is "  # what a load says of a data file whose digest meta.json does not record
JSON_ERROR = "line 1 column "

# fault -> (edit of a published corpus_for(1) version directory, the file the
# error must name, what it says of it); corpus_for(1) has 7 terms, 16 postings
# and 4 documents. A value edit meets the digest; an edit that redigests
# reaches the structural check that guards against another machine or writer.
CORPUS_FAULTS = {
    "postings.bin truncated": (
        redigested(edit_bytes("postings.bin", lambda data: data[:-1])), "postings.bin", "bytes, but",
    ),
    "postings.bin with trailing bytes": (
        redigested(edit_bytes("postings.bin", lambda data: data + bytes(8))), "postings.bin", "bytes, but",
    ),
    "meta.json counts a posting too many": (meta_with(postings=17), "postings.bin", "bytes, but"),
    "meta.json counts a term too few": (meta_with(terms=6), "terms.json", "distinct terms"),
    "meta.json counts a document too many": (meta_with(documents=5), "documents.json", "rows of strings"),
    "meta.json without a count": (meta_without("terms"), "meta.json", "needs a terms key"),
    "meta.json count not a number": (meta_with(postings="heavy"), "meta.json", "must be a whole number"),
    "meta.json count a boolean": (meta_with(documents=True), "meta.json", "must be a whole number"),
    "meta.json count negative": (meta_with(documents=-1), "meta.json", "must be a whole number"),
    "meta.json item sizes": (meta_with(itemsize=dict.fromkeys(LAYOUT, 8)), "meta.json", "this machine reads"),
    "meta.json byte order": (
        meta_with(byteorder="big" if sys.byteorder == "little" else "little"), "meta.json", "this machine reads",
    ),
    "meta.json format version 3": (meta_with(format_version=3), "meta.json", "names format 3, not 4"),
    "meta.json format version 5": (meta_with(format_version=5), "meta.json", "names format 5, not 4"),
    "meta.json format version a string": (meta_with(format_version="4"), "meta.json", "names format '4', not 4"),
    "meta.json without digests": (meta_without("sha256"), "meta.json", "needs a sha256 key"),
    "meta.json digests not a mapping": (meta_with(sha256=[]), "meta.json", "sha256 must be a mapping"),
    "meta.json without the digest of one file": (
        digest_recorded("terms.json", lambda recorded: None), "terms.json", "but meta.json records None",
    ),
    "meta.json with another file's digest": (
        digest_recorded("postings.bin", lambda recorded: recorded["terms.json"]), "postings.bin", DIGEST,
    ),
    "idf NaN": (set_item("idf", 0, math.nan), "postings.bin", DIGEST),
    "idf negative": (set_item("idf", -1, -0.5), "postings.bin", DIGEST),
    "weight NaN": (set_item("weights", 3, math.nan), "postings.bin", DIGEST),
    "weight negative": (set_item("weights", -1, -0.5), "postings.bin", DIGEST),
    "weight infinite": (set_item("weights", 0, math.inf), "postings.bin", DIGEST),
    "norm NaN": (set_item("norms", 0, math.nan), "postings.bin", DIGEST),
    "norm negative": (set_item("norms", 2, -1.0), "postings.bin", DIGEST),
    "common norm NaN": (set_item("common_norms", 1, math.nan), "postings.bin", DIGEST),
    "common norm negative": (set_item("common_norms", -1, -1.0), "postings.bin", DIGEST),
    "position past the documents": (set_item("positions", 5, 4), "postings.bin", DIGEST),
    "position negative": (set_item("positions", 0, -1), "postings.bin", DIGEST),
    "offsets decreasing": (set_item("offsets", 4, 9), "postings.bin", DIGEST),
    "offsets not from 0": (set_item("offsets", 0, 1), "postings.bin", DIGEST),
    "terms.json one term short": (
        redigested(edit_json("terms.json", lambda terms: terms[:-1])), "terms.json", "distinct terms",
    ),
    "terms.json repeating a term": (
        redigested(edit_json("terms.json", lambda terms: terms[:-1] + terms[:1])), "terms.json", "distinct terms",
    ),
    "terms.json not an array": (
        redigested(edit_json("terms.json", lambda terms: dict.fromkeys(terms, 1))), "terms.json", "not a JSON array",
    ),
    "terms.json truncated": (
        redigested(edit_bytes("terms.json", lambda data: data[: len(data) // 2])), "terms.json", JSON_ERROR,
    ),
    "documents.json one row short": (
        redigested(edit_json("documents.json", lambda rows: rows[:-1])), "documents.json", "rows of strings",
    ),
    "documents.json row without classes": (
        redigested(rows_with(lambda row: row[:2])), "documents.json", "rows of strings",
    ),
    "documents.json classes a string": (
        redigested(rows_with(lambda row: [*row[:2], "tag1"])), "documents.json", "rows of strings",
    ),
    "documents.json id a number": (
        redigested(rows_with(lambda row: [7, *row[1:]])), "documents.json", "rows of strings",
    ),
    "documents.json row not an array": (
        redigested(rows_with(lambda row: dict(zip(("id", "label", "classes"), row)))), "documents.json",
        "rows of strings",
    ),
    "documents.json not an array": (
        redigested(edit_json("documents.json", lambda rows: {"rows": rows})), "documents.json", "not a JSON array",
    ),
    "documents.json truncated": (
        redigested(edit_bytes("documents.json", lambda data: data[: len(data) // 2])), "documents.json", JSON_ERROR,
    ),
}

KB_FAULTS = {
    "truncated line": truncated,
    "missing key": with_field(lambda rec: rec.pop("text")),
    "text a number": with_field(lambda rec: rec.update(text=7)),
    "chunk_index negative": with_field(lambda rec: rec.update(chunk_index=-1)),
    "an undeclared key": with_field(lambda rec: rec.update(embedding=[0.0] * 256)),
}


def published(kind: str, root: Path) -> CorpusSnapshotStore | KbSnapshotStore:
    """A store of ``kind`` under ``root`` with version 1 published: corpus_for(1), or the fixture KB."""
    if kind == "corpus":
        store = CorpusSnapshotStore(root)
        store.publish(corpus_for(1))
    else:
        store = KbSnapshotStore(root)
        store.publish(build_kb_index(load_kb_documents(FIXTURES / "kb_docs")))
    return store


class TestCorruptRecords:
    @pytest.mark.parametrize("fault", sorted(CORPUS_FAULTS))
    def test_corpus_file_fault_names_the_file(self, tmp_path, fault):
        store = published("corpus", tmp_path)
        edit, name, says = CORPUS_FAULTS[fault]
        edit(tmp_path / "1")
        message = re.escape(f"snapshot file {tmp_path / '1' / name} ") + ".*" + re.escape(says)
        with pytest.raises(SnapshotError, match=message):
            store.load()

    def test_published_corpus_matches_the_fault_table(self, tmp_path):
        CorpusSnapshotStore(tmp_path).publish(corpus_for(1))
        meta = json.loads((tmp_path / "1" / "meta.json").read_text(encoding="utf-8"))
        assert (meta["terms"], meta["postings"], meta["documents"]) == (7, 16, 4)
        offsets = struct.unpack_from("=8q", (tmp_path / "1" / "postings.bin").read_bytes(), 7 * 8)
        assert offsets == (0, 1, 2, 3, 4, 8, 12, 16)  # so offsets[4] = 9 decreases
        assert read_postings(tmp_path / "1")["offsets"].tolist() == list(offsets)

    @pytest.mark.parametrize("kind, name", [
        ("corpus", "terms.json"), ("corpus", "documents.json"), ("corpus", "postings.bin"), ("kb", "chunks.jsonl"),
    ])
    def test_any_flipped_byte_of_a_data_file_is_refused_naming_it(self, tmp_path, kind, name):
        store = published(kind, tmp_path)
        path = tmp_path / "1" / name
        original = path.read_bytes()
        for at in range(len(original)):
            flipped = bytearray(original)
            flipped[at] ^= 0x01
            path.write_bytes(flipped)
            with pytest.raises(SnapshotError, match=re.escape(f"snapshot file {path} is corrupt: {DIGEST}")):
                store.load()
        path.write_bytes(original)
        assert store.load().snapshot_version == 1

    @pytest.mark.parametrize("kind", ["corpus", "kb"])
    def test_a_publish_hashes_its_files_as_it_writes_them(self, tmp_path, monkeypatch, kind):
        def read_back(path: Path) -> str:
            raise AssertionError(f"publish read back {path}")

        sha256 = snapshot._sha256
        monkeypatch.setattr(snapshot, "_sha256", read_back)
        store = published(kind, tmp_path)
        monkeypatch.undo()
        version = tmp_path / "1"
        meta = json.loads((version / "meta.json").read_text(encoding="utf-8"))
        assert meta["sha256"] == {name: d for name, d in digests(version).items() if name != "meta.json"}
        hashed: list[str] = []
        monkeypatch.setattr(snapshot, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
        assert store.load().snapshot_version == 1
        assert hashed == list(store.files)  # the load still checks every data file

    def test_a_common_terms_positions_reversed_is_refused(self, tmp_path):
        # top_k bisects each term's ascending positions and bounds a document
        # by its common norm; six documents that all hold `shared`, each
        # with its own term, and the postings of `shared` reversed in place,
        # weights with them: every value stays finite, in range and in count
        store = CorpusSnapshotStore(tmp_path)
        store.publish(build_corpus_index([
            (f"d{i}", "safe", (), f"contract C{i} {{ uint shared; uint own{i}; }}" + " shared" * i) for i in range(6)
        ]))
        version = tmp_path / "1"
        arrays = read_postings(version)
        term = json.loads((version / "terms.json").read_text(encoding="utf-8")).index("shared")
        common = slice(arrays["offsets"][term], arrays["offsets"][term + 1])
        assert arrays["positions"][common].tolist() == list(range(6))
        assert len(set(arrays["weights"][common])) == 6  # so the reversal moves every weight
        for name in ("positions", "weights"):
            arrays[name][common] = array(LAYOUT[name], reversed(arrays[name][common]))
        write_postings(version, arrays)
        message = f"snapshot file {version / 'postings.bin'} is corrupt: {DIGEST}"
        with pytest.raises(SnapshotError, match=re.escape(message)):
            store.load()

    def test_format1_version_asks_for_kb_update(self, tmp_path):
        version = reference.publish_v1(tmp_path, corpus_for(1))
        store = CorpusSnapshotStore(tmp_path)
        with pytest.raises(
            SnapshotError, match=re.escape(f"snapshot file {version / 'meta.json'} names format 1, not 4: ") + ".*kb update"
        ):
            store.load()
        assert store.publish(corpus_for(2)) == 2  # what `kb update` does
        assert store.load().classes[0] == ("tag2",)

    def test_format2_version_asks_for_kb_update(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        version = tmp_path / "1"
        # format 2 is format 3 without the trailing common_norms, one float64
        # per document, and format 3 is format 4 without the digests
        edit_bytes("postings.bin", lambda data: data[: -8 * 4])(version)
        meta_without("sha256")(version)
        meta_with(format_version=2)(version)
        message = f"snapshot file {version / 'meta.json'} names format 2, not 4: "
        with pytest.raises(SnapshotError, match=re.escape(message + "republish the corpus with `solguard kb update --corpus <file>`")):
            store.load()
        assert store.publish(corpus_for(2)) == 2
        assert store.load().classes[0] == ("tag2",)

    def test_format1_kb_version_asks_for_kb_update(self, tmp_path):
        store = KbSnapshotStore(tmp_path)
        version = write_kb_v1(tmp_path, [KbDocument("d", "alpha beta")])
        message = f"snapshot file {version / 'meta.json'} names format 1, not 4: "
        with pytest.raises(SnapshotError, match=re.escape(message + "republish the knowledge base with `solguard kb update --docs <dir>`")):
            store.load()
        assert store.publish(build_kb_index([KbDocument("e", "gamma")])) == 2  # what `kb update --docs` does
        assert [c.doc_id for c in store.load().chunks] == ["e"]

    def test_format2_kb_version_asks_for_kb_update(self, tmp_path):
        store = published("kb", tmp_path)
        version = tmp_path / "1"
        # format 2 wrote the same chunks.jsonl, and meta.json with counts in place of the digest
        meta_v2 = {"kind": "kb", "version": 1, "format_version": 2, "documents": 6, "chunks": 6}
        (version / "meta.json").write_text(json.dumps(meta_v2), encoding="utf-8")
        message = f"snapshot file {version / 'meta.json'} names format 2, not 4: "
        with pytest.raises(SnapshotError, match=re.escape(message + "republish the knowledge base with `solguard kb update --docs <dir>`")):
            store.load()

    def test_format3_kb_version_asks_for_kb_update(self, tmp_path):
        store = published("kb", tmp_path)
        version = tmp_path / "1"
        # format 3 wrote each chunks.jsonl line without its document's swc_tags
        path = version / "chunks.jsonl"
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text(
            "".join(json.dumps({k: v for k, v in line.items() if k != "swc_tags"}) + "\n" for line in lines), encoding="utf-8"
        )
        redigest(version)
        meta_with(format_version=3)(version)
        message = f"snapshot file {version / 'meta.json'} names format 3, not 4: "
        with pytest.raises(SnapshotError, match=re.escape(message + "republish the knowledge base with `solguard kb update --docs <dir>`")):
            store.load()
        assert store.publish(build_kb_index(load_kb_documents(FIXTURES / "kb_docs"))) == 2  # what `kb update --docs` does
        assert [c.doc_id for c in kb_search("", store.load(), 1, "SWC-106")] == ["access_control"]

    @pytest.mark.parametrize("fault", sorted(KB_FAULTS))
    def test_kb_line_fault_names_file_and_line(self, tmp_path, fault):
        store = KbSnapshotStore(tmp_path)
        docs = [KbDocument(f"d{i}", f"alpha beta {i}") for i in range(3)]
        store.publish(build_kb_index(docs))
        edit_record(tmp_path / "1" / "chunks.jsonl", 2, KB_FAULTS[fault])
        redigest(tmp_path / "1")
        with pytest.raises(SnapshotError, match=r"chunks\.jsonl:2: "):
            store.load()

    @pytest.mark.parametrize("lines", [[0, 1], [0, 0, 0], [0, 0, 2, 3, 4, 5]], ids=["2 of 6", "3 copies", "a copy"])
    def test_kb_chunks_dropped_or_repeated_fail_the_digest(self, tmp_path, lines):
        store = published("kb", tmp_path)
        path = tmp_path / "1" / "chunks.jsonl"
        records = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(records[i] for i in lines), encoding="utf-8")
        with pytest.raises(SnapshotError, match=re.escape(f"snapshot file {path} is corrupt: {DIGEST}")):
            store.load()


class TestGarbageCollector:
    """A load pauses the cyclic collector and gives the caller back its setting."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_survives_a_good_and_a_corrupt_load(self, tmp_path, enabled):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert store.load().snapshot_version == 1
            assert gc.isenabled() is enabled
            set_item("norms", 0, math.nan)(tmp_path / "1")
            with pytest.raises(SnapshotError, match=DIGEST):
                store.load()
            assert gc.isenabled() is enabled
            redigest(tmp_path / "1")
            meta_with(documents=5)(tmp_path / "1")  # so the fault is met while the files are read
            with pytest.raises(SnapshotError, match="rows of strings"):
                store.load()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_the_collector_is_paused_while_the_files_are_read(self, tmp_path, monkeypatch):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        seen: list[bool] = []
        read = CorpusSnapshotStore._read_files

        def spy(self, target, meta):
            seen.append(gc.isenabled())
            return read(self, target, meta)

        monkeypatch.setattr(CorpusSnapshotStore, "_read_files", spy)
        assert gc.isenabled()
        store.load()
        assert seen == [False] and gc.isenabled()


def kb_store_with_docs(root: Path) -> KbSnapshotStore:
    store = KbSnapshotStore(root)
    store.publish(build_kb_index([KbDocument("d", "alpha beta")]))
    return store


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
