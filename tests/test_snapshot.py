from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from pathlib import Path

import pytest

from solguard.errors import SnapshotError
from solguard.retrieval.kb import HashingEmbedder, KbDocument, build_kb_index
from solguard.retrieval.snapshot import CorpusSnapshotStore, KbSnapshotStore
from solguard.retrieval.tfidf import build_corpus_index, load_corpus_file

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
    def test_round_trip_reproduces_vectors(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        index = corpus_for(1)
        version = store.publish(index)
        assert version == 1
        loaded = store.load()
        assert loaded.snapshot_version == 1
        assert loaded.idf == pytest.approx(index.idf, abs=1e-9)
        pairs = zip(loaded.documents, loaded.document_weights(), index.documents, index.document_weights())
        for got, got_weights, want, want_weights in pairs:
            assert got.id == want.id and got.label == want.label and got.classes == want.classes
            assert set(got_weights) == set(want_weights)
            for term, w in want_weights.items():
                assert got_weights[term] == pytest.approx(w, abs=1e-9)

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
            (target / "docs.jsonl").write_text("partial", encoding="utf-8")
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


class TestRoundTrip:
    def test_republished_fixture_snapshot_is_byte_identical(self, tmp_path):
        first, second = CorpusSnapshotStore(tmp_path / "a"), CorpusSnapshotStore(tmp_path / "b")
        first.publish(build_corpus_index(load_corpus_file(FIXTURES / "corpus.jsonl")))
        second.publish(first.load())
        for name in ("docs.jsonl", "idf.json"):
            assert (tmp_path / "b" / "1" / name).read_bytes() == (tmp_path / "a" / "1" / name).read_bytes()

    def test_fixture_snapshot_bytes_are_pinned(self, tmp_path):
        # any change to term extraction, weighting or the file format that
        # alters the published bytes must update these digests on purpose
        CorpusSnapshotStore(tmp_path).publish(build_corpus_index(load_corpus_file(FIXTURES / "corpus.jsonl")))
        digests = {
            name: hashlib.sha256((tmp_path / "1" / name).read_bytes()).hexdigest()
            for name in ("docs.jsonl", "idf.json")
        }
        assert digests == {
            "docs.jsonl": "40c1248fd6b537d89bbb45e77fcec437d9c9dad96009dbc50fca91263a20d964",
            "idf.json": "c7ac17cb8a492c24d3760e960f1a2a13987f371c2380a1890107a4b3a9b99138",
        }


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


def first_weight(value):
    def mutate(rec: dict) -> None:
        rec["vector"][next(iter(rec["vector"]))] = value

    return with_field(mutate)


def truncated(line: str) -> str:
    return line[: len(line) // 2] + "\n"


CORPUS_FAULTS = {
    "truncated line": truncated,
    "missing key": with_field(lambda rec: rec.pop("vector")),
    "vector not an object": with_field(lambda rec: rec.update(vector=[0.5])),
    "negative weight": first_weight(-0.5),
    "non-numeric weight": first_weight("heavy"),
}

KB_FAULTS = {
    "truncated line": truncated,
    "missing key": with_field(lambda rec: rec.pop("text")),
    "non-numeric embedding": with_field(lambda rec: rec.update(embedding=["x"] * len(rec["embedding"]))),
    "embedding one number short": with_field(lambda rec: rec.update(embedding=rec["embedding"][:-1])),
}


class TestCorruptRecords:
    @pytest.mark.parametrize("fault", sorted(CORPUS_FAULTS))
    def test_corpus_line_fault_names_file_and_line(self, tmp_path, fault):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        edit_record(tmp_path / "1" / "docs.jsonl", 3, CORPUS_FAULTS[fault])
        with pytest.raises(SnapshotError, match=r"docs\.jsonl:3: "):
            store.load()

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

    def test_non_object_idf_names_file(self, tmp_path):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        idf = tmp_path / "1" / "idf.json"
        idf.write_text("[0.5]", encoding="utf-8")
        with pytest.raises(SnapshotError, match=f"{idf}.*not a JSON object"):
            store.load()

    # a weight the loader let through used to fail only later, inside top_k
    @pytest.mark.parametrize("weight", ["heavy", -0.5, float("nan"), True])
    def test_idf_weight_that_is_not_a_finite_number_at_least_zero_names_file(self, tmp_path, weight):
        store = CorpusSnapshotStore(tmp_path)
        store.publish(corpus_for(1))
        idf_path = tmp_path / "1" / "idf.json"
        idf = json.loads(idf_path.read_text(encoding="utf-8"))
        idf[next(iter(idf))] = weight
        idf_path.write_text(json.dumps(idf), encoding="utf-8")
        with pytest.raises(SnapshotError, match=f"{idf_path} is corrupt: term weights"):
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
    @pytest.mark.parametrize("name", ["meta.json", "idf.json", "docs.jsonl"])
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
