"""Tests for the persistent (cross-run) proof cache store.

Covers the satellite checklist: round-trip save/load, version and
portfolio mismatches degrading to a cold start (never a crash), corrupted
and truncated cache files, concurrent writer atomicity, and the
engine-level wiring (disk-hit provenance, ``persist=False`` read-only
mode).
"""

from __future__ import annotations

import dataclasses
import errno
import gc
import io
import json
import multiprocessing
import os

import pytest

from repro.provers import cache as cache_module
from repro.provers.cache import (
    CACHE_FORMAT_VERSION,
    FINGERPRINT_VERSION,
    CachedVerdict,
    PersistentCacheStore,
    ProofCache,
    fingerprint_from_json,
    fingerprint_to_json,
)
from repro.provers.dispatch import PortfolioSpec, default_portfolio
from repro.provers.smt import SmtProver
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine


def sample_entries() -> dict[tuple, CachedVerdict]:
    return {
        (("a", ("v", "x", "int")), ("t", True)): CachedVerdict(True, False, "smt"),
        (("b", 3), ("i", -12)): CachedVerdict(False, True, "model-finder"),
        ((), ("c", "null", "obj")): CachedVerdict(False, False, ""),
    }


class TestFingerprintCodec:
    def test_round_trip_through_json(self):
        for key in sample_entries():
            wire = json.loads(json.dumps(fingerprint_to_json(key)))
            assert fingerprint_from_json(wire) == key

    def test_rejects_non_literal_elements(self):
        with pytest.raises(ValueError):
            fingerprint_to_json((("i", 1.5),))
        with pytest.raises(ValueError):
            fingerprint_to_json((None,))

    def test_rejects_garbage_on_decode(self):
        with pytest.raises(ValueError):
            fingerprint_from_json([["i", None]])
        with pytest.raises(ValueError):
            fingerprint_from_json({"not": "a fingerprint"})


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4;fol:2")
        entries = sample_entries()
        assert store.save(entries) == len(entries)
        loaded = PersistentCacheStore(tmp_path, "smt:4;fol:2").load()
        assert set(loaded) == set(entries)
        for key, verdict in entries.items():
            assert loaded[key].proved == verdict.proved
            assert loaded[key].refuted == verdict.refuted
            assert loaded[key].winning_prover == verdict.winning_prover
            # Provenance is rewritten on load.
            assert loaded[key].origin == "disk"

    def test_v3_store_cold_starts_and_next_save_writes_v4(self, tmp_path):
        """A v3 store (``profiles`` section, per-entry ``wall`` / ``cpu``)
        is a format mismatch: it cold-starts, and the next save rewrites
        it in the v4 layout -- no ``profiles`` key, entries carrying
        verdicts only."""
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.path.parent.mkdir(parents=True, exist_ok=True)
        v3_payload = {
            "format": 3,
            "fingerprint_version": FINGERPRINT_VERSION,
            "portfolio": "smt:4",
            "profiles": {"Good": {"wall": 1.0, "cpu": 0.9, "sequents": 3}},
            "dependencies": {},
            "entries": [
                [
                    [["i", 1]],
                    {
                        "proved": True,
                        "refuted": False,
                        "prover": "smt",
                        "wall": 0.125,
                        "cpu": 0.118,
                    },
                ]
            ],
        }
        store.path.write_text(json.dumps(v3_payload))
        assert store.load() == {}
        assert store.last_load_status == "cold:format-mismatch"
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        assert payload["format"] == CACHE_FORMAT_VERSION == 4
        assert "profiles" not in payload
        assert len(payload["entries"]) == len(sample_entries())
        for _, verdict in payload["entries"]:
            assert set(verdict) == {"proved", "refuted", "prover"}
        assert set(store.load()) == set(sample_entries())
        assert store.last_load_status.startswith("warm:")

    def test_old_format_store_cold_starts_cleanly(self, tmp_path):
        """A format-1 store must be discarded as a cold start, never
        misread or crashed on."""
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.path.parent.mkdir(parents=True, exist_ok=True)
        old_payload = {
            "format": 1,
            "fingerprint_version": FINGERPRINT_VERSION,
            "portfolio": "smt:4",
            "entries": [
                [[["i", 1]], {"proved": True, "refuted": False, "prover": "smt"}]
            ],
        }
        store.path.write_text(json.dumps(old_payload))
        assert store.load() == {}
        assert store.last_load_status == "cold:format-mismatch"
        # A save over the old store recovers to the current format.
        store.save(sample_entries())
        assert len(store.load()) == len(sample_entries())
        assert store.last_load_status.startswith("warm:")

    def test_missing_file_is_cold(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        assert store.load() == {}
        assert store.last_load_status == "cold:missing"

    def test_merge_accumulates_across_saves(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        first = {(("i", 1),): CachedVerdict(True, False, "smt")}
        second = {(("i", 2),): CachedVerdict(False, False, "fol")}
        store.save(first)
        store.save(second)
        assert set(store.load()) == set(first) | set(second)

    def test_save_without_merge_replaces(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")}, merge=False)
        assert set(store.load()) == {(("i", 2),)}

    def test_merge_saves_do_not_clobber_load_status(self, tmp_path):
        # Regression: merge-saves re-read the file internally; that must
        # not rewrite the cold/warm diagnostic of the *explicit* load.
        store = PersistentCacheStore(tmp_path, "k")
        assert store.load() == {}
        assert store.last_load_status == "cold:missing"
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        assert store.last_load_status == "cold:missing"

    def test_save_caps_store_size_keeping_new_entries(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k", max_entries=4)
        store.save({(("i", n),): CachedVerdict(True, False, "smt") for n in range(4)})
        store.save({(("i", 99),): CachedVerdict(True, False, "fol")})
        loaded = store.load()
        assert len(loaded) == 4
        assert (("i", 99),) in loaded

    def test_preload_never_fills_cache_to_eviction_point(self):
        # Regression: an over-large store must not preload the cache so
        # full that the first new verdict's store() wipes every entry.
        cache = ProofCache(max_entries=8)
        cache.preload(
            {(("i", n),): CachedVerdict(True, False, "smt") for n in range(20)}
        )
        assert 0 < len(cache) < 8
        cache.store((("i", 100),), CachedVerdict(True, False, "smt"))
        assert cache.lookup((("i", 0),)) is not None  # preload survived


def sample_record(fingerprint=(("i", 1),)) -> dict:
    """A dependency record in the shape the store persists."""
    return {
        "artifacts": {"state": "d0", "invariants": "d1"},
        "methods": [["m", {"digest": "d2", "sequents": [["L", fingerprint]]}]],
    }


class TestFormatV4:
    """The v4 layout: verdict-only entries plus the dependency index."""

    def test_cached_verdict_carries_the_verdict_only(self):
        assert [f.name for f in dataclasses.fields(CachedVerdict)] == [
            "proved",
            "refuted",
            "winning_prover",
            "origin",
        ]

    def test_saved_payload_has_exactly_the_v4_sections(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        payload = json.loads(store.path.read_text())
        assert set(payload) == {
            "format",
            "fingerprint_version",
            "portfolio",
            "dependencies",
            "entries",
        }
        assert payload["format"] == CACHE_FORMAT_VERSION
        assert payload["fingerprint_version"] == FINGERPRINT_VERSION
        assert payload["portfolio"] == "smt:4"

    def test_unknown_entry_fields_are_ignored_on_load(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        payload = json.loads(store.path.read_text())
        payload["entries"][0][1]["wall"] = 0.5
        store.path.write_text(json.dumps(payload))
        loaded = store.load()
        assert loaded == {(("i", 1),): CachedVerdict(True, False, "smt", "disk")}
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        for _, verdict in json.loads(store.path.read_text())["entries"]:
            assert set(verdict) == {"proved", "refuted", "prover"}

    def test_entries_section_that_is_not_a_list_is_corrupt(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload["entries"] = {"not": "a list"}
        store.path.write_text(json.dumps(payload))
        assert store.load() == {}
        assert store.last_load_status == "cold:corrupt"

    def test_warm_status_counts_loaded_entries(self, tmp_path):
        PersistentCacheStore(tmp_path, "k").save(sample_entries())
        store = PersistentCacheStore(tmp_path, "k")
        store.load()
        assert store.last_load_status == f"warm:{len(sample_entries())}"

    def test_load_leaves_garbage_collection_enabled(self, tmp_path):
        PersistentCacheStore(tmp_path, "k").save(sample_entries())
        assert gc.isenabled()
        PersistentCacheStore(tmp_path, "k").load()
        assert gc.isenabled()


class TestDependencySection:
    def test_dependencies_round_trip_with_tuple_fingerprints(self, tmp_path):
        fingerprint = (("a", ("v", "x", "int")), ("t", True))
        PersistentCacheStore(tmp_path, "k").save(
            sample_entries(), dependencies={"Good": sample_record(fingerprint)}
        )
        store = PersistentCacheStore(tmp_path, "k")
        store.load()
        assert store.last_dependencies == {"Good": sample_record(fingerprint)}
        label, loaded = store.last_dependencies["Good"]["methods"][0][1]["sequents"][0]
        assert label == "L"
        assert isinstance(loaded, tuple)

    def test_dependencies_merge_per_class_with_new_data_winning(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save({}, dependencies={"A": sample_record(), "B": sample_record()})
        updated = sample_record((("i", 2),))
        store.save({}, dependencies={"B": updated})
        reloaded = PersistentCacheStore(tmp_path, "k")
        reloaded.load()
        assert reloaded.last_dependencies == {"A": sample_record(), "B": updated}

    def test_damaged_class_records_are_skipped(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        payload = json.loads(store.path.read_text())
        payload["dependencies"]["NoMethods"] = {"artifacts": {}}
        payload["dependencies"]["BadFingerprint"] = {
            "artifacts": {},
            "methods": [["m", {"digest": "d", "sequents": [["L", [["i", 1.5]]]]}]],
        }
        payload["dependencies"]["NotARecord"] = "junk"
        store.path.write_text(json.dumps(payload))
        assert set(store.load()) == set(sample_entries())
        assert store.last_dependencies == {"Good": sample_record()}

    def test_dependencies_that_are_not_an_object_load_as_empty(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        payload = json.loads(store.path.read_text())
        payload["dependencies"] = ["not", "an", "object"]
        store.path.write_text(json.dumps(payload))
        assert set(store.load()) == set(sample_entries())
        assert store.last_dependencies == {}

    def test_cold_start_drops_the_dependency_index(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        other = PersistentCacheStore(tmp_path, "another-portfolio")
        assert other.load() == {}
        assert other.last_load_status == "cold:portfolio-mismatch"
        assert other.last_dependencies == {}


class TestInvalidation:
    def _write_payload(self, tmp_path, **overrides):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload.update(overrides)
        store.path.write_text(json.dumps(payload))
        return store

    def test_fingerprint_version_mismatch_cold_start(self, tmp_path):
        store = self._write_payload(
            tmp_path, fingerprint_version=FINGERPRINT_VERSION + 1
        )
        assert store.load() == {}
        assert store.last_load_status == "cold:fingerprint-mismatch"

    def test_format_version_mismatch_cold_start(self, tmp_path):
        store = self._write_payload(tmp_path, format=CACHE_FORMAT_VERSION + 1)
        assert store.load() == {}
        assert store.last_load_status == "cold:format-mismatch"

    def test_portfolio_mismatch_cold_start(self, tmp_path):
        self._write_payload(tmp_path)
        other = PersistentCacheStore(tmp_path, "smt:8;fol:2")
        assert other.load() == {}
        assert other.last_load_status == "cold:portfolio-mismatch"

    def test_portfolio_key_tracks_timeout_scaling(self):
        base = default_portfolio()
        assert (
            PortfolioSpec.from_portfolio(base).cache_key
            != PortfolioSpec.from_portfolio(base.scaled(0.5)).cache_key
        )

    def test_portfolio_key_tracks_prover_revisions(self, monkeypatch):
        spec = PortfolioSpec.from_portfolio(default_portfolio())
        before = spec.cache_key
        assert f"smt@{SmtProver.revision}:" in before
        monkeypatch.setattr(SmtProver, "revision", SmtProver.revision + 1)
        assert spec.cache_key != before

    def test_default_key_is_unchanged_and_existing_stores_load_warm(self, tmp_path):
        # The default line-up's key is the one stores already on disk were
        # written under; changing it would cold-start every one of them.
        default = default_portfolio()
        assert PortfolioSpec.from_portfolio(default).cache_key == "smt@3:4;sets@2:1.5"
        key = PortfolioSpec.from_portfolio(default.scaled(0.4)).cache_key
        assert key == "smt@3:1.6;sets@2:0.6"
        PersistentCacheStore(tmp_path, "smt@3:1.6;sets@2:0.6").save(sample_entries())
        store = PersistentCacheStore(tmp_path, key)
        assert set(store.load()) == set(sample_entries())
        assert store.last_load_status == f"warm:{len(sample_entries())}"

    def test_store_under_pre_revision_key_is_discarded(self, tmp_path):
        # Stores written before prover revisions joined the key carry the
        # bare ``name:timeout`` line-up; their verdicts (negative ones
        # included) must not be served by the current provers.
        spec = PortfolioSpec.from_portfolio(default_portfolio())
        old_key = ";".join(f"{name}:{timeout:g}" for name, timeout in spec.entries)
        PersistentCacheStore(tmp_path, old_key).save(sample_entries())
        store = PersistentCacheStore(tmp_path, spec.cache_key)
        assert store.load() == {}
        assert store.last_load_status == "cold:portfolio-mismatch"

    def test_store_under_the_former_default_key_cold_starts(self, tmp_path):
        # The default portfolio ran fol third until fol became opt-in; a
        # store written then (CLI default scale 0.4) must cold-start under
        # the smt -> sets default and be rewritten under its key.
        former_default = "smt@2:1.6;sets@1:0.6;fol@1:0.8"
        PersistentCacheStore(tmp_path, former_default).save(sample_entries())
        key = PortfolioSpec.from_portfolio(default_portfolio().scaled(0.4)).cache_key
        assert "fol" not in key
        store = PersistentCacheStore(tmp_path, key)
        assert store.load() == {}
        assert store.last_load_status == "cold:portfolio-mismatch"
        fresh = {(("i", 5),): CachedVerdict(True, False, "smt")}
        store.save(fresh)
        assert json.loads(store.path.read_text())["portfolio"] == key
        reloaded = PersistentCacheStore(tmp_path, key)
        assert set(reloaded.load()) == set(fresh)
        assert reloaded.last_load_status.startswith("warm")


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "content",
        [
            "",  # empty file
            "{",  # truncated JSON
            "[]",  # wrong top-level type
            "null",
            '{"format": 1}',  # missing fields
            "\x00\x01\x02 binary junk",
        ],
        ids=["empty", "truncated", "list", "null", "partial", "binary"],
    )
    def test_corrupt_file_cold_start(self, tmp_path, content):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(content)
        assert store.load() == {}
        assert store.last_load_status.startswith("cold:")

    def test_truncated_after_valid_save(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        raw = store.path.read_text()
        store.path.write_text(raw[: len(raw) // 2])
        assert store.load() == {}
        # A save over the truncated file recovers cleanly.
        store.save(sample_entries())
        assert len(store.load()) == len(sample_entries())

    def test_damaged_individual_entries_are_skipped(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload["entries"].append(
            ["not-a-fingerprint", {"proved": True, "refuted": False, "prover": "smt"}]
        )
        payload["entries"].append([[["i", 9]], "not a verdict"])
        payload["entries"].append(
            [[["i", 9.5]], {"proved": True, "refuted": False, "prover": "x"}]
        )
        payload["entries"].append("not even a pair")
        store.path.write_text(json.dumps(payload))
        loaded = store.load()
        assert set(loaded) == set(sample_entries())

    def test_no_temp_files_left_behind(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


def _concurrent_writer(args) -> int:
    directory, writer_id = args
    store = PersistentCacheStore(directory, "shared-key")
    for round_number in range(5):
        entries = {
            (("i", writer_id), ("i", round_number)): CachedVerdict(
                True, False, f"writer-{writer_id}"
            )
        }
        store.save(entries)
    return writer_id


class TestConcurrentWriters:
    def test_file_stays_valid_under_concurrent_saves(self, tmp_path):
        with multiprocessing.Pool(3) as pool:
            pool.map(_concurrent_writer, [(str(tmp_path), i) for i in range(3)])
        store = PersistentCacheStore(tmp_path, "shared-key")
        loaded = store.load()
        # The file is valid JSON with a coherent schema no matter how the
        # writers interleaved...
        assert store.last_load_status.startswith("warm:")
        # ...and the inter-process write lock makes merge-on-save atomic:
        # the union of every writer's batches survives.
        assert set(loaded) == {
            (("i", writer), ("i", round_number))
            for writer in range(3)
            for round_number in range(5)
        }


def _legacy_encoding(store, entries, dependencies=None) -> str:
    """What a save wrote before saves stopped re-reading the file: the same
    payload streamed through ``json.dump``."""
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "fingerprint_version": FINGERPRINT_VERSION,
        "portfolio": store.portfolio_key,
        "dependencies": dependencies or {},
        "entries": [
            [
                fingerprint_to_json(key),
                {
                    "proved": verdict.proved,
                    "refuted": verdict.refuted,
                    "prover": verdict.winning_prover,
                },
            ]
            for key, verdict in entries.items()
        ],
    }
    handle = io.StringIO()
    json.dump(payload, handle, separators=(",", ":"))
    return handle.getvalue()


class TestMergeWithoutReread:
    """A merge-save unions into what the store last read or wrote while the
    file is still that one, and re-reads whenever anyone else wrote it."""

    def test_interleaved_second_store_is_merged(self, tmp_path):
        first = PersistentCacheStore(tmp_path, "k")
        second = PersistentCacheStore(tmp_path, "k")
        batches = [{(("i", n),): CachedVerdict(True, False, "smt")} for n in range(3)]
        first.save(batches[0])
        second.save(batches[1])
        first.save(batches[2])
        assert set(PersistentCacheStore(tmp_path, "k").load()) == {
            key for batch in batches for key in batch
        }

    def test_in_place_edit_is_merged(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        inode = store.path.stat().st_ino
        payload = json.loads(store.path.read_text())
        payload["entries"].append(
            [[["i", 2]], {"proved": True, "refuted": False, "prover": "fol"}]
        )
        store.path.write_text(json.dumps(payload))
        assert store.path.stat().st_ino == inode
        store.save({(("i", 3),): CachedVerdict(True, False, "smt")})
        assert set(store.load()) == {(("i", 1),), (("i", 2),), (("i", 3),)}

    def test_own_file_is_not_parsed_again(self, tmp_path, monkeypatch):
        PersistentCacheStore(tmp_path, "k").save(sample_entries())
        parses = []
        original = PersistentCacheStore._parse

        def counting(self, raw):
            parses.append(len(raw))
            return original(self, raw)

        monkeypatch.setattr(PersistentCacheStore, "_parse", counting)
        store = PersistentCacheStore(tmp_path, "k")
        entries = store.load()
        assert len(parses) == 1
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        assert len(parses) == 1
        assert set(store.load()) == set(entries) | {(("i", 1),), (("i", 2),)}

    def test_unchanged_saves_write_the_legacy_bytes(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        entries = sample_entries()
        record = {
            "artifacts": {"state": "d0"},
            "methods": [["m", {"digest": "d1", "sequents": [["L", [["i", 1]]]]}]],
        }
        dependencies = {"Good": record}
        store.save(entries, dependencies=dependencies)
        first = store.path.read_bytes()
        store.save(entries, dependencies=dependencies)
        assert store.path.read_bytes() == first
        expected = _legacy_encoding(store, entries, dependencies)
        assert first == expected.encode("utf-8")

    def test_new_keys_are_still_checked(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries())
        before = store.path.read_bytes()
        with pytest.raises(ValueError):
            store.save({(("i", 1.5),): CachedVerdict(True, False, "smt")})
        assert store.path.read_bytes() == before
        # The failed merge is not remembered: the next save writes only
        # what the file held plus its own batch.
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        assert set(store.load()) == set(sample_entries()) | {(("i", 2),)}

    def test_every_save_writes_the_one_dumps_bytes(self, tmp_path):
        """Differential: whatever the previous save left to reuse, the file
        is the one-``dumps`` encoding of what the store remembers."""
        store = PersistentCacheStore(tmp_path, "k", max_entries=8)
        other = PersistentCacheStore(tmp_path, "k", max_entries=8)
        proved = CachedVerdict(True, False, "smt")

        def check():
            entries, dependencies = store._known
            expected = _legacy_encoding(store, entries, dependencies)
            assert store.path.read_bytes() == expected.encode("utf-8")
            fresh = PersistentCacheStore(tmp_path, "k")
            assert set(fresh.load()) == set(entries)
            assert fresh.last_dependencies == dependencies
            return entries

        store.save(
            {(("i", n),): CachedVerdict(False, False, "") for n in range(3)},
            dependencies={"A": sample_record(), "B": sample_record((("i", 2),))},
        )
        check()
        # A verdict flip (unproved -> proved) next to a new key.
        store.save({(("i", 1),): proved, (("i", 3),): proved})
        assert check()[(("i", 1),)].proved
        # A record replaced by an equal new object, then by a different one.
        store.save({}, dependencies={"A": sample_record()})
        check()
        store.save({}, dependencies={"A": sample_record((("i", 9),))})
        check()
        # Another store's save forces a re-read.
        other.save({(("i", 4),): proved}, dependencies={"C": sample_record()})
        store.save({(("i", 5),): proved})
        assert {(("i", 4),), (("i", 5),)} <= set(check())
        # An in-place edit of the file forces one too.
        payload = json.loads(store.path.read_text())
        payload["entries"].append(
            [[["i", 6]], {"proved": True, "refuted": False, "prover": "sets"}]
        )
        store.path.write_text(json.dumps(payload))
        store.save({(("i", 7),): proved})
        assert (("i", 6),) in check()
        # Eviction past max_entries drops the oldest entries.
        store.save({(("i", n),): proved for n in range(10, 14)})
        assert len(check()) == 8
        # Tenant-prefixed keys, and a non-ASCII class name and key leaf.
        store.save(
            {(("tenant", "acme"), ("s", "Größe→")): proved},
            dependencies={"Liste_Größe→": sample_record((("s", "ü"),))},
        )
        check()
        assert "\\u00f6" in store.path.read_text()
        # A replacing save keeps only its own batch.
        store.save(
            {(("i", 20),): proved}, merge=False, dependencies={"A": sample_record()}
        )
        assert set(check()) == {(("i", 20),)}
        store.save({(("i", 21),): proved})
        check()

    def test_edit_sized_save_encodes_only_the_new_record(self, tmp_path, monkeypatch):
        store = PersistentCacheStore(tmp_path, "k")
        names = [f"Class{n}" for n in range(20)]
        sequents = [[f"L{j}", (("i", j), ("s", "x" * 40))] for j in range(20)]
        record = {
            "artifacts": {"state": "d0", "invariants": "d1"},
            "methods": [["m", {"digest": "d2", "sequents": sequents}]],
        }
        store.save(
            {(("i", n),): CachedVerdict(True, False, "smt") for n in range(50)},
            dependencies={name: record for name in names},
        )
        encoded = []
        real_dumps = json.dumps

        def counting_dumps(value, *args, **kwargs):
            text = real_dumps(value, *args, **kwargs)
            encoded.append((value, text))
            return text

        monkeypatch.setattr(cache_module.json, "dumps", counting_dumps)
        # The first save after that one reuses its fragments; an edit
        # replaces one class record with a new object.
        edited = {**record, "artifacts": {"state": "d3", "invariants": "d1"}}
        store.save({}, dependencies={"Class7": edited})
        monkeypatch.undo()
        size = store.path.stat().st_size
        assert sum(len(text) for _, text in encoded) < size / 10
        for value, _ in encoded:
            if isinstance(value, dict):
                assert set(value) & set(names) <= {"Class7"}
        entries, dependencies = store._known
        expected = _legacy_encoding(store, entries, dependencies)
        assert store.path.read_bytes() == expected.encode("utf-8")

    def test_failed_fsync_drops_the_fragments(self, tmp_path, monkeypatch):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"A": sample_record()})
        before = store.path.read_bytes()
        batch = {(("i", 1),): CachedVerdict(True, False, "smt")}

        def failing_fsync(fd):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(cache_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            store.save(batch, dependencies={"B": sample_record((("i", 2),))})
        monkeypatch.undo()
        assert store._known is None
        assert store._fragments == ({}, {})
        assert store.path.read_bytes() == before
        store.save(batch)
        entries, dependencies = store._known
        assert set(entries) == set(sample_entries()) | set(batch)
        assert set(dependencies) == {"A"}
        expected = _legacy_encoding(store, entries, dependencies)
        assert store.path.read_bytes() == expected.encode("utf-8")


def _count_encodings(monkeypatch) -> list:
    """Record every ``(value, text)`` the store's ``json.dumps`` encodes
    until ``monkeypatch.undo()``."""
    encoded = []
    real_dumps = json.dumps

    def counting_dumps(value, *args, **kwargs):
        text = real_dumps(value, *args, **kwargs)
        encoded.append((value, text))
        return text

    monkeypatch.setattr(cache_module.json, "dumps", counting_dumps)
    return encoded


def _assert_file_is_known(store):
    """The file is the one-``dumps`` encoding of what ``store`` remembers,
    and a fresh store loads exactly that back."""
    entries, dependencies = store._known
    expected = _legacy_encoding(store, entries, dependencies)
    assert store.path.read_bytes() == expected.encode("utf-8")
    _assert_loads_back_as_known(store)


def _assert_loads_back_as_known(store):
    entries, dependencies = store._known
    fresh = PersistentCacheStore(store.directory, store.portfolio_key)
    assert fresh.load() == {
        key: dataclasses.replace(verdict, origin="disk")
        for key, verdict in entries.items()
    }
    assert fresh.last_dependencies == dependencies


class TestLoadKeepsText:
    """A load keeps the text of every record and entry it decodes from a
    file in the saves' layout, so no save after it re-encodes the file."""

    NAMES = [f"Class{n}" for n in range(20)]

    def _write_store(self, tmp_path):
        sequents = [[f"L{j}", (("i", j), ("s", "x" * 40))] for j in range(20)]
        record = {
            "artifacts": {"state": "d0", "invariants": "d1"},
            "methods": [["m", {"digest": "d2", "sequents": sequents}]],
        }
        PersistentCacheStore(tmp_path, "k").save(
            {(("i", n),): CachedVerdict(True, False, "smt") for n in range(50)},
            dependencies={name: record for name in self.NAMES},
        )

    @staticmethod
    def _edit(store, name):
        """Replace ``name``'s loaded record with an edited new object, as
        the engine's flush hands it over."""
        record = store.last_dependencies[name]
        return {**record, "artifacts": {**record["artifacts"], "state": "d9"}}

    def test_first_save_after_a_load_encodes_only_the_edit(
        self, tmp_path, monkeypatch
    ):
        self._write_store(tmp_path)
        store = PersistentCacheStore(tmp_path, "k")
        entries = store.load()
        edited = self._edit(store, "Class7")
        encoded = _count_encodings(monkeypatch)
        store.save(entries, dependencies={"Class7": edited})
        monkeypatch.undo()
        assert sum(len(text) for _, text in encoded) < store.path.stat().st_size / 10
        for value, _ in encoded:
            if isinstance(value, dict):
                assert set(value) & set(self.NAMES) <= {"Class7"}
            assert not isinstance(value, list)  # no entry was re-encoded
        assert store._known[1]["Class7"] is edited
        _assert_file_is_known(store)

    def test_merge_save_after_a_reread_encodes_nothing_it_read(
        self, tmp_path, monkeypatch
    ):
        self._write_store(tmp_path)
        store = PersistentCacheStore(tmp_path, "k")
        store.load()
        other = PersistentCacheStore(tmp_path, "k")
        other.load()
        other.save(
            {(("i", 100),): CachedVerdict(True, False, "sets")},
            dependencies={"Class3": self._edit(other, "Class3")},
        )
        mine = {(("i", 101),): CachedVerdict(False, False, "")}
        edited = self._edit(store, "Class7")
        encoded = _count_encodings(monkeypatch)
        store.save(mine, dependencies={"Class7": edited})
        monkeypatch.undo()
        names = set()
        keys = []
        for value, _ in encoded:
            if isinstance(value, dict):
                names |= set(value) & set(self.NAMES)
            elif isinstance(value, list):
                keys.append(value[0])
        assert names == {"Class7"}
        assert keys == [(("i", 101),)]
        entries, dependencies = store._known
        assert (("i", 100),) in entries
        assert dependencies["Class3"]["artifacts"]["state"] == "d9"
        _assert_file_is_known(store)

    def test_damaged_items_do_not_come_back(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        payload = json.loads(store.path.read_text())
        payload["dependencies"]["ListArtifacts"] = {"artifacts": [], "methods": []}
        payload["dependencies"]["NotARecord"] = "junk"
        payload["entries"].append([[["i", 9.5]], {"proved": True}])
        payload["entries"].append("not even a pair")
        store.path.write_text(json.dumps(payload, separators=(",", ":")))
        assert set(store.load()) == set(sample_entries())
        assert set(store.last_dependencies) == {"Good"}
        assert set(store._fragments[0]) == {"Good"}
        assert set(store._fragments[1]) == set(sample_entries())
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        text = store.path.read_text()
        for damaged in ("ListArtifacts", "NotARecord", "9.5", "not even a pair"):
            assert damaged not in text
        _assert_file_is_known(store)

    def test_file_in_another_layout_keeps_no_text(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        store.path.write_text(json.dumps(json.loads(store.path.read_text())))
        assert set(store.load()) == set(sample_entries())
        assert store._fragments == ({}, {})
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
        _assert_file_is_known(store)

    def test_odd_values_in_the_saves_layout_load_back_the_same(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(
            {(("s", "AB"),): CachedVerdict(True, False, "smt")},
            dependencies={"Good": sample_record(), "Other": sample_record()},
        )
        text = store.path.read_text()
        # Still the saves' layout, but one record spells a string with an
        # escape and one entry has an integer for a boolean.
        odd = text.replace('"digest":"d2"', '"digest":"d\\u0032"', 1).replace(
            '[["s","AB"]],{"proved":true', '[["s","A\\u0042"]],{"proved":1', 1
        )
        assert odd.count("\\u00") == 2
        store.path.write_text(odd)
        loaded = store.load()
        assert loaded == {(("s", "AB"),): CachedVerdict(True, False, "smt", "disk")}
        assert store.last_dependencies == {
            "Good": sample_record(),
            "Other": sample_record(),
        }
        assert len(store._fragments[1]) == 1
        store.save(
            {(("i", 2),): CachedVerdict(True, False, "smt")},
            dependencies={"Other": sample_record((("i", 3),))},
        )
        _assert_loads_back_as_known(store)

    @pytest.mark.parametrize(
        "damage",
        [
            ("]}", ",]}"),  # a trailing comma
            ('},"entries"', '}"entries"'),  # a missing comma between sections
            ("}],[", "}]["),  # ... and between entries
            ("]}", "]} "),  # trailing whitespace
        ],
        ids=["trailing-comma", "missing-comma", "missing-entry-comma", "whitespace"],
    )
    def test_off_layout_text_is_decided_whole(self, tmp_path, damage):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(sample_entries(), dependencies={"Good": sample_record()})
        text = store.path.read_text()
        old, new = damage
        head, _, tail = text.rpartition(old)
        damaged = head + new + tail
        store.path.write_text(damaged)
        try:
            json.loads(damaged)
        except ValueError:
            assert store.load() == {}
            assert store.last_load_status == "cold:corrupt"
        else:
            assert set(store.load()) == set(sample_entries())
            assert store._fragments == ({}, {})


class TestEngineWiring:
    @pytest.fixture(scope="class")
    def linked_list(self):
        return next(c for c in all_structures() if c.name == "Linked List")

    def _engine(self, tmp_path, **kwargs) -> VerificationEngine:
        return VerificationEngine(
            default_portfolio().scaled(0.4), cache_dir=tmp_path, **kwargs
        )

    def test_second_run_hits_disk_with_identical_verdicts(self, tmp_path, linked_list):
        first = self._engine(tmp_path)
        cold = first.verify_class(linked_list)
        assert first.portfolio.statistics.cache_hits_disk == 0

        second = self._engine(tmp_path)
        warm = second.verify_class(linked_list)
        stats = second.portfolio.statistics
        assert stats.cache_hits_disk > 0
        assert stats.per_prover == {}  # no prover ever ran
        assert [
            (o.sequent.label, o.proved, o.prover)
            for m in cold.methods for o in m.outcomes
        ] == [
            (o.sequent.label, o.proved, o.prover)
            for m in warm.methods for o in m.outcomes
        ]
        warm_hits = [o.dispatch.cache_origin for m in warm.methods for o in m.outcomes]
        assert set(warm_hits) == {"disk"}

    def test_failed_flush_is_written_by_the_next(self, tmp_path, monkeypatch):
        engine = self._engine(tmp_path)
        store = engine.persistent_store
        key = (("i", 7),)
        engine.portfolio.proof_cache.store(key, CachedVerdict(True, False, "smt"))
        real_save = store.save
        failures = []

        def save_failing_once(*args, **kwargs):
            if not failures:
                failures.append(True)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(store, "save", save_failing_once)
        with pytest.raises(OSError):
            engine.flush_persistent_cache()
        # Nothing new was learned since, but the batch never reached disk.
        assert engine.flush_persistent_cache() == 1
        assert set(PersistentCacheStore(tmp_path, store.portfolio_key).load()) == {key}
        assert engine.flush_persistent_cache() == 0

    def test_no_persist_is_read_only(self, tmp_path, linked_list):
        engine = self._engine(tmp_path, persist=False)
        engine.verify_class(linked_list)
        assert engine.persistent_store is not None
        assert not engine.persistent_store.path.exists()

    def test_parallel_and_persistent_compose(self, tmp_path, linked_list):
        first = self._engine(tmp_path, jobs=2)
        first.verify_class(linked_list)
        second = self._engine(tmp_path, jobs=2)
        second.verify_class(linked_list)
        stats = second.last_run
        assert stats.dispatched == 0
        assert stats.hits_disk == stats.sequents_total
