"""Tests for the persistent (cross-run) proof cache store.

Covers the satellite checklist: round-trip save/load, version and
portfolio mismatches degrading to a cold start (never a crash), corrupted
and truncated cache files, concurrent writer atomicity, and the
engine-level wiring (disk-hit provenance, ``persist=False`` read-only
mode).
"""

from __future__ import annotations

import errno
import io
import json
import multiprocessing
import os

import pytest

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
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine


def sample_entries() -> dict[tuple, CachedVerdict]:
    return {
        (("a", ("v", "x", "int")), ("t", True)): CachedVerdict(
            True, False, "smt", wall=0.125, cpu=0.118
        ),
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
            # Measured timings survive the round trip (0.0 when the
            # sequent was never actually dispatched).
            assert loaded[key].wall == verdict.wall
            assert loaded[key].cpu == verdict.cpu
            # Provenance is rewritten on load.
            assert loaded[key].origin == "disk"

    def test_profiles_round_trip_and_merge(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save(
            {},
            profiles={"Hash Table": {"wall": 12.5, "cpu": 11.0, "sequents": 58}},
        )
        store.save(
            {},
            profiles={"Array List": {"wall": 0.5, "cpu": 0.4, "sequents": 26}},
        )
        store.load()
        # Merge-saves union profiles per class, like entries.
        assert set(store.last_profiles) == {"Hash Table", "Array List"}
        assert store.last_profiles["Hash Table"]["wall"] == 12.5
        assert store.last_profiles["Array List"]["sequents"] == 26

    def test_damaged_profiles_are_skipped(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(
            sample_entries(),
            profiles={"Good": {"wall": 1.0, "cpu": 0.9, "sequents": 3}},
        )
        payload = json.loads(store.path.read_text())
        payload["profiles"]["Bad"] = {"wall": "not a number"}
        payload["profiles"]["Worse"] = "not even a mapping"
        store.path.write_text(json.dumps(payload))
        entries = store.load()
        assert set(entries) == set(sample_entries())
        assert set(store.last_profiles) == {"Good"}

    def test_old_format_store_cold_starts_cleanly(self, tmp_path):
        """A pre-v2 store (format 1: no timings, no profiles) must be
        discarded as a cold start, never misread or crashed on."""
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
        assert store.last_profiles == {}
        # A save over the old store recovers to the current format.
        store.save(sample_entries())
        assert len(store.load()) == len(sample_entries())
        assert store.last_load_status.startswith("warm:")

    def test_entries_without_timing_fields_load_as_unmeasured(self, tmp_path):
        """Entry-level tolerance: a v2 store whose entries lack wall/cpu
        (e.g. hand-edited) still loads, with timings defaulting to 0."""
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        for _, verdict in payload["entries"]:
            verdict.pop("wall", None)
            verdict.pop("cpu", None)
        store.path.write_text(json.dumps(payload))
        loaded = store.load()
        assert set(loaded) == set(sample_entries())
        assert all(v.wall == 0.0 and v.cpu == 0.0 for v in loaded.values())

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


def _legacy_encoding(store, entries, profiles=None, dependencies=None) -> str:
    """What a save wrote before saves stopped re-reading the file: the same
    payload streamed through ``json.dump``."""
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "fingerprint_version": FINGERPRINT_VERSION,
        "portfolio": store.portfolio_key,
        "profiles": profiles or {},
        "dependencies": dependencies or {},
        "entries": [
            [
                fingerprint_to_json(key),
                {
                    "proved": verdict.proved,
                    "refuted": verdict.refuted,
                    "prover": verdict.winning_prover,
                    "wall": round(verdict.wall, 6),
                    "cpu": round(verdict.cpu, 6),
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
        profiles = {"Good": {"wall": 1.0, "cpu": 0.9, "sequents": 3}}
        record = {
            "artifacts": {"state": "d0"},
            "methods": [["m", {"digest": "d1", "sequents": [["L", [["i", 1]]]]}]],
        }
        dependencies = {"Good": record}
        store.save(entries, profiles=profiles, dependencies=dependencies)
        first = store.path.read_bytes()
        store.save(entries, profiles=profiles, dependencies=dependencies)
        assert store.path.read_bytes() == first
        expected = _legacy_encoding(store, entries, profiles, dependencies)
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
