"""The names the benchmark's traced run patches must exist and be called.

``perfbench/tracing.py`` measures each layer by replacing the functions and
methods the pipeline calls (``PersistentCacheStore.save``,
``engine.record_from_slots``, ...).  A rename under ``src/`` would only
surface as a ``KeyError`` in a ``--trace 1`` run, and a call that stopped
going through a patched name would silently read 0; this installs and
removes the wrappers on every tier-1 run instead.  The benchmark's files
are imported, never edited.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.provers.cache import CachedVerdict, PersistentCacheStore
from repro.provers.dispatch import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier.engine import VerificationEngine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_wrappers_install_and_uninstall(tracing):
    original_save = PersistentCacheStore.__dict__["save"]
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        assert PersistentCacheStore.__dict__["save"] is not original_save
    finally:
        tracer.uninstall()
    assert PersistentCacheStore.__dict__["save"] is original_save


def test_store_spans_and_fsync_are_observable(tracing, tmp_path, monkeypatch):
    """The store's load/save spans are what ``provers.cache.store.*`` read,
    and the speed sampler times ``os.fsync`` by patching the module."""
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        store = PersistentCacheStore(tmp_path, "k")
        store.load()
        store.save({(("i", 1),): CachedVerdict(True, False, "smt")})
        store.save({(("i", 2),): CachedVerdict(True, False, "smt")})
    finally:
        tracer.uninstall()
    assert tracer.calls("provers.cache.store.load") == 1
    assert tracer.calls("provers.cache.store.save") == 2
    assert len(synced) == 2


def test_one_dependency_record_span_per_recorded_class(tracing):
    """``verifier.incremental.record_s`` sums these spans.  Every run goes
    through the one plan/execute pipeline, which records each class once
    through ``record_from_slots``: one span per class for a jobs=1
    ``verify_class`` and for a jobs=1 ``verify_suite``, none for a
    strip-proofs run (it must not overwrite the real class's record)."""
    s = StructureBuilder("Toggle")
    s.concrete("on", "int")
    s.invariant("Bit", "0 <= on & on <= 1")
    m = s.method("flip", modifies="on", ensures="on = 1 - old on")
    m.assign("on", "1 - on")
    m.done()
    toggle = s.build()
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        engine = VerificationEngine(default_portfolio().scaled(0.4), jobs=1)
        engine.verify_class(toggle)
        after_class = tracer.calls("verifier.incremental.record")
        engine.verify_suite([toggle], jobs=1)
        after_suite = tracer.calls("verifier.incremental.record")
        engine.verify_class(toggle, strip_proofs=True)
        after_strip = tracer.calls("verifier.incremental.record")
    finally:
        tracer.uninstall()
    assert after_class == 1
    assert after_suite - after_class == 1
    assert after_strip == after_suite
