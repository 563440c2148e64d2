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
import threading
import time
from pathlib import Path

import pytest

from repro.provers.cache import CachedVerdict, PersistentCacheStore
from repro.provers.dispatch import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier.daemon import VerifierDaemon
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import HttpApiClient

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def build_toggle():
    s = StructureBuilder("Toggle")
    s.concrete("on", "int")
    s.invariant("Bit", "0 <= on & on <= 1")
    m = s.method("flip", modifies="on", ensures="on = 1 - old on")
    m.assign("on", "1 - on")
    m.done()
    return s.build()


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
    toggle = build_toggle()
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        engine = VerificationEngine(default_portfolio().scaled(0.4), jobs=1)
        engine.verify_class(toggle)
        after_class = tracer.calls("verifier.incremental.record")
        engine.verify_suite([toggle])
        after_suite = tracer.calls("verifier.incremental.record")
        engine.verify_class(toggle, strip_proofs=True)
        after_strip = tracer.calls("verifier.incremental.record")
    finally:
        tracer.uninstall()
    assert after_class == 1
    assert after_suite - after_class == 1
    assert after_strip == after_suite


def test_cold_verify_class_goes_through_every_patched_layer(tracing):
    """The per-layer metrics read these spans; a call that stopped going
    through the name the tracer patches (e.g. ``engine.lower_method``)
    would read 0 in a traced benchmark run instead of failing here."""
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        engine = VerificationEngine(default_portfolio().scaled(0.4), jobs=1)
        engine.verify_class(build_toggle())
    finally:
        tracer.uninstall()
    layers = [
        "frontend.lower",
        "gcl.desugar",
        "vcgen.generate",
        "vcgen.assumptions",
        "provers.cache.key",
        "verifier.engine.verify_class",
    ]
    assert [layer for layer in layers if tracer.calls(layer) == 0] == []


def test_edit_serve_daemon_is_http_only(tmp_path, monkeypatch):
    """``perfbench/workloads.py``'s ``EditServe.setup`` builds its daemon on
    a ``HOST:PORT`` address with ``http`` on another ``:0``, then uses
    ``bind``, ``http_door.address``, ``serve_forever``, ``stop`` and the
    thread join.  That address means an HTTP-only daemon: no unix socket
    file appears, ``/v1/ping`` answers through ``HttpApiClient``, and
    ``stop()`` ends ``serve_forever`` at once, not after the benchmark's
    60-second join."""
    secret = b"perfbench-loopback-secret"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    daemon = VerifierDaemon(
        "127.0.0.1:0",
        jobs=1,
        cache_dir=tmp_path / "store",
        persist=True,
        timeout_scale=0.4,
        secret=secret,
        http="127.0.0.1:0",
    )
    thread = threading.Thread(target=daemon.serve_forever)
    try:
        daemon.bind()
        address = daemon.http_door.address
        assert not address.endswith(":0")
        thread.start()
        client = HttpApiClient(address, secret)
        client.wait_ready()
        status, response = client.request("GET", "/v1/ping")
        assert status == 200 and response["ok"]
        assert list(cwd.iterdir()) == []
    finally:
        daemon.stop()
        start = time.monotonic()
        thread.join(timeout=10.0)
        stopped_in = time.monotonic() - start
    assert not thread.is_alive()
    assert stopped_in < 1.0
    assert list(cwd.iterdir()) == []
