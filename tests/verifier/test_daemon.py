"""Daemon lifecycle: start, warm requests, cache-hit provenance, shutdown.

The daemon runs in a background thread over a real unix socket in a tmp
directory; the client is the same :class:`HttpApiClient` the CLI's
``--connect`` flag uses, dialing the socket path.  Wall-clock assertions
are limited to the one acceptance ratio (a warm request within 3x of a
front-end-only pass over the class; measured 0.6-1.3x inside a tier-1
run on a 2-vCPU VM); everything else asserts verdicts and provenance,
which are deterministic.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.frontend.loader import load_class_models
from repro.provers.cache import PersistentCacheStore
from repro.provers.dispatch import default_portfolio
from repro.suite.catalog import structure_by_name
from repro.suite.generate import FAMILIES, generate_corpus, regression_source
from repro.verifier.daemon import PROTOCOL_VERSION, DaemonError, VerifierDaemon
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import HttpApiClient, HttpApiError

_PROVER_TESTS = Path(__file__).resolve().parent.parent / "provers"
if str(_PROVER_TESTS) not in sys.path:
    sys.path.insert(0, str(_PROVER_TESTS))

from test_cache_persistence import _legacy_encoding  # noqa: E402

TIMEOUT_SCALE = 0.4


@pytest.fixture()
def daemon(tmp_path):
    """A serving daemon (background thread) plus a connected client."""
    instance = VerifierDaemon(
        tmp_path / "jahob.sock",
        jobs=1,
        cache_dir=tmp_path / "cache",
        timeout_scale=TIMEOUT_SCALE,
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    client = HttpApiClient(str(instance.socket_path))
    client.wait_ready(deadline=5.0)
    yield instance, client, thread
    if thread.is_alive():
        instance.stop()
        thread.join(timeout=10.0)
    instance.close()


def outcomes_of(report_payload):
    return [
        outcome
        for method in report_payload["methods"]
        for outcome in method["outcomes"]
    ]


def test_ping_and_list(daemon):
    _, client, _ = daemon
    pong = client.call({"op": "ping"})
    assert pong["ok"] and pong["protocol"] == PROTOCOL_VERSION
    names = client.call({"op": "list"})["structures"]
    assert "Linked List" in names and len(names) == 8


def _front_end_seconds(name: str) -> float:
    """Wall time of a front-end-only pass over one catalogue class: every
    sequent and proof task generated, nothing dispatched, no cache."""
    gc.collect()
    start = time.monotonic()
    engine = VerificationEngine(use_proof_cache=False)
    cls = structure_by_name(name)
    for method in cls.methods:
        for sequent in engine.method_sequents(cls, method):
            engine.task_for(sequent)
    return time.monotonic() - start


def test_two_warm_requests_and_provenance(daemon):
    """Cold request runs provers; the repeats are served from warm memory."""
    _, client, _ = daemon
    cold = client.call({"op": "verify", "name": "Array List"})
    assert cold["ok"] and cold["exit"] == 0
    assert cold["report"]["verified"]
    assert any(not outcome["cached"] for outcome in outcomes_of(cold["report"]))

    warm_times = []
    for _ in range(3):
        gc.collect()
        start = time.monotonic()
        warm = client.call({"op": "verify", "name": "Array List"})
        warm_times.append(time.monotonic() - start)
        assert warm["ok"] and warm["exit"] == 0
        warm_outcomes = outcomes_of(warm["report"])
        assert warm_outcomes and all(outcome["cached"] for outcome in warm_outcomes)
        assert {outcome["origin"] for outcome in warm_outcomes} == {"memory"}
        # Verdicts and attribution are identical cold vs warm.
        assert [
            (outcome["label"], outcome["proved"], outcome["prover"])
            for outcome in outcomes_of(cold["report"])
        ] == [
            (outcome["label"], outcome["proved"], outcome["prover"])
            for outcome in warm_outcomes
        ]
    # The daemon's output is the same format_verify text a local run prints.
    assert warm["output"].splitlines()[-1].startswith("total:")
    assert "Array List." in warm["output"]
    # Acceptance: a warm request costs no more than a small multiple of a
    # front-end-only pass over the class (best of three requests, best of
    # five passes), whatever the provers' speed.  Measured 0.6-1.3x inside
    # a tier-1 run: the engine reuses the class's sequents, so a warm
    # request is cache lookups and transport.  Running the provers again on
    # the cache hits reads about 7x.
    warm_elapsed = min(warm_times)
    front_end = min(_front_end_seconds("Array List") for _ in range(5))
    assert warm_elapsed <= 3 * front_end, (warm_elapsed, front_end)

    stats = client.call({"op": "stats"})
    assert stats["ok"]
    assert stats["counters"]["proof_cache_hits_memory"] >= 3 * len(warm_outcomes)


def test_warm_restart_serves_from_disk(tmp_path):
    """A new daemon over the same cache dir answers from disk hits."""
    engine_args = dict(
        jobs=1, cache_dir=tmp_path / "cache", timeout_scale=TIMEOUT_SCALE
    )
    first = VerifierDaemon(tmp_path / "a.sock", **engine_args)
    response = first.handle({"op": "verify", "name": "Cursor List"})
    assert response["ok"]
    flushed = first.handle({"op": "shutdown"})
    assert flushed["ok"]
    first.close()

    second = VerifierDaemon(tmp_path / "b.sock", **engine_args)
    try:
        warm = second.handle({"op": "verify", "name": "Cursor List"})
        assert warm["ok"]
        outcomes = outcomes_of(warm["report"])
        assert outcomes and all(outcome["cached"] for outcome in outcomes)
        assert {outcome["origin"] for outcome in outcomes} == {"disk"}
    finally:
        second.close()


def test_verify_file_edits_keep_the_store_byte_identical(tmp_path):
    """Edits served by a persisting daemon merge-save a primed store: the
    file stays the one-``dumps`` encoding of what it holds, and every
    verdict matches a store-less engine's."""
    cache_dir = tmp_path / "cache"
    seed, size = 11, 3
    classes = generate_corpus(4, seed=seed, size=size)
    primer = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), cache_dir=cache_dir
    )
    for cls in classes:
        primer.verify_class(cls)
    primer.close()
    families = tuple(FAMILIES)
    reference = VerificationEngine(default_portfolio().scaled(TIMEOUT_SCALE))
    instance = VerifierDaemon(
        tmp_path / "jahob.sock",
        jobs=1,
        cache_dir=cache_dir,
        timeout_scale=TIMEOUT_SCALE,
    )
    try:
        for index, cls in enumerate(classes[:3]):
            path = tmp_path / f"edit_{index}.py"
            path.write_text(
                regression_source(
                    families[index % len(families)],
                    seed + index,
                    size,
                    drop_methods=(cls.methods[0].name,),
                )
            )
            response = instance.handle({"op": "verify_file", "path": str(path)})
            assert response["ok"]
            (payload,) = response["reports"]
            assert payload["class"] == cls.name
            outcomes = outcomes_of(payload)
            assert {outcome["origin"] for outcome in outcomes} == {"disk"}
            (model,) = load_class_models(path)
            expected = reference.verify_class(model)
            assert [(o["label"], o["proved"]) for o in outcomes] == [
                (outcome.sequent.label, outcome.proved)
                for method in expected.methods
                for outcome in method.outcomes
            ]
        portfolio_key = instance.engine.persistent_store.portfolio_key
    finally:
        instance.close()
    store = PersistentCacheStore(cache_dir, portfolio_key)
    entries = store.load()
    assert set(store.last_dependencies) == {cls.name for cls in classes}
    for cls in classes[:3]:
        methods = store.last_dependencies[cls.name]["methods"]
        assert len(methods) == len(cls.methods) - 1
    expected_text = _legacy_encoding(store, entries, store.last_dependencies)
    assert store.path.read_text(encoding="utf-8") == expected_text


def test_suite_op_runs_scheduler(daemon):
    _, client, _ = daemon
    response = client.call({"op": "suite", "names": ["Array List", "Cursor List"]})
    assert response["ok"]
    assert [payload["class"] for payload in response["reports"]] == [
        "Array List",
        "Cursor List",
    ]
    assert "Run plan" in response["output"]


def test_unknown_op_and_bad_request(daemon):
    _, client, _ = daemon
    # An unknown op has no route.
    status, response = client.request("POST", "/v1/frobnicate", {})
    assert status == 404 and not response["ok"]
    assert "/v1/frobnicate" in response["error"]
    response = client.call({"op": "verify"})
    assert not response["ok"]
    response = client.call({"op": "verify", "name": "No Such Structure"})
    assert not response["ok"] and "KeyError" in response["error"]
    # An oversized request still gets a response (not a bare hang-up).
    status, response = client.request("POST", "/v1/verify", {"name": "x" * (1 << 20)})
    assert status == 400
    assert not response["ok"] and "too large" in response["error"]
    # The daemon survived all of that.
    assert client.call({"op": "ping"})["ok"]


def test_clean_shutdown_flushes_and_unlinks(daemon):
    instance, client, thread = daemon
    client.call({"op": "verify", "name": "Cursor List"})
    response = client.call({"op": "shutdown"})
    assert response["ok"]
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not instance.socket_path.exists()
    # The persistent store was written on the way down.
    assert (instance.engine.persistent_store.path).exists()
    with pytest.raises(HttpApiError):
        client.call({"op": "ping"})


def test_parallel_daemon_serves_over_socket(tmp_path):
    """A ``jobs > 1`` daemon answers over the socket without hanging clients.

    Regression: the pool used to fork during the first dispatching
    request, so the workers inherited the accepted connection fd and a
    client reading to EOF hung forever even though the response was sent.
    The daemon now pre-forks before accepting, and the client stops at
    the response's ``Content-Length`` either way.
    """
    instance = VerifierDaemon(
        tmp_path / "par.sock", jobs=2, persist=False, timeout_scale=TIMEOUT_SCALE
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    client = HttpApiClient(str(instance.socket_path))
    client.wait_ready(deadline=15.0)
    try:
        # bind() forked the pool before creating the listener, so no
        # request can leak its fd into a worker.
        assert instance.engine.pool_warm
        cold = client.call({"op": "verify", "name": "Array List"})
        assert cold["ok"] and cold["report"]["verified"]
        assert any(not outcome["cached"] for outcome in outcomes_of(cold["report"]))
        warm = client.call({"op": "verify", "name": "Array List"})
        assert warm["ok"]
        assert all(outcome["cached"] for outcome in outcomes_of(warm["report"]))
    finally:
        client.call({"op": "shutdown"})
        thread.join(timeout=10.0)
        instance.close()
    assert not thread.is_alive()


def _held_fds(pid: int) -> set[str]:
    held = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            held.add(os.readlink(fd))
        except FileNotFoundError:
            pass  # closed while listed
    return held


def test_bind_forks_the_pool_before_the_listener_exists(tmp_path):
    """No worker of a jobs=2 daemon holds a socket: the first pool forks
    before the listener exists, and a pool that replaces a broken one forks
    mid-request but closes the listener and connection fds it inherits."""
    instance = VerifierDaemon(
        tmp_path / "fd.sock", jobs=2, persist=False, timeout_scale=TIMEOUT_SCALE
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    try:
        instance.bind()
        assert instance.engine.pool_warm
        server = instance.unix_door._server
        listener = "socket:[%d]" % os.fstat(server.fileno()).st_ino
        workers = list(instance.engine._pool._executor._processes)
        assert len(workers) == 2
        for pid in workers:
            assert listener not in _held_fds(pid), f"worker {pid} holds the listener"

        thread.start()
        client = HttpApiClient(str(instance.socket_path))
        client.wait_ready()
        os.kill(workers[0], signal.SIGKILL)
        broken = client.call({"op": "verify", "name": "Cursor List"})
        assert not broken["ok"] and "BrokenProcessPool" in broken["error"]
        assert client.call({"op": "verify", "name": "Cursor List"})["ok"]
        replacements = set(instance.engine._pool._executor._processes)
        assert len(replacements) == 2 and not replacements & set(workers)
        for pid in replacements:
            # A worker closes them in its initializer; allow it to get there.
            deadline = time.monotonic() + 5.0
            while True:
                sockets = {fd for fd in _held_fds(pid) if fd.startswith("socket:")}
                if not sockets or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert not sockets, f"replacement worker {pid} holds {sockets}"
    finally:
        if thread.is_alive():
            instance.stop()
            thread.join(timeout=10.0)
        instance.close()


def test_broken_warm_pool_is_discarded(monkeypatch):
    """A dead executor must not survive as the daemon's warm pool."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.suite import structure_by_name
    from repro.verifier import pipeline

    engine = VerificationEngine(default_portfolio().scaled(TIMEOUT_SCALE), jobs=2)
    cls = structure_by_name("Cursor List")

    def boom(self, items):
        raise BrokenProcessPool("worker died")
        yield  # unreachable; makes this a generator like the real run()

    monkeypatch.setattr(pipeline.ProverPool, "run", boom)
    with pytest.raises(BrokenProcessPool):
        engine.verify_class(cls)
    assert engine._pool is None
    monkeypatch.undo()
    # The next request forks a fresh pool and succeeds.
    report = engine.verify_class(cls)
    assert report.sequents_total > 0
    assert engine._pool is not None
    engine.close()


def test_connect_to_missing_socket_is_a_clear_error(tmp_path):
    client = HttpApiClient(str(tmp_path / "nobody-home.sock"))
    with pytest.raises(HttpApiError, match="cannot connect"):
        client.call({"op": "ping"})


def test_bind_refuses_live_socket_and_replaces_stale(tmp_path, daemon):
    live, _, _ = daemon
    conflict = VerifierDaemon(live.socket_path, engine=VerificationEngine())
    with pytest.raises(DaemonError, match="already listening"):
        conflict.bind()
    # Closing the loser must not unlink the live daemon's socket.
    conflict.close()
    assert live.socket_path.exists()
    assert HttpApiClient(str(live.socket_path)).call({"op": "ping"})["ok"]
    # A stale socket file (no listener behind it) is silently replaced.
    import socket as socket_module

    stale_path = tmp_path / "stale.sock"
    orphan = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    orphan.bind(str(stale_path))
    orphan.close()  # leaves the socket file behind with nobody listening
    replacement = VerifierDaemon(stale_path, engine=VerificationEngine())
    try:
        replacement.bind()
        assert replacement.running
    finally:
        replacement.close()
    assert not stale_path.exists()
    # A path holding a regular file is never deleted.
    plain_path = tmp_path / "not-a-socket"
    plain_path.write_text("precious")
    mistake = VerifierDaemon(plain_path, engine=VerificationEngine())
    with pytest.raises(DaemonError, match="not a socket"):
        mistake.bind()
    assert plain_path.read_text() == "precious"
