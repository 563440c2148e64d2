"""Daemon lifecycle: start, warm requests, cache-hit provenance, shutdown.

The daemon runs in a background thread over a real unix socket in a tmp
directory; the client is the same :class:`DaemonClient` the CLI's
``--connect`` flag uses.  Wall-clock assertions are limited to the one
acceptance ratio (warm >= 5x cold) with a huge measured margin (~30x on
the 1-CPU reference container); everything else asserts verdicts and
provenance, which are deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.provers.dispatch import default_portfolio
from repro.verifier.daemon import (
    PROTOCOL_VERSION,
    DaemonClient,
    DaemonError,
    VerifierDaemon,
)
from repro.verifier.engine import VerificationEngine

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
    deadline = time.monotonic() + 5.0
    client = DaemonClient(instance.socket_path)
    while True:
        try:
            client.ping()
            break
        except DaemonError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
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
    pong = client.ping()
    assert pong["ok"] and pong["protocol"] == PROTOCOL_VERSION
    names = client.request({"op": "list"})["structures"]
    assert "Linked List" in names and len(names) == 8


def test_two_warm_requests_and_provenance(daemon):
    """Cold request runs provers; the second is served from warm memory."""
    _, client, _ = daemon
    start = time.monotonic()
    cold = client.request({"op": "verify", "name": "Array List"})
    cold_elapsed = time.monotonic() - start
    assert cold["ok"] and cold["exit"] == 0
    assert cold["report"]["verified"]
    assert any(not outcome["cached"] for outcome in outcomes_of(cold["report"]))

    start = time.monotonic()
    warm = client.request({"op": "verify", "name": "Array List"})
    warm_elapsed = time.monotonic() - start
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
    # Acceptance: warm serving is >= 5x faster than the daemon's own cold
    # start (measured ~30x; the margin absorbs load jitter).
    assert warm_elapsed * 5 <= cold_elapsed, (cold_elapsed, warm_elapsed)

    stats = client.request({"op": "stats"})
    assert stats["ok"]
    assert stats["counters"]["proof_cache_hits_memory"] >= len(warm_outcomes)


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


def test_suite_op_runs_scheduler(daemon):
    _, client, _ = daemon
    response = client.request({"op": "suite", "names": ["Array List", "Cursor List"]})
    assert response["ok"]
    assert [payload["class"] for payload in response["reports"]] == [
        "Array List",
        "Cursor List",
    ]
    assert "Run plan" in response["output"]


def test_unknown_op_and_bad_request(daemon):
    _, client, _ = daemon
    response = client.request({"op": "frobnicate"})
    assert not response["ok"] and "unknown op" in response["error"]
    response = client.request({"op": "verify"})
    assert not response["ok"]
    response = client.request({"op": "verify", "name": "No Such Structure"})
    assert not response["ok"] and "KeyError" in response["error"]
    # An oversized request still gets a response (not a bare hang-up).
    response = client.request({"op": "verify", "name": "x" * (1 << 20)})
    assert not response["ok"] and "too large" in response["error"]
    # The daemon survived all of that.
    assert client.ping()["ok"]


def test_clean_shutdown_flushes_and_unlinks(daemon):
    instance, client, thread = daemon
    client.request({"op": "verify", "name": "Cursor List"})
    response = client.shutdown()
    assert response["ok"]
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not instance.socket_path.exists()
    # The persistent store was written on the way down.
    assert (instance.engine.persistent_store.path).exists()
    with pytest.raises(DaemonError):
        client.ping()


def test_parallel_daemon_serves_over_socket(tmp_path):
    """A ``jobs > 1`` daemon answers over the socket without hanging clients.

    Regression: the pool used to fork during the first dispatching
    request, so the workers inherited the accepted connection fd and a
    client reading to EOF hung forever even though the response was sent.
    The daemon now pre-forks before accepting, and the client stops at
    the protocol's newline delimiter either way.
    """
    instance = VerifierDaemon(
        tmp_path / "par.sock", jobs=2, persist=False, timeout_scale=TIMEOUT_SCALE
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(instance.socket_path)
    deadline = time.monotonic() + 15.0
    while True:
        try:
            client.ping()
            break
        except DaemonError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    try:
        # serve_forever forked the pool before accepting the first
        # connection, so no request can leak its fd into a worker.
        assert instance.engine.pool_warm
        cold = client.request({"op": "verify", "name": "Array List"})
        assert cold["ok"] and cold["report"]["verified"]
        assert any(not outcome["cached"] for outcome in outcomes_of(cold["report"]))
        warm = client.request({"op": "verify", "name": "Array List"})
        assert warm["ok"]
        assert all(outcome["cached"] for outcome in outcomes_of(warm["report"]))
    finally:
        client.shutdown()
        thread.join(timeout=10.0)
        instance.close()
    assert not thread.is_alive()


def test_broken_warm_pool_is_discarded(monkeypatch):
    """A dead executor must not survive as the daemon's warm pool."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.suite import structure_by_name
    from repro.verifier import parallel

    engine = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=2, keep_pool_warm=True
    )
    cls = structure_by_name("Cursor List")

    def boom(self, items):
        raise BrokenProcessPool("worker died")
        yield  # unreachable; makes this a generator like the real run()

    monkeypatch.setattr(parallel.ProverPool, "run", boom)
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
    client = DaemonClient(tmp_path / "nobody-home.sock")
    with pytest.raises(DaemonError, match="cannot connect"):
        client.ping()


def test_bind_refuses_live_socket_and_replaces_stale(tmp_path, daemon):
    live, _, _ = daemon
    conflict = VerifierDaemon(live.socket_path, engine=VerificationEngine())
    with pytest.raises(DaemonError, match="already listening"):
        conflict.bind()
    # Closing the loser must not unlink the live daemon's socket.
    conflict.close()
    assert live.socket_path.exists()
    assert DaemonClient(live.socket_path).ping()["ok"]
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
