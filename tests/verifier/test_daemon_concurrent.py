"""Concurrent request handling of the daemon's unix socket.

A daemon that served one connection at a time made even ``ping`` queue
behind a long ``table1``.  These tests pin the contract: every connection
gets its own thread, engine ops serialize on the engine lock, and
``nowait`` turns queueing into an immediate busy error.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.provers.dispatch import default_portfolio
from repro.verifier.daemon import VerifierDaemon
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import HttpApiClient

TIMEOUT_SCALE = 0.4


def start_daemon(daemon: VerifierDaemon):
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = HttpApiClient(daemon.address)
    client.wait_ready()
    return client, thread


@pytest.fixture()
def unix_daemon(tmp_path):
    daemon = VerifierDaemon(
        tmp_path / "jahob.sock",
        engine=VerificationEngine(
            default_portfolio().scaled(TIMEOUT_SCALE), persist=False
        ),
    )
    client, thread = start_daemon(daemon)
    yield daemon, client
    if thread.is_alive():
        daemon.stop()
        thread.join(timeout=10.0)
    daemon.close()


class TestConcurrentRequests:
    def test_ping_is_served_while_engine_op_runs(self, unix_daemon):
        daemon, client = unix_daemon
        started = threading.Event()
        release = threading.Event()

        def slow_verify(request):
            started.set()
            assert release.wait(30.0)
            return {"slow": True}

        daemon._op_verify = slow_verify  # instance attr wins in handle()
        responses = {}

        def long_request():
            responses["slow"] = client.call({"op": "verify", "name": "x"})

        worker = threading.Thread(target=long_request, daemon=True)
        worker.start()
        try:
            assert started.wait(10.0), "slow op never started"
            # The engine is busy, yet ping and list answer immediately.
            t0 = time.monotonic()
            assert client.call({"op": "ping"})["ok"]
            names = client.call({"op": "list"})
            assert names["ok"] and len(names["structures"]) == 8
            assert time.monotonic() - t0 < 5.0
            assert not responses, "slow op finished too early"
        finally:
            release.set()
        worker.join(timeout=10.0)
        assert responses["slow"]["ok"] and responses["slow"]["slow"]

    def test_nowait_engine_op_reports_busy(self, unix_daemon):
        daemon, client = unix_daemon
        started = threading.Event()
        release = threading.Event()

        def slow_verify(request):
            started.set()
            assert release.wait(30.0)
            return {}

        daemon._op_verify = slow_verify
        worker = threading.Thread(
            target=lambda: client.call({"op": "verify", "name": "x"}),
            daemon=True,
        )
        worker.start()
        try:
            assert started.wait(10.0)
            busy = client.call({"op": "table1", "nowait": True})
            assert not busy["ok"]
            assert busy.get("busy") is True
            assert "busy" in busy["error"]
            # Non-engine ops never report busy.
            assert client.call({"op": "ping", "nowait": True})["ok"]
        finally:
            release.set()
        worker.join(timeout=10.0)

    def test_engine_ops_serialize(self, unix_daemon):
        """Two overlapping verify requests both succeed, one after the
        other -- the engine lock queues, it does not reject."""
        daemon, client = unix_daemon
        order = []
        lock_probe = threading.Lock()

        def recording_verify(request):
            with lock_probe:
                order.append(("start", request["name"]))
            time.sleep(0.1)
            with lock_probe:
                order.append(("end", request["name"]))
            return {}

        daemon._op_verify = recording_verify
        threads = [
            threading.Thread(
                target=lambda n=name: client.call({"op": "verify", "name": n}),
                daemon=True,
            )
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        # Strict nesting is impossible: starts and ends alternate.
        assert len(order) == 4
        assert [kind for kind, _ in order] == ["start", "end", "start", "end"]
