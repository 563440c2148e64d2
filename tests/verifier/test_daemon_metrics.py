"""The daemon's ``metrics`` op (protocol v3) and the CLI around it.

Three layers:

* :meth:`VerifierDaemon.handle` directly, for the op's semantics
  (schedule plan, cache provenance) without socket plumbing;
* a live unix-socket daemon whose engine dispatches to a real worker
  session (``serve_session`` on an in-process thread through a real
  registry + handshake), for the acceptance criterion: ``metrics``
  against a live daemon returns per-worker latency and the run's plan;
* ``jahob-py metrics --connect`` end to end, printing
  :func:`~repro.verifier.report.format_metrics`.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.verifier.cli import main
from repro.verifier.daemon import (
    PROTOCOL_VERSION,
    DaemonClient,
    DaemonError,
    VerifierDaemon,
)
from repro.verifier.wire import LineChannel, connect_address, handshake_connect
from repro.verifier.worker import serve_session

from test_stats import COUNTER_KEYS

TIMEOUT_SCALE = 0.4
SECRET = b"daemon-metrics-test-secret"


def test_protocol_version_is_current():
    # The metrics op arrived in protocol v3; verify_file bumped it to 4;
    # admission control (structured rejections, priority lanes, rate
    # limits, tenant namespaces) and the HTTP front door bumped it to 5;
    # the streaming watch subscription bumped it to 6.  Ping reports
    # whatever the current version is -- pin it here so any future op
    # addition bumps the constant deliberately.
    assert PROTOCOL_VERSION == 6


class InThreadWorker(threading.Thread):
    """A *real* worker session (``serve_session``) on a thread, registered
    with a daemon's worker registry -- full protocol, no subprocess cost."""

    def __init__(self, registry_address: str) -> None:
        super().__init__(daemon=True, name="in-thread-worker")
        sock = connect_address(registry_address, timeout=5.0)
        self.channel = LineChannel(sock)
        handshake_connect(self.channel, SECRET, role="worker")
        sock.settimeout(None)
        self.start()

    def run(self) -> None:
        serve_session(self.channel)


class TestHandle:
    @pytest.fixture()
    def daemon(self, tmp_path):
        instance = VerifierDaemon(
            tmp_path / "jahob.sock",
            jobs=1,
            cache_dir=tmp_path / "cache",
            timeout_scale=TIMEOUT_SCALE,
        )
        yield instance
        instance.engine.close()

    def test_metrics_before_any_work(self, daemon):
        response = daemon.handle({"op": "metrics"})
        assert response["ok"]
        assert response["protocol"] == PROTOCOL_VERSION
        assert "cost_model" not in response
        assert response["schedule"] is None
        assert response["workers"] == []
        assert response["persistent_cache"]["status"] == "cold:missing"

    def test_metrics_after_verify_and_suite(self, daemon):
        assert daemon.handle({"op": "verify", "name": "Array List"})["ok"]
        assert daemon.handle(
            {"op": "suite", "names": ["Array List", "Cursor List"]}
        )["ok"]
        response = daemon.handle({"op": "metrics"})
        assert response["ok"]
        # Cache-hit provenance counters.
        counters = response["counters"]
        assert counters["proof_cache_hits_memory"] > 0
        assert counters["proof_cache_misses"] > 0
        # The plan of the suite run, in plan order: Array List was
        # answered from the cache the preceding verify filled, Cursor List
        # was dispatched.
        schedule = response["schedule"]
        assert schedule["jobs"] == 1
        assert [entry["class"] for entry in schedule["classes"]] == [
            "Array List",
            "Cursor List",
        ]
        array_list, cursor_list = schedule["classes"]
        assert array_list["dispatched"] == 0
        assert array_list["cache_hits"] == array_list["sequents"] > 0
        assert cursor_list["dispatched"] > 0
        fields = {"class", "sequents", "dispatched", "cache_hits", "duplicates"}
        assert all(set(entry) == fields for entry in schedule["classes"])

    def test_stats_and_metrics_ship_the_portfolio_counters(self, daemon):
        """One counter object behind both ops: after a verify, ``stats``
        and ``metrics`` carry the same ``counters`` dict, which is the
        portfolio statistics' ``as_dict`` with exactly ten keys."""
        assert daemon.handle({"op": "verify", "name": "Array List"})["ok"]
        stats = daemon.handle({"op": "stats"})
        metrics = daemon.handle({"op": "metrics"})
        assert stats["ok"] and metrics["ok"]
        assert stats["counters"] == metrics["counters"]
        assert stats["counters"] == daemon.engine.portfolio.statistics.as_dict()
        assert set(stats["counters"]) == COUNTER_KEYS
        assert stats["counters"]["sequents_attempted"] > 0
        assert stats["persistent_cache"] == metrics["persistent_cache"]

    def test_metrics_is_not_engine_gated(self, daemon):
        # A busy engine must not block metrics: nowait metrics succeeds
        # while the engine lock is held.
        assert daemon._engine_lock.acquire()
        try:
            response = daemon.handle({"op": "metrics", "nowait": True})
            assert response["ok"]
        finally:
            daemon._engine_lock.release()


class TestLiveDaemonWithRemoteWorker:
    @pytest.fixture()
    def served(self, tmp_path):
        instance = VerifierDaemon(
            tmp_path / "jahob.sock",
            cache_dir=tmp_path / "cache",
            timeout_scale=TIMEOUT_SCALE,
            secret=SECRET,
            worker_listen="127.0.0.1:0",
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(instance.socket_path)
        deadline = time.monotonic() + 5.0
        while True:
            try:
                client.ping()
                break
            except DaemonError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        worker = InThreadWorker(instance.registry.address)
        yield instance, client
        instance.stop()
        thread.join(timeout=10.0)
        instance.close()
        worker.join(timeout=5.0)

    def test_metrics_returns_per_worker_latency_and_plan(self, served):
        """The acceptance criterion, over a real socket with a real
        worker session carrying the prover phase."""
        instance, client = served
        verify = client.request({"op": "verify", "name": "Array List"})
        assert verify["ok"] and verify["exit"] == 0

        response = client.request({"op": "metrics"})
        assert response["ok"] and response["protocol"] == PROTOCOL_VERSION
        # The run's plan...
        schedule = response["schedule"]
        assert schedule["backend"] == "remote"
        [entry] = schedule["classes"]
        assert entry["class"] == "Array List"
        assert entry["dispatched"] > 0
        # ...and per-worker latency data from the remote dispatch.
        [worker_entry] = response["workers"]
        assert worker_entry["origin"] == "registry"
        assert worker_entry["latency"]["count"] > 0
        assert worker_entry["ewma_task_wall"] > 0
        assert sum(count for _, count in worker_entry["latency"]["buckets"]) == (
            worker_entry["latency"]["count"]
        )

    def test_stats_lists_the_connected_workers(self, served):
        instance, client = served
        assert client.request({"op": "verify", "name": "Array List"})["ok"]
        stats = client.request({"op": "stats"})
        metrics = client.request({"op": "metrics"})
        remote = stats["remote_workers"]
        assert remote["registry"] == instance.registry.address
        assert remote["connected"] == [entry["worker"] for entry in metrics["workers"]]
        assert len(remote["connected"]) == 1

    def test_cli_metrics_connect_prints_the_report(self, served, capsys):
        instance, client = served
        assert client.request({"op": "verify", "name": "Array List"})["ok"]
        exit_code = main(["--connect", str(instance.socket_path), "metrics"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"Daemon metrics (protocol {PROTOCOL_VERSION})" in out
        assert "Last run's plan" in out
        assert "Array List" in out
        assert "Remote workers" in out
        assert "registry" in out


def test_cli_metrics_requires_connect(capsys):
    assert main(["metrics"]) == 2
    assert "requires --connect" in capsys.readouterr().err
