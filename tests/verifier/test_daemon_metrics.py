"""The daemon's ``metrics`` op and the CLI around it.

Three layers:

* :meth:`VerifierDaemon.handle` directly, for the op's semantics
  (schedule plan, cache provenance, the exact field set) without socket
  plumbing;
* a live unix-socket daemon whose engine dispatches to the local process
  pool (``jobs=2``), queried over a real socket;
* ``jahob-py metrics --connect`` end to end against that daemon, printing
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

from test_stats import COUNTER_KEYS

TIMEOUT_SCALE = 0.4


def test_protocol_version_is_current():
    # The metrics op arrived in protocol v3; verify_file bumped it to 4;
    # admission control (structured rejections, priority lanes, rate
    # limits, tenant namespaces) and the HTTP front door bumped it to 5;
    # the streaming watch subscription bumped it to 6; dropping the
    # remote-worker fields bumped it to 7; dropping rate limits and the
    # service-time estimate from admission bumped it to 8; deleting the
    # TCP line protocol and its handshake bumped it to 9.  Ping reports
    # whatever the current version is -- pin it here so any future op
    # addition bumps the constant deliberately.
    assert PROTOCOL_VERSION == 9


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
        assert set(response) == {
            "ok",
            "elapsed",
            "protocol",
            "counters",
            "persistent_cache",
            "admission",
            "watch",
            "schedule",
        }
        assert response["schedule"] is None
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


class TestLiveDaemon:
    @pytest.fixture()
    def served(self, tmp_path):
        instance = VerifierDaemon(
            tmp_path / "jahob.sock",
            jobs=2,
            cache_dir=tmp_path / "cache",
            timeout_scale=TIMEOUT_SCALE,
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
        yield instance, client
        instance.stop()
        thread.join(timeout=10.0)
        instance.close()

    def test_cli_metrics_connect_prints_the_report(self, served, capsys):
        instance, client = served
        assert client.request({"op": "verify", "name": "Array List"})["ok"]
        exit_code = main(["--connect", str(instance.socket_path), "metrics"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"Daemon metrics (protocol {PROTOCOL_VERSION})" in out
        assert "Last run's plan (2 jobs)" in out
        assert "Array List" in out
        assert "Admission" in out
        assert "Remote workers" not in out


def test_cli_metrics_requires_connect(capsys):
    assert main(["metrics"]) == 2
    assert "requires --connect" in capsys.readouterr().err
