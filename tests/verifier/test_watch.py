"""Daemon watch mode: subscription streaming over a live unix socket.

A background editor thread rewrites the watched file while the main
thread consumes the ``POST /v1/watch`` NDJSON stream through the same
:meth:`HttpApiClient.watch` generator the CLI uses, so the tests pin the
full loop: subscribe, baseline verdict, edit detection, incremental delta
(only dirty sequents re-dispatch), mid-edit error tolerance, a refused
request answered 400 before any stream, a client hang-up ending the
subscription, and -- the shutdown regression -- a daemon stopping under
an active subscription closes it cleanly instead of leaving the client
blocked on a read.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.verifier.daemon import PROTOCOL_VERSION, VerifierDaemon
from repro.verifier.http import HttpApiClient

TIMEOUT_SCALE = 0.4

BASE_PROGRAM = '''
from repro.suite.common import StructureBuilder


def build_toggle():
    s = StructureBuilder("Toggle")
    s.concrete("on", "int")
    s.invariant("Bit", "0 <= on & on <= 1")
    m = s.method("flip", modifies="on", ensures="on = 1 - old on")
    m.assign("on", "1 - on")
    m.done()
    return s.build()
'''

#: Same class, one edited postcondition -- still provable, and an extra
#: conjunct no other obligation of the class shares a fingerprint with
#: (``0 <= on`` would dedup against the invariant-restoration sequent).
EDITED_PROGRAM = BASE_PROGRAM.replace(
    '"on = 1 - old on"', '"on = 1 - old on & on + old on = 1"'
)


@pytest.fixture()
def daemon(tmp_path):
    """A serving daemon (background thread), a client, and a program file."""
    program = tmp_path / "toggle.py"
    program.write_text(BASE_PROGRAM)
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
    yield instance, client, thread, program
    if thread.is_alive():
        instance.stop()
        thread.join(timeout=10.0)
    instance.close()


def edit_after_first_verdict(events, program, text):
    """A thread that rewrites ``program`` once the baseline verdict lands."""

    def run():
        deadline = time.monotonic() + 30.0
        while not any(e.get("event") == "verdicts" for e in events):
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
        program.write_text(text)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_watch_is_socket_only(daemon):
    """``watch`` streams; it is no request/response op of ``handle``, only
    the unix socket's local-only route (see docs/service-api.md)."""
    instance, _, _, _ = daemon
    response = instance.handle({"op": "watch"})
    assert not response["ok"] and "unknown op" in response["error"]


def test_watch_streams_baseline_then_incremental_delta(daemon):
    instance, client, _, program = daemon
    events = []
    editor = edit_after_first_verdict(events, program, EDITED_PROGRAM)
    for event in client.watch(
        {"path": str(program), "interval": 0.1, "max_events": 2}
    ):
        events.append(event)
    editor.join(timeout=10.0)

    assert [e.get("event") for e in events] == [
        "subscribed",
        "verdicts",
        "verdicts",
        "closed",
    ]
    subscribed = events[0]
    assert subscribed["ok"] and subscribed["protocol"] == PROTOCOL_VERSION

    baseline, delta = events[1], events[2]
    assert baseline["verified"] and baseline["generation"] == 1
    (cold,) = baseline["classes"]
    assert cold["incremental"]["cold_start"]
    assert cold["incremental"]["dispatched"] == cold["sequents_total"] > 0

    assert delta["verified"] and delta["generation"] == 2
    (warm,) = delta["classes"]
    incremental = warm["incremental"]
    assert not incremental["cold_start"]
    # Only the sequents the edit invalidated were re-dispatched.
    assert 0 < incremental["dispatched"] < warm["sequents_total"]
    assert incremental["sequents_dirty"] == incremental["dispatched"]
    assert incremental["sequents_clean"] > 0
    # The carried PR 5 follow-up: every delta surfaces the live metrics
    # snapshot, including the watch section itself.
    watch_metrics = delta["metrics"]["watch"]
    assert watch_metrics["active"] == 1
    assert watch_metrics["events"] == 2
    assert watch_metrics["latency"]["count"] == 2

    closed = events[3]
    assert closed["reason"] == "max_events" and closed["events"] == 2
    assert instance.watch_active == 0
    assert instance.watch_subscriptions == 1


def test_watch_survives_mid_edit_syntax_error(daemon):
    _, client, _, program = daemon
    events = []

    def editor():
        deadline = time.monotonic() + 30.0
        while not any(e.get("event") == "verdicts" for e in events):
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
        program.write_text("def broken(:\n")  # a save mid-keystroke
        while not any(e.get("event") == "error" for e in events):
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
        program.write_text(EDITED_PROGRAM)

    thread = threading.Thread(target=editor, daemon=True)
    thread.start()
    for event in client.watch(
        {"path": str(program), "interval": 0.1, "max_events": 3}
    ):
        events.append(event)
    thread.join(timeout=10.0)

    kinds = [e.get("event") for e in events]
    assert kinds == ["subscribed", "verdicts", "error", "verdicts", "closed"]
    error = events[2]
    assert error["ok"] and "toggle.py" in error["error"]
    # The stream recovered: the post-fix verdict is a warm incremental one.
    (warm,) = events[3]["classes"]
    assert not warm["incremental"]["cold_start"]


def test_watch_rejects_bad_requests(daemon):
    _, client, _, program = daemon
    missing = list(client.watch({"path": str(program) + ".nope"}))
    assert len(missing) == 1
    assert not missing[0]["ok"] and "no such file" in missing[0]["error"]
    bad_budget = list(client.watch({"path": str(program), "max_events": 0}))
    assert len(bad_budget) == 1 and not bad_budget[0]["ok"]


def test_refused_watch_is_a_400_before_any_stream(daemon):
    instance, client, _, program = daemon
    status, response = client.request(
        "POST", "/v1/watch", {"path": str(program), "priority": "urgent"}
    )
    assert status == 400
    assert not response["ok"] and "unknown priority" in response["error"]
    assert instance.watch_subscriptions == 0


def test_stream_is_ndjson_and_a_hang_up_unsubscribes(daemon):
    """The stream is one ``Connection: close`` NDJSON response; a client
    that hangs up mid-stream ends its subscription."""
    instance, _, _, program = daemon
    body = json.dumps({"path": str(program), "interval": 0.1}).encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(str(instance.socket_path))
        sock.sendall(
            b"POST /v1/watch HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        data = b""
        while b'"event":"verdicts"' not in data:
            chunk = sock.recv(65536)
            assert chunk, f"stream ended early: {data!r}"
            data += chunk
        head, _, stream = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Content-Type: application/x-ndjson" in head
        assert b"Connection: close" in head
        subscribed = json.loads(stream.splitlines()[0])
        assert subscribed["event"] == "subscribed"
        assert instance.watch_active == 1
    deadline = time.monotonic() + 10.0
    while instance.watch_active and time.monotonic() < deadline:
        time.sleep(0.02)
    assert instance.watch_active == 0
    assert instance.watch_subscriptions == 1


def test_shutdown_closes_active_watch_cleanly(daemon):
    """A daemon stopping under a live subscription must end the stream
    with a ``closed`` event (no hung client read) and unlink its socket."""
    instance, client, thread, program = daemon
    events = []
    done = threading.Event()

    def subscribe():
        try:
            for event in client.watch({"path": str(program), "interval": 0.1}):
                events.append(event)
        finally:
            done.set()

    watcher = threading.Thread(target=subscribe, daemon=True)
    watcher.start()
    deadline = time.monotonic() + 30.0
    while not any(e.get("event") == "verdicts" for e in events):
        assert time.monotonic() < deadline, f"no baseline verdict: {events}"
        time.sleep(0.02)

    shutdown_client = HttpApiClient(str(instance.socket_path))
    assert shutdown_client.call({"op": "shutdown"})["ok"]

    assert done.wait(timeout=10.0), "watch client still blocked after shutdown"
    watcher.join(timeout=10.0)
    closed = events[-1]
    assert closed.get("event") == "closed" and closed["reason"] == "shutdown"
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not instance.socket_path.exists()
    assert instance.watch_active == 0
