"""A worker session survives an ``init`` it cannot build.

An unknown prover name or a malformed timeout in the coordinator's spec
is answered with an ``error`` message (``index`` null); the worker keeps
its portfolio unset, answers later batches with "batch before init", and
keeps serving until ``bye``.  The coordinator turns the error into a
:class:`~repro.verifier.remote.RemoteWorkerError`.
"""

from __future__ import annotations

import threading

import pytest

from repro.logic.parser import parse_formula
from repro.provers import ProofTask
from repro.provers.dispatch import PortfolioSpec
from repro.verifier.remote import RemoteWorkerError, RemoteWorkerPool, WorkerRegistry
from repro.verifier.wire import (
    LineChannel,
    connect_address,
    decode_payload,
    encode_payload,
    handshake_connect,
)
from repro.verifier.worker import serve_session

SECRET = b"worker-session-test-secret"


class ScriptedChannel:
    """Feeds a fixed list of messages to the session and records replies."""

    def __init__(self, messages: list[dict]) -> None:
        self.incoming = list(messages)
        self.sent: list[dict] = []

    def send(self, message: dict) -> None:
        self.sent.append(message)

    def recv(self) -> dict | None:
        return self.incoming.pop(0) if self.incoming else None


def test_build_names_the_unknown_prover():
    with pytest.raises(ValueError, match="'spass'"):
        PortfolioSpec((("smt", 1.0), ("spass", 0.8))).build()


@pytest.mark.parametrize(
    "spec, complaint",
    [([["spass", 0.8]], "spass"), ([["smt", "abc"]], "abc")],
    ids=["unknown-prover", "bad-timeout"],
)
def test_bad_init_is_answered_and_the_session_goes_on(spec, complaint):
    unanswered = {"op": "ping"}
    channel = ScriptedChannel(
        [
            {"op": "init", "spec": spec},
            {"op": "batch", "tasks": [[0, "never decoded"]]},
            {"op": "ping"},
            {"op": "bye"},
            unanswered,
        ]
    )
    assert serve_session(channel) == 0
    hello, init_error, batch_error, pong = channel.sent
    assert hello["op"] == "hello"
    assert init_error["op"] == "error" and init_error["index"] is None
    assert complaint in init_error["error"]
    assert batch_error == {"op": "error", "index": None, "error": "batch before init"}
    assert pong["op"] == "pong"
    # The session ended on ``bye``, not on running out of messages.
    assert channel.incoming == [unanswered]


def test_good_init_after_a_bad_one_serves_batches():
    task = ProofTask((), parse_formula("0 < 1", {}))
    channel = ScriptedChannel(
        [
            {"op": "init", "spec": [["fol", 2.0]]},
            {"op": "init", "spec": [["smt", 1.0]]},
            {"op": "batch", "tasks": [[7, encode_payload(task)]]},
            {"op": "bye"},
        ]
    )
    assert serve_session(channel) == 1
    _hello, init_error, result = channel.sent
    assert init_error["op"] == "error" and "'fol'" in init_error["error"]
    assert result["op"] == "result" and result["index"] == 7
    assert decode_payload(result["payload"]).winning_prover == "smt"


def test_coordinator_naming_an_unknown_prover_gets_an_error_not_a_dead_worker():
    registry = WorkerRegistry("127.0.0.1:0", SECRET)
    sock = connect_address(registry.address, timeout=5.0)
    channel = LineChannel(sock)
    handshake_connect(channel, SECRET, role="worker")
    sock.settimeout(None)
    answered: list[int] = []
    worker = threading.Thread(
        target=lambda: answered.append(serve_session(channel)), daemon=True
    )
    worker.start()
    pool = RemoteWorkerPool(
        PortfolioSpec((("fol", 2.0),)), registry=registry, secret=SECRET
    )
    try:
        with pytest.raises(RemoteWorkerError, match="'fol'"):
            for _ in pool.run([(0, "task")]):
                pass
        # The pool said ``bye`` on its way out; the session ended cleanly.
        worker.join(5.0)
        assert answered == [0]
    finally:
        pool.close()
        channel.close()
        registry.close()
