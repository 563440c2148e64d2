"""The ``jahob-py worker`` process: run the pure prover phase remotely.

A worker is the distributed counterpart of one ``ProcessPoolExecutor``
worker: it rebuilds a prover portfolio from the coordinator's
:class:`~repro.provers.dispatch.PortfolioSpec` (prover objects never cross
machine boundaries, exactly as they never cross process boundaries), runs
:meth:`~repro.provers.dispatch.ProverPortfolio.run_provers` on each task of
each batch, and streams one result message per task back in the order it
finishes them.  Workers hold **no cache and no statistics** -- all cache
authority stays with the coordinating parent, which is what keeps
distributed verdicts bit-identical to sequential runs.

Two ways to meet a coordinator (see :mod:`repro.verifier.remote`):

* ``jahob-py worker --connect HOST:PORT`` dials a coordinator's worker
  registry and serves one session until the coordinator says ``bye``;
* ``jahob-py worker --listen HOST:PORT`` binds a TCP port (``:0`` picks a
  free one, printed on stdout) and serves dialing coordinators, one
  session at a time, until killed (or after one session with ``--once``).

Either way the TCP connection is authenticated with the shared-secret
handshake before any task payload is accepted.
"""

from __future__ import annotations

import os
import socket
import time

from ..provers.dispatch import PortfolioSpec, ProverPortfolio
from .wire import (
    HANDSHAKE_TIMEOUT,
    WIRE_VERSION,
    HandshakeError,
    LineChannel,
    WireError,
    connect_address,
    create_listener,
    decode_payload,
    encode_payload,
    format_address,
)

__all__ = ["serve_session", "run_worker"]


def _hello() -> dict:
    return {
        "op": "hello",
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "jahob": WIRE_VERSION,
    }


def serve_session(channel: LineChannel) -> int:
    """Serve one coordinator session on an authenticated channel.

    Returns the number of tasks answered.  Exits cleanly on ``bye`` or
    EOF; a prover crash on one task, or an ``init`` whose spec cannot be
    built, is reported back as an ``error`` message (the coordinator
    decides whether to abort the run) and the session continues.
    """
    channel.send(_hello())
    portfolio: ProverPortfolio | None = None
    answered = 0
    while True:
        try:
            message = channel.recv()
        except WireError:
            return answered
        if message is None:
            return answered
        op = message.get("op")
        if op == "bye":
            return answered
        if op == "ping":
            channel.send({"op": "pong", "pid": os.getpid()})
            continue
        if op == "init":
            # A spec this worker cannot build (an unknown prover, a bad
            # timeout) is answered, not fatal: the portfolio stays unset,
            # so later batches get "batch before init", and the
            # coordinator's error path aborts its run.
            portfolio = None
            try:
                spec = PortfolioSpec(
                    tuple(
                        (str(name), float(timeout))
                        for name, timeout in message.get("spec", [])
                    )
                )
                # The pure prover phase only: no cache, no shared statistics.
                portfolio = spec.build(proof_cache=None)
            except (TypeError, ValueError) as exc:
                channel.send(
                    {
                        "op": "error",
                        "index": None,
                        "error": f"bad init: {type(exc).__name__}: {exc}",
                    }
                )
            continue
        if op == "batch":
            if portfolio is None:
                channel.send(
                    {
                        "op": "error",
                        "index": None,
                        "error": "batch before init",
                    }
                )
                continue
            for index, payload in message.get("tasks", []):
                start = time.monotonic()
                try:
                    task = decode_payload(payload)
                    result = portfolio.run_provers(task)
                except Exception as exc:  # noqa: BLE001 - reported upstream
                    channel.send(
                        {
                            "op": "error",
                            "index": index,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    continue
                channel.send(
                    {
                        "op": "result",
                        "index": index,
                        "wall": time.monotonic() - start,
                        "payload": encode_payload(result),
                    }
                )
                answered += 1
            continue
        # Unknown op: ignore, for forward compatibility.


def run_worker(
    connect: str | None = None,
    listen: str | None = None,
    secret: bytes | None = None,
    once: bool = False,
    log=print,
) -> int:
    """Entry point behind ``jahob-py worker``; returns an exit status."""
    from .wire import handshake_accept, handshake_connect

    if (connect is None) == (listen is None):
        log("worker needs exactly one of --connect or --listen")
        return 2
    if not secret:
        log(
            "worker needs a shared secret (--secret-file or JAHOB_SECRET) "
            "to authenticate coordinators"
        )
        return 2

    if connect is not None:
        try:
            sock = connect_address(connect)
        except OSError as exc:
            log(f"cannot reach coordinator at {format_address(connect)}: {exc}")
            return 2
        channel = LineChannel(sock)
        try:
            handshake_connect(channel, secret, role="worker")
        except (WireError, HandshakeError) as exc:
            log(f"handshake with coordinator failed: {exc}")
            channel.close()
            return 2
        # The connect timeout covered dial + handshake; a registered
        # worker then waits for work indefinitely (the coordinating
        # daemon may be idle between requests for hours).
        sock.settimeout(None)
        log(f"registered with coordinator at {format_address(connect)}")
        try:
            answered = serve_session(channel)
        finally:
            channel.close()
        log(f"session over, {answered} tasks answered")
        return 0

    try:
        server = create_listener(listen)
    except (OSError, WireError) as exc:
        log(f"cannot listen on {listen}: {exc}")
        return 2
    host, port = server.getsockname()[:2]
    # The parseable line test harnesses and operators key on; with port 0
    # this is the only way to learn the actual address.
    log(f"jahob-py worker listening on {host}:{port}", flush=True)
    try:
        while True:
            connection, peer = server.accept()
            # Handshake under a deadline (a silent peer must not wedge
            # the accept loop), then block indefinitely for work.
            connection.settimeout(HANDSHAKE_TIMEOUT)
            channel = LineChannel(connection)
            try:
                handshake_accept(channel, secret, expect_role="coordinator")
            except (WireError, HandshakeError) as exc:
                log(f"rejected {peer[0]}:{peer[1]}: {exc}")
                channel.close()
                continue
            connection.settimeout(None)
            log(f"serving coordinator {peer[0]}:{peer[1]}")
            try:
                answered = serve_session(channel)
            finally:
                channel.close()
            log(f"session over, {answered} tasks answered")
            if once:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()
