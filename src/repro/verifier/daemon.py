"""Warm verification daemon: a unix-socket server that keeps the engine hot.

Every one-shot CLI invocation pays cold start: importing the package,
building the catalogue, parsing the persistent cache, and -- for parallel
runs -- forking a worker pool, all before the first sequent is answered.
:class:`VerifierDaemon` amortizes that across requests: one long-lived
:class:`~repro.verifier.engine.VerificationEngine` (with
``keep_pool_warm=True``) holds the process pool, the in-memory
:class:`~repro.provers.cache.ProofCache` and the persistent store open, so
a repeat verification is answered from warm caches in milliseconds.

Protocol
--------

Newline-delimited JSON, one request per connection: the client sends a
single JSON object terminated by ``"\\n"``, the server replies with a
single JSON object and closes the connection.  The daemon listens on an
``AF_UNIX`` stream socket (authentication: filesystem permissions) or --
``serve --tcp HOST:PORT`` -- a TCP socket, where every connection must
first pass the mutual shared-secret handshake of
:mod:`repro.verifier.wire` before its request line is read.
Every response carries ``"ok"`` (bool) and, on failure, ``"error"``.
Supported ``"op"`` values:

============  =========================================================
``ping``      liveness: pid, uptime, requests served
``list``      catalogue names
``verify``    ``{"name": ..., "strip": bool}`` -- one class; the
              ``output`` field is exactly what a local ``jahob-py
              verify`` prints, plus a structured per-sequent ``report``
``verify_file``  ``{"path": ..., "strip": bool}`` -- load every class
              model exported by the Python file at ``path``
              (:mod:`repro.frontend.loader`) and verify each; ``output``
              is exactly what a local ``jahob-py verify FILE`` prints,
              plus a ``reports`` list
``suite``     ``{"names": [...]?}`` -- suite-scheduled run
              (:mod:`repro.verifier.scheduler`); full catalogue when
              ``names`` is omitted
``table1``    suite-scheduled full catalogue, rendered as Table 1
``stats``     engine counters (:meth:`PerformanceCounters.as_dict`)
``metrics``   scheduling observability: per-worker answer-latency
              histograms, per-class measured cost profiles, cache-hit
              provenance, watch-mode latency and the last run's plan
``watch``     ``{"path": ..., "interval": ..?, "max_events": ..?}`` --
              subscribe to a program file: the daemon polls its content,
              re-verifies it on every change (the warm proof cache
              re-proves only the sequents the edit invalidated) and
              streams one ``verdicts`` event per change, with
              clean/dirty/dispatched accounting, over the same connection --
              the one op that breaks the one-request/one-response rule,
              which is why it exists on the socket transports only (the
              HTTP front door deliberately does not route it)
``shutdown``  flush the persistent cache and stop the server (open watch
              subscriptions are closed cleanly first)
============  =========================================================

Requests are served **concurrently**: every accepted connection gets its
own thread, so ``ping`` / ``list`` / ``stats`` are answered immediately
even while a multi-minute ``table1`` is in flight.  Ops that drive the
engine (``verify`` / ``verify_file`` / ``suite`` / ``table1`` /
``shutdown``) pass **admission control**
(:mod:`repro.verifier.admission`) before touching the engine -- the
portfolio's caches and counters are deliberately single-writer, so one
request runs at a time while the rest wait in a bounded FIFO queue with
priority lanes (``"priority": "interactive"`` ahead of ``"batch"``).  A
full queue, an over-rate client, or a busy engine under ``"nowait":
true`` are all answered at once with the structured rejection shape
``{"ok": false, "busy": true, "code": ..., "retry_after": ...}``.
Clients carry an identity -- the ``client`` request field on the trusted
unix socket, the HMAC-authenticated handshake role (``client:NAME``, see
:func:`repro.verifier.wire.client_role`) on TCP -- which keys both the
per-client token-bucket rate limit and the **per-tenant proof-cache
namespace**: one tenant's cached verdicts can neither serve nor poison
another's.

The daemon can additionally serve the same ops over an **HTTP/1.1 JSON
API** (``serve --http HOST:PORT``, :mod:`repro.verifier.http`); the route
table and semantics are documented in ``docs/service-api.md``.

Shutdown is graceful in all paths -- the ``shutdown`` op, ``SIGTERM`` /
``SIGINT`` under ``jahob-py serve``, or :meth:`VerifierDaemon.stop` from a
controlling thread: the accept loop drains, in-flight request threads are
joined, the persistent cache is flushed, the engine's warm pool is closed,
and the socket file is removed.

Clients use :class:`DaemonClient` (the CLI's ``--connect`` flag); the
``output`` field of a response is printed verbatim, so daemon-served runs
are textually identical to local ones.
"""

from __future__ import annotations

import hashlib
import os
import select
import socket
import stat
import threading
import time
from pathlib import Path

from ..provers.dispatch import default_portfolio
from ..suite.catalog import all_structures, structure_by_name
from .admission import (
    PRIORITY_LANES,
    AdmissionController,
    rejection_response,
)
from .engine import ClassReport, VerificationEngine
from .report import (
    format_run,
    format_table1,
    format_verify,
    format_verify_file,
    table1_rows,
)
from .stats import LatencyHistogram, performance_counters
from .wire import (
    HandshakeError,
    LineChannel,
    WireError,
    client_role,
    connect_address,
    create_listener,
    handshake_accept,
    handshake_connect,
    parse_address,
    parse_client_role,
)

__all__ = ["PROTOCOL_VERSION", "DaemonError", "VerifierDaemon", "DaemonClient"]

#: Bumped on incompatible protocol changes; ``ping`` reports it so clients
#: can refuse to talk to a daemon from another era.  Version 3 added the
#: ``metrics`` op; version 4 added ``verify_file``; version 5 replaced the
#: bare busy error with admission control (structured ``code`` /
#: ``retry_after`` rejections, priority lanes, per-client rate limits and
#: tenant cache namespaces) and added the HTTP front door; version 6 added
#: the streaming ``watch`` op (re-verification of a subscribed file on every
#: change, many response events on one connection -- socket transports only).
PROTOCOL_VERSION = 6

#: Hard cap on one request line; a unix-socket peer is trusted, but a
#: corrupt client must not make the daemon buffer without bound.
_MAX_REQUEST_BYTES = 1 << 20

#: Socket-I/O deadline for reading a request line and writing a response.
#: Connections are served on their own threads, but a peer that connects
#: and then goes silent must not pin a thread (and, for TCP, a handshake)
#: forever.  Request *handling* (proving) runs between the two I/O phases
#: with no deadline.
_IO_TIMEOUT = 30.0

#: Ops that drive the verification engine and therefore serialize on the
#: daemon's engine lock; everything else is answered lock-free.
_ENGINE_OPS = frozenset({"verify", "verify_file", "suite", "table1", "shutdown"})


class DaemonError(RuntimeError):
    """Raised by :class:`DaemonClient` when the daemon cannot be reached
    or returns a malformed response, and server-side for protocol
    violations (an oversized request) that still get an error response."""


def _report_payload(report: ClassReport) -> dict:
    """A JSON-ready per-sequent view of one class report (for clients that
    want structure instead of the formatted text)."""
    return {
        "class": report.class_name,
        "verified": report.verified,
        "methods_total": report.methods_total,
        "methods_verified": report.methods_verified,
        "sequents_total": report.sequents_total,
        "sequents_proved": report.sequents_proved,
        "elapsed": report.elapsed,
        "methods": [
            {
                "method": method.method_name,
                "verified": method.verified,
                "outcomes": [
                    {
                        "label": outcome.sequent.label,
                        "proved": outcome.proved,
                        "refuted": outcome.dispatch.refuted,
                        "prover": outcome.prover,
                        "cached": outcome.dispatch.cached,
                        "origin": outcome.dispatch.cache_origin,
                    }
                    for outcome in method.outcomes
                ],
            }
            for method in report.methods
        ],
    }


class VerifierDaemon:
    """Serve verification requests over a unix or TCP socket, warm.

    Either pass a ready :class:`VerificationEngine` or let the daemon build
    one from ``jobs`` / ``cache_dir`` / ``persist`` / ``use_proof_cache`` /
    ``timeout_scale`` / ``workers`` (the same knobs the CLI exposes).  The
    engine is always put into ``keep_pool_warm`` mode: the worker pool --
    in-process or remote -- survives between requests, which is the whole
    point of the daemon.  :meth:`serve_forever` warms that pool before
    accepting the first connection, so no request pays pool start-up or
    leaks its connection fd into a forked worker.

    ``address`` may be a unix-socket path or a ``HOST:PORT`` TCP address;
    TCP requires ``secret`` (every client connection runs the
    :mod:`repro.verifier.wire` handshake first).  ``workers`` dials
    listening ``jahob-py worker`` processes; ``worker_listen`` opens a
    :class:`~repro.verifier.remote.WorkerRegistry` on a second TCP port so
    workers can register themselves (``jahob-py worker --connect``) --
    both make the daemon dispatch its prover phase remotely.
    """

    def __init__(
        self,
        address: str | Path,
        engine: VerificationEngine | None = None,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        persist: bool = True,
        use_proof_cache: bool = True,
        timeout_scale: float = 1.0,
        secret: bytes | None = None,
        workers: list[str] | str | None = None,
        worker_listen: str | None = None,
        queue_limit: int = 16,
        rate_limit: float | None = None,
        burst: float | None = None,
        http: str | None = None,
    ) -> None:
        self.address_kind, _ = parse_address(address)
        self.socket_path = Path(address) if self.address_kind == "unix" else None
        self.address = str(address)
        self.secret = secret
        if self.address_kind == "tcp" and not secret:
            raise DaemonError(
                "serving on TCP requires a shared secret "
                "(--secret-file or JAHOB_SECRET)"
            )
        if workers and not secret:
            # Same preflight the TCP listener gets: fail at construction,
            # not deep inside the first dispatching request.
            raise DaemonError(
                "--workers requires a shared secret "
                "(--secret-file or JAHOB_SECRET)"
            )
        self.registry = None
        if worker_listen is not None:
            from .remote import WorkerRegistry

            if not secret:
                raise DaemonError(
                    "a worker registry requires a shared secret "
                    "(--secret-file or JAHOB_SECRET)"
                )
            self.registry = WorkerRegistry(worker_listen, secret)
        if engine is None:
            portfolio = default_portfolio(with_cache=use_proof_cache)
            if timeout_scale != 1.0:
                portfolio = portfolio.scaled(timeout_scale)
            engine = VerificationEngine(
                portfolio,
                use_proof_cache=use_proof_cache,
                jobs=jobs,
                cache_dir=cache_dir,
                persist=persist,
                workers=workers,
                worker_secret=secret,
                worker_registry=self.registry,
            )
        engine.keep_pool_warm = True
        self.engine = engine
        self.requests_served = 0
        self.started_at = time.monotonic()
        self._stopping = False
        #: Set on stop()/close(): sleeping watch loops wake immediately so
        #: shutdown never waits out a poll interval per subscription.
        self._wake = threading.Event()
        #: Watch-mode observability, surfaced by the ``metrics`` op:
        #: subscription counts and the edit-to-verdict latency histogram.
        self.watch_subscriptions = 0
        self.watch_active = 0
        self.watch_events = 0
        self.watch_latency = LatencyHistogram()
        self._server: socket.socket | None = None
        self._bound = False  # whether *we* own the socket file
        self.admission = AdmissionController(
            queue_limit=queue_limit, rate=rate_limit, burst=burst
        )
        # The raw engine lock stays reachable under its old name: tests and
        # internal code that serialize against the engine directly keep
        # working, and the admission queue's lock-polling tolerates them.
        self._engine_lock = self.admission.lock
        self._threads: set[threading.Thread] = set()
        self.http_door = None
        if http is not None:
            from .http import HttpFrontDoor

            if not secret:
                raise DaemonError(
                    "serving HTTP requires a shared secret "
                    "(--secret-file or JAHOB_SECRET)"
                )
            self.http_door = HttpFrontDoor(http, self, secret)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    def bind(self) -> None:
        """Create and bind the listening socket(s) (idempotent)."""
        if self.http_door is not None:
            self.http_door.bind()
        if self._server is not None:
            return
        if self.address_kind == "tcp":
            try:
                server = create_listener(self.address)
            except OSError as exc:
                raise DaemonError(f"cannot bind {self.address}: {exc}") from exc
            server.settimeout(0.2)
            # Resolve ":0" to the actual port for logs and clients.
            self.address = "%s:%d" % server.getsockname()[:2]
            self._server = server
            return
        # A stale socket file from a crashed daemon: refuse to steal a
        # *live* daemon's address, silently replace a dead one's -- and
        # never delete something that is not a socket at all (e.g. a
        # mistyped --socket pointing at a real file).  A FileNotFoundError
        # from stat() means a racing daemon just cleaned the path up.
        try:
            mode = self.socket_path.stat().st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None:
            if not stat.S_ISSOCK(mode):
                raise DaemonError(
                    f"{self.socket_path} exists and is not a socket; "
                    "refusing to replace it"
                )
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(str(self.socket_path))
            except ConnectionRefusedError:
                # Nobody behind the file: a crashed daemon's leftovers.
                self.socket_path.unlink(missing_ok=True)
            except OSError as exc:
                # Anything ambiguous (e.g. a timeout because the daemon is
                # busy with a long request and its backlog is full) must
                # not cost a live daemon its address.
                raise DaemonError(
                    f"cannot tell whether a daemon is live on "
                    f"{self.socket_path} ({exc}); not replacing it"
                ) from exc
            else:
                raise DaemonError(
                    f"another daemon is already listening on {self.socket_path}"
                )
            finally:
                probe.close()
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            server.bind(str(self.socket_path))
            server.listen(8)
        except OSError as exc:
            # EADDRINUSE from a concurrent bind race, an unwritable
            # directory, ...: a clean error beats a traceback.
            server.close()
            raise DaemonError(f"cannot bind {self.socket_path}: {exc}") from exc
        # A finite accept timeout keeps the loop responsive to stop();
        # requests themselves are served without a deadline (proving is
        # slow by design).
        server.settimeout(0.2)
        self._server = server
        self._bound = True

    def serve_forever(self) -> None:
        """Bind (if needed) and serve until :meth:`stop` or a ``shutdown`` op.

        Always tears down gracefully: the persistent cache is flushed, the
        warm pool is closed and the socket file is removed, even when the
        loop exits via an exception (e.g. ``KeyboardInterrupt``).
        """
        try:
            # Fork the worker pool before the listening socket even
            # exists: workers forked after bind would inherit the
            # listener's fd (orphans after a crash keep the address alive
            # and block stale-socket takeover), workers forked mid-request
            # would inherit the accepted connection fd, and the first
            # request would pay pool start-up.  (Remote backends merely
            # dial out here; nothing is forked.)
            self.engine.warm_pool()
            self.bind()
            if self.http_door is not None:
                self.http_door.start()
            while not self._stopping:
                # Local alias: a concurrent close() nulls self._server, and
                # the loop must see either the live socket (whose close()
                # surfaces here as OSError) or exit -- never an attribute
                # load on None.
                server = self._server
                if server is None:
                    break
                try:
                    connection, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    if self._stopping:
                        break
                    raise
                self._threads = {
                    thread for thread in self._threads if thread.is_alive()
                }
                thread = threading.Thread(
                    target=self._serve_connection_thread,
                    args=(connection,),
                    name="jahob-daemon-request",
                    daemon=True,
                )
                self._threads.add(thread)
                thread.start()
        finally:
            # Let in-flight requests finish writing their responses (the
            # shutdown op's own response among them) before tearing the
            # engine down under their feet.
            for thread in tuple(self._threads):
                thread.join(timeout=_IO_TIMEOUT)
            self.close()

    def stop(self) -> None:
        """Ask the accept loop to exit after the in-flight request.

        Waking the watch event first lets every open ``watch``
        subscription send its ``closed`` event and hang up before the
        shutdown join deadline, so no client is ever left blocked on a
        read."""
        self._stopping = True
        self._wake.set()

    def close(self) -> None:
        """Flush caches, close the warm pool, remove the socket file.

        Only unlinks the socket file when this instance actually bound it
        -- closing a daemon whose :meth:`bind` failed must never delete a
        live daemon's address.
        """
        self._stopping = True
        self._wake.set()
        # Unlink before closing the listening socket: the reverse order
        # has a window where a new daemon sees the probe refused, takes
        # over the path, and then loses its fresh socket file to our
        # unlink.
        if self._bound:
            self._bound = False
            try:
                self.socket_path.unlink()
            except OSError:
                pass
        if self._server is not None:
            self._server.close()
            self._server = None
        if self.http_door is not None:
            self.http_door.close()
        if self.registry is not None:
            self.registry.close()
        # Never tear the engine down under a still-running engine op: if
        # a request thread outlived the bounded join in serve_forever,
        # waiting on the slot here is what keeps the flush-on-shutdown
        # guarantee (a flush racing a cache-mutating verify is not a
        # flush).  exclusive() queues behind admitted work but bypasses
        # the queue bound and rate limits -- teardown is never load-shed.
        with self.admission.exclusive():
            self.engine.close()

    # -- one request -------------------------------------------------------------

    def _serve_connection_thread(self, connection: socket.socket) -> None:
        try:
            self._serve_connection(connection)
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _serve_connection(self, connection: socket.socket) -> None:
        connection.settimeout(_IO_TIMEOUT)
        channel = LineChannel(connection, limit=_MAX_REQUEST_BYTES)
        client: str | None = None
        if self.address_kind == "tcp":
            try:
                role = handshake_accept(channel, self.secret, expect_role="client")
            except (WireError, HandshakeError):
                # An unauthenticated peer gets nothing, not even an op
                # error; handshake_accept already said "handshake failed".
                return
            # The id inside "client:NAME" is MAC-covered by the handshake,
            # so it overrides anything the request body claims; a bare
            # "client" role stays anonymous.
            client = parse_client_role(role) or ""
        try:
            try:
                request = channel.recv()
            except WireError as exc:
                # Protocol violation (oversized request, bad JSON): still
                # answer, so the client can tell it from a daemon crash.
                response = {"ok": False, "error": str(exc)}
            else:
                if request is None:
                    return  # clean hang-up before any request
                if isinstance(request, dict) and request.get("op") == "watch":
                    # The streaming op: many responses on one connection,
                    # served entirely inside the subscription loop.
                    self._serve_watch(channel, connection, request, client)
                    return
                response = self.handle(request, client=client)
            channel.send(response)
        except (OSError, WireError):
            # A client that hung up mid-request costs us nothing; the
            # daemon must outlive its clients.
            pass

    # -- watch mode ---------------------------------------------------------------

    @staticmethod
    def _file_digest(path: str) -> str | None:
        """Content digest of the watched file; ``None`` while unreadable
        (e.g. the editor is mid-save with a temp-file rename)."""
        try:
            with open(path, "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            return None

    def _serve_watch(
        self,
        channel: LineChannel,
        connection: socket.socket,
        request: dict,
        client: str | None,
    ) -> None:
        """Serve one ``watch`` subscription until the client hangs up, the
        event budget is exhausted, or the daemon shuts down.

        The first verification fires immediately (the subscriber wants a
        baseline verdict), then the file's content digest is polled every
        ``interval`` seconds and each change streams one ``verdicts``
        event.  The subscription always ends with a ``closed`` event
        carrying the reason, so clients never block on a read that nothing
        will answer.
        """
        path = request.get("path")
        if not isinstance(path, str):
            channel.send({"ok": False, "error": "watch needs a 'path' string"})
            return
        path = os.path.abspath(path)
        if not os.path.isfile(path):
            channel.send({"ok": False, "error": f"watch: no such file: {path}"})
            return
        try:
            interval = float(request.get("interval", 0.5))
        except (TypeError, ValueError):
            channel.send({"ok": False, "error": "watch: 'interval' must be a number"})
            return
        interval = min(max(interval, 0.05), 10.0)
        max_events = request.get("max_events")
        if max_events is not None:
            try:
                max_events = int(max_events)
            except (TypeError, ValueError):
                max_events = 0
            if max_events <= 0:
                channel.send(
                    {"ok": False, "error": "watch: 'max_events' must be a positive int"}
                )
                return
        priority = request.get("priority", "interactive")
        if priority not in PRIORITY_LANES:
            channel.send(
                {
                    "ok": False,
                    "error": f"unknown priority {priority!r} "
                    f"(expected one of {', '.join(PRIORITY_LANES)})",
                }
            )
            return
        client_id = client if client is not None else str(request.get("client") or "")
        self.requests_served += 1
        self.watch_subscriptions += 1
        self.watch_active += 1
        events = 0
        reason = "client"
        try:
            channel.send(
                {
                    "ok": True,
                    "event": "subscribed",
                    "path": path,
                    "interval": interval,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            last_digest = None
            while True:
                if self._stopping:
                    reason = "shutdown"
                    break
                digest = self._file_digest(path)
                if digest is not None and digest != last_digest:
                    last_digest = digest
                    event = self._watch_verify(path, client_id, priority)
                    events += 1
                    event["generation"] = events
                    channel.send(event)
                    if max_events is not None and events >= max_events:
                        reason = "max_events"
                        break
                # Any inbound byte ends the subscription: a clean client
                # hang-up (EOF) and an explicit unsubscribe line look the
                # same from here, and neither should keep the loop alive.
                if select.select([connection], [], [], 0)[0]:
                    reason = "client"
                    break
                if self._wake.wait(interval):
                    reason = "shutdown"
                    break
        except (OSError, WireError):
            reason = "client"
        finally:
            self.watch_active -= 1
            try:
                channel.send(
                    {"ok": True, "event": "closed", "reason": reason, "events": events}
                )
            except (OSError, WireError):
                pass

    def _watch_verify(self, path: str, client_id: str, priority: str) -> dict:
        """One watch cycle: admit, load, verify, report.

        Each class is re-verified with the warm engine's ordinary
        :meth:`~repro.verifier.engine.VerificationEngine.verify_class`, so
        the proof cache answers every sequent the edit left alone; its
        dependency record from before the run is diffed against the one
        the run wrote (:func:`~repro.verifier.incremental.edit_accounting`)
        for the event's clean/dirty/dispatched accounting.  Runs under the
        same admission control as every engine op (each cycle takes and
        releases the engine slot, so a watch subscription never starves
        interactive requests), and folds the edit-to-verdict latency into
        the watch histogram the ``metrics`` op reports.
        """
        from ..frontend.loader import ProgramLoadError, load_class_models
        from .incremental import edit_accounting

        start = time.monotonic()
        decision = self.admission.admit(client=client_id, priority=priority)
        if not decision.admitted:
            response = rejection_response(decision)
            response["event"] = "rejected"
            return response
        self.engine.set_cache_namespace(client_id)
        try:
            models = load_class_models(path)
            classes = []
            index = self.engine.dependency_index
            for model in models:
                previous = index.get(model.name)
                verify_start = time.monotonic()
                report = self.engine.verify_class(model)
                accounting = edit_accounting(previous, index.get(model.name), report)
                accounting["jobs"] = self.engine.jobs
                accounting["wall"] = time.monotonic() - verify_start
                payload = _report_payload(report)
                payload["incremental"] = accounting
                classes.append(payload)
        except ProgramLoadError as exc:
            # A mid-edit syntax error is normal watch traffic: report it
            # and keep the subscription alive for the next save.
            return {"ok": True, "event": "error", "path": path, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the stream must survive
            return {
                "ok": True,
                "event": "error",
                "path": path,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self.engine.set_cache_namespace("")
            self.admission.release()
        latency = time.monotonic() - start
        self.watch_latency.add(latency)
        self.watch_events += 1
        return {
            "ok": True,
            "event": "verdicts",
            "path": path,
            "verified": all(entry["verified"] for entry in classes),
            "classes": classes,
            "latency": latency,
            # The carried PR 5 follow-up: the live view surfaces the full
            # metrics snapshot with every verdict delta.
            "metrics": self._op_metrics({}),
        }

    # -- request handling ---------------------------------------------------------

    def handle(self, request: dict, *, client: str | None = None) -> dict:
        """Execute one request object and return the response object.

        Exposed directly (besides the socket loop) so tests can exercise
        op semantics without a live socket.  Engine-driving ops pass
        admission control first: a busy engine queues the request in its
        priority lane (``"priority"``, default ``interactive``) unless
        ``"nowait": true``, and a full queue or over-rate client is
        rejected immediately with the structured shape of
        :func:`repro.verifier.admission.rejection_response`.

        ``client`` is the transport-authenticated client id (TCP handshake
        role, HTTP signed header); ``None`` means the transport carries no
        identity and the trusted ``"client"`` request field is used
        instead (the unix socket and direct ``handle`` calls).
        """
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        client_id = client if client is not None else str(request.get("client") or "")
        priority = request.get("priority", "interactive")
        if priority not in PRIORITY_LANES:
            return {
                "ok": False,
                "error": f"unknown priority {priority!r} "
                f"(expected one of {', '.join(PRIORITY_LANES)})",
            }
        admitted = False
        if op in _ENGINE_OPS:
            decision = self.admission.admit(
                client=client_id,
                priority=priority,
                nowait=bool(request.get("nowait")),
            )
            if not decision.admitted:
                return rejection_response(decision)
            admitted = True
            # The engine slot is exclusive, so retargeting the shared
            # proof cache at this tenant's namespace is race-free.
            self.engine.set_cache_namespace(client_id)
        try:
            self.requests_served += 1
            start = time.monotonic()
            try:
                response = handler(request)
            except Exception as exc:  # noqa: BLE001 - must survive any op
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            response.setdefault("ok", True)
            response["elapsed"] = time.monotonic() - start
            return response
        finally:
            if admitted:
                self.engine.set_cache_namespace("")
                self.admission.release()

    def _op_ping(self, request: dict) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime": time.monotonic() - self.started_at,
            "requests": self.requests_served,
        }

    def _op_list(self, request: dict) -> dict:
        return {"structures": [cls.name for cls in all_structures()]}

    def _op_verify(self, request: dict) -> dict:
        name = request.get("name")
        if not isinstance(name, str):
            return {"ok": False, "error": "verify needs a 'name' string"}
        cls = structure_by_name(name)
        report = self.engine.verify_class(
            cls, strip_proofs=bool(request.get("strip", False))
        )
        return {
            "output": format_verify(report),
            "exit": 0 if report.verified else 1,
            "report": _report_payload(report),
        }

    def _op_verify_file(self, request: dict) -> dict:
        path = request.get("path")
        if not isinstance(path, str):
            return {"ok": False, "error": "verify_file needs a 'path' string"}
        from ..frontend.loader import ProgramLoadError, load_class_models

        try:
            models = load_class_models(path)
        except ProgramLoadError as exc:
            return {"ok": False, "error": str(exc)}
        strip = bool(request.get("strip", False))
        reports = [
            self.engine.verify_class(model, strip_proofs=strip)
            for model in models
        ]
        return {
            "output": format_verify_file(path, reports),
            "exit": 0 if all(report.verified for report in reports) else 1,
            "reports": [_report_payload(report) for report in reports],
        }

    def _suite_reports(self, request: dict) -> list[ClassReport]:
        names = request.get("names")
        if names is None:
            classes = all_structures()
        else:
            classes = [structure_by_name(name) for name in names]
        return self.engine.verify_suite(classes)

    def _op_suite(self, request: dict) -> dict:
        reports = self._suite_reports(request)
        return {
            "output": format_run(self.engine.last_run),
            "exit": 0 if all(report.verified for report in reports) else 1,
            "reports": [_report_payload(report) for report in reports],
        }

    def _op_table1(self, request: dict) -> dict:
        # Always the full catalogue ("names" is not honoured: a table with
        # holes is not Table 1).
        reports = self._suite_reports({})
        rows = table1_rows(all_structures(), reports=reports)
        # Like the local CLI, generating the table is the success criterion
        # (unverified classes are visible in the table itself).
        return {"output": format_table1(rows), "exit": 0}

    def _op_stats(self, request: dict) -> dict:
        counters = performance_counters(self.engine.portfolio)
        response = {
            "counters": counters.as_dict(),
            "cache_entries": (
                len(self.engine.portfolio.proof_cache)
                if self.engine.portfolio.proof_cache is not None
                else 0
            ),
            "pool_warm": self.engine.pool_warm,
        }
        if self.engine.persistent_store is not None:
            response["persistent_cache"] = {
                "path": str(self.engine.persistent_store.path),
                "status": self.engine.persistent_store.last_load_status,
            }
        if self.engine.uses_remote_workers:
            pool = self.engine._pool
            response["remote_workers"] = {
                "configured": list(self.engine.remote_workers),
                "registry": (
                    self.registry.address if self.registry is not None else None
                ),
                "connected": [
                    worker.label
                    for worker in getattr(pool, "_workers", ())
                ],
            }
        return response

    def _op_metrics(self, request: dict) -> dict:
        """Scheduling observability, answered lock-free (like ``stats``):
        latency histograms, measured class costs, cache provenance and
        the last run's plan (of any ``verify_class`` or ``verify_suite``
        call) are all readable while the engine proves."""
        engine = self.engine
        counters = performance_counters(engine.portfolio)
        response = {
            "protocol": PROTOCOL_VERSION,
            "counters": counters.as_dict(),
            "cost_model": engine.cost_model.as_dict(),
            "workers": engine.worker_metrics(),
            "admission": self.admission.snapshot(),
            "watch": {
                "subscriptions": self.watch_subscriptions,
                "active": self.watch_active,
                "events": self.watch_events,
                "latency": self.watch_latency.as_dict(),
            },
            "schedule": None,
        }
        stats = engine.last_run
        if stats is not None:
            response["schedule"] = {
                "jobs": stats.jobs,
                "backend": stats.backend,
                "order": list(stats.schedule_order),
                "classes": [
                    {
                        "class": cls.class_name,
                        "cost": round(cls.cost_hint, 6),
                        "source": cls.hint_source,
                        "sequents": cls.sequents,
                        "dispatched": cls.dispatched,
                        "cache_hits": cls.hits_memory + cls.hits_disk,
                        "duplicates": cls.duplicates_folded,
                    }
                    for cls in stats.classes
                ],
            }
        if engine.persistent_store is not None:
            response["persistent_cache"] = {
                "path": str(engine.persistent_store.path),
                "status": engine.persistent_store.last_load_status,
            }
        return response

    def _op_shutdown(self, request: dict) -> dict:
        # ``flushed`` is the delta written *now* (usually 0: verify ops
        # flush as they go); ``cache_entries`` is the total warm state.
        flushed = self.engine.flush_persistent_cache()
        cache = self.engine.portfolio.proof_cache
        self.stop()
        return {
            "flushed": flushed,
            "cache_entries": len(cache) if cache is not None else 0,
        }


class DaemonClient:
    """Talk to a :class:`VerifierDaemon` over its unix or TCP socket.

    One request per connection, mirroring the server.  ``connect_timeout``
    bounds the connect phase (and, for TCP, the handshake); a verification
    request may legitimately run for minutes, so reads wait indefinitely
    once connected.  TCP addresses require the daemon's shared ``secret``.
    """

    def __init__(
        self,
        address: str | Path,
        connect_timeout: float = 5.0,
        secret: bytes | None = None,
        client_id: str = "",
    ) -> None:
        self.address = str(address)
        self.is_tcp = parse_address(address)[0] == "tcp"
        self.connect_timeout = connect_timeout
        self.secret = secret
        self.client_id = client_id

    def request(self, payload: dict) -> dict:
        """Send one request object and return the parsed response object.

        On TCP the client id (if any) rides in the handshake role, where
        the HMAC covers it; on the unix socket it is added as the trusted
        ``client`` request field unless the payload already carries one.
        """
        if self.is_tcp and not self.secret:
            raise DaemonError(
                f"connecting to the TCP daemon at {self.address} requires "
                "a shared secret (--secret-file or JAHOB_SECRET)"
            )
        try:
            sock = connect_address(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise DaemonError(
                f"cannot connect to daemon at {self.address}: {exc}"
            ) from exc
        if not self.is_tcp and self.client_id:
            payload = {"client": self.client_id, **payload}
        channel = LineChannel(sock)
        try:
            if self.is_tcp:
                try:
                    handshake_connect(
                        channel, self.secret, role=client_role(self.client_id)
                    )
                except (WireError, HandshakeError) as exc:
                    raise DaemonError(
                        f"handshake with daemon at {self.address} "
                        f"failed: {exc}"
                    ) from exc
            sock.settimeout(None)
            try:
                channel.send(payload)
                response = channel.recv()
            except WireError as exc:
                # E.g. the daemon shut down between our connect and send.
                raise DaemonError(
                    f"lost connection to daemon at {self.address}: {exc}"
                ) from exc
        finally:
            channel.close()
        if response is None:
            raise DaemonError("daemon closed the connection without a response")
        return response

    def watch(self, payload: dict):
        """Subscribe to a ``watch`` stream; yields event objects.

        The generator holds one connection for the whole subscription (the
        one op that streams) and ends after the daemon's ``closed`` event,
        a validation error response, or a server hang-up.  Closing the
        generator (or just dropping it) hangs the connection up, which the
        daemon takes as an unsubscribe.
        """
        if self.is_tcp and not self.secret:
            raise DaemonError(
                f"connecting to the TCP daemon at {self.address} requires "
                "a shared secret (--secret-file or JAHOB_SECRET)"
            )
        try:
            sock = connect_address(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise DaemonError(
                f"cannot connect to daemon at {self.address}: {exc}"
            ) from exc
        payload = {**payload, "op": "watch"}
        if not self.is_tcp and self.client_id and "client" not in payload:
            payload = {"client": self.client_id, **payload}
        channel = LineChannel(sock)
        try:
            if self.is_tcp:
                try:
                    handshake_connect(
                        channel, self.secret, role=client_role(self.client_id)
                    )
                except (WireError, HandshakeError) as exc:
                    raise DaemonError(
                        f"handshake with daemon at {self.address} "
                        f"failed: {exc}"
                    ) from exc
            sock.settimeout(None)
            try:
                channel.send(payload)
            except WireError as exc:
                raise DaemonError(
                    f"lost connection to daemon at {self.address}: {exc}"
                ) from exc
            while True:
                try:
                    event = channel.recv()
                except WireError as exc:
                    raise DaemonError(
                        f"lost watch stream from daemon at {self.address}: {exc}"
                    ) from exc
                if event is None:
                    return
                yield event
                if not isinstance(event, dict):
                    return
                if event.get("event") == "closed" or "event" not in event:
                    # "closed" ends a healthy stream; an event-less object
                    # is a validation error response, which is terminal.
                    return
        finally:
            channel.close()

    # Small conveniences used by the CLI and the tests.

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
