"""Warm verification daemon: a server that keeps the engine hot.

Every one-shot CLI invocation pays cold start: importing the package,
building the catalogue, parsing the persistent cache, and -- for parallel
runs -- forking a worker pool, all before the first sequent is answered.
:class:`VerifierDaemon` amortizes that across requests: one long-lived
:class:`~repro.verifier.engine.VerificationEngine` holds the process pool
(an engine keeps its pool until it is closed), the in-memory
:class:`~repro.provers.cache.ProofCache` and the persistent store open, so
a repeat verification is answered from warm caches in milliseconds.

Protocol
--------

The daemon has two doors.  Local clients use an ``AF_UNIX`` stream socket
(authentication: filesystem permissions) that speaks newline-delimited
JSON, one request per connection: the client sends a single JSON object
terminated by ``"\\n"``, the server replies with a single JSON object and
closes the connection.  Remote clients use the signed HTTP front door
(``serve --http HOST:PORT``, :mod:`repro.verifier.http`), which serves the
same ops; a daemon built on a ``HOST:PORT`` address has that door only.
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
              (:mod:`repro.verifier.pipeline`); full catalogue when
              ``names`` is omitted
``table1``    suite-scheduled full catalogue, rendered as Table 1
``stats``     engine counters (:meth:`PortfolioStatistics.as_dict`)
``metrics``   scheduling observability: cache-hit provenance, the
              admission queue, watch-mode latency and the last run's
              plan
``watch``     ``{"path": ..., "interval": ..?, "max_events": ..?}`` --
              subscribe to a program file: the daemon polls its content,
              re-verifies it on every change (the warm proof cache
              re-proves only the sequents the edit invalidated) and
              streams one ``verdicts`` event per change, with
              clean/dirty/dispatched accounting, over the same connection --
              the one op that breaks the one-request/one-response rule,
              which is why it exists on the unix socket only (the HTTP
              front door deliberately does not route it)
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
request runs at a time while the rest wait in one bounded queue with
priority lanes (``"priority": "interactive"`` ahead of ``"batch"``).  A
full queue, or a busy engine under ``"nowait": true``, is answered at
once with the structured rejection shape
``{"ok": false, "busy": true, "code": ..., "retry_after": 1.0}``.
Clients carry an identity -- the ``client`` request field on the trusted
unix socket, the HMAC-signed ``X-Jahob-Client`` header over HTTP -- which
keys the **per-tenant proof-cache namespace**: one tenant's cached
verdicts can neither serve nor poison another's.  The HTTP route table
and semantics are documented in ``docs/service-api.md``.

Shutdown is graceful in all paths -- the ``shutdown`` op, ``SIGTERM`` /
``SIGINT`` under ``jahob-py serve``, or :meth:`VerifierDaemon.stop` from a
controlling thread: the accept loop drains, in-flight request threads are
joined, the persistent cache is flushed, the engine's warm pool is closed,
and the socket file is removed.

Local clients use :class:`DaemonClient`, remote ones
:class:`~repro.verifier.http.HttpApiClient` (the CLI's ``--connect`` picks
by address); the ``output`` field of a response is printed verbatim, so
daemon-served runs are textually identical to local ones.
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
from .stats import LatencyHistogram
from .wire import LineChannel, WireError, connect_address, parse_address

__all__ = ["PROTOCOL_VERSION", "DaemonError", "VerifierDaemon", "DaemonClient"]

#: Bumped on incompatible protocol changes; ``ping`` reports it so clients
#: can refuse to talk to a daemon from another era.  Version 3 added the
#: ``metrics`` op; version 4 added ``verify_file``; version 5 replaced the
#: bare busy error with admission control (structured ``code`` /
#: ``retry_after`` rejections, priority lanes, per-client rate limits and
#: tenant cache namespaces) and added the HTTP front door; version 6 added
#: the streaming ``watch`` op (re-verification of a subscribed file on every
#: change, many response events on one connection -- socket transports only);
#: version 7 dropped the remote-worker fields (``metrics.workers``,
#: ``metrics.schedule.backend``, ``stats.remote_workers``); version 8 dropped
#: per-client rate limits and the service-time estimate from admission (one
#: rejection code and four ``metrics.admission`` fields fewer;
#: ``retry_after`` is always 1 second); version 9 deleted the TCP line
#: protocol and its handshake (remote clients use the HTTP door, which
#: gained ``POST /v1/table1``).
PROTOCOL_VERSION = 9

#: Hard cap on one request line; a unix-socket peer is trusted, but a
#: corrupt client must not make the daemon buffer without bound.
_MAX_REQUEST_BYTES = 1 << 20

#: Socket-I/O deadline for reading a request line and writing a response.
#: Connections are served on their own threads, but a peer that connects
#: and then goes silent must not pin a thread forever.  Request *handling*
#: (proving) runs between the two I/O phases with no deadline.
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
    """Serve verification requests over a unix socket and HTTP, warm.

    Either pass a ready :class:`VerificationEngine` or let the daemon build
    one from ``jobs`` / ``cache_dir`` / ``persist`` / ``use_proof_cache`` /
    ``timeout_scale`` (the same knobs the CLI exposes).  The engine's
    worker pool survives between requests, which is the whole point of
    the daemon.  :meth:`bind` forks that pool before it creates any
    listening socket, so no request pays pool start-up.  A pool that
    breaks is replaced inside the next pooled request; its workers close
    the listener and connection fds they inherit as they start, so no
    worker ever holds one.

    ``address`` is the unix-socket path.  ``http`` adds the signed HTTP
    front door on a ``HOST:PORT`` address, which requires ``secret``.  A
    ``HOST:PORT`` ``address`` builds an HTTP-only daemon: ``http``
    defaults to it, there is no unix listener, and :meth:`serve_forever`
    waits for :meth:`stop`.
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
        queue_limit: int = 16,
        http: str | None = None,
    ) -> None:
        self.address = str(address)
        self.socket_path = None
        if parse_address(address)[0] == "unix":
            self.socket_path = Path(address)
        elif http is None or http == self.address:
            http = self.address
        else:
            raise DaemonError(
                f"a HOST:PORT address ({self.address}) is the HTTP door "
                f"itself; it cannot serve a second one on {http}"
            )
        if http is not None and not secret:
            raise DaemonError(
                "serving HTTP requires a shared secret "
                "(--secret-file or JAHOB_SECRET)"
            )
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
            )
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
        self.admission = AdmissionController(queue_limit=queue_limit)
        # The raw engine lock stays reachable under its old name: tests and
        # internal code that serialize against the engine directly keep
        # working, and the admission queue's lock-polling tolerates them.
        self._engine_lock = self.admission.lock
        self._threads: set[threading.Thread] = set()
        self.http_door = None
        if http is not None:
            from .http import HttpFrontDoor

            self.http_door = HttpFrontDoor(http, self, secret)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    def bind(self) -> None:
        """Fork the worker pool, then create and bind the listening
        socket(s) (idempotent).

        Pool first, so no request waits for the fork.  A pool that
        replaces a broken one forks mid-request, after the listener
        exists; its workers close every socket fd they inherit in their
        initializer, because an orphan holding the listener would keep the
        address alive after a crash and block stale-socket takeover.
        """
        self.engine.warm_pool()
        if self.http_door is not None:
            try:
                self.http_door.bind()
            except OSError as exc:
                raise DaemonError(
                    f"cannot bind {self.http_door.address}: {exc}"
                ) from exc
        if self.socket_path is None:
            # HTTP only: the door is the daemon's address (":0" resolved).
            self.address = self.http_door.address
            return
        if self._server is not None:
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
            self.bind()
            if self.http_door is not None:
                self.http_door.start()
            if self.socket_path is None:
                self._wake.wait()  # HTTP only: the door's thread serves
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
        # Never tear the engine down under a still-running engine op: if
        # a request thread outlived the bounded join in serve_forever,
        # waiting on the slot here is what keeps the flush-on-shutdown
        # guarantee (a flush racing a cache-mutating verify is not a
        # flush).  exclusive() queues behind admitted work but bypasses
        # the queue bound -- teardown is never load-shed.
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
                    self._serve_watch(channel, connection, request)
                    return
                response = self.handle(request)
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
        client_id = str(request.get("client") or "")
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
        decision = self.admission.admit(priority=priority)
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
        ``"nowait": true``, and a full queue is rejected immediately, both
        with the structured shape of
        :func:`repro.verifier.admission.rejection_response`.

        ``client`` is the transport-authenticated client id (the HTTP
        door's signed header); ``None`` means the transport carries no
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
                priority=priority, nowait=bool(request.get("nowait"))
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

    def _engine_counters(self) -> dict:
        """The fields ``stats`` and ``metrics`` share: the portfolio's
        ``counters`` and, with a store attached, ``persistent_cache``."""
        engine = self.engine
        fields = {"counters": engine.portfolio.statistics.as_dict()}
        if engine.persistent_store is not None:
            fields["persistent_cache"] = {
                "path": str(engine.persistent_store.path),
                "status": engine.persistent_store.last_load_status,
            }
        return fields

    def _op_stats(self, request: dict) -> dict:
        response = self._engine_counters()
        cache = self.engine.portfolio.proof_cache
        response["cache_entries"] = len(cache) if cache is not None else 0
        response["pool_warm"] = self.engine.pool_warm
        return response

    def _op_metrics(self, request: dict) -> dict:
        """Scheduling observability, answered lock-free (like ``stats``):
        cache provenance, the admission queue, watch latency and the last
        run's plan (of any ``verify_class`` or ``verify_suite`` call) are
        all readable while the engine proves."""
        engine = self.engine
        response = {
            "protocol": PROTOCOL_VERSION,
            **self._engine_counters(),
            "admission": self.admission.snapshot(),
            "watch": {
                "subscriptions": self.watch_subscriptions,
                "active": self.watch_active,
                "events": self.watch_events,
                "latency": self.watch_latency.as_dict(),
            },
            "schedule": None,
        }
        run = engine.last_run
        if run is not None:
            response["schedule"] = {
                "jobs": run.jobs,
                "classes": [
                    {
                        "class": row.class_name,
                        "sequents": row.sequents,
                        "dispatched": row.dispatched,
                        "cache_hits": row.hits_memory + row.hits_disk,
                        "duplicates": row.duplicates_folded,
                    }
                    for row in run.classes
                ],
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
    """Talk to a :class:`VerifierDaemon` over its unix socket.

    One request per connection, mirroring the server.  ``connect_timeout``
    bounds the connect phase; a verification request may legitimately run
    for minutes, so reads wait indefinitely once connected.  A
    ``HOST:PORT`` address is the daemon's HTTP door, which
    :class:`~repro.verifier.http.HttpApiClient` speaks; this client
    refuses it.
    """

    def __init__(
        self,
        address: str | Path,
        connect_timeout: float = 5.0,
        client_id: str = "",
    ) -> None:
        if parse_address(address)[0] != "unix":
            raise DaemonError(
                f"{address} is a HOST:PORT address: remote daemons speak "
                "HTTP (HttpApiClient); DaemonClient needs the unix socket path"
            )
        self.address = str(address)
        self.connect_timeout = connect_timeout
        self.client_id = client_id

    def _open(self) -> LineChannel:
        try:
            sock = connect_address(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise DaemonError(
                f"cannot connect to daemon at {self.address}: {exc}"
            ) from exc
        sock.settimeout(None)
        return LineChannel(sock)

    def request(self, payload: dict) -> dict:
        """Send one request object and return the parsed response object.

        The client id (if any) is added as the trusted ``client`` request
        field unless the payload already carries one.
        """
        if self.client_id:
            payload = {"client": self.client_id, **payload}
        channel = self._open()
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
        payload = {**payload, "op": "watch"}
        if self.client_id and "client" not in payload:
            payload = {"client": self.client_id, **payload}
        channel = self._open()
        try:
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
