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

The daemon speaks one protocol, HTTP/1.1 JSON (:mod:`repro.verifier.http`),
on two doors.  Local clients use an ``AF_UNIX`` stream socket, where
filesystem permissions are the authentication; remote clients use the
signed network door (``serve --http HOST:PORT``).  ``docs/service-api.md``
lists the routes: every op below is one ``(method, path)`` row, and the
local-only rows (``watch``, ``shutdown``) are served on the unix socket
only.  A daemon built on a ``HOST:PORT`` address has the network door
only.  Every response carries ``"ok"`` (bool) and, on failure,
``"error"``.  The ops:

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
              emits one ``verdicts`` event per change, with
              clean/dirty/dispatched accounting (:meth:`VerifierDaemon.watch`;
              the unix door streams the events as NDJSON lines)
``shutdown``  flush the persistent cache and stop the server (open watch
              subscriptions are closed cleanly first)
============  =========================================================

Requests are served **concurrently**, one thread per connection, so
``ping`` / ``list`` / ``stats`` are answered immediately even while a
multi-minute ``table1`` is in flight.  Ops whose route is marked for
admission (``verify`` / ``verify_file`` / ``suite`` / ``table1`` /
``shutdown``) pass **admission control** (:mod:`repro.verifier.admission`)
before touching the engine -- the portfolio's caches and counters are
deliberately single-writer, so one request runs at a time while the rest
wait in one bounded queue with priority lanes (``"priority":
"interactive"`` ahead of ``"batch"``); each ``watch`` cycle passes it
too.  A full queue, or a busy engine under ``"nowait": true``, is
answered at once with the structured rejection shape
``{"ok": false, "busy": true, "code": ..., "retry_after": 1.0}``.
Clients carry an identity -- the ``X-Jahob-Client`` header, HMAC-signed
on the network door -- which keys the **per-tenant proof-cache
namespace**: one tenant's cached verdicts can neither serve nor poison
another's.

Shutdown is graceful in all paths -- the ``shutdown`` op, ``SIGTERM`` /
``SIGINT`` under ``jahob-py serve``, or :meth:`VerifierDaemon.stop` from a
controlling thread: the socket file is removed, the doors stop accepting,
in-flight requests on the unix socket are joined, the persistent cache is
flushed and the engine's warm pool is closed.

Clients use :class:`~repro.verifier.http.HttpApiClient` on either door;
the ``output`` field of a response is printed verbatim, so daemon-served
runs are textually identical to local ones.
"""

from __future__ import annotations

import hashlib
import os
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
from .http import ROUTES, HttpFrontDoor
from .report import (
    format_run,
    format_table1,
    format_verify,
    format_verify_file,
    table1_rows,
)
from .stats import LatencyHistogram
from .wire import parse_address

__all__ = ["PROTOCOL_VERSION", "DaemonError", "VerifierDaemon"]

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
#: gained ``POST /v1/table1``); version 10 made the unix socket speak HTTP
#: too (the newline-JSON line protocol is gone; ``watch`` and ``shutdown``
#: are local-only routes, ``watch`` an NDJSON stream).
PROTOCOL_VERSION = 10

#: Ops that drive the verification engine and therefore pass admission
#: control: the routes marked for it.  Everything else is answered
#: lock-free (``watch`` takes admission per cycle instead).
_ENGINE_OPS = frozenset(route.op for route in ROUTES if route.admission)


class DaemonError(RuntimeError):
    """A daemon that cannot be built or bound: a missing secret, a
    conflicting address, a live or unreadable socket path."""


def _unknown_priority(priority) -> dict:
    return {
        "ok": False,
        "error": f"unknown priority {priority!r} "
        f"(expected one of {', '.join(PRIORITY_LANES)})",
    }


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

    ``address`` is the unix-socket path.  ``http`` adds the signed network
    door on a ``HOST:PORT`` address, which requires ``secret``.  A
    ``HOST:PORT`` ``address`` builds a network-only daemon: ``http``
    defaults to it and there is no unix socket.  ``address=None`` builds
    a daemon with no doors, whose ops are reached in-process through
    :meth:`handle` and :meth:`watch` (the local ``verify FILE --watch``).
    """

    def __init__(
        self,
        address: str | Path | None,
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
        self.address = "" if address is None else str(address)
        kind = parse_address(self.address)[0] if self.address else None
        self.socket_path = Path(self.address) if kind == "unix" else None
        if kind == "tcp":
            if http not in (None, self.address):
                raise DaemonError(
                    f"a HOST:PORT address ({self.address}) is the HTTP door "
                    f"itself; it cannot serve a second one on {http}"
                )
            http = self.address
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
        #: Set on stop()/close(): serve_forever returns, and sleeping watch
        #: loops wake immediately so shutdown never waits out a poll
        #: interval per subscription.
        self._wake = threading.Event()
        #: Watch-mode observability, surfaced by the ``metrics`` op:
        #: subscription counts and the edit-to-verdict latency histogram.
        self.watch_subscriptions = 0
        self.watch_active = 0
        self.watch_events = 0
        self.watch_latency = LatencyHistogram()
        self._bound = False  # whether *we* own the socket file
        self.admission = AdmissionController(queue_limit=queue_limit)
        # The raw engine lock stays reachable under its old name: tests and
        # internal code that serialize against the engine directly keep
        # working, and the admission queue's lock-polling tolerates them.
        self._engine_lock = self.admission.lock
        self.unix_door = (
            HttpFrontDoor(self.socket_path, self) if self.socket_path else None
        )
        self.http_door = HttpFrontDoor(http, self, secret) if http else None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._bound

    def _doors(self) -> list[HttpFrontDoor]:
        return [door for door in (self.unix_door, self.http_door) if door]

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
            if self.unix_door is None:
                # Network only: the door is the daemon's address (":0"
                # resolved).
                self.address = self.http_door.address
        if self.unix_door is None or self._bound:
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
        try:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            self.unix_door.bind()
        except OSError as exc:
            # EADDRINUSE from a concurrent bind race, an unwritable
            # directory, ...: a clean error beats a traceback.
            raise DaemonError(f"cannot bind {self.socket_path}: {exc}") from exc
        self._bound = True

    def serve_forever(self) -> None:
        """Bind (if needed), start the doors and serve until :meth:`stop`
        or a ``shutdown`` op.

        Always tears down gracefully: the persistent cache is flushed, the
        warm pool is closed and the socket file is removed, even when the
        wait exits via an exception (e.g. ``KeyboardInterrupt``).
        """
        try:
            self.bind()
            for door in self._doors():
                door.start()
            self._wake.wait()
        finally:
            self.close()

    def stop(self) -> None:
        """Ask :meth:`serve_forever` to return after the in-flight requests.

        Waking the watch event first lets every open ``watch``
        subscription send its ``closed`` event and hang up before the
        doors close, so no client is ever left blocked on a read."""
        self._stopping = True
        self._wake.set()

    def close(self) -> None:
        """Flush caches, close the warm pool, remove the socket file.

        Only unlinks the socket file when this instance actually bound it
        -- closing a daemon whose :meth:`bind` failed must never delete a
        live daemon's address.
        """
        self.stop()
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
        # Closing the unix door joins its handler threads, so in-flight
        # requests (the shutdown op's own response among them) finish
        # before the engine goes down under their feet.
        for door in self._doors():
            door.close()
        # Never tear the engine down under a still-running engine op (a
        # network-door request is not joined above): waiting on the slot
        # here is what keeps the flush-on-shutdown guarantee (a flush
        # racing a cache-mutating verify is not a flush).  exclusive()
        # queues behind admitted work but bypasses the queue bound --
        # teardown is never load-shed.
        with self.admission.exclusive():
            self.engine.close()

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

    def watch(
        self,
        request: dict,
        emit,
        *,
        client: str = "",
        hung_up=lambda: False,
    ) -> dict | None:
        """Serve one ``watch`` subscription through ``emit`` until the
        client hangs up, the event budget is exhausted, or the daemon
        shuts down.

        A request that cannot be served returns its error response and
        emits nothing.  Otherwise every event goes to ``emit(event)``,
        and an ``OSError`` from it means the client went away.  The first
        verification fires immediately (the subscriber wants a baseline
        verdict), then the file's content digest is polled every
        ``interval`` seconds and each change emits one ``verdicts`` event;
        ``hung_up()`` is asked between polls.  The subscription ends with
        a ``closed`` event carrying the reason, so a streaming client
        never blocks on a read that nothing will answer.
        """
        path = request.get("path")
        if not isinstance(path, str):
            return {"ok": False, "error": "watch needs a 'path' string"}
        path = os.path.abspath(path)
        if not os.path.isfile(path):
            return {"ok": False, "error": f"watch: no such file: {path}"}
        try:
            interval = float(request.get("interval", 0.5))
        except (TypeError, ValueError):
            return {"ok": False, "error": "watch: 'interval' must be a number"}
        interval = min(max(interval, 0.05), 10.0)
        max_events = request.get("max_events")
        if max_events is not None:
            try:
                max_events = int(max_events)
            except (TypeError, ValueError):
                max_events = 0
            if max_events <= 0:
                return {
                    "ok": False,
                    "error": "watch: 'max_events' must be a positive int",
                }
        priority = request.get("priority", "interactive")
        if priority not in PRIORITY_LANES:
            return _unknown_priority(priority)
        self.requests_served += 1
        self.watch_subscriptions += 1
        self.watch_active += 1
        events = 0
        reason = "client"
        try:
            emit(
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
                    event = self._watch_verify(path, client, priority)
                    events += 1
                    event["generation"] = events
                    emit(event)
                    if max_events is not None and events >= max_events:
                        reason = "max_events"
                        break
                if hung_up():
                    reason = "client"
                    break
                if self._wake.wait(interval):
                    reason = "shutdown"
                    break
        except OSError:
            reason = "client"
        finally:
            self.watch_active -= 1
        try:
            emit({"ok": True, "event": "closed", "reason": reason, "events": events})
        except OSError:
            pass
        return None

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

    def handle(self, request: dict, *, client: str = "") -> dict:
        """Execute one request object and return the response object.

        Exposed directly (besides the doors) so tests can exercise op
        semantics without a live socket.  Engine-driving ops pass
        admission control first: a busy engine queues the request in its
        priority lane (``"priority"``, default ``interactive``) unless
        ``"nowait": true``, and a full queue is rejected immediately, both
        with the structured shape of
        :func:`repro.verifier.admission.rejection_response`.

        ``client`` is the caller's client id (a door's ``X-Jahob-Client``
        header), which keys the tenant cache namespace.
        """
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        priority = request.get("priority", "interactive")
        if priority not in PRIORITY_LANES:
            return _unknown_priority(priority)
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
            self.engine.set_cache_namespace(client)
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

