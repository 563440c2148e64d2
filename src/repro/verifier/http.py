"""HTTP/1.1 JSON protocol of the verification daemon, on both of its doors.

The daemon (:mod:`repro.verifier.daemon`) speaks one wire protocol on two
listeners, each an :class:`HttpFrontDoor`: its unix socket for local
clients, and ``HOST:PORT`` (``serve --http``) for remote ones.  Either
way it is plain HTTP -- ``POST /v1/verify`` with a JSON body, get a JSON
response -- so anything that can send an HTTP request can drive the
verifier, ``jahob-py --connect`` and ``curl --unix-socket`` among them.
Built on the stdlib :mod:`http.server`: no new dependencies, one thread
per connection, and the daemon's admission control behind every engine
op (the HTTP layer is a *door*, not a second engine).

Routes are data, not code: :data:`ROUTES` is the single table mapping
``(method, path)`` to a daemon op, whether the op passes admission
control and whether it is local-only.  ``docs/service-api.md`` documents
exactly this table and a tier-1 test (``tests/test_service_docs.py``)
asserts the two never drift.  The local-only rows -- ``shutdown`` and the
streaming ``watch`` -- are served on the unix socket and answered ``404``
on the network door: stopping the daemon is an operator's action that
should require the operator's transport, and a watched file lives on the
daemon's host.

``POST /v1/watch`` answers one ``Connection: close`` response whose
``application/x-ndjson`` body is the subscription's event stream, one
JSON object per line, ending with a ``closed`` event; the client hangs
up to unsubscribe.  A request the daemon refuses is a ``400`` JSON body
sent before any stream starts.

Authentication: on the unix socket, filesystem permissions -- only
accounts that can write the socket file connect at all -- so the
``X-Jahob-Client`` header is trusted as it stands.  On the network door
every request carries the caller's client id and an HMAC-SHA256 over
``client\\nmethod\\npath\\nbody`` with the shared secret (headers
``X-Jahob-Client`` / ``X-Jahob-Signature``); a missing or wrong signature
is answered ``401`` before the body is parsed as JSON.  The daemon
trusts the id for tenant cache namespacing.  Transport encryption and
replay protection are deliberately out of scope -- run a TLS-terminating
reverse proxy in front (``docs/operations.md``).

Status mapping: ``200`` for any handled op (including ``"ok": false``
verification failures -- the HTTP layer reports transport success, the
body reports verdicts), ``400`` malformed input (a ``Content-Length``
that is not a non-negative integer, an oversized body, malformed JSON, a
refused ``watch``), ``401`` failed authentication, ``404`` unknown path,
``405`` known path with the wrong method, ``429`` admission rejections
(``busy`` / ``queue_full``) with a ``Retry-After: 1`` header.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import select
import socket
import socketserver
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .admission import RETRY_AFTER
from .wire import parse_address

__all__ = [
    "ROUTES",
    "Route",
    "HttpFrontDoor",
    "HttpApiClient",
    "HttpApiError",
    "sign_request",
]

#: Hard cap on one request body.
_MAX_BODY_BYTES = 1 << 20

#: Socket-I/O deadline of both doors, for reading a request and writing a
#: response.  A peer that connects and then goes silent must not pin a
#: handler thread forever.  Request *handling* (proving) runs between the
#: two I/O phases with no deadline.
_IO_TIMEOUT = 30.0


@dataclass(frozen=True)
class Route:
    """One row of the HTTP surface: a method+path bound to a daemon op.

    ``admission`` marks ops that pass admission control as a whole (and
    can answer 429); the daemon derives its set of engine ops from this
    column.  ``local_only`` rows are served on the unix socket only.
    """

    method: str
    path: str
    op: str
    admission: bool
    description: str
    local_only: bool = False


#: The entire HTTP surface.  ``docs/service-api.md`` is generated-by-hand
#: from this table and drift-checked against it; extend the table and the
#: doc together.
ROUTES = (
    Route("GET", "/v1/ping", "ping", False, "liveness, protocol and uptime"),
    Route("GET", "/v1/structures", "list", False, "catalogue class names"),
    Route("POST", "/v1/verify", "verify", True, "verify one catalogue class"),
    Route(
        "POST",
        "/v1/verify-file",
        "verify_file",
        True,
        "verify every class model in an uploaded-by-path Python file",
    ),
    Route("POST", "/v1/suite", "suite", True, "suite-scheduled verification run"),
    Route("POST", "/v1/table1", "table1", True, "the full catalogue as Table 1"),
    Route("GET", "/v1/stats", "stats", False, "engine counters and cache state"),
    Route(
        "GET",
        "/v1/metrics",
        "metrics",
        False,
        "cache provenance, admission, watch and run-plan observability",
    ),
    Route(
        "POST",
        "/v1/watch",
        "watch",
        False,
        "stream verdicts for a program file as it changes (NDJSON)",
        local_only=True,
    ),
    Route(
        "POST",
        "/v1/shutdown",
        "shutdown",
        True,
        "flush the caches and stop the daemon",
        local_only=True,
    ),
)

#: ``path -> method -> route`` for each door, keyed by whether it is the
#: local (unix-socket) one.
_BY_PATH: dict[bool, dict[str, dict[str, Route]]] = {True: {}, False: {}}
for _route in ROUTES:
    for _local in (True, False):
        if _local or not _route.local_only:
            _BY_PATH[_local].setdefault(_route.path, {})[_route.method] = _route


def sign_request(
    secret: bytes, client: str, method: str, path: str, body: bytes
) -> str:
    """The ``X-Jahob-Signature`` value for one request.

    Covers the client id, the method, the path and the exact body bytes,
    so none of them can be replayed as a different request.  (No nonce:
    an eavesdropper on the plaintext hop could replay, which is the
    reverse-proxy-TLS deployment's job to prevent -- see
    ``docs/operations.md``.)
    """
    message = f"{client}\n{method}\n{path}\n".encode("utf-8") + body
    return hmac.new(secret, message, hashlib.sha256).hexdigest()


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One connection.  The daemon and secret arrive via the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "jahob-py"
    # Buffered, so a response's head and body leave in one write (the
    # stdlib flushes after each request; the watch stream flushes per
    # event).
    wbufsize = -1

    @property
    def timeout(self) -> float:  # read per connection by StreamRequestHandler
        return _IO_TIMEOUT

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's metrics op is the observability surface

    def _reply(self, status: int, payload: dict, close: bool = False):
        # One request per connection on the socket, as its clients use it:
        # an idle keep-alive connection would hold up shutdown, which
        # joins the socket's handler threads, for up to _IO_TIMEOUT.
        close = close or self.server.local
        body = _encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            # Only admission rejections answer 429; Retry-After is whole
            # seconds.
            self.send_header("Retry-After", str(int(RETRY_AFTER)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    # -- the one code path ------------------------------------------------------

    def _serve(self) -> None:
        server = self.server
        methods = _BY_PATH[server.local].get(self.path)
        if methods is None:
            self._reply(404, {"ok": False, "error": f"no route {self.path!r}"})
            return
        route = methods.get(self.command)
        if route is None:
            allowed = ", ".join(sorted(methods))
            self._reply(
                405,
                {
                    "ok": False,
                    "error": f"{self.path} expects {allowed}, not {self.command}",
                },
            )
            return
        # RFC 9110 allows 1*DIGIT only.  int() alone would also read "+5"
        # or "1_0" (as 10), a length a reverse proxy in front may read
        # differently -- the start of a request-smuggling bug.
        raw = (self.headers.get("Content-Length") or "0").strip(" \t")
        length = int(raw) if raw.isascii() and raw.isdigit() else -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            # The body stays unread, so its bytes cannot be told from a
            # next request: answer, then hang up.
            error = (
                "request body too large"
                if length > 0
                else "Content-Length must be a non-negative integer"
            )
            self._reply(400, {"ok": False, "error": error}, close=True)
            return
        body = self.rfile.read(length) if length else b""
        client = self.headers.get("X-Jahob-Client", "")
        # The unix socket's file permissions authenticate its peers.
        if not server.local:
            signature = self.headers.get("X-Jahob-Signature", "")
            expected = sign_request(
                server.secret, client, self.command, self.path, body
            )
            if not signature or not hmac.compare_digest(signature, expected):
                self._reply(
                    401,
                    {
                        "ok": False,
                        "error": "missing or invalid request signature "
                        "(X-Jahob-Client / X-Jahob-Signature)",
                    },
                )
                return
        if body:
            try:
                request = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                self._reply(400, {"ok": False, "error": f"malformed JSON body: {exc}"})
                return
            if not isinstance(request, dict):
                self._reply(
                    400, {"ok": False, "error": "request body must be a JSON object"}
                )
                return
        else:
            request = {}
        if route.op == "watch":
            self._stream_watch(request, client)
            return
        request["op"] = route.op
        response = server.daemon.handle(request, client=client)
        self._reply(429 if response.get("busy") else 200, response)

    def _stream_watch(self, request: dict, client: str) -> None:
        """Serve ``watch`` as one NDJSON stream; the headers go out with
        the first event, so a refused request can still answer 400."""
        started = False

        def emit(event: dict) -> None:
            nonlocal started
            if not started:
                started = True
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Connection", "close")
                self.end_headers()
            self.wfile.write(_encode(event) + b"\n")
            self.wfile.flush()

        def hung_up() -> bool:
            # A client sends nothing after its request; readable means it
            # hung up (or misbehaves), and either ends the subscription.
            return bool(select.select([self.connection], [], [], 0)[0])

        error = self.server.daemon.watch(request, emit, client=client, hung_up=hung_up)
        if error is not None:
            self._reply(400, error)

    do_GET = _serve
    do_POST = _serve


class _DoorServer:
    """What both door servers share: the daemon, the secret, the backlog
    and quiet hang-ups."""

    # The admission queue is the real concurrency bound; a deeper accept
    # backlog just keeps bursts from seeing connection resets.
    request_queue_size = 128

    def __init__(self, address, daemon, secret: bytes | None) -> None:
        super().__init__(address, _Handler)
        self.daemon = daemon
        self.secret = secret

    def handle_error(self, request, client_address) -> None:
        # A client that hung up mid-request costs the daemon nothing.
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class _TcpServer(_DoorServer, ThreadingHTTPServer):
    local = False


class _UnixServer(_DoorServer, socketserver.ThreadingUnixStreamServer):
    # Non-daemon handler threads: server_close() joins them, so shutdown
    # lets in-flight requests (the shutdown op's own among them) finish.
    local = True
    daemon_threads = False


class HttpFrontDoor:
    """One listener of the daemon: its unix socket (a path) or its network
    door (``HOST:PORT``, which requires ``secret``).

    Owned by :class:`~repro.verifier.daemon.VerifierDaemon`: ``bind()``
    inside the daemon's bind, ``start()`` in its ``serve_forever``,
    ``close()`` on teardown.  The accept thread is a daemon thread, so a
    crashed main thread never hangs on it.
    """

    def __init__(self, address, daemon, secret: bytes | None = None) -> None:
        kind, target = parse_address(address)
        self.local = kind == "unix"
        self._target = target
        self.daemon = daemon
        self.secret = secret
        self.address = str(address)
        self._server: _DoorServer | None = None
        self._thread: threading.Thread | None = None

    def bind(self) -> None:
        """Bind the listener and resolve ``:0`` (idempotent)."""
        if self._server is not None:
            return
        if self.local:
            self._server = _UnixServer(self._target, self.daemon, None)
        else:
            self._server = _TcpServer(self._target, self.daemon, self.secret)
            self.address = "%s:%d" % self._server.server_address[:2]

    def start(self) -> None:
        self.bind()
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="jahob-unix-door" if self.local else "jahob-http-door",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        if self._server is None:
            return
        server, self._server = self._server, None
        if self._thread is not None:
            server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        server.server_close()


class HttpApiError(RuntimeError):
    """A transport-level failure talking to the daemon."""


class HttpApiClient:
    """The daemon's client (``--connect``, tests, benchmarks), on either
    door: a unix-socket path, or ``HOST:PORT`` with the shared ``secret``
    that signs every request.

    One request per call over a fresh connection, framed by hand: the
    doors' responses carry a ``Content-Length`` or end with the
    connection (``watch``), which is all of HTTP/1.1 this client reads.
    :mod:`http.client` made a warm round trip on the unix socket about
    30 % slower than the line protocol it replaced; this client keeps it
    within the benchmark's 25 % latency bound (``docs/performance.md``
    §11).  ``request`` returns ``(status,
    response)`` and only raises :class:`HttpApiError` for transport
    failures, never for HTTP error statuses: 429-handling is the caller's
    retry policy.  ``timeout`` bounds connect and every read; ``None``
    waits as long as the request takes.
    """

    def __init__(
        self,
        address: str,
        secret: bytes | None = None,
        client_id: str = "",
        timeout: float | None = 60.0,
    ) -> None:
        if "\r" in client_id or "\n" in client_id:
            raise HttpApiError(f"client id {client_id!r} must be one line")
        kind, target = parse_address(address)
        self.host, self.port = target if kind == "tcp" else (None, None)
        self.socket_path = target if kind == "unix" else None
        # How errors name the daemon, as the CLI has always printed it.
        self.where = (
            f"daemon at {target}" if kind == "unix" else f"{self.host}:{self.port}"
        )
        self.secret = secret
        self.client_id = client_id
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        if self.socket_path is None:
            return socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        return sock

    def _open(self, method: str, path: str, body: dict | None):
        """Send one request and read the response head: the socket, a
        reader at the body, the status and the body length (``None``: up
        to the end of the connection)."""
        payload = _encode(body) if body is not None else b""
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {'localhost' if self.port is None else self.where}",
            f"X-Jahob-Client: {self.client_id}",
            f"Content-Length: {len(payload)}",
        ]
        if self.secret is not None:
            signature = sign_request(self.secret, self.client_id, method, path, payload)
            head.append(f"X-Jahob-Signature: {signature}")
        if payload:
            head.append("Content-Type: application/json")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        try:
            sock = self._connect()
        except OSError as exc:
            raise HttpApiError(f"cannot connect to {self.where}: {exc}") from exc
        reader = sock.makefile("rb")
        try:
            try:
                sock.sendall(message)
            except (BrokenPipeError, ConnectionResetError):
                # The daemon answers a body it refuses (an oversized one)
                # before reading it, then hangs up; the answer is still
                # there to read.
                pass
            status_line = reader.readline(65537).split(None, 2)
            if len(status_line) < 2 or not status_line[0].startswith(b"HTTP/"):
                raise ValueError("the daemon sent no HTTP response")
            length = None
            while (line := reader.readline(65537)).strip():
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return sock, reader, int(status_line[1]), length
        except (OSError, ValueError) as exc:
            reader.close()
            sock.close()
            raise HttpApiError(f"HTTP request to {self.where} failed: {exc}") from exc

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        sock, reader, status, length = self._open(method, path, body)
        try:
            data = reader.read() if length is None else reader.read(length)
        except OSError as exc:
            raise HttpApiError(f"HTTP request to {self.where} failed: {exc}") from exc
        finally:
            reader.close()
            sock.close()
        try:
            response = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpApiError(f"non-JSON response (status {status})") from exc
        return status, response

    def call(self, request: dict) -> dict:
        """Send one daemon request object (``{"op": ..., **fields}``)
        through its op's row in :data:`ROUTES`; the response object,
        whatever the status (a 429 carries the rejection shape)."""
        (route,) = [route for route in ROUTES if route.op == request["op"]]
        body = {key: value for key, value in request.items() if key != "op"}
        return self.request(route.method, route.path, body or None)[1]

    def watch(self, body: dict):
        """Subscribe to ``POST /v1/watch``; yields event objects.

        The generator holds one connection for the whole subscription and
        ends after the daemon's ``closed`` event, or after the one error
        response of a refused request.  Closing the generator (or just
        dropping it) hangs the connection up, which the daemon takes as an
        unsubscribe.
        """
        sock, reader, status, length = self._open("POST", "/v1/watch", body)
        try:
            if status != 200:
                yield json.loads(reader.read(length))
                return
            while line := reader.readline():
                yield json.loads(line)
        except (OSError, ValueError) as exc:
            raise HttpApiError(f"lost watch stream from {self.where}: {exc}") from exc
        finally:
            reader.close()
            sock.close()

    def wait_ready(self, deadline: float = 10.0) -> dict:
        """Poll ``/v1/ping`` until the door answers (daemon start-up)."""
        end = time.monotonic() + deadline
        while True:
            try:
                status, response = self.request("GET", "/v1/ping")
            except HttpApiError:
                if time.monotonic() >= end:
                    raise
                time.sleep(0.05)
                continue
            if status == 200:
                return response
            raise HttpApiError(f"ping answered {status}: {response}")
