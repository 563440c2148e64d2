"""HTTP/1.1 JSON front door for the verification daemon.

The unix socket (:mod:`repro.verifier.daemon`) serves local clients in
newline-JSON framing.  :class:`HttpFrontDoor` is the daemon's one network
door: it serves the same ops as plain HTTP -- ``POST /v1/verify`` with a
JSON body, get a JSON response -- so anything that can send an HTTP
request can drive the verifier, ``jahob-py --connect HOST:PORT`` among
them.  Built on the stdlib :class:`~http.server.ThreadingHTTPServer`: no
new dependencies, one thread per in-flight request, same admission
control as the socket path (the HTTP layer is a *front door*, not a
second engine).

Routes are data, not code: :data:`ROUTES` is the single table mapping
``(method, path)`` to a daemon op plus whether the op passes admission
control.  ``docs/service-api.md`` documents exactly this table and a
tier-1 test (``tests/test_service_docs.py``) asserts the two never
drift.  ``shutdown`` (and the streaming ``watch``) are deliberately
socket-only: stopping the daemon is an operator's action that should
require the operator's transport.

Authentication: every request carries the caller's client id and an
HMAC-SHA256 over ``client\\nmethod\\npath\\nbody`` with the shared secret
(headers ``X-Jahob-Client`` / ``X-Jahob-Signature``).  A missing or wrong
signature is answered ``401`` before the body is parsed as JSON.  The
daemon trusts the authenticated id for tenant cache namespacing.
Transport encryption and replay protection are deliberately out of scope
-- run a TLS-terminating reverse proxy in front (``docs/operations.md``).

Status mapping: ``200`` for any handled op (including ``"ok": false``
verification failures -- the HTTP layer reports transport success, the
body reports verdicts), ``400`` malformed input (a ``Content-Length``
that is not a non-negative integer, an oversized body, malformed JSON),
``401`` failed authentication, ``404`` unknown path, ``405`` known path
with the wrong method, ``429`` admission rejections (``busy`` /
``queue_full``) with a ``Retry-After: 1`` header.
"""

from __future__ import annotations

import hashlib
import hmac
import http.client
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .admission import RETRY_AFTER
from .wire import WireError, parse_address

__all__ = [
    "ROUTES",
    "Route",
    "HttpFrontDoor",
    "HttpApiClient",
    "HttpApiError",
    "sign_request",
]

#: Hard cap on one request body, matching the socket protocol's line cap.
_MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class Route:
    """One row of the HTTP surface: a method+path bound to a daemon op.

    ``admission`` marks ops that pass admission control (and can answer
    429); it must agree with the daemon's ``_ENGINE_OPS`` -- the service
    docs drift test checks both directions.
    """

    method: str
    path: str
    op: str
    admission: bool
    description: str


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
)

_BY_PATH: dict[str, dict[str, Route]] = {}
for _route in ROUTES:
    _BY_PATH.setdefault(_route.path, {})[_route.method] = _route


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


class _Handler(BaseHTTPRequestHandler):
    """One request.  The daemon and secret arrive via the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "jahob-py"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's metrics op is the observability surface

    def _reply(self, status: int, payload: dict):
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            # Only admission rejections answer 429; Retry-After is whole
            # seconds.
            self.send_header("Retry-After", str(int(RETRY_AFTER)))
        self.end_headers()
        self.wfile.write(body)

    # -- the one code path ------------------------------------------------------

    def _serve(self) -> None:
        methods = _BY_PATH.get(self.path)
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
            self.close_connection = True
            error = (
                "request body too large"
                if length > 0
                else "Content-Length must be a non-negative integer"
            )
            self._reply(400, {"ok": False, "error": error})
            return
        body = self.rfile.read(length) if length else b""
        client = self.headers.get("X-Jahob-Client", "")
        signature = self.headers.get("X-Jahob-Signature", "")
        expected = sign_request(
            self.server.secret, client, self.command, self.path, body
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
        request["op"] = route.op
        response = self.server.daemon.handle(request, client=client)
        if response.get("busy"):
            self._reply(429, response)
            return
        self._reply(200, response)

    do_GET = _serve
    do_POST = _serve


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The admission queue is the real concurrency bound; a deeper accept
    # backlog just keeps bursts from seeing connection resets.
    request_queue_size = 128

    def __init__(self, address, daemon, secret: bytes) -> None:
        super().__init__(address, _Handler)
        self.daemon = daemon
        self.secret = secret


class HttpFrontDoor:
    """Lifecycle wrapper tying a :class:`_Server` to a daemon.

    Owned by :class:`~repro.verifier.daemon.VerifierDaemon`: ``bind()``
    inside the daemon's bind, ``start()`` when the accept loop starts,
    ``close()`` on teardown.  The server thread is a daemon thread, so a
    crashed main thread never hangs on it.
    """

    def __init__(self, address: str, daemon, secret: bytes) -> None:
        kind, target = parse_address(address)
        if kind != "tcp":
            raise WireError(
                f"the HTTP front door needs a HOST:PORT address, got {address!r}"
            )
        self._target = target
        self.daemon = daemon
        self.secret = secret
        self.address = address
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def bind(self) -> None:
        """Bind the HTTP listener and resolve ``:0`` (idempotent)."""
        if self._server is not None:
            return
        self._server = _Server(self._target, self.daemon, self.secret)
        self.address = "%s:%d" % self._server.server_address[:2]

    def start(self) -> None:
        self.bind()
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="jahob-http-door",
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
    """A transport-level failure talking to the HTTP front door."""


class HttpApiClient:
    """A minimal signed client for the front door (``--connect HOST:PORT``,
    tests, benchmarks).

    One request per call over a fresh connection -- matching the socket
    client's one-shot model keeps the two transports behaviourally
    comparable under load.  ``request`` returns ``(status, response)``
    and only raises :class:`HttpApiError` for transport failures, never
    for HTTP error statuses: 429-handling is the caller's retry policy.
    ``timeout`` bounds connect and every read; ``None`` waits as long as
    the request takes.
    """

    def __init__(
        self,
        address: str,
        secret: bytes,
        client_id: str = "",
        timeout: float | None = 60.0,
    ) -> None:
        kind, target = parse_address(address)
        if kind != "tcp":
            raise HttpApiError(f"need a HOST:PORT address, got {address!r}")
        host, port = target
        self.host = host or "127.0.0.1"
        self.port = port
        self.secret = secret
        self.client_id = client_id
        self.timeout = timeout

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        payload = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else b""
        )
        headers = {
            "X-Jahob-Client": self.client_id,
            "X-Jahob-Signature": sign_request(
                self.secret, self.client_id, method, path, payload
            ),
        }
        if payload:
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            try:
                connection.connect()
            except OSError as exc:
                raise HttpApiError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from exc
            connection.request(method, path, body=payload, headers=headers)
            raw = connection.getresponse()
            status = raw.status
            data = raw.read()
        except (OSError, http.client.HTTPException) as exc:
            raise HttpApiError(
                f"HTTP request to {self.host}:{self.port} failed: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            response = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpApiError(f"non-JSON response (status {status})") from exc
        return status, response

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
