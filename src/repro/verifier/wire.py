"""Shared wire layer of the daemon, its client and the HTTP front door.

The daemon speaks newline-delimited JSON.  This module holds the pieces
every transport shares:

* **framing** -- :class:`LineChannel` sends and receives one JSON object
  per line and keeps bytes that arrive past a newline for the next
  message, since a handshake (and a ``watch`` subscription) is many
  messages on one socket;
* **addresses** -- ``HOST:PORT`` next to unix-socket paths, parsed and
  dialed uniformly (:func:`parse_address`, :func:`connect_address`,
  :func:`create_listener`);
* **authentication** -- anyone who can reach a TCP port could otherwise
  drive the daemon's engine and read its tenants' verdicts.  TCP peers
  therefore run a mutual HMAC-SHA256 challenge-response handshake over a
  shared secret (:func:`handshake_accept` / :func:`handshake_connect`)
  before the daemon reads a request line.  The secret itself never
  crosses the wire; each side proves possession by answering the other's
  fresh nonce.  Unix-socket peers skip the handshake -- filesystem
  permissions are the authentication there.

After the handshake TCP peers exchange only JSON requests and responses;
nothing received from a socket is ever unpickled.  See the security note
in ``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import socket
from pathlib import Path

__all__ = [
    "WIRE_VERSION",
    "MAX_LINE_BYTES",
    "WireError",
    "HandshakeError",
    "parse_address",
    "create_listener",
    "connect_address",
    "load_secret",
    "handshake_accept",
    "handshake_connect",
    "client_role",
    "parse_client_role",
    "LineChannel",
]

#: Bumped on incompatible wire-level changes (framing or handshake).
WIRE_VERSION = 1

#: Hard cap on one protocol line.  Suite responses with per-sequent reports
#: are the largest messages and stay far below this; a corrupt peer must
#: not make either side buffer without bound.
MAX_LINE_BYTES = 64 << 20

#: Bytes of entropy in each handshake nonce.
_NONCE_BYTES = 32


class WireError(RuntimeError):
    """A protocol-level failure: oversized line, closed peer, bad JSON."""


class HandshakeError(WireError):
    """The peer failed (or refused) the shared-secret handshake."""


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


def parse_address(spec: str | Path) -> tuple[str, object]:
    """Classify ``spec`` as ``("tcp", (host, port))`` or ``("unix", path)``.

    ``HOST:PORT`` with an integer port and no path separator in the host is
    TCP; everything else is a unix-socket path.  ``HOST`` may be empty
    (``":8700"``) meaning all interfaces.
    """
    if isinstance(spec, Path):
        return "unix", str(spec)
    text = str(spec)
    host, sep, port = text.rpartition(":")
    if sep and "/" not in host and "\\" not in host:
        try:
            return "tcp", (host or "0.0.0.0", int(port))
        except ValueError:
            pass
    return "unix", text


def create_listener(spec: str | Path, backlog: int = 8) -> socket.socket:
    """Bind and listen on ``spec`` (TCP only -- the daemon keeps its own
    unix-socket bind logic with stale-file takeover)."""
    kind, target = parse_address(spec)
    if kind != "tcp":
        raise WireError(f"create_listener needs a HOST:PORT address, got {spec!r}")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(target)
        server.listen(backlog)
    except OSError:
        server.close()
        raise
    return server


def connect_address(spec: str | Path, timeout: float = 5.0) -> socket.socket:
    """Connect a stream socket to a TCP or unix-socket address."""
    kind, target = parse_address(spec)
    if kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target = str(target)
    try:
        sock.settimeout(timeout)
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def load_secret(
    secret_file: str | Path | None, env: str = "JAHOB_SECRET"
) -> bytes | None:
    """The shared secret from ``--secret-file`` or the environment.

    A file wins over the environment variable; surrounding whitespace is
    stripped (editors love trailing newlines).  Returns ``None`` when
    neither source is configured -- TCP endpoints reject that.
    """
    if secret_file is not None:
        return Path(secret_file).read_bytes().strip()
    value = os.environ.get(env)
    if value:
        return value.encode("utf-8").strip()
    return None


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class LineChannel:
    """Newline-delimited JSON messages over one stream socket.

    The channel keeps the bytes that arrive after a newline and serves
    them as the next message -- a handshake or a ``watch`` stream is many
    messages per connection.  ``recv`` returns ``None`` on a clean EOF
    between messages and raises :class:`WireError` on EOF mid-message or
    an oversized line.
    """

    def __init__(self, sock: socket.socket, limit: int = MAX_LINE_BYTES) -> None:
        self.sock = sock
        self.limit = limit
        self._buffer = b""

    def send(self, message: dict) -> None:
        try:
            self.sock.sendall(
                json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
            )
        except OSError as exc:
            raise WireError(f"peer went away while sending: {exc}") from exc

    def recv(self) -> dict | None:
        while b"\n" not in self._buffer:
            if len(self._buffer) > self.limit:
                raise WireError("protocol line too large")
            try:
                chunk = self.sock.recv(65536)
            except OSError as exc:
                raise WireError(f"peer went away while receiving: {exc}") from exc
            if not chunk:
                if self._buffer:
                    raise WireError("peer closed the connection mid-message")
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        if len(line) > self.limit:
            raise WireError("protocol line too large")
        try:
            message = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireError(f"malformed protocol line: {exc}") from exc
        if not isinstance(message, dict):
            raise WireError("protocol line is not a JSON object")
        return message

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def _mac(secret: bytes, nonce: str, role: str) -> str:
    return hmac.new(
        secret, f"{nonce}:{role}".encode("utf-8"), hashlib.sha256
    ).hexdigest()


def handshake_accept(
    channel: LineChannel, secret: bytes, expect_role: str | None = None
) -> str:
    """Run the accepting side of the handshake; returns the peer's role.

    The acceptor challenges first: it sends a fresh nonce, the dialer
    answers with ``HMAC(secret, nonce + ":" + role)`` plus its own nonce,
    and the acceptor both verifies that answer and proves itself by
    returning ``HMAC(secret, dialer_nonce + ":acceptor")``.  A wrong
    secret on either side surfaces as :class:`HandshakeError` before any
    payload is exchanged.
    """
    nonce = os.urandom(_NONCE_BYTES).hex()
    channel.send({"jahob": WIRE_VERSION, "nonce": nonce})
    answer = channel.recv()
    if answer is None:
        raise HandshakeError("peer hung up during handshake")
    role = answer.get("role")
    peer_nonce = answer.get("nonce")
    mac = answer.get("mac")
    if not isinstance(role, str) or not isinstance(peer_nonce, str) or not (
        isinstance(mac, str)
    ):
        raise HandshakeError("malformed handshake answer")
    if not hmac.compare_digest(mac, _mac(secret, nonce, role)):
        channel.send({"ok": False, "error": "handshake failed"})
        raise HandshakeError("peer presented a wrong shared secret")
    if expect_role is not None and role != expect_role and not (
        role.startswith(expect_role + ":")
    ):
        # "client:alice" satisfies expect_role="client": the suffix is the
        # peer's self-declared identity, HMAC-bound like the rest of the
        # role string (see client_role / parse_client_role).
        channel.send({"ok": False, "error": f"unexpected role {role!r}"})
        raise HandshakeError(f"expected a {expect_role!r} peer, got {role!r}")
    channel.send({"ok": True, "mac": _mac(secret, peer_nonce, "acceptor")})
    return role


def handshake_connect(channel: LineChannel, secret: bytes, role: str) -> None:
    """Run the dialing side of the handshake, authenticating as ``role``."""
    challenge = channel.recv()
    if challenge is None:
        raise HandshakeError("peer hung up during handshake")
    if challenge.get("jahob") != WIRE_VERSION:
        raise HandshakeError(
            f"peer speaks wire version {challenge.get('jahob')!r}, "
            f"this side speaks {WIRE_VERSION}"
        )
    nonce = challenge.get("nonce")
    if not isinstance(nonce, str):
        raise HandshakeError("malformed handshake challenge")
    own_nonce = os.urandom(_NONCE_BYTES).hex()
    channel.send({"role": role, "nonce": own_nonce, "mac": _mac(secret, nonce, role)})
    verdict = channel.recv()
    if verdict is None:
        raise HandshakeError("peer hung up during handshake")
    if not verdict.get("ok"):
        raise HandshakeError(
            f"peer rejected the handshake: {verdict.get('error', 'no reason')}"
        )
    mac = verdict.get("mac")
    if not isinstance(mac, str) or not hmac.compare_digest(
        mac, _mac(secret, own_nonce, "acceptor")
    ):
        raise HandshakeError("peer failed to prove the shared secret")


def client_role(client_id: str = "") -> str:
    """The handshake role a daemon client authenticates as.

    A bare ``"client"`` is the anonymous default; ``"client:alice"``
    carries the client id that keys the daemon's tenant cache
    namespace.  The whole role string is covered by the handshake
    MAC, so a TCP peer cannot claim an id without the shared secret.
    """
    return f"client:{client_id}" if client_id else "client"


def parse_client_role(role: str) -> str | None:
    """The client id inside a handshake role, or ``None`` for non-clients."""
    if role == "client":
        return ""
    if role.startswith("client:"):
        return role[len("client:"):]
    return None
