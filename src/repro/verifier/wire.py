"""Shared wire layer of the daemon, its clients and the HTTP front door.

The daemon's unix socket speaks newline-delimited JSON.  This module holds
the pieces the transports share:

* **framing** -- :class:`LineChannel` sends and receives one JSON object
  per line and keeps bytes that arrive past a newline for the next
  message, since a ``watch`` subscription is many messages on one
  socket;
* **addresses** -- ``HOST:PORT`` next to unix-socket paths
  (:func:`parse_address`): a path names the daemon's unix socket, dialed
  by :func:`connect_address`, and ``HOST:PORT`` its HTTP front door
  (:mod:`repro.verifier.http`);
* **secrets** -- :func:`load_secret` reads the shared secret that signs
  every HTTP request.  Unix-socket peers need none: filesystem
  permissions are the authentication there.

Nothing received from a socket is ever unpickled.  See the security note
in ``docs/architecture.md``.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path

__all__ = [
    "MAX_LINE_BYTES",
    "WireError",
    "parse_address",
    "connect_address",
    "load_secret",
    "LineChannel",
]

#: Hard cap on one protocol line.  Suite responses with per-sequent reports
#: are the largest messages and stay far below this; a corrupt peer must
#: not make either side buffer without bound.
MAX_LINE_BYTES = 64 << 20


class WireError(RuntimeError):
    """A protocol-level failure: oversized line, closed peer, bad JSON."""


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


def connect_address(path: str | Path, timeout: float = 5.0) -> socket.socket:
    """Connect a stream socket to the unix socket at ``path``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(str(path))
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
    neither source is configured -- the HTTP door and its clients reject
    that.
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
    them as the next message -- a ``watch`` stream is many messages per
    connection.  ``recv`` returns ``None`` on a clean EOF
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
