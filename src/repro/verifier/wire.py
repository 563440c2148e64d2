"""Addresses and secrets shared by the daemon's doors and their client.

The daemon speaks one protocol, HTTP/1.1 JSON (:mod:`repro.verifier.http`),
on two listeners.  This module holds the pieces around it:

* **addresses** -- ``HOST:PORT`` next to unix-socket paths
  (:func:`parse_address`): a path names the daemon's unix socket and
  ``HOST:PORT`` its network door;
* **secrets** -- :func:`load_secret` reads the shared secret that signs
  every request on the network door.  Unix-socket peers need none:
  filesystem permissions are the authentication there.

Nothing received from a socket is ever unpickled.  See the security note
in ``docs/architecture.md``.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["parse_address", "load_secret"]


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


def load_secret(
    secret_file: str | Path | None, env: str = "JAHOB_SECRET"
) -> bytes | None:
    """The shared secret from ``--secret-file`` or the environment.

    A file wins over the environment variable; surrounding whitespace is
    stripped (editors love trailing newlines).  Returns ``None`` when
    neither source is configured -- the network door and its clients
    reject that.
    """
    if secret_file is not None:
        return Path(secret_file).read_bytes().strip()
    value = os.environ.get(env)
    if value:
        return value.encode("utf-8").strip()
    return None
