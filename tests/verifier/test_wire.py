"""Unit tests for the shared wire layer (framing, addresses, secrets)."""

from __future__ import annotations

import socket

import pytest

from repro.verifier.wire import (
    LineChannel,
    WireError,
    load_secret,
    parse_address,
)


def channel_pair() -> tuple[LineChannel, LineChannel]:
    left, right = socket.socketpair()
    return LineChannel(left), LineChannel(right)


class TestAddresses:
    def test_host_port_is_tcp(self):
        assert parse_address("127.0.0.1:8700") == ("tcp", ("127.0.0.1", 8700))
        assert parse_address(":9000") == ("tcp", ("0.0.0.0", 9000))
        assert parse_address("example.org:1") == ("tcp", ("example.org", 1))

    def test_paths_are_unix(self):
        assert parse_address(".jahob.sock") == ("unix", ".jahob.sock")
        assert parse_address("/tmp/with:colon/x.sock")[0] == "unix"
        assert parse_address("relative/dir/jahob.sock")[0] == "unix"
        assert parse_address("host:notaport")[0] == "unix"


class TestLineChannel:
    def test_many_messages_one_buffer(self):
        a, b = channel_pair()
        # Two messages can land in one recv() chunk; the channel must
        # buffer past the first newline instead of discarding.
        a.sock.sendall(b'{"n":1}\n{"n":2}\n')
        assert b.recv() == {"n": 1}
        assert b.recv() == {"n": 2}
        a.close()
        assert b.recv() is None  # clean EOF between messages
        b.close()

    def test_send_recv_roundtrip(self):
        a, b = channel_pair()
        a.send({"op": "hello", "pid": 42})
        assert b.recv() == {"op": "hello", "pid": 42}
        b.send({"ok": True})
        assert a.recv() == {"ok": True}
        a.close()
        b.close()

    def test_eof_mid_message_is_an_error(self):
        a, b = channel_pair()
        a.sock.sendall(b'{"trunc')
        a.close()
        with pytest.raises(WireError, match="mid-message"):
            b.recv()
        b.close()

    def test_oversized_line_is_an_error(self):
        a, b = channel_pair()
        b.limit = 64
        a.sock.sendall(b"x" * 100)
        with pytest.raises(WireError, match="too large"):
            b.recv()
        a.close()
        b.close()

    def test_non_object_line_is_an_error(self):
        a, b = channel_pair()
        a.sock.sendall(b"[1,2]\n")
        with pytest.raises(WireError, match="not a JSON object"):
            b.recv()
        a.close()
        b.close()


class TestSecrets:
    def test_load_secret_file_beats_env(self, tmp_path, monkeypatch):
        path = tmp_path / "secret"
        path.write_text("  from-file\n")
        monkeypatch.setenv("JAHOB_SECRET", "from-env")
        assert load_secret(path) == b"from-file"
        assert load_secret(None) == b"from-env"
        monkeypatch.delenv("JAHOB_SECRET")
        assert load_secret(None) is None
