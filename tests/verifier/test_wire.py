"""Unit tests for the shared wire layer (addresses, secrets)."""

from __future__ import annotations

from repro.verifier.wire import load_secret, parse_address


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


class TestSecrets:
    def test_load_secret_file_beats_env(self, tmp_path, monkeypatch):
        path = tmp_path / "secret"
        path.write_text("  from-file\n")
        monkeypatch.setenv("JAHOB_SECRET", "from-env")
        assert load_secret(path) == b"from-file"
        assert load_secret(None) == b"from-env"
        monkeypatch.delenv("JAHOB_SECRET")
        assert load_secret(None) is None
