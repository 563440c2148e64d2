"""HTTP front door, end to end against a live daemon.

One daemon fixture serves a real :class:`VerifierDaemon` with the HTTP
listener enabled; the tests drive it through :class:`HttpApiClient`
exactly like an external caller would: authentication failures, routing
errors, verify round-trips (bit-identical to a direct ``handle`` call),
structured 429 rejections with a ``Retry-After`` header, and tenant
identity flowing from the signed ``X-Jahob-Client`` header into the
admission snapshot.  A second, small daemon takes concurrent clients of
two tenants through a two-slot admission queue.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import pytest

from repro.verifier.cli import main
from repro.verifier.daemon import (
    PROTOCOL_VERSION,
    DaemonClient,
    DaemonError,
    VerifierDaemon,
)
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import (
    ROUTES,
    HttpApiClient,
    HttpApiError,
    sign_request,
)

TIMEOUT_SCALE = 0.4
SECRET = b"http-front-door-test-secret"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("http-door")
    daemon = VerifierDaemon(
        tmp_path / "jahob.sock",
        http="127.0.0.1:0",
        cache_dir=tmp_path / "cache",
        timeout_scale=TIMEOUT_SCALE,
        secret=SECRET,
        queue_limit=4,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = HttpApiClient(_wait_address(daemon), SECRET, client_id="pytest")
    client.wait_ready()
    yield daemon, client
    daemon.stop()
    thread.join(timeout=10.0)


def _wait_address(daemon: VerifierDaemon) -> str:
    # serve_forever binds on its thread; poll until :0 is resolved.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        door = daemon.http_door
        if door is not None and not door.address.endswith(":0"):
            return door.address
        time.sleep(0.02)
    raise AssertionError("HTTP door never bound")


class TestRoutingAndAuth:
    def test_ping_round_trip(self, served):
        _, client = served
        status, response = client.request("GET", "/v1/ping")
        assert status == 200
        assert response["ok"]
        assert response["protocol"] == PROTOCOL_VERSION

    def test_structures_lists_the_catalogue(self, served):
        _, client = served
        status, response = client.request("GET", "/v1/structures")
        assert status == 200
        assert "Linked List" in response["structures"]

    def test_wrong_secret_is_401_for_every_route(self, served):
        daemon, client = served
        impostor = HttpApiClient(
            f"{client.host}:{client.port}", b"wrong-secret", client_id="pytest"
        )
        for route in ROUTES:
            status, response = impostor.request(route.method, route.path)
            assert status == 401, route.path
            assert response["ok"] is False
            assert "signature" in response["error"]

    def test_tampered_client_id_breaks_the_signature(self, served):
        # The signature covers the client id: signing as one identity and
        # claiming another must 401 (identity is what keys tenant
        # namespaces).
        import http.client as hc

        daemon, client = served
        body = b""
        headers = {
            "X-Jahob-Client": "mallory",
            "X-Jahob-Signature": sign_request(
                SECRET, "alice", "GET", "/v1/ping", body
            ),
        }
        connection = hc.HTTPConnection(client.host, client.port, timeout=10.0)
        try:
            connection.request("GET", "/v1/ping", body=body, headers=headers)
            assert connection.getresponse().status == 401
        finally:
            connection.close()

    def test_unknown_path_is_404(self, served):
        _, client = served
        status, response = client.request("GET", "/v2/ping")
        assert status == 404
        assert response["ok"] is False

    def test_wrong_method_is_405(self, served):
        _, client = served
        status, response = client.request("POST", "/v1/ping")
        assert status == 405
        assert "GET" in response["error"]

    def test_malformed_json_body_is_400(self, served):
        import http.client as hc

        _, client = served
        body = b"{not json"
        headers = {
            "X-Jahob-Client": "pytest",
            "X-Jahob-Signature": sign_request(
                SECRET, "pytest", "POST", "/v1/verify", body
            ),
        }
        connection = hc.HTTPConnection(client.host, client.port, timeout=10.0)
        try:
            connection.request("POST", "/v1/verify", body=body, headers=headers)
            raw = connection.getresponse()
            assert raw.status == 400
            raw.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-5", "-1", "+5", "1_0"])
    def test_unusable_content_length_is_400(self, served, length):
        # Over a raw socket: http.client would not send such a header.
        _, client = served
        request = (
            "POST /v1/verify HTTP/1.1\r\n"
            f"Host: {client.host}\r\n"
            f"Content-Length: {length}\r\n"
            "X-Jahob-Client: pytest\r\n\r\n"
        ).encode("ascii")
        data = b""
        with socket.create_connection((client.host, client.port), timeout=5.0) as sock:
            sock.sendall(request)
            try:
                while chunk := sock.recv(4096):
                    data += chunk
            except TimeoutError:
                pass  # a server still reading the body never answers
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), data
        response = json.loads(body)
        assert response["ok"] is False
        assert "Content-Length" in response["error"]

    def test_socket_only_ops_are_not_routed(self, served):
        _, client = served
        status, _ = client.request("POST", "/v1/shutdown")
        assert status == 404


class TestVerifyOverHttp:
    def test_verify_matches_direct_handle(self, served):
        daemon, client = served
        status, over_http = client.request(
            "POST", "/v1/verify", {"name": "Linked List"}
        )
        assert status == 200
        assert over_http["ok"]
        assert over_http["exit"] == 0
        direct = daemon.handle({"op": "verify", "name": "Linked List"})
        # Identical verdict and rendering across transports, up to the
        # wall-clock timings embedded in the output text (the two runs
        # are separate verifications in separate tenant namespaces).
        assert over_http["exit"] == direct["exit"]
        http_report = dict(over_http["report"], elapsed=None)
        assert http_report == dict(direct["report"], elapsed=None)
        normalize = re.compile(r"\d+\.\d+s").sub
        assert normalize("_s", over_http["output"]) == normalize(
            "_s", direct["output"]
        )

    def test_verification_failure_is_still_http_200(self, served):
        _, client = served
        status, response = client.request(
            "POST", "/v1/verify", {"name": "No Such Structure"}
        )
        assert status == 200
        assert response["ok"] is False
        assert "busy" not in response

    def test_metrics_shows_the_admission_snapshot(self, served):
        _, client = served
        status, response = client.request("GET", "/v1/metrics")
        assert status == 200
        admission = response["admission"]
        assert admission["queue_limit"] == 4
        assert admission["admitted"] >= 1
        assert set(admission["queued"]) == {"interactive", "batch"}


class TestBackpressure:
    def test_nowait_while_busy_is_structured_429(self, served):
        daemon, client = served
        assert daemon.admission.lock.acquire(timeout=5.0)
        try:
            status, response = client.request(
                "POST", "/v1/verify", {"name": "Linked List", "nowait": True}
            )
        finally:
            daemon.admission.lock.release()
        assert status == 429
        assert response["ok"] is False
        assert response["busy"] is True
        assert response["code"] == "busy"
        assert response["retry_after"] > 0

    def test_retry_after_header_is_integer_seconds(self, served):
        import http.client as hc

        daemon, client = served
        body = b'{"name":"Linked List","nowait":true}'
        headers = {
            "X-Jahob-Client": "pytest",
            "X-Jahob-Signature": sign_request(
                SECRET, "pytest", "POST", "/v1/verify", body
            ),
            "Content-Type": "application/json",
        }
        assert daemon.admission.lock.acquire(timeout=5.0)
        try:
            connection = hc.HTTPConnection(client.host, client.port, timeout=10.0)
            try:
                connection.request("POST", "/v1/verify", body=body, headers=headers)
                raw = connection.getresponse()
                assert raw.status == 429
                retry_after = raw.getheader("Retry-After")
                raw.read()
            finally:
                connection.close()
        finally:
            daemon.admission.lock.release()
        assert retry_after is not None
        assert int(retry_after) >= 1

    def test_lockfree_ops_answer_while_engine_is_held(self, served):
        daemon, client = served
        assert daemon.admission.lock.acquire(timeout=5.0)
        try:
            for path in ("/v1/ping", "/v1/stats", "/v1/metrics"):
                status, response = client.request("GET", path)
                assert status == 200, path
                assert response["ok"]
        finally:
            daemon.admission.lock.release()


class TestClientPlumbing:
    def test_transport_failure_raises_api_error(self):
        client = HttpApiClient("127.0.0.1:1", SECRET, timeout=0.5)
        with pytest.raises(HttpApiError):
            client.request("GET", "/v1/ping")

    def test_rejects_non_tcp_addresses(self, tmp_path):
        with pytest.raises(HttpApiError):
            HttpApiClient(str(tmp_path / "door.sock"), SECRET)

    def test_secret_never_crosses_the_wire(self):
        """A request carries the HMAC of the secret, never the secret."""
        secret = b"super-secret-value"
        captured = bytearray()
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            connection, _ = listener.accept()
            with connection:
                while not (b"\r\n\r\n" in captured and captured.endswith(b"}")):
                    chunk = connection.recv(65536)
                    if not chunk:
                        return
                    captured.extend(chunk)
                connection.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        try:
            address = "127.0.0.1:%d" % listener.getsockname()[1]
            client = HttpApiClient(address, secret, client_id="alice", timeout=5.0)
            assert client.request("POST", "/v1/verify", {"name": "x"}) == (200, {})
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert b"X-Jahob-Signature" in captured
        assert secret not in captured

    def test_refused_connection_says_cannot_connect(self):
        client = HttpApiClient("127.0.0.1:1", SECRET, timeout=0.5)
        with pytest.raises(HttpApiError, match="cannot connect"):
            client.request("GET", "/v1/ping")


class TestDoors:
    """The unix socket for local clients, the signed HTTP door for remote
    ones: how a daemon and its clients pick between the two."""

    def test_http_requires_secret(self, tmp_path):
        with pytest.raises(DaemonError, match="secret"):
            VerifierDaemon(
                tmp_path / "jahob.sock", engine=VerificationEngine(), http="127.0.0.1:0"
            )

    def test_host_port_address_refuses_a_second_http_door(self):
        with pytest.raises(DaemonError, match="HTTP door"):
            VerifierDaemon(
                "127.0.0.1:0",
                engine=VerificationEngine(),
                secret=SECRET,
                http="127.0.0.1:8780",
            )

    def test_busy_http_port_is_a_daemon_error(self, tmp_path):
        busy = socket.create_server(("127.0.0.1", 0))
        daemon = VerifierDaemon(
            tmp_path / "jahob.sock",
            engine=VerificationEngine(persist=False),
            secret=SECRET,
            http="127.0.0.1:%d" % busy.getsockname()[1],
        )
        try:
            with pytest.raises(DaemonError, match="cannot bind"):
                daemon.bind()
        finally:
            daemon.close()
            busy.close()
        assert not (tmp_path / "jahob.sock").exists()

    def test_socket_client_refuses_host_port(self):
        with pytest.raises(DaemonError, match="HTTP"):
            DaemonClient("127.0.0.1:8700")

    def test_table1_is_routed_through_admission(self, served):
        daemon, client = served
        assert daemon.admission.lock.acquire(timeout=5.0)
        try:
            status, response = client.request("POST", "/v1/table1", {"nowait": True})
        finally:
            daemon.admission.lock.release()
        assert status == 429
        assert response["code"] == "busy"


class TestCliOverHttp:
    """``--connect HOST:PORT`` drives the daemon through its HTTP door; the
    printed text and exit status equal a run over the unix socket."""

    @pytest.fixture()
    def door(self, served, monkeypatch):
        daemon, client = served
        monkeypatch.setenv("JAHOB_SECRET", SECRET.decode())
        return daemon, f"{client.host}:{client.port}"

    def test_verify_matches_the_unix_socket(self, door, capsys):
        daemon, address = door
        argv = ["--client", "alice", "verify", "Linked List"]
        over_socket = main(["--connect", str(daemon.socket_path), *argv])
        socket_out = capsys.readouterr().out
        over_http = main(["--connect", address, *argv])
        http_out = capsys.readouterr().out
        assert over_http == over_socket == 0
        normalize = re.compile(r"\d+\.\d+s").sub
        assert normalize("_s", http_out) == normalize("_s", socket_out)
        assert http_out.splitlines()[-1].startswith("total:")

    @pytest.mark.parametrize(
        "argv",
        [["shutdown"], ["verify", "prog.py", "--watch"]],
        ids=["shutdown", "watch"],
    )
    def test_socket_only_commands_name_the_socket(self, door, argv, capsys):
        _, address = door
        assert main(["--connect", address, *argv]) == 2
        assert "unix socket" in capsys.readouterr().err
        assert HttpApiClient(address, SECRET).request("GET", "/v1/ping")[0] == 200

    def test_no_secret_fails_before_connecting(self, door, monkeypatch, capsys):
        _, address = door
        monkeypatch.delenv("JAHOB_SECRET")

        def no_request(*args, **kwargs):
            raise AssertionError("the CLI connected without a secret")

        monkeypatch.setattr(HttpApiClient, "request", no_request)
        assert main(["--connect", address, "list"]) == 2
        assert "secret" in capsys.readouterr().err

    def test_refused_connection_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("JAHOB_SECRET", SECRET.decode())
        assert main(["--connect", "127.0.0.1:1", "list"]) == 2
        assert "cannot connect" in capsys.readouterr().err


class TestConcurrentTenants:
    """Eight clients of two tenants through a two-slot queue: every request
    is answered (``queue_full`` 429s are retried), no connection drops, and
    every verdict equals the tenant's sequential baseline."""

    STRUCTURES = ("Array List", "Linked List")
    TENANTS = ("tenant-0", "tenant-1")

    def test_every_request_answered_with_baseline_verdicts(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "jahob.sock",
            http="127.0.0.1:0",
            persist=False,
            timeout_scale=TIMEOUT_SCALE,
            secret=SECRET,
            queue_limit=2,
        )
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            address = _wait_address(daemon)
            HttpApiClient(address, SECRET).wait_ready()
            baseline = {}
            for tenant in self.TENANTS:
                api = HttpApiClient(address, SECRET, client_id=tenant)
                for name in self.STRUCTURES:
                    status, response = api.request("POST", "/v1/verify", {"name": name})
                    assert status == 200, response
                    baseline[tenant, name] = response["exit"]

            answers, dropped, retries = [], [], []

            def client(index: int) -> None:
                tenant = self.TENANTS[index % 2]
                api = HttpApiClient(address, SECRET, client_id=tenant)
                for step in range(3):
                    name = self.STRUCTURES[(index + step) % 2]
                    lane = ("interactive", "batch")[step % 2]
                    body = {"name": name, "priority": lane}
                    for _ in range(500):
                        try:
                            status, response = api.request("POST", "/v1/verify", body)
                        except HttpApiError as exc:
                            dropped.append(exc)
                            return
                        if status != 429:
                            break
                        assert response["code"] == "queue_full", response
                        retries.append(index)
                        time.sleep(0.02)
                    answers.append((tenant, name, status, response.get("exit")))

            # Hold the engine while the clients arrive: two of them queue,
            # the other six are turned away and must retry.
            assert daemon.admission.lock.acquire(timeout=5.0)
            try:
                clients = [
                    threading.Thread(target=client, args=(i,), daemon=True)
                    for i in range(8)
                ]
                for worker in clients:
                    worker.start()
                deadline = time.monotonic() + 10.0
                while not retries and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                daemon.admission.lock.release()
            for worker in clients:
                worker.join(timeout=60.0)
            assert not dropped
            assert len(answers) == 24
            for tenant, name, status, exit_code in answers:
                assert status == 200
                assert exit_code == baseline[tenant, name], (tenant, name)
            admission = daemon.admission.snapshot()
            assert admission["rejected"]["queue_full"] == len(retries) > 0
            assert admission["peak_depth"] == 2
        finally:
            daemon.stop()
            thread.join(timeout=10.0)
