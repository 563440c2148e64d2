"""Drift check: ``docs/service-api.md`` must match the served surface.

The service handbook promises its route table is asserted against the
code; this is that assertion.  Three directions:

* the markdown route table is exactly ``repro.verifier.http.ROUTES``
  (method, path, op, admission and local-only columns, in order);
* the *admission* column agrees with ``ROUTES``, from which the daemon
  derives its engine-op set, so the doc cannot claim an op is lock-free
  when it actually queues (or vice versa);
* every rejection code the admission layer can emit is documented, and
  the doc documents no others.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.verifier.admission import PRIORITY_LANES, REJECTION_CODES
from repro.verifier.daemon import _ENGINE_OPS
from repro.verifier.http import ROUTES

DOC = Path(__file__).resolve().parent.parent / "docs" / "service-api.md"

_ROUTE_ROW = re.compile(
    r"^\|\s*(GET|POST|PUT|DELETE)\s*"  # method
    r"\|\s*`([^`]+)`\s*"  # path
    r"\|\s*`([^`]+)`\s*"  # op
    r"\|\s*(yes|no)\s*"  # admission
    r"\|\s*(yes|no)\s*\|",  # local-only
    re.MULTILINE,
)


def documented_routes() -> list[tuple[str, str, str, bool, bool]]:
    text = DOC.read_text(encoding="utf-8")
    rows = _ROUTE_ROW.findall(text)
    assert rows, "service-api.md lost its route table"
    return [
        (method, path, op, admission == "yes", local == "yes")
        for method, path, op, admission, local in rows
    ]


def test_route_table_matches_registered_routes():
    served = [(r.method, r.path, r.op, r.admission, r.local_only) for r in ROUTES]
    assert documented_routes() == served, (
        "docs/service-api.md route table is out of sync with "
        "repro.verifier.http.ROUTES -- update them together"
    )


def test_admission_column_matches_engine_ops():
    # The daemon's engine-op set is derived from ROUTES, so the doc's
    # column is compared with ROUTES alone.
    documented = {op: admission for _, _, op, admission, _ in documented_routes()}
    assert documented == {route.op: route.admission for route in ROUTES}


def test_socket_only_ops_are_local_only_routes_and_documented():
    local_only = {route.op for route in ROUTES if route.local_only}
    assert local_only == {"shutdown", "watch"}
    text = DOC.read_text(encoding="utf-8")
    for op in local_only:
        assert f"`{op}`" in text, f"local-only op {op!r} is undocumented"


def test_watch_stream_is_socket_only_and_documented():
    """``watch`` streams NDJSON over one held connection: a local-only
    route whose cycles each take admission, so the route itself is not
    gated, and the doc must say so."""
    (route,) = [route for route in ROUTES if route.op == "watch"]
    assert route.local_only and not route.admission
    assert "watch" not in _ENGINE_OPS
    text = DOC.read_text(encoding="utf-8")
    assert "application/x-ndjson" in text and "local-only" in text


def test_rejection_codes_are_exactly_documented():
    text = DOC.read_text(encoding="utf-8")
    # The codes table: | `busy` | ... |
    documented = set(re.findall(r"^\|\s*`(\w+)`\s*\|", text, re.MULTILINE))
    assert documented == set(REJECTION_CODES), (
        f"service-api.md documents rejection codes {sorted(documented)}, "
        f"the admission layer emits {sorted(REJECTION_CODES)}"
    )


def test_priority_lanes_are_documented():
    text = DOC.read_text(encoding="utf-8")
    for lane in PRIORITY_LANES:
        assert f'"{lane}"' in text, f"priority lane {lane!r} is undocumented"


def test_auth_headers_and_statuses_are_documented():
    text = DOC.read_text(encoding="utf-8")
    for header in ("X-Jahob-Client", "X-Jahob-Signature", "Retry-After"):
        assert header in text
    for status in ("200", "400", "401", "404", "405", "429"):
        assert f"| {status} " in text, f"status {status} missing from the table"
