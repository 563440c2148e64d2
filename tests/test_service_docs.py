"""Drift check: ``docs/service-api.md`` must match the served surface.

The service handbook promises its route table is asserted against the
code; this is that assertion.  Three directions:

* the markdown route table is exactly ``repro.verifier.http.ROUTES``
  (method, path, op and admission column, in order);
* the *admission* column agrees with the daemon's engine-op set, so the
  doc cannot claim an op is lock-free when it actually queues (or vice
  versa);
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
    r"\|\s*(yes|no)\s*\|",  # admission
    re.MULTILINE,
)


def documented_routes() -> list[tuple[str, str, str, bool]]:
    text = DOC.read_text(encoding="utf-8")
    rows = _ROUTE_ROW.findall(text)
    assert rows, "service-api.md lost its route table"
    return [
        (method, path, op, admission == "yes")
        for method, path, op, admission in rows
    ]


def test_route_table_matches_registered_routes():
    served = [(r.method, r.path, r.op, r.admission) for r in ROUTES]
    assert documented_routes() == served, (
        "docs/service-api.md route table is out of sync with "
        "repro.verifier.http.ROUTES -- update them together"
    )


def test_admission_column_matches_engine_ops():
    for route in ROUTES:
        assert route.admission == (route.op in _ENGINE_OPS), (
            f"route {route.path}: admission={route.admission} but the "
            f"daemon {'gates' if route.op in _ENGINE_OPS else 'does not gate'} "
            f"op {route.op!r}"
        )


def test_socket_only_ops_stay_unrouted_and_documented():
    routed_ops = {route.op for route in ROUTES}
    socket_only = _ENGINE_OPS - routed_ops
    assert socket_only == {"shutdown"}
    text = DOC.read_text(encoding="utf-8")
    for op in socket_only:
        assert f"`{op}`" in text, f"socket-only op {op!r} is undocumented"


def test_watch_stream_is_socket_only_and_documented():
    """``watch`` streams over one held connection; it must stay off the
    op table (and so off the HTTP front door) and the doc must say so."""
    assert "watch" not in _ENGINE_OPS
    assert "watch" not in {route.op for route in ROUTES}
    text = DOC.read_text(encoding="utf-8")
    assert "`watch`" in text and "socket-only" in text


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
