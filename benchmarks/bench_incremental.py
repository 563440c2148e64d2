"""Benchmark E4: single-edit re-verification latency.

The watch-mode promise is that editing one method re-proves only the
sequents the edit invalidated.  Re-verification is an ordinary
``verify_class`` on a warm engine, and the speedup comes from its proof
cache: every sequent the edit left alone is answered by fingerprint, so
only the changed ones reach the provers.  This benchmark measures that
workload: verify a class, apply a one-method edit (a new postcondition
conjunct), and compare a full verification of the edited class on a
**cold** engine against ``verify_class`` of it on the **warm** engine.

Runnable as a script in **smoke mode** -- ``python
benchmarks/bench_incremental.py --smoke --json out.json`` -- which writes
a small JSON record (cold vs warm wall time, the clean/dirty/dispatched
accounting watch mode reports, and the speedup).  The CI tier-1 job runs
exactly this and uploads the JSON next to the bench-smoke artifact, so
the single-edit latency trajectory is recorded per commit.  The smoke
gate requires the speedup to stay >= 10x.
"""

from __future__ import annotations

import time

import pytest

from conftest import TIMEOUT_SCALE
from repro.provers.dispatch import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier.engine import VerificationEngine
from repro.verifier.incremental import edit_accounting

#: The smoke gate: a one-method edit must re-verify at least this much
#: faster than a cold full run of the same class.
MIN_SPEEDUP = 10.0

BASE_ENSURES = "value = 0"
EDITED_ENSURES = "value = 0 & 0 in history"


def build_counter(reset_ensures: str = BASE_ENSURES):
    """The quickstart counter, with ``reset``'s postcondition swappable
    (both variants are provable; they differ in exactly one sequent
    fingerprint)."""
    s = StructureBuilder("Counter")
    s.concrete("value", "int")
    s.concrete("limit", "int")
    s.ghost("history", "int set")
    s.invariant("InRange", "0 <= value & value <= limit")
    s.invariant("Recorded", "value in history")
    m = s.method(
        "increment",
        requires="value < limit",
        modifies="value, history",
        ensures="value = old value + 1 & old value in history",
    )
    m.assign("value", "value + 1")
    m.ghost_assign("history", "history Un {value}")
    m.done()
    m = s.method(
        "reset",
        requires="0 <= limit",
        modifies="value, history",
        ensures=reset_ensures,
    )
    m.assign("value", "0")
    m.ghost_assign("history", "history Un {0}")
    m.done()
    return s.build()


def fresh_engine(jobs: int = 1) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=jobs
    )


def warm_reverify(engine: VerificationEngine, cls):
    """Watch mode's cycle: ``verify_class`` plus its edit accounting."""
    previous = engine.dependency_index.get(cls.name)
    report = engine.verify_class(cls)
    stats = edit_accounting(previous, engine.dependency_index.get(cls.name), report)
    return report, stats


def run_edit_cycle(jobs: int = 1):
    """One measured edit cycle.

    Returns ``(cold_wall, warm_wall, stats, cold_report, warm_report)``:
    the cold wall is a full verify of the edited class on a fresh engine,
    the warm wall the same verify on an engine whose proof cache is warm
    from the base variant; ``stats`` is its edit accounting.
    """
    warm = fresh_engine(jobs)
    warm.verify_class(build_counter())
    edited = build_counter(EDITED_ENSURES)

    start = time.monotonic()
    cold_report = fresh_engine(jobs).verify_class(edited)
    cold_wall = time.monotonic() - start

    start = time.monotonic()
    warm_report, stats = warm_reverify(warm, edited)
    warm_wall = time.monotonic() - start
    return cold_wall, warm_wall, stats, cold_report, warm_report


def test_warm_edit_cycle(benchmark):
    """Benchmark the warm half of the edit cycle and assert the verdict
    differential the tier-1 tests pin down."""
    engine = fresh_engine()
    engine.verify_class(build_counter())
    edited = build_counter(EDITED_ENSURES)

    def reverify():
        return warm_reverify(engine, edited)

    report, stats = benchmark.pedantic(reverify, rounds=1, iterations=1)
    benchmark.extra_info["dispatched"] = stats["dispatched"]
    benchmark.extra_info["sequents_clean"] = stats["sequents_clean"]
    benchmark.extra_info["sequents_dirty"] = stats["sequents_dirty"]
    assert report.verified
    assert stats["dispatched"] == stats["sequents_dirty"] == 1


@pytest.mark.parametrize("jobs", [1])
def test_edit_speedup(jobs, benchmark):
    """Cold full re-run vs warm re-run, as one benchmark row."""

    def cycle():
        return run_edit_cycle(jobs=jobs)

    cold, warm, stats, cold_report, warm_report = benchmark.pedantic(
        cycle, rounds=1, iterations=1
    )
    benchmark.extra_info["cold_wall"] = round(cold, 4)
    benchmark.extra_info["warm_wall"] = round(warm, 4)
    assert cold_report.verified and warm_report.verified
    assert stats["dispatched"] < cold_report.sequents_total


def run_smoke(jobs: int = 1) -> dict:
    """One edit cycle, summarized as a JSON-ready dict (the CI artifact)."""
    cold, warm, stats, cold_report, warm_report = run_edit_cycle(jobs)
    speedup = cold / warm if warm > 0 else float("inf")
    return {
        "mode": "smoke",
        "jobs": jobs,
        "timeout_scale": TIMEOUT_SCALE,
        "workload": {
            "class": "Counter",
            "edit": f"reset ensures: {BASE_ENSURES!r} -> {EDITED_ENSURES!r}",
        },
        "cold": {
            "wall_seconds": round(cold, 4),
            "sequents_total": cold_report.sequents_total,
            "sequents_proved": cold_report.sequents_proved,
            "verified": cold_report.verified,
        },
        "warm": {
            "wall_seconds": round(warm, 4),
            "sequents_total": stats["sequents_total"],
            "sequents_clean": stats["sequents_clean"],
            "sequents_dirty": stats["sequents_dirty"],
            "dispatched": stats["dispatched"],
            "dirty_labels": stats["dirty_labels"],
            "verified": warm_report.verified,
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }


def main(argv=None) -> int:
    """Script entry: ``--smoke`` (required) plus ``--json PATH``.

    Exit status gates the CI step: non-zero when a verdict regressed, the
    edit re-proved more than its one invalidated sequent, or the
    single-edit re-verify latency fell below the 10x speedup floor.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the single-edit re-verification smoke benchmark",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="write the record here"
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke mode is scriptable; use pytest for the rest")
    record = run_smoke(jobs=args.jobs)
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)
    if not (record["cold"]["verified"] and record["warm"]["verified"]):
        return 1
    if record["warm"]["dispatched"] != 1:
        return 1
    if record["speedup"] < MIN_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    import sys

    sys.exit(main())
