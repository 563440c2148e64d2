"""Benchmark E1: regenerate Table 1.

Table 1 of the paper reports, per data structure, the number of methods and
statements, the verification time, the specification variable / invariant
counts, and the number of uses of each integrated proof language construct.
One benchmark is emitted per data structure (its measured time is the
"Verification Time" column); the full formatted table is printed at the end
of the run.

Besides the pytest-benchmark entry points, this module is runnable as a
script in **smoke mode** -- ``python benchmarks/bench_table1.py --smoke
--json out.json`` -- which verifies the fast catalogue classes on a
suite-scheduled two-job engine and writes a small JSON record (per-class
timings, scheduling and cache counters).  The CI tier-1 job runs exactly
this and uploads the JSON as a build artifact, so the perf trajectory is
recorded per commit.
"""

from __future__ import annotations

import pytest

from conftest import TIMEOUT_SCALE, make_engine
from repro.logic.terms import term_stats
from repro.provers.dispatch import default_portfolio
from repro.suite import all_structures
from repro.provers.result import PortfolioStatistics
from repro.verifier.engine import VerificationEngine
from repro.verifier.parallel import RunRecord
from repro.verifier.report import (
    Table1Row,
    format_performance,
    format_table1,
    table1_rows,
)
from repro.verifier.stats import (
    PerformanceCounters,
    class_statistics,
    performance_counters,
)

_ROWS: list[Table1Row] = []
_PORTFOLIO_TOTALS = PortfolioStatistics()


def run_suite(
    jobs: int = 1,
    structures=None,
    cache_dir=None,
    persist: bool = True,
    use_proof_cache: bool = True,
    suite_schedule: bool = False,
):
    """Verify a list of structures on a fresh benchmark-scaled engine.

    Shared by the ``--jobs N`` comparison benchmark below and the tier-1
    smoke tests (``tests/test_bench_smoke.py``); returns ``(engine,
    reports, run)`` so callers can inspect statistics and scheduling.
    With ``suite_schedule`` the classes are verified as one job graph
    (:meth:`VerificationEngine.verify_suite`, longest class first) instead
    of class by class; ``run`` is the engine's ``last_run`` record, folded
    over the per-class calls in the latter case.
    """
    engine = VerificationEngine(
        default_portfolio(with_cache=use_proof_cache).scaled(TIMEOUT_SCALE),
        use_proof_cache=use_proof_cache,
        jobs=jobs,
        cache_dir=cache_dir,
        persist=persist,
    )
    structures = structures or all_structures()
    if suite_schedule:
        reports = engine.verify_suite(structures)
        return engine, reports, engine.last_run
    run = RunRecord(jobs=engine.jobs)
    reports = []
    for cls in structures:
        reports.append(engine.verify_class(cls))
        run.merge(engine.last_run)
    return engine, reports, run


@pytest.mark.parametrize(
    "structure", all_structures(), ids=lambda cls: cls.name.replace(" ", "")
)
def test_table1_row(structure, benchmark):
    """Verify one data structure and record its Table 1 row."""
    engine = make_engine()
    terms_before = term_stats()

    def verify():
        return engine.verify_class(structure)

    report = benchmark.pedantic(verify, rounds=1, iterations=1)
    _PORTFOLIO_TOTALS.merge(engine.portfolio.statistics)
    counters = performance_counters(engine.portfolio)
    benchmark.extra_info["proof_cache_hits"] = counters.proof_cache_hits
    benchmark.extra_info["proof_cache_misses"] = counters.proof_cache_misses
    benchmark.extra_info["terms_allocated"] = (
        counters.terms_allocated - terms_before.allocated
    )
    benchmark.extra_info["terms_interned"] = (
        counters.terms_interned - terms_before.interned_hits
    )
    stats = class_statistics(structure)
    _ROWS.append(
        Table1Row(
            class_name=structure.name,
            methods=stats.methods,
            statements=stats.statements,
            verification_time=report.elapsed,
            spec_vars=stats.spec_vars,
            local_spec_vars=stats.local_spec_vars,
            invariants=stats.invariants,
            loop_invariants=stats.loop_invariants,
            notes=stats.construct("note"),
            notes_with_from=stats.notes_with_from,
            construct_counts=dict(stats.construct_counts),
            verified=report.verified,
        )
    )
    # Structural sanity: every structure must produce proof obligations and
    # prove at least half of them even at benchmark-scaled timeouts.
    assert report.sequents_total > 0
    assert report.sequents_proved * 2 >= report.sequents_total


@pytest.mark.parametrize("jobs", [2])
def test_table1_parallel_jobs(jobs, benchmark):
    """Sequential vs ``--jobs N``: re-verify the full suite with sharded
    dispatch and assert the verdicts match the sequential rows.

    The per-structure benchmarks above are the sequential baseline; this
    benchmark's wall time is the parallel counterpart (same workload, same
    timeouts, fresh engine), so the trajectory records the speedup.
    """

    def verify_parallel():
        return run_suite(jobs=jobs)

    engine, reports, stats = benchmark.pedantic(verify_parallel, rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["dispatched"] = stats.dispatched
    benchmark.extra_info["cache_hits_memory"] = stats.hits_memory
    benchmark.extra_info["duplicates_folded"] = stats.duplicates_folded
    benchmark.extra_info["workers"] = len(stats.workers)
    by_name = {report.class_name: report for report in reports}
    for row in _ROWS:
        report = by_name[row.class_name]
        assert report.verified == row.verified, row.class_name
    if _ROWS:
        # The sequential benchmarks above proved exactly this many sequents.
        assert (
            sum(report.sequents_proved for report in reports)
            == _PORTFOLIO_TOTALS.sequents_proved
        )


@pytest.mark.parametrize("jobs", [2])
def test_table1_suite_scheduled(jobs, benchmark):
    """Whole-catalogue suite scheduling (longest class first): one job
    graph instead of eight per-class pool fills, verdicts identical to the
    sequential rows."""

    def verify_suite():
        return run_suite(jobs=jobs, suite_schedule=True)

    engine, reports, stats = benchmark.pedantic(verify_suite, rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["schedule_order"] = ", ".join(stats.schedule_order)
    benchmark.extra_info["dispatched"] = stats.dispatched
    benchmark.extra_info["duplicates_folded"] = stats.duplicates_folded
    assert stats.dispatched + stats.hits_memory + stats.hits_disk + (
        stats.duplicates_folded
    ) == stats.sequents_total
    by_name = {report.class_name: report for report in reports}
    for row in _ROWS:
        assert by_name[row.class_name].verified == row.verified, row.class_name


#: The quickly-verifying structures the smoke mode (and the tier-1 smoke
#: tests) exercise; their verdicts sit far from any prover timeout.
SMOKE_STRUCTURES = ("Array List", "Cursor List", "Linked List", "Circular List")


def run_smoke(jobs: int = 2, structure_names=SMOKE_STRUCTURES) -> dict:
    """One suite-scheduled smoke run, summarized as a JSON-ready dict.

    Small on purpose: a per-commit CI artifact that records the shape of
    the run (per-class timings, scheduling and cache counters) without
    the multi-minute full catalogue.
    """
    import time as _time

    chosen = [cls for cls in all_structures() if cls.name in structure_names]
    start = _time.monotonic()
    engine, reports, stats = run_suite(
        jobs=jobs, structures=chosen, suite_schedule=True
    )
    wall = _time.monotonic() - start
    counters = performance_counters(engine.portfolio)
    return {
        "mode": "smoke",
        "jobs": jobs,
        "timeout_scale": TIMEOUT_SCALE,
        "wall_seconds": round(wall, 3),
        "schedule_order": list(stats.schedule_order),
        # The adaptive plan (PR 5): per-class cost and which rung of the
        # cost model's fallback chain produced it.  A cold CI run records
        # "static" everywhere; warm-cache experiments show "measured".
        "schedule_plan": [
            {
                "name": cls.class_name,
                "cost_hint": round(cls.cost_hint, 6),
                "hint_source": cls.hint_source,
            }
            for cls in stats.classes
        ],
        "dispatch": {
            "backend": stats.backend,
            "sequents_total": stats.sequents_total,
            "dispatched": stats.dispatched,
            "hits_memory": stats.hits_memory,
            "hits_disk": stats.hits_disk,
            "duplicates_folded": stats.duplicates_folded,
        },
        "counters": counters.as_dict(),
        "classes": [
            {
                "name": report.class_name,
                "verified": report.verified,
                "methods": report.methods_total,
                "sequents_total": report.sequents_total,
                "sequents_proved": report.sequents_proved,
                "elapsed": round(report.elapsed, 3),
            }
            for report in reports
        ],
    }


def main(argv=None) -> int:
    """Script entry: ``--smoke`` (required) plus ``--json PATH``."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast-structure suite-scheduled smoke benchmark",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="worker processes (default 2)"
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
    if not all(cls["verified"] for cls in record["classes"]):
        return 1
    return 0


def test_table1_print():
    """Print the assembled Table 1 (runs after the per-structure rows)."""
    if not _ROWS:
        rows = table1_rows(all_structures(), engine=None)
    else:
        rows = _ROWS
    print("\n\nTable 1 -- construct counts and verification times\n")
    print(format_table1(rows))
    print()
    terms = performance_counters()
    print(
        format_performance(
            PerformanceCounters(
                terms_allocated=terms.terms_allocated,
                terms_interned=terms.terms_interned,
                proof_cache_hits=_PORTFOLIO_TOTALS.cache_hits,
                proof_cache_misses=_PORTFOLIO_TOTALS.cache_misses,
                proof_cache_hits_disk=_PORTFOLIO_TOTALS.cache_hits_disk,
                sequents_attempted=_PORTFOLIO_TOTALS.sequents_attempted,
                sequents_proved=_PORTFOLIO_TOTALS.sequents_proved,
            )
        )
    )
    assert len(rows) == len(all_structures())


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    import sys

    sys.exit(main())
