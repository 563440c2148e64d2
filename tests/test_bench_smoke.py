"""Tier-1-safe smoke tests for the benchmark harness workloads.

Runs the exact workload functions of ``benchmarks/bench_kernel.py`` at tiny
sizes so that a refactor breaking the benchmark harness (or a pathological
slowdown turning the microbenchmarks into hangs) is caught by the fast test
suite, not only by the benchmark trajectory.  The ``bench_table1`` suite
runner is smoked the same way: a ``--jobs 2`` run over the
quickly-verifying structures under a tight wall-clock budget, plus the
persistent-cache acceptance check (a warm repeat run must be at least 5x
faster than the cold run).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.suite import all_structures

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import bench_kernel  # noqa: E402
import bench_table1  # noqa: E402

#: Structures that verify fully in well under a second each.
_FAST = ("Array List", "Cursor List", "Linked List", "Circular List")


def _fast_structures():
    return [cls for cls in all_structures() if cls.name in _FAST]


def test_interning_workload_smoke():
    assert bench_kernel.workload_interning(depth=8, repeats=2) > 0


def test_substitute_workload_smoke():
    result = bench_kernel.workload_substitute(depth=8)
    assert result.is_formula
    assert "z" not in {v for v in result._free_names}


def test_simplify_workload_smoke():
    assert bench_kernel.workload_simplify(depth=8).is_formula


def test_wlp_workload_smoke():
    # Depth 12 would be 2^12 naive wlp branches; the memoized pass must
    # return quickly because both choice arms share the same subcommand.
    assert bench_kernel.workload_wlp(depth=12).is_formula


def test_deep_formula_is_shared():
    first = bench_kernel.build_deep_formula(6)
    second = bench_kernel.build_deep_formula(6)
    assert first is second


def test_table1_jobs2_smoke():
    """``bench_table1`` with ``--jobs 2`` on the fast structures, under a
    tight budget, with verdicts identical to the sequential runner."""
    structures = _fast_structures()
    start = time.monotonic()
    seq_engine, seq_reports, _ = bench_table1.run_suite(jobs=1, structures=structures)
    par_engine, par_reports, stats = bench_table1.run_suite(
        jobs=2, structures=structures
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"smoke budget blown: {elapsed:.1f}s"
    for seq, par in zip(seq_reports, par_reports):
        assert [
            (o.sequent.label, o.proved, o.prover)
            for m in seq.methods
            for o in m.outcomes
        ] == [
            (o.sequent.label, o.proved, o.prover)
            for m in par.methods
            for o in m.outcomes
        ]
    assert stats.jobs == 2
    assert stats.dispatched + stats.hits_memory + stats.duplicates_folded == (
        stats.sequents_total
    )
    assert (
        seq_engine.portfolio.statistics.sequents_proved
        == par_engine.portfolio.statistics.sequents_proved
    )


def test_warm_persistent_cache_speedup(tmp_path):
    """Acceptance: a warm persistent cache makes a repeat run >= 5x faster.

    The margin is generous (the measured ratio is >20x: the warm run
    dispatches nothing and never even spawns the worker pool), so timing
    jitter on a loaded machine cannot flip the assertion.
    """
    structures = _fast_structures()
    start = time.monotonic()
    cold_engine, cold_reports, _ = bench_table1.run_suite(
        jobs=2, structures=structures, cache_dir=tmp_path
    )
    cold = time.monotonic() - start
    assert cold_engine.portfolio.statistics.cache_hits_disk == 0

    start = time.monotonic()
    warm_engine, warm_reports, warm_run = bench_table1.run_suite(
        jobs=2, structures=structures, cache_dir=tmp_path
    )
    warm = time.monotonic() - start
    stats = warm_engine.portfolio.statistics
    assert stats.cache_hits_disk > 0
    assert stats.per_prover == {}  # every sequent answered from disk
    assert warm_run.dispatched == 0
    for cold_report, warm_report in zip(cold_reports, warm_reports):
        assert [
            (o.sequent.label, o.proved, o.prover)
            for m in cold_report.methods
            for o in m.outcomes
        ] == [
            (o.sequent.label, o.proved, o.prover)
            for m in warm_report.methods
            for o in m.outcomes
        ]
    assert warm * 5 <= cold, f"cold={cold:.2f}s warm={warm:.2f}s"


def test_table1_suite_scheduled_smoke(tmp_path):
    """``bench_table1``'s suite-scheduled runner on the fast structures:
    same verdicts as the per-class runner, sane scheduling accounting."""
    structures = _fast_structures()
    _, per_class_reports, _ = bench_table1.run_suite(jobs=2, structures=structures)
    _, suite_reports, stats = bench_table1.run_suite(
        jobs=2, structures=structures, suite_schedule=True
    )
    for per_class_report, suite_report in zip(per_class_reports, suite_reports):
        assert [
            (o.sequent.label, o.proved, o.prover)
            for m in per_class_report.methods
            for o in m.outcomes
        ] == [
            (o.sequent.label, o.proved, o.prover)
            for m in suite_report.methods
            for o in m.outcomes
        ]
    assert stats.jobs == 2
    assert stats.schedule_order[0] == "Circular List"  # costliest fast class
    assert stats.dispatched + stats.hits_memory + stats.hits_disk + (
        stats.duplicates_folded
    ) == stats.sequents_total


def test_bench_table1_smoke_mode_json(tmp_path, capsys):
    """The CI artifact entry point: ``--smoke --json PATH`` writes a valid
    record, prints it, and exits 0 when everything verifies."""
    import json

    out = tmp_path / "bench-smoke.json"
    assert bench_table1.main(["--smoke", "--json", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["mode"] == "smoke" and record["jobs"] == 2
    assert record == json.loads(capsys.readouterr().out)
    names = {cls["name"] for cls in record["classes"]}
    assert names == set(bench_table1.SMOKE_STRUCTURES)
    assert all(cls["verified"] for cls in record["classes"])
    dispatch = record["dispatch"]
    assert (
        dispatch["dispatched"]
        + dispatch["hits_memory"]
        + dispatch["hits_disk"]
        + dispatch["duplicates_folded"]
        == dispatch["sequents_total"]
    )
    assert record["wall_seconds"] > 0
    assert record["counters"]["sequents_proved"] >= dispatch["sequents_total"]
    # The adaptive plan rides along: one entry per class, each naming the
    # cost-model rung that priced it (a cold CI run is all "static").
    plan = {entry["name"]: entry for entry in record["schedule_plan"]}
    assert set(plan) == set(bench_table1.SMOKE_STRUCTURES)
    assert all(
        entry["hint_source"] in ("measured", "profile", "static", "default")
        for entry in plan.values()
    )
