"""Tier-1-safe smoke tests for the benchmark harness workloads.

Runs the exact workload functions of ``benchmarks/bench_kernel.py`` at tiny
sizes so that a refactor breaking the benchmark harness (or a pathological
slowdown turning the microbenchmarks into hangs) is caught by the fast test
suite, not only by the benchmark trajectory.  The ``bench_table1`` suite
runner is smoked the same way: a ``--jobs 2`` run over the
quickly-verifying structures under a tight wall-clock budget, plus the
persistent-cache acceptance check (a warm repeat run dispatches nothing
and stays within a multiple of a front-end-only pass).  The store-save
workload is smoked by counts: edit-sized saves encode a small share of
the file; so is the lazy-SAT workload: it blocks exactly as many models
as brute force counts; and so are the smt attempts: a warm repeat answers
as the cold run and builds no instance or canonical atom again.
"""

from __future__ import annotations

import gc
import itertools
import re
import sys
import time
from pathlib import Path

from repro.provers import cache as cache_module
from repro.provers import quant, smt
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine

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


def test_vcgen_workload_smoke():
    # A block emits its 8 bounds once per path through it: 8 * (2^3 - 1).
    assert bench_kernel.workload_vcgen(depth=2) == 56


def test_lazy_sat_workload_smoke():
    for seed in (1, 2, 3):
        clauses = bench_kernel.build_random_3sat(12, seed)
        models = sum(
            all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses)
            for bits in itertools.product([False, True], repeat=12)
        )
        assert bench_kernel.workload_lazy_sat(12, seed) == models


def test_smt_attempt_workload_smoke():
    memos = (quant._instance, smt._canonical_atom)
    tasks = bench_kernel.smt_tasks("Linked List")
    cold = bench_kernel.workload_smt_attempts(tasks)
    built = [memo.cache_info() for memo in memos]
    # The cold hook emptied the memos, and the class's sequents share
    # instances: most lookups already hit within the cold run.
    assert all(0 < info.misses == info.currsize < info.hits for info in built)
    warm = bench_kernel.workload_smt_attempts(tasks, cold=False)
    assert warm == cold
    assert sum(outcome == "proved" for outcome, _ in cold) == 29
    misses = [memo.cache_info().misses for memo in memos]
    assert misses == [info.misses for info in built]


def test_smt_theory_workload_smoke():
    """The theory-heavy tasks exist and keep their outcomes: four proved,
    one theory-consistent model, theory conflicts in every attempt."""
    results = bench_kernel.workload_smt_attempts(bench_kernel.theory_tasks())
    assert [outcome for outcome, _ in results] == ["proved"] * 4 + ["unknown"]
    for _, reason in results:
        assert int(re.search(r"(\d+) theory conflicts", reason).group(1)) > 0


def test_store_saves_workload_smoke(tmp_path, monkeypatch):
    """Each one-record edit save encodes under 5 % of the file, the first
    save after the load included: the load kept every record's text."""
    state = bench_kernel.prepare_store_saves(tmp_path, classes=20)
    encoded = []
    per_save = []
    real_dumps = cache_module.json.dumps

    def counting_dumps(value, *args, **kwargs):
        text = real_dumps(value, *args, **kwargs)
        encoded.append(len(text))
        return text

    def on_save(store):
        per_save.append((sum(encoded), store.path.stat().st_size))
        encoded.clear()

    monkeypatch.setattr(cache_module.json, "dumps", counting_dumps)
    assert bench_kernel.workload_store_saves(state, saves=8, on_save=on_save) == 8
    assert len(per_save) == 8
    for chars, size in per_save:
        assert chars < size * 0.05


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


def _front_end_seconds(structures) -> float:
    """Wall time of a front-end-only pass over ``structures``: every sequent
    and proof task generated, nothing dispatched, no cache."""
    gc.collect()
    start = time.monotonic()
    engine = VerificationEngine(use_proof_cache=False)
    for cls in structures:
        for method in cls.methods:
            for sequent in engine.method_sequents(cls, method):
                engine.task_for(sequent)
    return time.monotonic() - start


def test_warm_persistent_cache_speedup(tmp_path):
    """Acceptance: a warm persistent cache answers a repeat run from disk
    in time proportional to the front end, not to the provers.

    The warm run dispatches nothing and never spawns the worker pool, but
    it still loads the store, generates every sequent and task, and looks
    each one up.  So its time (best of three) is held to a multiple of a
    front-end-only pass over the same classes (best of five), which does
    not move with prover speed.  On a 2-vCPU VM the ratio reads 2.1-4.5x
    (the store decode is most of the difference); a warm path that
    re-decodes the store for every class reads 8-10x, one that runs the
    provers again on its cache hits about 19x.
    """
    structures = _fast_structures()
    cold_engine, cold_reports, _ = bench_table1.run_suite(
        jobs=2, structures=structures, cache_dir=tmp_path
    )
    assert cold_engine.portfolio.statistics.cache_hits_disk == 0

    warm_times = []
    for _ in range(3):
        gc.collect()
        start = time.monotonic()
        warm_engine, warm_reports, warm_run = bench_table1.run_suite(
            jobs=2, structures=structures, cache_dir=tmp_path
        )
        warm_times.append(time.monotonic() - start)
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
    warm = min(warm_times)
    front_end = min(_front_end_seconds(structures) for _ in range(5))
    assert warm <= 7 * front_end, f"warm={warm:.3f}s front end={front_end:.3f}s"


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
    # Dispatch follows the plan, which is the input order.
    assert [cls.class_name for cls in stats.classes] == [
        structure.name for structure in structures
    ]
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
    # The per-class plan rides along, one entry per class.
    plan = record["schedule_plan"]
    assert {entry["name"] for entry in plan} == set(bench_table1.SMOKE_STRUCTURES)
    assert sum(entry["sequents"] for entry in plan) == dispatch["sequents_total"]
    assert sum(entry["dispatched"] for entry in plan) == dispatch["dispatched"]
    assert "schedule_order" not in record
