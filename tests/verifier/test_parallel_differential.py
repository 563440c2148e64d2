"""Differential harness: every ``verify_class`` run must equal the reference.

The reference is :meth:`VerificationEngine.verify_method` -- a plain
``portfolio.dispatch`` loop over each method's sequents, with no planning,
sharding or bookkeeping -- run on a fresh ``jobs=1`` engine.  Every
assertion here compares it against a fresh engine running the plan/execute
pipeline on the same classes: per-sequent verdicts, refutations, prover
attribution, cache provenance flags, report aggregates and the portfolio
counters must all be identical.  The fast variants (a subset of
quickly-verifying catalog classes) run in tier 1; the full-catalog sweep
over ``jobs in {1, 2, 4}`` is marked ``slow`` and deselected by default
(run it with ``pytest -m slow``).
"""

from __future__ import annotations

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite import all_structures
from repro.verifier.engine import ClassReport, VerificationEngine
from repro.verifier.strip import strip_proofs_from_class

#: Benchmark-style timeout scaling keeps a full differential round tractable.
TIMEOUT_SCALE = 0.4

#: Classes that verify fully in well under a second each -- their verdicts
#: are far from any prover timeout, so the differential comparison is
#: deterministic.
FAST_CLASSES = ("Array List", "Cursor List", "Linked List", "Circular List")


def structures(names=None):
    chosen = all_structures()
    if names is not None:
        chosen = [cls for cls in chosen if cls.name in names]
    return chosen


def make_engine(jobs: int, use_cache: bool) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio(with_cache=use_cache).scaled(TIMEOUT_SCALE),
        use_proof_cache=use_cache,
        jobs=jobs,
    )


def reference_run(classes, use_cache: bool, strip_proofs: bool = False):
    """``(engine, reports)`` of the ``verify_method`` reference: a fresh
    ``jobs=1`` engine that dispatches every method of every class, in
    order, through ``portfolio.dispatch``."""
    engine = make_engine(jobs=1, use_cache=use_cache)
    reports = []
    for cls in classes:
        target = strip_proofs_from_class(cls) if strip_proofs else cls
        reports.append(
            ClassReport(
                target.name,
                [engine.verify_method(target, method) for method in target.methods],
            )
        )
    return engine, reports


def sequent_trace(report: ClassReport) -> list[tuple]:
    """Everything observable about each sequent, in deterministic order."""
    return [
        (
            method.class_name,
            method.method_name,
            outcome.sequent.label,
            outcome.proved,
            outcome.dispatch.refuted,
            outcome.prover,
            outcome.dispatch.cached,
            outcome.dispatch.cache_origin,
        )
        for method in report.methods
        for outcome in method.outcomes
    ]


def aggregate_trace(report: ClassReport) -> tuple:
    return (
        report.class_name,
        report.methods_total,
        report.methods_verified,
        report.sequents_total,
        report.sequents_proved,
        report.verified,
        tuple(sorted(report.provers_used.items())),
    )


def statistics_trace(engine: VerificationEngine) -> tuple:
    stats = engine.portfolio.statistics
    return (
        stats.sequents_attempted,
        stats.sequents_proved,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hits_disk,
        tuple(
            sorted(
                (name, per.attempts, per.proved)
                for name, per in stats.per_prover.items()
            )
        ),
    )


def assert_differential(
    classes, jobs: int, use_cache: bool, strip_proofs: bool = False
) -> None:
    reference, ref_reports = reference_run(classes, use_cache, strip_proofs)
    engine = make_engine(jobs=jobs, use_cache=use_cache)
    for cls, ref_report in zip(classes, ref_reports):
        report = engine.verify_class(cls, strip_proofs=strip_proofs)
        assert sequent_trace(ref_report) == sequent_trace(report)
        assert aggregate_trace(ref_report) == aggregate_trace(report)
    assert statistics_trace(reference) == statistics_trace(engine)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_fast_classes_differential_cache_on(jobs):
    assert_differential(structures(FAST_CLASSES), jobs=jobs, use_cache=True)


def test_fast_classes_differential_cache_off():
    # Without a cache the scheduler must not deduplicate either: every
    # sequent ships to a worker, exactly as the reference loop re-proves
    # every duplicate.
    assert_differential(structures(FAST_CLASSES[:2]), jobs=2, use_cache=False)


def test_parallel_run_stats_accounting():
    engine = make_engine(jobs=2, use_cache=True)
    (cls,) = structures(("Linked List",))
    report = engine.verify_class(cls)
    stats = engine.last_run
    assert stats is not None
    assert stats.jobs == 2
    assert stats.sequents_total == report.sequents_total
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    assert sum(load.tasks for load in stats.workers) == stats.dispatched
    # A second run over the same class is answered fully from the warm
    # in-memory cache -- no worker pool is even started.
    engine.verify_class(cls)
    rerun = engine.last_run
    assert rerun.dispatched == 0
    assert rerun.hits_memory == rerun.sequents_total
    assert rerun.workers == []


def test_jobs_one_run_sets_the_run_record():
    engine = make_engine(jobs=1, use_cache=True)
    (cls,) = structures(("Array List",))
    report = engine.verify_class(cls)
    stats = engine.last_run
    assert stats is not None
    assert stats.jobs == 1
    assert stats.sequents_total == report.sequents_total > 0
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    assert [entry.class_name for entry in stats.classes] == ["Array List"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_elapsed_is_prover_cpu_of_dispatched_sequents(jobs):
    """``elapsed`` means the same at every ``jobs``: summed prover CPU of
    the sequents this run dispatched, 0 for cache hits."""
    engine = make_engine(jobs=jobs, use_cache=True)
    (cls,) = structures(("Array List",))
    report = engine.verify_class(cls)
    assert report.elapsed > 0
    assert report.elapsed == pytest.approx(
        sum(
            outcome.dispatch.elapsed
            for method in report.methods
            for outcome in method.outcomes
        )
    )
    for method in report.methods:
        for outcome in method.outcomes:
            if outcome.dispatch.cached:
                assert outcome.dispatch.elapsed == 0
    assert engine.verify_class(cls).elapsed == 0  # all warm cache hits


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_full_catalog_differential_cache_on(jobs):
    """Acceptance sweep: identical verdicts for every catalog class."""
    assert_differential(structures(), jobs=jobs, use_cache=True)


@pytest.mark.slow
def test_full_catalog_differential_cache_off():
    assert_differential(structures(), jobs=2, use_cache=False)


@pytest.mark.slow
def test_full_catalog_differential_strip_proofs():
    """The Table 2 ablation (stripped proofs) is differential too."""
    assert_differential(structures(), jobs=3, use_cache=True, strip_proofs=True)
