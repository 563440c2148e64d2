"""Differential harness: suite scheduling must equal the reference loop.

The pipeline (:mod:`repro.verifier.pipeline`) plans the whole
catalogue as one job graph and dispatches it in plan order.  None of that
may be observable in the results: for every ``jobs`` value and either
input order, a ``verify_suite`` run must produce per-sequent verdicts,
prover attribution, cache provenance and portfolio counters bit-identical
to the ``verify_method`` reference (a fresh engine dispatching every
method of the same classes, in the same order, through
``portfolio.dispatch``).  Dispatch order therefore cannot flip a verdict.

Fast classes run in tier 1; the full catalogue at ``jobs in {1, 2, 4}`` is
marked ``slow`` (run it with ``pytest -m slow``).
"""

from __future__ import annotations

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine
from repro.verifier.pipeline import execute_suite, plan_suite

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    aggregate_trace,
    make_engine,
    reference_run,
    sequent_trace,
    statistics_trace,
    structures,
)


def assert_suite_differential(classes, jobs: int, use_cache: bool = True) -> None:
    reference, ref_reports = reference_run(classes, use_cache)
    suite = make_engine(jobs=jobs, use_cache=use_cache)
    suite_reports = suite.verify_suite(classes)
    for ref_report, suite_report in zip(ref_reports, suite_reports):
        assert sequent_trace(ref_report) == sequent_trace(suite_report)
        assert aggregate_trace(ref_report) == aggregate_trace(suite_report)
    assert statistics_trace(reference) == statistics_trace(suite)
    stats = suite.last_run
    assert stats is not None
    assert stats.jobs == jobs
    # Every sequent is accounted for exactly once.
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    assert sum(cls.sequents for cls in stats.classes) == stats.sequents_total
    assert sum(cls.dispatched for cls in stats.classes) == stats.dispatched


@pytest.mark.parametrize(
    ("jobs", "reverse"),
    [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(4, False, id="4"),
        pytest.param(1, True, id="1-reversed"),
        pytest.param(2, True, id="2-reversed"),
    ],
)
def test_fast_classes_suite_differential(jobs, reverse):
    classes = structures(FAST_CLASSES)
    if reverse:
        classes.reverse()
    assert_suite_differential(classes, jobs=jobs)


def test_fast_classes_suite_differential_cache_off():
    # Without a cache nothing may be deduplicated either -- the reference
    # loop re-proves every duplicate, so the suite must ship them all.
    classes = structures(FAST_CLASSES[:2])
    _, ref_reports = reference_run(classes, use_cache=False)
    suite = make_engine(jobs=2, use_cache=False)
    suite_reports = suite.verify_suite(classes)
    for ref_report, suite_report in zip(ref_reports, suite_reports):
        assert sequent_trace(ref_report) == sequent_trace(suite_report)
    stats = suite.last_run
    assert stats.duplicates_folded == 0
    assert stats.dispatched == stats.sequents_total


def test_suite_equals_per_class_parallel():
    """Suite scheduling and per-class sharding agree with each other too."""
    classes = structures(FAST_CLASSES)
    per_class = make_engine(jobs=2, use_cache=True)
    per_class_reports = [per_class.verify_class(cls) for cls in classes]
    suite = make_engine(jobs=2, use_cache=True)
    suite_reports = suite.verify_suite(classes)
    for a, b in zip(per_class_reports, suite_reports):
        assert sequent_trace(a) == sequent_trace(b)
    assert statistics_trace(per_class) == statistics_trace(suite)


def test_shard_dispatches_in_plan_order(monkeypatch):
    """At ``jobs=1`` the provers see the shard's tasks exactly in plan
    (catalogue/method/sequent) order."""
    engine = make_engine(jobs=1, use_cache=True)
    plan = plan_suite(engine, structures(FAST_CLASSES))
    assert plan.shard
    assert [slot.shard_index for slot in plan.shard] == list(range(len(plan.shard)))
    planned = [slot for _, slots in plan.planned for slot in slots]
    assert [slot for slot in planned if slot.shard_index is not None] == plan.shard
    dispatched = []
    run_provers = engine.portfolio.run_provers

    def recording(task):
        dispatched.append(task)
        return run_provers(task)

    monkeypatch.setattr(engine.portfolio, "run_provers", recording)
    execute_suite(engine, plan)
    assert len(dispatched) == len(plan.shard)
    assert all(task is slot.task for task, slot in zip(dispatched, plan.shard))


def test_suite_report_order_is_input_order():
    classes = structures(FAST_CLASSES)[::-1]  # not catalogue order
    engine = make_engine(jobs=2, use_cache=True)
    reports = engine.verify_suite(classes)
    assert [report.class_name for report in reports] == [cls.name for cls in classes]
    assert [entry.class_name for entry in engine.last_run.classes] == [
        cls.name for cls in classes
    ]


def test_suite_warm_second_run_dispatches_nothing():
    classes = structures(FAST_CLASSES[:2])
    engine = make_engine(jobs=2, use_cache=True)
    engine.verify_suite(classes)
    first = engine.last_run
    assert first.dispatched > 0
    reports = engine.verify_suite(classes)
    second = engine.last_run
    assert second.dispatched == 0
    assert second.hits_memory == second.sequents_total
    for report in reports:
        for method in report.methods:
            for outcome in method.outcomes:
                assert outcome.dispatch.cached
                assert outcome.dispatch.cache_origin == "memory"


def test_suite_cross_class_dedup_folds_repeats():
    """A sequent repeated across classes is proved exactly once.

    Scheduling the same class twice makes every sequent of the second
    copy a cross-class duplicate: it must fold onto the pending
    representative from the first copy (never dispatch), and the verdicts
    and counters must still match the reference loop, which proves the
    first copy and answers the second from its warm cache.
    """
    cls = structures(FAST_CLASSES[:1])[0]
    assert_suite_differential([cls, cls], jobs=2)
    engine = make_engine(jobs=2, use_cache=True)
    engine.verify_suite([cls, cls])
    stats = engine.last_run
    first_copy, second_copy = stats.classes
    assert second_copy.dispatched == 0
    assert second_copy.duplicates_folded == second_copy.sequents > 0
    assert stats.duplicates_folded >= second_copy.sequents
    assert stats.dispatched <= first_copy.sequents


def test_suite_second_engine_serves_from_disk(tmp_path):
    """Verifying the same class list twice through a persistent store:
    the second engine answers everything from disk."""
    classes = structures(FAST_CLASSES[:2])
    first = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        jobs=2,
        cache_dir=tmp_path,
    )
    first.verify_suite(classes)
    second = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        jobs=2,
        cache_dir=tmp_path,
    )
    second.verify_suite(classes)
    stats = second.last_run
    assert stats.dispatched == 0
    assert stats.hits_disk == stats.sequents_total


def test_warm_store_differential_parity(tmp_path):
    """Verdicts and attribution from a warm store equal a fresh sequential
    engine's (provenance aside: warm answers are disk hits)."""
    classes = structures(FAST_CLASSES[:3])

    def engine_with_store():
        return VerificationEngine(
            default_portfolio().scaled(TIMEOUT_SCALE), jobs=2, cache_dir=tmp_path
        )

    first = engine_with_store()
    first.verify_suite(classes)
    first.close()

    sequential = make_engine(jobs=1, use_cache=True)
    seq_reports = [sequential.verify_class(cls) for cls in classes]

    warm = engine_with_store()
    warm_reports = warm.verify_suite(classes)
    for seq_report, warm_report in zip(seq_reports, warm_reports):
        seq = sequent_trace(seq_report)
        wrm = sequent_trace(warm_report)
        # label/proved/refuted/prover must be identical; cached/origin
        # legitimately differ (the warm engine answers from disk).
        assert [entry[:6] for entry in seq] == [entry[:6] for entry in wrm]
        assert all(entry[6] for entry in wrm)  # everything cached
        assert {entry[7] for entry in wrm} == {"disk"}
    warm.close()


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_full_catalogue_suite_differential(jobs):
    assert_suite_differential(all_structures(), jobs=jobs)
