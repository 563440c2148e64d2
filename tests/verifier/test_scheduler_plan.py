"""Unit tests for the plan and execute phases of :mod:`repro.verifier.pipeline`.

The differential harness (``test_scheduler_differential.py``) checks that
results equal the reference loop; these pin down the bookkeeping: what a
plan holds before anything is proved, the checkpoint flushes during
execution, and the engine's flush gating afterwards.
"""

from __future__ import annotations

from repro.provers.dispatch import default_portfolio
from repro.verifier import pipeline
from repro.verifier.engine import VerificationEngine
from repro.verifier.pipeline import execute_suite, plan_suite

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    make_engine,
    structures,
)


def test_planning_proves_nothing_and_accounts_every_sequent():
    engine = make_engine(jobs=1, use_cache=True)
    classes = structures(FAST_CLASSES[:2])
    plan = plan_suite(engine, classes)
    # Planning does the cache accounting but runs no prover.
    assert engine.portfolio.statistics.per_prover == {}
    assert engine.portfolio.statistics.sequents_proved == 0
    assert [cls.name for cls, _ in plan.planned] == [cls.name for cls in classes]
    assert plan.record
    # Every slot is exactly one of: in the shard, folded onto a pending
    # duplicate, or already answered by the cache.
    planned_columns = []
    for _, slots in plan.planned:
        dispatched = sum(slot.shard_index is not None for slot in slots)
        folded = sum(slot.duplicate_of is not None for slot in slots)
        answered = sum(slot.result is not None for slot in slots)
        assert dispatched + folded + answered == len(slots)
        planned_columns.append((len(slots), dispatched, folded, answered))
    assert sum(column[1] for column in planned_columns) == len(plan.shard)
    # Execution builds the run record's rows from the same slots, after
    # the merge; dispatching them does not move a sequent between columns.
    _, run = execute_suite(engine, plan)
    assert [
        (
            row.sequents,
            row.dispatched,
            row.duplicates_folded,
            row.hits_memory + row.hits_disk,
        )
        for row in run.classes
    ] == planned_columns
    assert run.dispatched == len(plan.shard)
    assert run.sequents_total == sum(len(slots) for _, slots in plan.planned)


def test_rows_classify_hits_and_folded_duplicates(tmp_path):
    classes = structures(FAST_CLASSES[:1])
    cold = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, cache_dir=tmp_path
    )
    cold.verify_suite(classes + classes)
    first, repeat = cold.last_run.classes
    assert first.dispatched > 0 and first.hits_disk == 0
    # The repeated class resolves entirely in memory.
    assert repeat.dispatched == repeat.hits_disk == 0
    assert repeat.hits_memory + repeat.duplicates_folded == repeat.sequents
    cold.close()
    with VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, cache_dir=tmp_path
    ) as warm:
        warm.verify_suite(classes)
        (row,) = warm.last_run.classes
    assert row.hits_disk == row.sequents == first.sequents
    assert warm.last_run.hits_disk == row.sequents
    assert warm.last_run.dispatched == warm.last_run.hits_memory == 0


def test_empty_suite_plans_and_executes_to_nothing():
    engine = make_engine(jobs=2, use_cache=True)
    plan = plan_suite(engine, [])
    assert plan.planned == [] and plan.shard == []
    reports, stats = execute_suite(engine, plan)
    assert reports == []
    assert stats.jobs == 2
    assert stats.dispatched == stats.sequents_total == 0


def test_unrecorded_plan_leaves_the_dependency_index_alone():
    engine = make_engine(jobs=1, use_cache=True)
    plan = plan_suite(engine, structures(FAST_CLASSES[:1]), record=False)
    assert not plan.record
    execute_suite(engine, plan)
    assert len(engine.dependency_index) == 0
    assert engine.dependency_index.mutations == 0


def test_execution_checkpoints_every_interval(monkeypatch, tmp_path):
    engine = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, cache_dir=tmp_path
    )
    monkeypatch.setattr(pipeline, "_CHECKPOINT_EVERY", 2)
    flushes = []
    flush = engine.flush_persistent_cache
    monkeypatch.setattr(
        engine, "flush_persistent_cache", lambda: flushes.append(flush())
    )
    plan = plan_suite(engine, structures(FAST_CLASSES[:1]))
    assert len(plan.shard) >= 2
    execute_suite(engine, plan)
    assert len(flushes) == len(plan.shard) // 2
    # Each checkpoint wrote the verdicts that had arrived so far.
    assert all(saved > 0 for saved in flushes)


def test_flush_is_gated_on_verdict_and_record_changes(tmp_path):
    engine = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, cache_dir=tmp_path
    )
    assert engine.flush_persistent_cache() == 0  # nothing learned yet
    engine.verify_suite(structures(FAST_CLASSES[:1]))
    # The run's own final flush wrote everything; a second has nothing new.
    assert engine.flush_persistent_cache() == 0
    engine.close()


def test_flush_without_a_store_is_a_no_op():
    engine = make_engine(jobs=1, use_cache=True)
    engine.verify_suite(structures(FAST_CLASSES[:1]))
    assert engine.persistent_store is None
    assert engine.flush_persistent_cache() == 0
