"""Unit tests for the plan and execute phases of :mod:`repro.verifier.scheduler`.

The differential harness (``test_scheduler_differential.py``) checks that
results equal the reference loop; these pin down the bookkeeping: what a
plan holds before anything is proved, the checkpoint flushes during
execution, and the engine's flush gating afterwards.
"""

from __future__ import annotations

from repro.provers.dispatch import default_portfolio
from repro.verifier import scheduler
from repro.verifier.engine import VerificationEngine
from repro.verifier.scheduler import execute_suite, plan_suite

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    make_engine,
    structures,
)


def test_planning_proves_nothing_and_accounts_every_sequent():
    engine = make_engine(jobs=1, use_cache=True)
    classes = structures(FAST_CLASSES[:2])
    plan = plan_suite(engine, classes, jobs=1)
    # Planning does the cache accounting but runs no prover.
    assert engine.portfolio.statistics.per_prover == {}
    assert engine.portfolio.statistics.sequents_proved == 0
    assert [cls.name for cls, _ in plan.planned] == [cls.name for cls in classes]
    assert [entry.class_name for entry in plan.stats.classes] == [
        cls.name for cls in classes
    ]
    for entry, (_, slots) in zip(plan.stats.classes, plan.planned):
        assert entry.sequents == len(slots)
        assert (
            entry.dispatched
            + entry.hits_memory
            + entry.hits_disk
            + entry.duplicates_folded
            == entry.sequents
        )
    assert plan.stats.dispatched == len(plan.shard)
    assert plan.record


def test_empty_suite_plans_and_executes_to_nothing():
    engine = make_engine(jobs=2, use_cache=True)
    plan = plan_suite(engine, [], jobs=2)
    assert plan.planned == [] and plan.shard == []
    reports, stats = execute_suite(engine, plan, jobs=2)
    assert reports == []
    assert stats.jobs == 2
    assert stats.dispatched == stats.sequents_total == 0


def test_unrecorded_plan_leaves_the_dependency_index_alone():
    engine = make_engine(jobs=1, use_cache=True)
    plan = plan_suite(engine, structures(FAST_CLASSES[:1]), jobs=1, record=False)
    assert not plan.record
    execute_suite(engine, plan, jobs=1)
    assert len(engine.dependency_index) == 0
    assert engine.dependency_index.mutations == 0


def test_execution_checkpoints_every_interval(monkeypatch, tmp_path):
    engine = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE), jobs=1, cache_dir=tmp_path
    )
    monkeypatch.setattr(scheduler, "_CHECKPOINT_EVERY", 2)
    flushes = []
    flush = engine.flush_persistent_cache
    monkeypatch.setattr(
        engine, "flush_persistent_cache", lambda: flushes.append(flush())
    )
    plan = plan_suite(engine, structures(FAST_CLASSES[:1]), jobs=1)
    assert len(plan.shard) >= 2
    execute_suite(engine, plan, jobs=1)
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
