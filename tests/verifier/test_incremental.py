"""Edit re-verification: the plan/execute phases, the dependency index and
the watch-mode edit accounting.

Re-verifying an edited class is an ordinary ``verify_class`` on a warm
engine.  The acceptance-critical differential: after a one-method edit,
its verdicts are bit-identical to a cold run of the edited class, and the
dirty/clean accounting matches the fingerprint diff of the two plans
exactly -- nothing more re-proves than the edit invalidated, and nothing
less.
"""

from __future__ import annotations

import pytest

from repro.provers.cache import task_fingerprint
from repro.provers.dispatch import default_portfolio
from repro.suite import structure_by_name
from repro.suite.common import StructureBuilder
from repro.verifier.engine import VerificationEngine
from repro.verifier.incremental import edit_accounting
from repro.verifier.scheduler import execute_suite, plan_suite

TIMEOUT_SCALE = 0.4

BASE_ENSURES = "value = 0"
#: Still provable (reset ghost-assigns 0 into history), but a different
#: postcondition: the edit splits ``reset:Post`` and mints exactly one
#: fingerprint the base class never produced.
EDITED_ENSURES = "value = 0 & 0 in history"


def build_counter(
    reset_ensures: str = BASE_ENSURES, recorded: str = "value in history"
):
    s = StructureBuilder("Counter")
    s.concrete("value", "int")
    s.concrete("limit", "int")
    s.ghost("history", "int set")
    s.invariant("InRange", "0 <= value & value <= limit")
    s.invariant("Recorded", recorded)
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


def make_engine(**kwargs) -> VerificationEngine:
    portfolio = default_portfolio().scaled(TIMEOUT_SCALE)
    return VerificationEngine(portfolio, **kwargs)


def verdicts(report):
    """The bit-comparable view: (method, label, proved, refuted, prover)."""
    return [
        (
            method.method_name,
            outcome.sequent.label,
            outcome.proved,
            outcome.dispatch.refuted,
            outcome.prover,
        )
        for method in report.methods
        for outcome in method.outcomes
    ]


# -- plan / execute ---------------------------------------------------------------


def plan_fingerprints(plan) -> set:
    """The plan's sequent identities: each planned slot's task fingerprint."""
    return {task_fingerprint(slot.task) for _, slots in plan.planned for slot in slots}


def test_plan_and_execute_match_full_verify():
    engine = make_engine()
    plan = plan_suite(engine, [build_counter()])
    ((cls, slots),) = plan.planned
    assert {cls.methods[slot.method_index].name for slot in slots} == {
        "increment",
        "reset",
    }
    # Cold engine: every unique sequent is planned for dispatch.
    assert len(plan.shard) == plan.stats.dispatched > 0
    (report,), run = execute_suite(engine, plan, jobs=1)
    assert run.dispatched == len(plan.shard)
    baseline = make_engine().verify_class(build_counter())
    assert verdicts(report) == verdicts(baseline)
    # Replanning on the warm engine answers everything from the cache.
    warm = plan_suite(engine, [build_counter()])
    assert not warm.shard
    assert plan_fingerprints(warm) == plan_fingerprints(plan)


def test_strip_proofs_run_does_not_overwrite_dependency_record():
    engine = make_engine()
    engine.verify_class(build_counter())
    record = engine.dependency_index.get("Counter")
    assert record is not None
    engine.verify_class(build_counter(), strip_proofs=True)
    # The ablation run must not poison the real program's record.
    assert engine.dependency_index.get("Counter") == record
    # Nor may a plan that opts out of recording, whatever it contains.
    plan = plan_suite(engine, [build_counter(EDITED_ENSURES)], record=False)
    execute_suite(engine, plan, jobs=1)
    assert engine.dependency_index.get("Counter") == record


@pytest.mark.parametrize("jobs", [1, 2])
def test_strip_proofs_run_does_not_overwrite_cost_profile(jobs):
    """The stripped class keeps the real one's name; its sequents must not
    replace the real class's profile or dirty the cost model."""
    engine = make_engine(jobs=jobs)
    array_list = structure_by_name("Array List")
    engine.verify_class(array_list)
    profile = engine.cost_model.profiles_snapshot()["Array List"]
    mutations = engine.cost_model.mutations
    without = engine.verify_class(array_list, strip_proofs=True)
    assert without.sequents_total != profile["sequents"]
    assert engine.cost_model.profiles_snapshot()["Array List"] == profile
    assert engine.cost_model.mutations == mutations


# -- edit accounting -------------------------------------------------------------


def reverify(engine, cls):
    """One watch cycle: the record before, ``verify_class``, the diff."""
    previous = engine.dependency_index.get(cls.name)
    report = engine.verify_class(cls)
    current = engine.dependency_index.get(cls.name)
    return report, edit_accounting(previous, current, report)


def test_first_run_is_a_cold_start():
    report, stats = reverify(make_engine(), build_counter())
    assert stats["cold_start"]
    assert stats["sequents_clean"] == 0
    assert stats["sequents_dirty"] == stats["sequents_total"] == report.sequents_total
    baseline = make_engine().verify_class(build_counter())
    assert verdicts(report) == verdicts(baseline)


def test_unchanged_rerun_is_all_clean():
    engine = make_engine()
    full = engine.verify_class(build_counter())
    report, stats = reverify(engine, build_counter())
    assert not stats["cold_start"]
    assert stats["dispatched"] == 0
    assert stats["sequents_dirty"] == 0 and not stats["dirty_labels"]
    assert stats["methods_total"] == 2
    assert stats["sequents_clean"] == stats["sequents_total"]
    assert stats["sequents_total"] == full.sequents_total
    assert verdicts(report) == verdicts(full)


def test_one_method_edit_reproves_exactly_the_fingerprint_diff():
    engine = make_engine()
    engine.verify_class(build_counter())
    edited = build_counter(EDITED_ENSURES)
    report, stats = reverify(engine, edited)

    # Differential: bit-identical to a cold full run of the edited class.
    baseline = make_engine().verify_class(edited)
    assert verdicts(report) == verdicts(baseline)
    assert report.verified

    # The dirty set is exactly the plan-level fingerprint diff.
    base_fps = plan_fingerprints(plan_suite(make_engine(), [build_counter()]))
    dirty_fps = plan_fingerprints(plan_suite(make_engine(), [edited])) - base_fps
    assert stats["sequents_dirty"] == len(dirty_fps) == 1
    assert stats["dispatched"] == len(dirty_fps)
    assert stats["dirty_labels"] == ["reset:Post.2"]
    assert stats["sequents_clean"] == stats["sequents_total"] - 1


def test_invariant_edit_is_a_cold_start():
    engine = make_engine()
    engine.verify_class(build_counter())
    edited = build_counter(recorded="value in history & 0 <= value")
    _, stats = reverify(engine, edited)
    assert stats["cold_start"]
    assert stats["sequents_dirty"] == stats["sequents_total"] > 0


def test_engine_without_proof_cache_reports_everything_dirty():
    engine = make_engine(use_proof_cache=False)
    engine.verify_class(build_counter())
    report, stats = reverify(engine, build_counter())
    assert stats["cold_start"]
    assert stats["dispatched"] == stats["sequents_dirty"] == report.sequents_total
    assert len(stats["dirty_labels"]) == report.sequents_total


def test_dependency_index_persists_across_engines(tmp_path):
    with make_engine(cache_dir=tmp_path) as first:
        first.verify_class(build_counter())
    with make_engine(cache_dir=tmp_path) as second:
        report, stats = reverify(second, build_counter())
        assert not stats["cold_start"]
        assert stats["dispatched"] == 0
        assert stats["sequents_clean"] == stats["sequents_total"]
        assert report.verified
        # Every sequent was answered from the disk-loaded cache.
        counters = second.portfolio.statistics
        assert counters.cache_hits == stats["sequents_clean"]
        assert counters.cache_hits_disk == stats["sequents_clean"]
    with make_engine(cache_dir=tmp_path) as third:
        _, stats = reverify(third, build_counter(EDITED_ENSURES))
        assert not stats["cold_start"]
        assert stats["dispatched"] == 1
        assert stats["dirty_labels"] == ["reset:Post.2"]


def test_suite_run_seeds_the_dependency_index():
    engine = make_engine()
    engine.verify_suite([build_counter()], jobs=1)
    _, stats = reverify(engine, build_counter())
    assert not stats["cold_start"]
    assert stats["dispatched"] == 0
    assert stats["sequents_clean"] == stats["sequents_total"]
