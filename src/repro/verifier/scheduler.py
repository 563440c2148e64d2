"""Plan and execute: the one pipeline every verification runs through.

:meth:`~repro.verifier.engine.VerificationEngine.verify_class` is a
one-class suite and
:meth:`~repro.verifier.engine.VerificationEngine.verify_suite` a
many-class one; both are :func:`plan_suite` followed by
:func:`execute_suite`:

1. every class is decomposed into sequent shards up front, in
   catalogue/method/sequent order -- cache consults and fingerprint
   dedup are resolved parent-side in that deterministic order
   (:func:`~repro.verifier.parallel.plan_class` with a suite-wide shard
   and pending map), so verdicts, prover attribution and cache counters
   stay bit-identical to the plain
   :meth:`~repro.verifier.engine.VerificationEngine.verify_method` loop;
2. the surviving unique misses of *all* classes are dispatched -- in the
   parent for ``jobs <= 1``, otherwise across the worker pool -- in plan
   order;
3. the merge replays verdicts in deterministic shard order, lets the
   engine record each class's dependency record (unless the plan is a
   strip-proofs ablation), and assembles one
   :class:`~repro.verifier.engine.ClassReport` and one run record row
   (:class:`ClassScheduleStats`) per class, in the input order.

Dispatch order plays no part in the results: they are merged by shard
index, and per-sequent timeouts are per-process CPU budgets
(:class:`~repro.provers.result.Budget`), so no order can flip a
verdict.  The differential harnesses
(``tests/verifier/test_parallel_differential.py``,
``tests/verifier/test_scheduler_differential.py``) pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from .parallel import (
    RunRecord,
    _Slot,
    build_class_report,
    plan_class,
    resolve_duplicates,
    resolve_shard,
    run_shard,
)

__all__ = [
    "ClassScheduleStats",
    "SuitePlan",
    "plan_suite",
    "execute_suite",
]

#: Flush newly arrived verdicts to the persistent store every this many
#: results during a suite run (merge-saves are cheap but not free).
_CHECKPOINT_EVERY = 32


@dataclass
class ClassScheduleStats:
    """One class's row of a :class:`~repro.verifier.parallel.RunRecord`."""

    class_name: str
    sequents: int = 0
    dispatched: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    duplicates_folded: int = 0

    @classmethod
    def from_slots(cls, class_name: str, slots: list[_Slot]) -> "ClassScheduleStats":
        """Count what happened to each of a class's slots: dispatched
        (it has a shard index), folded onto a pending duplicate, or else
        answered from the memory or disk cache."""
        row = cls(class_name, sequents=len(slots))
        for slot in slots:
            if slot.shard_index is not None:
                row.dispatched += 1
            elif slot.duplicate_of is not None:
                row.duplicates_folded += 1
            elif slot.result.cache_origin == "disk":
                row.hits_disk += 1
            else:
                row.hits_memory += 1
        return row


@dataclass
class SuitePlan:
    """The planned (but not yet executed) verification of some classes.

    Produced by :func:`plan_suite`: every class's sequents are generated
    and cache-consulted in deterministic catalogue order, with the shard
    and fingerprint-dedup map spanning the whole suite.  Feed it to
    :func:`execute_suite` to dispatch the shard and assemble the reports.
    """

    planned: list[tuple[ClassModel, list[_Slot]]] = field(default_factory=list)
    shard: list[_Slot] = field(default_factory=list)
    #: Whether execution records each class's dependency record.  False
    #: for strip-proofs ablations: the stripped class keeps the real one's
    #: name, and its sequents must not overwrite the real program's record.
    record: bool = True


def plan_suite(engine, classes: list[ClassModel], record: bool = True) -> SuitePlan:
    """Phase 1: plan every class against the (shared) cache, in catalogue
    order -- this is the deterministic cache-authority order.

    The shard and the pending-duplicate map span the whole suite, so a
    sequent repeated across classes is proved once and its later
    occurrences resolve as the memory cache hits the reference loop
    would see.  ``record`` becomes :attr:`SuitePlan.record`.
    """
    shard: list[_Slot] = []
    pending_by_key: dict[tuple, int] = {}
    planned = [
        (cls, plan_class(engine, cls, shard, pending_by_key)) for cls in classes
    ]
    return SuitePlan(planned=planned, shard=shard, record=record)


def execute_suite(engine, plan: SuitePlan):
    """Phases 2--3: dispatch a plan's shard and assemble the reports.

    Returns ``(reports, RunRecord)`` with one
    :class:`~repro.verifier.engine.ClassReport` per class, in input order.
    """
    portfolio = engine.portfolio
    shard = plan.shard
    run = RunRecord(jobs=engine.jobs)

    # Phase 2: dispatch the whole suite's misses in plan order, and
    # checkpoint verdicts to the persistent store as they arrive so an
    # interrupted multi-minute run keeps what it already proved.  Storing
    # early cannot change any decision: every cache consult already
    # happened in phase 1.
    arrivals = 0

    def checkpoint(slot, result):
        nonlocal arrivals
        portfolio.store_verdict(slot.key, result)
        arrivals += 1
        if arrivals % _CHECKPOINT_EVERY == 0:
            engine.flush_persistent_cache()

    results = run_shard(engine, shard, run, checkpoint)

    # Phase 3: deterministic merge -- replay verdicts in shard order, then
    # resolve each class's folded duplicates and build its report and run
    # record row in the original input order.  The checkpoint callback
    # already stored every dispatched verdict, so the replay only does
    # the accounting.
    resolve_shard(portfolio, shard, results)
    reports = []
    for cls, slots in plan.planned:
        resolve_duplicates(portfolio, slots, results)
        if plan.record:
            engine.record_class_run(cls, slots)
        run.classes.append(ClassScheduleStats.from_slots(cls.name, slots))
        reports.append(build_class_report(cls, slots))
    return reports, run
