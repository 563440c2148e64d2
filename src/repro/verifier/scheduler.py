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
   parent for ``jobs <= 1``, otherwise across the worker pool -- in
   **longest-class-first** order.  Class cost comes from the engine's
   :class:`~repro.verifier.costmodel.CostModel` -- measured per-sequent
   profiles where the warm persistent store (or this process) has
   timings, persisted per-class profiles next, then the static
   :data:`repro.suite.catalog.CLASS_COST_HINTS` table, and only then
   :data:`~repro.suite.catalog.DEFAULT_COST_HINT`; each class's
   :class:`ClassScheduleStats` records which source won.  Within a class,
   sequents with measured timings dispatch longest-first ahead of
   unmeasured ones (which keep their planned order);
3. the merge replays verdicts in deterministic shard order, lets the
   engine record each class's timings, cost profile and dependency record
   (unless the plan is a strip-proofs ablation), and assembles one
   :class:`~repro.verifier.engine.ClassReport` per class, in the input
   order.

Dispatch *order* is a pure scheduling choice: results are merged by shard
index, and per-sequent timeouts are per-process CPU budgets
(:class:`~repro.provers.result.Budget`), so reordering cannot flip a
verdict.  The differential harnesses
(``tests/verifier/test_parallel_differential.py``,
``tests/verifier/test_scheduler_differential.py``) pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..suite.catalog import cost_hint
from .costmodel import HINT_STATIC
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
    "plan_dispatch_order",
    "plan_suite",
    "execute_suite",
]

#: Flush newly arrived verdicts to the persistent store every this many
#: results during a suite run (merge-saves are cheap but not free).
_CHECKPOINT_EVERY = 32


@dataclass
class ClassScheduleStats:
    """One class's share of a suite-scheduled run.

    ``hint_source`` names which rung of the cost model's fallback chain
    produced ``cost_hint`` (``measured`` / ``profile`` / ``static`` /
    ``default`` -- see :mod:`repro.verifier.costmodel`), so a warm run's
    plan visibly derives from measured profiles.
    """

    class_name: str
    cost_hint: float
    sequents: int = 0
    dispatched: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    duplicates_folded: int = 0
    hint_source: str = HINT_STATIC


def plan_dispatch_order(
    classes: list[ClassModel], costs: list[float] | None = None
) -> list[int]:
    """Class indices in dispatch order: descending cost, ties by input
    (catalogue) order.  Pure and deterministic.

    ``costs`` are the per-class costs to sort by (the suite scheduler
    passes the cost model's measured-first numbers); without them the
    static catalogue hints are used.
    """
    if costs is None:
        costs = [cost_hint(cls.name) for cls in classes]
    return sorted(
        range(len(classes)),
        key=lambda index: (-costs[index], index),
    )


@dataclass
class SuitePlan:
    """The planned (but not yet executed) verification of some classes.

    Produced by :func:`plan_suite`: every class's sequents are generated
    and cache-consulted in deterministic catalogue order, with the shard
    and fingerprint-dedup map spanning the whole suite.  Feed it to
    :func:`execute_suite` to dispatch the shard and assemble the reports.
    """

    classes: list[ClassModel] = field(default_factory=list)
    planned: list[tuple[ClassModel, list[_Slot]]] = field(default_factory=list)
    shard: list[_Slot] = field(default_factory=list)
    shard_ranges: list[tuple[int, int]] = field(default_factory=list)
    stats: RunRecord = None
    #: Whether execution records each class's timings, cost profile and
    #: dependency record.  False for strip-proofs ablations: the stripped
    #: class keeps the real one's name, and its sequents must not
    #: overwrite the real program's profile or record.
    record: bool = True


def plan_suite(
    engine, classes: list[ClassModel], jobs: int = 1, record: bool = True
) -> SuitePlan:
    """Phase 1: plan every class against the (shared) cache, in catalogue
    order -- this is the deterministic cache-authority order.

    The shard and the pending-duplicate map span the whole suite, so a
    sequent repeated across classes is proved once and its later
    occurrences resolve as the memory cache hits the reference loop
    would see.  ``record`` becomes :attr:`SuitePlan.record`.
    """
    cost_model = engine.cost_model
    stats = RunRecord(jobs=jobs)
    shard: list[_Slot] = []
    pending_by_key: dict[tuple, int] = {}
    planned: list[tuple[ClassModel, list[_Slot]]] = []
    shard_ranges: list[tuple[int, int]] = []
    for cls in classes:
        shard_start = len(shard)
        before = (stats.hits_memory, stats.hits_disk, stats.duplicates_folded)
        slots = plan_class(engine, cls, shard, pending_by_key, stats)
        planned.append((cls, slots))
        shard_ranges.append((shard_start, len(shard)))
        cost, source = cost_model.class_cost(cls.name, [slot.key for slot in slots])
        stats.classes.append(
            ClassScheduleStats(
                class_name=cls.name,
                cost_hint=cost,
                sequents=len(slots),
                dispatched=len(shard) - shard_start,
                hits_memory=stats.hits_memory - before[0],
                hits_disk=stats.hits_disk - before[1],
                duplicates_folded=stats.duplicates_folded - before[2],
                hint_source=source,
            )
        )
    stats.dispatched = len(shard)
    return SuitePlan(
        classes=classes,
        planned=planned,
        shard=shard,
        shard_ranges=shard_ranges,
        stats=stats,
        record=record,
    )


def execute_suite(engine, plan: SuitePlan, jobs: int):
    """Phases 2--3: dispatch a plan's shard and assemble the reports.

    Returns ``(reports, RunRecord)`` with one
    :class:`~repro.verifier.engine.ClassReport` per class, in input order.
    """
    portfolio = engine.portfolio
    cost_model = engine.cost_model
    classes = plan.classes
    planned = plan.planned
    shard = plan.shard
    shard_ranges = plan.shard_ranges
    stats = plan.stats
    stats.jobs = jobs

    # Phase 2: interleave the whole suite's misses across the pool,
    # longest class first by measured-first cost.  What gates the run is
    # each class's *remaining* work, not its historical total -- a warm
    # class with one straggler must not lead a cold class's real load --
    # so the ordering cost is the class cost scaled by its dispatched
    # fraction.  Within a class, sequents with measured timings go
    # longest-first ahead of the unmeasured rest (which keep sequential
    # order); reordering dispatch is invisible in the results -- the
    # merge indexes by shard position.
    class_order = plan_dispatch_order(
        classes,
        costs=[
            entry.cost_hint * entry.dispatched / entry.sequents
            if entry.sequents
            else 0.0
            for entry in stats.classes
        ],
    )
    stats.schedule_order = [classes[index].name for index in class_order]

    def slot_rank(position: int):
        measured = cost_model.sequent_cost(shard[position].key)
        if measured is None:
            return (1, 0.0, position)
        return (0, -measured, position)

    order: list[int] = []
    for index in class_order:
        start, end = shard_ranges[index]
        order.extend(sorted(range(start, end), key=slot_rank))

    # Checkpoint verdicts to the persistent store as they arrive so an
    # interrupted multi-minute run keeps what it already proved.  Storing
    # early cannot change any decision: every cache consult already
    # happened in phase 1, and the merge re-stores idempotently.
    arrivals = 0

    def checkpoint(slot, result):
        nonlocal arrivals
        portfolio.store_verdict(slot.key, result)
        arrivals += 1
        if arrivals % _CHECKPOINT_EVERY == 0:
            engine.flush_persistent_cache()

    results = run_shard(engine, shard, jobs, stats, order=order, on_result=checkpoint)

    # Phase 3: deterministic merge -- replay verdicts in shard order, then
    # resolve each class's folded duplicates and build its report in the
    # original input order.  The checkpoint callback already stored every
    # dispatched verdict, so the replay only does the accounting.
    resolve_shard(portfolio, shard, results, store=False)
    reports = []
    for cls, slots in planned:
        resolve_duplicates(portfolio, slots, results)
        if plan.record:
            engine.record_class_run(cls, slots)
        reports.append(build_class_report(cls, slots))
    return reports, stats
