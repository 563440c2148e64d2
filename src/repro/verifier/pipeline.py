"""Plan and execute: the one pipeline every verification runs through.

The sequents of a class are independent proof obligations, so the paper's
Tables 1--2 workload is embarrassingly parallel once each sequent is cheap
to fingerprint.
:meth:`~repro.verifier.engine.VerificationEngine.verify_class` is a
one-class suite and
:meth:`~repro.verifier.engine.VerificationEngine.verify_suite` a
many-class one; both are :func:`plan_suite` followed by
:func:`execute_suite`:

1. **plan** (parent): every class's sequents and their tasks (prepared
   once per distinct method content,
   :meth:`~repro.verifier.engine.VerificationEngine.sequent_tasks`) are
   offered to the dispatcher's cache phase
   (:meth:`~repro.provers.dispatch.ProverPortfolio.consult_cache`) in
   catalogue/method/sequent order -- the order of the plain
   :meth:`~repro.verifier.engine.VerificationEngine.verify_method` loop the
   differential tests compare against.  In-memory and persistent-store
   hits are answered at once; a miss whose fingerprint is already pending
   this run is *folded* onto that representative (the reference loop's
   warm cache would have answered it); the unique misses of *all* classes
   form one shard;
2. **dispatch**: the shard runs in plan order -- in the parent for
   ``jobs <= 1``, otherwise on the engine's :class:`ProverPool`, whose
   workers rebuild the portfolio from a picklable
   :class:`~repro.provers.dispatch.PortfolioSpec` and run the pure prover
   phase with no cache of their own.  Each verdict is stored in the
   parent's cache as it arrives and checkpointed to the persistent store
   every :data:`_CHECKPOINT_EVERY` arrivals;
3. **merge**: one pass per class, in input order, replays the dispatched
   verdicts into the parent's statistics
   (:meth:`~repro.provers.dispatch.ProverPortfolio.record_outcome`),
   answers folded duplicates as memory hits, lets the engine record the
   class's dependency record (unless the plan is a strip-proofs ablation),
   and builds its :class:`~repro.verifier.engine.ClassReport` and
   :class:`RunRecord` row.

The parent owns the cache, so the persistent store has one writer, and a
fully warm run dispatches nothing and never forks a worker.  Dispatch
order plays no part in the results: they are merged by shard index, and
per-sequent timeouts are per-process CPU budgets
(:class:`~repro.provers.result.Budget`), so no order can flip a verdict.
The differential harnesses
(``tests/verifier/test_parallel_differential.py``,
``tests/verifier/test_scheduler_differential.py``) pin this down.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..provers.dispatch import DispatchResult, PortfolioSpec, ProverPortfolio
from ..provers.result import ProofTask
from ..vcgen.sequent import Sequent

__all__ = ["RunRecord", "ProverPool", "plan_suite", "execute_suite"]

#: Flush newly arrived verdicts to the persistent store every this many
#: results during a run (merge-saves are cheap but not free).
_CHECKPOINT_EVERY = 32


@dataclass
class WorkerLoad:
    """One worker's share of a run: the pool worker's OS pid (the
    parent's own for the in-parent ``jobs <= 1`` path), the sequents it
    ran and their prover wall time."""

    pid: int
    tasks: int = 0
    prover_time: float = 0.0


@dataclass
class ClassScheduleStats:
    """One class's row of a :class:`RunRecord`: every sequent is exactly
    one of ``dispatched`` to the provers, answered from the cache
    (``hits_memory`` / ``hits_disk``), or folded onto an identical pending
    sequent (``duplicates_folded``)."""

    class_name: str
    sequents: int = 0
    dispatched: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    duplicates_folded: int = 0


@dataclass
class RunRecord:
    """What one ``verify_class`` or ``verify_suite`` run did.

    ``classes`` holds one :class:`ClassScheduleStats` row per planned
    class, in plan order; the run totals are sums over the rows.
    """

    jobs: int
    wall_time: float = 0.0
    workers: list[WorkerLoad] = field(default_factory=list)
    classes: list[ClassScheduleStats] = field(default_factory=list)

    def _total(self, column: str) -> int:
        return sum(getattr(row, column) for row in self.classes)

    @property
    def sequents_total(self) -> int:
        return self._total("sequents")

    @property
    def dispatched(self) -> int:
        return self._total("dispatched")

    @property
    def hits_memory(self) -> int:
        return self._total("hits_memory")

    @property
    def hits_disk(self) -> int:
        return self._total("hits_disk")

    @property
    def duplicates_folded(self) -> int:
        return self._total("duplicates_folded")

    @property
    def prover_time(self) -> float:
        return sum(load.prover_time for load in self.workers)

    def fold_worker(self, pid: int, tasks: int, prover_time: float) -> None:
        """Accumulate one worker's load (matching by pid)."""
        for load in self.workers:
            if load.pid == pid:
                load.tasks += tasks
                load.prover_time += prover_time
                return
        self.workers.append(WorkerLoad(pid, tasks, prover_time))

    def merge(self, other: "RunRecord") -> None:
        """Fold a later run in (a command that verifies several times)."""
        self.wall_time += other.wall_time
        for load in other.workers:
            self.fold_worker(load.pid, load.tasks, load.prover_time)
        self.classes.extend(other.classes)


@dataclass
class _Slot:
    """One sequent's position in the deterministic merge order."""

    method_index: int
    sequent: Sequent
    task: ProofTask
    key: tuple | None = None
    result: DispatchResult | None = None
    shard_index: int | None = None
    duplicate_of: int | None = None  # index into the shard list


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

# Worker-side state: one portfolio per worker process, built from the spec
# at pool start-up.  Workers run the pure prover phase only -- no cache --
# because the parent has already deduplicated and answered every cacheable
# sequent.
_WORKER_PORTFOLIO: ProverPortfolio | None = None


def _init_worker(spec: PortfolioSpec) -> None:
    global _WORKER_PORTFOLIO
    _close_inherited_sockets()
    _WORKER_PORTFOLIO = spec.build(proof_cache=None)


def _close_inherited_sockets() -> None:
    """Close every socket fd the fork copied into this worker.

    A pool forked inside a daemon request (one that replaces a broken
    pool) would otherwise hold the listener and that request's connection
    for its lifetime.  The executor talks to its workers over pipes, which
    stay open.  A no-op in a process that was not started by
    :mod:`multiprocessing` (the parent's sockets are its own) and where
    ``/dev/fd`` does not exist.
    """
    if multiprocessing.parent_process() is None:
        return
    try:
        names = os.listdir("/dev/fd")
    except OSError:
        return
    for name in names:
        fd = int(name)
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the listing's own fd, closed by now


def _dispatch_in_worker(item: tuple[int, ProofTask]):
    return _dispatch(_WORKER_PORTFOLIO, item)


def _dispatch(portfolio: ProverPortfolio, item: tuple[int, ProofTask]):
    """Run the provers on one shard item; the ``(index, pid, wall, result)``
    tuple :func:`run_shard` consumes, in a pool worker or in the parent."""
    index, task = item
    start = time.monotonic()
    result = portfolio.run_provers(task)
    return index, os.getpid(), time.monotonic() - start, result


class ProverPool:
    """A process pool bound to one portfolio spec and worker count.

    The ``ProcessPoolExecutor`` is created lazily on the first :meth:`run`
    (or :meth:`warm_up`), so a fully warm verification never forks.  Each
    :class:`~repro.verifier.engine.VerificationEngine` with ``jobs > 1``
    owns at most one pool and keeps it until it is closed, so the pool is
    not sized to any one run's shard.
    """

    def __init__(self, spec: PortfolioSpec, jobs: int) -> None:
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None

    @property
    def started(self) -> bool:
        """Whether the worker processes are forked yet."""
        return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.spec,),
            )
        return self._executor

    def warm_up(self) -> None:
        """Fork every worker process now instead of on first dispatch.

        The daemon calls this (through
        :meth:`~repro.verifier.engine.VerificationEngine.warm_pool`) before
        it creates a listening socket, so no request waits for the fork.
        One short sleep per worker starts all of them, whether the executor
        forks its workers at once or one per outstanding task.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(time.sleep, 0.2) for _ in range(self.jobs)]
        for future in futures:
            future.result()

    def run(self, items: list[tuple[int, ProofTask]]):
        """Dispatch ``(index, task)`` pairs; yields ``(index, pid, wall, result)``.

        Items are *dispatched* in the order given, but yielded in
        completion order: a straggler at the front must not hold back
        verdicts that already finished (they are checkpointed to the
        persistent store as they arrive).  Callers index by the yielded
        shard position, so consumption order carries no meaning.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(_dispatch_in_worker, item) for item in items]
        for future in as_completed(futures):
            yield future.result()

    def close(self, cancel_futures: bool = False) -> None:
        """Shut the executor down; ``cancel_futures`` drops queued tasks
        (the error path -- a failing run must not wait out the queue)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel_futures)
            self._executor = None


# ---------------------------------------------------------------------------
# Plan, dispatch, merge
# ---------------------------------------------------------------------------


@dataclass
class SuitePlan:
    """The planned (but not yet executed) verification of some classes.

    ``planned`` pairs each class with its slots in method/sequent order;
    ``shard`` holds the unique misses of all of them, in plan order.
    """

    planned: list[tuple[ClassModel, list[_Slot]]] = field(default_factory=list)
    shard: list[_Slot] = field(default_factory=list)
    #: Whether execution records each class's dependency record.  False
    #: for strip-proofs ablations: the stripped class keeps the real one's
    #: name, and its sequents must not overwrite the real program's record.
    record: bool = True


def plan_suite(engine, classes: list[ClassModel], record: bool = True) -> SuitePlan:
    """Phase 1: plan every class against the cache, in input order.

    The shard and the pending-duplicate map span the whole suite, so a
    sequent repeated across classes is proved once and its later
    occurrences resolve as the memory cache hits the reference loop
    would see.  ``record`` becomes :attr:`SuitePlan.record`.
    """
    portfolio = engine.portfolio
    plan = SuitePlan(record=record)
    pending_by_key: dict[tuple, int] = {}
    for cls in classes:
        slots: list[_Slot] = []
        for method_index, method in enumerate(cls.methods):
            for sequent, task in engine.sequent_tasks(cls, method):
                slot = _Slot(method_index, sequent, task)
                slots.append(slot)
                key, hit = portfolio.consult_cache(slot.task)
                slot.key = key
                if hit is not None:
                    slot.result = hit
                elif key is not None and key in pending_by_key:
                    # A duplicate of a sequent already queued this run: the
                    # reference loop would find its verdict in the warm cache.
                    slot.duplicate_of = pending_by_key[key]
                    portfolio.statistics.cache_misses -= 1  # counted by consult_cache
                    portfolio.statistics.cache_hits += 1
                else:
                    slot.shard_index = len(plan.shard)
                    plan.shard.append(slot)
                    if key is not None:
                        pending_by_key[key] = slot.shard_index
        plan.planned.append((cls, slots))
    return plan


def run_shard(
    engine, shard: list[_Slot], run: RunRecord, on_result
) -> list[DispatchResult]:
    """Phase 2: run the provers on the unique misses, in shard order.

    The returned list is indexed by shard position, so the merge stays
    deterministic whatever order the verdicts arrive in.  With
    ``engine.jobs <= 1`` the provers run in-process on the parent's
    portfolio, as the reference loop would; otherwise the shard goes
    through the engine's :class:`ProverPool`, which a failure discards
    (a dead executor must not serve the next run).  ``run`` accumulates
    the per-worker loads and dispatch wall time, and ``on_result(slot,
    result)`` is called in the parent as each verdict arrives.
    """
    results: list[DispatchResult] = [None] * len(shard)  # type: ignore[list-item]
    start = time.monotonic()
    if shard:
        indexed = [(slot.shard_index, slot.task) for slot in shard]
        if engine.jobs > 1:
            answers = engine.acquire_pool().run(indexed)
        else:
            answers = (_dispatch(engine.portfolio, item) for item in indexed)
        try:
            for index, pid, wall, result in answers:
                result.wall = wall
                results[index] = result
                run.fold_worker(pid, 1, wall)
                on_result(shard[index], result)
        except BaseException:
            if engine.jobs > 1:
                engine.discard_pool()
            raise
        run.workers.sort(key=lambda load: load.pid)
    run.wall_time += time.monotonic() - start
    return results


def execute_suite(engine, plan: SuitePlan):
    """Phases 2--3: dispatch a plan's shard, then merge class by class.

    Returns ``(reports, RunRecord)`` with one
    :class:`~repro.verifier.engine.ClassReport` per class, in input order.
    """
    # Imported here: engine.py imports this module.
    from .engine import ClassReport, MethodReport, SequentOutcome

    portfolio = engine.portfolio
    run = RunRecord(jobs=engine.jobs)
    arrivals = 0

    def checkpoint(slot, result):
        # Storing early cannot change any decision: every cache consult
        # already happened in the plan.
        nonlocal arrivals
        portfolio.store_verdict(slot.key, result)
        arrivals += 1
        if arrivals % _CHECKPOINT_EVERY == 0:
            engine.flush_persistent_cache()

    results = run_shard(engine, plan.shard, run, checkpoint)

    # Phase 3: one pass per class.  Shard order is class order, so the
    # replayed statistics follow the reference loop's order exactly.
    reports = []
    for cls, slots in plan.planned:
        report = ClassReport(cls.name)
        report.methods = [MethodReport(cls.name, method.name) for method in cls.methods]
        row = ClassScheduleStats(cls.name, sequents=len(slots))
        for slot in slots:
            if slot.shard_index is not None:
                slot.result = results[slot.shard_index]
                portfolio.record_outcome(slot.result)
                row.dispatched += 1
            elif slot.duplicate_of is not None:
                rep = results[slot.duplicate_of]
                if rep.proved:
                    portfolio.statistics.sequents_proved += 1
                slot.result = DispatchResult(
                    task=slot.task,
                    proved=rep.proved,
                    refuted=rep.refuted,
                    winning_prover=rep.winning_prover,
                    cached=True,
                    cache_origin="memory",
                )
                row.duplicates_folded += 1
            elif slot.result.cache_origin == "disk":
                row.hits_disk += 1
            else:
                row.hits_memory += 1
            report.methods[slot.method_index].outcomes.append(
                SequentOutcome(slot.sequent, slot.result)
            )
        if plan.record:
            engine.record_class_run(cls, slots)
        run.classes.append(row)
        reports.append(report)
    return reports, run
