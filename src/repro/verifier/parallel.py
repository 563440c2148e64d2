"""Parallel sharded prover dispatch.

The sequents of a class are independent proof obligations, so the paper's
Tables 1--2 workload is embarrassingly parallel once each sequent is cheap
to fingerprint.  This module holds the phases every verification runs
through: plan the sequents against the cache, run the provers on the
*cache-missing* ones (in the parent for ``jobs <= 1``, otherwise on a
worker pool), and deterministically merge the verdicts into
:class:`~repro.verifier.engine.MethodReport` /
:class:`~repro.verifier.engine.ClassReport` shapes.

Design: parent-side cache authority
-----------------------------------

All caching decisions happen in the parent process, in the exact sequent
order of a plain dispatch loop
(:meth:`~repro.verifier.engine.VerificationEngine.verify_method`, the
reference the differential tests compare against):

1. sequent generation runs in the parent (it is cheap and memoized);
2. for every task, the parent runs the dispatcher's cache phase
   (:meth:`~repro.provers.dispatch.ProverPortfolio.consult_cache`) --
   in-memory hits and persistent-store hits are answered immediately;
3. misses are *deduplicated by fingerprint*: the first occurrence becomes
   the shard representative, later occurrences are resolved as memory
   cache hits once the representative's verdict arrives -- exactly what
   the reference loop's warm cache would have done;
4. only unique misses are shipped to workers.  Each worker rebuilds the
   prover portfolio from a picklable :class:`~repro.provers.dispatch.PortfolioSpec`
   (prover objects never cross process boundaries) and runs the pure
   prover phase with no cache of its own;
5. the parent replays each verdict into its own statistics and cache
   (:meth:`record_outcome` / :meth:`store_verdict`), so counters, verdicts,
   prover attribution and cache contents are bit-identical to the
   reference loop over the same sequents.

Because the parent owns the cache, there is exactly one writer for the
persistent store and workers stay read-free; a fully warm run dispatches
nothing and never even spawns the pool.

The phases are exposed as free functions (:func:`plan_class`,
:func:`run_shard`, :func:`resolve_shard`, :func:`resolve_duplicates`,
:func:`build_class_report`) so the scheduler
(:mod:`repro.verifier.scheduler`) can plan *several* classes into one shard
before dispatching anything.  :class:`ProverPool` wraps the executor so the
daemon (:mod:`repro.verifier.daemon`) can keep workers warm across
requests.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..provers.dispatch import DispatchResult, PortfolioSpec, ProverPortfolio
from ..provers.result import ProofTask
from ..vcgen.sequent import Sequent

__all__ = [
    "RunRecord",
    "WorkerLoad",
    "ProverPool",
    "plan_class",
    "run_shard",
    "resolve_shard",
    "resolve_duplicates",
    "build_class_report",
]


@dataclass
class WorkerLoad:
    """Per-worker accounting of one parallel run.

    ``pid`` is the worker's identity: the OS pid of the pool worker (the
    parent's own for the in-parent ``jobs <= 1`` path) -- the per-worker
    provenance in ``--perf`` output.
    """

    pid: int
    tasks: int = 0
    prover_time: float = 0.0


@dataclass
class RunRecord:
    """What one ``verify_class`` or ``verify_suite`` run did.

    ``classes`` holds one
    :class:`~repro.verifier.scheduler.ClassScheduleStats` row per planned
    class, in plan order, built from the class's executed slots: every
    sequent is exactly one of ``dispatched`` to the provers, answered
    from the cache (``hits_memory`` / ``hits_disk``), or folded onto an
    identical pending sequent (``duplicates_folded``).  The run totals
    are sums over the rows.
    """

    jobs: int
    wall_time: float = 0.0
    workers: list[WorkerLoad] = field(default_factory=list)
    classes: list = field(default_factory=list)

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


# Worker-side state: one portfolio per worker process, built from the spec
# at pool start-up.  Workers run the pure prover phase only -- no cache --
# because the parent has already deduplicated and answered every cacheable
# sequent.
_WORKER_PORTFOLIO: ProverPortfolio | None = None


def _init_worker(spec: PortfolioSpec) -> None:
    global _WORKER_PORTFOLIO
    _WORKER_PORTFOLIO = spec.build(proof_cache=None)


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
    """A worker pool bound to one portfolio spec, reusable across runs.

    The underlying ``ProcessPoolExecutor`` is created lazily on the first
    :meth:`run` call, so a fully warm verification (everything answered
    from the cache) never forks at all.  The engine hands these out via
    :meth:`~repro.verifier.engine.VerificationEngine.acquire_pool`: per-call
    pools are closed after each run, while the daemon's warm engine keeps
    one pool alive across requests so repeat verifications skip pool
    start-up entirely.
    """

    def __init__(self, spec: PortfolioSpec, jobs: int) -> None:
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None

    def matches(self, spec: PortfolioSpec, jobs: int) -> bool:
        """Whether this pool can serve a run with ``spec`` and ``jobs``."""
        return self.spec == spec and self.jobs == max(1, int(jobs))

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

        The daemon calls this before accepting connections: a worker
        forked while a request is being served inherits the accepted
        connection fd (keeping the client's socket open after the parent
        closes it), and the first request would pay pool start-up.  The
        executor forks on demand, one worker per outstanding task, so each
        sleep parks one worker long enough that all of them spawn.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(time.sleep, 0.2) for _ in range(self.jobs)]
        for future in futures:
            future.result()

    def run(self, items: list[tuple[int, ProofTask]]):
        """Dispatch ``(index, task)`` pairs; yields ``(index, pid, wall, result)``.

        Items are *dispatched* in the order given, but yielded in
        completion order: a straggler at the front must not hold back
        verdicts that already finished (the scheduler checkpoints them to
        the persistent store as they arrive).  Callers index by the
        yielded shard position, so consumption order carries no meaning.
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
# The dispatch phases (shared by the per-class path and the suite scheduler)
# ---------------------------------------------------------------------------


def plan_class(
    engine,
    target: ClassModel,
    shard: list[_Slot],
    pending_by_key: dict[tuple, int],
) -> list[_Slot]:
    """Phase 1 (parent): plan one class's sequents against the cache.

    Generates ``target``'s sequents in the exact order the reference loop
    would, answers in-memory / persistent-store hits immediately,
    folds fingerprint duplicates onto their pending representative, and
    appends the unique misses to ``shard``.  ``shard`` and
    ``pending_by_key`` may be shared across several classes (the suite
    scheduler plans the whole catalogue into one shard, so a sequent
    repeated across classes is still proved only once, exactly as a
    reference loop's warm cache would).

    Returns the class's slots in method/sequent order.
    """
    portfolio = engine.portfolio
    slots: list[_Slot] = []
    for method_index, method in enumerate(target.methods):
        for sequent in engine.method_sequents(target, method):
            slot = _Slot(method_index, sequent, engine.task_for(sequent))
            slots.append(slot)
            key, hit = portfolio.consult_cache(slot.task)
            slot.key = key
            if hit is not None:
                slot.result = hit
                continue
            if key is not None and key in pending_by_key:
                # A duplicate of a sequent already queued this run: the
                # reference loop would find its verdict in the warm cache.
                slot.duplicate_of = pending_by_key[key]
                portfolio.statistics.cache_misses -= 1  # counted by consult_cache
                portfolio.statistics.cache_hits += 1
                continue
            slot.shard_index = len(shard)
            shard.append(slot)
            if key is not None:
                pending_by_key[key] = slot.shard_index
    return slots


def run_shard(
    engine, shard: list[_Slot], run: RunRecord, on_result
) -> list[DispatchResult]:
    """Phase 2: run the provers on the unique misses, in shard order.

    The returned list is indexed by shard position, so the merge stays
    deterministic whatever order the verdicts arrive in.  With
    ``engine.jobs <= 1`` the provers run in-process on the parent's
    portfolio (no pool), as the reference loop would; otherwise the shard
    goes through the engine's :class:`ProverPool`.  ``run`` accumulates
    the per-worker loads and dispatch wall time.

    ``on_result(slot, result)`` is called in the parent as each verdict
    arrives (completion order, not merge order); the suite scheduler uses
    it to checkpoint verdicts to the persistent cache so an interrupted
    long run keeps what it already proved.
    """
    results: list[DispatchResult] = [None] * len(shard)  # type: ignore[list-item]
    start = time.monotonic()
    if shard:
        indexed = [(slot.shard_index, slot.task) for slot in shard]
        pool = None
        if engine.jobs > 1:
            spec = PortfolioSpec.from_portfolio(engine.portfolio)
            pool = engine.acquire_pool(spec, engine.jobs, shard_size=len(shard))
            answers = pool.run(indexed)
        else:
            answers = (_dispatch(engine.portfolio, item) for item in indexed)
        try:
            for index, pid, wall, result in answers:
                result.wall = wall
                results[index] = result
                run.fold_worker(pid, 1, wall)
                on_result(shard[index], result)
        except BaseException:
            # A dead executor (e.g. an OOM-killed worker raising
            # BrokenProcessPool) must not survive as a warm pool.
            if pool is not None:
                engine.release_pool(pool, broken=True)
            raise
        if pool is not None:
            engine.release_pool(pool)
        run.workers.sort(key=lambda load: load.pid)
    run.wall_time += time.monotonic() - start
    return results


def resolve_shard(
    portfolio: ProverPortfolio,
    shard: list[_Slot],
    results: list[DispatchResult],
) -> None:
    """Phase 3a: replay worker verdicts into the parent, in shard order.

    Statistics end up bit-identical to a plain dispatch loop over the
    same tasks.  The verdicts themselves were already stored as they
    arrived (the suite scheduler's checkpoint callback), so this only
    does the accounting.
    """
    for slot in shard:
        result = results[slot.shard_index]
        slot.result = result
        portfolio.record_outcome(result)


def resolve_duplicates(
    portfolio: ProverPortfolio,
    slots: list[_Slot],
    results: list[DispatchResult],
) -> None:
    """Phase 3b: answer folded duplicates as warm memory cache hits."""
    for slot in slots:
        if slot.duplicate_of is not None:
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


def build_class_report(target: ClassModel, slots: list[_Slot]):
    """Assemble the :class:`~repro.verifier.engine.ClassReport` for ``target``.

    Outcomes appear in method/sequent order.
    """
    # Imported here: engine.py imports this module lazily and vice versa.
    from .engine import ClassReport, MethodReport, SequentOutcome

    report = ClassReport(target.name)
    for method_index, method in enumerate(target.methods):
        method_report = MethodReport(target.name, method.name)
        for slot in slots:
            if slot.method_index == method_index:
                method_report.outcomes.append(SequentOutcome(slot.sequent, slot.result))
        report.methods.append(method_report)
    return report
