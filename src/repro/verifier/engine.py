"""The end-to-end verification engine.

For each method of a class model the engine

1. lowers the method (contracts, invariants, proof annotations) into an
   extended guarded command (:mod:`repro.frontend.lower`),
2. desugars it into simple guarded commands (Figures 6 and 8),
3. generates and splits sequents (Figure 7, :mod:`repro.vcgen`),
4. offers every sequent to the prover portfolio with per-prover timeouts,
   honouring ``from``-clause assumption selection.

Every run is planned, then executed (:mod:`repro.verifier.pipeline`);
:meth:`VerificationEngine.verify_method` is kept as the plain dispatch loop
the differential tests compare against.  The per-method and per-class
reports carry everything the paper's Tables 1 and 2 need: sequent counts,
proved counts, verification time and the prover that discharged each
sequent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ..frontend.ast import ClassModel, Method, called_method_names
from ..frontend.lower import lower_method
from ..gcl.desugar import Desugarer
from ..provers.cache import PersistentCacheStore, ProofCache
from ..provers.dispatch import (
    DispatchResult,
    PortfolioSpec,
    ProverPortfolio,
    default_portfolio,
)
from ..provers.result import ProofTask
from ..vcgen.assumptions import relevance_filter
from ..vcgen.sequent import Sequent
from ..vcgen.vcgen import VcGenerator
from .incremental import DependencyIndex, record_from_slots
from .pipeline import ProverPool, execute_suite, plan_suite
from .strip import strip_proofs_from_class

__all__ = [
    "SequentOutcome",
    "MethodReport",
    "ClassReport",
    "VerificationEngine",
]

#: Kept bound for perfbench/tracing.py, which patches both names.
record_from_report = record_from_slots

#: Distinct method contents the sequent memo holds before it is cleared.
_SEQUENT_MEMO_LIMIT = 1 << 12


def _content_key(cls: ClassModel, method: Method) -> tuple:
    """Everything lowering ``method`` of ``cls`` reads, and nothing else."""
    callees = tuple(
        next((m for m in cls.methods if m.name == name), None)
        for name in called_method_names(method)
    )
    return (
        cls.state,
        cls.invariants,
        method.params,
        method.return_var,
        method.contract,
        method.body,
        method.is_public,
        method.locals,
        callees,
    )


@dataclass
class SequentOutcome:
    """One sequent together with the dispatcher's verdict."""

    sequent: Sequent
    dispatch: DispatchResult

    @property
    def proved(self) -> bool:
        return self.dispatch.proved

    @property
    def prover(self) -> str:
        return self.dispatch.winning_prover


@dataclass
class MethodReport:
    """Verification results for one method."""

    class_name: str
    method_name: str
    outcomes: list[SequentOutcome] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Prover CPU seconds of the sequents this run dispatched; cache
        hits and folded duplicates count 0, whatever ``jobs``."""
        return sum(outcome.dispatch.elapsed for outcome in self.outcomes)

    @property
    def sequents_total(self) -> int:
        return len(self.outcomes)

    @property
    def sequents_proved(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.proved)

    @property
    def verified(self) -> bool:
        return self.sequents_proved == self.sequents_total

    @property
    def failed_sequents(self) -> list[SequentOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.proved]

    @property
    def provers_used(self) -> dict[str, int]:
        used: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.proved:
                used[outcome.prover] = used.get(outcome.prover, 0) + 1
        return used


@dataclass
class ClassReport:
    """Verification results for a whole data structure.

    ``elapsed`` sums the methods' ``elapsed``: the prover CPU time of the
    sequents this run dispatched (cache hits count 0), whatever ``jobs``.
    """

    class_name: str
    methods: list[MethodReport] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(report.elapsed for report in self.methods)

    @property
    def methods_total(self) -> int:
        return len(self.methods)

    @property
    def methods_verified(self) -> int:
        return sum(1 for report in self.methods if report.verified)

    @property
    def sequents_total(self) -> int:
        return sum(report.sequents_total for report in self.methods)

    @property
    def sequents_proved(self) -> int:
        return sum(report.sequents_proved for report in self.methods)

    @property
    def verified(self) -> bool:
        return all(report.verified for report in self.methods)

    @property
    def provers_used(self) -> dict[str, int]:
        used: dict[str, int] = {}
        for report in self.methods:
            for name, count in report.provers_used.items():
                used[name] = used.get(name, 0) + count
        return used


class VerificationEngine:
    """Drives lowering, VC generation and prover dispatch.

    ``jobs`` > 1 shards prover dispatch across that many worker processes
    (:mod:`repro.verifier.pipeline`); verdicts stay identical to
    ``jobs=1``.  ``cache_dir`` attaches a persistent
    :class:`~repro.provers.cache.PersistentCacheStore` keyed by the
    portfolio configuration: verdicts are loaded at start-up and -- unless
    ``persist`` is False -- written back atomically after every
    :meth:`verify_class`, so repeated runs of an unchanged suite are
    answered almost entirely from disk.

    A ``jobs > 1`` engine owns one :class:`~repro.verifier.pipeline.ProverPool`:
    it forks on the first pooled dispatch (or in :meth:`warm_pool`) and
    serves every later run until :meth:`close`, unless a broken executor
    is discarded first.  Engines are context managers: leaving the
    ``with`` block calls :meth:`close`, which flushes the persistent cache
    and shuts the pool down.
    """

    def __init__(
        self,
        portfolio: ProverPortfolio | None = None,
        apply_from_clauses: bool = True,
        use_relevance_filter: bool = True,
        runtime_checks: bool = True,
        use_proof_cache: bool = True,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        persist: bool = True,
    ) -> None:
        if portfolio is None:
            portfolio = default_portfolio(with_cache=use_proof_cache)
        elif use_proof_cache and portfolio.proof_cache is None:
            # Wrap instead of mutating: the caller's portfolio object (and
            # its statistics) stays untouched.
            portfolio = ProverPortfolio(portfolio.entries, ProofCache())
        elif not use_proof_cache and portfolio.proof_cache is not None:
            portfolio = ProverPortfolio(portfolio.entries, None)
        self.portfolio = portfolio
        self.use_proof_cache = use_proof_cache
        self.apply_from_clauses = apply_from_clauses
        self.use_relevance_filter = use_relevance_filter
        self.runtime_checks = runtime_checks
        # Content key -> (sequent, task) pairs; see :meth:`sequent_tasks`.
        self._sequents: dict[tuple, tuple[tuple[Sequent, ProofTask], ...]] = {}
        self.jobs = max(1, int(jobs))
        self.persist = persist
        self.persistent_store: PersistentCacheStore | None = None
        #: :class:`~repro.verifier.pipeline.RunRecord` of the most recent
        #: :meth:`verify_class` or :meth:`verify_suite` call.
        self.last_run = None
        self._pool: ProverPool | None = None
        self._flushed_mutations = 0
        self._flushed_dependency_mutations = 0
        #: Per-class dependency records mapping source artifacts to the
        #: sequent fingerprints they produce (watch-mode edit accounting).
        self.dependency_index = DependencyIndex()
        if cache_dir is not None and self.portfolio.proof_cache is not None:
            self.persistent_store = PersistentCacheStore(cache_dir, self.spec.cache_key)
            entries = self.persistent_store.load()
            self.portfolio.proof_cache.preload(entries)
            self.dependency_index = DependencyIndex(
                self.persistent_store.last_dependencies
            )

    @cached_property
    def spec(self) -> PortfolioSpec:
        """What the pool workers rebuild the portfolio from, and the
        persistent store's key.  Built on first use: a portfolio with a
        custom prover (one outside ``PROVER_FACTORIES``) has no spec, but
        still runs at ``jobs=1`` without a store."""
        return PortfolioSpec.from_portfolio(self.portfolio)

    # -- sequent generation ------------------------------------------------------

    def method_sequents(self, cls: ClassModel, method: Method) -> list[Sequent]:
        """All (non-trivially-discharged) sequents of one method."""
        return [sequent for sequent, _ in self.sequent_tasks(cls, method)]

    def sequent_tasks(
        self, cls: ClassModel, method: Method
    ) -> tuple[tuple[Sequent, ProofTask], ...]:
        """Each sequent of one method paired with its :meth:`task_for`.

        A method's sequents are a pure function of what lowering reads: the
        class's state and invariants, every field of the method but its
        name, and the full :class:`Method` of every callee
        (``runtime_checks`` is fixed per engine, and so is the policy of
        :meth:`task_for`).  The engine keys its memo on exactly that, so a
        method equal in content to one prepared before -- in another class,
        under another name, or in a reloaded copy of the file -- skips
        lowering, desugaring, VC generation and task building, and hands
        the planner the same task objects, whose fingerprints
        :func:`~repro.provers.cache.task_fingerprint` has memoized.  The
        memo starts over once it holds :data:`_SEQUENT_MEMO_LIMIT` methods.
        """
        key = _content_key(cls, method)
        known = self._sequents.get(key)
        if known is None:
            known = tuple(
                (sequent, self.task_for(sequent))
                for sequent in self._generate_sequents(cls, method)
            )
            if len(self._sequents) >= _SEQUENT_MEMO_LIMIT:
                self._sequents.clear()
            self._sequents[key] = known
        return known

    def _generate_sequents(self, cls: ClassModel, method: Method) -> list[Sequent]:
        lowering = lower_method(cls, method, runtime_checks=self.runtime_checks)
        used: set[str] = {sv.name for sv in cls.state}
        used |= {var.name for var in method.params}
        used |= {var.name for var in method.locals}
        if method.return_var is not None:
            used.add(method.return_var.name)
        desugarer = Desugarer(used)
        simple = desugarer.desugar(lowering.command)
        generator = VcGenerator()
        return generator.generate(simple, post=None)

    def task_for(self, sequent: Sequent) -> ProofTask:
        """The proof task the portfolio receives for ``sequent``.

        Applies the engine's ``from``-clause and relevance-filter policy;
        the pipeline and the :meth:`verify_method` reference share this so
        both dispatch byte-identical tasks.
        """
        task = sequent.to_task(apply_from_clause=self.apply_from_clauses)
        if self.use_relevance_filter and not (
            self.apply_from_clauses and sequent.from_hints
        ):
            task = relevance_filter(task)
        return task

    # -- verification ---------------------------------------------------------------

    def verify_method(self, cls: ClassModel, method: Method) -> MethodReport:
        """Verify one method by offering each sequent to ``portfolio.dispatch``.

        The plain reference procedure -- no planning, sharding or
        bookkeeping.  The differential tests compare :meth:`verify_class`
        and :meth:`verify_suite` against it; the engine never calls it.
        """
        report = MethodReport(cls.name, method.name)
        for sequent in self.method_sequents(cls, method):
            dispatch = self.portfolio.dispatch(self.task_for(sequent))
            report.outcomes.append(SequentOutcome(sequent, dispatch))
        return report

    def verify_class(self, cls: ClassModel, strip_proofs: bool = False) -> ClassReport:
        """Verify every method of ``cls``: a one-class :meth:`verify_suite`.

        With ``strip_proofs`` the integrated proof language constructs are
        removed first (the Table 2 ablation); such a run records no
        dependency record, because the stripped class keeps the real
        one's name.

        The portfolio's sequent-level proof cache stays warm across the
        whole run: the near-duplicate split sequents of one method, the
        shared invariant obligations of sibling methods, and (for Table 2)
        the unchanged sequents of the stripped/annotated pair are each
        dispatched to the provers only once.
        """
        target = strip_proofs_from_class(cls) if strip_proofs else cls
        (report,) = self._run([target], record=not strip_proofs)
        return report

    def verify_suite(
        self, classes: list[ClassModel] | None = None
    ) -> list[ClassReport]:
        """Verify several classes as one scheduled job graph.

        Plans the whole suite up front and dispatches every class's
        cache-missing sequents, in plan order, across one worker pool
        (:mod:`repro.verifier.pipeline`).  ``classes`` defaults to the
        full benchmark catalogue.
        Returns one :class:`ClassReport` per class, in input order, with
        verdicts, attribution and counters identical to running
        :meth:`verify_method` over each class's methods in that order.
        """
        if classes is None:
            from ..suite.catalog import all_structures

            classes = all_structures()
        return self._run(classes, record=True)

    def _run(self, classes: list[ClassModel], record: bool) -> list[ClassReport]:
        """Plan, execute, keep the run record in :attr:`last_run`, flush."""
        plan = plan_suite(self, classes, record=record)
        reports, self.last_run = execute_suite(self, plan)
        self.flush_persistent_cache()
        return reports

    def record_class_run(self, cls: ClassModel, slots) -> None:
        """Refresh ``cls``'s dependency record from its executed slots."""
        if self.portfolio.proof_cache is not None:
            self.dependency_index.record(cls.name, record_from_slots(self, cls, slots))

    # -- worker-pool management -----------------------------------------------------

    def acquire_pool(self) -> ProverPool:
        """The engine's worker pool, created unforked on first use."""
        if self._pool is None:
            self._pool = ProverPool(self.spec, self.jobs)
        return self._pool

    @property
    def pool_warm(self) -> bool:
        """Whether the worker pool is currently forked."""
        return self._pool is not None and self._pool.started

    def warm_pool(self) -> None:
        """Fork the worker pool now instead of on the first pooled dispatch.

        The daemon calls this before it creates a listening socket, so no
        request pays pool start-up; a pool that replaces a discarded one
        forks on the next pooled dispatch, inside a request, and its
        workers close the socket fds they inherit.  No-op at ``jobs=1`` or
        when already forked.
        """
        if self.jobs > 1 and not self.pool_warm:
            self.acquire_pool().warm_up()

    def discard_pool(self) -> None:
        """Drop a broken pool, cancelling its queued work; the next pooled
        dispatch forks a fresh one instead of failing forever."""
        if self._pool is not None:
            self._pool.close(cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Flush the persistent cache and shut the worker pool down."""
        self.flush_persistent_cache()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "VerificationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- multi-tenancy ----------------------------------------------------------------

    def set_cache_namespace(self, tenant: str) -> None:
        """Scope proof-cache keys to ``tenant`` until the next call.

        The daemon brackets every engine op with this (set to the
        authenticated client id, reset to ``""`` afterwards) so tenants of
        one warm daemon cannot read or poison each other's verdicts.  The
        engine serializes engine ops externally (the daemon's admission
        controller), so flipping the namespace between ops is race-free.
        """
        cache = self.portfolio.proof_cache
        if cache is not None:
            cache.namespace = tenant or ""

    # -- persistence ---------------------------------------------------------------

    def flush_persistent_cache(self) -> int:
        """Write the in-memory proof cache back to the persistent store.

        No-op (returning 0) without a store, with ``persist`` disabled, or
        when neither a verdict nor a dependency record changed since the
        last flush; otherwise returns the number of entries now on disk.
        The dependency index rides along with every flush.
        """
        cache = self.portfolio.proof_cache
        if self.persistent_store is None or not self.persist or cache is None:
            return 0
        # Dependency records change *after* the run's last verdict
        # checkpoint, so they need their own dirtiness check: a suite
        # whose dispatch count is an exact multiple of the checkpoint
        # interval would otherwise leave the final flush with
        # nothing-new verdicts and silently drop the run's records.
        marks = (cache.mutations, self.dependency_index.mutations)
        if marks == (self._flushed_mutations, self._flushed_dependency_mutations):
            return 0
        saved = self.persistent_store.save(
            cache.snapshot(), dependencies=self.dependency_index.snapshot()
        )
        # Only a save that returned counts as flushed: after a failed one
        # the next flush must write the batch again.
        self._flushed_mutations, self._flushed_dependency_mutations = marks
        return saved
