"""The multi-prover dispatcher (Jahob's "integrated reasoning" loop).

Jahob does not rely on a single monolithic prover: every proof obligation is
offered to a portfolio of reasoning systems, each with its own timeout; the
first prover that succeeds discharges the sequent and the others are never
consulted.  This module reproduces that behaviour for the from-scratch
portfolio of this package:

* ``smt``          -- the DPLL(T) SMT-lite prover (stand-in for CVC3 / Z3),
* ``sets``         -- the BAPA-style set-with-cardinality reasoner
  (stand-in for the MONA / BAPA decision procedures).

The dispatcher also implements the paper's *assumption base control*: when a
proof obligation carries a ``from`` clause (a set of named assumptions), only
those assumptions are passed to the provers.

Dispatch is split into three phases (cache consult / prover run /
accounting+store) so the engine's plan → execute pipeline
(:mod:`repro.verifier.pipeline`) can run phases 1 and 3 in the parent
and phase 2 in worker processes rebuilt from :class:`PortfolioSpec`.  The
end-to-end picture lives in ``docs/architecture.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cache import CachedVerdict, ProofCache
from .interface import Prover
from .result import (
    Outcome,
    PortfolioStatistics,
    ProofTask,
    ProverResult,
)
from .setsolver import SetCardinalityProver
from .smt import SmtProver

__all__ = [
    "ProverPortfolio",
    "DispatchResult",
    "PortfolioSpec",
    "PROVER_FACTORIES",
    "default_portfolio",
]


#: Registry mapping prover names to zero-argument factories.  The parallel
#: scheduler serializes a portfolio as a :class:`PortfolioSpec` (names and
#: timeouts only) and each worker process rebuilds the actual prover objects
#: from this registry -- prover instances themselves never cross process
#: boundaries.
PROVER_FACTORIES: dict[str, type[Prover]] = {
    SmtProver.name: SmtProver,
    SetCardinalityProver.name: SetCardinalityProver,
}


@dataclass
class DispatchResult:
    """Everything the verifier needs to know about one dispatched sequent.

    ``cache_origin`` is empty for sequents that actually ran provers and
    ``"memory"`` / ``"disk"`` for cache hits, depending on whether the
    verdict was produced during this process or loaded from a persistent
    store.

    ``wall`` is the wall-clock duration of the prover phase
    (:meth:`ProverPortfolio.run_provers`) for sequents that actually ran
    provers -- measured in whichever process ran them -- and 0.0 for
    cache hits.  It feeds the per-worker load of a run's
    :class:`~repro.verifier.pipeline.RunRecord`; ``elapsed`` stays the
    per-process CPU total the provers themselves reported.
    """

    task: ProofTask
    proved: bool
    refuted: bool = False
    winning_prover: str = ""
    attempts: list[ProverResult] = field(default_factory=list)
    cached: bool = False
    cache_origin: str = ""
    wall: float = 0.0

    @property
    def elapsed(self) -> float:
        return sum(result.elapsed for result in self.attempts)


@dataclass
class PortfolioEntry:
    """A prover together with its per-sequent timeout."""

    prover: Prover
    timeout: float


class ProverPortfolio:
    """Ordered portfolio of provers with per-prover timeouts.

    When ``proof_cache`` is set, :meth:`dispatch` consults it before running
    any prover and records every verdict afterwards.  A cache is only valid
    for one prover line-up with fixed timeouts, so the :meth:`only` /
    :meth:`without` / :meth:`scaled` copies never share the parent's cache.
    """

    def __init__(
        self,
        entries: list[PortfolioEntry],
        proof_cache: ProofCache | None = None,
    ) -> None:
        self.entries = entries
        self.statistics = PortfolioStatistics()
        self.proof_cache = proof_cache

    # -- configuration ---------------------------------------------------------

    def only(self, *names: str) -> "ProverPortfolio":
        """A copy of the portfolio restricted to the named provers.

        Raises ``ValueError`` when a name is not in the line-up.
        """
        self._check_names(names)
        kept = [
            PortfolioEntry(e.prover, e.timeout)
            for e in self.entries
            if e.prover.name in names
        ]
        return ProverPortfolio(
            kept, ProofCache() if self.proof_cache is not None else None
        )

    def without(self, *names: str) -> "ProverPortfolio":
        """A copy of the portfolio with the named provers removed.

        Raises ``ValueError`` when a name is not in the line-up.
        """
        self._check_names(names)
        kept = [
            PortfolioEntry(e.prover, e.timeout)
            for e in self.entries
            if e.prover.name not in names
        ]
        return ProverPortfolio(
            kept, ProofCache() if self.proof_cache is not None else None
        )

    def _check_names(self, names: tuple[str, ...]) -> None:
        present = [entry.prover.name for entry in self.entries]
        unknown = [name for name in names if name not in present]
        if unknown:
            raise ValueError(
                f"not in the portfolio ({', '.join(present)}): {', '.join(unknown)}"
            )

    def scaled(self, factor: float) -> "ProverPortfolio":
        """A copy with all per-prover timeouts scaled by ``factor``."""
        return ProverPortfolio(
            [
                PortfolioEntry(e.prover, e.timeout * factor)
                for e in self.entries
            ],
            ProofCache() if self.proof_cache is not None else None,
        )

    @property
    def prover_names(self) -> list[str]:
        return [entry.prover.name for entry in self.entries]

    # -- dispatching -------------------------------------------------------------

    def dispatch(self, task: ProofTask) -> DispatchResult:
        """Offer ``task`` to the provers in order until one proves it.

        With a proof cache attached, a sequent whose canonical fingerprint
        has been dispatched before is answered from the cache without
        consulting any prover.
        """
        key, hit = self.consult_cache(task)
        if hit is not None:
            return hit
        start = time.monotonic()
        result = self.run_provers(task)
        result.wall = time.monotonic() - start
        self.record_outcome(result)
        self.store_verdict(key, result)
        return result

    # The three dispatch phases are exposed separately so the pipeline
    # (:mod:`repro.verifier.pipeline`) can run the cache phase in
    # the parent, the prover phase in worker processes, and the accounting /
    # store phase back in the parent -- with counters and verdicts identical
    # to a sequential :meth:`dispatch` loop over the same task order.

    def consult_cache(
        self, task: ProofTask
    ) -> tuple[tuple | None, DispatchResult | None]:
        """Phase 1: count the attempt and answer from the cache if possible.

        Returns ``(key, hit)`` where ``key`` is the task's fingerprint (or
        ``None`` without a cache) and ``hit`` a finished cached
        :class:`DispatchResult` (or ``None`` on a miss).
        """
        self.statistics.sequents_attempted += 1
        cache = self.proof_cache
        if cache is None:
            return None, None
        key = cache.key(task)
        verdict = cache.lookup(key)
        if verdict is None:
            self.statistics.cache_misses += 1
            return key, None
        self.statistics.cache_hits += 1
        if verdict.origin == "disk":
            self.statistics.cache_hits_disk += 1
        if verdict.proved:
            self.statistics.sequents_proved += 1
        return key, DispatchResult(
            task=task,
            proved=verdict.proved,
            refuted=verdict.refuted,
            winning_prover=verdict.winning_prover,
            cached=True,
            cache_origin=verdict.origin,
        )

    def run_provers(self, task: ProofTask) -> DispatchResult:
        """Phase 2: run the portfolio on a cache miss (no accounting)."""
        result = DispatchResult(task=task, proved=False)
        for entry in self.entries:
            prover_result = entry.prover.prove(task, timeout=entry.timeout)
            result.attempts.append(prover_result)
            if prover_result.outcome is Outcome.PROVED:
                result.proved = True
                result.winning_prover = entry.prover.name
                break
            if prover_result.outcome is Outcome.REFUTED:
                result.refuted = True
                result.winning_prover = entry.prover.name
                break
        return result

    def record_outcome(self, result: DispatchResult) -> None:
        """Phase 3a: fold a :meth:`run_provers` result into the statistics."""
        for prover_result in result.attempts:
            self.statistics.record(prover_result.prover, prover_result)
        if result.proved:
            self.statistics.sequents_proved += 1

    def store_verdict(self, key: tuple | None, result: DispatchResult) -> None:
        """Phase 3b: remember the verdict for future duplicates."""
        if self.proof_cache is not None and key is not None:
            self.proof_cache.store(
                key,
                CachedVerdict(result.proved, result.refuted, result.winning_prover),
            )


def default_portfolio(
    smt_timeout: float = 4.0,
    sets_timeout: float = 1.5,
    with_cache: bool = True,
) -> ProverPortfolio:
    """The standard portfolio used by the verification engine: ``smt``,
    then ``sets``.

    ``with_cache`` attaches a sequent-level :class:`ProofCache` (pass False
    for cold-cache measurements).
    """
    return ProverPortfolio(
        [
            PortfolioEntry(SmtProver(), smt_timeout),
            PortfolioEntry(SetCardinalityProver(), sets_timeout),
        ],
        ProofCache() if with_cache else None,
    )


@dataclass(frozen=True)
class PortfolioSpec:
    """A picklable description of a portfolio: prover names and timeouts.

    This is the unit shipped to worker processes (worker-side portfolio
    construction) and the identity a persistent proof cache is bound to:
    two runs share disk verdicts only when their specs -- and the
    fingerprint scheme -- agree.
    """

    entries: tuple[tuple[str, float], ...]

    @classmethod
    def from_portfolio(cls, portfolio: ProverPortfolio) -> "PortfolioSpec":
        """Describe ``portfolio``; raises ``ValueError`` for provers outside
        :data:`PROVER_FACTORIES` (custom prover objects cannot be rebuilt in
        a worker process)."""
        entries = []
        for entry in portfolio.entries:
            name = entry.prover.name
            if name not in PROVER_FACTORIES:
                raise ValueError(
                    f"prover {name!r} is not in PROVER_FACTORIES; parallel "
                    "dispatch and persistent caching need reconstructible provers"
                )
            entries.append((name, float(entry.timeout)))
        return cls(tuple(entries))

    def build(self, proof_cache: ProofCache | None = None) -> ProverPortfolio:
        """Construct a fresh portfolio matching this spec; raises
        ``ValueError`` naming any prover outside :data:`PROVER_FACTORIES`."""
        unknown = [name for name, _ in self.entries if name not in PROVER_FACTORIES]
        if unknown:
            raise ValueError(
                f"unknown prover {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(PROVER_FACTORIES)})"
            )
        return ProverPortfolio(
            [
                PortfolioEntry(PROVER_FACTORIES[name](), timeout)
                for name, timeout in self.entries
            ],
            proof_cache,
        )

    @property
    def cache_key(self) -> str:
        """The persistent-cache compatibility key of this line-up: each
        prover's name, revision and timeout."""
        return ";".join(
            f"{name}@{PROVER_FACTORIES[name].revision}:{timeout:g}"
            for name, timeout in self.entries
        )
