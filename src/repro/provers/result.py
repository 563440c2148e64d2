"""Prover results, tasks and resource budgets."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from ..logic.terms import Term, term_stats


class Outcome(Enum):
    """Outcome of a prover invocation on a proof task."""

    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"

    @property
    def is_proved(self) -> bool:
        return self is Outcome.PROVED


@dataclass(frozen=True)
class ProofTask:
    """A sequent handed to a prover: named assumptions and a goal.

    ``assumptions`` is a tuple of ``(name, formula)`` pairs -- the assumption
    base.  The prover must establish that the conjunction of the assumptions
    entails ``goal``.
    """

    assumptions: tuple[tuple[str, Term], ...]
    goal: Term
    label: str = ""

    @property
    def assumption_formulas(self) -> tuple[Term, ...]:
        return tuple(formula for _, formula in self.assumptions)

    def restricted_to(self, names: set[str] | frozenset[str]) -> "ProofTask":
        """Keep only the assumptions whose name is in ``names``."""
        kept = tuple(
            (name, formula) for name, formula in self.assumptions if name in names
        )
        return ProofTask(kept, self.goal, self.label)


@dataclass
class ProverResult:
    """The result of running a prover on a proof task."""

    outcome: Outcome
    prover: str = ""
    elapsed: float = 0.0
    reason: str = ""
    countermodel: object = None

    @property
    def is_proved(self) -> bool:
        return self.outcome is Outcome.PROVED


class Budget:
    """A cooperative deadline shared by the components of a prover run.

    The budget measures **per-process CPU time**, not wall-clock time: the
    provers are pure compute, and a CPU budget makes timeouts independent
    of machine load -- in particular, the worker processes of a parallel
    run (:mod:`repro.verifier.pipeline`) contending for cores reach
    exactly the same timeout decisions the sequential run would, which is
    what keeps parallel verdicts and prover attribution bit-identical.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.start = time.process_time()

    def elapsed(self) -> float:
        return time.process_time() - self.start

    def remaining(self) -> float:
        if self.seconds is None:
            return float("inf")
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`BudgetExpired` when the deadline has passed."""
        if self.expired():
            raise BudgetExpired()


class BudgetExpired(Exception):
    """Raised internally by provers when their time budget runs out."""


@dataclass
class ProverStatistics:
    """Aggregated statistics of a dispatcher run (per prover)."""

    attempts: int = 0
    proved: int = 0
    time_spent: float = 0.0

    def record(self, result: ProverResult) -> None:
        self.attempts += 1
        self.time_spent += result.elapsed
        if result.is_proved:
            self.proved += 1


@dataclass
class PortfolioStatistics:
    """Statistics for an entire portfolio run.

    ``cache_hits`` / ``cache_misses`` count proof-cache consultations by the
    dispatcher (zero when no cache is attached); a hit answers the sequent
    without running any prover.  ``cache_hits_disk`` is the subset of hits
    answered by verdicts loaded from a persistent store (the rest were
    produced during this process -- "memory" hits).
    """

    per_prover: dict[str, ProverStatistics] = field(default_factory=dict)
    sequents_attempted: int = 0
    sequents_proved: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hits_disk: int = 0

    @property
    def cache_hits_memory(self) -> int:
        return self.cache_hits - self.cache_hits_disk

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """A JSON-ready snapshot of the counters and their rates, with the
        process-global term-kernel counters alongside.

        The daemon's ``stats`` and ``metrics`` ops ship exactly this as
        ``counters`` (:mod:`repro.verifier.daemon`), so it must stay
        limited to plain ``str``/``int``/``float`` values.
        """
        terms = term_stats()
        return {
            "terms_allocated": terms.allocated,
            "terms_interned": terms.interned_hits,
            "intern_hit_rate": terms.hit_rate,
            "proof_cache_hits": self.cache_hits,
            "proof_cache_hits_memory": self.cache_hits_memory,
            "proof_cache_hits_disk": self.cache_hits_disk,
            "proof_cache_misses": self.cache_misses,
            "proof_cache_hit_rate": self.cache_hit_rate,
            "sequents_attempted": self.sequents_attempted,
            "sequents_proved": self.sequents_proved,
        }

    def record(self, prover: str, result: ProverResult) -> None:
        stats = self.per_prover.setdefault(prover, ProverStatistics())
        stats.record(result)

    def merge(self, other: "PortfolioStatistics") -> None:
        self.sequents_attempted += other.sequents_attempted
        self.sequents_proved += other.sequents_proved
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_hits_disk += other.cache_hits_disk
        for name, stats in other.per_prover.items():
            mine = self.per_prover.setdefault(name, ProverStatistics())
            mine.attempts += stats.attempts
            mine.proved += stats.proved
            mine.time_spent += stats.time_spent
