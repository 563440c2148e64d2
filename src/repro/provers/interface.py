"""The common prover interface.

Every reasoning system in the portfolio (the stand-ins for SPASS/E, CVC3/Z3,
MONA and BAPA) implements :class:`Prover`: it receives a
:class:`~repro.provers.result.ProofTask` (the assumption base and a goal) and
a time budget, and answers with a :class:`~repro.provers.result.ProverResult`
whose outcome is ``PROVED``, ``REFUTED``, ``UNKNOWN`` or ``TIMEOUT``.

Only ``PROVED`` is trusted by the verification engine; every other outcome
simply means "this prover could not do it" and the dispatcher moves on to the
next prover, exactly as Jahob does.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from .result import Budget, BudgetExpired, Outcome, ProofTask, ProverResult

__all__ = ["Prover"]


class Prover(ABC):
    """Abstract base class of all provers in the portfolio."""

    #: Human-readable name used in reports and statistics.
    name: str = "prover"
    #: Bumped whenever the prover's verdicts can change for the same task, so
    #: persistent proof caches written by an older revision are discarded.
    revision: int = 1

    @abstractmethod
    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        """Attempt the proof task within the budget.

        Implementations should poll ``budget`` and may raise
        :class:`~repro.provers.result.BudgetExpired`; the wrapper converts it
        into a ``TIMEOUT`` result.
        """

    def prove(self, task: ProofTask, timeout: float | None = None) -> ProverResult:
        """Run :meth:`attempt` under a fresh budget, normalising outcomes."""
        budget = Budget(timeout)
        start = time.monotonic()
        try:
            result = self.attempt(task, budget)
        except BudgetExpired:
            result = ProverResult(Outcome.TIMEOUT, reason="budget expired")
        except TimeoutError:
            result = ProverResult(Outcome.TIMEOUT, reason="budget expired")
        except RecursionError:
            result = ProverResult(Outcome.UNKNOWN, reason="recursion limit")
        result.prover = self.name
        result.elapsed = time.monotonic() - start
        return result
