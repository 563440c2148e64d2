"""Sequents: the unit of work handed to the prover portfolio.

A sequent is one implication produced by splitting a verification condition
(Figure 7): a list of *named* assumptions (the assumption base), a goal, a
label identifying which proof obligation it came from, and an optional
``from`` clause restricting the assumption base (the paper's
assumption-base control).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic import builder as b
from ..logic.simplify import simplify
from ..logic.terms import FALSE, TRUE, Term
from ..provers.result import ProofTask

__all__ = ["Sequent"]


@dataclass(frozen=True)
class Sequent:
    """One proof obligation: ``assumptions |- goal``."""

    assumptions: tuple[tuple[str, Term], ...]
    goal: Term
    label: str
    from_hints: tuple[str, ...] = ()
    local_assumptions: tuple[tuple[str, Term], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        object.__setattr__(self, "from_hints", tuple(self.from_hints))
        object.__setattr__(self, "local_assumptions", tuple(self.local_assumptions))

    # -- trivial discharge -----------------------------------------------------------

    def is_trivial(self) -> bool:
        """Syntactic discharge: goal is true, goal occurs among the
        assumptions, or the assumptions contain false (the eliminations the
        paper applies during splitting)."""
        goal = simplify(self.goal)
        if goal == TRUE:
            return True
        formulas = [f for _, f in self.assumptions + self.local_assumptions]
        if goal in formulas:
            return True
        if any(simplify(f) == FALSE for f in formulas):
            return True
        return False

    # -- conversion -------------------------------------------------------------------

    def to_task(self, apply_from_clause: bool = True) -> ProofTask:
        """Build the :class:`ProofTask` given to the provers.

        When ``apply_from_clause`` is set and the sequent carries ``from``
        hints, the assumption base is restricted to the assumptions whose
        name appears in the hints (local assumptions introduced by goal
        splitting are always kept).
        """
        assumptions = self.assumptions
        if apply_from_clause and self.from_hints:
            wanted = set(self.from_hints)
            assumptions = tuple(
                (name, formula)
                for name, formula in assumptions
                if name in wanted
            )
        return ProofTask(
            self.local_assumptions + assumptions, self.goal, label=self.label
        )

    def formula(self) -> Term:
        """The sequent as a single implication (used for cross-checks)."""
        antecedent = [f for _, f in self.assumptions + self.local_assumptions]
        return b.Implies(b.And(*antecedent), self.goal)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"sequent {self.label}:"]
        for name, formula in self.assumptions + self.local_assumptions:
            lines.append(f"  [{name}] {formula}")
        if self.from_hints:
            lines.append(f"  from {', '.join(self.from_hints)}")
        lines.append(f"  |- {self.goal}")
        return "\n".join(lines)
