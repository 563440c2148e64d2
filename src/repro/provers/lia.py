"""Linear integer arithmetic: linearisation and a Fourier-Motzkin solver.

This component is the arithmetic theory of the SMT-lite prover and the
backend of the BAPA-style set-cardinality reasoner.  Integer-sorted terms
that are not themselves arithmetic (variables, ``select`` applications,
``card`` applications, uninterpreted function applications) are treated as
*atoms*, i.e. opaque integer unknowns.

Satisfiability checking works over the rationals via Fourier-Motzkin
elimination with exact :class:`fractions.Fraction` arithmetic.  Because a
rationally infeasible system is certainly integer-infeasible, reporting
``infeasible`` is sound for refutation-based proving; integer-feasible-only
gaps merely make the prover incomplete (never unsound).  Strict integer
inequalities are tightened (``a < b`` becomes ``a + 1 <= b``) before the
rational check, which recovers most of the integer reasoning the benchmark
verification conditions need.

Constraints may carry ``tags`` (a frozenset of opaque tags).  Every
elimination row carries the union of the tags of the constraints it was
combined from, so an infeasible constant row names its origin set -- the
support of a Farkas combination -- and an implied equality names the
constraints that entail it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..logic.sorts import INT
from ..logic.terms import App, IntLit, Term
from .result import Budget

__all__ = ["LinearExpr", "linearize", "LinearSolver", "LinearConstraint"]


@dataclass(frozen=True)
class LinearExpr:
    """A linear expression ``sum(coeff * atom) + constant``."""

    coeffs: tuple[tuple[Term, Fraction], ...] = ()
    constant: Fraction = Fraction(0)

    @staticmethod
    def of_constant(value: int | Fraction) -> "LinearExpr":
        return LinearExpr((), Fraction(value))

    @staticmethod
    def of_atom(atom: Term) -> "LinearExpr":
        return LinearExpr(((atom, Fraction(1)),), Fraction(0))

    def _as_dict(self) -> dict[Term, Fraction]:
        return dict(self.coeffs)

    @staticmethod
    def _from_dict(coeffs: dict[Term, Fraction], constant: Fraction) -> "LinearExpr":
        items = tuple(
            (atom, coeff)
            for atom, coeff in sorted(coeffs.items(), key=lambda kv: repr(kv[0]))
            if coeff != 0
        )
        return LinearExpr(items, constant)

    def add(self, other: "LinearExpr") -> "LinearExpr":
        coeffs = self._as_dict()
        for atom, coeff in other.coeffs:
            coeffs[atom] = coeffs.get(atom, Fraction(0)) + coeff
        return LinearExpr._from_dict(coeffs, self.constant + other.constant)

    def scale(self, factor: int | Fraction) -> "LinearExpr":
        factor = Fraction(factor)
        if not factor:
            return LinearExpr((), Fraction(0))
        # A non-zero factor keeps every coefficient non-zero and the atom
        # order, so the result needs no re-normalising.
        coeffs = tuple((atom, coeff * factor) for atom, coeff in self.coeffs)
        return LinearExpr(coeffs, self.constant * factor)

    def sub(self, other: "LinearExpr") -> "LinearExpr":
        return self.add(other.scale(-1))

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def atoms(self) -> tuple[Term, ...]:
        return tuple(atom for atom, _ in self.coeffs)

    def coefficient(self, atom: Term) -> Fraction:
        for a, c in self.coeffs:
            if a == atom:
                return c
        return Fraction(0)


def linearize(term: Term) -> LinearExpr:
    """Convert an integer-sorted term into a linear expression.

    Non-linear subterms (products of two non-constant terms, ``div``/``mod``
    applications) are treated as opaque atoms.
    """
    if isinstance(term, IntLit):
        return LinearExpr.of_constant(term.value)
    if isinstance(term, App):
        if term.op == "add":
            result = LinearExpr.of_constant(0)
            for arg in term.args:
                result = result.add(linearize(arg))
            return result
        if term.op == "sub":
            return linearize(term.args[0]).sub(linearize(term.args[1]))
        if term.op == "neg":
            return linearize(term.args[0]).scale(-1)
        if term.op == "mul":
            left, right = term.args
            left_lin = linearize(left)
            right_lin = linearize(right)
            if left_lin.is_constant:
                return right_lin.scale(left_lin.constant)
            if right_lin.is_constant:
                return left_lin.scale(right_lin.constant)
            return LinearExpr.of_atom(term)
    if term.sort != INT:
        raise ValueError(f"cannot linearise non-integer term {term}")
    return LinearExpr.of_atom(term)


@lru_cache(maxsize=65536)
def _difference(left: Term, right: Term) -> LinearExpr:
    """``left - right`` as a linear expression (the theory checker asserts
    the same atoms once per boolean model)."""
    return linearize(left).sub(linearize(right))


@dataclass(frozen=True)
class LinearConstraint:
    """A constraint ``expr <= 0`` (``is_equality`` makes it ``expr = 0``),
    justified by ``tags``."""

    expr: LinearExpr
    is_equality: bool = False
    tags: frozenset = frozenset()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        relation = "=" if self.is_equality else "<="
        parts = [f"{coeff}*{atom}" for atom, coeff in self.expr.coeffs]
        parts.append(str(self.expr.constant))
        return " + ".join(parts) + f" {relation} 0"


class LinearSolver:
    """Conjunction of linear constraints with Fourier-Motzkin feasibility.

    ``deadline`` is an optional :class:`Budget` polled during elimination:
    Fourier-Motzkin can square the row count per round, and the constraint
    cap alone does not bound the *time* a round spends combining very wide
    rows.  When the deadline expires mid-elimination the solver raises
    :class:`~repro.provers.result.BudgetExpired`, which the prover wrapper
    converts into a TIMEOUT outcome -- so provers actually honour their
    per-sequent timeout instead of overshooting it by orders of magnitude.
    """

    def __init__(
        self, max_constraints: int = 4000, deadline: Budget | None = None
    ) -> None:
        self.constraints: list[LinearConstraint] = []
        self.max_constraints = max_constraints
        self.deadline = deadline

    def copy(self) -> "LinearSolver":
        clone = LinearSolver(self.max_constraints, self.deadline)
        clone.constraints = list(self.constraints)
        return clone

    # -- constraint entry -------------------------------------------------------

    def add_le(self, expr: LinearExpr, tags: frozenset = frozenset()) -> None:
        """Add ``expr <= 0``."""
        self.constraints.append(LinearConstraint(expr, False, tags))

    def add_eq(self, expr: LinearExpr, tags: frozenset = frozenset()) -> None:
        """Add ``expr = 0``."""
        self.constraints.append(LinearConstraint(expr, True, tags))

    def add_le_terms(
        self, left: Term, right: Term, tags: frozenset = frozenset()
    ) -> None:
        """Add ``left <= right``."""
        self.add_le(_difference(left, right), tags)

    def add_lt_terms(
        self, left: Term, right: Term, tags: frozenset = frozenset()
    ) -> None:
        """Add ``left < right`` (integer-tightened to ``left + 1 <= right``)."""
        difference = _difference(left, right)
        self.add_le(LinearExpr(difference.coeffs, difference.constant + 1), tags)

    def add_eq_terms(
        self, left: Term, right: Term, tags: frozenset = frozenset()
    ) -> None:
        """Add ``left = right``."""
        self.add_eq(_difference(left, right), tags)

    # -- feasibility ------------------------------------------------------------

    def is_infeasible(self) -> bool:
        """True when the constraint set is infeasible over the rationals.

        Returns False both when feasible and when the elimination exceeds the
        constraint budget (the sound direction for a refutation prover).
        """
        return self.explain_infeasible() is not None

    def explain_infeasible(self) -> frozenset | None:
        """The tags of the constraints combined into an infeasible constant
        row, or None when :meth:`is_infeasible` would say False."""
        try:
            return self._check_infeasible()
        except _BudgetExceeded:
            return None

    def entails_le(self, expr: LinearExpr) -> bool:
        """True when the constraints entail ``expr <= 0`` (over integers).

        The one-sided boolean query of this class's public API; the theory
        checker needs the tags and goes through :meth:`entails_eq`.
        """
        return self._entailment(expr) is not None

    def _entailment(self, expr: LinearExpr) -> frozenset | None:
        """The tags behind ``expr <= 0``, or None when it is not entailed."""
        probe = self.copy()
        # Negation over integers: expr >= 1, i.e. 1 - expr <= 0.
        probe.add_le(LinearExpr.of_constant(1).sub(expr), _PROBE_TAGS)
        tags = probe.explain_infeasible()
        return None if tags is None else tags - _PROBE_TAGS

    def entails_eq(self, left: Term, right: Term) -> frozenset | None:
        """The tags behind ``left = right``, or None when the constraints do
        not entail it."""
        difference = _difference(left, right)
        below = self._entailment(difference)
        if below is None:
            return None
        above = self._entailment(difference.scale(-1))
        return None if above is None else below | above

    def implied_equalities(
        self, atoms: list[Term]
    ) -> list[tuple[Term, Term, frozenset]]:
        """Pairs among ``atoms`` that the constraints force to be equal, each
        with the tags behind it.

        Used for the Nelson-Oppen style exchange with congruence closure.
        The quadratic pairwise check is capped to keep the cost bounded.
        """
        pairs: list[tuple[Term, Term, frozenset]] = []
        limit = 6
        atoms = atoms[:limit]
        for i, left in enumerate(atoms):
            for right in atoms[i + 1:]:
                tags = self.entails_eq(left, right)
                if tags is not None:
                    pairs.append((left, right, tags))
        return pairs

    # -- Fourier-Motzkin ---------------------------------------------------------

    def _normalised(self) -> list[tuple[LinearExpr, frozenset]]:
        """Expand equalities into inequality pairs; returns ``expr <= 0`` rows
        with their tags."""
        rows: list[tuple[LinearExpr, frozenset]] = []
        for constraint in self.constraints:
            rows.append((constraint.expr, constraint.tags))
            if constraint.is_equality:
                rows.append((constraint.expr.scale(-1), constraint.tags))
        return rows

    def _check_infeasible(self) -> frozenset | None:
        rows = self._normalised()
        # Iteratively eliminate atoms.
        while True:
            if self.deadline is not None:
                self.deadline.check()
            # Constant rows decide immediately.
            pending: list[tuple[LinearExpr, frozenset]] = []
            for row in rows:
                expr, tags = row
                if expr.is_constant:
                    if expr.constant.numerator > 0:
                        return tags
                else:
                    pending.append(row)
            rows = pending
            if not rows:
                return None
            atom = self._pick_atom(rows)
            rows = self._eliminate(rows, atom)
            if len(rows) > self.max_constraints:
                raise _BudgetExceeded()

    @staticmethod
    def _pick_atom(rows: list[tuple[LinearExpr, frozenset]]) -> Term:
        occurrences: dict[Term, tuple[int, int]] = {}
        for row, _ in rows:
            for atom, coeff in row.coeffs:
                pos, neg = occurrences.get(atom, (0, 0))
                if coeff.numerator > 0:
                    pos += 1
                else:
                    neg += 1
                occurrences[atom] = (pos, neg)
        return min(occurrences, key=lambda a: occurrences[a][0] * occurrences[a][1])

    def _eliminate(
        self, rows: list[tuple[LinearExpr, frozenset]], atom: Term
    ) -> list[tuple[LinearExpr, frozenset]]:
        upper: list[tuple[LinearExpr, frozenset]] = []  # coeff > 0 (atom <= ...)
        lower: list[tuple[LinearExpr, frozenset]] = []  # coeff < 0 (atom >= ...)
        rest: list[tuple[LinearExpr, frozenset]] = []
        for row in rows:
            expr, tags = row
            coeff = expr.coefficient(atom)
            # Signs via the numerator: a Fraction comparison costs far more.
            if coeff.numerator > 0:
                upper.append((expr.scale(Fraction(1) / coeff), tags))
            elif coeff.numerator < 0:
                lower.append((expr.scale(Fraction(1) / -coeff), tags))
            else:
                rest.append(row)
        ticks = 0
        for up, up_tags in upper:
            for low, low_tags in lower:
                ticks += 1
                if self.deadline is not None and not ticks & 0xFF:
                    self.deadline.check()
                coeffs = up._as_dict()
                for a, c in low.coeffs:
                    coeffs[a] = coeffs.get(a, 0) + c
                # ``atom`` cancels by construction.
                del coeffs[atom]
                combined = LinearExpr._from_dict(coeffs, up.constant + low.constant)
                rest.append((combined, up_tags | low_tags))
        return rest


class _BudgetExceeded(Exception):
    pass


#: Tags the negated goal of an entailment probe, so the probe row can be
#: dropped from the explanation.
_PROBE_TAGS = frozenset((object(),))
