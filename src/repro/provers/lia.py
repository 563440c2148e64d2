"""Linear integer arithmetic: linearisation and a simplex solver.

This component is the arithmetic theory of the SMT-lite prover and the
backend of the BAPA-style set-cardinality reasoner.  Integer-sorted terms
that are not themselves arithmetic (variables, ``select`` applications,
``card`` applications, uninterpreted function applications) are treated as
*atoms*, i.e. opaque integer unknowns.

Satisfiability is checked over the rationals by the general-form simplex
of Dutertre and de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)",
CAV 2006), in exact :class:`fractions.Fraction` arithmetic.  Because a
rationally infeasible system is certainly integer-infeasible, reporting
``infeasible`` is sound for refutation-based proving; integer-feasible-only
gaps merely make the prover incomplete (never unsound).  Strict integer
inequalities are tightened (``a < b`` becomes ``a + 1 <= b``) before the
rational check, which recovers most of the integer reasoning the benchmark
verification conditions need.

A constraint over one atom is a bound on that atom; any other constraint
is a bound on a slack variable that stands for its linear form, normalised
so the first coefficient is 1 (``x - y <= 0`` and ``y - x <= 3`` bound
the same slack).  Constraints may carry ``tags`` (a frozenset of opaque
tags), and each bound keeps the tags of the tightest constraint that set
it.  An infeasible tableau row names the bound it violates and the bounds
that block every variable that could repair it: the support of a Farkas
combination.  After a feasible check the solver keeps its model, and
:meth:`LinearSolver.implied_equalities` only probes the pairs of terms
whose values in it lie less than 1 apart.

The solver also follows a trail, as in the paper: :meth:`LinearSolver.bounds_of`
gives a linear form its row once, :meth:`LinearSolver.add_constraint` with
those bounds then only tightens bounds, and :meth:`LinearSolver.backtrack`
restores the constraints and bounds a :meth:`LinearSolver.checkpoint` saw.
Rows and the assignment stay: every row still holds, and looser bounds
leave every non-basic variable within its own, so the next check resumes
from there.
"""

from __future__ import annotations

import itertools
import operator
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
    """Conjunction of linear constraints, checked by a simplex tableau.

    Constraints are asserted into the tableau on the next query, so a
    solver that gains constraints between queries resumes from the last
    feasible assignment.  Bland's rule -- the smallest variable index,
    in order of first occurrence, both for the variable that leaves and
    for the one that enters the basis -- guarantees termination and makes
    every explanation a function of the constraints and their order.

    ``deadline`` is an optional :class:`Budget` polled every
    ``_PIVOTS_PER_POLL`` pivots.  When it expires mid-check the solver
    raises :class:`~repro.provers.result.BudgetExpired`, which the prover
    wrapper converts into a TIMEOUT outcome.
    """

    def __init__(self, deadline: Budget | None = None) -> None:
        self.constraints: list[LinearConstraint] = []
        self.deadline = deadline
        self._asserted = 0  # constraints already in the tableau
        self._conflict: frozenset | None = None
        self._index: dict = {}  # atom or normalised form -> variable
        self._value: list[Fraction] = []
        # Per variable: None or ``(bound, tags)``.
        self._lower: list[tuple[Fraction, frozenset] | None] = []
        self._upper: list[tuple[Fraction, frozenset] | None] = []
        # Basic variable -> its row over the non-basic variables.
        self._rows: dict[int, dict[int, Fraction]] = {}
        # The variables that may lie outside their bounds: a superset of the
        # violated basic variables (non-basic ones never are).
        self._dirty: set[int] = set()
        # Bound undo trail: ``(bounds, var, previous)``, or None where a
        # crossing bound set the conflict instead.
        self._trail: list[tuple | None] = []
        self._conflict_at = 0  # trail length when the conflict was found

    def copy(self) -> "LinearSolver":
        clone = LinearSolver(self.deadline)
        clone.constraints = list(self.constraints)
        clone._asserted = self._asserted
        clone._conflict = self._conflict
        clone._index = dict(self._index)
        clone._value = list(self._value)
        clone._lower = list(self._lower)
        clone._upper = list(self._upper)
        clone._rows = {basic: dict(row) for basic, row in self._rows.items()}
        clone._dirty = set(self._dirty)
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
        """True when the constraint set is infeasible over the rationals."""
        return self.explain_infeasible() is not None

    def explain_infeasible(self) -> frozenset | None:
        """The tags of the bounds behind an infeasible row, or None when
        the constraints are feasible."""
        while self._conflict is None and self._asserted < len(self.constraints):
            self._assert(self.constraints[self._asserted])
            self._asserted += 1
        if self._conflict is None:
            self._conflict = self._check()
            self._conflict_at = len(self._trail)
        return self._conflict

    # -- trail ------------------------------------------------------------------

    def checkpoint(self) -> tuple[int, int]:
        """A mark that :meth:`backtrack` returns to."""
        return len(self.constraints), len(self._trail)

    def backtrack(self, mark: tuple[int, int]) -> None:
        """Restore the constraints, the bounds and the conflict state of
        ``mark``; rows, the basis and the assignment stay."""
        count, position = mark
        del self.constraints[count:]
        self._asserted = min(self._asserted, count)
        trail = self._trail
        if self._conflict is not None and self._conflict_at > position:
            self._conflict = None
        while len(trail) > position:
            entry = trail.pop()
            if entry is not None:
                bounds, var, previous = entry
                bounds[var] = previous

    def bounds_of(self, expr: LinearExpr, is_equality: bool = False) -> tuple:
        """Compile ``expr <= 0`` (``expr = 0``) into ``(var, bound, upper,
        lower)``: the bounds it puts on ``var``, the variable of ``expr``'s
        linear form, which gets its row here when it is new.  A constant
        ``expr`` compiles to ``(None, None, violated, False)``."""
        if expr.is_constant:
            violated = expr.constant > 0 or bool(is_equality and expr.constant)
            return None, None, violated, False
        lead = expr.coeffs[0][1]
        if len(expr.coeffs) == 1:
            var = self._variable(expr.coeffs[0][0])
        elif lead == 1:
            var = self._slack(expr.coeffs)
        else:
            var = self._slack(tuple((atom, c / lead) for atom, c in expr.coeffs))
        # ``lead * var + constant <= 0`` bounds ``var`` by ``-constant / lead``.
        bound = -expr.constant / lead
        return var, bound, is_equality or lead > 0, is_equality or lead < 0

    def add_constraint(self, constraint: LinearConstraint, compiled: tuple) -> None:
        """Add ``constraint`` and assert it into the tableau at once, given
        its :meth:`bounds_of`; behind a conflict (or pending constraints)
        it waits for :meth:`explain_infeasible`, like any other."""
        self.constraints.append(constraint)
        if self._conflict is None and self._asserted == len(self.constraints) - 1:
            self._asserted += 1
            self._assert_bounds(compiled, constraint.tags)

    def _assert_bounds(self, compiled: tuple, tags: frozenset) -> None:
        var, bound, upper, lower = compiled
        if var is None:
            if upper:
                self._cross(tags)
            return
        if upper:
            self._bound(var, bound, tags, upper=True)
        if lower and self._conflict is None:
            self._bound(var, bound, tags, upper=False)

    def entails_le(self, expr: LinearExpr) -> bool:
        """True when the constraints entail ``expr <= 0`` (over integers).

        The one-sided boolean query of this class's public API; the theory
        checker needs the tags and goes through :meth:`entails_eq`.
        """
        return self._entailment(expr)[0] is not None

    def _entailment(self, expr: LinearExpr) -> tuple[frozenset | None, "LinearSolver"]:
        """The tags behind ``expr <= 0`` (None when it is not entailed),
        and the probe solver, which holds a countermodel in that case."""
        self.explain_infeasible()
        probe = self.copy()
        # Negation over integers: expr >= 1, i.e. 1 - expr <= 0.
        probe.add_le(LinearExpr.of_constant(1).sub(expr), _PROBE_TAGS)
        tags = probe.explain_infeasible()
        return (None if tags is None else tags - _PROBE_TAGS), probe

    def entails_eq(self, left: Term, right: Term) -> frozenset | None:
        """The tags behind ``left = right``, or None when the constraints do
        not entail it."""
        return self._entails_difference(_difference(left, right))[0]

    def _entails_difference(
        self, difference: LinearExpr
    ) -> tuple[frozenset | None, "LinearSolver"]:
        below, probe = self._entailment(difference)
        if below is None:
            return None, probe
        above, probe = self._entailment(difference.scale(-1))
        return (None if above is None else below | above), probe

    def implied_equalities(
        self, atoms: list[Term]
    ) -> list[tuple[Term, Term, frozenset]]:
        """Pairs among ``atoms`` that the constraints force to be equal, each
        with the tags behind it.

        Used for the Nelson-Oppen style exchange with congruence closure.
        ``left - right = 0`` is entailed when the probes refute both
        ``left - right >= 1`` and ``left - right <= -1``, so in every model
        of an entailed pair the two values lie less than 1 apart.  A pair
        whose values lie further apart in the current model, or in the
        countermodel of an earlier failed probe, is skipped unprobed.
        """
        conflict = self.explain_infeasible()
        if conflict is not None:
            return [(l, r, conflict) for l, r in itertools.combinations(atoms, 2)]
        forms = [linearize(atom) for atom in atoms]
        models = [self._evaluate(forms)]
        pairs: list[tuple[Term, Term, frozenset]] = []
        for i, j in itertools.combinations(range(len(atoms)), 2):
            if any(abs(model[i] - model[j]) >= 1 for model in models):
                continue
            tags, probe = self._entails_difference(forms[i].sub(forms[j]))
            if tags is None:
                models.append(probe._evaluate(forms))
            else:
                pairs.append((atoms[i], atoms[j], tags))
        return pairs

    def _evaluate(self, forms: list[LinearExpr]) -> list[Fraction]:
        """Each form's value in the current model, where atoms no
        constraint mentions are free and take 0."""
        values = []
        for form in forms:
            value = form.constant
            for atom, coeff in form.coeffs:
                var = self._index.get(atom)
                if var is not None:
                    value += coeff * self._value[var]
            values.append(value)
        return values

    # -- simplex ----------------------------------------------------------------

    def _variable(self, key) -> int:
        var = self._index.get(key)
        if var is None:
            var = self._index[key] = len(self._value)
            self._value.append(_ZERO)
            self._lower.append(None)
            self._upper.append(None)
        return var

    def _assert(self, constraint: LinearConstraint) -> None:
        self._assert_bounds(
            self.bounds_of(constraint.expr, constraint.is_equality), constraint.tags
        )

    def _cross(self, tags: frozenset) -> None:
        """Record a conflict found while asserting, so that backtracking
        past that assertion clears it."""
        self._trail.append(None)
        self._conflict = tags
        self._conflict_at = len(self._trail)

    def _slack(self, form: tuple[tuple[Term, Fraction], ...]) -> int:
        """The variable standing for ``form``, given a tableau row when new."""
        if form in self._index:
            return self._index[form]
        row: dict[int, Fraction] = {}
        value = _ZERO
        for atom, coeff in form:
            var = self._variable(atom)
            value += coeff * self._value[var]
            for other, c in (self._rows.get(var) or {var: _ONE}).items():
                total = row.get(other, 0) + coeff * c
                if total:
                    row[other] = total
                else:
                    row.pop(other, None)
        slack = self._variable(form)
        self._value[slack] = value
        self._rows[slack] = row
        return slack

    def _bound(self, var: int, bound: Fraction, tags: frozenset, upper: bool) -> None:
        """Tighten one side of ``var``'s bounds to ``bound``; a looser bound
        is dropped, a crossing one is a conflict."""
        # ``beyond(a, b)``: ``a`` lies past ``b`` on this side.
        if upper:
            same, other, beyond = self._upper, self._lower, operator.gt
        else:
            same, other, beyond = self._lower, self._upper, operator.lt
        current = same[var]
        if current is not None and not beyond(current[0], bound):
            return
        opposite = other[var]
        if opposite is not None and beyond(opposite[0], bound):
            self._cross(tags | opposite[1])
            return
        self._trail.append((same, var, current))
        same[var] = (bound, tags)
        if var in self._rows:
            self._dirty.add(var)
        elif beyond(self._value[var], bound):
            self._update(var, bound)

    def _update(self, var: int, value: Fraction) -> None:
        """Move non-basic ``var`` to ``value``, keeping every row satisfied."""
        delta = value - self._value[var]
        for basic, row in self._rows.items():
            coeff = row.get(var)
            if coeff is not None:
                self._value[basic] += coeff * delta
                self._dirty.add(basic)
        self._value[var] = value

    def _check(self) -> frozenset | None:
        """Repair the assignment until every bound holds (None) or a row
        cannot be repaired (the tags of its blocking bounds)."""
        pivots = 0
        dirty = self._dirty
        while True:
            leaving = None
            settled = []
            for basic in dirty:
                value = self._value[basic]
                lower, upper = self._lower[basic], self._upper[basic]
                if (lower is not None and value < lower[0]) or (
                    upper is not None and value > upper[0]
                ):
                    if leaving is None or basic < leaving:
                        leaving = basic
                else:
                    settled.append(basic)
            dirty.difference_update(settled)
            if leaving is None:
                return None
            row = self._rows[leaving]
            lower = self._lower[leaving]
            increase = lower is not None and self._value[leaving] < lower[0]
            target = lower if increase else self._upper[leaving]
            # Raising the row needs a variable with a positive coefficient
            # below its upper bound, or a negative one above its lower
            # bound (mirrored for lowering it); the others are blocked.
            blocked = []
            entering = None
            for var, coeff in row.items():
                up = (coeff > 0) == increase
                bound = self._upper[var] if up else self._lower[var]
                if bound is not None and self._value[var] == bound[0]:
                    blocked.append(bound[1])
                elif entering is None or var < entering:
                    entering = var
            if entering is None:
                return target[1].union(*blocked)
            self._pivot(leaving, entering, target[0])
            pivots += 1
            if self.deadline is not None and not pivots % _PIVOTS_PER_POLL:
                self.deadline.check()

    def _pivot(self, leaving: int, entering: int, value: Fraction) -> None:
        """Set basic ``leaving`` to ``value`` by moving ``entering``, then
        swap the two in the basis."""
        row = self._rows.pop(leaving)
        coeff = row.pop(entering)
        theta = (value - self._value[leaving]) / coeff
        self._value[leaving] = value
        self._value[entering] += theta
        # entering = (leaving - rest of row) / coeff
        solved = {var: -c / coeff for var, c in row.items()}
        solved[leaving] = 1 / coeff
        self._dirty.add(entering)
        for basic, other in self._rows.items():
            factor = other.pop(entering, None)
            if factor is None:
                continue
            self._value[basic] += factor * theta
            self._dirty.add(basic)
            for var, c in solved.items():
                total = other.get(var, 0) + factor * c
                if total:
                    other[var] = total
                else:
                    del other[var]
        self._rows[entering] = solved


_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Pivots between two polls of the deadline.
_PIVOTS_PER_POLL = 16

#: Tags the negated goal of an entailment probe, so the probe row can be
#: dropped from the explanation.
_PROBE_TAGS = frozenset((object(),))
