"""Reference oracle for the theory checker: the combined EUF + LIA
procedure without tags, over plain Fourier-Motzkin.

``reference_consistent`` runs the checker's combination loop -- same
literal translation, same shared positions, equalities exchanged until
neither solver has a new one, every pair of shared atoms probed -- but
decides arithmetic with :class:`PlainLinearSolver`, the Fourier-Motzkin
elimination ``repro.provers.lia`` used before its simplex, and probes
every pair instead of only the pairs that agree in a model.  So
``TheoryChecker().check(literals) is None`` must hold exactly when
:func:`reference_consistent` returns True, as long as no elimination
exceeds the row cap.

:class:`PlainLinearSolver` re-normalises every scaling and combination
through ``LinearExpr._from_dict``, so it does not move with the solver's
shortcuts.  ``test_simplex.py`` holds ``LinearSolver`` to it system by
system: the same verdicts, and explanations the reference refutes.  The
congruence closure is the production one: its proof forest is
bookkeeping beside the union-find, whose merges are unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from repro.logic.clauses import Literal
from repro.logic.sorts import INT
from repro.logic.terms import App, BoolLit, IntLit, Term, subterms
from repro.provers.euf import CongruenceClosure
from repro.provers.lia import LinearExpr
from repro.provers.result import Budget

_TRUE = BoolLit(True)
_FALSE = BoolLit(False)


def reference_consistent(literals: list[Literal], budget: Budget | None = None) -> bool:
    """True when the combined EUF + LIA procedure finds ``literals``
    consistent."""
    if budget is not None:
        budget.check()
    closure = CongruenceClosure()
    arithmetic = PlainLinearSolver(deadline=budget)
    closure.assert_distinct(_TRUE, _FALSE)
    int_terms: set[Term] = set()
    shared_atoms: set[Term] = set()

    for literal in literals:
        atom = literal.atom
        if isinstance(atom, BoolLit):
            if atom.value != literal.positive:
                return False
            continue
        if isinstance(atom, App) and atom.op == "eq":
            left, right = atom.args
            if literal.positive:
                closure.assert_equal(left, right)
                if left.sort == INT:
                    arithmetic.add_eq_terms(left, right)
            else:
                closure.assert_distinct(left, right)
            _collect(left, int_terms, shared_atoms)
            _collect(right, int_terms, shared_atoms)
            continue
        if isinstance(atom, App) and atom.op in ("le", "lt"):
            left, right = atom.args
            if literal.positive:
                if atom.op == "le":
                    arithmetic.add_le_terms(left, right)
                else:
                    arithmetic.add_lt_terms(left, right)
            else:
                if atom.op == "le":
                    arithmetic.add_lt_terms(right, left)
                else:
                    arithmetic.add_le_terms(right, left)
            _collect(left, int_terms, shared_atoms)
            _collect(right, int_terms, shared_atoms)
            continue
        closure.assert_equal(atom, _TRUE if literal.positive else _FALSE)
        _collect(atom, int_terms, shared_atoms)

    for term in int_terms | shared_atoms:
        closure.intern(term)

    if closure.check() is not None:
        return False
    if arithmetic.is_infeasible():
        return False

    known_pairs: set[tuple[Term, Term]] = set()
    int_term_list = sorted(int_terms, key=repr)
    shared_list = sorted(shared_atoms, key=repr)
    changed = True
    while changed:
        if budget is not None:
            budget.check()
        changed = False
        for left, right in closure.implied_equalities(int_term_list):
            key = (left, right)
            if key in known_pairs:
                continue
            known_pairs.add(key)
            arithmetic.add_eq_terms(left, right)
            changed = True
        if arithmetic.is_infeasible():
            return False
        for left, right in arithmetic.implied_equalities(shared_list):
            if closure.are_equal(left, right):
                continue
            closure.assert_equal(left, right)
            changed = True
        if closure.check() is not None:
            return False
    return True


def _collect(term: Term, int_terms: set[Term], shared_atoms: set[Term]) -> None:
    for sub in subterms(term):
        if sub.sort == INT and not isinstance(sub, IntLit):
            int_terms.add(sub)
        if isinstance(sub, App):
            if sub.op == "select" or not sub.is_interpreted:
                for arg in sub.args:
                    if arg.sort == INT:
                        shared_atoms.add(arg)


# ---------------------------------------------------------------------------
# Plain Fourier-Motzkin
# ---------------------------------------------------------------------------


def plain_scale(expr: LinearExpr, factor) -> LinearExpr:
    factor = Fraction(factor)
    coeffs = {atom: coeff * factor for atom, coeff in expr.coeffs}
    return LinearExpr._from_dict(coeffs, expr.constant * factor)


def plain_sub(left: LinearExpr, right: LinearExpr) -> LinearExpr:
    return left.add(plain_scale(right, -1))


def plain_linearize(term: Term) -> LinearExpr:
    if isinstance(term, IntLit):
        return LinearExpr.of_constant(term.value)
    if isinstance(term, App):
        if term.op == "add":
            result = LinearExpr.of_constant(0)
            for arg in term.args:
                result = result.add(plain_linearize(arg))
            return result
        if term.op == "sub":
            return plain_sub(
                plain_linearize(term.args[0]), plain_linearize(term.args[1])
            )
        if term.op == "neg":
            return plain_scale(plain_linearize(term.args[0]), -1)
        if term.op == "mul":
            left, right = (plain_linearize(arg) for arg in term.args)
            if left.is_constant:
                return plain_scale(right, left.constant)
            if right.is_constant:
                return plain_scale(left, right.constant)
            return LinearExpr.of_atom(term)
    if term.sort != INT:
        raise ValueError(f"cannot linearise non-integer term {term}")
    return LinearExpr.of_atom(term)


def plain_pick_atom(rows: list[LinearExpr]) -> tuple[Term, int, int]:
    """The atom whose elimination builds the fewest upper x lower rows,
    with the number of rows where it has a positive and a negative
    coefficient."""
    occurrences: dict[Term, tuple[int, int]] = {}
    for row in rows:
        for atom, coeff in row.coeffs:
            pos, neg = occurrences.get(atom, (0, 0))
            if coeff > 0:
                pos += 1
            else:
                neg += 1
            occurrences[atom] = (pos, neg)
    atom = min(occurrences, key=lambda a: occurrences[a][0] * occurrences[a][1])
    return (atom, *occurrences[atom])


def plain_eliminate(rows: list[LinearExpr], atom: Term) -> list[LinearExpr]:
    upper: list[LinearExpr] = []
    lower: list[LinearExpr] = []
    rest: list[LinearExpr] = []
    for row in rows:
        coeff = row.coefficient(atom)
        if coeff > 0:
            upper.append(plain_scale(row, Fraction(1) / coeff))
        elif coeff < 0:
            lower.append(plain_scale(row, Fraction(1) / -coeff))
        else:
            rest.append(row)
    for up in upper:
        for low in lower:
            combined = up.add(low)
            coeffs = {a: c for a, c in combined.coeffs if a != atom}
            rest.append(LinearExpr._from_dict(coeffs, combined.constant))
    return rest


class _BudgetExceeded(Exception):
    pass


class PlainLinearSolver:
    """Rows ``expr <= 0`` (equalities expanded into two), eliminated atom
    by atom until a constant row decides."""

    def __init__(
        self, max_constraints: int = 4000, deadline: Budget | None = None
    ) -> None:
        self.constraints: list[tuple[LinearExpr, bool]] = []
        self.max_constraints = max_constraints
        self.deadline = deadline

    def copy(self) -> "PlainLinearSolver":
        clone = PlainLinearSolver(self.max_constraints, self.deadline)
        clone.constraints = list(self.constraints)
        return clone

    def add_le(self, expr: LinearExpr) -> None:
        self.constraints.append((expr, False))

    def add_eq(self, expr: LinearExpr) -> None:
        self.constraints.append((expr, True))

    def add_le_terms(self, left: Term, right: Term) -> None:
        self.add_le(plain_sub(plain_linearize(left), plain_linearize(right)))

    def add_lt_terms(self, left: Term, right: Term) -> None:
        difference = plain_sub(plain_linearize(left), plain_linearize(right))
        self.add_le(difference.add(LinearExpr.of_constant(1)))

    def add_eq_terms(self, left: Term, right: Term) -> None:
        self.add_eq(plain_sub(plain_linearize(left), plain_linearize(right)))

    def decide(self) -> bool | None:
        """True when infeasible, False when feasible, None when the
        elimination exceeds the row cap."""
        try:
            return self._check_infeasible()
        except _BudgetExceeded:
            return None

    def is_infeasible(self) -> bool:
        return self.decide() is True

    def entails_le(self, expr: LinearExpr) -> bool:
        probe = self.copy()
        probe.add_le(plain_sub(LinearExpr.of_constant(1), expr))
        return probe.is_infeasible()

    def entails_eq(self, left: Term, right: Term) -> bool:
        difference = plain_sub(plain_linearize(left), plain_linearize(right))
        return self.entails_le(difference) and self.entails_le(
            plain_scale(difference, -1)
        )

    def implied_equalities(self, atoms: list[Term]) -> list[tuple[Term, Term]]:
        return [
            (left, right)
            for i, left in enumerate(atoms)
            for right in atoms[i + 1 :]
            if self.entails_eq(left, right)
        ]

    def rows(self) -> list[LinearExpr]:
        rows: list[LinearExpr] = []
        for expr, is_equality in self.constraints:
            rows.append(expr)
            if is_equality:
                rows.append(plain_scale(expr, -1))
        return rows

    def _check_infeasible(self) -> bool:
        rows = self.rows()
        while True:
            if self.deadline is not None:
                self.deadline.check()
            pending: list[LinearExpr] = []
            for row in rows:
                if row.is_constant:
                    if row.constant > 0:
                        return True
                else:
                    pending.append(row)
            rows = pending
            if not rows:
                return False
            atom, pos, neg = plain_pick_atom(rows)
            # Elimination keeps the rows without the atom and builds one
            # row per upper x lower pair: refuse before building them.
            if len(rows) - pos - neg + pos * neg > self.max_constraints:
                raise _BudgetExceeded()
            rows = plain_eliminate(rows, atom)
