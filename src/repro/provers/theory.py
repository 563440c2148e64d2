"""Ground theory reasoning: EUF + linear integer arithmetic combination.

The :class:`TheoryChecker` decides (soundly, incompletely) whether a
conjunction of ground literals is consistent with the combined theory of

* equality with uninterpreted functions (congruence closure),
* linear integer arithmetic (simplex, :mod:`repro.provers.lia`),

exchanging equalities between the two solvers in a Nelson-Oppen loop that
runs until neither solver has a new equality for the other.

It is the theory of the SMT-lite prover's DPLL(T) search (Nieuwenhuis,
Oliveras & Tinelli, "Solving SAT and SAT Modulo Theories", JACM 2006), and
follows the SAT solver's trail:

* :meth:`TheoryChecker.register` handles each atom once: it interns the
  atom's terms in the one congruence closure, and records its integer and
  shared positions and the linear forms its literals bound;
* :meth:`TheoryChecker.assert_literal` then only merges two classes, adds
  a disequality or tightens a bound (compiled once, when a literal is
  first asserted, which gives its linear form a simplex row), and
  :meth:`TheoryChecker.push` and :meth:`TheoryChecker.backtrack` follow
  the solver's decision levels;
* :meth:`TheoryChecker.conflict` runs the cheap checks -- the congruence
  closure's disequalities and distinct literals, then the simplex -- each
  time unit propagation settles;
* :meth:`TheoryChecker.check` is the final check of a full assignment: the
  cheap checks, then the equality exchange.  On a new checker, given the
  literals, it decides a conjunction on its own.

Both solvers explain their conflicts: every literal is asserted with its
position among the asserted literals as tag, an equality exchanged between
the solvers carries the tags the other solver derived it from, and the
conflict core is the set of literals whose tags the failing solver
reports.  One run of the procedure therefore yields both the verdict and
the core.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from ..logic.clauses import Literal
from ..logic.sorts import INT
from ..logic.terms import App, BoolLit, IntLit, Term, subterms
from .euf import CongruenceClosure
from .lia import LinearConstraint, LinearExpr, LinearSolver, _difference
from .result import Budget

__all__ = ["TheoryChecker", "TheoryConflict"]


@dataclass
class TheoryConflict:
    """An inconsistent subset of the checked literals."""

    core: list[Literal]
    reason: str


_TRUE = BoolLit(True)
_FALSE = BoolLit(False)


class _Atom:
    """What :meth:`TheoryChecker.register` records of one atom.

    ``left`` / ``right`` are an equation's or inequality's sides (``left``
    is the atom itself for any other atom).  ``forms`` holds the linear
    forms the positive and the negative literal bound (``= 0`` for an
    equation, ``<= 0`` otherwise; None where the literal says nothing
    arithmetic), and ``bounds`` their compiled bounds, filled in when the
    literal is first asserted: that gives a form its simplex row only if
    the search ever asserts it.
    """

    __slots__ = ("equation", "left", "right", "forms", "bounds", "ints", "shared")

    def __init__(self, equation, left, right, forms, ints, shared) -> None:
        self.equation = equation
        self.left = left
        self.right = right
        self.forms = forms
        self.bounds = [None, None]
        self.ints = ints
        self.shared = shared


class TheoryChecker:
    """Consistency checking for conjunctions of ground theory literals,
    asserted one at a time and backtracked by decision level."""

    def __init__(self, budget: Budget | None = None) -> None:
        self.closure = CongruenceClosure()
        self.arithmetic = LinearSolver(deadline=budget)
        self.closure.assert_distinct(_TRUE, _FALSE)
        #: The asserted literals; a literal's tag is its position here.
        self.literals: list[Literal] = []
        self._atoms: dict[Term, _Atom] = {}
        # Per pushed level: the literal count and the two solvers' marks.
        self._marks: list[tuple] = []

    # -- registration -------------------------------------------------------------

    def register(self, atom: Term) -> _Atom:
        """Prepare ``atom`` for assertion (once; at level 0, since the
        congruence closure keeps what it interns)."""
        info = self._atoms.get(atom)
        if info is not None:
            return info
        if self._marks:
            raise ValueError(f"atom {atom} registered above level 0")
        closure = self.closure
        if isinstance(atom, App) and atom.op in ("eq", "le", "lt"):
            left, right = atom.args
            ints, shared = _int_positions(left)
            right_ints, right_shared = _int_positions(right)
            ints, shared = ints + right_ints, shared + right_shared
            if atom.op == "eq":
                closure.intern(left)
                closure.intern(right)
                forms = None
                if left.sort == INT:
                    forms = (_difference(left, right), None)
                info = _Atom(True, left, right, forms, ints, shared)
            else:
                for term in ints + shared:
                    closure.intern(term)
                # ~(l <= r)  ==  r < l ;  ~(l < r)  ==  r <= l
                below, above = _difference(left, right), _difference(right, left)
                if atom.op == "le":
                    forms = (below, _plus_one(above))
                else:
                    forms = (_plus_one(below), above)
                info = _Atom(False, left, right, forms, ints, shared)
        else:
            # Any other atom (membership in an opaque set variable, an
            # uninterpreted predicate, a boolean field read, ...) is an
            # equation with the boolean constants in EUF.
            closure.intern(atom)
            ints, shared = _int_positions(atom)
            info = _Atom(False, atom, None, None, ints, shared)
        self._atoms[atom] = info
        return info

    # -- the trail ----------------------------------------------------------------

    @property
    def level(self) -> int:
        """The number of pushed levels."""
        return len(self._marks)

    def push(self) -> None:
        """Open a level: :meth:`backtrack` returns to this state."""
        self._marks.append(
            (
                len(self.literals),
                self.closure.checkpoint(),
                self.arithmetic.checkpoint(),
            )
        )

    def backtrack(self, level: int) -> None:
        """Drop every level above ``level`` and what was asserted in them."""
        if level >= len(self._marks):
            return
        count, closure_mark, arithmetic_mark = self._marks[level]
        del self._marks[level:]
        del self.literals[count:]
        self.closure.backtrack(closure_mark)
        self.arithmetic.backtrack(arithmetic_mark)

    def assert_literal(self, literal: Literal) -> None:
        """Assert ``literal`` at the current level."""
        info = self._atoms.get(literal.atom) or self.register(literal.atom)
        tags = frozenset((len(self.literals),))
        self.literals.append(literal)
        positive = literal.positive
        if info.right is None:
            self.closure.assert_equal(info.left, _TRUE if positive else _FALSE, tags)
        elif info.equation:
            if positive:
                self.closure.assert_equal(info.left, info.right, tags)
                if info.forms is not None:
                    self._assert_bounds(info, 0, tags)
            else:
                # Integer disequalities are split at the boolean level by
                # the encoder; here they only inform EUF.
                self.closure.assert_distinct(info.left, info.right, tags)
        else:
            self._assert_bounds(info, 1 - positive, tags)

    def _assert_bounds(self, info: _Atom, side: int, tags: frozenset) -> None:
        form = info.forms[side]
        compiled = info.bounds[side]
        if compiled is None:
            compiled = self.arithmetic.bounds_of(form, info.equation)
            info.bounds[side] = compiled
        self.arithmetic.add_constraint(
            LinearConstraint(form, info.equation, tags), compiled
        )

    # -- consistency --------------------------------------------------------------

    def conflict(self) -> TheoryConflict | None:
        """The cheap checks: congruence closure, then the simplex."""
        conflict = self.closure.check()
        if conflict is not None:
            return self._explained(conflict.explanation)
        return self._explained(self.arithmetic.explain_infeasible())

    def check(
        self, literals: Sequence[Literal] = (), budget: Budget | None = None
    ) -> TheoryConflict | None:
        """Assert ``literals``, then run the final check: a conflict (with
        its explained core) or None if the asserted literals are
        consistent."""
        if budget is not None:
            budget.check()
            self.arithmetic.deadline = budget
        for literal in literals:
            self.assert_literal(literal)
        return self._explained(self._final_conflict(budget))

    def _explained(self, core: frozenset | None) -> TheoryConflict | None:
        if core is None:
            return None
        return TheoryConflict(
            [self.literals[i] for i in sorted(core)], "EUF+LIA conflict"
        )

    def _final_conflict(self, budget: Budget | None) -> frozenset | None:
        """Tags of an inconsistent subset of the asserted literals, or None
        when the procedure finds them consistent.  What the equality
        exchange asserts stays at the current level."""
        closure, arithmetic = self.closure, self.arithmetic
        conflict = closure.check()
        if conflict is not None:
            return conflict.explanation
        core = arithmetic.explain_infeasible()
        if core is not None:
            return core

        int_terms: set[Term] = set()
        # Shared atom -> tags of the first literal that made it shared.
        shared_atoms: dict[Term, frozenset] = {}
        for index, literal in enumerate(self.literals):
            info = self._atoms[literal.atom]
            int_terms.update(info.ints)
            if info.shared:
                tags = frozenset((index,))
                for arg in info.shared:
                    shared_atoms.setdefault(arg, tags)

        # Nelson-Oppen style equality exchange; every exchanged equality
        # carries the tags the sending solver derived it from.  Each round
        # either adds a new pair of integer terms to LIA or merges two EUF
        # classes, so the loop ends.
        known_pairs: set[tuple[Term, Term]] = set()
        int_term_list = sorted(int_terms, key=repr)
        shared_list = sorted(shared_atoms, key=repr)
        changed = True
        while changed:
            if budget is not None:
                budget.check()
            changed = False
            # EUF -> LIA
            for left, right in closure.implied_equalities(int_term_list):
                key = (left, right)
                if key in known_pairs:
                    continue
                known_pairs.add(key)
                arithmetic.add_eq_terms(left, right, closure.explain(left, right))
                changed = True
            core = arithmetic.explain_infeasible()
            if core is not None:
                return core
            # LIA -> EUF (restricted to atoms that occur under uninterpreted
            # symbols, where new congruences can actually fire).  The
            # literals that made the two atoms shared join the explanation,
            # so the core still passes this restriction when it is checked
            # on its own.
            for left, right, tags in arithmetic.implied_equalities(shared_list):
                if closure.are_equal(left, right):
                    continue
                tags = tags | shared_atoms[left] | shared_atoms[right]
                closure.assert_equal(left, right, tags)
                changed = True
            conflict = closure.check()
            if conflict is not None:
                return conflict.explanation
        return None


def _plus_one(expr: LinearExpr) -> LinearExpr:
    """``expr + 1``: a strict integer inequality ``l < r`` is ``l - r + 1 <= 0``."""
    return LinearExpr(expr.coeffs, expr.constant + 1)


@lru_cache(maxsize=65536)
def _int_positions(term: Term) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The non-literal integer subterms of ``term`` and the integer
    arguments of its select / uninterpreted applications (literals
    included: ``heap[i]`` and ``heap[0]`` are congruent once ``i = 0``),
    in pre-order."""
    ints: list[Term] = []
    shared: list[Term] = []
    for sub in subterms(term):
        if sub.sort == INT and not isinstance(sub, IntLit):
            ints.append(sub)
        if isinstance(sub, App):
            # Arguments of select / uninterpreted applications are the
            # "shared" positions where arithmetic equalities can enable new
            # congruences.
            if sub.op == "select" or not sub.is_interpreted:
                for arg in sub.args:
                    if arg.sort == INT:
                        shared.append(arg)
    return tuple(ints), tuple(shared)
