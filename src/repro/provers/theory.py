"""Ground theory reasoning: EUF + linear integer arithmetic combination.

The :class:`TheoryChecker` decides (soundly, incompletely) whether a
conjunction of ground literals is consistent with the combined theory of

* equality with uninterpreted functions (congruence closure),
* linear integer arithmetic (simplex, :mod:`repro.provers.lia`),

exchanging equalities between the two solvers in a Nelson-Oppen loop that
runs until neither solver has a new equality for the other.  It is used as
the theory backend of the lazy SMT-lite prover: the SAT core proposes a
boolean model, the checker either accepts it or returns a conflicting
subset of literals that is turned into a blocking clause.

Both solvers explain their conflicts: every literal is asserted with its
index as tag, an equality exchanged between the solvers carries the tags the
other solver derived it from, and the conflict core is the set of literals
whose tags the failing solver reports.  One run of the procedure therefore
yields both the verdict and the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..logic.clauses import Literal
from ..logic.sorts import INT
from ..logic.terms import App, BoolLit, IntLit, Term, subterms
from .euf import CongruenceClosure
from .lia import LinearSolver
from .result import Budget

__all__ = ["TheoryChecker", "TheoryConflict"]


@dataclass
class TheoryConflict:
    """An inconsistent subset of the checked literals."""

    core: list[Literal]
    reason: str


_TRUE = BoolLit(True)
_FALSE = BoolLit(False)


class TheoryChecker:
    """Consistency checking for conjunctions of ground theory literals."""

    # -- public API -------------------------------------------------------------

    def check(
        self, literals: list[Literal], budget: Budget | None = None
    ) -> TheoryConflict | None:
        """Return a conflict (with its explained core) or None if consistent."""
        core = self._conflict(literals, budget)
        if core is None:
            return None
        return TheoryConflict([literals[i] for i in sorted(core)], "EUF+LIA conflict")

    # -- consistency ------------------------------------------------------------

    def _conflict(
        self, literals: list[Literal], budget: Budget | None
    ) -> frozenset[int] | None:
        """Indices of an inconsistent subset of ``literals``, or None when
        the procedure finds them consistent."""
        if budget is not None:
            budget.check()
        closure = CongruenceClosure()
        arithmetic = LinearSolver(deadline=budget)
        closure.assert_distinct(_TRUE, _FALSE)
        int_terms: set[Term] = set()
        # Shared atom -> tags of the first literal that made it shared.
        shared_atoms: dict[Term, frozenset] = {}

        for index, literal in enumerate(literals):
            tags = frozenset((index,))
            atom = literal.atom
            if isinstance(atom, BoolLit):
                if atom.value != literal.positive:
                    return tags
                continue
            if isinstance(atom, App) and atom.op == "eq":
                left, right = atom.args
                if literal.positive:
                    closure.assert_equal(left, right, tags)
                    if left.sort == INT:
                        arithmetic.add_eq_terms(left, right, tags)
                else:
                    closure.assert_distinct(left, right, tags)
                    # Integer disequalities are split at the boolean level by
                    # the preprocessing pass; here they only inform EUF.
                self._collect(left, tags, int_terms, shared_atoms)
                self._collect(right, tags, int_terms, shared_atoms)
                continue
            if isinstance(atom, App) and atom.op in ("le", "lt"):
                left, right = atom.args
                if literal.positive:
                    if atom.op == "le":
                        arithmetic.add_le_terms(left, right, tags)
                    else:
                        arithmetic.add_lt_terms(left, right, tags)
                else:
                    # ~(l <= r)  ==  r < l ;  ~(l < r)  ==  r <= l
                    if atom.op == "le":
                        arithmetic.add_lt_terms(right, left, tags)
                    else:
                        arithmetic.add_le_terms(right, left, tags)
                self._collect(left, tags, int_terms, shared_atoms)
                self._collect(right, tags, int_terms, shared_atoms)
                continue
            # Any other atom (membership in an opaque set variable, an
            # uninterpreted predicate, a boolean field read, ...) is handled
            # as an equation with the boolean constants in EUF.
            closure.assert_equal(atom, _TRUE if literal.positive else _FALSE, tags)
            self._collect(atom, tags, int_terms, shared_atoms)

        # Intern every collected term so congruences between terms that only
        # occur inside arithmetic atoms (e.g. ``g[x]`` and ``g[y]`` when only
        # ``g[y]`` appears under an inequality) are still detected.
        for term in int_terms | shared_atoms.keys():
            closure.intern(term)

        conflict = closure.check()
        if conflict is not None:
            return conflict.explanation
        core = arithmetic.explain_infeasible()
        if core is not None:
            return core

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

    @staticmethod
    def _collect(
        term: Term,
        tags: frozenset,
        int_terms: set[Term],
        shared_atoms: dict[Term, frozenset],
    ) -> None:
        ints, shared = _int_positions(term)
        int_terms.update(ints)
        for arg in shared:
            shared_atoms.setdefault(arg, tags)


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
