"""The SMT-lite prover: DPLL(T) over EUF + LIA, heuristic instantiation.

This prover plays the role of the SMT back-ends (CVC3, Z3) in Jahob's
integrated reasoning setup.  The pipeline for a proof task is:

1. :func:`repro.provers.rewriter.prepare` turns ``assumptions AND NOT goal``
   into ground conjuncts plus universally quantified axioms;
2. the :class:`~repro.provers.quant.InstantiationEngine` produces ground
   instances of the axioms using positional triggers;
3. the ground formulas are Tseitin-encoded over theory atoms;
4. one CDCL search runs with the theory on its trail (DPLL(T)).  The first
   time unit propagation settles, every atom is registered once with the
   attempt's :class:`~repro.provers.theory.TheoryChecker` (most attempts
   are refuted by level-0 propagation and never get there); from then on,
   each time it settles, the theory literals new on the trail are
   asserted into the checker, whose cheap checks (congruence closure and
   simplex) turn a conflict into a clause for the solver's conflict
   analysis at once; a full assignment gets the final check with the
   Nelson-Oppen equality exchange.  The search ends unsatisfiable (task
   proved) or with a full assignment the final check accepts (unknown --
   instantiation is incomplete, so this is not a refutation).

Integer disequalities are split into strict inequalities at encoding time so
that the arithmetic solver can reason about them.
"""

from __future__ import annotations

from functools import lru_cache

from ..logic.clauses import Literal
from ..logic.sorts import BOOL, INT
from ..logic.terms import App, BoolLit, Term
from .arrays import select_store_lemmas
from .interface import Prover
from .quant import InstantiationEngine
from .result import Budget, Outcome, ProofTask, ProverResult
from .rewriter import prepare
from .sat import Tseitin
from .theory import TheoryChecker

__all__ = ["SmtProver"]


class SmtProver(Prover):
    """DPLL(T) SMT prover over EUF + LIA with quantifier heuristics."""

    name = "smt"
    #: 2: theory conflicts are explained cores, not deletion-minimised ones.
    #: 3: simplex arithmetic and an uncapped equality exchange.
    revision = 3

    instantiation_rounds = 3
    max_candidates_per_var = 8
    max_theory_iterations = 400
    max_sat_conflicts = 20000

    # -- main entry point --------------------------------------------------------

    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        prepared = prepare(task)
        if prepared.trivially_proved:
            return ProverResult(Outcome.PROVED, reason="trivial")
        budget.check()

        engine = InstantiationEngine(
            max_rounds=self.instantiation_rounds,
            max_candidates_per_var=self.max_candidates_per_var,
        )
        for axiom in prepared.axioms:
            engine.add_axiom(axiom)
        instances = engine.saturate(prepared.ground, prepared.goal_hint)
        budget.check()

        ground_formulas = prepared.ground + instances
        # Instantiate the read-over-write array axioms for the
        # select-over-store patterns produced by field/array assignments.
        ground_formulas = ground_formulas + select_store_lemmas(ground_formulas)
        if not ground_formulas:
            return ProverResult(Outcome.UNKNOWN, reason="no ground facts")

        encoder = _GroundEncoder()
        for formula in ground_formulas:
            encoder.assert_formula(formula)
            if budget.expired():
                return ProverResult(Outcome.TIMEOUT, reason="encoding")

        theory = _TrailTheory(encoder, budget, self.max_theory_iterations)
        try:
            sat_result = encoder.tseitin.solve(
                should_stop=budget.expired,
                max_conflicts=self.max_sat_conflicts,
                theory=theory,
            )
        except TimeoutError:
            return ProverResult(Outcome.TIMEOUT, reason="sat budget")
        except _IterationLimit:
            return ProverResult(Outcome.UNKNOWN, reason="theory iteration limit")
        summary = _conflict_summary(theory.core_sizes)
        if not sat_result.satisfiable:
            return ProverResult(
                Outcome.PROVED,
                reason=f"unsat after {len(theory.core_sizes) + 1} theory "
                f"iterations, {len(instances)} instantiations, {summary}",
            )
        return ProverResult(
            Outcome.UNKNOWN,
            reason="theory-consistent boolean model "
            f"(quantifier instantiation exhausted), {summary}",
        )


class _IterationLimit(Exception):
    """An attempt's theory conflicts outnumber ``max_theory_iterations``."""


class _TrailTheory:
    """The SAT solver's theory hook for one attempt.

    On its first call it registers the encoder's atoms with a new
    :class:`TheoryChecker`, in the order they were created.  It asserts
    the theory literals the solver reports, opening a checker level for
    each decision level that has some, and turns each theory conflict into
    the clause of the negated core.  "Theory iterations" in the result
    reason count these conflicts plus the final answer.
    """

    def __init__(self, encoder: "_GroundEncoder", budget: Budget, limit: int) -> None:
        self.checker: TheoryChecker | None = None
        self.literals = encoder.literals
        self.atoms = encoder.tseitin.atoms
        self.budget = budget
        self.limit = limit
        self.core_sizes: list[int] = []

    def backtrack(self, level: int) -> None:
        if self.checker is not None:
            self.checker.backtrack(level)

    def check(self, lits: list[int], level: int) -> list[int] | None:
        literals = self.literals
        asserted = [literals[abs(lit)][lit < 0] for lit in lits if abs(lit) in literals]
        if not asserted:
            return None
        checker = self.checker
        if checker is None:
            checker = self.checker = TheoryChecker(self.budget)
            for positive, _ in literals.values():
                checker.register(positive.atom)
        while checker.level < level:
            checker.push()
        for literal in asserted:
            checker.assert_literal(literal)
        return self._clause(checker.conflict())

    def final_check(self) -> list[int] | None:
        if self.checker is None:
            return None  # no theory literal was ever assigned: no atoms
        return self._clause(self.checker.check((), self.budget))

    def _clause(self, conflict) -> list[int] | None:
        if conflict is None:
            return None
        self.core_sizes.append(len(conflict.core))
        if len(self.core_sizes) > self.limit:
            raise _IterationLimit
        atoms = self.atoms
        return [
            -atoms[literal.atom] if literal.positive else atoms[literal.atom]
            for literal in conflict.core
        ]


def _conflict_summary(core_sizes: list[int]) -> str:
    """``N theory conflicts, mean core K`` for a prover result's reason."""
    if not core_sizes:
        return "0 theory conflicts"
    mean = sum(core_sizes) / len(core_sizes)
    return f"{len(core_sizes)} theory conflicts, mean core {mean:.1f}"


class _GroundEncoder:
    """Tseitin encoding of ground formulas over theory atoms."""

    def __init__(self) -> None:
        self.tseitin = Tseitin()
        #: SAT variable of an atom -> the atom's positive and negative literal.
        self.literals: dict[int, tuple[Literal, Literal]] = {}
        # Reserve a variable that is always true, used for boolean literals.
        self._true_var = self.tseitin.fresh_var()
        self.tseitin.assert_literal(self._true_var)
        # Integer equality atoms already tied to their order atoms.
        self._split_int_eq: set[Term] = set()

    # -- encoding -----------------------------------------------------------------

    def assert_formula(self, formula: Term) -> None:
        self.tseitin.assert_literal(self.encode(formula))

    def encode(self, formula: Term) -> int:
        if isinstance(formula, BoolLit):
            return self._true_var if formula.value else -self._true_var
        if isinstance(formula, App):
            op = formula.op
            if op == "and":
                return self.tseitin.encode_and(
                    [self.encode(arg) for arg in formula.args]
                )
            if op == "or":
                return self.tseitin.encode_or(
                    [self.encode(arg) for arg in formula.args]
                )
            if op == "not":
                return -self.encode(formula.args[0])
            if op == "implies":
                left, right = formula.args
                return self.tseitin.encode_or([-self.encode(left), self.encode(right)])
            if op == "iff":
                left, right = (self.encode(arg) for arg in formula.args)
                return self.tseitin.encode_and(
                    [
                        self.tseitin.encode_or([-left, right]),
                        self.tseitin.encode_or([-right, left]),
                    ]
                )
            if op == "ite" and formula.sort == BOOL:
                cond, then, other = (self.encode(arg) for arg in formula.args)
                return self.tseitin.encode_and(
                    [
                        self.tseitin.encode_or([-cond, then]),
                        self.tseitin.encode_or([cond, other]),
                    ]
                )
        return self._atom_literal(formula)

    def _theory_var(self, atom: Term) -> int:
        """The SAT variable of ``atom``'s canonical form."""
        atom = _canonical_atom(atom)
        var = self.tseitin.atoms.get(atom)
        if var is None:
            var = self.tseitin.atom_var(atom)
            self.literals[var] = (Literal(atom, True), Literal(atom, False))
        return var

    def _atom_literal(self, atom: Term) -> int:
        atom = _canonical_atom(atom)
        lit = self._theory_var(atom)
        if (
            isinstance(atom, App)
            and atom.op == "eq"
            and atom.args[0].sort == INT
            and atom not in self._split_int_eq
        ):
            # eq(a,b) <-> ~(a<b) & ~(b<a): ties the boolean equality atom to
            # the order atoms so the arithmetic solver sees disequalities.
            self._split_int_eq.add(atom)
            left, right = atom.args
            lt_left = self._theory_var(App("lt", (left, right), BOOL))
            lt_right = self._theory_var(App("lt", (right, left), BOOL))
            # eq -> ~lt_left, eq -> ~lt_right, (~lt_left & ~lt_right) -> eq
            self.tseitin.add_clause([-lit, -lt_left])
            self.tseitin.add_clause([-lit, -lt_right])
            self.tseitin.add_clause([lit, lt_left, lt_right])
        return lit


@lru_cache(maxsize=65536)
def _canonical_atom(atom: Term) -> Term:
    """Canonicalise symmetric atoms so ``a = b`` and ``b = a`` share a SAT var.

    Memoised across attempts: a pure function of a hash-consed term, it
    stays correct across :func:`~repro.logic.terms.clear_term_pools`."""
    if isinstance(atom, App) and atom.op == "eq":
        left, right = atom.args
        if repr(right) < repr(left):
            return App("eq", (right, left), BOOL)
    return atom
