"""The SMT-lite prover: lazy SAT + theories + heuristic instantiation.

This prover plays the role of the SMT back-ends (CVC3, Z3) in Jahob's
integrated reasoning setup.  The pipeline for a proof task is:

1. :func:`repro.provers.rewriter.prepare` turns ``assumptions AND NOT goal``
   into ground conjuncts plus universally quantified axioms;
2. the :class:`~repro.provers.quant.InstantiationEngine` produces ground
   instances of the axioms using positional triggers;
3. the ground formulas are Tseitin-encoded over theory atoms;
4. a lazy SMT loop runs the CDCL SAT solver and checks each proposed boolean
   model against the combined EUF + linear-integer-arithmetic theory checker,
   adding blocking clauses for theory conflicts until the SAT solver reports
   unsatisfiability (task proved) or a theory-consistent model survives
   (unknown -- instantiation is incomplete, so this is not a refutation).
   One incremental solver serves the whole loop: a blocking clause goes
   straight into it, and the next solve keeps every clause learned so far.

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
    """Lazy-combination SMT prover over EUF + LIA with quantifier heuristics."""

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

        checker = TheoryChecker()
        iterations = 0
        core_sizes: list[int] = []
        while True:
            budget.check()
            iterations += 1
            if iterations > self.max_theory_iterations:
                return ProverResult(Outcome.UNKNOWN, reason="theory iteration limit")
            try:
                sat_result = encoder.tseitin.solve(
                    should_stop=budget.expired,
                    max_conflicts=self.max_sat_conflicts,
                )
            except TimeoutError:
                return ProverResult(Outcome.TIMEOUT, reason="sat budget")
            if not sat_result.satisfiable:
                return ProverResult(
                    Outcome.PROVED,
                    reason=f"unsat after {iterations} theory iterations, "
                    f"{len(instances)} instantiations, "
                    f"{_conflict_summary(core_sizes)}",
                )
            literals = encoder.model_literals(sat_result.model)
            conflict = checker.check(literals, budget)
            if conflict is None:
                return ProverResult(
                    Outcome.UNKNOWN,
                    reason="theory-consistent boolean model "
                    "(quantifier instantiation exhausted), "
                    f"{_conflict_summary(core_sizes)}",
                )
            core_sizes.append(len(conflict.core))
            encoder.block(conflict.core)


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

    def _atom_literal(self, atom: Term) -> int:
        atom = _canonical_atom(atom)
        lit = self.tseitin.atom_var(atom)
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
            lt_left = self.tseitin.atom_var(
                _canonical_atom(App("lt", (left, right), BOOL))
            )
            lt_right = self.tseitin.atom_var(
                _canonical_atom(App("lt", (right, left), BOOL))
            )
            # eq -> ~lt_left, eq -> ~lt_right, (~lt_left & ~lt_right) -> eq
            self.tseitin.add_clause([-lit, -lt_left])
            self.tseitin.add_clause([-lit, -lt_right])
            self.tseitin.add_clause([lit, lt_left, lt_right])
        return lit

    # -- model extraction / blocking ------------------------------------------------

    def model_literals(self, model: dict[int, bool]) -> list[Literal]:
        literals: list[Literal] = []
        for atom, var in self.tseitin.atoms.items():
            if var in model:
                literals.append(Literal(atom, model[var]))
        return literals

    def block(self, core: list[Literal]) -> None:
        """Add a blocking clause forbidding the conflicting literal set."""
        clause = []
        for literal in core:
            var = self.tseitin.atom_var(_canonical_atom(literal.atom))
            clause.append(-var if literal.positive else var)
        # An empty core is an unconditionally inconsistent theory state: the
        # formula is unsatisfiable outright.
        self.tseitin.add_clause(clause or [-self._true_var])


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
