"""The simplex ``LinearSolver`` against the reference Fourier-Motzkin.

Every system here goes through both ``repro.provers.lia.LinearSolver`` and
:class:`theory_reference.PlainLinearSolver`: the verdicts agree whenever
the reference stays under its row cap, and every explanation is a subset
of the input tags whose constraints the reference refutes on their own.
The systems are Hypothesis-generated rational rows (checked in two
batches, as the theory checker's exchange loop does), hand-built
degenerate ones, and, in the slow sweep, every system the theory checker
and the set solver build on the catalogue and on a generated corpus.
Implied equalities are compared pair by pair; a pair that a witness point
(checked here in exact rationals) rules out skips the reference's probes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.logic import INT, map_of
from repro.logic import builder as b
from repro.logic.clauses import Literal
from repro.logic.parser import parse_formula, parse_term
from repro.logic.terms import Term
from repro.provers.dispatch import default_portfolio
from repro.provers.lia import LinearConstraint, LinearExpr, LinearSolver, linearize
from repro.provers.result import Budget, BudgetExpired
from repro.provers.theory import TheoryChecker
from repro.suite import all_structures
from repro.suite.generate import generate_corpus
from repro.verifier import VerificationEngine

from theory_reference import PlainLinearSolver, reference_consistent

ENV = {f"x{i}": INT for i in range(1, 9)} | {"g": map_of(INT, INT)}
F = lambda text: parse_formula(text, ENV)  # noqa: E731
T = lambda text: parse_term(text, ENV)  # noqa: E731


def tags(*values):
    return frozenset(values)


def row(coeffs: dict, constant=0) -> LinearExpr:
    return LinearExpr._from_dict(
        {T(atom): Fraction(c) for atom, c in coeffs.items()}, Fraction(constant)
    )


def reference_for(
    constraints, within: frozenset | None = None, **limits
) -> PlainLinearSolver:
    """The reference over ``constraints`` (only those whose tags lie
    ``within`` an explanation, when given), built with ``limits``."""
    plain = PlainLinearSolver(**limits)
    for constraint in constraints:
        if within is None or constraint.tags <= within:
            add = plain.add_eq if constraint.is_equality else plain.add_le
            add(constraint.expr)
    return plain


def agrees_with_reference(constraints, explanation) -> bool:
    """Assert that ``explanation`` (what ``explain_infeasible`` returned for
    ``constraints``) matches the reference; False when the reference
    exceeded its row cap on the whole system and could not decide.

    The explanation's own rows are decided without the cap: Fourier-Motzkin
    can blow up on a core that it decided inside the whole system, which
    eliminates atoms in another order."""
    verdict = reference_for(constraints).decide()
    if verdict is None:
        return False
    assert (explanation is not None) == verdict
    if explanation is not None:
        assert explanation <= frozenset().union(*(c.tags for c in constraints))
        core = reference_for(constraints, explanation, max_constraints=math.inf)
        assert core.decide() is True
    return True


# -- Hypothesis: random rational systems --------------------------------------------

_ATOMS = ("x1", "x2", "x3", "g[x1]", "g[0]")
coefficients = st.one_of(
    st.just(0), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)
rows = st.builds(
    lambda coeffs, constant: row(dict(zip(_ATOMS, coeffs)), constant),
    st.lists(coefficients, min_size=len(_ATOMS), max_size=len(_ATOMS)),
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3)),
)
systems = st.lists(st.tuples(rows, st.booleans()), min_size=1, max_size=8)


def solver_for(system) -> LinearSolver:
    solver = LinearSolver()
    for index, (expr, is_equality) in enumerate(system):
        (solver.add_eq if is_equality else solver.add_le)(expr, tags(index))
    return solver


#: A system whose six-equality core overflows the row cap on its own,
#: although the reference decides the whole system under it.
CORE_OVER_THE_CAP = [
    (row({}), False),
    (row({"g[0]": -1}), False),
    (row({"x2": 1, "g[x1]": 1, "g[0]": 1}), True),
    (row({"x2": Fraction(1, 3), "x3": Fraction(1, 2), "g[0]": 1}), True),
    (row({"x1": 1, "x3": 1, "g[0]": 1}), True),
    (row({"x1": 1, "g[x1]": 1}), True),
    (row({"x1": 1, "g[x1]": 2}, 1), True),
    (row({"x2": 1, "x3": 1}), True),
]


@settings(max_examples=300, deadline=None)
@given(systems, st.integers(0, 8))
@example(CORE_OVER_THE_CAP, 0)
def test_verdicts_and_explanations_match_the_reference(system, split):
    # The first ``split`` rows are checked before the rest join them, so
    # the second check resumes from the first one's tableau.
    solver = solver_for(system[:split])
    if split:
        agrees_with_reference(solver.constraints, solver.explain_infeasible())
    for index, (expr, is_equality) in enumerate(system[split:], start=split):
        (solver.add_eq if is_equality else solver.add_le)(expr, tags(index))
    assume(agrees_with_reference(solver.constraints, solver.explain_infeasible()))
    fresh = solver_for(system)
    assert (fresh.explain_infeasible() is None) == (solver.explain_infeasible() is None)


def value_at(expr: LinearExpr, point: dict) -> Fraction:
    """``expr`` at ``point`` in exact rationals; atoms ``point`` omits are 0."""
    value = Fraction(expr.constant)
    for atom, coeff in expr.coeffs:
        value += coeff * point.get(atom, 0)
    return value


def checked_point(solver: LinearSolver, constraints) -> dict | None:
    """``solver``'s assignment of the atoms when it finds its constraints
    feasible and the assignment satisfies every one of ``constraints``,
    checked here in exact rationals; otherwise None.

    Only that check, not the solver under test, makes the point a
    witness.
    """
    if solver.explain_infeasible() is not None:
        return None
    point = {
        atom: solver._value[var]
        for atom, var in solver._index.items()
        if isinstance(atom, Term)
    }
    for constraint in constraints:
        value = value_at(constraint.expr, point)
        if value > 0 or (constraint.is_equality and value != 0):
            return None
    return point


def rules_out(constraints, difference: LinearExpr, witnesses: list) -> bool:
    """Whether a checked point satisfying every constraint puts
    ``difference`` at least 1 or at most -1.

    Such a point satisfies one of :func:`reference_entails_eq`'s probes,
    so the pair is not entailed.  ``witnesses`` holds the points found so
    far for the same system and is tried first; a new point is kept there.
    """
    if any(abs(value_at(difference, point)) >= 1 for point in witnesses):
        return True
    for side in (difference, difference.scale(-1)):
        probe = LinearSolver()
        probe.constraints = list(constraints)
        probe.add_le(LinearExpr.of_constant(1).sub(side))
        point = checked_point(probe, constraints)
        if point is not None and value_at(side, point) >= 1:
            witnesses.append(point)
            return True
    return False


def reference_entails_eq(constraints, left, right, witnesses: list) -> bool:
    difference = linearize(left).sub(linearize(right))
    # A checked witness rules the pair out without the two Fourier-Motzkin
    # probes, which can run into the row cap many times over on one system.
    if rules_out(constraints, difference, witnesses):
        return False
    verdicts = []
    for side in (difference, difference.scale(-1)):
        probe = reference_for(constraints)
        probe.add_le(LinearExpr.of_constant(1).sub(side))
        verdicts.append(probe.decide())
    assume(None not in verdicts)
    return all(verdicts)


#: A feasible system on which six of the 56 Fourier-Motzkin probes of
#: :func:`reference_entails_eq` overflow the row cap; the probes alone took
#: about 10 s.  Witnesses rule out every pair that would need them.
PROBES_OVER_THE_CAP = [
    (row({"g[0]": -5, "g[x1]": 1, "x2": -3}, -8), False),
    (row({"g[x1]": 2, "x1": 3, "x2": -3, "x3": 2}, -3), True),
    (row({"x1": Fraction(-4, 3), "x2": Fraction(-2, 3)}, Fraction(-4, 3)), True),
    (row({"g[0]": 1, "x3": 1}, Fraction(-7, 2)), True),
    (
        row(
            {"g[0]": Fraction(1, 2), "g[x1]": Fraction(-1, 3), "x1": -2, "x2": -5},
            4,
        ),
        True,
    ),
    (row({"x1": Fraction(-4, 3), "x2": Fraction(-2, 3)}, Fraction(-4, 3)), True),
    (row({"g[0]": -1, "x1": Fraction(-2, 3), "x3": 4}, Fraction(-4, 3)), False),
    (
        row(
            {"g[0]": Fraction(1, 2), "g[x1]": Fraction(-1, 3), "x1": -2, "x2": -5},
            4,
        ),
        True,
    ),
]


@settings(max_examples=200, deadline=None)
@given(systems)
@example(PROBES_OVER_THE_CAP)
def test_implied_equalities_match_the_reference(system):
    solver = solver_for(system)
    assume(reference_for(solver.constraints).decide() is False)
    # ``g[x2]`` occurs in no row (a free atom); ``0`` is a literal.
    terms = [T(text) for text in _ATOMS + ("g[x2]", "0", "x1 + 1")]
    witnesses: list[dict] = []
    expected = [
        (left, right)
        for i, left in enumerate(terms)
        for right in terms[i + 1 :]
        if reference_entails_eq(solver.constraints, left, right, witnesses)
    ]
    pairs = solver.implied_equalities(terms)
    assert [(left, right) for left, right, _ in pairs] == expected
    for left, right, support in pairs:
        core = reference_for(solver.constraints, support, max_constraints=math.inf)
        assert core.entails_eq(left, right)


# -- hand-built systems ---------------------------------------------------------------


def beale(goal: Fraction) -> LinearSolver:
    """Beale's cycling example (degenerate at the origin) with its
    objective required to reach ``goal``; its optimum is 5/4."""
    solver = LinearSolver(deadline=Budget(30.0))
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    solver.add_le(row({"x4": quarter, "x5": -8, "x6": -1, "x7": 9}), tags("r1"))
    solver.add_le(row({"x4": half, "x5": -12, "x6": -half, "x7": 3}), tags("r2"))
    solver.add_le(row({"x6": 1}, -1), tags("x6 <= 1"))
    for name in ("x4", "x5", "x6", "x7"):
        solver.add_le(row({name: -1}), tags(f"{name} >= 0"))
    objective = row({"x4": -3 * quarter, "x5": 20, "x6": -half, "x7": 6}, goal)
    solver.add_le(objective, tags("goal"))
    return solver


class TestDegenerateSystems:
    def test_beale_terminates_at_its_optimum(self):
        feasible = beale(Fraction(5, 4))
        assert feasible.explain_infeasible() is None
        assert agrees_with_reference(feasible.constraints, None)
        infeasible = beale(Fraction(5, 4) + Fraction(1, 100))
        explanation = infeasible.explain_infeasible()
        assert explanation is not None and "goal" in explanation
        assert agrees_with_reference(infeasible.constraints, explanation)

    def test_zero_weight_cycle_with_redundant_tight_rows(self):
        # Every row is tight at the all-zero start: each pivot is degenerate.
        solver = LinearSolver(deadline=Budget(30.0))
        names = [f"x{i}" for i in range(1, 9)]
        for i, name in enumerate(names):
            successor = names[(i + 1) % len(names)]
            solver.add_le(row({name: 1, successor: -1}), tags(("cycle", i)))
            solver.add_le(row({name: 1, names[(i + 3) % 8]: -1}), tags(("chord", i)))
        solver.add_le(row({"x1": -1, "x5": 1}, 1), tags("x5 < x1"))
        explanation = solver.explain_infeasible()
        assert "x5 < x1" in explanation
        assert agrees_with_reference(solver.constraints, explanation)

    def test_expired_budget_interrupts_a_long_check(self):
        # v0 >= 0, v0 + 1 <= v1, ..., v29 + 1 <= v30, v30 <= 3: the start
        # violates every link, so the check needs far more pivots than
        # fall between two polls of the deadline.
        chain = [LinearExpr.of_atom(b.IntVar(f"v{i}")) for i in range(31)]

        def build(deadline):
            solver = LinearSolver(deadline=deadline)
            solver.add_le(chain[0].scale(-1), tags("v0 >= 0"))
            for i, (left, right) in enumerate(zip(chain, chain[1:])):
                solver.add_le(left.sub(right).add(LinearExpr.of_constant(1)), tags(i))
            solver.add_le(chain[-1].sub(LinearExpr.of_constant(3)), tags("v30 <= 3"))
            return solver

        with pytest.raises(BudgetExpired):
            build(Budget(0.0)).explain_infeasible()
        explanation = build(None).explain_infeasible()
        assert explanation == tags("v0 >= 0", "v30 <= 3", *range(30))


# -- theory combination without caps ---------------------------------------------------


class TestUncappedCombination:
    def test_shared_integer_literal(self):
        # The Priority Queue findMax base case: i = 0 only follows
        # arithmetically, and heap[i] meets heap[0] through it.
        literals = [
            Literal(F("0 <= x1")),
            Literal(F("x1 <= 0")),
            Literal(F("g[x1] <= g[0]"), positive=False),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == literals
        assert not reference_consistent(literals)

    def test_five_shared_atoms(self):
        chain = [Literal(F(f"x{i} <= x{i % 5 + 1}")) for i in range(1, 6)]
        literals = chain + [
            Literal(F("g[x2] <= g[x3]")),
            Literal(F("g[x4] <= 7")),
            Literal(F("g[x1] = g[x5]"), positive=False),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == chain + [literals[-1]]
        assert not reference_consistent(conflict.core)

    def test_seven_probe_atoms(self):
        solver = LinearSolver()
        atoms = [T(f"x{i}") for i in range(1, 9)]
        for i, atom in enumerate(atoms[:6]):
            solver.add_le(row({f"x{i + 1}": 1}, -i), tags(i))
        solver.add_le_terms(atoms[6], atoms[7], tags("78"))
        solver.add_le_terms(atoms[7], atoms[6], tags("87"))
        assert solver.implied_equalities(atoms) == [
            (atoms[6], atoms[7], tags("78", "87"))
        ]


# -- slow sweep: every system the provers build --------------------------------------


@pytest.mark.slow
def test_prover_systems_match_the_reference(monkeypatch):
    systems: dict[tuple[LinearConstraint, ...], frozenset | None] = {}
    explain = LinearSolver.explain_infeasible

    def recording(self):
        explanation = explain(self)
        key = tuple(self.constraints)
        assert systems.setdefault(key, explanation) == explanation
        return explanation

    monkeypatch.setattr(LinearSolver, "explain_infeasible", recording)
    engine = VerificationEngine(
        portfolio=default_portfolio(with_cache=False).scaled(0.4),
        use_proof_cache=False,
    )
    for cls in all_structures() + generate_corpus(40, seed=0):
        engine.verify_class(cls)
    monkeypatch.undo()

    undecided = 0
    for constraints, explanation in systems.items():
        if not agrees_with_reference(constraints, explanation):
            undecided += 1
        fresh = LinearSolver()
        fresh.constraints = list(constraints)
        replayed = fresh.explain_infeasible()
        assert (replayed is None) == (explanation is None)
        if replayed is not None:
            agrees_with_reference(constraints, replayed)
    assert len(systems) > 300
    assert undecided <= len(systems) // 100
