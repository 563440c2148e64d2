"""The theory checker on a trail: push, assert and backtrack against
checks on a new checker.

smt's search asserts theory literals as the SAT solver assigns them and
backtracks the checker with every backjump, so these tests hold the
incremental state to a new checker run over the literals still asserted:

* Hypothesis sequences of push, assert and backtrack over the atoms of
  ``test_explanations.py`` and literal comparisons over ``test_simplex.py``'s
  terms: after every step the checker holds exactly the literals still
  asserted, its verdict equals ``TheoryChecker().check`` over them, and
  every core the reference procedure refutes on its own;
* the same for the simplex's bound trail alone, over ``test_simplex.py``'s
  random rows, and for the congruence closure's undo trail;
* a soundness net over smt's search: every theory conflict it turns into a
  clause on Priority Queue's attempts (on the whole catalogue at 1.0 in
  the ``slow`` sweep) is inconsistent on its own under
  :func:`theory_reference.reference_consistent`.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.clauses import Literal
from repro.logic.parser import parse_formula
from repro.provers.euf import CongruenceClosure
from repro.provers.lia import LinearConstraint
from repro.provers.smt import SmtProver
from repro.provers.theory import TheoryChecker

import test_explanations
import test_simplex
from test_smt_and_portfolio import catalogue_tasks
from theory_reference import reference_consistent

ENV = test_explanations.ENV | test_simplex.ENV
F = lambda text: parse_formula(text, ENV)  # noqa: E731

_SIMPLEX_TERMS = test_simplex._ATOMS
_ATOMS = test_explanations._ATOMS + [
    F(f"{left} {relation} {right}{offset}")
    for left, right in itertools.permutations(_SIMPLEX_TERMS, 2)
    for relation in ("<=", "<")
    for offset in ("", " + 1", " - 2")
]

#: Operations: ``("push",)``, ``("assert", atom index, polarity)`` and
#: ``("backtrack", level)``.
operations = st.lists(
    st.one_of(
        st.just(("push",)),
        st.tuples(st.just("assert"), st.integers(0, len(_ATOMS) - 1), st.booleans()),
        st.tuples(st.just("backtrack"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=16,
)


def new_checker(atoms=_ATOMS) -> TheoryChecker:
    checker = TheoryChecker()
    for atom in atoms:
        checker.register(atom)
    return checker


@settings(max_examples=300, deadline=None)
@given(operations)
def test_incremental_verdicts_match_a_new_checker(steps):
    checker = new_checker()
    asserted: list[tuple[int, Literal]] = []  # (level, literal)
    for step in steps:
        if step[0] == "push":
            checker.push()
        elif step[0] == "assert":
            literal = Literal(_ATOMS[step[1]], step[2])
            checker.assert_literal(literal)
            asserted.append((checker.level, literal))
        else:
            checker.backtrack(step[1])
            asserted = [(level, lit) for level, lit in asserted if level <= step[1]]
        literals = [literal for _, literal in asserted]
        assert checker.literals == literals
        cheap = checker.conflict()
        final = checker.check()
        fresh = TheoryChecker().check(literals)
        assert (final is None) == (fresh is None)
        if cheap is not None:
            assert final is not None
        for conflict in (cheap, final):
            if conflict is not None:
                assert all(literal in literals for literal in conflict.core)
                assert not reference_consistent(conflict.core)


@settings(max_examples=200, deadline=None)
@given(
    test_simplex.systems,
    st.lists(st.integers(0, 8), min_size=1, max_size=4),
)
def test_bound_trail_matches_a_fresh_solver(system, cuts):
    """Assert the rows one level each and check; then backtrack to each cut
    in turn, check, and assert the rest again."""
    solver = test_simplex.LinearSolver()
    marks = []

    def assert_row(index):
        expr, is_equality = system[index]
        marks.append(solver.checkpoint())
        solver.add_constraint(
            LinearConstraint(expr, is_equality, test_simplex.tags(index)),
            solver.bounds_of(expr, is_equality),
        )

    for index in range(len(system)):
        assert_row(index)
        solver.explain_infeasible()
    for cut in cuts:
        cut = min(cut, len(system))
        solver.backtrack(marks[cut] if cut < len(marks) else solver.checkpoint())
        del marks[cut:]
        kept = system[: len(marks)]
        fresh = test_simplex.solver_for(kept)
        explanation = solver.explain_infeasible()
        assert solver.constraints == fresh.constraints
        assert (explanation is None) == (fresh.explain_infeasible() is None)
        test_simplex.agrees_with_reference(solver.constraints, explanation)
        for index in range(len(marks), len(system)):
            assert_row(index)
        assert (solver.explain_infeasible() is None) == (
            test_simplex.solver_for(system).explain_infeasible() is None
        )


_OBJ_TERMS = [test_explanations.T(text) for text in ("a", "b", "c", "d")]
_OBJ_TERMS += [test_explanations.T(f"f[{name}]") for name in ("a", "b", "c", "f[a]")]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(("push",)),
            st.tuples(
                st.sampled_from(["eq", "ne"]),
                st.integers(0, len(_OBJ_TERMS) - 1),
                st.integers(0, len(_OBJ_TERMS) - 1),
            ),
            st.tuples(st.just("backtrack"), st.integers(0, 3)),
        ),
        max_size=14,
    )
)
def test_congruence_undo_matches_a_fresh_closure(steps):
    def interned():
        closure = CongruenceClosure()
        for term in _OBJ_TERMS:
            closure.intern(term)
        return closure

    closure = interned()
    marks: list[int] = []
    facts: list[tuple[int, str, int, int]] = []  # (level, kind, left, right)
    for step in steps:
        if step[0] == "push":
            marks.append(closure.checkpoint())
            continue
        if step[0] == "backtrack":
            if step[1] < len(marks):
                closure.backtrack(marks[step[1]])
                del marks[step[1] :]
            facts = [fact for fact in facts if fact[0] <= len(marks)]
        else:
            kind, left, right = step
            facts.append((len(marks), kind, left, right))
            tag = frozenset((len(facts) - 1,))
            if kind == "eq":
                closure.assert_equal(_OBJ_TERMS[left], _OBJ_TERMS[right], tag)
            else:
                closure.assert_distinct(_OBJ_TERMS[left], _OBJ_TERMS[right], tag)
        fresh = interned()
        for _, kind, left, right in facts:
            assert_fact = fresh.assert_equal if kind == "eq" else fresh.assert_distinct
            assert_fact(_OBJ_TERMS[left], _OBJ_TERMS[right])
        for left, right in itertools.combinations(_OBJ_TERMS, 2):
            assert closure.are_equal(left, right) == fresh.are_equal(left, right)
            if closure.are_equal(left, right):
                # The explanation names facts still asserted that entail it.
                support = closure.explain(left, right)
                assert max(support, default=-1) < len(facts)
                again = interned()
                for index in sorted(support):
                    _, kind, l, r = facts[index]
                    assert kind == "eq"
                    again.assert_equal(_OBJ_TERMS[l], _OBJ_TERMS[r])
                assert again.are_equal(left, right)
        assert (closure.check() is None) == (fresh.check() is None)


def test_backtracking_restores_the_state_of_a_level():
    texts = ["x <= y", "a = b", "y < x", "f[a] = f[b]", "y <= x", "g[x] = g[y]"]
    atoms = [F(text) for text in texts]
    checker = new_checker(atoms)
    base = [Literal(atoms[0]), Literal(atoms[1])]
    for literal in base:
        checker.assert_literal(literal)
    checker.push()
    checker.assert_literal(Literal(atoms[2]))
    checker.assert_literal(Literal(atoms[3], positive=False))
    assert checker.conflict() is not None
    checker.backtrack(0)
    assert checker.literals == base
    assert checker.conflict() is None and checker.check() is None
    # The same level again, consistent until the exchange finds x = y.
    checker.push()
    checker.assert_literal(Literal(atoms[4]))
    assert checker.conflict() is None and checker.check() is None
    checker.assert_literal(Literal(atoms[5], positive=False))
    assert checker.conflict() is None
    conflict = checker.check()
    assert conflict is not None
    assert conflict.core == [base[0], *checker.literals[2:]]


def test_registering_above_level_zero_is_refused():
    checker = TheoryChecker()
    checker.push()
    with pytest.raises(ValueError):
        checker.register(F("x <= y"))


# -- soundness net over smt's search -------------------------------------------------


def learned_theory_cores(monkeypatch, tasks, timeout):
    """Every theory conflict smt's search turns into a clause on ``tasks``."""
    cores = []
    conflict, check = TheoryChecker.conflict, TheoryChecker.check

    def recording_conflict(self):
        found = conflict(self)
        if found is not None:
            cores.append(found.core)
        return found

    def recording_check(self, literals=(), budget=None):
        found = check(self, literals, budget)
        if found is not None:
            cores.append(found.core)
        return found

    monkeypatch.setattr(TheoryChecker, "conflict", recording_conflict)
    monkeypatch.setattr(TheoryChecker, "check", recording_check)
    prover = SmtProver()
    for task in tasks:
        prover.prove(task, timeout=timeout)
    monkeypatch.undo()
    return cores


def test_learned_theory_clauses_are_inconsistent_on_their_own(monkeypatch):
    cores = learned_theory_cores(monkeypatch, catalogue_tasks({"Priority Queue"}), 1.6)
    assert len(cores) > 100
    for core in cores:
        assert core
        assert not reference_consistent(core)


@pytest.mark.slow
def test_every_catalogue_theory_clause_is_inconsistent_on_its_own(monkeypatch):
    cores = learned_theory_cores(monkeypatch, catalogue_tasks(), 4.0)
    assert len(cores) > 150
    for core in cores:
        assert not reference_consistent(core)
