"""Explaining theory solvers: congruence-closure proof forests, simplex
explanations, and the theory checker's conflict cores.

The differential test holds ``TheoryChecker.check`` against the
from-scratch reference procedure in :mod:`theory_reference`: the checker
reports a conflict exactly when the reference finds the literals
inconsistent, and every core it returns is itself inconsistent.  The
linearisation tests hold ``linearize`` and ``LinearExpr.scale`` to the
reference's plain formulation; ``test_simplex.py`` holds the solver
itself to the reference's Fourier-Motzkin.
"""

from __future__ import annotations

import itertools

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import BOOL, INT, OBJ, map_of, set_of
from repro.logic.clauses import Literal
from repro.logic.parser import parse_formula, parse_term
from repro.provers.euf import CongruenceClosure
from repro.provers.lia import LinearExpr, LinearSolver, linearize
from repro.provers.theory import TheoryChecker

from theory_reference import (
    PlainLinearSolver,
    plain_linearize,
    plain_scale,
    reference_consistent,
)

ENV = {
    "x": INT,
    "y": INT,
    "z": INT,
    "a": OBJ,
    "b": OBJ,
    "c": OBJ,
    "d": OBJ,
    "g": map_of(INT, INT),
    "f": map_of(OBJ, OBJ),
    "key": map_of(OBJ, INT),
    "flag": map_of(OBJ, BOOL),
    "nodes": set_of(OBJ),
}
F = lambda text: parse_formula(text, ENV)  # noqa: E731
T = lambda text: parse_term(text, ENV)  # noqa: E731


def tags(*values):
    return frozenset(values)


# -- congruence closure ----------------------------------------------------------


class TestCongruenceExplanations:
    def test_explain_through_a_congruence_chain(self):
        cc = CongruenceClosure()
        cc.intern(T("f[f[a]]"))
        cc.intern(T("f[f[c]]"))
        cc.assert_equal(T("a"), T("b"), tags(1))
        cc.assert_equal(T("d"), T("f[b]"), tags(2))
        cc.assert_equal(T("b"), T("c"), tags(3))
        assert cc.are_equal(T("f[f[a]]"), T("f[f[c]]"))
        assert cc.explain(T("f[f[a]]"), T("f[f[c]]")) == tags(1, 3)
        # The forest path may run through f[a]; explanations are sound, not
        # necessarily minimal.
        assert tags(2, 3) <= cc.explain(T("d"), T("f[c]")) <= tags(1, 2, 3)

    def test_explain_of_identical_terms_is_empty(self):
        cc = CongruenceClosure()
        cc.assert_equal(T("a"), T("b"), tags(1))
        assert cc.explain(T("a"), T("a")) == frozenset()

    def test_explain_rejects_unentailed_equality(self):
        cc = CongruenceClosure()
        cc.intern(T("a"))
        cc.intern(T("b"))
        try:
            cc.explain(T("a"), T("b"))
        except ValueError:
            return
        raise AssertionError("explain accepted a = b without support")

    def test_violated_disequality_explains_with_its_own_tag(self):
        cc = CongruenceClosure()
        cc.assert_distinct(T("f[a]"), T("f[b]"), tags(0))
        cc.assert_equal(T("c"), T("d"), tags(1))
        cc.assert_equal(T("a"), T("b"), tags(2))
        conflict = cc.check()
        assert conflict is not None
        assert conflict.reason == "disequality violated"
        assert conflict.explanation == tags(0, 2)

    def test_merged_distinct_literals_explain_the_path(self):
        cc = CongruenceClosure()
        cc.assert_equal(T("x"), T("1"), tags(1))
        cc.assert_equal(T("z"), T("g[x]"), tags(4))
        cc.assert_equal(T("y"), T("2"), tags(2))
        cc.assert_equal(T("x"), T("y"), tags(3))
        conflict = cc.check()
        assert conflict is not None
        assert conflict.reason == "distinct literals merged"
        assert conflict.explanation == tags(1, 2, 3)

    def test_long_chain_rerooting_keeps_paths(self):
        # Merges in an order that forces proof trees to be re-rooted.
        names = [f"a{i}" for i in range(12)]
        env = {name: OBJ for name in names}
        terms = [parse_term(name, env) for name in names]
        cc = CongruenceClosure()
        for i in range(0, 12, 2):
            cc.assert_equal(terms[i], terms[i + 1], tags(i))
        for i in range(1, 11, 2):
            cc.assert_equal(terms[i + 1], terms[i], tags(i))
        assert cc.explain(terms[0], terms[11]) == frozenset(range(11))
        assert cc.explain(terms[4], terms[7]) == tags(4, 5, 6)


# -- simplex explanations ------------------------------------------------------------


class TestSimplexExplanations:
    def test_infeasible_row_names_its_origin_set(self):
        solver = LinearSolver()
        solver.add_le_terms(T("x"), T("y"), tags(0))
        solver.add_le_terms(T("z"), T("5"), tags(1))
        solver.add_lt_terms(T("y"), T("z"), tags(2))
        solver.add_le_terms(T("g[x]"), T("y"), tags(3))
        solver.add_le_terms(T("z"), T("x"), tags(4))
        assert solver.explain_infeasible() == tags(0, 2, 4)
        assert solver.is_infeasible()

    def test_feasible_system_has_no_explanation(self):
        solver = LinearSolver()
        solver.add_le_terms(T("x"), T("y"), tags(0))
        assert solver.explain_infeasible() is None
        assert not solver.is_infeasible()

    def test_equality_rows_keep_their_tags(self):
        solver = LinearSolver()
        solver.add_eq_terms(T("x"), T("y + 1"), tags(7))
        solver.add_le_terms(T("x"), T("y"), tags(8))
        assert solver.explain_infeasible() == tags(7, 8)

    def test_implied_equalities_carry_tags_without_the_probe(self):
        solver = LinearSolver()
        solver.add_le_terms(T("x"), T("y"), tags("xy"))
        solver.add_le_terms(T("y"), T("x"), tags("yx"))
        solver.add_le_terms(T("z"), T("3"), tags("z"))
        assert solver.implied_equalities([T("x"), T("y"), T("z")]) == [
            (T("x"), T("y"), tags("xy", "yx"))
        ]
        assert solver.entails_eq(T("x"), T("y")) == tags("xy", "yx")
        assert solver.entails_eq(T("x"), T("z")) is None
        assert solver.entails_le(linearize(T("z")).sub(linearize(T("3"))))


# -- linearisation against the plain formulation -------------------------------------

_ROW_ATOMS = [T(text) for text in ("x", "y", "z", "g[x]", "key[a]")]
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
rows = st.builds(
    lambda coeffs, constant: LinearExpr._from_dict(
        {atom: coeff for atom, coeff in zip(_ROW_ATOMS, coeffs)}, constant
    ),
    st.lists(fractions, min_size=len(_ROW_ATOMS), max_size=len(_ROW_ATOMS)),
    fractions,
)
_LINEAR_TERMS = [
    T(text)
    for text in (
        "x",
        "g[x]",
        "x + 1",
        "x - 2 * y",
        "3 * (x + 1)",
        "-(x + g[y])",
        "x * y",
        "(x + 1) * 2 - z",
        "0",
        "2",
    )
]


@settings(max_examples=200, deadline=None)
@given(rows, st.one_of(fractions, st.integers(-3, 3)))
def test_scale_matches_the_plain_formulation(row, factor):
    assert row.scale(factor) == plain_scale(row, factor)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_LINEAR_TERMS),
            st.sampled_from(_LINEAR_TERMS),
            st.sampled_from(["le", "lt", "eq"]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_constraint_rows_match_the_plain_formulation(constraints):
    solver, plain = LinearSolver(), PlainLinearSolver()
    for left, right, relation in constraints:
        assert linearize(left) == plain_linearize(left)
        getattr(solver, f"add_{relation}_terms")(left, right)
        getattr(plain, f"add_{relation}_terms")(left, right)
    assert solver.is_infeasible() == plain.is_infeasible()


# -- theory checker cores ------------------------------------------------------------


class TestTheoryCores:
    def test_core_comes_from_the_explanation(self):
        literals = [
            Literal(F("a = b")),
            Literal(F("a in nodes")),
            Literal(F("x <= y")),
            Literal(F("f[a] = f[b]"), positive=False),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == [literals[0], literals[3]]

    def test_conflict_through_an_exchanged_euf_equality(self):
        # key[a] = key[b] is a congruence in EUF; LIA needs it to refute.
        literals = [
            Literal(F("c = d")),
            Literal(F("key[a] < key[b]")),
            Literal(F("x <= y")),
            Literal(F("a = b")),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == [literals[1], literals[3]]

    def test_conflict_through_an_exchanged_lia_equality(self):
        # x = y follows only arithmetically; EUF needs it for g[x] = g[y].
        literals = [
            Literal(F("x <= y")),
            Literal(F("a in nodes")),
            Literal(F("g[x] = g[y]"), positive=False),
            Literal(F("z <= 4")),
            Literal(F("y <= x")),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == [literals[0], literals[2], literals[4]]

    def test_boolean_field_reads_conflict_by_congruence(self):
        literals = [
            Literal(F("flag[a]")),
            Literal(F("b in nodes")),
            Literal(F("a = b")),
            Literal(F("flag[b]"), positive=False),
        ]
        conflict = TheoryChecker().check(literals)
        assert conflict is not None
        assert conflict.core == [literals[0], literals[2], literals[3]]


# -- differential against the reference procedure ------------------------------------

_INT_TERMS = [
    "x",
    "y",
    "z",
    "g[x]",
    "g[y]",
    "key[a]",
    "key[b]",
    "x + 1",
    "0",
    "2",
    "g[0]",
]
_OBJ_TERMS = ["a", "b", "c", "f[a]", "f[b]"]
_ATOM_TEXTS = (
    [f"{l} = {r}" for l, r in itertools.combinations(_INT_TERMS, 2)]
    + [f"{l} <= {r}" for l, r in itertools.combinations(_INT_TERMS, 2)]
    + [f"{l} < {r}" for l, r in itertools.permutations(_INT_TERMS[:6], 2)]
    + [f"{l} = {r}" for l, r in itertools.combinations(_OBJ_TERMS, 2)]
    + ["a in nodes", "b in nodes", "f[a] in nodes", "flag[a]", "flag[f[b]]"]
)
_ATOMS = [F(text) for text in _ATOM_TEXTS]

literal_sets = st.lists(
    st.builds(
        lambda index, positive: Literal(_ATOMS[index], positive),
        st.integers(0, len(_ATOMS) - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=9,
)


@settings(max_examples=400, deadline=None)
@given(literal_sets)
def test_check_agrees_with_the_reference_procedure(literals):
    conflict = TheoryChecker().check(literals)
    assert (conflict is None) == reference_consistent(literals)
    if conflict is not None:
        assert conflict.core
        assert all(literal in literals for literal in conflict.core)
        assert not reference_consistent(conflict.core)
