"""Simplification (comprehension elimination) and normal forms."""

from hypothesis import given, settings, strategies as st

from repro.logic import INT, OBJ, map_of, set_of, tuple_of
from repro.logic.evaluator import Interpretation, all_interpretations, holds
from repro.logic.nnf import eliminate_sugar, prenex, skolemize, to_nnf
from repro.logic.parser import parse_formula
from repro.logic import builder as b
from repro.logic.simplify import simplify
from repro.logic.terms import App, BoolLit, contains_quantifier, free_vars

ENV = {
    "size": INT,
    "i": INT,
    "o": OBJ,
    "elements": map_of(INT, OBJ),
    "content": set_of(tuple_of(INT, OBJ)),
    "nodes": set_of(OBJ),
    "S": set_of(OBJ),
    "T": set_of(OBJ),
    "a": OBJ,
    "x": INT,
    "y": INT,
    "p": INT,
}


class TestSimplify:
    def test_membership_in_comprehension(self):
        formula = parse_formula("(3, null) in {(i, n). 0 <= i & i < 5 & n = null}", ENV)
        assert simplify(formula) == BoolLit(True)

    def test_membership_in_union(self):
        formula = parse_formula("a in S Un {a}", ENV)
        assert simplify(formula) == BoolLit(True)

    def test_set_equality_becomes_extensionality(self):
        formula = parse_formula("S = T Un {a}", ENV)
        simplified = simplify(formula)
        assert contains_quantifier(simplified)

    def test_subseteq_becomes_universal(self):
        simplified = simplify(parse_formula("S subseteq T", ENV))
        assert contains_quantifier(simplified)

    def test_select_of_store_same_key(self):
        formula = parse_formula("elements[i := o][i] = o", ENV)
        assert simplify(formula) == BoolLit(True)

    def test_select_of_store_distinct_literals(self):
        formula = parse_formula("elements[0 := o][1] = elements[1]", ENV)
        assert simplify(formula) == BoolLit(True)

    def test_constant_folding(self):
        assert simplify(parse_formula("1 + 2 < 4", ENV)) == BoolLit(True)
        assert simplify(parse_formula("2 * 3 = 7", ENV)) == BoolLit(False)

    def test_tuple_equality_componentwise(self):
        formula = parse_formula("(x, a) = (y, a)", ENV)
        simplified = simplify(formula)
        assert simplified == parse_formula("x = y", ENV)

    def test_comprehension_equality_with_spec_variable(self):
        formula = parse_formula(
            "content = {(i, n). 0 <= i & i < size & n = elements[i]}", ENV
        )
        simplified = simplify(formula)
        assert contains_quantifier(simplified)


def _random_small_formulas():
    texts = [
        "x <= y --> x < y + 1",
        "~(x = y) <-> (x < y | y < x)",
        "(x < y & y < p) --> x < p",
        "x = y | x ~= y",
        "(x < y --> y < x) --> x = y | y < x",
    ]
    return st.sampled_from([parse_formula(t, ENV) for t in texts])


@given(formula=_random_small_formulas(), x_val=st.integers(-2, 2),
       y_val=st.integers(-2, 2), p_val=st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_simplify_preserves_semantics(formula, x_val, y_val, p_val):
    interp = Interpretation(variables={"x": x_val, "y": y_val, "p": p_val})
    assert holds(simplify(formula), interp) == holds(formula, interp)


@given(formula=_random_small_formulas(), x_val=st.integers(-2, 2),
       y_val=st.integers(-2, 2), p_val=st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_nnf_preserves_semantics(formula, x_val, y_val, p_val):
    interp = Interpretation(variables={"x": x_val, "y": y_val, "p": p_val})
    assert holds(to_nnf(formula), interp) == holds(formula, interp)
    assert holds(to_nnf(b.Not(formula)), interp) != holds(formula, interp)


class TestSkolemization:
    def test_skolem_constant_for_outer_existential(self):
        formula = to_nnf(parse_formula("EX k : int. k < size", ENV))
        skolemized = skolemize(formula)
        assert not contains_quantifier(skolemized)

    def test_skolem_function_under_universal(self):
        formula = to_nnf(parse_formula("ALL k : int. EX m : int. k < m", ENV))
        skolemized = prenex(skolemize(formula))
        # One universal remains; the existential became a Skolem application.
        assert contains_quantifier(skolemized)
        body = skolemized.body
        apps = [t for t in [body] if isinstance(t, App)]
        assert apps

    def test_eliminate_sugar_removes_iff(self):
        formula = parse_formula("x = 0 <-> y = 0", ENV)
        desugared = eliminate_sugar(formula)
        assert all(
            not (isinstance(t, App) and t.op in ("iff", "implies"))
            for t in [desugared]
        )


def test_validity_oracle_on_free_variables():
    formula = parse_formula("x <= y | y <= x", ENV)
    assert all(
        holds(formula, interp)
        for interp in all_interpretations(sorted(free_vars(formula), key=str))
    )
