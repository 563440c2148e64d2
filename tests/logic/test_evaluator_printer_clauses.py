"""Additional coverage: evaluator data values and printers."""

import pytest

from repro.logic import (
    INT,
    OBJ,
    Card,
    Compr,
    EmptySet,
    Eq,
    Int,
    IntVar,
    Lambda,
    Lt,
    Member,
    ObjVar,
    Select,
    SetEnum,
    Store,
    Tuple,
    Union,
    Var,
    map_of,
    set_of,
)
from repro.logic.evaluator import (
    EvaluationError,
    FiniteMap,
    Interpretation,
    evaluate,
    holds,
)
from repro.logic.parser import parse_formula
from repro.logic.printer import to_ascii, to_unicode
from repro.logic import builder as b

x, y = IntVar("x"), IntVar("y")
a = ObjVar("a")
nodes = Var("nodes", set_of(OBJ))
g = Var("g", map_of(INT, INT))


class TestFiniteMap:
    def test_get_set_roundtrip(self):
        empty = FiniteMap((), 0)
        updated = empty.set(1, 5).set(2, 7).set(1, 9)
        assert updated.get(1) == 9
        assert updated.get(2) == 7
        assert updated.get(3) == 0

    def test_from_dict(self):
        table = FiniteMap.from_dict({1: 2, 3: 4}, default=-1)
        assert table.get(3) == 4 and table.get(9) == -1


class TestEvaluator:
    def test_set_operations(self):
        interp = Interpretation(variables={"nodes": frozenset(["o0", "o1"]), "a": "o0"})
        assert holds(Member(a, nodes), interp)
        assert evaluate(Card(nodes), interp) == 2
        grown = Union(nodes, SetEnum(a))
        assert evaluate(grown, interp) == frozenset(["o0", "o1"])

    def test_map_select_store(self):
        interp = Interpretation(variables={"g": FiniteMap(((1, 10),), 0), "x": 1})
        assert evaluate(Select(g, x), interp) == 10
        stored = Store(g, Int(2), Int(20))
        assert evaluate(Select(stored, Int(2)), interp) == 20

    def test_comprehension_and_lambda(self):
        interp = Interpretation(int_range=(0, 3))
        squares_below = Compr([x], Lt(x, Int(2)))
        assert evaluate(squares_below, interp) == frozenset({0, 1})
        successor = Lambda([x], b.Plus(x, Int(1)))
        table = evaluate(successor, interp)
        assert isinstance(table, FiniteMap) and table.get(2) == 3

    def test_tuple_values(self):
        interp = Interpretation(variables={"x": 1, "a": "o0"})
        assert evaluate(Tuple(x, a), interp) == (1, "o0")

    def test_old_is_rejected(self):
        interp = Interpretation()
        with pytest.raises(EvaluationError):
            evaluate(b.Old(x), interp)

    def test_default_values(self):
        interp = Interpretation()
        assert holds(Eq(Card(EmptySet(OBJ)), Int(0)), interp)


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "x <= y & ~(x = y)",
            "ALL k : int. k in S --> 0 <= k",
            "card (S Un T) <= card S + card T",
            "g[x := y][x] = y",
        ],
    )
    def test_ascii_roundtrip(self, text):
        env = {
            "x": INT,
            "y": INT,
            "S": set_of(INT),
            "T": set_of(INT),
            "g": map_of(INT, INT),
        }
        formula = parse_formula(text, env)
        assert parse_formula(to_ascii(formula), env) == formula

    def test_unicode_symbols(self):
        env = {"S": set_of(INT), "T": set_of(INT)}
        rendered = to_unicode(parse_formula("S subseteq T & card S <= 3", env))
        assert "⊆" in rendered and "≤" in rendered
