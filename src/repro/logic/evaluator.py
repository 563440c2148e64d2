"""Finite-model evaluation of terms.

An :class:`Interpretation` fixes a finite universe for the ``obj`` sort and a
bounded integer range used when enumerating quantifiers over ``int``.  Under
such an interpretation every term of the logic can be evaluated to a Python
value:

* ``bool``  -> ``bool``
* ``int``   -> ``int``
* ``obj``   -> an element of the object universe (``None`` represents ``null``)
* sets      -> ``frozenset``
* tuples    -> ``tuple``
* maps      -> :class:`FiniteMap`

The evaluator is the semantic reference point of the whole reproduction: the
test suite uses it as an oracle (simplification, normal forms, substitution
and the provers are all checked against it on random small interpretations).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .sorts import BOOL, INT, OBJ, MapSort, SetSort, Sort, TupleSort
from .terms import (
    COMPREHENSION,
    EXISTS,
    FORALL,
    LAMBDA,
    App,
    Binder,
    BoolLit,
    Const,
    IntLit,
    Term,
    Var,
)


class EvaluationError(ValueError):
    """Raised when a term cannot be evaluated under the given interpretation."""


@dataclass(frozen=True)
class FiniteMap:
    """A finite map value with a default for unlisted keys."""

    entries: tuple[tuple[object, object], ...] = ()
    default: object = None

    def get(self, key: object) -> object:
        for k, v in self.entries:
            if k == key:
                return v
        return self.default

    def set(self, key: object, value: object) -> "FiniteMap":
        filtered = tuple((k, v) for k, v in self.entries if k != key)
        return FiniteMap(filtered + ((key, value),), self.default)

    @classmethod
    def from_dict(cls, mapping: Mapping[object, object], default: object = None):
        return cls(tuple(sorted(mapping.items(), key=repr)), default)


@dataclass
class Interpretation:
    """A finite interpretation of the logic.

    ``objects`` is the universe of the ``obj`` sort (``None`` -- i.e. ``null``
    -- is always added).  ``int_range`` bounds the integers enumerated when
    evaluating quantifiers and comprehensions over ``int``; integer *terms*
    are still evaluated exactly.
    """

    objects: tuple[object, ...] = ("o0", "o1", "o2")
    int_range: tuple[int, int] = (-4, 4)
    variables: dict[str, object] = field(default_factory=dict)
    constants: dict[str, object] = field(default_factory=dict)
    functions: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if None not in self.objects:
            self.objects = (None,) + tuple(self.objects)
        self.constants.setdefault("null", None)

    def with_variables(self, extra: Mapping[str, object]) -> "Interpretation":
        merged = dict(self.variables)
        merged.update(extra)
        return Interpretation(
            self.objects, self.int_range, merged, dict(self.constants),
            dict(self.functions),
        )

    # -- domain enumeration ---------------------------------------------------

    def domain(self, sort: Sort, set_depth: int = 1) -> list[object]:
        """Enumerate the finite domain of ``sort``.

        Sets are enumerated only up to ``set_depth`` to keep the search space
        bounded; quantification over set sorts is rare in practice and only
        exercised by small tests.
        """
        if sort == BOOL:
            return [False, True]
        if sort == INT:
            low, high = self.int_range
            return list(range(low, high + 1))
        if sort == OBJ:
            return list(self.objects)
        if isinstance(sort, TupleSort):
            spaces = [self.domain(s, set_depth) for s in sort.items]
            return [tuple(combo) for combo in itertools.product(*spaces)]
        if isinstance(sort, SetSort):
            if set_depth <= 0:
                raise EvaluationError(f"refusing to enumerate nested set sort {sort}")
            base = self.domain(sort.elem, set_depth - 1)
            subsets: list[object] = []
            for size in range(len(base) + 1):
                for combo in itertools.combinations(base, size):
                    subsets.append(frozenset(combo))
            return subsets
        if isinstance(sort, MapSort):
            raise EvaluationError(f"cannot enumerate map sort {sort}")
        raise EvaluationError(f"cannot enumerate sort {sort}")

    def default_value(self, sort: Sort) -> object:
        """A canonical default element of ``sort``."""
        if sort == BOOL:
            return False
        if sort == INT:
            return 0
        if sort == OBJ:
            return None
        if isinstance(sort, SetSort):
            return frozenset()
        if isinstance(sort, TupleSort):
            return tuple(self.default_value(s) for s in sort.items)
        if isinstance(sort, MapSort):
            return FiniteMap((), self.default_value(sort.ran))
        raise EvaluationError(f"no default value for sort {sort}")


def evaluate(term: Term, interp: Interpretation) -> object:
    """Evaluate ``term`` under ``interp``; free variables are looked up in
    ``interp.variables`` and default to the sort's default value."""
    return _eval(term, interp, dict(interp.variables))


def holds(formula: Term, interp: Interpretation) -> bool:
    """Evaluate a formula to a boolean."""
    value = evaluate(formula, interp)
    if not isinstance(value, bool):
        raise EvaluationError(f"formula evaluated to non-boolean {value!r}")
    return value


def _lookup_var(var: Var, interp: Interpretation, env: dict[str, object]) -> object:
    if var.name in env:
        return env[var.name]
    return interp.default_value(var.sort)


def _lookup_function(
    name: str, args: tuple[object, ...], interp: Interpretation, sort: Sort
) -> object:
    table = interp.functions.get(name)
    if table is None:
        return interp.default_value(sort)
    if callable(table):
        return table(*args)
    if isinstance(table, Mapping):
        key = args if len(args) != 1 else args[0]
        if key in table:
            return table[key]
        return interp.default_value(sort)
    if not args:
        return table
    raise EvaluationError(f"cannot apply interpretation of {name!r}")


def _eval(term: Term, interp: Interpretation, env: dict[str, object]) -> object:
    if isinstance(term, Var):
        return _lookup_var(term, interp, env)
    if isinstance(term, Const):
        if term.name in interp.constants:
            return interp.constants[term.name]
        return interp.default_value(term.sort)
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, BoolLit):
        return term.value
    if isinstance(term, Binder):
        return _eval_binder(term, interp, env)
    if isinstance(term, App):
        return _eval_app(term, interp, env)
    raise EvaluationError(f"unknown term type {type(term)!r}")


def _eval_binder(term: Binder, interp: Interpretation, env: dict[str, object]):
    names = term.param_names
    sorts = [s for _, s in term.params]
    if term.kind in (FORALL, EXISTS):
        spaces = [interp.domain(s) for s in sorts]
        for combo in itertools.product(*spaces):
            inner = dict(env)
            inner.update(zip(names, combo))
            value = _eval(term.body, interp, inner)
            if term.kind == FORALL and not value:
                return False
            if term.kind == EXISTS and value:
                return True
        return term.kind == FORALL
    if term.kind == COMPREHENSION:
        spaces = [interp.domain(s) for s in sorts]
        members = []
        for combo in itertools.product(*spaces):
            inner = dict(env)
            inner.update(zip(names, combo))
            if _eval(term.body, interp, inner):
                members.append(combo[0] if len(combo) == 1 else tuple(combo))
        return frozenset(members)
    if term.kind == LAMBDA:
        if len(sorts) != 1:
            raise EvaluationError("only unary lambdas can be evaluated to maps")
        space = interp.domain(sorts[0])
        entries = []
        for value in space:
            inner = dict(env)
            inner[names[0]] = value
            entries.append((value, _eval(term.body, interp, inner)))
        assert isinstance(term.sort, MapSort)
        return FiniteMap(tuple(entries), interp.default_value(term.sort.ran))
    raise EvaluationError(f"unknown binder kind {term.kind}")


def _eval_app(term: App, interp: Interpretation, env: dict[str, object]):
    op = term.op
    # Short-circuiting boolean connectives.
    if op == "and":
        return all(_eval(a, interp, env) for a in term.args)
    if op == "or":
        return any(_eval(a, interp, env) for a in term.args)
    if op == "not":
        return not _eval(term.args[0], interp, env)
    if op == "implies":
        return (not _eval(term.args[0], interp, env)) or bool(
            _eval(term.args[1], interp, env)
        )
    if op == "iff":
        return bool(_eval(term.args[0], interp, env)) == bool(
            _eval(term.args[1], interp, env)
        )
    if op == "ite":
        if _eval(term.args[0], interp, env):
            return _eval(term.args[1], interp, env)
        return _eval(term.args[2], interp, env)
    args = [_eval(a, interp, env) for a in term.args]
    if op == "eq":
        return args[0] == args[1]
    if op == "lt":
        return args[0] < args[1]
    if op == "le":
        return args[0] <= args[1]
    if op == "add":
        return sum(args)
    if op == "sub":
        return args[0] - args[1]
    if op == "neg":
        return -args[0]
    if op == "mul":
        return args[0] * args[1]
    if op == "div":
        if args[1] == 0:
            return 0
        return args[0] // args[1]
    if op == "mod":
        if args[1] == 0:
            return 0
        return args[0] % args[1]
    if op == "select":
        base = args[0]
        if not isinstance(base, FiniteMap):
            raise EvaluationError("select applied to a non-map value")
        return base.get(args[1])
    if op == "store":
        base = args[0]
        if not isinstance(base, FiniteMap):
            raise EvaluationError("store applied to a non-map value")
        return base.set(args[1], args[2])
    if op == "union":
        return frozenset(args[0]) | frozenset(args[1])
    if op == "inter":
        return frozenset(args[0]) & frozenset(args[1])
    if op == "setminus":
        return frozenset(args[0]) - frozenset(args[1])
    if op == "member":
        return args[0] in args[1]
    if op == "subseteq":
        return frozenset(args[0]) <= frozenset(args[1])
    if op == "card":
        return len(args[0])
    if op == "setenum":
        return frozenset(args)
    if op == "tuple":
        return tuple(args)
    if op == "proj":
        index = args[0]
        return args[1][index]
    if op == "old":
        raise EvaluationError(
            "old(...) must be eliminated before evaluation (it is a "
            "surface-specification construct)"
        )
    # Uninterpreted function or constant symbol.
    return _lookup_function(op, tuple(args), interp, term.sort)


def all_interpretations(
    free: Iterable[Var],
    objects: tuple[object, ...] = ("o0", "o1"),
    int_values: Iterable[int] = (-1, 0, 1, 2),
    int_range: tuple[int, int] = (-1, 2),
) -> Iterable[Interpretation]:
    """Enumerate interpretations assigning all combinations of values to
    ``free`` variables (used by the brute-force validity oracle in tests)."""
    free = list(free)
    base = Interpretation(objects=objects, int_range=int_range)
    spaces = []
    for var in free:
        if var.sort == INT:
            spaces.append(list(int_values))
        else:
            spaces.append(base.domain(var.sort))
    for combo in itertools.product(*spaces):
        yield base.with_variables(dict(zip((v.name for v in free), combo)))
