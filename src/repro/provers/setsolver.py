"""A BAPA-style reasoner for sets with cardinalities.

This prover is the stand-in for the MONA / BAPA decision procedures in the
paper's portfolio.  It decides (soundly, and completely within its fragment
up to the LP relaxation) entailments whose atoms speak about

* set variables over a common element sort, combined with union,
  intersection, difference and finite set literals,
* membership of element terms,
* equalities / inclusions between set expressions,
* linear integer arithmetic over set cardinalities (``card``) and ordinary
  integer variables -- e.g. ``csize = card content``.

The decision procedure is the classic Venn-region encoding of BAPA
(Kuncak et al.): every set variable and every element term (viewed as a
singleton) becomes a dimension; each of the 2^n Venn regions gets a
non-negative integer size variable; every atom becomes a linear constraint
over region sums.  The conjunction is unsatisfiable if the resulting linear
system is infeasible; we check the rational relaxation (sound for
refutation) with the same simplex used by the SMT-lite prover.

Formulas outside the fragment make the prover answer UNKNOWN; the dispatcher
then falls back to the other reasoning systems, mirroring how Jahob applies
specialised provers only to the sequents they are suited for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from ..logic import builder as b
from ..logic.nnf import to_nnf
from ..logic.sorts import INT, SetSort, Sort
from ..logic.subst import substitute
from ..logic.terms import App, BoolLit, Const, IntLit, Term, Var, free_vars, subterms
from .interface import Prover
from .lia import LinearExpr, LinearSolver, linearize
from .result import Budget, Outcome, ProofTask, ProverResult
from .rewriter import split_conjuncts

__all__ = ["SetCardinalityProver"]

_MAX_DIMENSIONS = 8


class _OutsideFragment(Exception):
    """Raised when a formula cannot be translated to the BAPA fragment."""


@dataclass
class _CaseSplit:
    """Alternative constraints, each of which spawns a separate branch."""

    branches: list[tuple[LinearExpr, bool]]


@dataclass
class _Universe:
    """The dimensions of the Venn-region encoding."""

    elem_sort: Sort | None = None
    set_dims: list[Term] = field(default_factory=list)  # set variables
    elem_dims: list[Term] = field(default_factory=list)  # element terms

    def dim_index(self, term: Term, is_element: bool) -> int:
        dims = self.elem_dims if is_element else self.set_dims
        if term not in dims:
            dims.append(term)
        # Element dimensions are numbered after the set dimensions.
        if is_element:
            return len(self.set_dims) + self.elem_dims.index(term)
        return self.set_dims.index(term)

    @property
    def total_dims(self) -> int:
        return len(self.set_dims) + len(self.elem_dims)


class SetCardinalityProver(Prover):
    """Venn-region / cardinality decision procedure (BAPA-lite)."""

    name = "sets"
    #: 2: Venn-region systems are checked by simplex, without a row cap.
    revision = 2

    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        # Split the negated goal and the assumptions into conjuncts and
        # inline definitional equalities (``v = nodes Un {n}``) so that the
        # guarded-command assignment chains do not inflate the number of
        # Venn dimensions.
        goal_conjuncts = split_conjuncts(to_nnf(b.Not(task.goal)))
        assumption_conjuncts: list[Term] = []
        for formula in task.assumption_formulas:
            assumption_conjuncts.extend(split_conjuncts(to_nnf(formula)))
        definitions = _collect_definitions(assumption_conjuncts + goal_conjuncts)
        goal_conjuncts = [substitute(c, definitions) for c in goal_conjuncts]
        assumption_conjuncts = [
            substitute(c, definitions)
            for c in assumption_conjuncts
            if not _is_definition(c, definitions)
        ]

        # The negated goal must be translatable, otherwise this specialised
        # prover declines the sequent; assumption conjuncts outside the
        # fragment are simply dropped (sound: fewer assumptions).
        literals: list[tuple[Term, bool]] = []
        universe = _Universe()
        try:
            goal_literals: list[tuple[Term, bool]] = []
            for conjunct in goal_conjuncts:
                goal_literals.extend(_flatten_literal(conjunct))
            for atom, _positive in goal_literals:
                _scan_dimensions(atom, universe)
            literals.extend(goal_literals)
        except _OutsideFragment as exc:
            return ProverResult(Outcome.UNKNOWN, reason=f"outside fragment: {exc}")
        for conjunct in assumption_conjuncts:
            try:
                candidate = _flatten_literal(conjunct)
                probe = _Universe(
                    universe.elem_sort,
                    list(universe.set_dims),
                    list(universe.elem_dims),
                )
                for atom, _positive in candidate:
                    _scan_dimensions(atom, probe)
            except _OutsideFragment:
                continue
            literals.extend(candidate)
            universe = probe
        if universe.total_dims == 0 or universe.total_dims > _MAX_DIMENSIONS:
            return ProverResult(
                Outcome.UNKNOWN,
                reason=f"{universe.total_dims} dimensions (limit {_MAX_DIMENSIONS})",
            )
        budget.check()
        solver = LinearSolver(deadline=budget)
        regions = list(itertools.product([0, 1], repeat=universe.total_dims))
        region_vars = {
            region: Var("region_" + "".join(map(str, region)), INT)
            for region in regions
        }
        # Region sizes are non-negative.
        for var in region_vars.values():
            solver.add_le(linearize(IntLit(0)).sub(linearize(var)))
        # Each element dimension is a singleton.
        for index in range(len(universe.set_dims), universe.total_dims):
            expr = _sum_of(
                [region_vars[r] for r in regions if r[index] == 1]
            ).sub(LinearExpr.of_constant(1))
            solver.add_eq(expr)
        # Integer disequalities produce a case split (a < b or b < a); every
        # branch of the cross product must be infeasible for a refutation.
        branch_groups: list[list[tuple[LinearExpr, bool]]] = []
        try:
            for atom, positive in literals:
                translated = _constraints_for(
                    atom, positive, universe, regions, region_vars
                )
                if isinstance(translated, _CaseSplit):
                    branch_groups.append(translated.branches)
                    continue
                for constraint, is_eq in translated:
                    if is_eq:
                        solver.add_eq(constraint)
                    else:
                        solver.add_le(constraint)
                budget.check()
        except _OutsideFragment as exc:
            return ProverResult(Outcome.UNKNOWN, reason=f"outside fragment: {exc}")
        if len(branch_groups) > 3:
            return ProverResult(
                Outcome.UNKNOWN, reason="too many integer disequalities"
            )
        for combination in itertools.product(*branch_groups):
            branch_solver = solver.copy()
            for constraint, is_eq in combination:
                if is_eq:
                    branch_solver.add_eq(constraint)
                else:
                    branch_solver.add_le(constraint)
            budget.check()
            if not branch_solver.is_infeasible():
                return ProverResult(
                    Outcome.UNKNOWN, reason="Venn-region system feasible"
                )
        return ProverResult(Outcome.PROVED, reason="Venn-region system infeasible")


# ---------------------------------------------------------------------------
# Fragment recognition and translation
# ---------------------------------------------------------------------------


def _collect_definitions(conjuncts: list[Term]) -> dict[Var, Term]:
    """Definitional equalities ``v = t`` among the conjuncts, fully resolved
    (chains like ``nodes_1 = v_1`` and ``v_1 = nodes Un {n}`` collapse)."""
    definitions: dict[Var, Term] = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, App) and conjunct.op == "eq"):
            continue
        left, right = conjunct.args
        for var, value in ((left, right), (right, left)):
            if not isinstance(var, Var) or var in definitions:
                continue
            if var in free_vars(value):
                continue
            definitions[var] = value
            break
    # Resolve chains (bounded by the number of definitions).
    for _ in range(len(definitions)):
        changed = False
        for var, value in list(definitions.items()):
            resolved = substitute(
                value, {v: t for v, t in definitions.items() if v != var}
            )
            if resolved != value and var not in free_vars(resolved):
                definitions[var] = resolved
                changed = True
        if not changed:
            break
    # Drop any residual self-referential entries.
    return {v: t for v, t in definitions.items() if v not in free_vars(t)}


def _is_definition(conjunct: Term, definitions: dict[Var, Term]) -> bool:
    if not (isinstance(conjunct, App) and conjunct.op == "eq"):
        return False
    left, right = conjunct.args
    return (isinstance(left, Var) and left in definitions) or (
        isinstance(right, Var) and right in definitions
    )


def _flatten_literal(formula: Term) -> list[tuple[Term, bool]]:
    """Split an NNF conjunct into (atom, polarity) pairs; reject disjunctions."""
    if isinstance(formula, BoolLit):
        if formula.value:
            return []
        raise _OutsideFragment("false conjunct")
    if isinstance(formula, App) and formula.op == "and":
        out: list[tuple[Term, bool]] = []
        for arg in formula.args:
            out.extend(_flatten_literal(arg))
        return out
    if isinstance(formula, App) and formula.op == "not":
        inner = formula.args[0]
        if isinstance(inner, App) and inner.op in (
            "member",
            "subseteq",
            "eq",
            "le",
            "lt",
        ):
            return [(inner, False)]
        raise _OutsideFragment(f"negated {type(inner).__name__}")
    if isinstance(formula, App) and formula.op in (
        "member",
        "subseteq",
        "eq",
        "le",
        "lt",
    ):
        return [(formula, True)]
    raise _OutsideFragment(f"unsupported connective {formula}")


def _scan_dimensions(atom: Term, universe: _Universe) -> None:
    if isinstance(atom, App) and atom.op == "member":
        element, the_set = atom.args
        _register_element(element, universe)
        _register_set_expression(the_set, universe)
        return
    if isinstance(atom, App) and atom.op in ("subseteq",):
        _register_set_expression(atom.args[0], universe)
        _register_set_expression(atom.args[1], universe)
        return
    if isinstance(atom, App) and atom.op == "eq":
        left, right = atom.args
        if isinstance(left.sort, SetSort):
            _register_set_expression(left, universe)
            _register_set_expression(right, universe)
            return
        if left.sort == INT:
            _register_arith(atom, universe)
            return
        # equality between element terms
        _register_element(left, universe)
        _register_element(right, universe)
        return
    if isinstance(atom, App) and atom.op in ("le", "lt"):
        _register_arith(atom, universe)
        return
    raise _OutsideFragment(f"unsupported atom {atom}")


def _register_arith(atom: Term, universe: _Universe) -> None:
    for sub in subterms(atom):
        if isinstance(sub, App) and sub.op == "card":
            _register_set_expression(sub.args[0], universe)
        elif isinstance(sub, App) and sub.op in ("select", "store"):
            raise _OutsideFragment("array term in arithmetic atom")


def _register_set_expression(term: Term, universe: _Universe) -> None:
    if isinstance(term, (Var, Const)) and isinstance(term.sort, SetSort):
        _check_elem_sort(term.sort.elem, universe)
        universe.dim_index(term, is_element=False)
        return
    if isinstance(term, App) and term.op in ("union", "inter", "setminus"):
        _register_set_expression(term.args[0], universe)
        _register_set_expression(term.args[1], universe)
        return
    if isinstance(term, App) and term.op == "setenum":
        assert isinstance(term.sort, SetSort)
        _check_elem_sort(term.sort.elem, universe)
        for element in term.args:
            _register_element(element, universe)
        return
    raise _OutsideFragment(f"unsupported set expression {term}")


def _register_element(term: Term, universe: _Universe) -> None:
    if isinstance(term.sort, SetSort):
        raise _OutsideFragment("set-valued element term")
    _check_elem_sort(term.sort, universe)
    universe.dim_index(term, is_element=True)


def _check_elem_sort(sort: Sort, universe: _Universe) -> None:
    if isinstance(sort, SetSort):
        raise _OutsideFragment("nested set sorts")
    if universe.elem_sort is None:
        universe.elem_sort = sort
    elif universe.elem_sort != sort:
        raise _OutsideFragment(f"mixed element sorts {universe.elem_sort} and {sort}")


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


def _region_in(term: Term, region: tuple[int, ...], universe: _Universe) -> bool:
    """Is a Venn region inside the denotation of a set expression?"""
    if isinstance(term, (Var, Const)) and isinstance(term.sort, SetSort):
        return region[universe.set_dims.index(term)] == 1
    if isinstance(term, App):
        if term.op == "union":
            return _region_in(term.args[0], region, universe) or _region_in(
                term.args[1], region, universe
            )
        if term.op == "inter":
            return _region_in(term.args[0], region, universe) and _region_in(
                term.args[1], region, universe
            )
        if term.op == "setminus":
            return _region_in(term.args[0], region, universe) and not _region_in(
                term.args[1], region, universe
            )
        if term.op == "setenum":
            return any(
                _region_in_element(element, region, universe)
                for element in term.args
            )
    raise _OutsideFragment(f"unsupported set expression {term}")


def _region_in_element(
    element: Term, region: tuple[int, ...], universe: _Universe
) -> bool:
    index = len(universe.set_dims) + universe.elem_dims.index(element)
    return region[index] == 1


def _sum_of(variables: list[Var]) -> LinearExpr:
    expr = LinearExpr.of_constant(0)
    for var in variables:
        expr = expr.add(LinearExpr.of_atom(var))
    return expr


def _cardinality_expr(
    set_expr: Term,
    regions: list[tuple[int, ...]],
    region_vars: dict[tuple[int, ...], Var],
    universe: _Universe,
) -> LinearExpr:
    members = [region_vars[r] for r in regions if _region_in(set_expr, r, universe)]
    return _sum_of(members)


def _arith_expr(
    term: Term,
    regions: list[tuple[int, ...]],
    region_vars: dict[tuple[int, ...], Var],
    universe: _Universe,
) -> LinearExpr:
    """Linearise an integer term, replacing ``card`` by region sums."""
    if isinstance(term, IntLit):
        return LinearExpr.of_constant(term.value)
    if isinstance(term, App):
        if term.op == "card":
            return _cardinality_expr(term.args[0], regions, region_vars, universe)
        if term.op == "add":
            expr = LinearExpr.of_constant(0)
            for arg in term.args:
                expr = expr.add(_arith_expr(arg, regions, region_vars, universe))
            return expr
        if term.op == "sub":
            return _arith_expr(term.args[0], regions, region_vars, universe).sub(
                _arith_expr(term.args[1], regions, region_vars, universe)
            )
        if term.op == "neg":
            return _arith_expr(term.args[0], regions, region_vars, universe).scale(-1)
        if term.op == "mul":
            left = _arith_expr(term.args[0], regions, region_vars, universe)
            right = _arith_expr(term.args[1], regions, region_vars, universe)
            if left.is_constant:
                return right.scale(left.constant)
            if right.is_constant:
                return left.scale(right.constant)
            raise _OutsideFragment("non-linear arithmetic")
        if term.op in ("select", "div", "mod"):
            raise _OutsideFragment(f"{term.op} in arithmetic")
    if term.sort == INT:
        return LinearExpr.of_atom(term)
    raise _OutsideFragment(f"non-integer term {term}")


def _constraints_for(
    atom: Term,
    positive: bool,
    universe: _Universe,
    regions: list[tuple[int, ...]],
    region_vars: dict[tuple[int, ...], Var],
) -> list[tuple[LinearExpr, bool]]:
    """Translate one literal into (expr, is_equality) rows (expr <= 0 / = 0)."""
    constraints: list[tuple[LinearExpr, bool]] = []
    if isinstance(atom, App) and atom.op == "member":
        element, the_set = atom.args
        singleton = App("setenum", (element,), SetSort(element.sort))
        if positive:
            # |{e} \ S| = 0
            diff = App("setminus", (singleton, the_set), singleton.sort)
        else:
            # |{e} inter S| = 0
            diff = App("inter", (singleton, the_set), singleton.sort)
        constraints.append(
            (_cardinality_expr(diff, regions, region_vars, universe), True)
        )
        return constraints
    if isinstance(atom, App) and atom.op == "subseteq":
        left, right = atom.args
        difference = App("setminus", (left, right), left.sort)
        size = _cardinality_expr(difference, regions, region_vars, universe)
        if positive:
            constraints.append((size, True))
        else:
            constraints.append((LinearExpr.of_constant(1).sub(size), False))
        return constraints
    if isinstance(atom, App) and atom.op == "eq":
        left, right = atom.args
        if isinstance(left.sort, SetSort):
            left_minus = App("setminus", (left, right), left.sort)
            right_minus = App("setminus", (right, left), left.sort)
            size = _cardinality_expr(
                left_minus, regions, region_vars, universe
            ).add(_cardinality_expr(right_minus, regions, region_vars, universe))
            if positive:
                constraints.append((size, True))
            else:
                constraints.append((LinearExpr.of_constant(1).sub(size), False))
            return constraints
        if left.sort == INT:
            left_expr = _arith_expr(left, regions, region_vars, universe)
            right_expr = _arith_expr(right, regions, region_vars, universe)
            if positive:
                constraints.append((left_expr.sub(right_expr), True))
                return constraints
            # a /= b over the integers: a + 1 <= b  OR  b + 1 <= a.
            return _CaseSplit(
                [
                    (left_expr.sub(right_expr).add(LinearExpr.of_constant(1)), False),
                    (right_expr.sub(left_expr).add(LinearExpr.of_constant(1)), False),
                ]
            )
        # element equality / disequality
        left_single = App("setenum", (left,), SetSort(left.sort))
        right_single = App("setenum", (right,), SetSort(right.sort))
        if positive:
            sym = App(
                "union",
                (
                    App("setminus", (left_single, right_single), left_single.sort),
                    App("setminus", (right_single, left_single), left_single.sort),
                ),
                left_single.sort,
            )
            constraints.append(
                (_cardinality_expr(sym, regions, region_vars, universe), True)
            )
        else:
            overlap = App("inter", (left_single, right_single), left_single.sort)
            constraints.append(
                (_cardinality_expr(overlap, regions, region_vars, universe), True)
            )
        return constraints
    if isinstance(atom, App) and atom.op in ("le", "lt"):
        left = _arith_expr(atom.args[0], regions, region_vars, universe)
        right = _arith_expr(atom.args[1], regions, region_vars, universe)
        if positive:
            gap = Fraction(1) if atom.op == "lt" else Fraction(0)
            constraints.append(
                (left.sub(right).add(LinearExpr.of_constant(gap)), False)
            )
        else:
            # ~(l <= r) == r + 1 <= l ; ~(l < r) == r <= l
            gap = Fraction(0) if atom.op == "lt" else Fraction(1)
            constraints.append(
                (right.sub(left).add(LinearExpr.of_constant(gap)), False)
            )
        return constraints
    raise _OutsideFragment(f"unsupported atom {atom}")
