"""Capture-avoiding substitution, renaming and alpha-equivalence."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from itertools import count

from .sorts import SortError
from .terms import (
    App,
    Binder,
    BoolLit,
    Const,
    IntLit,
    Term,
    Var,
    free_var_names,
    free_vars,
)


class FreshNameGenerator:
    """Generate fresh variable names that avoid a set of used names.

    The generator is deterministic: the same sequence of requests with the
    same initial used-set yields the same names, which keeps verification
    condition generation reproducible.
    """

    def __init__(self, used: set[str] | frozenset[str] | None = None) -> None:
        self._used: set[str] = set(used or ())
        self._counters: dict[str, count] = {}

    def fresh(self, base: str) -> str:
        """Return a fresh name derived from ``base``.

        The requested ``base`` itself is always marked as used first: a
        caller freshening away from ``x_1`` must never receive ``x_1`` back
        from the counter (the numeric suffix is stripped to obtain the
        counter stem, so the stem's counter could otherwise regenerate the
        original name), and a base that strips to empty (e.g. ``"_1"``,
        which falls back to the ``"v"`` stem) must not collide with an
        explicitly reserved name.
        """
        original = base
        base = base.rstrip("0123456789_") or "v"
        if original != base:
            self._used.add(original)
        if base not in self._used:
            self._used.add(base)
            return base
        counter = self._counters.setdefault(base, count(1))
        while True:
            candidate = f"{base}_{next(counter)}"
            if candidate not in self._used:
                self._used.add(candidate)
                return candidate

    def reserve(self, name: str) -> None:
        """Mark ``name`` as used."""
        self._used.add(name)


def substitute(term: Term, mapping: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of free variables.

    ``mapping`` maps variables to replacement terms.  Bound variables are
    renamed when they would capture a free variable of a replacement term.
    """
    if not mapping:
        return term
    _check_sorts(mapping)
    relevant_names = frozenset(v.name for v in mapping)
    if free_var_names(term).isdisjoint(relevant_names):
        return term
    replacement_free = frozenset().union(
        *(free_var_names(t) for t in mapping.values())
    )
    return _subst(term, dict(mapping), relevant_names, replacement_free, {})


def substituter(mapping: Mapping[Var, Term]) -> Callable[[Term], Term]:
    """:func:`substitute` with ``mapping`` fixed, for applying to many terms:
    a subterm the terms share is rewritten once."""
    _check_sorts(mapping)
    mapping = dict(mapping)
    relevant_names = frozenset(v.name for v in mapping)
    replacement_free = frozenset().union(
        *(free_var_names(t) for t in mapping.values())
    )
    memo: dict[Term, Term] = {}

    def apply(term: Term) -> Term:
        if free_var_names(term).isdisjoint(relevant_names):
            return term
        return _subst(term, mapping, relevant_names, replacement_free, memo)

    return apply


def _check_sorts(mapping: Mapping[Var, Term]) -> None:
    for var, replacement in mapping.items():
        if var.sort != replacement.sort:
            raise SortError(
                f"substituting {var.name}:{var.sort} with a term of sort "
                f"{replacement.sort}"
            )


def _subst(
    term: Term,
    mapping: dict[Var, Term],
    relevant_names: frozenset[str],
    replacement_free: frozenset[str],
    memo: dict[Term, Term],
) -> Term:
    """Substitution memoized by node identity.

    Hash-consed terms are DAGs in practice (shared subterms are the same
    object), so ``memo`` -- valid for one fixed ``mapping`` -- ensures every
    distinct subterm is rewritten at most once.  Subterms without relevant
    free variables are returned untouched, preserving sharing.
    """
    if isinstance(term, Var):
        return mapping.get(term, term)
    if isinstance(term, (Const, IntLit, BoolLit)):
        return term
    if free_var_names(term).isdisjoint(relevant_names):
        return term
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, App):
        new_args = tuple(
            _subst(a, mapping, relevant_names, replacement_free, memo)
            for a in term.args
        )
        result = term.rebuild(new_args)
        memo[term] = result
        return result
    if isinstance(term, Binder):
        bound_names = set(term.param_names)
        inner_mapping = {v: t for v, t in mapping.items() if v.name not in bound_names}
        if not inner_mapping:
            return term
        # Rename bound variables that would capture free variables of the
        # replacement terms.
        needs_rename = [
            (name, sort)
            for name, sort in term.params
            if name in replacement_free
        ]
        params = term.params
        body = term.body
        if needs_rename:
            used = set(free_var_names(body)) | set(replacement_free)
            used |= {v.name for v in inner_mapping}
            gen = FreshNameGenerator(used)
            rename: dict[Var, Term] = {}
            new_params = []
            for name, sort in term.params:
                if name in replacement_free:
                    fresh = gen.fresh(name)
                    rename[Var(name, sort)] = Var(fresh, sort)
                    new_params.append((fresh, sort))
                else:
                    new_params.append((name, sort))
            body = substitute(body, rename)
            params = tuple(new_params)
        if len(inner_mapping) == len(mapping) and body is term.body:
            # No binder parameter shadows the mapping and no renaming
            # happened: the recursion uses the same mapping, so the memo
            # stays valid.
            new_body = _subst(body, mapping, relevant_names, replacement_free, memo)
        else:
            inner_relevant = frozenset(v.name for v in inner_mapping)
            new_body = _subst(body, inner_mapping, inner_relevant, replacement_free, {})
        if new_body is term.body and params == term.params:
            result = term
        else:
            result = Binder(term.kind, params, new_body)
        memo[term] = result
        return result
    raise TypeError(f"unknown term type {type(term)!r}")


def substitute_by_name(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Substitute free variables selected by name (sorts taken from the term)."""
    by_var: dict[Var, Term] = {}
    for var in free_vars(term):
        if var.name in mapping:
            by_var[var] = mapping[var.name]
    return substitute(term, by_var)


def instantiate_binder(binder: Binder, args: tuple[Term, ...] | list[Term]) -> Term:
    """Replace a binder's parameters by ``args`` in its body (beta reduction)."""
    if len(args) != len(binder.params):
        raise ValueError(
            f"binder expects {len(binder.params)} arguments, got {len(args)}"
        )
    mapping = {Var(name, sort): arg for (name, sort), arg in zip(binder.params, args)}
    return substitute(binder.body, mapping)


def alpha_equal(left: Term, right: Term) -> bool:
    """Structural equality modulo renaming of bound variables."""
    return _alpha(left, right, {}, {})


def _alpha(
    left: Term,
    right: Term,
    lmap: dict[str, str],
    rmap: dict[str, str],
) -> bool:
    if isinstance(left, Var) and isinstance(right, Var):
        lname = lmap.get(left.name, left.name)
        rname = rmap.get(right.name, right.name)
        return lname == rname and left.sort == right.sort
    if type(left) is not type(right):
        return False
    if isinstance(left, (Const, IntLit, BoolLit)):
        return left == right
    if isinstance(left, App):
        assert isinstance(right, App)
        if left.op != right.op or len(left.args) != len(right.args):
            return False
        return all(_alpha(la, ra, lmap, rmap) for la, ra in zip(left.args, right.args))
    if isinstance(left, Binder):
        assert isinstance(right, Binder)
        if left.kind != right.kind or len(left.params) != len(right.params):
            return False
        new_lmap = dict(lmap)
        new_rmap = dict(rmap)
        for index, ((lname, lsort), (rname, rsort)) in enumerate(
            zip(left.params, right.params)
        ):
            if lsort != rsort:
                return False
            canonical = f"α{len(lmap)}_{index}"
            new_lmap[lname] = canonical
            new_rmap[rname] = canonical
        return _alpha(left.body, right.body, new_lmap, new_rmap)
    raise TypeError(f"unknown term type {type(left)!r}")
