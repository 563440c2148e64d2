"""Hash-consed term and formula AST for the specification logic.

The logic is a simply-sorted fragment of higher-order logic, rich enough to
express the specifications in the paper's benchmark suite:

* boolean connectives and quantifiers,
* linear integer arithmetic (with ``mod`` for the hash table),
* uninterpreted functions and constants,
* total maps with ``select``/``store`` (modelling Java fields and arrays as
  function-update expressions, exactly as Jahob does),
* finite sets and relations (sets of tuples) with union, intersection,
  difference, membership, subset, and cardinality,
* set comprehensions and lambda abstractions (used by ``vardefs``
  abstraction functions such as
  ``content == {(i, n). 0 <= i & i < size & n = elements[i]}``).

Formulas are simply terms of sort ``bool``.

Terms are *hash-consed*: every constructor interns the node in a pool keyed
by its structural content, so structurally equal terms are the **same
Python object**.  Each node carries

* a structural hash precomputed at construction (``hash`` is O(1) instead
  of O(tree) -- the provers use terms as dictionary keys constantly),
* the frozenset of its free variable names (so the occurs-checks in
  substitution and quantifier pruning are O(1) lookups),
* an identity fast path in ``__eq__``.

The canonical entry points are the classes themselves (``App(...)`` returns
the interned node) and the :func:`mk_var` / :func:`mk_const` / :func:`mk_int`
/ :func:`mk_bool` / :func:`mk_app` / :func:`mk_binder` aliases.  The
:func:`term_stats` counters report pool hits versus fresh allocations so the
benchmark harness can track sharing.
"""

from __future__ import annotations

from functools import lru_cache

from .sorts import (
    BOOL,
    INT,
    OBJ,
    FunSort,
    MapSort,
    SetSort,
    Sort,
    SortError,
    TupleSort,
)

# ---------------------------------------------------------------------------
# Operator registry
# ---------------------------------------------------------------------------

#: Boolean connectives.
BOOL_OPS = frozenset({"and", "or", "not", "implies", "iff"})

#: Integer arithmetic and comparisons.
ARITH_OPS = frozenset({"add", "sub", "neg", "mul", "div", "mod"})
COMPARE_OPS = frozenset({"lt", "le"})

#: Polymorphic equality.
EQ_OPS = frozenset({"eq"})

#: Map (field / array) operations.
MAP_OPS = frozenset({"select", "store"})

#: Set and relation operations.
SET_OPS = frozenset(
    {"union", "inter", "setminus", "member", "subseteq", "card", "setenum"}
)

#: Tuple construction and projection.
TUPLE_OPS = frozenset({"tuple", "proj"})

#: Conditional term.
ITE_OPS = frozenset({"ite"})

#: ``old`` wrapper -- only appears in surface specifications; the frontend
#: eliminates it before verification-condition generation.
OLD_OPS = frozenset({"old"})

INTERPRETED_OPS = (
    BOOL_OPS
    | ARITH_OPS
    | COMPARE_OPS
    | EQ_OPS
    | MAP_OPS
    | SET_OPS
    | TUPLE_OPS
    | ITE_OPS
    | OLD_OPS
)

#: Binder kinds.
FORALL = "forall"
EXISTS = "exists"
LAMBDA = "lambda"
COMPREHENSION = "compr"
BINDER_KINDS = frozenset({FORALL, EXISTS, LAMBDA, COMPREHENSION})


# ---------------------------------------------------------------------------
# Interning pools and allocation statistics
# ---------------------------------------------------------------------------


class TermStats:
    """Counters for the hash-consing pools (see :func:`term_stats`)."""

    __slots__ = ("allocated", "interned_hits")

    def __init__(self) -> None:
        self.allocated = 0
        self.interned_hits = 0

    def reset(self) -> None:
        self.allocated = 0
        self.interned_hits = 0

    @property
    def constructions(self) -> int:
        return self.allocated + self.interned_hits

    @property
    def hit_rate(self) -> float:
        total = self.constructions
        return self.interned_hits / total if total else 0.0

    def snapshot(self) -> "TermStats":
        copy = TermStats()
        copy.allocated = self.allocated
        copy.interned_hits = self.interned_hits
        return copy


_STATS = TermStats()

_VAR_POOL: dict = {}
_CONST_POOL: dict = {}
_INT_POOL: dict = {}
_BOOL_POOL: dict = {}
_APP_POOL: dict = {}
_BINDER_POOL: dict = {}

# Pools are cleared wholesale when they grow past this limit, so a
# long-running service cannot accumulate every term ever built.  Clearing
# is safe: live terms stay valid, equality falls back to the structural
# comparison across a clear, and new constructions simply repopulate the
# pool (see ``clear_term_pools``).
_POOL_LIMIT = 1 << 19

_EMPTY_NAMES: frozenset[str] = frozenset()


def term_stats() -> TermStats:
    """A snapshot of the hash-consing counters (allocations vs pool hits)."""
    return _STATS.snapshot()


def reset_term_stats() -> None:
    """Reset the allocation/pool-hit counters (used by the benchmarks)."""
    _STATS.reset()


def clear_term_pools() -> None:
    """Drop every pool entry (terms alive elsewhere stay valid; equality
    falls back to the structural comparison for nodes created before the
    clear).  Mostly useful to bound memory in very long-running services and
    to make allocation counts reproducible in benchmarks."""
    _VAR_POOL.clear()
    _CONST_POOL.clear()
    _INT_POOL.clear()
    _BOOL_POOL.clear()
    _APP_POOL.clear()
    _BINDER_POOL.clear()
    # Re-seed the canonical literals so new constructions keep returning the
    # module-level TRUE/FALSE/ZERO/ONE/NULL objects.
    _BOOL_POOL[True] = TRUE
    _BOOL_POOL[False] = FALSE
    _INT_POOL[0] = ZERO
    _INT_POOL[1] = ONE
    _CONST_POOL[("null", OBJ)] = NULL
    free_vars.cache_clear()
    function_symbols.cache_clear()


class Term:
    """Base class of all AST nodes.  Instances are immutable, interned and
    hashable; structural equality of interned nodes is object identity."""

    __slots__ = ("sort", "_hash", "_free_names", "__weakref__")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __copy__(self) -> "Term":
        return self

    def __deepcopy__(self, memo: dict) -> "Term":
        return self

    @property
    def is_formula(self) -> bool:
        """True when the term has sort ``bool``."""
        return self.sort is BOOL or self.sort == BOOL

    # The children/rebuild protocol lets generic traversals (substitution,
    # simplification, evaluation) work uniformly over every node type.
    def children(self) -> tuple["Term", ...]:
        return ()

    def rebuild(self, children: tuple["Term", ...]) -> "Term":
        if children:
            raise ValueError(f"{type(self).__name__} has no children")
        return self

    def __str__(self) -> str:
        from .printer import to_ascii

        return to_ascii(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def _init(instance: Term, sort: Sort, structural_hash: int, free_names) -> None:
    _set = object.__setattr__
    _set(instance, "sort", sort)
    _set(instance, "_hash", structural_hash)
    _set(instance, "_free_names", free_names)


class Var(Term):
    """A variable (bound or free) with an explicit sort."""

    __slots__ = ("name",)

    def __new__(cls, name: str, sort: Sort = OBJ) -> "Var":
        cached = _VAR_POOL.get((name, sort))
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        if not name:
            raise ValueError("variable name must be non-empty")
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        _init(self, sort, hash((Var, name, sort)), frozenset((name,)))
        if len(_VAR_POOL) >= _POOL_LIMIT:
            _VAR_POOL.clear()
        _VAR_POOL[(name, sort)] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Var:
            return NotImplemented
        return self.name == other.name and self.sort == other.sort

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (Var, (self.name, self.sort))


class Const(Term):
    """An uninterpreted constant symbol (e.g. ``null``)."""

    __slots__ = ("name",)

    def __new__(cls, name: str, sort: Sort = OBJ) -> "Const":
        cached = _CONST_POOL.get((name, sort))
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        _init(self, sort, hash((Const, name, sort)), _EMPTY_NAMES)
        if len(_CONST_POOL) >= _POOL_LIMIT:
            _CONST_POOL.clear()
            _CONST_POOL[("null", OBJ)] = NULL
        _CONST_POOL[(name, sort)] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Const:
            return NotImplemented
        return self.name == other.name and self.sort == other.sort

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (Const, (self.name, self.sort))


class IntLit(Term):
    """An integer literal."""

    __slots__ = ("value",)

    def __new__(cls, value: int) -> "IntLit":
        cached = _INT_POOL.get(value)
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        _init(self, INT, hash((IntLit, value)), _EMPTY_NAMES)
        if len(_INT_POOL) >= _POOL_LIMIT:
            _INT_POOL.clear()
            _INT_POOL[0] = ZERO
            _INT_POOL[1] = ONE
        _INT_POOL[value] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not IntLit:
            return NotImplemented
        return self.value == other.value

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (IntLit, (self.value,))


class BoolLit(Term):
    """A boolean literal (``true`` / ``false``)."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "BoolLit":
        cached = _BOOL_POOL.get(value)
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        _init(self, BOOL, hash((BoolLit, value)), _EMPTY_NAMES)
        _BOOL_POOL[value] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not BoolLit:
            return NotImplemented
        return self.value == other.value

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (BoolLit, (self.value,))


def _union_free_names(parts: tuple[Term, ...]) -> frozenset[str]:
    if not parts:
        return _EMPTY_NAMES
    if len(parts) == 1:
        return parts[0]._free_names
    first = parts[0]._free_names
    if all(p._free_names is first or p._free_names <= first for p in parts[1:]):
        return first
    return first.union(*(p._free_names for p in parts[1:]))


class App(Term):
    """Application of an operator or uninterpreted function to arguments.

    ``op`` is either one of the interpreted operator names in
    :data:`INTERPRETED_OPS` or the name of an uninterpreted function symbol.
    The result sort is stored explicitly so that traversals never need to
    re-infer it.
    """

    __slots__ = ("op", "args")

    def __new__(cls, op: str, args, sort: Sort = BOOL) -> "App":
        args = tuple(args)
        # Normal form: ``neg`` of a literal *is* the negative literal.
        # ``IntLit(-n)`` and ``neg(IntLit(n))`` would both print as ``-n``,
        # so folding here (the single choke point every construction path
        # shares -- builders, substitution, rebuild) keeps the ASCII
        # printer/parser pair a bijection on interned terms.
        if op == "neg" and len(args) == 1 and type(args[0]) is IntLit:
            return IntLit(-args[0].value)
        key = (op, args, sort)
        cached = _APP_POOL.get(key)
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "op", op)
        _set(self, "args", args)
        _init(self, sort, hash((App, key)), _union_free_names(args))
        if len(_APP_POOL) >= _POOL_LIMIT:
            _APP_POOL.clear()
        _APP_POOL[key] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not App:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
            and self.sort == other.sort
        )

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (App, (self.op, self.args, self.sort))

    @property
    def is_interpreted(self) -> bool:
        return self.op in INTERPRETED_OPS

    def children(self) -> tuple[Term, ...]:
        return self.args

    def rebuild(self, children: tuple[Term, ...]) -> "App":
        if children == self.args:
            return self
        return App(self.op, tuple(children), self.sort)


class Binder(Term):
    """A binder: universal/existential quantifier, lambda, or comprehension.

    ``params`` is a tuple of ``(name, sort)`` pairs.  The sort of the binder
    itself is derived from its kind:

    * ``forall`` / ``exists`` -- ``bool``,
    * ``lambda``              -- a map sort from the parameter sort(s),
    * ``compr``               -- a set sort over the parameter sort(s); a
      comprehension with several parameters denotes a set of tuples, e.g.
      ``{(i, n). P}`` has sort ``(int * obj) set``.
    """

    __slots__ = ("kind", "params", "body")

    def __new__(cls, kind: str, params, body: Term) -> "Binder":
        params = tuple((name, sort) for name, sort in params)
        key = (kind, params, body)
        cached = _BINDER_POOL.get(key)
        if cached is not None:
            _STATS.interned_hits += 1
            return cached
        if kind not in BINDER_KINDS:
            raise ValueError(f"unknown binder kind {kind!r}")
        if not params:
            raise ValueError("binder must bind at least one variable")
        sort = _derive_binder_sort(kind, params, body)
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "params", params)
        _set(self, "body", body)
        bound = frozenset(name for name, _ in params)
        body_free = body._free_names
        free = body_free - bound if body_free & bound else body_free
        _init(self, sort, hash((Binder, key)), free)
        if len(_BINDER_POOL) >= _POOL_LIMIT:
            _BINDER_POOL.clear()
        _BINDER_POOL[key] = self
        _STATS.allocated += 1
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Binder:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.kind == other.kind
            and self.params == other.params
            and self.body == other.body
        )

    __hash__ = Term.__hash__

    def __reduce__(self):
        return (Binder, (self.kind, self.params, self.body))

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    @property
    def param_vars(self) -> tuple[Var, ...]:
        return tuple(Var(n, s) for n, s in self.params)

    def children(self) -> tuple[Term, ...]:
        return (self.body,)

    def rebuild(self, children: tuple[Term, ...]) -> "Binder":
        (body,) = children
        if body is self.body:
            return self
        return Binder(self.kind, self.params, body)


def _derive_binder_sort(
    kind: str, params: tuple[tuple[str, Sort], ...], body: Term
) -> Sort:
    if kind in (FORALL, EXISTS):
        if body.sort != BOOL:
            raise SortError(f"quantifier body must be bool, got {body.sort}")
        return BOOL
    param_sorts = tuple(s for _, s in params)
    elem: Sort
    elem = param_sorts[0] if len(param_sorts) == 1 else TupleSort(param_sorts)
    if kind == COMPREHENSION:
        if body.sort != BOOL:
            raise SortError(f"comprehension body must be bool, got {body.sort}")
        return SetSort(elem)
    # lambda
    if len(param_sorts) == 1:
        return MapSort(param_sorts[0], body.sort)
    return FunSort(param_sorts, body.sort)


# ---------------------------------------------------------------------------
# Interning constructor aliases (the ``mk_*`` layer)
# ---------------------------------------------------------------------------

#: Canonical constructors.  The class constructors already intern, so these
#: are aliases; they exist so call sites can state explicitly that they rely
#: on hash-consing.
mk_var = Var
mk_const = Const
mk_int = IntLit
mk_bool = BoolLit
mk_app = App
mk_binder = Binder


# Canonical literals and constants shared across the code base.
TRUE = BoolLit(True)
FALSE = BoolLit(False)
ZERO = IntLit(0)
ONE = IntLit(1)
NULL = Const("null", OBJ)


# ---------------------------------------------------------------------------
# Free variables and symbols
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def free_vars(term: Term) -> frozenset[Var]:
    """Return the set of free variables of ``term``."""
    if isinstance(term, Var):
        return frozenset({term})
    if isinstance(term, (Const, IntLit, BoolLit)):
        return frozenset()
    if isinstance(term, App):
        if not term._free_names:
            return frozenset()
        result: frozenset[Var] = frozenset()
        for arg in term.args:
            result |= free_vars(arg)
        return result
    if isinstance(term, Binder):
        bound = {Var(n, s) for n, s in term.params}
        return free_vars(term.body) - bound
    raise TypeError(f"unknown term type {type(term)!r}")


def free_var_names(term: Term) -> frozenset[str]:
    """Return the names of the free variables of ``term``.

    This is precomputed during hash-consing, so the call is O(1).
    """
    return term._free_names


@lru_cache(maxsize=65536)
def function_symbols(term: Term) -> frozenset[str]:
    """Return the uninterpreted function/constant symbols used by ``term``."""
    if isinstance(term, Const):
        return frozenset({term.name})
    if isinstance(term, (Var, IntLit, BoolLit)):
        return frozenset()
    if isinstance(term, App):
        result = frozenset() if term.is_interpreted else frozenset({term.op})
        for arg in term.args:
            result |= function_symbols(arg)
        return result
    if isinstance(term, Binder):
        return function_symbols(term.body)
    raise TypeError(f"unknown term type {type(term)!r}")


def subterms(term: Term):
    """Yield every subterm of ``term`` (including ``term`` itself), pre-order."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children()))


def term_size(term: Term) -> int:
    """Number of AST nodes in ``term`` (tree size, counting repeats)."""
    return sum(1 for _ in subterms(term))


def dag_size(term: Term) -> int:
    """Number of *distinct* nodes in ``term``.

    With hash-consing, shared subterms are the same object, so this is the
    actual memory footprint of the term; ``term_size`` can be exponentially
    larger on formulas with heavy sharing.
    """
    seen: set[int] = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        stack.extend(current.children())
    return len(seen)


def contains_quantifier(term: Term) -> bool:
    """True when ``term`` contains a ``forall`` or ``exists`` binder."""
    return any(
        isinstance(t, Binder) and t.kind in (FORALL, EXISTS) for t in subterms(term)
    )
