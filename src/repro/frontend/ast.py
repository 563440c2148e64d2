"""The surface program model: classes, state, contracts and statements.

The reproduction verifies data-structure *modules*: a class is modelled as a
set of global state variables (one module instance, the common style for
verifying a container implementation) together with methods.  State
variables come in three kinds, mirroring Jahob:

* ``concrete``  -- the Java fields of the implementation.  Reference fields
  of the nodes (``next``, ``prev``, ``key`` ...) are map-valued variables
  ``obj => T`` exactly as Jahob encodes instance fields; scalar fields of
  the container itself (``size``, ``first`` ...) are plain variables, and
  Java arrays are map-valued variables ``int => T``.
* ``spec``      -- public specification variables with a ``vardefs``
  abstraction function (e.g. ``content == {(i, n). ...}``).
* ``ghost``     -- specification variables updated explicitly by ghost
  assignments in method bodies.

Method bodies are ordinary imperative statements (assignment, field/array
update, conditionals, loops with invariants, calls, returns) plus embedded
specification statements: ghost assignments, assert/assume and every
integrated proof language construct of Figure 3 (wrapped in
:class:`ProofStmt`).

The paper presents these annotations as ``/*: ... */`` comments in Java
source; here they are nodes of the same statement list, which is the same
information in abstract-syntax form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gcl.extended import ProofConstruct
from ..logic.sorts import Sort
from ..logic.terms import TRUE, Term, Var

__all__ = [
    "StateVar",
    "Invariant",
    "MethodContract",
    "Method",
    "ClassModel",
    "Stmt",
    "Assign",
    "FieldWrite",
    "ArrayWrite",
    "GhostAssign",
    "If",
    "While",
    "Return",
    "Call",
    "AssertStmt",
    "AssumeStmt",
    "ProofStmt",
    "count_statements",
    "count_proof_constructs",
    "called_method_names",
]


# ---------------------------------------------------------------------------
# Class-level declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateVar:
    """A state variable of the module (concrete field, spec var or ghost)."""

    name: str
    sort: Sort
    kind: str = "concrete"  # "concrete" | "spec" | "ghost"
    definition: Term | None = None  # vardefs abstraction function (spec vars)
    is_public: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("concrete", "spec", "ghost"):
            raise ValueError(f"unknown state variable kind {self.kind!r}")
        if self.kind == "spec" and self.definition is None:
            raise ValueError(f"spec variable {self.name} needs a vardefs definition")

    @property
    def var(self) -> Var:
        return Var(self.name, self.sort)


@dataclass(frozen=True)
class Invariant:
    """A named data-structure (class) invariant."""

    name: str
    formula: Term
    is_public: bool = False


@dataclass(frozen=True)
class MethodContract:
    """requires / modifies / ensures."""

    requires: Term = TRUE
    modifies: tuple[str, ...] = ()
    ensures: Term = TRUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "modifies", tuple(self.modifies))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of surface statements."""

    __slots__ = ()

    def substatements(self) -> tuple["Stmt", ...]:
        return ()


@dataclass(frozen=True)
class Assign(Stmt):
    """``x = expr;`` for a local variable or a scalar state variable."""

    target: Var
    expr: Term


@dataclass(frozen=True)
class FieldWrite(Stmt):
    """``obj.field = value;`` -- a heap field update (function update)."""

    field_name: str
    obj: Term
    value: Term


@dataclass(frozen=True)
class ArrayWrite(Stmt):
    """``array[index] = value;`` on an array-valued state variable."""

    array_name: str
    index: Term
    value: Term


@dataclass(frozen=True)
class GhostAssign(Stmt):
    """``//: ghostvar := expr`` -- specification-only state update."""

    target: Var
    expr: Term


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) { ... } else { ... }``."""

    cond: Term
    then_branch: tuple[Stmt, ...] = ()
    else_branch: tuple[Stmt, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "then_branch", tuple(self.then_branch))
        object.__setattr__(self, "else_branch", tuple(self.else_branch))

    def substatements(self) -> tuple[Stmt, ...]:
        return self.then_branch + self.else_branch


@dataclass(frozen=True)
class While(Stmt):
    """``while /*: inv I */ (cond) { ... }``."""

    cond: Term
    invariant: Term
    body: tuple[Stmt, ...] = ()
    invariant_label: str = "LoopInv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def substatements(self) -> tuple[Stmt, ...]:
        return self.body


@dataclass(frozen=True)
class Return(Stmt):
    """``return expr;`` (``expr`` may be None for void methods)."""

    expr: Term | None = None


@dataclass(frozen=True)
class Call(Stmt):
    """``target = this.method(args);`` -- a call to a sibling method,
    verified modularly against the callee's contract."""

    method_name: str
    args: tuple[Term, ...] = ()
    target: Var | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class AssertStmt(Stmt):
    """``//: assert l: F from h`` -- a bare specification assertion."""

    formula: Term
    label: str = "Assert"
    from_hints: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "from_hints", tuple(self.from_hints))


@dataclass(frozen=True)
class AssumeStmt(Stmt):
    """``//: assume l: F`` -- used by the translation machinery and tests;
    developer-supplied assumes are unsound in general (Section 3)."""

    formula: Term
    label: str = "Assume"


@dataclass(frozen=True)
class ProofStmt(Stmt):
    """A statement wrapping one integrated proof language construct."""

    construct: ProofConstruct


# ---------------------------------------------------------------------------
# Methods and classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A method: parameters, contract and body."""

    name: str
    params: tuple[Var, ...] = ()
    return_var: Var | None = None
    contract: MethodContract = field(default_factory=MethodContract)
    body: tuple[Stmt, ...] = ()
    is_public: bool = True
    locals: tuple[Var, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "locals", tuple(self.locals))


@dataclass(frozen=True)
class ClassModel:
    """A data-structure module: state variables, invariants and methods."""

    name: str
    state: tuple[StateVar, ...] = ()
    invariants: tuple[Invariant, ...] = ()
    methods: tuple[Method, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", tuple(self.state))
        object.__setattr__(self, "invariants", tuple(self.invariants))
        object.__setattr__(self, "methods", tuple(self.methods))

    # -- lookup helpers ------------------------------------------------------------

    def state_var(self, name: str) -> StateVar:
        for var in self.state:
            if var.name == name:
                return var
        raise KeyError(f"{self.name} has no state variable {name!r}")

    def has_state_var(self, name: str) -> bool:
        return any(var.name == name for var in self.state)

    def method(self, name: str) -> Method:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(f"{self.name} has no method {name!r}")

    @property
    def spec_vars(self) -> tuple[StateVar, ...]:
        return tuple(v for v in self.state if v.kind == "spec")

    @property
    def ghost_vars(self) -> tuple[StateVar, ...]:
        return tuple(v for v in self.state if v.kind == "ghost")


# ---------------------------------------------------------------------------
# Statistics helpers (Table 1 columns)
# ---------------------------------------------------------------------------


def _walk(statements: tuple[Stmt, ...]):
    for statement in statements:
        yield statement
        yield from _walk(statement.substatements())


def count_statements(method: Method) -> int:
    """Number of executable (Java) statements in a method body.

    Specification-only statements (ghost assignments, asserts, assumes and
    proof constructs) are not counted, matching the paper's "Java
    Statements" column.
    """
    executable = 0
    for statement in _walk(method.body):
        if isinstance(statement, (GhostAssign, AssertStmt, AssumeStmt, ProofStmt)):
            continue
        executable += 1
    return executable


def called_method_names(method: Method) -> tuple[str, ...]:
    """Names of the methods a body calls, each once, in first-call order."""
    calls = (stmt for stmt in _walk(method.body) if isinstance(stmt, Call))
    return tuple(dict.fromkeys(call.method_name for call in calls))


def count_proof_constructs(method: Method) -> dict[str, int]:
    """Count of each proof construct kind used in a method body, plus the
    number of ``note`` statements carrying a ``from`` clause."""
    from ..proofs.constructs import construct_name

    counts: dict[str, int] = {}
    for statement in _walk(method.body):
        if isinstance(statement, ProofStmt):
            _count_construct(statement.construct, counts)
    return counts


def _count_construct(construct, counts: dict[str, int]) -> None:
    from ..proofs.constructs import Note, construct_name

    name = construct_name(construct)
    counts[name] = counts.get(name, 0) + 1
    if isinstance(construct, Note) and construct.from_hints:
        counts["note_with_from"] = counts.get("note_with_from", 0) + 1
    for child in construct.children():
        if isinstance(child, ProofConstruct):
            _count_construct(child, counts)
        else:
            _count_nested_commands(child, counts)


def _count_nested_commands(command, counts: dict[str, int]) -> None:
    from ..gcl.extended import ExtendedCommand

    if isinstance(command, ProofConstruct):
        _count_construct(command, counts)
        return
    if isinstance(command, ExtendedCommand):
        for child in command.children():
            _count_nested_commands(child, counts)
