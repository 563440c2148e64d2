"""Congruence closure for ground equality reasoning (EUF).

This component plays the role of the equality core of the SMT provers Jahob
delegates to.  Given a set of ground equalities and disequalities over terms
(uninterpreted functions, constants, interpreted function symbols treated as
uninterpreted), it decides satisfiability by congruence closure, and exposes
the equivalence classes so the arithmetic solver can exchange equalities with
it (a lightweight Nelson-Oppen combination).

Every merge is recorded in a *proof forest* (Nieuwenhuis & Oliveras, "Fast
Congruence Closure and Extensions", 2007): an edge between the two merged
nodes labelled with its reason -- the tags passed in with an asserted
equality, or the congruence of two application nodes.  :meth:`explain`
walks the forest to the tags behind an entailed equality, so a conflict
comes out of :meth:`CongruenceClosure.check` together with the asserted
facts it rests on.

The closure backtracks: every merge, signature entry and disequality is
recorded on an undo trail, and :meth:`CongruenceClosure.backtrack`
returns to a :meth:`CongruenceClosure.checkpoint`.  Union-find therefore
does no path compression (union by rank keeps the trees shallow), and an
undone merge only cuts its proof-forest edge: the forest's other edges may
have been re-rooted since, but any orientation of a tree explains the same
equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.terms import App, Binder, BoolLit, Const, IntLit, Term, Var

__all__ = ["CongruenceClosure", "EufConflict"]

# Kinds of undo-trail entries.
_MERGE, _SIGNATURE, _DISEQUALITY = range(3)


@dataclass
class EufConflict:
    """A detected conflict: the disequality violated by the closure.

    ``explanation`` holds the tags of the asserted facts the conflict
    rests on.
    """

    left: Term
    right: Term
    reason: str = ""
    explanation: frozenset = frozenset()


class CongruenceClosure:
    """Incremental congruence closure over ground terms.

    Terms are interned into integer node ids.  Function applications are
    curried into ``(op, child_ids)`` signatures for congruence detection.
    Binders are treated as opaque constants (they are ground lambdas or
    comprehensions that survived simplification).

    Asserted facts carry ``tags``, a frozenset of opaque tags (the theory
    checker uses literal indices); the proof forest keeps, per node, its
    forest parent and the reason of that edge: the frozenset of tags of an
    asserted equality, or a ``(node, node)`` pair of congruent applications.

    Terms are interned before the first checkpoint that a later
    :meth:`backtrack` returns to: a node stays when its merges are undone,
    and its signature would then be stale.
    """

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._parent: list[int] = []
        self._rank: list[int] = []
        self._signature: dict[tuple, int] = {}
        self._uses: list[list[int]] = []  # node -> application nodes using it
        self._args: list[tuple[str, tuple[int, ...]] | None] = []
        self._size: list[int] = []
        self._disequalities: list[tuple[int, int, Term, Term, frozenset]] = []
        self._pending: list[tuple[int, int, object]] = []
        self._proof_parent: list[int] = []
        self._proof_reason: list[object] = []
        # Integer and boolean literal nodes, in interning order.
        self._literal_nodes: list[tuple[Term, int]] = []
        # Undo trail: ``(_MERGE, a, b, ra, rb, rank_grew, uses_len)``,
        # ``(_SIGNATURE, signature)`` or ``(_DISEQUALITY,)``.
        self._trail: list[tuple] = []

    # -- interning -------------------------------------------------------------

    def intern(self, term: Term) -> int:
        """Intern ``term`` (and its subterms) and return its node id."""
        if term in self._ids:
            return self._ids[term]
        if isinstance(term, App):
            child_ids = tuple(self.intern(arg) for arg in term.args)
            node = self._new_node(term, (term.op, child_ids))
            for child in child_ids:
                self._uses[self.find(child)].append(node)
            self._update_signature(node)
        elif isinstance(term, (Var, Const, IntLit, BoolLit, Binder)):
            node = self._new_node(term, None)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot intern {type(term)!r}")
        return node

    def _new_node(self, term: Term, args) -> int:
        node = len(self._terms)
        self._ids[term] = node
        self._terms.append(term)
        self._parent.append(node)
        self._rank.append(0)
        self._size.append(1)
        self._uses.append([])
        self._args.append(args)
        self._proof_parent.append(node)
        self._proof_reason.append(None)
        if isinstance(term, (IntLit, BoolLit)):
            self._literal_nodes.append((term, node))
        return node

    # -- union-find --------------------------------------------------------------

    def find(self, node: int) -> int:
        parent = self._parent
        while parent[node] != node:
            node = parent[node]
        return node

    def _union(self, ra: int, rb: int) -> tuple[int, int, bool, int]:
        """Merge the classes of roots ``ra`` and ``rb``; returns the new
        root, the other one, whether the root's rank grew and the length
        of the root's use list before the merge."""
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        grew = self._rank[ra] == self._rank[rb]
        if grew:
            self._rank[ra] += 1
        self._size[ra] += self._size[rb]
        uses = self._uses[ra]
        uses_len = len(uses)
        uses.extend(self._uses[rb])
        return ra, rb, grew, uses_len

    def _update_signature(self, node: int) -> None:
        args = self._args[node]
        if args is None:
            return
        op, child_ids = args
        signature = (op, tuple(self.find(c) for c in child_ids))
        existing = self._signature.get(signature)
        if existing is None:
            self._signature[signature] = node
            self._trail.append((_SIGNATURE, signature))
        elif self.find(existing) != self.find(node):
            self._pending.append((existing, node, (existing, node)))

    # -- public API ---------------------------------------------------------------

    def assert_equal(
        self, left: Term, right: Term, tags: frozenset = frozenset()
    ) -> None:
        """Assert ``left = right``, justified by ``tags``."""
        self._pending.append((self.intern(left), self.intern(right), tags))
        self._process()

    def assert_distinct(
        self, left: Term, right: Term, tags: frozenset = frozenset()
    ) -> None:
        """Assert ``left != right``, justified by ``tags``."""
        lid, rid = self.intern(left), self.intern(right)
        self._disequalities.append((lid, rid, left, right, tags))
        self._trail.append((_DISEQUALITY,))

    def are_equal(self, left: Term, right: Term) -> bool:
        """True when the closure entails ``left = right``."""
        return self.find(self.intern(left)) == self.find(self.intern(right))

    def check(self) -> EufConflict | None:
        """Return a conflict if some asserted disequality is violated, or if
        two distinct integer/boolean literals were merged, with the tags it
        rests on as its ``explanation``."""
        self._process()
        for lid, rid, left, right, tags in self._disequalities:
            if self.find(lid) == self.find(rid):
                return EufConflict(
                    left, right, "disequality violated", tags | self._explain(lid, rid)
                )
        # Distinct literals must not be merged.
        literal_classes: dict[int, tuple[Term, int]] = {}
        for term, node in self._literal_nodes:
            root = self.find(node)
            other = literal_classes.get(root)
            if other is not None and other[0] != term:
                return EufConflict(
                    other[0],
                    term,
                    "distinct literals merged",
                    self._explain(other[1], node),
                )
            literal_classes[root] = (term, node)
        return None

    def explain(self, left: Term, right: Term) -> frozenset:
        """The tags of the asserted equalities that entail ``left = right``
        (which must hold)."""
        lid, rid = self._ids[left], self._ids[right]
        if self.find(lid) != self.find(rid):
            raise ValueError(f"{left} = {right} is not entailed")
        return self._explain(lid, rid)

    def _process(self) -> None:
        while self._pending:
            a, b, reason = self._pending.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            users = list(self._uses[ra]) + list(self._uses[rb])
            # Hang the smaller proof tree, re-rooted at its endpoint, under
            # the other endpoint.
            if self._size[ra] > self._size[rb]:
                a, b = b, a
            self._reroot(a)
            self._proof_parent[a] = b
            self._proof_reason[a] = reason
            self._trail.append((_MERGE, a, b, *self._union(ra, rb)))
            for user in users:
                self._update_signature(user)

    # -- backtracking -------------------------------------------------------------

    def checkpoint(self) -> int:
        """A mark that :meth:`backtrack` returns to."""
        return len(self._trail)

    def backtrack(self, mark: int) -> None:
        """Undo every merge, signature entry and disequality recorded since
        ``mark``, latest first."""
        trail = self._trail
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == _SIGNATURE:
                del self._signature[entry[1]]
            elif kind == _DISEQUALITY:
                self._disequalities.pop()
            else:
                _, a, b, ra, rb, grew, uses_len = entry
                self._parent[rb] = rb
                if grew:
                    self._rank[ra] -= 1
                self._size[ra] -= self._size[rb]
                del self._uses[ra][uses_len:]
                # Later merges may have re-rooted the tree, turning the edge.
                child = a if self._proof_parent[a] == b else b
                self._proof_parent[child] = child
                self._proof_reason[child] = None

    # -- proof forest -------------------------------------------------------------

    def _reroot(self, node: int) -> None:
        """Make ``node`` the root of its proof tree by reversing the edges
        on its path to the old root."""
        previous, reason = node, None
        while True:
            parent = self._proof_parent[node]
            parent_reason = self._proof_reason[node]
            self._proof_parent[node] = previous
            self._proof_reason[node] = reason
            if parent == node:
                return
            previous, reason, node = node, parent_reason, parent

    def _explain(self, a: int, b: int) -> frozenset:
        """Tags on the proof-forest paths between ``a`` and ``b``, following
        congruence edges into the arguments of the two applications."""
        tags: set = set()
        done: set[int] = set()  # nodes whose edge to the parent is explained
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            if a == b:
                continue
            ancestors = {a}
            node = a
            while self._proof_parent[node] != node:
                node = self._proof_parent[node]
                ancestors.add(node)
            common = b
            while common not in ancestors:
                common = self._proof_parent[common]
            for node in (a, b):
                while node != common:
                    if node not in done:
                        done.add(node)
                        reason = self._proof_reason[node]
                        if isinstance(reason, frozenset):
                            tags.update(reason)
                        else:
                            left, right = reason
                            todo.extend(zip(self._args[left][1], self._args[right][1]))
                    node = self._proof_parent[node]
        return frozenset(tags)

    # -- class inspection -----------------------------------------------------------

    def implied_equalities(self, terms: list[Term]) -> list[tuple[Term, Term]]:
        """Pairs among ``terms`` the closure has identified as equal."""
        by_class: dict[int, list[Term]] = {}
        for term in terms:
            if term in self._ids:
                by_class.setdefault(self.find(self._ids[term]), []).append(term)
        pairs: list[tuple[Term, Term]] = []
        for members in by_class.values():
            representative = members[0]
            for other in members[1:]:
                pairs.append((representative, other))
        return pairs
