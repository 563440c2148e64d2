"""The sequent-level dependency index and watch-mode edit accounting.

The paper's workflow is developer-interactive -- edit an invariant or a
method body, re-verify, repeat.  Re-verification is an ordinary
:meth:`~repro.verifier.engine.VerificationEngine.verify_class` on a warm
engine: the alpha-normalized fingerprints in the proof cache
(:func:`repro.provers.cache.task_fingerprint`) already send only the
sequents an edit invalidated to the provers.  This module keeps the
bookkeeping that lets watch mode *report* that:

* every full verification records, per class, a **dependency record**
  mapping the source artifacts that produce sequents -- method bodies,
  the invariant set, the state declarations and the engine's translation
  policy -- to the fingerprints they produced (:func:`record_from_slots`);
* the records persist alongside the proof cache (format v3, see
  ``docs/cache-format.md``) in :class:`DependencyIndex`;
* :func:`edit_accounting` diffs a class's record from before a run
  against the one the run wrote: fingerprints the old record lacks are
  *dirty*, the rest *clean*.

Digests are structural, not textual: terms digest through their
alpha-normalized fingerprints, so renaming a bound variable or reordering
assumptions does not dirty a method, while any semantic edit does.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..frontend.ast import ClassModel, Method
from ..logic.terms import Term
from ..provers.cache import term_fingerprint

__all__ = [
    "DependencyIndex",
    "artifact_digest",
    "class_artifacts",
    "edit_accounting",
    "method_digest",
    "record_from_slots",
]


# ---------------------------------------------------------------------------
# Structural digests of source artifacts
# ---------------------------------------------------------------------------


def _structure(value):
    """A stable, hashable image of a frontend artifact.

    Terms map to their alpha-normalized fingerprints (so bound-variable
    names never matter); dataclasses (AST nodes, sorts, proof constructs)
    map to (type-name, field-structure) pairs; containers recurse.  The
    image contains only primitives and tuples, so ``repr`` of it is stable
    across processes and hash seeds.
    """
    if isinstance(value, Term):
        return ("term", term_fingerprint(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _structure(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_structure(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(key), _structure(val)) for key, val in value.items()))
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def artifact_digest(value) -> str:
    """A short stable digest of one source artifact's structure."""
    image = repr(_structure(value)).encode("utf-8")
    return hashlib.sha256(image).hexdigest()[:16]


# Digests are memoized by value: artifacts that compare equal have equal
# structures, so a memoized digest is byte-identical to a fresh one.  Each
# memo starts over once it holds _DIGEST_MEMO_LIMIT values.
_DIGEST_MEMO_LIMIT = 1 << 12
_METHOD_DIGESTS: dict[Method, str] = {}
_CLASS_ARTIFACTS: dict[tuple, dict[str, str]] = {}


def class_artifacts(engine, cls: ClassModel) -> dict[str, str]:
    """The class-level artifacts every method's sequents depend on.

    State declarations and invariants flow into every method's lowering;
    ``policy`` covers the engine knobs that change which tasks a sequent
    produces (from-clause application, relevance filter, runtime checks).
    A change to any of these dirties the whole class.
    """
    policy = (
        bool(engine.apply_from_clauses),
        bool(engine.use_relevance_filter),
        bool(engine.runtime_checks),
    )
    key = (cls.state, cls.invariants, policy)
    artifacts = _CLASS_ARTIFACTS.get(key)
    if artifacts is None:
        artifacts = {
            "state": artifact_digest(cls.state),
            "invariants": artifact_digest(cls.invariants),
            "policy": artifact_digest(policy),
        }
        if len(_CLASS_ARTIFACTS) >= _DIGEST_MEMO_LIMIT:
            _CLASS_ARTIFACTS.clear()
        _CLASS_ARTIFACTS[key] = artifacts
    return dict(artifacts)


def method_digest(method: Method) -> str:
    """Digest of one method's name, contract, body and signature."""
    digest = _METHOD_DIGESTS.get(method)
    if digest is None:
        digest = artifact_digest(method)
        if len(_METHOD_DIGESTS) >= _DIGEST_MEMO_LIMIT:
            _METHOD_DIGESTS.clear()
        _METHOD_DIGESTS[method] = digest
    return digest


# ---------------------------------------------------------------------------
# The persisted index
# ---------------------------------------------------------------------------


class DependencyIndex:
    """Per-class dependency records, JSON-ready for the persistent store.

    One record per class name::

        {"artifacts": {"state": d, "invariants": d, "policy": d},
         "methods": [[name, {"digest": d,
                             "sequents": [[label, fingerprint], ...]}],
                     ...]}

    Fingerprints are the tenant-free tuples of the proof cache's keys, so
    one index serves every tenant of a shared daemon; the store's JSON
    encoder writes them as arrays.  ``mutations`` lets the engine's flush
    skip writes when nothing changed.
    """

    def __init__(self, records: dict[str, dict] | None = None) -> None:
        self._records: dict[str, dict] = dict(records or {})
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._records)

    def get(self, class_name: str) -> dict | None:
        return self._records.get(class_name)

    def record(self, class_name: str, record: dict) -> None:
        if self._records.get(class_name) != record:
            self._records[class_name] = record
            self.mutations += 1

    def snapshot(self) -> dict[str, dict]:
        """A shallow copy for persistence (records are never mutated in
        place, so sharing the trees is safe)."""
        return dict(self._records)


def record_from_slots(engine, target: ClassModel, slots) -> dict:
    """Build ``target``'s dependency record from its planned slots.

    ``slots`` is the complete, method/sequent-ordered slot list of a full
    verification (every slot carries its cache key); the record maps each
    method to the fingerprints its sequents produced, taken from the keys.
    """
    proof_cache = engine.portfolio.proof_cache
    by_method: dict[int, list] = {}
    for slot in slots:
        by_method.setdefault(slot.method_index, []).append(
            [slot.sequent.label, proof_cache.fingerprint_of(slot.key)]
        )
    methods = []
    for method_index, method in enumerate(target.methods):
        methods.append(
            [
                method.name,
                {
                    "digest": method_digest(method),
                    "sequents": by_method.get(method_index, []),
                },
            ]
        )
    return {"artifacts": class_artifacts(engine, target), "methods": methods}


# ---------------------------------------------------------------------------
# Edit accounting
# ---------------------------------------------------------------------------


def edit_accounting(previous: dict | None, current: dict | None, report) -> dict:
    """Clean/dirty accounting of one re-verification of a class.

    ``previous`` is the class's dependency record before the run and
    ``current`` the record the run wrote (``None`` when there is none, as
    on an engine without a proof cache).  A sequent is *dirty* when the
    previous record lacks its fingerprint and *clean* otherwise; a cold
    start (no previous record, or changed class artifacts) makes every
    sequent dirty.  ``dispatched`` counts the outcomes the proof cache
    could not answer.
    """
    cold_start = (
        previous is None
        or current is None
        or previous["artifacts"] != current["artifacts"]
    )
    outcomes = [
        (method.method_name, outcome)
        for method in report.methods
        for outcome in method.outcomes
    ]
    dirty_labels = [f"{name}:{outcome.sequent.label}" for name, outcome in outcomes]
    if not cold_start:
        # A record lists its sequents in report order (both come from the
        # same run), so the current fingerprints zip with the labels.
        known = {
            fingerprint
            for _, record in previous["methods"]
            for _, fingerprint in record["sequents"]
        }
        current_fps = (
            fingerprint
            for _, record in current["methods"]
            for _, fingerprint in record["sequents"]
        )
        dirty_labels = [
            label
            for label, fingerprint in zip(dirty_labels, current_fps)
            if fingerprint not in known
        ]
    return {
        "class": report.class_name,
        "cold_start": cold_start,
        "methods_total": report.methods_total,
        "sequents_total": len(outcomes),
        "sequents_clean": len(outcomes) - len(dirty_labels),
        "sequents_dirty": len(dirty_labels),
        "dispatched": sum(1 for _, outcome in outcomes if not outcome.dispatch.cached),
        "dirty_labels": dirty_labels,
    }
