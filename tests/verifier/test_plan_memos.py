"""The planner's content-keyed memos: task fingerprints, method digests
and class artifacts.

Each memo is keyed by value and must answer exactly what a fresh
computation would: equal but distinct objects share an entry, anything the
digest or fingerprint reads is in the key, tenants stay apart, and every
memo starts over at its limit.  The end-to-end check: a corpus run's
dependency index equals one built with every memo forgotten before every
lookup.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.logic import builder as b
from repro.provers import cache as cache_module
from repro.provers.cache import ProofCache, task_fingerprint
from repro.provers.dispatch import default_portfolio
from repro.provers.result import ProofTask
from repro.suite.generate import generate_corpus
from repro.verifier import incremental
from repro.verifier.engine import VerificationEngine
from repro.verifier.incremental import (
    artifact_digest,
    class_artifacts,
    method_digest,
)

from test_incremental import build_counter

TIMEOUT_SCALE = 0.4

#: Every module-level memo of the planner, as ``(module, memo, limit)``.
MEMOS = [
    (cache_module, "_TASK_MEMO", "_TASK_MEMO_LIMIT"),
    (incremental, "_METHOD_DIGESTS", "_DIGEST_MEMO_LIMIT"),
    (incremental, "_CLASS_ARTIFACTS", "_DIGEST_MEMO_LIMIT"),
]


class _Forgetful(dict):
    """A memo that forgets everything before every lookup."""

    def get(self, key, default=None):
        self.clear()
        return default


@pytest.fixture()
def fresh_memos(monkeypatch):
    """Empty module-level memos for this test, restored afterwards."""
    for module, memo, _ in MEMOS:
        monkeypatch.setattr(module, memo, {})


def make_engine(**kwargs) -> VerificationEngine:
    return VerificationEngine(default_portfolio().scaled(TIMEOUT_SCALE), **kwargs)


def test_memoized_digests_equal_fresh_ones_on_equal_objects(fresh_memos):
    first, second = build_counter(), build_counter()
    assert first == second and first is not second
    engine = make_engine()
    for one, other in zip(first.methods, second.methods):
        assert one is not other
        assert method_digest(one) == method_digest(other) == artifact_digest(other)
    assert len(incremental._METHOD_DIGESTS) == len(first.methods)
    expected = {
        "state": artifact_digest(second.state),
        "invariants": artifact_digest(second.invariants),
        "policy": artifact_digest((True, True, True)),
    }
    assert class_artifacts(engine, first) == expected
    assert class_artifacts(engine, second) == expected
    assert len(incremental._CLASS_ARTIFACTS) == 1
    # Callers get their own dict: editing one cannot reach the memo.
    class_artifacts(engine, first)["state"] = "edited"
    assert class_artifacts(engine, second) == expected


def test_renaming_a_method_changes_its_digest(fresh_memos):
    method = build_counter().method("reset")
    renamed = replace(method, name="clear")
    assert method_digest(renamed) != method_digest(method)
    assert method_digest(renamed) == artifact_digest(renamed)


def test_engines_with_different_policies_get_different_policy_digests(
    fresh_memos,
):
    cls = build_counter()
    plain = class_artifacts(make_engine(), cls)
    unfiltered = class_artifacts(make_engine(use_relevance_filter=False), cls)
    unchecked = class_artifacts(make_engine(runtime_checks=False), cls)
    assert len({plain["policy"], unfiltered["policy"], unchecked["policy"]}) == 3
    assert plain["state"] == unfiltered["state"] == unchecked["state"]
    assert plain["invariants"] == unfiltered["invariants"]


def _tasks():
    """Two alpha-equivalent tasks (bound variable, assumption names and
    order differ) and one that differs in its goal."""
    x, y, n = b.IntVar("x"), b.IntVar("y"), b.IntVar("n")
    positive = b.Lt(b.Int(0), n)
    first = ProofTask(
        (("h1", positive), ("h2", b.ForAll([x], b.Le(x, b.Plus(x, n))))),
        b.Le(b.Int(0), n),
        label="first",
    )
    second = ProofTask(
        (("all", b.ForAll([y], b.Le(y, b.Plus(y, n)))), ("pos", positive)),
        b.Le(b.Int(0), n),
        label="second",
    )
    other = replace(first, goal=b.Le(b.Int(1), n))
    return first, second, other


def test_alpha_equivalent_tasks_share_one_fingerprint(fresh_memos):
    first, second, other = _tasks()
    assert first != second
    assert task_fingerprint(first) == task_fingerprint(second)
    assert task_fingerprint(other) != task_fingerprint(first)
    assert len(cache_module._TASK_MEMO) == 3
    # A memoized answer is the one a fresh computation gives.
    memoized = [task_fingerprint(task) for task in (first, second, other)]
    cache_module._TASK_MEMO.clear()
    assert [task_fingerprint(task) for task in (first, second, other)] == memoized


def test_two_tenants_never_share_a_cache_key(fresh_memos):
    task, _, _ = _tasks()
    cache = ProofCache()
    keys = {}
    for tenant in ("", "alice", "bob", "alice"):
        cache.namespace = tenant
        key = cache.key(task)
        assert cache.fingerprint_of(key) == task_fingerprint(task)
        assert keys.setdefault(tenant, key) == key
    assert len(set(keys.values())) == 3
    assert keys[""] == task_fingerprint(task)


def test_every_memo_starts_over_at_its_limit(fresh_memos, monkeypatch):
    for module, _, limit in MEMOS:
        monkeypatch.setattr(module, limit, 2)
    engine = make_engine()
    classes = generate_corpus(4, seed=7)
    tasks = [
        task
        for cls in classes
        for method in cls.methods
        for _, task in engine.sequent_tasks(cls, method)
    ]
    # Three policies make at least three distinct class-artifact keys.
    policies = [(True, True, True), (True, False, True), (True, True, False)]
    engines = [
        make_engine(use_relevance_filter=filtered, runtime_checks=checked)
        for _, filtered, checked in policies
    ]
    for cls in classes:
        for policy, policy_engine in zip(policies, engines):
            assert class_artifacts(policy_engine, cls) == {
                "state": artifact_digest(cls.state),
                "invariants": artifact_digest(cls.invariants),
                "policy": artifact_digest(policy),
            }
        for method in cls.methods:
            assert method_digest(method) == artifact_digest(method)
    fingerprints = [task_fingerprint(task) for task in tasks]
    for module, memo, _ in MEMOS:
        assert 1 <= len(getattr(module, memo)) <= 2, memo
    # Recomputed from scratch, every answer is the same.
    cache_module._TASK_MEMO.clear()
    assert fingerprints == [task_fingerprint(task) for task in tasks]


def _verdicts(reports):
    return [
        (report.class_name, method.method_name, outcome.sequent.label, outcome.proved)
        for report in reports
        for method in report.methods
        for outcome in method.outcomes
    ]


def test_corpus_dependency_index_equals_one_built_without_memos(monkeypatch):
    classes = generate_corpus(20, seed=3, size=10)
    memoized = make_engine()
    memoized_reports = [memoized.verify_class(cls) for cls in classes]

    for module, memo, _ in MEMOS:
        monkeypatch.setattr(module, memo, _Forgetful())
    forgetful = make_engine()
    forgetful._sequents = _Forgetful()
    forgetful_reports = [forgetful.verify_class(cls) for cls in classes]

    snapshot = memoized.dependency_index.snapshot()
    assert len(snapshot) == len({cls.name for cls in classes})
    assert snapshot == forgetful.dependency_index.snapshot()
    assert _verdicts(memoized_reports) == _verdicts(forgetful_reports)
