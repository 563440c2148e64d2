"""The engine's sequent memo, keyed by method content.

``VerificationEngine.sequent_tasks`` memoizes on everything lowering
reads (the class's state and invariants, the method minus its name, every
callee's full ``Method``), so a memoized answer must equal a fresh
``_generate_sequents`` and ``task_for`` for every method, and equal
contents must share one generation while a changed input regenerates.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.frontend.loader import load_class_models
from repro.logic import INT, Var
from repro.logic.parser import parse_formula, parse_term
from repro.suite import all_structures
from repro.suite.generate import generate_corpus
from repro.verifier import engine as engine_module
from repro.verifier import strip_proofs_from_class
from repro.verifier.engine import VerificationEngine

_FRONTEND_TESTS = Path(__file__).resolve().parent.parent / "frontend"
if str(_FRONTEND_TESTS) not in sys.path:
    sys.path.insert(0, str(_FRONTEND_TESTS))

from test_lowering_and_stats import build_account  # noqa: E402

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


@pytest.fixture()
def lowered(monkeypatch):
    """Names of the methods the engine lowers, in call order."""
    names: list[str] = []
    real = engine_module.lower_method

    def counting(cls, method, **kwargs):
        names.append(method.name)
        return real(cls, method, **kwargs)

    monkeypatch.setattr(engine_module, "lower_method", counting)
    return names


def test_memoized_sequents_equal_fresh_generation():
    catalogue = all_structures()
    classes = (
        catalogue
        + [strip_proofs_from_class(cls) for cls in catalogue]
        + generate_corpus(40, seed=0)
    )
    engine = VerificationEngine(use_proof_cache=False)
    checked = 0
    for cls in classes:
        for method in cls.methods:
            memoized = engine.method_sequents(cls, method)
            assert memoized == engine._generate_sequents(cls, method), (
                cls.name,
                method.name,
            )
            # The memo's tasks are the ones a fresh ``task_for`` builds.
            for sequent, task in engine.sequent_tasks(cls, method):
                assert task == engine.task_for(sequent), (cls.name, method.name)
            checked += len(memoized)
    assert checked > 0
    # Equal contents share entries: fewer entries than methods asked for.
    assert len(engine._sequents) < sum(len(cls.methods) for cls in classes)


def test_methods_differing_only_in_name_share_their_sequents(lowered):
    cls = all_structures()[0]
    method = cls.methods[0]
    renamed = replace(method, name=method.name + "Copy")
    engine = VerificationEngine(use_proof_cache=False)
    first = engine.method_sequents(cls, method)
    second = engine.method_sequents(cls, renamed)
    assert first and second == first
    assert all(a is b for a, b in zip(first, second))
    assert lowered == [method.name]


def test_reloaded_class_lowers_only_the_edited_method(tmp_path, lowered):
    path = tmp_path / "counter.py"
    shutil.copy(QUICKSTART, path)
    engine = VerificationEngine(use_proof_cache=False)
    (cls,) = load_class_models(path)
    for method in cls.methods:
        engine.method_sequents(cls, method)
    assert lowered == [method.name for method in cls.methods]

    source = path.read_text()
    edited = source.replace('ensures="value = 0"', 'ensures="value = 0 & 0 in history"')
    assert edited != source
    path.write_text(edited)
    (reloaded,) = load_class_models(path)
    assert reloaded is not cls
    lowered.clear()
    for method in reloaded.methods:
        engine.method_sequents(reloaded, method)
    assert lowered == ["reset"]
    # The unchanged method's sequents are the ones generated before.
    assert engine.method_sequents(reloaded, reloaded.method("increment")) == (
        engine._generate_sequents(cls, cls.method("increment"))
    )


def test_changing_a_callee_contract_regenerates_its_caller(lowered):
    account = build_account()
    engine = VerificationEngine(use_proof_cache=False)
    before = engine.method_sequents(account, account.method("depositTwice"))
    assert lowered == ["depositTwice"]

    deposit = account.method("deposit")
    env = {sv.name: sv.sort for sv in account.state} | {"amount": INT}
    stronger = replace(
        deposit,
        contract=replace(deposit.contract, requires=parse_formula("1 < amount", env)),
    )
    edited = replace(
        account,
        methods=tuple(stronger if m is deposit else m for m in account.methods),
    )
    lowered.clear()
    after = engine.method_sequents(edited, edited.method("depositTwice"))
    assert lowered == ["depositTwice"]
    assert after != before
    assert after == engine._generate_sequents(edited, edited.method("depositTwice"))
    # The unedited class still answers from the memo.
    lowered.clear()
    assert engine.method_sequents(account, account.method("depositTwice")) == before
    assert lowered == []


def _stronger_invariant(account):
    (invariant,) = account.invariants
    env = {sv.name: sv.sort for sv in account.state}
    formula = parse_formula("0 <= balance & balance < 1000", env)
    return replace(account, invariants=(replace(invariant, formula=formula),))


def _redefined_spec_var(account):
    env = {sv.name: sv.sort for sv in account.state}
    state = tuple(
        replace(sv, definition=parse_term("balance + 1", env))
        if sv.name == "worth"
        else sv
        for sv in account.state
    )
    return replace(account, state=state)


@pytest.mark.parametrize("edit", [_stronger_invariant, _redefined_spec_var])
def test_class_level_edits_regenerate_every_method(edit, lowered):
    account = build_account()
    engine = VerificationEngine(use_proof_cache=False)
    before = [engine.method_sequents(account, m) for m in account.methods]
    edited = edit(account)
    lowered.clear()
    after = [engine.method_sequents(edited, m) for m in edited.methods]
    assert lowered == [m.name for m in edited.methods]
    assert after != before
    assert after == [engine._generate_sequents(edited, m) for m in edited.methods]


# Each edit changes one ``Method`` field of ``payout`` in a way that changes
# its sequents: ``v_balance`` is the name the desugarer would give the
# temporary of ``balance := ...``, so declaring it moves that temporary.
METHOD_EDITS = {
    "params": lambda m: replace(m, params=m.params + (Var("v_balance", INT),)),
    "locals": lambda m: replace(m, locals=(Var("v_balance", INT),)),
    "return_var": lambda m: replace(m, return_var=Var("res", INT)),
    "is_public": lambda m: replace(m, is_public=not m.is_public),
}


@pytest.mark.parametrize("field", sorted(METHOD_EDITS))
def test_every_method_field_but_the_name_is_in_the_key(field, lowered):
    account = build_account()
    payout = account.method("payout")
    engine = VerificationEngine(use_proof_cache=False)
    before = engine.method_sequents(account, payout)
    edited = METHOD_EDITS[field](payout)
    lowered.clear()
    after = engine.method_sequents(account, edited)
    assert lowered == ["payout"]
    assert after != before
    assert after == engine._generate_sequents(account, edited)


def test_the_memo_starts_over_at_its_limit(monkeypatch):
    monkeypatch.setattr(engine_module, "_SEQUENT_MEMO_LIMIT", 2)
    account = build_account()
    engine = VerificationEngine(use_proof_cache=False)
    for method in account.methods + account.methods:
        assert engine.method_sequents(account, method) == (
            engine._generate_sequents(account, method)
        )
        assert 1 <= len(engine._sequents) <= 2
