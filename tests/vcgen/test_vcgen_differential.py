"""Differential tests: the forward sequent generator against the backward pass.

``VcGenerator`` compiles a command backwards and walks it forwards;
``vcgen_reference.py`` keeps the backward pass it replaced.  Both must give
``==`` sequent lists -- the same labels, order, fresh names, assumption
tuples and goals -- on the catalogue, on a generated corpus, on random
commands and on a command that repeats one node object.  The two guards the
forward walk needs of its own, the sequent cap and the pruning of paths
with no obligation left, are covered here too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_wlp_equivalence import _LEAVES, _atoms, _commands
from vcgen_reference import reference_sequents

from repro.gcl import SAssert, SAssume, SHavoc, schoice, sseq, sskip
from repro.logic import And, ForAll, Implies, Int, IntVar, Le, Lt
from repro.suite import all_structures
from repro.suite.generate import generate_corpus
from repro.vcgen import VcGenerator, generate_sequents
from repro.vcgen.vcgen import MAX_SEQUENTS
from repro.verifier.engine import VerificationEngine

x, y, z = IntVar("x"), IntVar("y"), IntVar("z")
k = IntVar("k")


def _assert_matches_reference_on(classes, monkeypatch) -> int:
    """Run the engine's lowering on every method of ``classes`` and hold
    each command's sequents to the reference; returns how many were
    compared."""
    generate = VcGenerator.generate
    compared = []

    def checked(self, command, post=None, post_label="Post", post_hints=()):
        sequents = generate(self, command, post, post_label, post_hints)
        assert sequents == reference_sequents(command, post, post_label, post_hints)
        compared.extend(sequents)
        return sequents

    monkeypatch.setattr(VcGenerator, "generate", checked)
    engine = VerificationEngine()
    for cls in classes:
        for method in cls.methods:
            engine.method_sequents(cls, method)
    return len(compared)


def test_catalogue_sequents_equal_the_backward_pass(monkeypatch):
    assert _assert_matches_reference_on(all_structures(), monkeypatch) == 288


def test_corpus_sequents_equal_the_backward_pass(monkeypatch):
    assert _assert_matches_reference_on(generate_corpus(60, seed=0), monkeypatch) > 0


# Goals that split (conjunction, implication, ALL) and binders whose bound
# names are the fresh names havocs of x and y draw: a composed renaming
# would rename those apart where the backward pass does not.
_split_atoms = st.sampled_from(
    [
        ForAll([k], Le(k, x)),
        And(Lt(x, y), ForAll([k], Implies(Lt(k, y), Le(k, z)))),
        Implies(Le(y, x), ForAll([k], Lt(x, k))),
        ForAll([IntVar("x_1")], Le(x, IntVar("x_1"))),
        ForAll([IntVar("y_1")], Lt(IntVar("y_1"), Int(2))),
        And(Le(x, y), ForAll([IntVar("y_1")], Le(x, IntVar("y_1")))),
    ]
)
_rich_atoms = st.one_of(_atoms, _split_atoms)


@given(
    command=_commands(depth=3, atoms=_rich_atoms, leaves=_LEAVES + ("dead",)),
    post=st.none() | _rich_atoms,
)
@settings(max_examples=200, deadline=None)
def test_random_commands_equal_the_backward_pass(command, post):
    assert generate_sequents(command, post=post) == reference_sequents(
        command, post=post
    )


def test_a_node_reused_at_two_positions_is_compiled_per_occurrence():
    havoc = SHavoc((x,))
    check = SAssert(Le(Int(0), x), "Check")
    guard = SAssume(Lt(x, y), "Guard")
    command = sseq(
        havoc, check, schoice(sseq(havoc, guard), sskip()), check, havoc, check
    )
    sequents = generate_sequents(command, post=Le(x, y))
    assert sequents == reference_sequents(command, post=Le(x, y))
    # Each of the three occurrences of the one havoc object draws its own
    # fresh name; the check after the choice sees the first or the second.
    checks = [str(sequent.goal) for sequent in sequents if sequent.label == "Check"]
    assert len(checks) == 5 and len(set(checks)) == 3


def test_the_sequent_cap_raises():
    # 2^7 paths, each reaching one assert that splits into 256 pieces.
    wide = And(*[Le(x, Int(value)) for value in range(256)])
    choices = [schoice(sskip(), sskip()) for _ in range(7)]
    command = sseq(*choices, SAssert(wide, "Wide"))
    assert 2**7 * 256 > MAX_SEQUENTS
    with pytest.raises(RuntimeError, match="more than"):
        generate_sequents(command)
    with pytest.raises(RuntimeError, match="more than"):
        reference_sequents(command)


def test_choices_after_the_last_assert_are_not_walked():
    # 2^40 paths follow the assert; none has an obligation left, so the
    # compile pass drops them and the walk meets one path.
    tail = [schoice(SHavoc((x,)), SAssume(Lt(x, Int(7)), "Else")) for _ in range(40)]
    command = sseq(SAssume(Lt(x, y), "Pre"), SAssert(Le(x, y), "Goal"), *tail)
    sequents = generate_sequents(command)
    assert [sequent.label for sequent in sequents] == ["Goal"]
    assert sequents == reference_sequents(command)


def test_havocs_rename_nearest_first_like_the_backward_pass():
    # ``y`` is havoc'd to y_1 and ``x`` to x_1.  Renaming by one composed
    # map {x: x_1, y: y_1} would rename the bound y_1 apart as well; the
    # backward pass, which renames x alone here, leaves it as written.
    y_1 = IntVar("y_1")
    command = sseq(
        SHavoc((y,)),
        SHavoc((x,)),
        SAssume(ForAll([y_1], Le(x, y_1)), "H"),
        SAssert(Lt(x, y), "G"),
    )
    sequents = generate_sequents(command)
    assert sequents == reference_sequents(command)
    assert sequents[0].assumptions == (("H", ForAll([y_1], Le(IntVar("x_1"), y_1))),)
