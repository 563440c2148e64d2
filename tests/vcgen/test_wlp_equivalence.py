"""Property test: the sequent generator agrees with the wlp semantics.

For random simple guarded commands, the conjunction of the generated
sequents is valid exactly when ``wlp(command, post)`` is valid (checked by
brute-force enumeration of small interpretations).  This ties the
sequent-producing verification-condition generator (Figure 7 style) to the
reference weakest-liberal-precondition semantics (Figure 5).
"""

from hypothesis import given, settings, strategies as st

from repro.gcl import SAssert, SAssume, SHavoc, schoice, sseq, sskip
from repro.gcl.wlp import wlp
from repro.logic import FALSE, And, Eq, Int, IntVar, Le, Lt
from repro.logic.evaluator import all_interpretations, holds
from repro.logic.terms import free_vars
from repro.vcgen import generate_sequents

x, y, z = IntVar("x"), IntVar("y"), IntVar("z")

_atoms = st.sampled_from(
    [Lt(x, y), Le(y, x), Eq(x, Int(0)), Lt(y, Int(2)), Le(Int(0), z), Eq(y, z)]
)


_LEAVES = ("skip", "assume", "assert", "havoc")


@st.composite
def _commands(draw, depth=2, atoms=_atoms, leaves=_LEAVES):
    """Random simple commands over ``atoms``; the ``"dead"`` leaf, when
    listed in ``leaves``, is ``assume false``."""
    if depth == 0:
        kind = draw(st.sampled_from(leaves))
        if kind == "skip":
            return sskip()
        if kind == "assume":
            return SAssume(draw(atoms), "H")
        if kind == "assert":
            return SAssert(draw(atoms), "G")
        if kind == "dead":
            return SAssume(FALSE, "Dead")
        return SHavoc((draw(st.sampled_from([x, y, z])),))
    kind = draw(st.sampled_from(["seq", "choice", "leaf"]))
    if kind == "leaf":
        return draw(_commands(depth=0, atoms=atoms, leaves=leaves))
    left = draw(_commands(depth=depth - 1, atoms=atoms, leaves=leaves))
    right = draw(_commands(depth=depth - 1, atoms=atoms, leaves=leaves))
    if kind == "seq":
        return sseq(left, right)
    return schoice(left, right)


def _valid(formula) -> bool:
    variables = sorted(free_vars(formula), key=lambda v: v.name)
    return all(
        holds(formula, interp)
        for interp in all_interpretations(
            variables, int_values=(-1, 0, 1), int_range=(-1, 1)
        )
    )


@given(command=_commands(), post=_atoms)
@settings(max_examples=60, deadline=None)
def test_sequents_valid_iff_wlp_valid(command, post):
    wlp_formula = wlp(command, post)
    sequents = generate_sequents(command, post=post, post_label="Post")
    sequent_conjunction = And(*[s.formula() for s in sequents])
    assert _valid(sequent_conjunction) == _valid(wlp_formula)
