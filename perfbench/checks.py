"""Verdict checks against known answers, never against the verifier itself.

Every catalogue and generated sequent is valid: the catalogue by the
paper, the generated corpus by construction.  So a REFUTED verdict is
always wrong, and a PROVED quantifier-free sequent over ``int``/``bool``
variables must evaluate true under every interpretation the independent
finite-model evaluator (:mod:`repro.logic.evaluator`) samples.  The
sampling is the generated-program oracle's own
(``tests/gensuite/oracle.py``), imported from the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "gensuite"))

from oracle import _quantifier_free, evaluator_counterexample  # noqa: E402
from repro.logic.sorts import BOOL, INT  # noqa: E402
from repro.logic.terms import free_vars  # noqa: E402


def in_evaluator_fragment(sequent) -> bool:
    """Whether the oracle's evaluator samples ``sequent`` (it returns no
    counterexample for the rest, so only these count as checked)."""
    formula = sequent.formula()
    return _quantifier_free(formula) and all(
        var.sort in (INT, BOOL) for var in free_vars(formula)
    )


def check_reports(reports) -> dict:
    """Check every outcome of the class reports of one cold run.

    Returns the counts and up to five readable problems; the run is
    correct when ``problems`` is empty.
    """
    problems: list[str] = []
    refuted = contradictions = checked = 0
    for report in reports:
        for method in report.methods:
            for outcome in method.outcomes:
                where = (
                    f"{report.class_name}.{method.method_name} "
                    f"{outcome.sequent.label!r}"
                )
                if outcome.dispatch.refuted:
                    refuted += 1
                    problems.append(f"{where}: REFUTED, but the sequent is valid")
                if not outcome.proved or not in_evaluator_fragment(outcome.sequent):
                    continue
                checked += 1
                counterexample = evaluator_counterexample(outcome.sequent)
                if counterexample is not None:
                    contradictions += 1
                    problems.append(
                        f"{where}: proved by {outcome.prover!r} but falsified "
                        f"by the evaluator under {counterexample!r}"
                    )
    return {
        "refuted": refuted,
        "contradictions": contradictions,
        "evaluator_checked": checked,
        "problems": problems[:5],
    }
