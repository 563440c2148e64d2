"""Multiple provers cooperating on one verification problem.

The paper's integrated reasoning lets specialised provers work together: in
the Binary Tree, note statements expose shape facts to the structure
reasoner while the first-order/SMT provers handle abstraction facts.  This
example shows the same effect with the reproduction's portfolio on the
Linked List: cardinality obligations are discharged by the BAPA-style set
reasoner while the quantified structural obligations go to the SMT-lite
prover -- and restricting the portfolio to a single prover loses sequents.

Run with:  python examples/multi_prover_cooperation.py [TIMEOUT_SCALE]
"""

import sys

from repro.provers.dispatch import default_portfolio
from repro.suite.linked_structures import build_linked_list
from repro.verifier.engine import VerificationEngine


def run(tag, portfolio):
    engine = VerificationEngine(portfolio)
    report = engine.verify_class(build_linked_list())
    attempts = {
        name: stats.attempts
        for name, stats in engine.portfolio.statistics.per_prover.items()
    }
    print(
        f"{tag:<28} {report.sequents_proved}/{report.sequents_total} sequents, "
        f"portfolio: {', '.join(portfolio.prover_names)}, "
        f"attempts: {attempts}, provers used: {report.provers_used}"
    )
    return report


def main(timeout_scale: float = 1.0) -> None:
    full = default_portfolio().scaled(timeout_scale)
    run("full portfolio", full)
    run("SMT-lite only", full.only("smt"))
    run("set reasoner only", full.only("sets"))


if __name__ == "__main__":
    main(*(float(arg) for arg in sys.argv[1:2]))
