"""The integrated reasoning portfolio: provers and the dispatcher."""

from .cache import CachedVerdict, ProofCache, task_fingerprint, term_fingerprint
from .dispatch import DispatchResult, PortfolioEntry, ProverPortfolio, default_portfolio
from .interface import Prover
from .result import Budget, Outcome, ProofTask, ProverResult
from .setsolver import SetCardinalityProver
from .smt import SmtProver

__all__ = [
    "Budget",
    "CachedVerdict",
    "DispatchResult",
    "Outcome",
    "PortfolioEntry",
    "ProofCache",
    "ProofTask",
    "Prover",
    "ProverPortfolio",
    "ProverResult",
    "SetCardinalityProver",
    "SmtProver",
    "default_portfolio",
    "task_fingerprint",
    "term_fingerprint",
]
