"""Literals: signed atoms.

The SMT-lite prover reads a SAT model back as theory literals and the
theory checker explains its conflicts as cores of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Term

__all__ = ["Literal"]


@dataclass(frozen=True)
class Literal:
    """A signed atom."""

    atom: Term
    positive: bool = True

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        sign = "" if self.positive else "~"
        return f"{sign}{self.atom}"
