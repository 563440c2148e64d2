"""repro -- a reproduction of "An Integrated Proof Language for Imperative
Programs" (Zee, Kuncak, Rinard, PLDI 2009).

The package implements a Jahob-style verification system for a small
imperative object-oriented language:

* :mod:`repro.logic`    -- the specification logic (HOL-ish terms, parser,
  printer, finite-model semantics, normal forms);
* :mod:`repro.gcl`      -- extended and simple guarded commands, weakest
  liberal preconditions, and desugaring;
* :mod:`repro.proofs`   -- the integrated proof language and its translation
  into guarded commands, plus the machine-checked soundness argument;
* :mod:`repro.vcgen`    -- verification-condition generation, splitting and
  assumption-base control;
* :mod:`repro.provers`  -- the integrated reasoning portfolio (SAT, EUF,
  linear integer arithmetic, quantifier instantiation, a
  set-with-cardinality reasoner) and the multi-prover dispatcher;
* :mod:`repro.frontend` -- the mini-Java surface language with `/*: ... */`
  specification comments and its lowering to guarded commands;
* :mod:`repro.verifier` -- the end-to-end verification engine, reporting and
  statistics;
* :mod:`repro.suite`    -- the paper's benchmark suite of linked data
  structures.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
