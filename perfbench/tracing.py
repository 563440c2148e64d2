"""Span tracing of the verifier's layers, installed from outside ``src/``.

The traced run measures every layer by wrapping the public entry points the
pipeline calls.  Each wrapper replaces the name the *caller* resolves: the
engine imports ``lower_method``, ``relevance_filter`` and the dependency-
index recorders by name, and the smt prover imports ``prepare`` by name
(fol imports the same function, so only smt's binding is wrapped).  Methods
are wrapped on their class.

A span records its name, start, end, parent and thread.  Spans stay in
memory and are written out once, at the end, as Chrome trace-event JSON
(open it in Perfetto).  A layer's self time is its span's duration minus
the part its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "install_layer_wrappers", "calibrate_span_cost"]


class Span:
    __slots__ = ("ident", "parent", "name", "start", "end", "thread", "child")

    def __init__(self, ident: int, parent: int, name: str, thread: int) -> None:
        self.ident = ident
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # seconds covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory spans and counters, safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def raise_to(self, counter: str, value: float) -> None:
        """Keep the largest value seen for ``counter``."""
        with self._lock:
            self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, func, name, observe=None, outermost: bool = False):
        """``func`` recording one span per call.

        ``name`` is a string or a callable of the call's arguments.
        ``observe(tracer, args, kwargs, result)`` runs after the call to
        update counters.  With ``outermost`` a call nested inside a span of
        the same name (recursion) records nothing of its own.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack()
            if outermost and any(open_span.name == span_name for open_span in stack):
                return func(*args, **kwargs)
            span = Span(
                next(tracer._ids),
                stack[-1].ident if stack else 0,
                span_name,
                threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
                tracer.spans.append(span)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name, observe=None, outermost=False):
        """Replace ``owner.attribute`` (a module or class) with a traced
        wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attribute]
        setattr(
            owner,
            attribute,
            self.wrap(original, name, observe=observe, outermost=outermost),
        )
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ----------------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def self_time(self, name: str) -> float:
        return sum(span.self_time for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (``ph: X`` complete events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": span.thread,
                "args": {"id": span.ident, "parent": span.parent},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


# -- the layer map ------------------------------------------------------------------


def _observe_generate(tracer, args, kwargs, result) -> None:
    tracer.add("vcgen.sequents", len(result))


def _observe_relevance(tracer, args, kwargs, result) -> None:
    tracer.add("vcgen.assumptions.offered", len(args[0].assumptions))
    tracer.add("vcgen.assumptions.kept", len(result.assumptions))


def _observe_prove(tracer, args, kwargs, result) -> None:
    prover = args[0].name
    timeout = kwargs.get("timeout", args[2] if len(args) > 2 else None)
    tracer.add(f"provers.{prover}.attempts")
    outcome = result.outcome.value
    if outcome == "proved":
        tracer.add(f"provers.{prover}.proved")
    elif outcome == "timeout":
        tracer.add(f"provers.{prover}.timeouts")
    if timeout:
        tracer.raise_to("provers.dispatch.overshoot_max", result.elapsed / timeout)


def _prove_span_name(args) -> str:
    return f"provers.{args[0].name}.prove"


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    Call after ``repro`` is imported and before the work to be traced.
    """
    engine = importlib.import_module("repro.verifier.engine")
    loader = importlib.import_module("repro.frontend.loader")
    desugar = importlib.import_module("repro.gcl.desugar")
    vcgen = importlib.import_module("repro.vcgen.vcgen")
    cache = importlib.import_module("repro.provers.cache")
    interface = importlib.import_module("repro.provers.interface")
    smt = importlib.import_module("repro.provers.smt")
    quant = importlib.import_module("repro.provers.quant")
    sat = importlib.import_module("repro.provers.sat")
    theory = importlib.import_module("repro.provers.theory")

    # The daemon imports load_class_models from the module at call time.
    tracer.patch(loader, "load_class_models", "frontend.loader.load")
    tracer.patch(engine, "lower_method", "frontend.lower")
    tracer.patch(desugar.Desugarer, "desugar", "gcl.desugar", outermost=True)
    tracer.patch(
        vcgen.VcGenerator, "generate", "vcgen.generate", observe=_observe_generate
    )
    tracer.patch(
        engine, "relevance_filter", "vcgen.assumptions", observe=_observe_relevance
    )
    tracer.patch(cache.ProofCache, "key", "provers.cache.key")
    tracer.patch(cache.PersistentCacheStore, "load", "provers.cache.store.load")
    tracer.patch(cache.PersistentCacheStore, "save", "provers.cache.store.save")
    # No prover overrides Prover.prove, so one wrapper covers the portfolio.
    tracer.patch(
        interface.Prover, "prove", _prove_span_name, observe=_observe_prove
    )
    tracer.patch(smt, "prepare", "provers.smt.prepare")
    tracer.patch(quant.InstantiationEngine, "saturate", "provers.smt.quant")
    tracer.patch(sat.Tseitin, "solve", "provers.smt.sat")
    tracer.patch(theory.TheoryChecker, "check", "provers.smt.theory")
    tracer.patch(engine, "record_from_report", "verifier.incremental.record")
    tracer.patch(engine, "record_from_slots", "verifier.incremental.record")
    tracer.patch(
        engine.VerificationEngine, "verify_class", "verifier.engine.verify_class"
    )


def calibrate_span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""

    def plain(value):
        return value

    probe = Tracer()
    traced = probe.wrap(plain, "probe")
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        for index in range(samples):
            plain(index)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(samples):
            traced(index)
        wrapped = time.perf_counter() - start
        rounds.append((wrapped - bare) / samples)
        probe.spans.clear()
    rounds.sort()
    return max(0.0, rounds[len(rounds) // 2])
