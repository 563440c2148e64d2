"""Kernel microbenchmarks: interning, substitution, simplify, wlp, VCs,
saves, lazy SAT, smt attempts.

These isolate the hot paths the hash-consed kernel accelerates: deep-term
construction (pool hits versus fresh allocations), capture-avoiding
substitution over wide/deep formulas, fixpoint simplification,
weakest-precondition generation over guarded commands with duplicated
branches, and sequent generation over branching commands with long
assumption prefixes -- plus the proof-cache store's edit-sized
merge-saves, which bound a served edit loop (the first save after a load
on its own too), the SAT solver re-solving
after each blocking clause, smt's attempts on one catalogue class, cold
and warm, and cold smt attempts on the catalogue's theory-heavy sequents,
where the search finds most of its theory conflicts.  ``clear_memos`` is
the cold hook: it drops the process-wide memos (simplify's, smt's
instances, canonical atoms and theory-checker caches, the proof cache's
task fingerprints, and the dependency index's method digests and class
artifacts) that later calls would otherwise hit.  The workload builders
are plain functions parameterised by size so the tier-1 smoke test
(``tests/test_bench_smoke.py``) can run the exact same code at tiny sizes;
perf regressions then show up in the BENCH_*.json trajectory via the
full-size runs here.
"""

from __future__ import annotations

import itertools
import random
import shutil
from pathlib import Path

import pytest

from repro.gcl.simple import SAssert, SAssume, SChoice, SHavoc, SSeq
from repro.gcl.wlp import wlp
from repro.logic import builder as b
from repro.logic.simplify import clear_simplify_memos, simplify
from repro.logic.sorts import INT
from repro.logic.subst import substitute
from repro.logic.terms import Term, Var, dag_size
from repro.provers import cache, lia, quant, smt, theory
from repro.provers.cache import CachedVerdict, PersistentCacheStore
from repro.provers.result import ProofTask
from repro.provers.sat import SatSolver
from repro.suite import all_structures
from repro.vcgen import generate_sequents
from repro.verifier import incremental
from repro.verifier.engine import VerificationEngine

#: smt's per-attempt budget in the catalogue benchmarks: the default 4 s
#: at ``conftest.TIMEOUT_SCALE`` 0.4.
SMT_TIMEOUT = 1.6


def clear_memos() -> None:
    """The cold hook: drop simplify's memos, smt's cross-attempt memos
    (ground instances, canonical atoms, and the theory checker's integer
    positions and linear differences) and the planner's content-keyed ones
    (task fingerprints, method digests, class artifacts)."""
    clear_simplify_memos()
    quant._instance.cache_clear()
    smt._canonical_atom.cache_clear()
    theory._int_positions.cache_clear()
    lia._difference.cache_clear()
    cache._TASK_MEMO.clear()
    incremental._METHOD_DIGESTS.clear()
    incremental._CLASS_ARTIFACTS.clear()


def build_deep_formula(depth: int) -> Term:
    """A deep conjunction/comparison tower over a handful of variables.

    Subterms repeat on purpose: with hash-consing the tree is a DAG and the
    memoized passes visit every distinct node once.
    """
    x, y, z = b.IntVar("x"), b.IntVar("y"), b.IntVar("z")
    formula = b.Lt(x, y)
    for level in range(depth):
        bound = b.IntVar(f"k{level % 4}")
        formula = b.And(
            b.Implies(b.Le(b.Plus(x, b.Int(level % 7)), z), formula),
            b.ForAll([bound], b.Or(b.Lt(bound, y), formula)),
        )
    return formula


def workload_interning(depth: int = 150, repeats: int = 3) -> int:
    """Rebuild the same deep formula several times; later rounds are pure
    pool hits."""
    last = 0
    for _ in range(repeats):
        last = dag_size(build_deep_formula(depth))
    return last


def workload_substitute(depth: int = 150) -> Term:
    """Substitute one leaf variable through a deep shared formula."""
    formula = build_deep_formula(depth)
    mapping = {Var("z", INT): b.Plus(b.IntVar("x"), b.Int(1))}
    return substitute(formula, mapping)


def workload_simplify(depth: int = 120, cold: bool = True) -> Term:
    """Fixpoint-simplify a deep formula (cold caches by default)."""
    formula = build_deep_formula(depth)
    if cold:
        clear_memos()
    return simplify(formula)


def build_branchy_command(depth: int) -> SSeq:
    """A guarded command with nested choices sharing subcommands."""
    x = b.IntVar("x")
    y = b.IntVar("y")
    check = SAssert(b.Le(b.Int(0), x), label="Bound")
    step = SSeq(
        (
            SAssume(b.Lt(x, y), label="Guard"),
            SHavoc((x,)),
            check,
        )
    )
    command: SSeq = step
    for _ in range(depth):
        command = SSeq((SChoice(command, command), check))
    return command


def workload_wlp(depth: int = 14) -> Term:
    """wlp over a command whose naive expansion is exponential in depth."""
    command = build_branchy_command(depth)
    return wlp(command, b.Le(b.Int(0), b.IntVar("y")))


def build_vcgen_command(depth: int, length: int = 8) -> SSeq:
    """``depth`` nested choices over straight-line blocks.

    Each block assumes a guard, havocs ``x`` and asserts a bound on the new
    ``x``, ``length`` times; a choice runs the rest either directly or
    after one more assumption.  Every path is ``depth + 1`` blocks long, so
    the sequents of a path share a long assumption prefix and many havocs
    -- the shape loop and call encodings give the generator.
    """
    x, y = b.IntVar("x"), b.IntVar("y")
    steps = []
    for index in range(length):
        steps += [
            SAssume(b.Le(x, b.Plus(y, b.Int(index))), label=f"Guard{index}"),
            SHavoc((x,)),
            SAssert(b.Le(b.Int(index), x), label=f"Bound{index}"),
        ]
    block = SSeq(tuple(steps))
    command: SSeq = block
    for _ in range(depth):
        other = SSeq((SAssume(b.Lt(y, x), label="Else"), command))
        command = SSeq((block, SChoice(command, other)))
    return command


def workload_vcgen(depth: int = 7) -> int:
    """Sequents of a branching command with asserts after havocs."""
    return len(generate_sequents(build_vcgen_command(depth)))


def _store_fingerprint(index: int, hypotheses: int = 20) -> tuple:
    """A sequent fingerprint shaped like a generated class's: a sorted
    hypothesis tuple over a few fields, then the goal."""
    return (
        tuple(
            ("a", "<=", "bool", (("v", f"f{(index + h) % 7}", "int"), ("i", h)))
            for h in range(hypotheses)
        ),
        ("a", "=", "bool", (("v", "result", "int"), ("i", index))),
    )


def build_store_records(
    classes: int = 50, methods: int = 10, sequents: int = 5
) -> dict[str, dict]:
    """Dependency records shaped like ``edit-serve``'s primed store: per
    class the artifact digests, then per method a digest and its
    ``[label, fingerprint]`` sequents (about 50 KB of JSON a class)."""
    records = {}
    for c in range(classes):
        base = c * methods * sequents
        records[f"Gen-{c}"] = {
            "artifacts": {"state": f"s{c}", "invariants": f"i{c}", "policy": "p"},
            "methods": [
                [
                    f"m{m}",
                    {
                        "digest": f"d{c}.{m}",
                        "sequents": [
                            [f"L{s}", _store_fingerprint(base + m * sequents + s)]
                            for s in range(sequents)
                        ],
                    },
                ]
                for m in range(methods)
            ],
        }
    return records


def prepare_store_saves(directory: Path, classes: int = 50, entries: int = 230):
    """Write a store of ``classes`` records and ``entries`` verdicts, then
    load it the way a starting daemon does; returns the loaded store, its
    entries and its dependency index.  The load keeps the text of every
    record and entry, so no save after it re-encodes the whole file."""
    verdicts = {
        _store_fingerprint(n): CachedVerdict(True, False, "smt") for n in range(entries)
    }
    PersistentCacheStore(directory, "bench").save(
        verdicts, merge=False, dependencies=build_store_records(classes)
    )
    store = PersistentCacheStore(directory, "bench")
    loaded = store.load()
    return store, loaded, dict(store.last_dependencies)


def workload_store_saves(state, saves: int = 8, on_save=None) -> int:
    """Edit-sized merge-saves on a loaded store: each replaces one class's
    record with a new object (its first method re-digested, as after an
    edit of that method) and hands the store the whole snapshot, as the
    engine's flush does.  Each save, the first included, encodes only the
    replaced record.  ``on_save(store)`` runs after each save."""
    store, entries, dependencies = state
    names = list(dependencies)
    for n in range(saves):
        name = names[n % len(names)]
        record = dependencies[name]
        (method, body), *rest = record["methods"]
        edited = [method, {**body, "digest": body["digest"] + "'"}]
        dependencies[name] = {**record, "methods": [edited, *rest]}
        store.save(entries, dependencies=dict(dependencies))
        if on_save is not None:
            on_save(store)
    return saves


def build_random_3sat(
    num_vars: int, seed: int = 1, ratio: float = 4.26
) -> list[list[int]]:
    """A seeded random 3-SAT instance with ``ratio`` clauses per variable
    (4.26 is the satisfiability threshold, where instances are hardest)."""
    rng = random.Random(seed)
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(round(ratio * num_vars))
    ]


def workload_lazy_sat(num_vars: int = 60, seed: int = 1) -> int:
    """Block each model of a random 3-SAT instance until it is UNSAT, as
    smt blocks theory conflicts; returns the number of models blocked."""
    solver = SatSolver()
    solver.add_clauses(build_random_3sat(num_vars, seed))
    models = 0
    while (result := solver.solve()).satisfiable:
        models += 1
        solver.add_clause(
            [
                -var if result.model.get(var, False) else var
                for var in range(1, num_vars + 1)
            ]
        )
    return models


def smt_tasks(class_name: str = "Priority Queue") -> list[ProofTask]:
    """Every proof task of one catalogue class, as the engine hands them to
    the provers (``from`` clauses and the relevance filter applied)."""
    engine = VerificationEngine(use_proof_cache=False)
    cls = next(cls for cls in all_structures() if cls.name == class_name)
    return [
        engine.task_for(sequent)
        for method in cls.methods
        for sequent in engine.method_sequents(cls, method)
    ]


#: The catalogue's theory-heavy sequents: the three make most of the
#: catalogue's theory conflicts, ``RootDominates_base`` proves only through
#: the equality exchange, and ``RootDominates_step`` ends in a model that
#: passes the final check.
THEORY_SEQUENTS = (
    ("insertLast", "ParentOrderRestored.1"),
    ("insertLast", "ParentOrderRestored.2"),
    ("insertLast", "ParentOrderRestored.3"),
    ("findMax", "RootDominates_base"),
    ("findMax", "RootDominates_step"),
)


def theory_tasks() -> list[ProofTask]:
    """The proof tasks of Priority Queue's ``THEORY_SEQUENTS``, in order."""
    engine = VerificationEngine(use_proof_cache=False)
    cls = next(cls for cls in all_structures() if cls.name == "Priority Queue")
    tasks = {
        (method.name, sequent.label): engine.task_for(sequent)
        for method in cls.methods
        for sequent in engine.method_sequents(cls, method)
    }
    return [tasks[key] for key in THEORY_SEQUENTS]


def workload_smt_attempts(tasks: list[ProofTask], cold: bool = True) -> list:
    """One smt attempt per task, after the cold hook unless ``cold`` is
    False; returns each attempt's ``(outcome, reason)``."""
    if cold:
        clear_memos()
    prover = smt.SmtProver()
    results = [prover.prove(task, timeout=SMT_TIMEOUT) for task in tasks]
    return [(result.outcome.value, result.reason) for result in results]


def test_kernel_interning(benchmark):
    size = benchmark(workload_interning)
    assert size > 0


def test_kernel_substitute(benchmark):
    result = benchmark(workload_substitute)
    assert result.is_formula


def test_kernel_simplify(benchmark):
    result = benchmark(workload_simplify)
    assert result.is_formula


def test_kernel_wlp(benchmark):
    result = benchmark(workload_wlp)
    assert result.is_formula


def test_kernel_vcgen(benchmark):
    assert benchmark(workload_vcgen) > 0


def test_kernel_store_saves(benchmark, tmp_path):
    def setup():
        return (prepare_store_saves(tmp_path),), {}

    assert benchmark.pedantic(workload_store_saves, setup=setup, rounds=5) == 8


def test_kernel_store_first_save(benchmark, tmp_path):
    """The first edit save after a load: each round loads a fresh copy of
    the store, as a starting daemon does, then makes one edit save."""
    source = tmp_path / "source"
    prepare_store_saves(source)
    rounds = itertools.count()

    def setup():
        directory = tmp_path / f"round-{next(rounds)}"
        shutil.copytree(source, directory)
        store = PersistentCacheStore(directory, "bench")
        entries = store.load()
        return ((store, entries, dict(store.last_dependencies)),), {"saves": 1}

    assert benchmark.pedantic(workload_store_saves, setup=setup, rounds=5) == 1


def test_kernel_lazy_sat(benchmark):
    assert benchmark(workload_lazy_sat) > 0


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_kernel_smt_attempt(benchmark, cold):
    tasks = smt_tasks()
    expected = workload_smt_attempts(tasks)
    assert benchmark(workload_smt_attempts, tasks, cold) == expected


def test_kernel_smt_theory(benchmark):
    tasks = theory_tasks()
    expected = workload_smt_attempts(tasks)
    assert benchmark(workload_smt_attempts, tasks) == expected
