"""The local process pool: prover dispatch's one backend.

Four layers, each below the differential harnesses
(``test_parallel_differential.py``, ``test_scheduler_differential.py``),
which only see whole verification runs:

* :class:`~repro.verifier.pipeline.ProverPool` itself -- lazy fork,
  warm-up, close and restart, and pool verdicts equal to the parent's own
  portfolio;
* the worker side -- the cacheless portfolio each worker builds from the
  spec, and the ``(index, pid, wall, result)`` tuple it answers with;
* the engine's one pool -- created unforked, forked once, reused by every
  run until ``close()``, and discarded when broken;
* :func:`~repro.verifier.pipeline.run_shard`'s per-worker accounting on the
  in-parent and pooled paths, and its cleanup when the pool fails.
"""

from __future__ import annotations

import multiprocessing
import os
import socket

import pytest

from repro.logic import INT
from repro.logic.parser import parse_formula
from repro.provers import ProofTask, default_portfolio
from repro.provers.dispatch import PortfolioEntry, PortfolioSpec, ProverPortfolio
from repro.provers.interface import Prover
from repro.provers.result import Outcome, ProverResult
from repro.suite.common import StructureBuilder
from repro.verifier import pipeline
from repro.verifier.engine import VerificationEngine
from repro.verifier.pipeline import ProverPool, RunRecord, run_shard
from repro.verifier.report import table2_rows

TIMEOUT_SCALE = 0.4

ENV = {"x": INT, "y": INT, "z": INT}


def task(assumptions: list[str], goal: str, label: str) -> ProofTask:
    return ProofTask(
        tuple((f"h{i}", parse_formula(a, ENV, {})) for i, a in enumerate(assumptions)),
        parse_formula(goal, ENV, {}),
        label,
    )


#: Ground integer sequents smt settles in milliseconds: three valid, one not.
TASKS = [
    task(["x <= y", "y < z"], "x < z", "chain"),
    task([], "x < x + 1", "successor"),
    task(["x = y"], "y = x", "symmetry"),
    task(["x <= y"], "y <= x", "invalid"),
]
EXPECTED_PROVED = [True, True, True, False]


def scaled_portfolio():
    return default_portfolio(with_cache=True).scaled(TIMEOUT_SCALE)


SPEC = PortfolioSpec.from_portfolio(scaled_portfolio())


def shard_of(tasks: list[ProofTask]) -> list:
    """Shard slots as ``plan_suite`` leaves them: the task and its position."""
    return [
        pipeline._Slot(0, None, item, shard_index=index)
        for index, item in enumerate(tasks)
    ]


class ClosingSpy:
    """Records ``close`` calls on a pool instead of shutting anything down."""

    def __init__(self, monkeypatch, pool: ProverPool) -> None:
        self.calls: list[bool] = []
        monkeypatch.setattr(pool, "close", self.close)

    def close(self, cancel_futures: bool = False) -> None:
        self.calls.append(cancel_futures)


# ---------------------------------------------------------------------------
# ProverPool
# ---------------------------------------------------------------------------


class TestProverPool:
    def test_pool_forks_nothing_until_the_first_run(self):
        pool = ProverPool(SPEC, 2)
        assert not pool.started
        pool.close()  # closing a pool that never forked is a no-op
        assert not pool.started

    def test_jobs_are_clamped_to_one(self):
        for jobs in (0, -3):
            pool = ProverPool(SPEC, jobs)
            assert pool.jobs == 1

    def test_run_yields_each_index_once_from_pool_workers(self):
        pool = ProverPool(SPEC, 2)
        try:
            answers = list(pool.run(list(enumerate(TASKS))))
        finally:
            pool.close()
        assert sorted(index for index, _, _, _ in answers) == list(range(len(TASKS)))
        pids = {pid for _, pid, _, _ in answers}
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2
        assert all(wall >= 0.0 for _, _, wall, _ in answers)

    def test_pool_verdicts_equal_the_parent_portfolio(self):
        parent = SPEC.build()
        reference = [parent.run_provers(item) for item in TASKS]
        pool = ProverPool(SPEC, 2)
        try:
            answers = {
                index: result
                for index, _, _, result in pool.run(list(enumerate(TASKS)))
            }
        finally:
            pool.close()
        for index, expected in enumerate(reference):
            result = answers[index]
            assert result.task == TASKS[index]
            assert result.proved == expected.proved == EXPECTED_PROVED[index]
            assert result.refuted == expected.refuted
            assert result.winning_prover == expected.winning_prover

    def test_close_then_run_forks_a_fresh_executor(self):
        pool = ProverPool(SPEC, 1)
        try:
            first = list(pool.run([(0, TASKS[0])]))
            assert pool.started
            pool.close()
            assert not pool.started
            second = list(pool.run([(0, TASKS[1])]))
            assert pool.started
        finally:
            pool.close()
        assert first[0][3].proved and second[0][3].proved
        assert not pool.started

    def test_warm_up_forks_before_any_dispatch(self):
        pool = ProverPool(SPEC, 2)
        try:
            pool.warm_up()
            assert pool.started
            [(index, pid, _, result)] = list(pool.run([(7, TASKS[2])]))
        finally:
            pool.close()
        assert index == 7 and pid != os.getpid() and result.proved


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


class TestWorkerSide:
    def test_init_worker_builds_a_cacheless_portfolio_from_the_spec(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_WORKER_PORTFOLIO", None)
        pipeline._init_worker(SPEC)
        portfolio = pipeline._WORKER_PORTFOLIO
        assert portfolio is not None
        assert portfolio.proof_cache is None  # the parent owns the cache
        assert PortfolioSpec.from_portfolio(portfolio) == SPEC

    def test_init_worker_in_the_parent_keeps_its_sockets(self, monkeypatch):
        # Only a pool worker drops the socket fds it inherited.
        monkeypatch.setattr(pipeline, "_WORKER_PORTFOLIO", None)
        left, right = socket.socketpair()
        with left, right:
            pipeline._init_worker(SPEC)
            left.sendall(b"x")
            assert right.recv(1) == b"x"

    def test_dispatch_in_worker_answers_index_pid_wall_result(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_WORKER_PORTFOLIO", None)
        pipeline._init_worker(SPEC)
        index, pid, wall, result = pipeline._dispatch_in_worker((5, TASKS[0]))
        assert (index, pid) == (5, os.getpid())
        assert wall >= 0.0
        assert result.proved and result.winning_prover == "smt"
        assert [attempt.prover for attempt in result.attempts] == ["smt"]

    def test_dispatch_leaves_the_cache_and_counters_alone(self):
        # Accounting and caching are the parent's later phases
        # (record_outcome / store_verdict); the prover phase does neither.
        portfolio = scaled_portfolio()
        _, _, _, result = pipeline._dispatch(portfolio, (0, TASKS[0]))
        assert result.proved and not result.cached
        assert len(portfolio.proof_cache) == 0
        assert portfolio.statistics.sequents_proved == 0


# ---------------------------------------------------------------------------
# The engine's one pool
# ---------------------------------------------------------------------------


def build_toggle():
    """A one-method class with a few cheap sequents."""
    s = StructureBuilder("Toggle")
    s.concrete("on", "int")
    s.invariant("Bit", "0 <= on & on <= 1")
    m = s.method("flip", modifies="on", ensures="on = 1 - old on")
    m.assign("on", "1 - on")
    m.done()
    return s.build()


class TestEnginePool:
    def test_one_unforked_pool_per_engine(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        pool = engine.acquire_pool()
        assert engine.acquire_pool() is pool and engine._pool is pool
        assert pool.spec == SPEC and pool.jobs == 2
        assert not pool.started and not engine.pool_warm

    def test_discard_cancels_and_forgets_the_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        pool = engine.acquire_pool()
        spy = ClosingSpy(monkeypatch, pool)
        engine.discard_pool()
        assert engine._pool is None
        assert spy.calls == [True]  # queued work is cancelled, not waited out
        assert engine.acquire_pool() is not pool

    def test_close_shuts_the_pool_down_and_forgets_it(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        pool = engine.acquire_pool()
        spy = ClosingSpy(monkeypatch, pool)
        engine.close()
        assert engine._pool is None
        assert spy.calls == [False]

    def test_one_job_engine_needs_no_spec_and_no_pool(self):
        # A custom prover cannot be rebuilt in a worker, so its portfolio
        # has no spec; a jobs=1 engine without a store never asks for one.
        class Agreeable(Prover):
            name = "agreeable"

            def attempt(self, task, budget):
                return ProverResult(Outcome.PROVED, reason="stub")

        portfolio = ProverPortfolio([PortfolioEntry(Agreeable(), 1.0)])
        engine = VerificationEngine(portfolio, jobs=1)
        report = engine.verify_class(build_toggle())
        assert report.verified and report.provers_used == {
            "agreeable": report.sequents_total
        }
        assert engine._pool is None
        with pytest.raises(ValueError, match="'agreeable'"):
            engine.spec

    def test_warm_pool_is_a_no_op_at_one_job(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=1)
        engine.warm_pool()
        assert engine._pool is None and not engine.pool_warm

    def test_warm_pool_forks_once_and_close_shuts_it_down(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        try:
            engine.warm_pool()
            pool = engine._pool
            assert engine.pool_warm and pool.started
            assert pool.spec == SPEC and pool.jobs == 2
            engine.warm_pool()
            assert engine._pool is pool
        finally:
            engine.close()
        assert not engine.pool_warm and engine._pool is None
        assert not pool.started
        assert multiprocessing.active_children() == []

    def test_every_run_uses_the_same_workers(self):
        """verify_class, verify_suite and table2_rows on one jobs=2 engine
        dispatch to one executor, and close() reaps its workers."""
        toggle = build_toggle()
        engine = VerificationEngine(scaled_portfolio(), jobs=2, use_proof_cache=False)
        try:
            engine.verify_class(toggle)
            executor = engine._pool._executor
            pids = {load.pid for load in engine.last_run.workers}
            engine.verify_suite([toggle])
            pids |= {load.pid for load in engine.last_run.workers}
            run = RunRecord(jobs=2)
            table2_rows([toggle], engine, run)
            pids |= {load.pid for load in run.workers}
            assert engine._pool._executor is executor
            assert run.dispatched > 0
            assert pids <= set(executor._processes) and 1 <= len(pids) <= 2
        finally:
            engine.close()
        assert multiprocessing.active_children() == []

    def test_engine_jobs_are_clamped_to_one(self):
        assert VerificationEngine(scaled_portfolio(), jobs=0).jobs == 1
        assert VerificationEngine(scaled_portfolio(), jobs=-2).jobs == 1


# ---------------------------------------------------------------------------
# run_shard
# ---------------------------------------------------------------------------


def no_pool(*args, **kwargs):
    raise AssertionError("this run must not acquire a worker pool")


class TestRunShard:
    def test_in_parent_run_folds_every_verdict_onto_the_parent_pid(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=1)
        monkeypatch.setattr(engine, "acquire_pool", no_pool)
        run = RunRecord(jobs=1)
        seen: list[int] = []
        results = run_shard(
            engine, shard_of(TASKS), run, lambda slot, _: seen.append(slot.shard_index)
        )
        assert [result.proved for result in results] == EXPECTED_PROVED
        assert seen == list(range(len(TASKS)))  # in-parent runs in shard order
        [load] = run.workers
        assert load.pid == os.getpid() and load.tasks == len(TASKS)
        assert load.prover_time == pytest.approx(sum(r.wall for r in results))
        assert run.wall_time >= load.prover_time

    def test_empty_shard_acquires_no_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        monkeypatch.setattr(engine, "acquire_pool", no_pool)
        run = RunRecord(jobs=2)
        assert run_shard(engine, [], run, no_pool) == []
        assert run.workers == []

    def test_pooled_run_matches_the_in_parent_run(self):
        parent_run = RunRecord(jobs=1)
        expected = run_shard(
            VerificationEngine(scaled_portfolio(), jobs=1),
            shard_of(TASKS),
            parent_run,
            lambda slot, result: None,
        )
        with VerificationEngine(scaled_portfolio(), jobs=2) as engine:
            run = RunRecord(jobs=2)
            seen: list[int] = []
            results = run_shard(
                engine,
                shard_of(TASKS),
                run,
                lambda slot, _: seen.append(slot.shard_index),
            )
        assert sorted(seen) == list(range(len(TASKS)))
        assert [(r.proved, r.refuted, r.winning_prover) for r in results] == [
            (r.proved, r.refuted, r.winning_prover) for r in expected
        ]
        pids = [load.pid for load in run.workers]
        assert pids == sorted(pids) and os.getpid() not in pids
        assert sum(load.tasks for load in run.workers) == len(TASKS)

    def test_pooled_runs_keep_the_engine_pool(self):
        with VerificationEngine(scaled_portfolio(), jobs=2) as engine:
            run_shard(engine, shard_of(TASKS[:2]), RunRecord(jobs=2), lambda *_: None)
            pool = engine._pool
            executor = pool._executor
            assert pool.started
            run_shard(engine, shard_of(TASKS[2:]), RunRecord(jobs=2), lambda *_: None)
            assert engine._pool is pool and pool._executor is executor
        assert engine._pool is None and not pool.started

    def test_failed_pooled_run_discards_its_pool(self, monkeypatch):
        def boom(self, items):
            raise RuntimeError("executor died")
            yield  # unreachable; makes this a generator like the real run()

        monkeypatch.setattr(ProverPool, "run", boom)
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        discarded: list[ProverPool] = []
        discard = engine.discard_pool

        def record():
            discarded.append(engine._pool)
            discard()

        monkeypatch.setattr(engine, "discard_pool", record)
        run = RunRecord(jobs=2)
        with pytest.raises(RuntimeError, match="executor died"):
            run_shard(engine, shard_of(TASKS), run, lambda *_: None)
        assert len(discarded) == 1 and discarded[0] is not None
        assert engine._pool is None
        assert run.workers == []
