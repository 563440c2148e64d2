"""The local process pool: prover dispatch's one backend.

Four layers, each below the differential harnesses
(``test_parallel_differential.py``, ``test_scheduler_differential.py``),
which only see whole verification runs:

* :class:`~repro.verifier.parallel.ProverPool` itself -- lazy fork,
  spec/jobs matching, warm-up, close and restart, and pool verdicts equal
  to the parent's own portfolio;
* the worker side -- the cacheless portfolio each worker builds from the
  spec, and the ``(index, pid, wall, result)`` tuple it answers with;
* the engine's pool hand-out -- per-run pools sized to the shard, one warm
  pool reused or replaced, healthy pools kept and broken ones discarded;
* :func:`~repro.verifier.parallel.run_shard`'s per-worker accounting on the
  in-parent and pooled paths, and its cleanup when the pool fails.
"""

from __future__ import annotations

import os

import pytest

from repro.logic import INT
from repro.logic.parser import parse_formula
from repro.provers import ProofTask, default_portfolio
from repro.provers.dispatch import PortfolioSpec
from repro.verifier import parallel
from repro.verifier.engine import VerificationEngine
from repro.verifier.parallel import ProverPool, RunRecord, run_shard

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
OTHER_SPEC = PortfolioSpec.from_portfolio(default_portfolio().scaled(1.0))


def shard_of(tasks: list[ProofTask]) -> list:
    """Shard slots as ``plan_class`` leaves them: the task and its position."""
    return [
        parallel._Slot(0, None, item, shard_index=index)
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
            assert pool.matches(SPEC, 1) and pool.matches(SPEC, 0)

    def test_matches_needs_the_same_spec_and_jobs(self):
        pool = ProverPool(SPEC, 2)
        assert pool.matches(SPEC, 2)
        assert pool.matches(PortfolioSpec(SPEC.entries), 2)  # equal by value
        assert not pool.matches(SPEC, 3)
        assert not pool.matches(OTHER_SPEC, 2)

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
        monkeypatch.setattr(parallel, "_WORKER_PORTFOLIO", None)
        parallel._init_worker(SPEC)
        portfolio = parallel._WORKER_PORTFOLIO
        assert portfolio is not None
        assert portfolio.proof_cache is None  # the parent owns the cache
        assert PortfolioSpec.from_portfolio(portfolio) == SPEC

    def test_dispatch_in_worker_answers_index_pid_wall_result(self, monkeypatch):
        monkeypatch.setattr(parallel, "_WORKER_PORTFOLIO", None)
        parallel._init_worker(SPEC)
        index, pid, wall, result = parallel._dispatch_in_worker((5, TASKS[0]))
        assert (index, pid) == (5, os.getpid())
        assert wall >= 0.0
        assert result.proved and result.winning_prover == "smt"
        assert [attempt.prover for attempt in result.attempts] == ["smt"]

    def test_dispatch_leaves_the_cache_and_counters_alone(self):
        # Accounting and caching are the parent's later phases
        # (record_outcome / store_verdict); the prover phase does neither.
        portfolio = scaled_portfolio()
        _, _, _, result = parallel._dispatch(portfolio, (0, TASKS[0]))
        assert result.proved and not result.cached
        assert len(portfolio.proof_cache) == 0
        assert portfolio.statistics.sequents_proved == 0


# ---------------------------------------------------------------------------
# The engine's pool hand-out
# ---------------------------------------------------------------------------


class TestEnginePools:
    def test_per_run_pool_is_sized_to_the_shard(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=4)
        assert engine.acquire_pool(SPEC, 4, shard_size=2).jobs == 2
        assert engine.acquire_pool(SPEC, 4, shard_size=10).jobs == 4
        assert engine.acquire_pool(SPEC, 4).jobs == 4
        assert engine._pool is None and not engine.pool_warm

    def test_per_run_pools_are_fresh_objects(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        first = engine.acquire_pool(SPEC, 2)
        second = engine.acquire_pool(SPEC, 2)
        assert first is not second
        assert not first.started and not second.started

    def test_warm_engine_reuses_one_unsized_pool(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
        pool = engine.acquire_pool(SPEC, 2)
        assert engine.acquire_pool(SPEC, 2, shard_size=1) is pool
        assert pool.jobs == 2  # a warm pool is never sized down
        assert engine._pool is pool

    def test_warm_engine_replaces_a_pool_for_another_spec(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
        old = engine.acquire_pool(SPEC, 2)
        spy = ClosingSpy(monkeypatch, old)
        new = engine.acquire_pool(OTHER_SPEC, 2)
        assert new is not old and engine._pool is new
        assert new.spec == OTHER_SPEC
        assert spy.calls == [False]

    def test_warm_engine_replaces_a_pool_for_other_jobs(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
        old = engine.acquire_pool(SPEC, 2)
        spy = ClosingSpy(monkeypatch, old)
        new = engine.acquire_pool(SPEC, 3)
        assert engine._pool is new and new.jobs == 3
        assert spy.calls == [False]

    def test_release_keeps_a_healthy_warm_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
        pool = engine.acquire_pool(SPEC, 2)
        spy = ClosingSpy(monkeypatch, pool)
        engine.release_pool(pool)
        assert engine._pool is pool
        assert spy.calls == []

    def test_release_discards_a_broken_warm_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
        pool = engine.acquire_pool(SPEC, 2)
        spy = ClosingSpy(monkeypatch, pool)
        engine.release_pool(pool, broken=True)
        assert engine._pool is None
        assert spy.calls == [True]  # queued work is cancelled, not waited out
        assert engine.acquire_pool(SPEC, 2) is not pool

    def test_release_closes_a_per_run_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        pool = engine.acquire_pool(SPEC, 2)
        spy = ClosingSpy(monkeypatch, pool)
        engine.release_pool(pool)
        assert spy.calls == [False]

    def test_warm_pool_is_a_no_op_at_one_job(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=1, keep_pool_warm=True)
        engine.warm_pool()
        assert engine._pool is None and not engine.pool_warm

    def test_warm_pool_needs_keep_pool_warm(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        engine.warm_pool()
        assert engine._pool is None and not engine.pool_warm

    def test_warm_pool_forks_once_and_close_shuts_it_down(self):
        engine = VerificationEngine(scaled_portfolio(), jobs=2, keep_pool_warm=True)
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
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        run = RunRecord(jobs=2)
        seen: list[int] = []
        results = run_shard(
            engine, shard_of(TASKS), run, lambda slot, _: seen.append(slot.shard_index)
        )
        assert sorted(seen) == list(range(len(TASKS)))
        assert [(r.proved, r.refuted, r.winning_prover) for r in results] == [
            (r.proved, r.refuted, r.winning_prover) for r in expected
        ]
        pids = [load.pid for load in run.workers]
        assert pids == sorted(pids) and os.getpid() not in pids
        assert sum(load.tasks for load in run.workers) == len(TASKS)

    def test_pooled_run_closes_its_per_run_pool(self, monkeypatch):
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        released: list[tuple[ProverPool, bool]] = []
        release = engine.release_pool

        def record(pool, broken=False):
            released.append((pool, broken))
            release(pool, broken)

        monkeypatch.setattr(engine, "release_pool", record)
        run_shard(engine, shard_of(TASKS[:2]), RunRecord(jobs=2), lambda *_: None)
        [(pool, broken)] = released
        assert not broken
        assert pool.jobs == 2 and not pool.started
        assert engine._pool is None

    def test_failed_pooled_run_discards_its_pool(self, monkeypatch):
        def boom(self, items):
            raise RuntimeError("executor died")
            yield  # unreachable; makes this a generator like the real run()

        monkeypatch.setattr(ProverPool, "run", boom)
        engine = VerificationEngine(scaled_portfolio(), jobs=2)
        released: list[bool] = []
        release = engine.release_pool

        def record(pool, broken=False):
            released.append(broken)
            release(pool, broken)

        monkeypatch.setattr(engine, "release_pool", record)
        run = RunRecord(jobs=2)
        with pytest.raises(RuntimeError, match="executor died"):
            run_shard(engine, shard_of(TASKS), run, lambda *_: None)
        assert released == [True]
        assert run.workers == []
