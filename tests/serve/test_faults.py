"""Chaos suite: deterministic fault injection through the serving stack.

The :mod:`repro.serve.faults` harness schedules worker crashes, slowdowns,
queue stalls, and corrupt artifact reads on exact (worker, spawn, batch)
coordinates, so every test here replays identically: retries recover within
their backoff budget, breakers walk closed → open → half_open → closed on
cue, shutdown under load settles every future, and recovered pipelines
produce predictions identical to the never-injected path.
"""

import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    BreakerPolicy,
    CircuitOpen,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InferenceServer,
    NoLiveWorkers,
    ProcessWorkerPool,
    RetryPolicy,
    ServerClosed,
    ThreadWorkerPool,
    WorkerCrashed,
)
from repro.serve.stats import ServerStats

# Retry with no backoff sleeps: chaos tests exercise the retry *logic*, the
# wall-clock backoff is covered by the dispatcher unit tests.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.0, jitter=0.0, seed=0)


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")
        with pytest.raises(ValueError):
            FaultSpec("slow", delay_ms=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("crash", nth_batch=0)
        with pytest.raises(ValueError):
            FaultSpec("crash", times=0)
        with pytest.raises(ValueError):
            FaultSpec("crash", probability=2.0)

    def test_crash_fires_on_exact_batch_and_worker(self):
        plan = FaultPlan.crash_on_batch(3, worker=1)
        wrong_worker = plan.session(worker=0)
        assert not any(wrong_worker.on_batch() for _ in range(5))
        session = plan.session(worker=1)
        fired = [bool(session.on_batch()) for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_spawn_zero_targets_only_the_first_incarnation(self):
        plan = FaultPlan.crash_on_batch(1, worker=0, spawn=0)
        assert plan.session(worker=0, spawn=0).on_batch()
        assert not plan.session(worker=0, spawn=1).on_batch()
        poison = FaultPlan.crash_on_batch(1, worker=0, spawn=None)
        assert poison.session(worker=0, spawn=4).on_batch()

    def test_times_budget_limits_triggers(self):
        plan = FaultPlan.slow_worker(1.0, times=2)
        session = plan.session()
        fired = [bool(session.on_batch()) for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_probability_draws_are_seeded_and_replayable(self):
        plan = FaultPlan((FaultSpec("slow", times=None, probability=0.5),), seed=42)

        def pattern(worker):
            session = plan.session(worker=worker)
            return [bool(session.on_batch()) for _ in range(32)]

        assert pattern(0) == pattern(0)  # same coordinates: same coin flips
        assert pattern(0) != pattern(1)  # each worker gets its own stream
        assert any(pattern(0)) and not all(pattern(0))

    def test_plans_compose_and_order_sleeps_before_the_crash(self):
        plan = FaultPlan.slow_worker(5.0, times=1) + FaultPlan.crash_on_batch(1)
        fired = plan.session().on_batch()
        assert [spec.kind for spec in fired] == ["slow", "crash"]

    def test_plan_survives_pickling(self):
        plan = FaultPlan.crash_on_batch(2, worker=1) + FaultPlan.corrupt_artifact()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.session(worker=1).on_batch() == []

    def test_artifact_fault_is_separate_from_batch_faults(self):
        plan = FaultPlan.corrupt_artifact(worker=0) + FaultPlan.crash_on_batch(1)
        session = plan.session(worker=0)
        assert session.on_artifact_load().kind == "corrupt_artifact"
        assert session.on_artifact_load() is None  # budget of 1 spent
        assert [s.kind for s in session.on_batch()] == ["crash"]


# ---------------------------------------------------------------------------
# Thread-pool chaos through the full server
# ---------------------------------------------------------------------------
class TestThreadPoolChaos:
    def test_injected_crash_is_retried_and_the_answer_is_unchanged(self, repo, served):
        server = InferenceServer(
            repo, retry=FAST_RETRY,
            fault_plan=FaultPlan.crash_on_batch(1, worker=0),
        )
        try:
            out = server.predict("resnet_s", served.batch[0], timeout=120.0)
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)
            snap = server.stats("resnet_s")["resilience"]
            assert snap["retries"] >= 1
        finally:
            server.close()

    def test_crash_without_retry_surfaces_worker_crashed(self, repo, served):
        server = InferenceServer(
            repo, retry=None, breaker=None,
            fault_plan=FaultPlan.crash_on_batch(1, worker=0),
        )
        try:
            with pytest.raises(WorkerCrashed):
                server.predict("resnet_s", served.batch[0], timeout=120.0)
        finally:
            server.close()

    def test_repeated_crashes_open_the_breaker_then_a_probe_closes_it(
        self, repo, served
    ):
        # The first two batches crash (exhausting the retry budget and the
        # breaker's failure threshold); the third — the half-open probe
        # after the reset timeout — succeeds and closes the breaker.
        server = InferenceServer(
            repo,
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=1.0),
            fault_plan=FaultPlan((FaultSpec("crash", worker=0, times=2),)),
        )
        try:
            with pytest.raises(WorkerCrashed):
                server.predict("resnet_s", served.batch[0], timeout=120.0)
            # Hard-open: admission sheds before anything queues.
            with pytest.raises(CircuitOpen):
                server.predict("resnet_s", served.batch[0], timeout=120.0)
            health = server.health()
            assert health["status"] == "degraded"
            assert health["models"]["resnet_s/1"]["reasons"] == ["breaker_open"]
            # Recovery: the reset timeout elapses, the probe batch runs clean.
            deadline = time.perf_counter() + 30.0
            out = None
            while time.perf_counter() < deadline:
                try:
                    out = server.predict("resnet_s", served.batch[0], timeout=120.0)
                    break
                except CircuitOpen:
                    time.sleep(0.1)
            assert out is not None, "breaker never admitted the probe"
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)
            assert server.health()["status"] == "ok"
            transitions = server.stats("resnet_s")["resilience"]["breaker_transitions"]
            assert transitions.get("closed->open") == 1
            assert transitions.get("open->half_open") == 1
            assert transitions.get("half_open->closed") == 1
        finally:
            server.close()

    def test_slow_worker_trips_the_request_deadline(self, repo, served):
        server = InferenceServer(
            repo, retry=None, breaker=None,
            fault_plan=FaultPlan.slow_worker(500.0, times=None),
        )
        try:
            start = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                server.predict("resnet_s", served.batch[0], timeout_ms=100.0)
            # Failed at the deadline, not after the injected slowdown.
            assert time.perf_counter() - start < 0.5
        finally:
            server.close()

    def test_queue_stall_delays_but_does_not_fail(self, repo, served):
        server = InferenceServer(
            repo, fault_plan=FaultPlan.queue_stall(150.0, worker=0)
        )
        try:
            start = time.perf_counter()
            out = server.predict("resnet_s", served.batch[0], timeout=120.0)
            assert time.perf_counter() - start >= 0.15
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)
        finally:
            server.close()

    def test_close_under_load_fails_queued_requests_with_server_closed(
        self, repo, served
    ):
        # A wide-open batching window holds submissions in the collector;
        # close() must settle every one of them with ServerClosed — fast,
        # deterministically, and before pool teardown — never hang a future.
        server = InferenceServer(
            repo, policy=BatchPolicy(max_batch_size=64, max_delay_ms=60_000.0)
        )
        try:
            futures = [
                server.predict_async("resnet_s", served.batch[i % len(served.batch)])
                for i in range(6)
            ]
            start = time.perf_counter()
            server.close()
            for future in futures:
                with pytest.raises(ServerClosed):
                    future.result(timeout=10.0)
            assert time.perf_counter() - start < 10.0
            assert server.health()["status"] == "closed"
            with pytest.raises(RuntimeError):
                server.predict("resnet_s", served.batch[0])
        finally:
            server.close()

    def test_close_with_drain_still_serves_the_backlog(self, repo, served):
        server = InferenceServer(
            repo, policy=BatchPolicy(max_batch_size=64, max_delay_ms=60_000.0)
        )
        futures = [server.predict_async("resnet_s", served.batch[i]) for i in range(3)]
        server.close(drain=True)
        for i, future in enumerate(futures):
            np.testing.assert_allclose(
                future.result(timeout=120.0), served.expected[i],
                rtol=1e-9, atol=1e-12,
            )


# ---------------------------------------------------------------------------
# Process-pool chaos: real worker deaths
# ---------------------------------------------------------------------------
class TestProcessPoolChaos:
    def test_injected_crash_retries_to_the_surviving_worker(self, repo, served):
        server = InferenceServer(
            repo, worker_mode="process", workers=2, retry=FAST_RETRY,
            fault_plan=FaultPlan.crash_on_batch(1, worker=0),
        )
        try:
            # Worker 0 hard-exits (os._exit) holding the first batch; the
            # resilient dispatcher re-submits to worker 1, so the caller
            # sees only the correct answer.
            out = server.predict("resnet_s", served.batch[0], timeout=120.0)
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)
            assert server.stats("resnet_s")["resilience"]["retries"] >= 1
        finally:
            server.close()

    def test_concurrent_crashes_respawn_both_slots(self, served):
        # Both workers die in the same window (each crashes its own first
        # batch).  Each slot's respawn is owned by exactly one thread
        # (_respawning), both in-flight futures fail — never hang — and the
        # pool recovers to two live, healthy spawn-1 incarnations.
        plan = FaultPlan.crash_on_batch(1, worker=0) + FaultPlan.crash_on_batch(
            1, worker=1
        )
        pool = ProcessWorkerPool(served.artifact, num_workers=2, fault_plan=plan)
        try:
            old_pids = pool.worker_pids()
            assert len(old_pids) == 2
            first = pool.submit(served.batch[:1])   # lands on worker 0
            second = pool.submit(served.batch[:1])  # worker 0 busy → worker 1
            for future in (first, second):
                with pytest.raises(WorkerCrashed):
                    future.result(timeout=120.0)
            deadline = time.perf_counter() + 120.0
            out = None
            while time.perf_counter() < deadline:
                try:
                    out = pool.submit(served.batch[:2]).result(timeout=120.0)
                    break
                except (WorkerCrashed, NoLiveWorkers):
                    time.sleep(0.1)
            assert out is not None, "pool never recovered from the double crash"
            np.testing.assert_allclose(
                out, served.expected[:2], rtol=1e-9, atol=1e-12
            )
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline and len(pool.worker_pids()) < 2:
                time.sleep(0.1)
            new_pids = pool.worker_pids()
            assert len(new_pids) == 2
            assert not set(new_pids) & set(old_pids)
        finally:
            pool.close()

    def test_corrupt_artifact_hits_the_start_failure_cap(self, served):
        # Every incarnation's artifact read fails, so respawn gives up after
        # the cap instead of spawn-looping forever; submits then report
        # NoLiveWorkers (a retriable pool state, not a hang).
        plan = FaultPlan.corrupt_artifact(worker=0, spawn=None)
        pool = ProcessWorkerPool(served.artifact, num_workers=1, fault_plan=plan)
        try:
            deadline = time.perf_counter() + 120.0
            while (
                time.perf_counter() < deadline
                and pool._start_failures < pool._MAX_START_FAILURES
            ):
                time.sleep(0.1)
            assert pool._start_failures >= pool._MAX_START_FAILURES
            assert "injected corrupt artifact" in (pool._last_death or "")
            # The respawn loop has given up; the pool reports the retriable
            # NoLiveWorkers (no hang, no further process spawning).
            deadline = time.perf_counter() + 60.0
            saw_no_live = False
            while time.perf_counter() < deadline:
                try:
                    pool.submit(served.batch[:1]).result(timeout=120.0)
                except NoLiveWorkers:
                    saw_no_live = True
                    break
                except WorkerCrashed:
                    time.sleep(0.1)  # death noticed per-batch; keep probing
            assert saw_no_live
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Server-wide readiness rollup
# ---------------------------------------------------------------------------
class TestServerStatsRollup:
    def _snapshot(self, breaker="closed", depth=0, capacity=100, **counters):
        return {
            "requests": {"submitted": 10, "completed": 8, "failed": 2},
            "queue": {"depth": depth, "capacity": capacity},
            "resilience": {
                "shed_total": counters.get("shed_total", 0),
                "deadline_expired": counters.get("deadline_expired", 0),
                "retries": counters.get("retries", 0),
                "breaker_transitions": counters.get("breaker_transitions", {}),
                "breaker": {"state": breaker},
            },
        }

    def test_all_healthy_rolls_up_ok(self):
        rollup = ServerStats().rollup({"m/1": self._snapshot(retries=3)})
        assert rollup["status"] == "ok"
        assert rollup["degraded"] == []
        assert rollup["models"]["m/1"]["ready"] is True
        assert rollup["totals"]["submitted"] == 10
        assert rollup["totals"]["retries"] == 3

    def test_open_breaker_degrades(self):
        rollup = ServerStats().rollup(
            {"a/1": self._snapshot(), "b/2": self._snapshot(breaker="open")}
        )
        assert rollup["status"] == "degraded"
        assert rollup["degraded"] == ["b/2"]
        assert rollup["models"]["b/2"]["reasons"] == ["breaker_open"]
        assert rollup["models"]["a/1"]["ready"] is True

    def test_saturated_queue_degrades(self):
        rollup = ServerStats(saturation_threshold=0.9).rollup(
            {"m/1": self._snapshot(depth=95, capacity=100)}
        )
        assert rollup["status"] == "degraded"
        assert rollup["models"]["m/1"]["reasons"] == ["queue_saturated"]

    def test_totals_sum_across_models(self):
        rollup = ServerStats().rollup(
            {
                "a/1": self._snapshot(
                    shed_total=5, breaker_transitions={"closed->open": 1}
                ),
                "b/1": self._snapshot(deadline_expired=2),
            }
        )
        totals = rollup["totals"]
        assert totals["shed_total"] == 5
        assert totals["deadline_expired"] == 2
        assert totals["breaker_transitions"] == 1
        assert totals["submitted"] == 20


# ---------------------------------------------------------------------------
# Crashes injected mid-resize (the autoscaler's transition window)
# ---------------------------------------------------------------------------
class _PlusOne:
    def run(self, batch):
        return batch + 1.0


class TestScaleChaos:
    """``FaultPlan.crash_during_scale``: a worker dies exactly while the
    pool is resizing — the window the autoscaler opens on every decision.
    Thread pools simulate the death as a failed batch; process pools
    hard-terminate the victim and must respawn it."""

    def test_thread_pool_crash_during_grow_fails_one_batch_then_recovers(self):
        pool = ThreadWorkerPool(
            _PlusOne(), num_workers=1,
            fault_plan=FaultPlan.crash_during_scale(nth_resize=1),
        )
        try:
            np.testing.assert_array_equal(
                pool.submit(np.zeros(2)).result(timeout=30.0), np.ones(2)
            )
            assert pool.resize(2) == 2  # arms exactly one mid-scale crash
            with pytest.raises(WorkerCrashed, match="during resize"):
                pool.submit(np.zeros(2)).result(timeout=30.0)
            # The times=1 budget is spent: the grown pool is healthy.
            np.testing.assert_array_equal(
                pool.submit(np.zeros(2)).result(timeout=30.0), np.ones(2)
            )
            # A later shrink is not the nth_resize=1 transition: no crash.
            assert pool.resize(1) == 1
            np.testing.assert_array_equal(
                pool.submit(np.zeros(2)).result(timeout=30.0), np.ones(2)
            )
        finally:
            pool.close()

    def test_thread_pool_resize_crash_is_absorbed_by_the_retry_layer(self):
        from repro.serve import ResilientDispatcher

        pool = ThreadWorkerPool(
            _PlusOne(), num_workers=1,
            fault_plan=FaultPlan.crash_during_scale(nth_resize=1),
        )
        dispatch = ResilientDispatcher(pool.submit, FAST_RETRY)
        try:
            pool.resize(2)
            # The injected mid-scale crash fails the first attempt; the
            # dispatcher re-submits and the caller sees only the answer —
            # what a server-side autoscale decision looks like to clients.
            np.testing.assert_array_equal(
                dispatch(np.zeros(2)).result(timeout=30.0), np.ones(2)
            )
        finally:
            pool.close()

    def test_process_pool_victim_terminated_mid_grow_is_respawned(self, served):
        pool = ProcessWorkerPool(
            served.artifact, num_workers=2,
            fault_plan=FaultPlan.crash_during_scale(worker=0, nth_resize=1),
        )
        try:
            old_pids = pool.worker_pids()
            assert len(old_pids) == 2
            # Growing 2 → 3 terminates worker 0's process mid-transition (a
            # real SIGTERM, not a simulated error).  The grow itself must
            # still complete, and the crash detector respawns slot 0.
            pool.resize(3)
            # The victim's death is detected asynchronously (its reader
            # thread sees the pipe close), so wait for the replacement —
            # not just the grown slot — before judging the roster.
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                pids = pool.worker_pids()
                if len(pids) == 3 and old_pids[0] not in pids:
                    break
                time.sleep(0.1)
            new_pids = pool.worker_pids()
            assert len(new_pids) == 3, f"pool never re-filled: {new_pids}"
            assert old_pids[0] not in new_pids  # the victim really died
            assert old_pids[1] in new_pids      # the survivor was untouched
            out = None
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                try:
                    out = pool.submit(served.batch[:2]).result(timeout=120.0)
                    break
                except (WorkerCrashed, NoLiveWorkers):
                    time.sleep(0.1)
            assert out is not None, "pool never served after the respawn"
            np.testing.assert_allclose(
                out, served.expected[:2], rtol=1e-9, atol=1e-12
            )
        finally:
            pool.close()

    def test_process_pool_crash_during_shrink_never_respawns_the_retiree(
        self, served
    ):
        pool = ProcessWorkerPool(
            served.artifact, num_workers=3,
            fault_plan=FaultPlan.crash_during_scale(worker=1, nth_resize=1),
        )
        try:
            old_pids = pool.worker_pids()
            assert len(old_pids) == 3
            # Shrinking 3 → 2 retires the tail slot gracefully *and* kills
            # worker 1 mid-transition.  Slot 2 must stay retired (resize's
            # shrink, not a death) while slot 1 respawns.
            pool.resize(2)
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                pids = pool.worker_pids()
                if len(pids) == 2 and old_pids[1] not in pids:
                    break
                time.sleep(0.1)
            pids = pool.worker_pids()
            assert len(pids) == 2, f"expected 2 live workers, got {pids}"
            assert old_pids[0] in pids       # untouched survivor
            assert old_pids[1] not in pids   # the victim was replaced
            assert old_pids[2] not in pids   # the retiree stayed retired
            out = None
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                try:
                    out = pool.submit(served.batch[:1]).result(timeout=120.0)
                    break
                except (WorkerCrashed, NoLiveWorkers):
                    time.sleep(0.1)
            assert out is not None, "pool never served after the shrink"
            np.testing.assert_allclose(
                out, served.expected[:1], rtol=1e-9, atol=1e-12
            )
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Teardown hygiene: crash/respawn churn must never leave a worker running
# ---------------------------------------------------------------------------
def _new_children(baseline):
    """Live child processes started since ``baseline`` (finished ones are
    reaped by ``active_children``)."""
    return [p for p in multiprocessing.active_children() if p.pid not in baseline]


class TestShmRingHygiene:
    """After ``pool.close()`` no worker process of any incarnation is alive.

    The regression this guards: a replacement spawned by a respawn that
    was still running when the pool closed outlived ``close()``.  ``close``
    now waits for each worker's reader thread, which owns its slot's
    respawn, so every incarnation is stopped and reaped before it returns.
    """

    def test_clean_lifecycle_leaves_no_segments(self, served):
        baseline = {p.pid for p in multiprocessing.active_children()}
        pool = ProcessWorkerPool(served.artifact, num_workers=2)
        try:
            assert len(pool.worker_pids()) == 2
            out = pool.submit(served.batch[:2]).result(timeout=120.0)
            np.testing.assert_allclose(out, served.expected[:2], rtol=1e-9, atol=1e-12)
        finally:
            pool.close()
        assert _new_children(baseline) == []

    def test_crash_respawn_churn_leaves_no_segments(self, served):
        baseline = {p.pid for p in multiprocessing.active_children()}
        # Worker 0 crashes its first batch on every incarnation, so the pool
        # keeps respawning slot 0 while batches are submitted.
        plan = FaultPlan.crash_on_batch(1, worker=0, spawn=None)
        pool = ProcessWorkerPool(served.artifact, num_workers=2, fault_plan=plan)
        seen = set()
        try:
            crashes = 0
            deadline = time.perf_counter() + 120.0
            while crashes < 2 and time.perf_counter() < deadline:
                seen.update(pool.worker_pids())
                try:
                    pool.submit(served.batch[:1]).result(timeout=120.0)
                except WorkerCrashed:
                    crashes += 1
                except NoLiveWorkers:
                    time.sleep(0.05)
            assert crashes >= 2, "fault plan never fired"
            seen.update(pool.worker_pids())
            assert len(seen) >= 3  # at least one respawned incarnation
        finally:
            pool.close()
        assert _new_children(baseline) == []
