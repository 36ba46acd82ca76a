"""End-to-end tests for InferenceServer, worker pools, and the HTTP front end."""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ModelRepository,
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerError,
    serve_http,
)


# ---------------------------------------------------------------------------
# Worker pools
# ---------------------------------------------------------------------------
class FakeExecutor:
    def run(self, batch):
        return batch + 1.0


class TestThreadWorkerPool:
    def test_runs_batches_on_the_shared_executor(self):
        pool = ThreadWorkerPool(FakeExecutor(), num_workers=3)
        try:
            futures = [pool.submit(np.full(2, i, dtype=float)) for i in range(6)]
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(future.result(timeout=5.0), np.full(2, i + 1.0))
        finally:
            pool.close()

    def test_executor_exception_surfaces_on_the_future(self):
        class Exploding:
            def run(self, batch):
                raise ValueError("bad batch")

        pool = ThreadWorkerPool(Exploding(), num_workers=1)
        try:
            with pytest.raises(ValueError, match="bad batch"):
                pool.submit(np.zeros(1)).result(timeout=5.0)
        finally:
            pool.close()

    def test_submit_after_close_raises(self):
        pool = ThreadWorkerPool(FakeExecutor(), num_workers=1)
        pool.close()
        with pytest.raises(WorkerError):
            pool.submit(np.zeros(1))

    def test_workers_share_one_planned_executor(self, served):
        from repro.core import Executor

        pool = ThreadWorkerPool(Executor(served.program), num_workers=3)
        try:
            assert pool.executor.exec_plan is not None  # its shard pool is shared
            futures = [pool.submit(served.batch) for _ in range(4)]
            for future in futures:
                np.testing.assert_allclose(
                    future.result(timeout=120.0), served.expected,
                    rtol=1e-9, atol=1e-12,
                )
        finally:
            pool.close()


class TestProcessWorkerPool:
    def test_workers_load_artifact_and_match_reference(self, served):
        pool = ProcessWorkerPool(served.artifact, num_workers=2)
        try:
            futures = [pool.submit(served.batch[i : i + 4]) for i in range(0, 12, 4)]
            out = np.concatenate([f.result(timeout=120.0) for f in futures])
            np.testing.assert_allclose(out, served.expected, rtol=1e-9, atol=1e-12)
            assert len(pool.worker_pids()) == 2
        finally:
            pool.close()

    def test_in_worker_exception_is_a_per_request_error(self, served):
        pool = ProcessWorkerPool(served.artifact, num_workers=1)
        try:
            bad = np.zeros((2, 5, 5))  # wrong rank/channels for the program
            with pytest.raises(RuntimeError, match="worker"):
                pool.submit(bad).result(timeout=120.0)
            # The worker survived the exception: good batches still run.
            good = pool.submit(served.batch[:2]).result(timeout=120.0)
            np.testing.assert_allclose(good, served.expected[:2], rtol=1e-9, atol=1e-12)
        finally:
            pool.close()

    def test_worker_crash_fails_requests_instead_of_hanging(self, served):
        pool = ProcessWorkerPool(served.artifact, num_workers=1, respawn=False)
        try:
            # Warm up: the worker is up and serving.
            pool.submit(served.batch[:1]).result(timeout=120.0)
            pool._workers[0].process.kill()
            # Whether the death is noticed before or after assignment, the
            # request must resolve to an error — never hang.
            deadline = time.perf_counter() + 30.0
            saw_error = False
            while time.perf_counter() < deadline:
                try:
                    future = pool.submit(served.batch[:1])
                except WorkerError:
                    saw_error = True  # pool already marked the worker dead
                    break
                try:
                    future.result(timeout=30.0)
                except WorkerError:
                    saw_error = True  # in-flight batch failed with WorkerCrashed
                    break
                time.sleep(0.05)
            assert saw_error
        finally:
            pool.close()

    def test_crashed_worker_respawns_and_serves_again(self, served):
        pool = ProcessWorkerPool(served.artifact, num_workers=1, respawn=True)
        try:
            pool.submit(served.batch[:1]).result(timeout=120.0)
            old_pids = pool.worker_pids()
            pool._workers[0].process.kill()
            deadline = time.perf_counter() + 60.0
            out = None
            while time.perf_counter() < deadline:
                try:
                    out = pool.submit(served.batch[:2]).result(timeout=120.0)
                    break
                except WorkerError:
                    time.sleep(0.1)  # death noticed, replacement still booting
            assert out is not None, "pool never recovered after the crash"
            np.testing.assert_allclose(out, served.expected[:2], rtol=1e-9, atol=1e-12)
            assert pool.worker_pids() != old_pids
        finally:
            pool.close()

    def test_missing_artifact_rejected_immediately(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ProcessWorkerPool(tmp_path / "nope.npz")

    def test_shared_memory_ring_recycles_slots(self, served):
        pool = ProcessWorkerPool(served.artifact, num_workers=1)
        try:
            worker = pool._workers[0]
            assert worker.in_ring is not None, "rings should be on by default"
            slots = pool.shm_slots
            # More in-flight batches than slots: the ring must recycle (and
            # the pickle fallback absorb the overflow) without losing jobs.
            futures = [pool.submit(served.batch) for _ in range(3 * slots)]
            for future in futures:
                np.testing.assert_allclose(
                    future.result(timeout=120.0), served.expected,
                    rtol=1e-9, atol=1e-12,
                )
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                with pool._lock:
                    if sorted(worker.in_free) == list(range(slots)):
                        break
                time.sleep(0.02)
            with pool._lock:
                assert sorted(worker.in_free) == list(range(slots)), (
                    "input ring slots must all return to the free list"
                )
            assert pool.plan_info and pool.plan_info["arena_bytes"] > 0
        finally:
            pool.close()

    def test_ring_and_pickle_paths_agree(self, served):
        with_ring = ProcessWorkerPool(served.artifact, num_workers=1)
        without = ProcessWorkerPool(
            served.artifact, num_workers=1, use_shared_memory=False
        )
        try:
            assert without._workers[0].in_ring is None
            a = with_ring.submit(served.batch).result(timeout=120.0)
            b = without.submit(served.batch).result(timeout=120.0)
            np.testing.assert_array_equal(a, b)
        finally:
            with_ring.close()
            without.close()

    def test_oversized_batch_falls_back_to_pickle(self, served):
        pool = ProcessWorkerPool(
            served.artifact, num_workers=1, shm_slot_bytes=1024  # tiny slots
        )
        try:
            out = pool.submit(served.batch).result(timeout=120.0)
            np.testing.assert_allclose(
                out, served.expected, rtol=1e-9, atol=1e-12
            )
        finally:
            pool.close()

    def test_teardown_closes_rings_without_buffer_errors(self, served):
        # A worker that still holds a view into its input ring cannot close
        # the segment, and SharedMemory.__del__ then prints a BufferError
        # traceback at exit.  Run the pool in a fresh interpreter so its
        # stderr, workers included, can be inspected.  The last batch fails
        # inside the worker, the path that leaves the view bound longest.
        script = (
            "import sys, numpy as np\n"
            "from repro.serve import ProcessWorkerPool\n"
            "pool = ProcessWorkerPool(sys.argv[1], num_workers=2)\n"
            "try:\n"
            "    x = np.zeros((4, 3, 32, 32))\n"
            "    for _ in range(4):\n"
            "        pool.submit(x).result(timeout=120.0)\n"
            "    try:\n"
            "        pool.submit(np.zeros((2, 5, 5))).result(timeout=120.0)\n"
            "    except Exception:\n"
            "        pass\n"
            "finally:\n"
            "    pool.close()\n"
            "print('closed')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script, str(served.artifact)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "closed"
        assert "BufferError" not in done.stderr, done.stderr


# ---------------------------------------------------------------------------
# InferenceServer
# ---------------------------------------------------------------------------
class TestInferenceServer:
    def test_single_sample_predictions_match_engine(self, repo, served):
        with InferenceServer(
            repo, policy=BatchPolicy(max_batch_size=8, max_delay_ms=3.0), workers=2
        ) as server:
            futures = [server.predict_async("resnet_s", s) for s in served.batch]
            out = np.stack([f.result(timeout=60.0) for f in futures])
            np.testing.assert_allclose(out, served.expected, rtol=1e-9, atol=1e-12)
            snap = server.stats("resnet_s")
            assert snap["requests"]["completed"] == len(served.batch)
            assert snap["batches"]["count"] >= 2  # actually coalesced

    def test_predict_batch_bypasses_the_batcher(self, repo, served):
        with InferenceServer(repo) as server:
            out = server.predict_batch("resnet_s", served.batch)
            np.testing.assert_allclose(out, served.expected, rtol=1e-9, atol=1e-12)
            snap = server.stats("resnet_s")
            # Rows are counted as requests (consistent stats for bulk
            # traffic), but nothing ever entered the batcher's queue.
            assert snap["requests"]["submitted"] == len(served.batch)
            assert snap["requests"]["completed"] == len(served.batch)
            assert snap["batches"] == {"count": 1, "mean_size": 12.0, "max_size": 12}
            assert snap["queue"]["max_depth"] == 0
            assert snap["latency"]["p50_ms"] > 0

    def test_wrong_sample_shape_fails_alone(self, repo, served):
        with InferenceServer(repo) as server:
            with pytest.raises(ValueError, match="input shape"):
                server.predict("resnet_s", np.zeros((5, 5)))
            # The pipeline is intact; well-formed requests still serve.
            out = server.predict("resnet_s", served.batch[0], timeout=60.0)
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)

    def test_explicit_version_pins_the_pipeline(self, repo, served):
        repo.publish(served.program_unoptimized, "resnet_s")  # v2 = latest
        with InferenceServer(repo) as server:
            out = server.predict("resnet_s", served.batch[0], version=1, timeout=60.0)
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-9, atol=1e-12)
            assert server.serving() == [("resnet_s", 1)]

    def test_hot_swap_on_publish_switches_and_retires_old_pipeline(self, repo, served):
        with InferenceServer(repo) as server:
            server.predict("resnet_s", served.batch[0], timeout=60.0)
            assert server.serving() == [("resnet_s", 1)]
            repo.publish(served.program_unoptimized, "resnet_s")  # hot-swap to v2
            out = server.predict("resnet_s", served.batch[0], timeout=60.0)
            assert server.serving() == [("resnet_s", 2)]  # v1 pipeline retired
            # The unoptimized program matches the legacy float association;
            # predictions agree with the optimized path to float tolerance.
            np.testing.assert_allclose(out, served.expected[0], rtol=1e-6, atol=1e-8)

    def test_pinned_version_survives_hot_swap(self, repo, served):
        with InferenceServer(repo) as server:
            # Pin v1 explicitly, then swap latest to v2: the pinned pipeline
            # must keep serving (only unpinned stale versions retire).
            server.predict("resnet_s", served.batch[0], version=1, timeout=60.0)
            repo.publish(served.program_unoptimized, "resnet_s")
            server.predict("resnet_s", served.batch[0], timeout=60.0)  # builds v2
            assert server.serving() == [("resnet_s", 1), ("resnet_s", 2)]
            out = server.predict("resnet_s", served.batch[1], version=1, timeout=60.0)
            np.testing.assert_allclose(out, served.expected[1], rtol=1e-9, atol=1e-12)

    def test_repository_eviction_with_requests_in_flight(self, tmp_path, served):
        """A capacity-1 repository serving two models: building model B's
        pipeline evicts A's cache entry while A still serves requests."""
        repo = ModelRepository(tmp_path / "repo", capacity=1)
        repo.publish_artifact(served.artifact, "model_a")
        repo.publish_artifact(served.artifact, "model_b")
        with InferenceServer(
            repo, policy=BatchPolicy(max_batch_size=4, max_delay_ms=20.0)
        ) as server:
            in_flight = [server.predict_async("model_a", s) for s in served.batch[:4]]
            server.predict("model_b", served.batch[0], timeout=60.0)  # evicts model_a
            assert repo.cached == [("model_b", 1)]
            out = np.stack([f.result(timeout=60.0) for f in in_flight])
            np.testing.assert_allclose(out, served.expected[:4], rtol=1e-9, atol=1e-12)
            # And model_a keeps serving post-eviction: its pipeline owns the program.
            again = server.predict("model_a", served.batch[5], timeout=60.0)
            np.testing.assert_allclose(again, served.expected[5], rtol=1e-9, atol=1e-12)

    def test_process_worker_mode_serves_from_the_artifact(self, repo, served):
        with InferenceServer(
            repo,
            policy=BatchPolicy(max_batch_size=6, max_delay_ms=5.0),
            workers=1,
            worker_mode="process",
        ) as server:
            futures = [server.predict_async("resnet_s", s) for s in served.batch[:6]]
            out = np.stack([f.result(timeout=120.0) for f in futures])
            np.testing.assert_allclose(out, served.expected[:6], rtol=1e-9, atol=1e-12)

    def test_closed_server_rejects_requests(self, repo, served):
        server = InferenceServer(repo)
        server.close()
        with pytest.raises(RuntimeError):
            server.predict("resnet_s", served.batch[0])

    def test_invalid_worker_mode_rejected(self, repo):
        with pytest.raises(ValueError):
            InferenceServer(repo, worker_mode="fiber")


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
@pytest.fixture()
def http_server(repo):
    server = InferenceServer(repo, policy=BatchPolicy(max_batch_size=8, max_delay_ms=3.0))
    front = serve_http(server, port=0)
    yield front
    front.close()
    server.close()


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=60.0) as response:
        return json.loads(response.read())


def _post(url, path, payload):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120.0) as response:
        return json.loads(response.read())


class TestHttpFrontEnd:
    def test_health_models_and_metadata(self, http_server):
        url = http_server.url
        health = _get(url, "/healthz")
        assert health["status"] == "ok"
        assert health["degraded"] == []
        assert _get(url, "/v1/models") == {"models": {"resnet_s": [1]}}
        meta = _get(url, "/v1/models/resnet_s")
        assert meta["input_shape"] == [3, 32, 32]

    def test_predict_single_and_batch(self, http_server, served):
        url = http_server.url
        single = _post(
            url, "/v1/models/resnet_s/predict", {"inputs": served.batch[0].tolist()}
        )
        assert single["model"] == "resnet_s" and single["version"] == 1
        assert single["batched"] is False
        np.testing.assert_allclose(
            np.asarray(single["outputs"]), served.expected[0], rtol=1e-9, atol=1e-12
        )
        batch = _post(
            url, "/v1/models/resnet_s/predict", {"inputs": served.batch[:3].tolist()}
        )
        assert batch["batched"] is True
        np.testing.assert_allclose(
            np.asarray(batch["outputs"]), served.expected[:3], rtol=1e-9, atol=1e-12
        )
        stats = _get(url, "/v1/models/resnet_s/stats")
        assert stats["requests"]["completed"] == 4
        # The serving pipeline shares one planned executor: its arena/fusion
        # counters surface in the stats payload (same numbers as
        # NetworkProgram.metadata()["execution_plan"]).
        assert stats["executor"]["arena_bytes"] > 0
        assert stats["executor"]["steps_fused"] > 0
        assert stats["executor"]["workers"] >= 1
        # The compile pipeline's report travels with the artifact and
        # surfaces under /stats too: level, per-pass counters, verifier runs.
        assert stats["pipeline"]["level"] == "O2"
        assert stats["pipeline"]["verifier_runs"] >= 1
        pass_names = [p["name"] for p in stats["pipeline"]["passes"]]
        assert "fold_batchnorm" in pass_names

    def test_unknown_model_is_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_server.url, "/v1/models/ghost/predict", {"inputs": [1.0]})
        assert err.value.code == 404

    def test_bad_shape_is_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                http_server.url,
                "/v1/models/resnet_s/predict",
                {"inputs": [[1.0, 2.0]]},
            )
        assert err.value.code == 400

    def test_missing_inputs_is_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_server.url, "/v1/models/resnet_s/predict", {"x": 1})
        assert err.value.code == 400


# ---------------------------------------------------------------------------
# Overload and failure status-code contract
# ---------------------------------------------------------------------------
class TestHttpOverloadContract:
    """429/503/504 + Retry-After mapping under injected faults and overload."""

    @staticmethod
    def _error_response(fn):
        """Run ``fn``, return the HTTPError it must raise (code/headers/body)."""
        with pytest.raises(urllib.error.HTTPError) as err:
            fn()
        body = json.loads(err.value.read())
        return err.value.code, err.value.headers, body

    def test_worker_crash_is_503_with_retry_after(self, repo, served):
        from repro.serve import FaultPlan, serve_http

        server = InferenceServer(
            repo, retry=None, breaker=None,
            fault_plan=FaultPlan.crash_on_batch(1, worker=0),
        )
        front = serve_http(server, port=0)
        try:
            code, headers, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist()},
                )
            )
            assert code == 503
            assert int(headers["Retry-After"]) >= 1
            assert body["reason"] == "worker_failure"
        finally:
            front.close()
            server.close()

    def test_priority_shed_is_429_and_hard_shed_503(self, repo, served):
        from repro.serve import AdmissionPolicy, FaultPlan, serve_http

        # A slow worker holds the backlog at 2 while the probes arrive:
        # the "bulk" class (bound 2 of 4) is shed with 429, and once the
        # backlog reaches the hard bound a default request sheds with 503.
        server = InferenceServer(
            repo,
            policy=BatchPolicy(max_batch_size=1, max_delay_ms=0.0),
            admission=AdmissionPolicy(
                max_queue_depth=4, priority_thresholds={"bulk": 0.5}
            ),
            fault_plan=FaultPlan.slow_worker(1500.0, times=None),
        )
        front = serve_http(server, port=0)
        try:
            backlog = [
                server.predict_async("resnet_s", served.batch[i]) for i in range(2)
            ]
            code, headers, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[2].tolist(), "priority": "bulk"},
                )
            )
            assert code == 429
            assert body["reason"] == "priority"
            assert int(headers["Retry-After"]) >= 1
            backlog += [
                server.predict_async("resnet_s", served.batch[i]) for i in range(2, 4)
            ]
            code, _, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[4].tolist()},
                )
            )
            assert code == 503
            assert body["reason"] == "queue_depth"
            stats = _get(front.url, "/v1/models/resnet_s/stats")["resilience"]
            assert stats["shed"] == {"priority": 1, "queue_depth": 1}
            for future in backlog:  # the admitted requests still resolve
                future.result(timeout=120.0)
        finally:
            front.close()
            server.close()

    def test_deadline_expiry_is_504(self, repo, served):
        from repro.serve import FaultPlan, serve_http

        server = InferenceServer(
            repo, fault_plan=FaultPlan.slow_worker(1000.0, times=None)
        )
        front = serve_http(server, port=0)
        try:
            code, _, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist(), "timeout_ms": 100},
                )
            )
            assert code == 504
            assert body["reason"] == "deadline_exceeded"
        finally:
            front.close()
            server.close()

    def test_timeout_ms_header_variant_and_validation(self, repo, served):
        from repro.serve import serve_http

        server = InferenceServer(repo)
        front = serve_http(server, port=0)
        try:
            request = urllib.request.Request(
                front.url + "/v1/models/resnet_s/predict",
                data=json.dumps({"inputs": served.batch[0].tolist()}).encode(),
                headers={"X-Timeout-Ms": "60000"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=120.0) as response:
                assert json.loads(response.read())["version"] == 1
            code, _, _ = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist(), "timeout_ms": -5},
                )
            )
            assert code == 400
        finally:
            front.close()
            server.close()

    def test_closed_server_is_503_with_retry_after(self, repo, served):
        from repro.serve import serve_http

        server = InferenceServer(repo)
        front = serve_http(server, port=0)
        try:
            server.close()
            code, headers, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist()},
                )
            )
            assert code == 503
            assert body["reason"] == "server_closed"
            assert int(headers["Retry-After"]) >= 1
        finally:
            front.close()
            server.close()

    def test_open_breaker_degrades_healthz_to_503(self, repo, served):
        from repro.serve import BreakerPolicy, FaultPlan, FaultSpec, serve_http
        from repro.serve import RetryPolicy

        server = InferenceServer(
            repo,
            retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout_s=60.0),
            fault_plan=FaultPlan((FaultSpec("crash", times=None),)),
        )
        front = serve_http(server, port=0)
        try:
            code, _, _ = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist()},
                )
            )
            assert code == 503  # the crash opened the breaker
            code, headers, body = self._error_response(
                lambda: _get(front.url, "/healthz")
            )
            assert code == 503
            assert body["status"] == "degraded"
            assert body["models"]["resnet_s/1"]["breaker"] == "open"
            assert int(headers["Retry-After"]) >= 1
            # The next predict is shed at admission, before queueing.
            code, _, body = self._error_response(
                lambda: _post(
                    front.url, "/v1/models/resnet_s/predict",
                    {"inputs": served.batch[0].tolist()},
                )
            )
            assert code == 503
            assert body["reason"] == "circuit_open"
        finally:
            front.close()
            server.close()

    def test_server_wide_stats_route(self, http_server, served):
        _post(
            http_server.url, "/v1/models/resnet_s/predict",
            {"inputs": served.batch[0].tolist()},
        )
        snapshot = _get(http_server.url, "/stats")
        assert "resnet_s/1" in snapshot
        model = snapshot["resnet_s/1"]
        assert model["requests"]["completed"] >= 1
        assert model["resilience"]["breaker"]["state"] == "closed"
        assert model["queue"]["capacity"] >= 1
