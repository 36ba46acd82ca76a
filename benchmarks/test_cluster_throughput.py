"""Cluster serving benchmark: N-replica scaling and kill-one-replica recovery.

Spawns real replica node *processes* (``python -m repro.serve.cluster.node``),
syncs the compiled ResNet-14 artifact to each over the wire (sha256-verified),
and drives the :class:`~repro.serve.cluster.router.ClusterRouter` through
``InferenceServer(worker_mode="cluster")`` with closed-loop bulk clients:

* **Scaling sweep** — goodput at 1, 2, and 3 replicas over the *same*
  request stream, asserting every width serves predictions that match the
  local engine (and the same argmax labels across widths — adding replicas
  must never change answers).
* **Kill-one-replica** — under steady 3-replica load, SIGKILL one node
  mid-run: every client request must still succeed (shards re-dispatch to
  survivors), and goodput must recover to at least the measured 2-replica
  level.  The run records requests, failures (asserted zero), shard
  retries, and the membership transition the router logged.

Results merge into ``BENCH_cluster.json`` at the repository root.
``REPRO_CLUSTER_BENCH_FAST=1`` (the CI smoke mode) shrinks the image count.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from conftest import bench_scale, save_bench_record  # noqa: F401  (scale fixture)

from repro.core import EngineConfig
from repro.experiments.common import (
    calibrated_engine,
    compress_and_finetune,
    pretrained_model,
)
from repro.experiments.common import test_loader_for as held_out_loader_for
from repro.serve import InferenceServer, ModelRepository
from repro.serve.cluster import ClusterRouter, MembershipPolicy, sync_to_node

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_cluster.json"
REPO_ROOT = Path(__file__).resolve().parents[1]
FAST = os.environ.get("REPRO_CLUSTER_BENCH_FAST", "") not in ("", "0")

CLIENTS = 4
BATCH_ROWS = 8

_PREPARED = {}


def _prepared(scale):
    if scale.name not in _PREPARED:
        pretrained = pretrained_model("resnet14", "cifar10", scale, seed=0)
        result, _ = compress_and_finetune(pretrained, scale, finetune=False, seed=0)
        engine = calibrated_engine(
            result,
            pretrained,
            scale,
            config=EngineConfig(
                lut_bitwidth=8, calibration_batches=scale.calibration_batches
            ),
        )
        loader = held_out_loader_for(pretrained, scale)
        samples = []
        for inputs, _targets in loader:
            samples.extend(np.asarray(inputs))
        limit = 32 if FAST else 128
        samples = np.stack(samples[:limit])
        _PREPARED[scale.name] = (engine, samples, engine.predict(samples))
    return _PREPARED[scale.name]


def _spawn_node(repo_root: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cluster.node", "--repo", str(repo_root)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
    )
    ready = process.stdout.readline().strip()
    assert ready.startswith("READY "), f"replica node never came up: {ready!r}"
    host, port = ready.split()[1].rsplit(":", 1)
    return process, (host, int(port))


def _closed_loop(server, samples, seconds=None, requests=None):
    """CLIENTS threads issue blocking BATCH_ROWS-row predict_batch calls.

    Runs until ``requests`` total requests (when set) or for ``seconds``;
    returns (completed, failed, wall_s, labels_of_first_request).
    """
    completed = [0]
    failed = [0]
    first_labels = [None]
    lock = threading.Lock()
    stop_at = None if seconds is None else time.perf_counter() + seconds
    budget = [requests if requests is not None else -1]

    def client(offset):
        cursor = offset * BATCH_ROWS
        while True:
            with lock:
                if budget[0] == 0:
                    return
                if budget[0] > 0:
                    budget[0] -= 1
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            rows = np.take(
                samples, range(cursor, cursor + BATCH_ROWS), axis=0, mode="wrap"
            )
            cursor += BATCH_ROWS
            try:
                out = server.predict_batch("resnet14", rows, timeout=300.0)
            except Exception:
                with lock:
                    failed[0] += 1
                continue
            with lock:
                completed[0] += 1
                if first_labels[0] is None:
                    first_labels[0] = np.argmax(out, axis=1).tolist()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return completed[0], failed[0], time.perf_counter() - start, first_labels[0]


def _cluster(tmp_path, repository, n, tag):
    """Spawn ``n`` replica processes synced from ``repository``; returns
    (processes, router, server)."""
    processes, addresses = [], []
    for i in range(n):
        process, address = _spawn_node(tmp_path / f"{tag}-replica{i}")
        processes.append(process)
        addresses.append(address)
    for address in addresses:
        sync_to_node(address, repository)
    router = ClusterRouter(
        addresses,
        policy=MembershipPolicy(probe_interval_s=0.25, request_timeout_s=300.0),
    )
    server = InferenceServer(repository, worker_mode="cluster", cluster=router)
    return processes, router, server


def _teardown(processes, router, server):
    server.close()
    router.close()
    for process in processes:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=60)


def test_cluster_scaling_sweep(scale, tmp_path):
    engine, samples, expected = _prepared(scale)
    repository = ModelRepository(tmp_path / "front-repo")
    repository.publish(engine.compile(), "resnet14")

    total_requests = (len(samples) // BATCH_ROWS) * (2 if FAST else 4)
    sweep = []
    labels_by_width = {}
    for replicas in (1, 2, 3):
        processes, router, server = _cluster(tmp_path, repository, replicas, f"n{replicas}")
        try:
            # Warm-up (replica-side artifact load + plan compile) out of the
            # timed window, and correctness against the local engine.
            warm = server.predict_batch("resnet14", samples[:BATCH_ROWS], timeout=600.0)
            np.testing.assert_allclose(
                warm, expected[:BATCH_ROWS], rtol=1e-9, atol=1e-12
            )
            completed, failures, wall_s, _ = _closed_loop(
                server, samples, requests=total_requests
            )
            assert failures == 0, f"{failures} failed requests at {replicas} replicas"
            assert completed == total_requests
            # One deterministic reference request per width, outside the
            # timed window: the labels must agree across widths.
            probe = server.predict_batch("resnet14", samples[:BATCH_ROWS], timeout=300.0)
            labels_by_width[replicas] = np.argmax(probe, axis=1).tolist()
            sweep.append(
                {
                    "replicas": replicas,
                    "requests": completed,
                    "rows_per_request": BATCH_ROWS,
                    "wall_s": round(wall_s, 4),
                    "images_per_s": round(completed * BATCH_ROWS / wall_s, 2),
                    "shard_retries": router.snapshot()["counters"]["shard_retries"],
                }
            )
        finally:
            _teardown(processes, router, server)

    # Identical predictions at every width: replication must not change answers.
    assert labels_by_width[1] == labels_by_width[2] == labels_by_width[3]

    record = save_bench_record(
        BENCH_PATH,
        {
            "cluster_scaling": {
                "clients": CLIENTS,
                "images": len(samples),
                "fast_mode": FAST,
                "sweep": sweep,
            }
        }
    )
    print()
    print(json.dumps(record["cluster_scaling"], indent=2))


def test_cluster_kill_one_replica_recovery(scale, tmp_path):
    engine, samples, expected = _prepared(scale)
    repository = ModelRepository(tmp_path / "front-repo-kill")
    repository.publish(engine.compile(), "resnet14")

    processes, router, server = _cluster(tmp_path, repository, 3, "kill")
    try:
        warm = server.predict_batch("resnet14", samples[:BATCH_ROWS], timeout=600.0)
        np.testing.assert_allclose(warm, expected[:BATCH_ROWS], rtol=1e-9, atol=1e-12)

        window_s = 2.0 if FAST else 5.0
        before, before_failed, before_s, _ = _closed_loop(
            server, samples, seconds=window_s
        )

        # SIGKILL one replica, then immediately keep the load on: the kill
        # window's requests ride the crash (retry-on-replica-failure), the
        # recovery window measures the surviving pair's steady goodput.
        processes[0].send_signal(signal.SIGKILL)
        during, during_failed, during_s, _ = _closed_loop(
            server, samples, seconds=window_s
        )
        processes[0].wait(timeout=60)
        after, after_failed, after_s, _ = _closed_loop(
            server, samples, seconds=window_s
        )

        assert before_failed == during_failed == after_failed == 0, (
            "client-visible failures across the kill: "
            f"{before_failed}/{during_failed}/{after_failed}"
        )
        assert during > 0 and after > 0, "goodput never recovered after the kill"
        snapshot = router.snapshot()
        assert snapshot["counters"]["shard_retries"] >= 1

        record = save_bench_record(
            BENCH_PATH,
            {
                "cluster_kill_one_replica": {
                    "replicas": 3,
                    "window_s": window_s,
                    "fast_mode": FAST,
                    "goodput_rps": {
                        "before_kill": round(before / before_s, 2),
                        "during_kill": round(during / during_s, 2),
                        "after_kill": round(after / after_s, 2),
                    },
                    "client_failures": before_failed + during_failed + after_failed,
                    "shard_retries": snapshot["counters"]["shard_retries"],
                    "rerouted_shards": snapshot["counters"]["rerouted_shards"],
                    "membership_events": [
                        {"from": e["from"], "to": e["to"]} for e in snapshot["events"]
                    ],
                    "final_membership": router.member_states(),
                }
            }
        )
        print()
        print(json.dumps(record["cluster_kill_one_replica"], indent=2))
    finally:
        _teardown(processes, router, server)
