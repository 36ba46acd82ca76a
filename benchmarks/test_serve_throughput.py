"""Serving throughput benchmark: dynamic batching vs. single-sample execution.

Drives ``repro.serve.InferenceServer`` on the ResNet-14 / CIFAR-10 preset
with concurrent closed-loop clients issuing single-sample ``predict`` calls
— the request shape of an online model server — and sweeps the offered load
across dynamic-batching policies (and, with enough cores, the process worker
pool), recording per-policy p50/p99 latency and images/s next to two
reference points:

* **sequential** — batch-1 ``Executor.run`` calls in a loop (what serving
  single requests without a batcher costs);
* **executor_batch** — raw batched ``Executor.evaluate`` over the test set
  (the offline upper bound a single executor can reach).

The asserted speedup over sequential execution is hardware-aware, because
the two levers scale differently:

* **batch coalescing** amortizes per-op dispatch and bit-encode setup — it
  always helps, but is bounded by ``executor_batch / sequential`` (~1.2× for
  this kernel, whose per-pixel gather work is batch-size-independent);
* **process workers** multiply throughput by the core count — on a ≥4-core
  machine the combination clears the headline **3×** target.

So the default target is 3.0 with ≥4 cores, else 1.0 (the batcher must at
least match sequential throughput while it is adding batching value —
``mean_batch`` and the latency distribution are recorded to show it).
``REPRO_SERVE_SPEEDUP_TARGET`` overrides either default.  The full sweep is
written to ``BENCH_serve.json`` at the repository root.
``REPRO_SERVE_BENCH_FAST=1`` (the CI smoke mode) shrinks the image count
and the policy sweep.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from conftest import bench_scale, save_bench_record  # noqa: F401  (scale fixture)

from repro.core import EngineConfig
from repro.experiments.common import calibrated_engine, compress_and_finetune, pretrained_model
from repro.experiments.common import test_loader_for as held_out_loader_for
from repro.serve import (
    AdmissionPolicy,
    AdmissionRejected,
    AutoscalePolicy,
    BatchPolicy,
    DeadlineExceeded,
    FaultPlan,
    InferenceServer,
    ModelRepository,
    QueueFull,
    RetryPolicy,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
CPUS = os.cpu_count() or 1
SPEEDUP_TARGET = float(
    os.environ.get("REPRO_SERVE_SPEEDUP_TARGET", "3.0" if CPUS >= 4 else "1.0")
)
FAST = os.environ.get("REPRO_SERVE_BENCH_FAST", "") not in ("", "0")

CLIENTS = 8

# The compiled engine and held-out samples, cached per scale so the
# throughput and overload benchmarks share one compile.
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
        samples, targets = [], []
        for inputs, batch_targets in loader:
            samples.extend(np.asarray(inputs))
            targets.extend(np.asarray(batch_targets))
        if FAST:
            samples, targets = samples[:64], targets[:64]
        _PREPARED[scale.name] = (engine, np.stack(samples), np.asarray(targets))
    return _PREPARED[scale.name]


def _policy_sweep():
    """(label, policy, worker_mode, workers) rows of the offered-load sweep."""
    rows = [
        ("no_coalescing", BatchPolicy(max_batch_size=1, max_delay_ms=0.0), "thread", 1),
        ("batch8_2ms", BatchPolicy(max_batch_size=8, max_delay_ms=2.0), "thread", 1),
        ("batch16_3ms", BatchPolicy(max_batch_size=16, max_delay_ms=3.0), "thread", 1),
    ]
    if CPUS >= 2:
        workers = min(CPUS, 4)
        rows.append(
            (
                f"batch16_3ms_{workers}procs",
                BatchPolicy(max_batch_size=16, max_delay_ms=3.0),
                "process",
                workers,
            )
        )
    if FAST:
        # CI smoke: keep one coalescing policy per worker mode, so the
        # process-worker path (spawn, artifact load, IPC) stays exercised.
        keep = {"batch16_3ms"} | {row[0] for row in rows if row[2] == "process"}
        rows = [row for row in rows if row[0] in keep]
    return rows


def _closed_loop_clients(server, name, samples, num_clients):
    """``num_clients`` threads issue blocking single-sample predicts; returns
    (labels, wall_seconds)."""
    labels = np.empty(len(samples), dtype=np.int64)
    cursor = iter(range(len(samples)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            labels[index] = int(np.argmax(server.predict(name, samples[index], timeout=300.0)))

    threads = [threading.Thread(target=client, daemon=True) for _ in range(num_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return labels, time.perf_counter() - start


def test_serve_throughput(scale, tmp_path):
    engine, samples, targets = _prepared(scale)
    images = len(samples)

    repository = ModelRepository(tmp_path / "repo")
    repository.publish(engine.compile(), "resnet14")

    # -- reference points -----------------------------------------------------
    executor = engine._executor()
    executor.run(samples[:2])  # warm-up: compile the kernel plans
    start = time.perf_counter()
    sequential_labels = np.array(
        [int(np.argmax(executor.run(sample[None]))) for sample in samples]
    )
    sequential_s = time.perf_counter() - start
    sequential_acc = float((sequential_labels == targets).mean())

    start = time.perf_counter()
    batch_labels = np.argmax(executor.run(samples), axis=1)
    executor_batch_s = time.perf_counter() - start
    executor_batch_acc = float((batch_labels == targets).mean())

    # -- offered-load sweep over batching policies ------------------------------
    sweep = []
    for label, policy, worker_mode, workers in _policy_sweep():
        server = InferenceServer(
            repository, policy=policy, workers=workers, worker_mode=worker_mode
        )
        try:
            # Warm-up outside the timed window: builds the pipeline and
            # compiles each worker's plans.
            warm_count = max(2 * policy.max_batch_size, 2 * workers)
            warm = [
                server.predict_async("resnet14", samples[i % images])
                for i in range(warm_count)
            ]
            for future in warm:
                future.result(timeout=600.0)
            labels, seconds = _closed_loop_clients(server, "resnet14", samples, CLIENTS)
            stats = server.stats("resnet14")
        finally:
            server.close()
        sweep.append(
            {
                "policy": label,
                "max_batch_size": policy.max_batch_size,
                "max_delay_ms": policy.max_delay_ms,
                "worker_mode": worker_mode,
                "workers": workers,
                "clients": CLIENTS,
                "images_per_second": round(images / seconds, 2),
                "p50_ms": stats["latency"]["p50_ms"],
                "p99_ms": stats["latency"]["p99_ms"],
                "mean_batch": stats["batches"]["mean_size"],
                "max_queue_depth": stats["queue"]["max_depth"],
                "accuracy": round(float((labels == targets).mean()), 4),
                "label_flips_vs_sequential": int((labels != sequential_labels).sum()),
            }
        )

    best = max(sweep, key=lambda row: row["images_per_second"])
    speedup = best["images_per_second"] / (images / sequential_s)
    record = {
        "benchmark": "serve_throughput",
        "network": "resnet14",
        "dataset": "cifar10",
        "scale": scale.name,
        "fast_mode": FAST,
        "cpus": CPUS,
        "images": images,
        "sequential_images_per_second": round(images / sequential_s, 2),
        "sequential_accuracy": round(sequential_acc, 4),
        "executor_batch_images_per_second": round(images / executor_batch_s, 2),
        "executor_batch_accuracy": round(executor_batch_acc, 4),
        "policies": sweep,
        "best_policy": best["policy"],
        "speedup_vs_sequential": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
    }
    record = save_bench_record(BENCH_PATH, record)
    print()
    print(json.dumps(record, indent=2))

    # Equal accuracy: micro-batching is per-sample exact for every compiled
    # op; only the float stem conv's BLAS reduction order varies with batch
    # size, so at most a prediction on a rounding boundary may flip.
    for row in sweep:
        assert abs(row["accuracy"] - sequential_acc) <= 1.0 / images + 1e-12, (
            f"policy {row['policy']} changed accuracy: "
            f"{row['accuracy']} vs sequential {sequential_acc}"
        )
    # The batcher must actually coalesce under concurrent load ...
    assert any(row["mean_batch"] > 1.5 for row in sweep), (
        "no policy formed real batches under 8 concurrent clients"
    )
    # ... and clear the hardware-aware throughput target.
    assert speedup >= SPEEDUP_TARGET, (
        f"dynamic batcher sustains only {speedup:.2f}x the sequential "
        f"single-sample throughput (target {SPEEDUP_TARGET}x on {CPUS} cpus)"
    )


# ---------------------------------------------------------------------------
# Overload sweep: goodput / shed rate / p99 across offered load
# ---------------------------------------------------------------------------
OVERLOAD_FACTORS = (0.5, 1.0, 2.0, 4.0)
OVERLOAD_WINDOW_S = 1.5 if FAST else 3.0
OVERLOAD_POLICY = BatchPolicy(max_batch_size=16, max_delay_ms=3.0)


def _track_settle(future):
    """Stamp the moment ``future`` settles, from a done-callback.

    The open-loop drivers read their futures only after the whole offered
    window, so a latency taken at read time would measure the window, not
    the server.  Returns a getter for the stamp; it waits for the callback,
    which can run just after ``future.result()`` has already returned."""
    stamped = threading.Event()
    settled = []

    def stamp(_):
        settled.append(time.perf_counter())
        stamped.set()

    future.add_done_callback(stamp)

    def settled_at():
        stamped.wait()
        return settled[0]

    return settled_at


def _open_loop(server, name, samples, rate_rps, duration_s, timeout_ms):
    """Offer ``rate_rps`` of single-sample requests for ``duration_s``
    regardless of completions (open loop: arrivals do not slow down when the
    server does), then settle every future.  Returns the outcome counts,
    completion latencies (submit to settle), and (sample index, predicted
    label) pairs."""
    interval = 1.0 / rate_rps
    total = max(1, int(rate_rps * duration_s))
    outcomes = {"offered": total, "ok": 0, "shed": 0, "deadline": 0, "error": 0}
    inflight = []
    start = time.perf_counter()
    for i in range(total):
        due = start + i * interval
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        index = i % len(samples)
        submitted = time.perf_counter()
        try:
            future = server.predict_async(
                name, samples[index], timeout_ms=timeout_ms
            )
        except (AdmissionRejected, QueueFull):
            outcomes["shed"] += 1
            continue
        except DeadlineExceeded:
            outcomes["deadline"] += 1
            continue
        inflight.append((index, submitted, future, _track_settle(future)))
    latencies, labels = [], []
    for index, submitted, future, settled_at in inflight:
        try:
            output = future.result(timeout=300.0)
        except DeadlineExceeded:
            outcomes["deadline"] += 1
            continue
        except Exception:
            outcomes["error"] += 1
            continue
        outcomes["ok"] += 1
        latencies.append(settled_at() - submitted)
        labels.append((index, int(np.argmax(output))))
    wall = time.perf_counter() - start
    return outcomes, latencies, labels, wall


def _overload_row(factor, rate, outcomes, latencies, wall):
    offered = outcomes["offered"]
    percentiles = (
        np.percentile(np.asarray(latencies) * 1e3, [50, 99]) if latencies else (0.0, 0.0)
    )
    return {
        "offered_factor": factor,
        "offered_rps": round(rate, 2),
        "offered": offered,
        "goodput_rps": round(outcomes["ok"] / wall, 2),
        "completed": outcomes["ok"],
        "shed": outcomes["shed"],
        "shed_rate": round(outcomes["shed"] / offered, 4),
        "deadline_expired": outcomes["deadline"],
        "errors": outcomes["error"],
        "p50_ms": round(float(percentiles[0]), 3),
        "p99_ms": round(float(percentiles[1]), 3),
    }


def test_serve_overload_sweep(scale, tmp_path):
    """Offered load at 0.5x-4x capacity: goodput must plateau (shedding,
    not collapsing), and an injected worker crash must degrade gracefully —
    retried batches recover and predictions match the never-injected path."""
    engine, samples, _ = _prepared(scale)
    repository = ModelRepository(tmp_path / "repo")
    repository.publish(engine.compile(), "resnet14")
    admission = AdmissionPolicy(max_queue_depth=4 * OVERLOAD_POLICY.max_batch_size)
    deadline_ms = 5_000.0

    def build_server(fault_plan=None):
        return InferenceServer(
            repository,
            policy=OVERLOAD_POLICY,
            admission=admission,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.02, seed=0),
            fault_plan=fault_plan,
        )

    # -- capacity: a short closed-loop burst at the sweep's own policy ----------
    server = build_server()
    try:
        warm = [server.predict_async("resnet14", samples[i % len(samples)])
                for i in range(2 * OVERLOAD_POLICY.max_batch_size)]
        for future in warm:
            future.result(timeout=600.0)
        probe = samples[: min(len(samples), 96)]
        _, seconds = _closed_loop_clients(server, "resnet14", probe, CLIENTS)
        capacity_rps = len(probe) / seconds
    finally:
        server.close()

    # -- offered-load sweep ------------------------------------------------------
    sweep = []
    clean_labels = {}
    for factor in OVERLOAD_FACTORS:
        server = build_server()
        try:
            warm = [server.predict_async("resnet14", samples[i % len(samples)])
                    for i in range(OVERLOAD_POLICY.max_batch_size)]
            for future in warm:
                future.result(timeout=600.0)
            outcomes, latencies, labels, wall = _open_loop(
                server, "resnet14", samples, capacity_rps * factor,
                OVERLOAD_WINDOW_S, deadline_ms,
            )
            snap = server.stats("resnet14")["resilience"]
        finally:
            server.close()
        if factor == 1.0:
            clean_labels = dict(labels)
        row = _overload_row(factor, capacity_rps * factor, outcomes, latencies, wall)
        row["stats_shed"] = snap["shed"]
        sweep.append(row)

    # -- crash injection at 1x: graceful degradation and identical answers ------
    crash_plan = FaultPlan.crash_on_batch(2, worker=0)
    server = build_server(fault_plan=crash_plan)
    try:
        outcomes, latencies, labels, wall = _open_loop(
            server, "resnet14", samples, capacity_rps, OVERLOAD_WINDOW_S, deadline_ms
        )
        snap = server.stats("resnet14")["resilience"]
    finally:
        server.close()
    crash_row = _overload_row(1.0, capacity_rps, outcomes, latencies, wall)
    crash_row["retries"] = snap["retries"]
    crash_row["breaker_transitions"] = snap["breaker_transitions"]

    record = save_bench_record(
        BENCH_PATH,
        {
            "overload": {
                "capacity_rps": round(capacity_rps, 2),
                "deadline_ms": deadline_ms,
                "window_s": OVERLOAD_WINDOW_S,
                "admission_max_queue_depth": admission.max_queue_depth,
                "sweep": sweep,
                "crash_injected_1x": crash_row,
            }
        }
    )
    print()
    print(json.dumps(record["overload"], indent=2))

    by_factor = {row["offered_factor"]: row for row in sweep}
    # Underload is served nearly loss-free.
    assert by_factor[0.5]["shed_rate"] <= 0.05, "shedding while underloaded"
    assert by_factor[0.5]["errors"] == 0 and by_factor[1.0]["errors"] == 0
    # Saturation is graceful: past capacity the server sheds instead of
    # collapsing — goodput holds a plateau within noise of the 1x point.
    for factor in (2.0, 4.0):
        row = by_factor[factor]
        assert row["goodput_rps"] >= 0.5 * by_factor[1.0]["goodput_rps"], (
            f"goodput collapsed under {factor}x offered load: "
            f"{row['goodput_rps']} vs {by_factor[1.0]['goodput_rps']} at 1x"
        )
    # The overload is absorbed by explicit, bounded behaviour: every offered
    # request is accounted for — nothing vanished into a hung future.
    for row in sweep + [crash_row]:
        accounted = (
            row["completed"] + row["shed"] + row["deadline_expired"] + row["errors"]
        )
        assert accounted == row["offered"], (
            f"{row['offered_factor']}x: {accounted} settled of {row['offered']} offered"
        )
    # 4x offered load sheds a visible fraction (the plateau is real).
    assert by_factor[4.0]["shed_rate"] > 0.05, "4x overload shed nothing"
    # The injected crash was retried, recovered within the window, and the
    # answers are bit-identical to the never-injected path.
    assert crash_row["retries"] >= 1, "the injected crash was never retried"
    assert crash_row["errors"] == 0, "crash retry did not recover every batch"
    assert crash_row["completed"] > 0
    mismatches = [
        index for index, label in labels
        if index in clean_labels and clean_labels[index] != label
    ]
    assert not mismatches, (
        f"crash-injected predictions diverged from the clean path: {mismatches[:5]}"
    )


# ---------------------------------------------------------------------------
# Autoscale sweep: static pool vs. the control plane under the same load
# ---------------------------------------------------------------------------
AUTOSCALE_FACTORS = (1.0, 2.0, 4.0)


def _open_loop_horizon(server, name, samples, rate_rps, duration_s, horizon_s):
    """Open-loop arrivals for ``duration_s``, goodput judged over a fixed
    ``horizon_s`` shared by every configuration: completions are timestamped
    by done-callbacks, and only those inside the horizon count.  A server
    that turned a request away cannot earn it back by finishing its shorter
    backlog early and idling — which is exactly the spike-absorption value
    an autoscaled admission bound buys.  Every future still settles, so the
    offered/shed/ok accounting stays exact."""
    interval = 1.0 / rate_rps
    total = max(1, int(rate_rps * duration_s))
    outcomes = {"offered": total, "ok": 0, "shed": 0, "deadline": 0, "error": 0}
    inflight = []
    start = time.perf_counter()
    for i in range(total):
        due = start + i * interval
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        submitted = time.perf_counter()
        try:
            future = server.predict_async(name, samples[i % len(samples)])
        except (AdmissionRejected, QueueFull):
            outcomes["shed"] += 1
            continue
        inflight.append((submitted, future, _track_settle(future)))
    latencies = []
    completed_in_horizon = 0
    for submitted, future, settled_at in inflight:
        try:
            future.result(timeout=300.0)
        except Exception:
            outcomes["error"] += 1
            continue
        outcomes["ok"] += 1
        settled = settled_at()
        latencies.append(settled - submitted)
        completed_in_horizon += settled - start <= horizon_s
    return outcomes, latencies, completed_in_horizon


def test_serve_autoscale_sweep(scale, tmp_path):
    """The same offered-load protocol as the overload sweep, run twice: a
    static single-worker pool vs. an autoscaled server (same admission
    policy, same batching).  The autoscaler reacts to the measured backlog
    by growing the pool — and, with ``scale_queue_bound``, its admission
    bound — so at 4x offered load it sheds less, and over a fixed horizon
    (arrival window + enough drain for the *scaled* queue) completes more:
    its goodput must meet or beat the static pool on the same container.
    Every scaler decision is recorded into ``BENCH_serve.json`` for audit."""
    engine, samples, _ = _prepared(scale)
    repository = ModelRepository(tmp_path / "repo")
    repository.publish(engine.compile(), "resnet14")
    admission = AdmissionPolicy(max_queue_depth=4 * OVERLOAD_POLICY.max_batch_size)
    max_workers = max(2, min(CPUS, 4))
    autoscale = AutoscalePolicy(
        min_workers=1,
        max_workers=max_workers,
        tick_interval_s=0.05,
        backlog_high_per_worker=8.0,
        backlog_low_per_worker=1.0,
        up_cooldown_ticks=2,
        down_cooldown_ticks=4,
        down_hysteresis_ticks=4,
    )

    def build_server(autoscale_policy):
        return InferenceServer(
            repository,
            policy=OVERLOAD_POLICY,
            admission=admission,
            autoscale=autoscale_policy,
        )

    # -- capacity: the static pool's closed-loop burst rate ---------------------
    server = build_server(None)
    try:
        warm = [server.predict_async("resnet14", samples[i % len(samples)])
                for i in range(2 * OVERLOAD_POLICY.max_batch_size)]
        for future in warm:
            future.result(timeout=600.0)
        probe = samples[: min(len(samples), 96)]
        _, seconds = _closed_loop_clients(server, "resnet14", probe, CLIENTS)
        capacity_rps = len(probe) / seconds
    finally:
        server.close()

    # The shared measurement horizon: the arrival window plus enough drain
    # time for the *deepest* queue any configuration can legally hold, so
    # neither mode's clock stops while it still has admitted work.
    horizon_s = OVERLOAD_WINDOW_S + 1.3 * (
        autoscale.max_workers * admission.max_queue_depth
    ) / capacity_rps

    # -- the sweep, static then autoscaled, same offered trace ------------------
    results = {}
    for mode, policy in (("static", None), ("autoscaled", autoscale)):
        rows = []
        for factor in AUTOSCALE_FACTORS:
            server = build_server(policy)
            try:
                warm = [server.predict_async("resnet14", samples[i % len(samples)])
                        for i in range(OVERLOAD_POLICY.max_batch_size)]
                for future in warm:
                    future.result(timeout=600.0)
                outcomes, latencies, in_horizon = _open_loop_horizon(
                    server, "resnet14", samples, capacity_rps * factor,
                    OVERLOAD_WINDOW_S, horizon_s,
                )
                stats = server.stats("resnet14")
                control = server.control_plane()
            finally:
                server.close()
            rate = capacity_rps * factor
            row = _overload_row(factor, rate, outcomes, latencies, horizon_s)
            row["goodput_rps"] = round(in_horizon / horizon_s, 2)
            row["completed_in_horizon"] = in_horizon
            row["workers_final"] = stats["workers"]
            row["queue_capacity_final"] = stats["queue"]["capacity"]
            if control.get("autoscaler"):
                snap = control["autoscaler"]
                row["scaler_decisions"] = snap["decisions"]
                row["scaler_ticks"] = snap["ticks"]
            rows.append(row)
        results[mode] = rows

    record = save_bench_record(
        BENCH_PATH,
        {
            "autoscale": {
                "capacity_rps": round(capacity_rps, 2),
                "window_s": OVERLOAD_WINDOW_S,
                "horizon_s": round(horizon_s, 2),
                "admission_max_queue_depth": admission.max_queue_depth,
                "policy": {
                    "min_workers": autoscale.min_workers,
                    "max_workers": autoscale.max_workers,
                    "tick_interval_s": autoscale.tick_interval_s,
                    "backlog_high_per_worker": autoscale.backlog_high_per_worker,
                    "backlog_low_per_worker": autoscale.backlog_low_per_worker,
                    "scale_queue_bound": autoscale.scale_queue_bound,
                },
                "static": results["static"],
                "autoscaled": results["autoscaled"],
            }
        }
    )
    print()
    print(json.dumps(record["autoscale"], indent=2))

    static_by = {row["offered_factor"]: row for row in results["static"]}
    auto_by = {row["offered_factor"]: row for row in results["autoscaled"]}
    # Nothing vanished: every offered request settled one way or another.
    for row in results["static"] + results["autoscaled"]:
        accounted = (
            row["completed"] + row["shed"] + row["deadline_expired"] + row["errors"]
        )
        assert accounted == row["offered"], (
            f"{row['offered_factor']}x: {accounted} settled of {row['offered']}"
        )
    # The scaler actually reacted to the 4x backlog: scale-ups were decided,
    # the pool grew past one worker, and the decisions are in the record.
    decisions = auto_by[4.0].get("scaler_decisions", [])
    assert any(d["action"] == "scale_up" for d in decisions), (
        f"no scale-up decided under 4x offered load: {decisions}"
    )
    assert auto_by[4.0]["workers_final"] > 1
    # Scaling translated into admission capacity: fewer sheds than static...
    assert auto_by[4.0]["shed_rate"] < static_by[4.0]["shed_rate"], (
        "autoscaled server shed no less than the static pool at 4x"
    )
    assert auto_by[4.0]["completed"] > static_by[4.0]["completed"]
    # ... and at least the static pool's goodput on this same container
    # (strictly more on multi-core machines, where the grown pool adds
    # real service rate on top of the deeper admission bound).
    assert auto_by[4.0]["goodput_rps"] >= static_by[4.0]["goodput_rps"], (
        f"autoscaled goodput {auto_by[4.0]['goodput_rps']} rps under 4x "
        f"offered load lost to the static pool's {static_by[4.0]['goodput_rps']}"
    )


def test_serve_throughput_scale_fixture(scale):
    """The benchmark honours REPRO_BENCH_SCALE like every other benchmark."""
    assert scale.name == bench_scale().name
