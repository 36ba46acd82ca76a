"""Throughput benchmark: the pipeline's optimization levels, O0..O4.

Measures end-to-end ``Executor.evaluate`` on the ResNet-14 / CIFAR-10 preset
at every pipeline optimization level — ``O0`` (reference lowering), ``O1``
(graph passes), ``O2`` (+fusion/arena memory plan), ``O4`` (+native codegen
backend: the planned schedule compiled to C and run via ctypes).  Asserts:

* every level produces identical predictions (same accuracy, and O1 and O2
  are bitwise identical at the shared heuristic tile),
* the pipeline's IR verifier was exercised for every compiled level (the
  fast CI smoke fails if a compile path stops verifying),
* on machines with ≥ 2 CPUs, sharding a large batch across the arena pool
  beats the single-shard plan,
* when the host can build it (otherwise O4 falls back to the plan backend
  and these are skipped): the native backend is bitwise identical to the
  plan backend at a pinned tile, plans the *same* arena (byte parity), and
  is at least as fast as ``O2``.

Results (one row per level, plus the O2 pipeline report) are written to
``BENCH_plan.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import bench_scale, save_bench_record

from repro.core import OPT_LEVELS, EngineConfig, Executor
from repro.experiments.common import calibrated_engine, compress_and_finetune, pretrained_model
from repro.experiments.common import test_loader_for as held_out_loader_for

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_plan.json"
# Overridable for noisy shared CI runners.
SHARD_TARGET = float(os.environ.get("REPRO_PLAN_SHARD_TARGET", "1.15"))
# O4 (native) vs O2 (plan): the hard floor is parity — the native backend
# must never lose to the schedule it compiled; the committed record's margin
# is well above it (the ISSUE target is 2x on this preset).
O4_TARGET = float(os.environ.get("REPRO_PLAN_O4_TARGET", "1.0"))
FAST = os.environ.get("REPRO_PLAN_BENCH_FAST", "") not in ("", "0")


def _interleaved_best(executors, loader, rounds):
    """Interleaved best-of-N evaluate timing so drift hits every side."""
    accuracies = {}
    best = {name: float("inf") for name in executors}
    for name, executor in executors.items():
        accuracies[name] = executor.evaluate(loader)  # warm-up + accuracy
    for _ in range(rounds):
        for name, executor in executors.items():
            start = time.perf_counter()
            executor.evaluate(loader)
            best[name] = min(best[name], time.perf_counter() - start)
    return accuracies, best


def test_plan_throughput(scale):
    pretrained = pretrained_model("resnet14", "cifar10", scale, seed=0)
    result, _ = compress_and_finetune(pretrained, scale, finetune=False, seed=0)
    engine = calibrated_engine(
        result,
        pretrained,
        scale,
        config=EngineConfig(lut_bitwidth=8, calibration_batches=scale.calibration_batches),
    )
    loader = held_out_loader_for(pretrained, scale)
    images = sum(len(targets) for _, targets in loader)

    # One executor per optimization level, through the engine's pipeline.
    executors = {level: engine._executor(level=level) for level in OPT_LEVELS}
    planned = executors["O2"]
    assert planned.exec_plan is not None
    program = planned.program
    # O4: the engine routes it to the native backend; on hosts without a C
    # compiler the executor downgrades to plan and the native-only
    # assertions below are skipped (the level sweep still runs it).
    native = executors["O4"]
    o4_native = native.backend == "native"

    # The verifier must have been exercised for every compiled level — this
    # is the CI smoke's guard against a compile path that stops verifying.
    for level, executor in executors.items():
        report = executor.program.pipeline_report
        assert report is not None and report["verifier_runs"] >= 1, (
            f"level {level} compiled without exercising the IR verifier"
        )

    # Correctness first: at the same heuristic tile, O1 and O2 run the same
    # ufunc sequences — bitwise identical.  Across tiles the float stem
    # conv's BLAS reduction order varies (the auto-tile heuristic's
    # long-standing caveat), so predictions are the invariant.
    x = np.stack([loader.dataset[i][0] for i in range(min(24, images))])
    np.testing.assert_array_equal(executors["O1"].run(x), planned.run(x))
    preds = executors["O0"].run(x).argmax(axis=1)
    for level in ("O1", "O2", "O4"):
        np.testing.assert_array_equal(
            executors[level].run(x).argmax(axis=1), preds, err_msg=level
        )

    # Native bit-exactness + arena parity: at a pinned tile the compiled
    # segments must reproduce the plan backend bit for bit, over the exact
    # same arena plan.
    if o4_native:
        oracle = Executor(
            native.program, backend="plan", tile=native.exec_plan.tile, n_shards=1
        )
        pinned = Executor(
            native.program, backend="native", tile=native.exec_plan.tile, n_shards=1
        )
        assert (
            pinned.plan_info["arena_bytes"] == oracle.plan_info["arena_bytes"]
        ), "native backend planned a different arena than the plan backend"
        np.testing.assert_array_equal(pinned.run(x), oracle.run(x))

    rounds = 1 if FAST else 4
    accuracies, seconds = _interleaved_best(executors, loader, rounds)
    assert len(set(accuracies.values())) == 1, (
        f"optimization levels disagree on predictions: {accuracies}"
    )

    # Snapshot the O2 pipeline report now: the serial shard-baseline below
    # rebinds the same program and would otherwise overwrite the report's
    # schedule entry with its own (1-shard) configuration.
    import copy

    pipeline_report = copy.deepcopy(planned.program.pipeline_report)

    # Shard scaling: measured on a large batch; asserted only with >= 2 CPUs
    # (a single core cannot promise parallel speedup).  The serial baseline
    # pins the planned executor's tile so the comparison isolates sharding.
    cpus = os.cpu_count() or 1
    shard_speedup = None
    if planned.n_shards > 1:
        big = np.concatenate([x] * max(1, 128 // len(x)))
        serial = Executor(planned.program, n_shards=1, tile=planned.exec_plan.tile)
        for executor in (serial, planned):
            executor.run(big)
        best = {"serial": float("inf"), "sharded": float("inf")}
        for _ in range(rounds + 1):
            for name, executor in (("serial", serial), ("sharded", planned)):
                start = time.perf_counter()
                executor.run(big)
                best[name] = min(best[name], time.perf_counter() - start)
        shard_speedup = best["serial"] / best["sharded"]

    record = {
        "benchmark": "plan_throughput",
        "network": "resnet14",
        "dataset": "cifar10",
        "scale": scale.name,
        "images": images,
        "cpus": cpus,
        "program_ops": len(program.ops),
        "plan": dict(planned.plan_info),
        "levels": {
            level: {
                "seconds": round(seconds[level], 4),
                "images_per_second": round(images / seconds[level], 2),
                "ops": len(executors[level].program.ops),
            }
            for level in OPT_LEVELS
        },
        "pipeline": pipeline_report,
        "o4": {
            "backend": native.backend,
            "speedup_vs_o2": round(seconds["O2"] / seconds["O4"], 2),
            "native": (native.plan_info or {}).get("native"),
            "fallback_reason": (native.program.pipeline_report or {}).get(
                "fallback_reason"
            ),
        },
        "arena_bytes": int(planned.plan_info["arena_bytes"]),
        "shard_speedup": round(shard_speedup, 2) if shard_speedup else None,
        "accuracy": round(float(accuracies["O2"]), 4),
    }
    save_bench_record(BENCH_PATH, record, merge=False)
    print()
    print(json.dumps(record, indent=2))

    if shard_speedup is not None and cpus >= 2:
        assert shard_speedup >= SHARD_TARGET, (
            f"{planned.n_shards}-shard execution is only {shard_speedup:.2f}x "
            f"over serial on {cpus} CPUs (target {SHARD_TARGET}x)"
        )
    if o4_native:
        o4_speedup = seconds["O2"] / seconds["O4"]
        assert o4_speedup >= O4_TARGET, (
            f"native O4 executor is only {o4_speedup:.2f}x over the O2 plan "
            f"executor (target {O4_TARGET}x)"
        )


def test_plan_throughput_scale_fixture(scale):
    """The benchmark honours REPRO_BENCH_SCALE like every other benchmark."""
    assert scale.name == bench_scale().name
