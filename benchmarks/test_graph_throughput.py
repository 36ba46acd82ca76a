"""Throughput benchmark: whole-network graph executor vs. the per-layer engine.

Measures end-to-end ``BitSerialInferenceEngine.evaluate`` on the ResNet-14 /
CIFAR-10 preset twice — once through the compiled network program (lower →
optimize passes → batched executor, the default since the whole-network
compiler landed) and once through PR 1's per-layer runtime-install engine
(``use_graph=False``) — and asserts the graph executor is at least 1.2×
faster while predicting the same labels.  The graph side wins on structure
the per-layer runtime cannot express: BatchNorm folded into the bit-serial
epilogues, dequantize→quantize pairs elided (integer activations across
compressed chains), the zero-point padding hoisted to compile-time border
constants, and cache-sized micro-batch tiling.  Results are written to
``BENCH_graph.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import bench_scale, save_bench_record

from repro.core import EngineConfig
from repro.experiments.common import calibrated_engine, compress_and_finetune, pretrained_model
from repro.experiments.common import test_loader_for as held_out_loader_for

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_graph.json"
# Overridable for noisy shared CI runners; the recorded margin is ~1.35x.
SPEEDUP_TARGET = float(os.environ.get("REPRO_GRAPH_SPEEDUP_TARGET", "1.2"))


def _timed_evaluate_pair(engine, loader, rounds: int = 4):
    """Interleaved best-of-N timing of the graph and per-layer paths.

    Alternating the two paths within each round makes slow machine-state
    drift (thermal, background load) hit both sides equally instead of
    biasing whichever path happened to run in the quiet window.
    """
    accuracies = {}
    best = {True: float("inf"), False: float("inf")}
    for use_graph in (True, False):  # warm-up: compile program / plans
        engine.config = replace(engine.config, use_graph=use_graph)
        engine.evaluate(loader)
    for _ in range(rounds):
        for use_graph in (True, False):
            engine.config = replace(engine.config, use_graph=use_graph)
            start = time.perf_counter()
            accuracies[use_graph] = engine.evaluate(loader)
            best[use_graph] = min(best[use_graph], time.perf_counter() - start)
    return accuracies, best


def test_graph_throughput(scale):
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

    # Correctness first: the unoptimized program is bit-exact with the
    # per-layer plan path; the optimized program must predict identically.
    x = np.stack([loader.dataset[i][0] for i in range(min(8, images))])
    engine.config = replace(engine.config, use_graph=True, graph_optimize=False)
    unoptimized_logits = engine.predict(x)
    engine.config = replace(engine.config, use_graph=False)
    legacy_logits = engine.predict(x)
    np.testing.assert_array_equal(unoptimized_logits, legacy_logits)

    engine.config = replace(engine.config, use_graph=True, graph_optimize=False)
    unoptimized = engine.compile()
    engine.config = replace(engine.config, use_graph=True, graph_optimize=True)
    program = engine.compile()
    accuracies, seconds = _timed_evaluate_pair(engine, loader)
    graph_acc, graph_s = accuracies[True], seconds[True]
    legacy_acc, legacy_s = accuracies[False], seconds[False]
    speedup = legacy_s / graph_s

    record = {
        "benchmark": "graph_throughput",
        "network": "resnet14",
        "dataset": "cifar10",
        "scale": scale.name,
        "images": images,
        "program_ops": len(program.ops),
        "requantize_fused": program.count("requantize"),
        "batchnorms_folded": unoptimized.count("batchnorm") - program.count("batchnorm"),
        "executor_tile": engine._executor().tile,
        "legacy_seconds": round(legacy_s, 4),
        "graph_seconds": round(graph_s, 4),
        "legacy_images_per_second": round(images / legacy_s, 2),
        "graph_images_per_second": round(images / graph_s, 2),
        "speedup": round(speedup, 2),
        "legacy_accuracy": round(float(legacy_acc), 4),
        "graph_accuracy": round(float(graph_acc), 4),
    }
    save_bench_record(BENCH_PATH, record, merge=False)
    print()
    print(json.dumps(record, indent=2))

    # Identical accuracy up to the documented numerics contract: a single-LSB
    # requantization flip at a rounding boundary (vanishingly rare, but
    # platform-dependent) may move at most one prediction.
    assert abs(graph_acc - legacy_acc) <= 1.0 / images + 1e-12, (
        "execution paths disagree on predictions beyond the documented tolerance"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"graph executor is only {speedup:.2f}x faster than the per-layer "
        f"engine (target {SPEEDUP_TARGET}x)"
    )


def test_graph_throughput_scale_fixture(scale):
    """The benchmark honours REPRO_BENCH_SCALE like every other benchmark."""
    assert scale.name == bench_scale().name
