"""Throughput benchmark: compiled kernel plans vs. the legacy tap-loop kernel.

Measures end-to-end ``BitSerialInferenceEngine.evaluate`` on the ResNet-14 /
CIFAR-10 preset twice — once through the compiled per-layer kernel plans
(``use_kernel_plans=True``, the default) and once through the original
Python tap-loop kernels — and asserts the plan path is at least 5× faster
while predicting the same labels.  Results are written to
``BENCH_kernel.json`` at the repository root so future changes can track the
performance trajectory.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import bench_scale, save_bench_record

from repro.core import EngineConfig
from repro.experiments.common import calibrated_engine, compress_and_finetune, pretrained_model
from repro.experiments.common import test_loader_for as held_out_loader_for

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"
SPEEDUP_TARGET = 5.0


def _timed_evaluate(engine, loader, use_kernel_plans: bool):
    engine.config = replace(engine.config, use_kernel_plans=use_kernel_plans)
    engine.evaluate(loader)  # warm-up: compile plans, touch caches
    start = time.perf_counter()
    accuracy = engine.evaluate(loader)
    return accuracy, time.perf_counter() - start


def test_kernel_throughput(scale):
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

    # Correctness first: with a full-precision LUT the two execution paths are
    # bit-exact per layer, so the logits must agree to float rounding.
    engine.set_lut_bitwidth(None)
    x = np.stack([loader.dataset[i][0] for i in range(min(8, images))])
    engine.config = replace(engine.config, use_kernel_plans=True)
    plan_logits = engine.predict(x)
    engine.config = replace(engine.config, use_kernel_plans=False)
    legacy_logits = engine.predict(x)
    np.testing.assert_allclose(plan_logits, legacy_logits, rtol=1e-12, atol=1e-10)

    # Throughput on the deployment configuration (8-bit quantized LUT).
    engine.set_lut_bitwidth(8)
    plan_acc, plan_s = _timed_evaluate(engine, loader, use_kernel_plans=True)
    legacy_acc, legacy_s = _timed_evaluate(engine, loader, use_kernel_plans=False)
    speedup = legacy_s / plan_s

    record = {
        "benchmark": "kernel_throughput",
        "network": "resnet14",
        "dataset": "cifar10",
        "scale": scale.name,
        "images": images,
        "legacy_seconds": round(legacy_s, 4),
        "plan_seconds": round(plan_s, 4),
        "legacy_images_per_second": round(images / legacy_s, 2),
        "plan_images_per_second": round(images / plan_s, 2),
        "speedup": round(speedup, 2),
        "legacy_accuracy": round(float(legacy_acc), 4),
        "plan_accuracy": round(float(plan_acc), 4),
    }
    save_bench_record(BENCH_PATH, record, merge=False)
    print()
    print(json.dumps(record, indent=2))

    assert plan_acc == legacy_acc, "execution paths disagree on predictions"
    assert speedup >= SPEEDUP_TARGET, (
        f"plan-based engine is only {speedup:.2f}x faster than the legacy "
        f"kernel (target {SPEEDUP_TARGET}x)"
    )


def test_kernel_throughput_scale_fixture(scale):
    """The benchmark honours REPRO_BENCH_SCALE like every other benchmark."""
    assert scale.name == bench_scale().name
