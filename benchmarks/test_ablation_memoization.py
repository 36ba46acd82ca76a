"""Ablation benchmark: precomputation vs. memoization (paper §4.3 / appendix).

Two reuse regimes, recorded side by side in ``BENCH_stream.json``:

* **modeled** — the paper's MCU cycle model for *spatial* reuse inside one
  frame (precompute the activation-slice LUT vs. memoize popcount partials);
* **measured** — host wall-clock for *temporal* reuse across frames (the
  dirty-tile streaming executor of :mod:`repro.core.stream_plan` vs. full
  recompute), on the same tinyconv/64x64 preset the throughput benchmark
  sweeps.

The modeled numbers say what reuse is worth on the target device; the
measured numbers show the same memoization idea paying off end to end on a
real schedule, bit-exactly.
"""

import json
import time

import numpy as np

from conftest import run_experiment, save_bench_record, stream_prepared

from repro.experiments import ablations


def test_ablation_memoization(benchmark):
    result = run_experiment(benchmark, ablations.run_memoization)
    filters = result.column("filters")
    pre = dict(zip(filters, result.column("precompute speedup")))
    memo = dict(zip(filters, result.column("memoization speedup")))

    # The paper picked precomputation: it should match or beat memoization for
    # layers wider than the pool, and both should beat no reuse there.
    for f in filters:
        if f > 64:
            assert pre[f] > 1.0 and memo[f] > 1.0
            assert pre[f] >= memo[f]


def test_ablation_memoization_measured_host():
    """Measured temporal memoization next to the modeled MCU cycles."""
    from test_stream_throughput import (
        BENCH_PATH,
        IMAGE_SIZE,
        _measure,
        _temporal_frames,
    )
    from repro.core import compile_stream_plan

    modeled = ablations.run_memoization()
    modeled_rows = [dict(zip(modeled.headers, row)) for row in modeled.rows]

    program, _ = stream_prepared(IMAGE_SIZE)
    plan = compile_stream_plan(program, tile=8, seed=0)
    plan.executor.run(np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE)))
    frames = _temporal_frames(0.0625, 12, seed=0)
    start = time.perf_counter()
    measured = _measure(plan, frames)
    measured["wall_s"] = round(time.perf_counter() - start, 2)

    record = {
        "modeled_mcu": {
            "runner": "ablations.run_memoization",
            "unit": "Mcycles",
            "rows": modeled_rows,
        },
        "measured_host": dict(
            measured,
            model="tinyconv",
            image_size=IMAGE_SIZE,
            tile=8,
            change_fraction=0.0625,
            threshold=0.0,
        ),
    }
    merged = save_bench_record(BENCH_PATH, {"ablation_memoization": record})
    print()
    print(json.dumps(merged["ablation_memoization"], indent=2))

    # The measured numbers must tell the same story as the model: reuse wins,
    # and it wins without changing a single prediction.
    assert measured["mismatches"] == 0
    assert measured["modes"]["incremental"] > 0
    assert measured["speedup"] > 1.0, (
        f"temporal memoization lost to full recompute: {measured['speedup']}x"
    )
