"""``offline``: compiled-model throughput through ``Executor.run`` at ``O4``.

ResNet-14 (tiny) on a 64-vector weight pool, 8-bit activations and LUT,
compiled at ``O4`` and bound on the native backend with the tile and shard
count pinned, runs fixed-size batches of 32 images in a closed loop.  The
native segments (``core.codegen``), the arena plan (``core.memory_plan``)
and the remaining NumPy kernels (``core.kernel_plan``) do all the work; no
serve layer runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

import bench_common as bc

RECIPE = bc.RESNET_A8
BATCH = 32
TILE = 16
SHARDS = bc.PARALLEL
TAIL_PCT = 80.0
SETUPS = 3
SETUP_TIMEOUT_S = 150.0
ORDERS = 64  # distinct seeded batch orders of the input pool


def make_inputs(seed: int):
    """(input pool, batch orders): every batch is a seeded permutation of
    the pool, so each image's oracle output is computed once."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(BATCH,) + RECIPE.input_shape)
    orders = [rng.permutation(BATCH) for _ in range(ORDERS)]
    return pool, orders


def _bind(program):
    from repro.core import Executor

    return Executor(program, backend="native", tile=TILE, n_shards=SHARDS)


def setup_once(run_dir: Path, index: int, pool: np.ndarray, tracer: bc.Tracer):
    """Model build to first batch: returns (state, first outputs)."""
    from repro.core import compile_network

    cache = run_dir / f"native-cache-{index}"
    cache.mkdir(parents=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(cache)  # a cold build every setup
    compressed, engine = bc.calibrated_engine(RECIPE, tracer)
    with tracer.span("pipeline.compile"):
        program = compile_network(
            engine.model,
            RECIPE.input_shape,
            lut=engine.lut,
            activation_params=engine.activation_params,
            act_bitwidth=RECIPE.activation_bits,
            level="O4",
        )
    with tracer.span("program.bind"):
        executor = _bind(program)
    first = executor.run(pool)
    return (compressed, engine, program, executor), first


def setup_in_child(run_dir: Path, index: int, seed: int):
    """Setup ``index`` in a fresh process (this file run as a script), timed
    from its start to its first batch: ((begin, end), first outputs, the
    child's stage timings)."""
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup", str(index),
         "--seed", str(seed), "--run-dir", str(run_dir)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = bc.await_ready(proc, SETUP_TIMEOUT_S)
        end = time.perf_counter()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return (begin, end), np.asarray(ready["first"]), ready["timings"]


def decisions(executor) -> Dict[str, object]:
    info = executor.plan_info or {}
    autotune = info.get("autotune") or {}
    return {
        "backend": executor.backend,
        "tile": info.get("tile"),
        "n_shards": info.get("n_shards"),
        "kernel_winners": {
            name: f"{pick['tap_gather']}/{pick['encoder']}"
            for name, pick in (autotune.get("layers") or {}).items()
        },
        "native": info.get("native"),
    }


def run(args, run_dir: Path, tracer, steal: bc.StealLog) -> Dict[str, object]:
    pool, orders = make_inputs(args.seed)

    # Setup 0 is this process, timed from its own start; the others are
    # fresh child processes doing the same work, one at a time.
    setup_tracer = tracer or bc.Tracer()
    begin = bc.process_start()
    state, first = setup_once(run_dir, 0, pool, setup_tracer)
    intervals, firsts = [(begin, time.perf_counter())], [first]
    stage_timings = [{s["name"]: s["end"] - s["start"] for s in setup_tracer.spans}]
    for index in range(1, SETUPS):
        interval, first, timings = setup_in_child(run_dir, index, args.seed)
        intervals.append(interval)
        firsts.append(first)
        stage_timings.append(timings)
    setup_times = [steal.net_setup(*interval) for interval in intervals]
    for index, seconds in enumerate(setup_times):
        bc.log(f"offline setup {index}: {seconds:.2f}s")
    compressed, engine, program, executor = state

    expected = bc.reference_outputs(engine, pool)
    setup_ok = [bc.matches_oracle(first, expected) for first in firsts]
    figures = bc.deployment_figures(RECIPE, compressed)

    def call(slot, index, tr):
        order = orders[index % ORDERS]
        with tr.span("call", request=index):
            x = pool[order]
            with tr.span("program.run"):
                out = executor.run(x)
            ok = bc.matches_oracle(out, expected[order])
        return BATCH, ok, None if ok else "mismatch"

    executor.run(pool)  # warm: first touch of the shard arenas after setup
    tally, start, end = bc.run_closed_loop(
        call, args.seconds, bc.min_samples_for(TAIL_PCT), clients=1, tracer=tracer, steal=steal
    )
    for ok in setup_ok:
        tally.record_untimed(ok, None if ok else "setup_mismatch")

    result = {
        "tally": tally,
        "decisions": decisions(executor),
        "figures": figures,
        "setup_times": setup_times,
        "start": start,
        "metrics": bc.end_to_end_metrics(
            tally, start, TAIL_PCT, bc.median(setup_times), bc.own_peak_rss_mb(), figures
        ),
    }
    if tracer is not None:
        result["layers"] = _layers(tracer, stage_timings, program, executor, pool, run_dir)
        result["layers"]["trace.overhead_images_per_s"] = bc.trace_overhead(tally, start, end)
    executor.close()
    return result


def _layers(tracer, stage_timings, program, executor, pool, run_dir: Path) -> Dict[str, float]:
    """Per-layer figures of the traced run (see ``run.PER_LAYER``)."""
    from repro.core import Executor
    from repro.serve import ModelRepository

    layers: Dict[str, float] = {}
    for span, name in (("compress", "compress.s"), ("engine.calibrate", "engine.calibrate_s"),
                       ("pipeline.compile", "pipeline.compile_s"), ("program.bind", "program.bind_s")):
        layers[name] = bc.median([timings[span] for timings in stage_timings])  # over the setups
    layers.update(bc.plan_layers(executor))
    layers["program.run_ms"] = bc.median(tracer.durations("program.run")) * 1e3

    # A warm rebind: the build cache holds the library and the program
    # replays its recorded kernel winners.
    warm = bc.repeat_timed(lambda: _bind(program).close(), 3)
    layers["codegen.build_s"] = layers["program.bind_s"] - bc.median(warm)
    # Not on this workload's path, but cheap: the O4 program as an artifact.
    layers.update(bc.export_layers(program, run_dir / "artifact.npz"))
    repository = ModelRepository(run_dir / "repository")
    layers["repository.publish_s"] = bc.median(
        bc.repeat_timed(lambda: repository.publish(program, "offline"), 3))

    plan = Executor(program, backend="plan", tile=TILE, n_shards=SHARDS)
    plan.run(pool)
    layers["kernel_plan.run_ms"] = bc.median(bc.repeat_timed(lambda: plan.run(pool), 7)) * 1e3
    plan.close()

    calls = len(tracer.durations("call"))
    self_s = tracer.self_seconds()
    layers["self.call_ms"] = tracer.seconds("call") / calls * 1e3
    layers["self.program_ms"] = self_s.get("program.run", 0.0) / calls * 1e3
    layers["self.unattributed_ms"] = self_s.get("call", 0.0) / calls * 1e3
    return layers


def main(argv=None) -> int:
    """One setup in this fresh process: prints ``READY {json}`` with the
    first batch's outputs and the stage timings, then exits."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    tracer = bc.Tracer()
    state, first = setup_once(args.run_dir, args.setup, make_inputs(args.seed)[0], tracer)
    timings = {s["name"]: s["end"] - s["start"] for s in tracer.spans}
    print("READY " + json.dumps({"first": first.tolist(), "timings": timings}), flush=True)
    state[3].close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
