"""End-to-end benchmark of the weight-pool bit-serial stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 15 --trace 0

Workloads (all closed loops; each caller waits for its reply):

* ``offline`` — ``Executor.run`` on batches of 32 through an ``O4`` program
  with the tile and shard count pinned (``bench_offline.py``).
* ``serve_predict`` — single-image ``POST /v1/models/<m>/predict`` over two
  keep-alive connections to a server process with process workers, the
  same network at 4-bit activations (``bench_serve.py``).
* ``serve_stream`` — single-frame ``POST /v1/models/<m>/stream`` over two
  connections, one stream session each (``bench_serve.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with in-memory spans around the calls into each layer and prints
the per-layer metrics instead.  Every output is checked against an oracle;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric a ``{"value", "unit"}`` pair).
End-to-end timings are net of hypervisor steal (``bench_common.StealLog``).
The run record (host stamp, tuning decisions, plain wall-time figures,
spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline", "serve_predict", "serve_stream")

# name -> unit of every metric printed with --trace 0 ...
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
    "flash_kb": "KiB",
    "mcu_ms": "ms_modelled",  # the cost model's latency, not a host timing
}

# ... and with --trace 1.  A workload that does not run a layer reports 0
# for it (e.g. the batcher on ``offline``).
PER_LAYER = {
    "compress.s": "s",
    "engine.calibrate_s": "s",
    "pipeline.compile_s": "s",
    "program.bind_s": "s",
    "pipeline.autotune_trials": "count",
    "codegen.cache_hit": "count",
    "codegen.build_s": "s",
    "program.run_ms": "ms",
    "codegen.native_step_share": "share",
    "codegen.segments": "count",
    "memory_plan.arena_kb": "KiB",
    "kernel_plan.run_ms": "ms",
    "export.save_ms": "ms",
    "export.load_ms": "ms",
    "export.artifact_kb": "KiB",
    "repository.publish_s": "s",
    "batcher.batch_size_mean": "count",
    "batcher.queue_wait_ms": "ms",
    "admission.shed": "count",
    "workers.retries": "count",
    "server.predict_ms": "ms",
    "http.overhead_ms": "ms",
    "workers.dispatch_ms": "ms",
    "stream_plan.frame_ms": "ms",
    "stream_plan.incremental_share": "share",
    "stream_plan.cached_share": "share",
    "stream_plan.full_share": "share",
    "stream_plan.dirty_fraction": "share",
    "streaming.evictions": "count",
    "mcu.cycles": "count",
    "mcu.cycles_max_layer": "count",
    "self.call_ms": "ms",
    "self.program_ms": "ms",
    "self.kernel_plan_ms": "ms",
    "self.workers_ms": "ms",
    "self.http_ms": "ms",
    "self.stream_plan_ms": "ms",
    "self.unattributed_ms": "ms",
    "trace.overhead_images_per_s": "1/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    import bench_common as bc

    # Every process a run starts ends with it: orphans are adopted and
    # reaped, and a SIGTERM unwinds through the same cleanup as an error.
    bc.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = ROOT / ".perfbench_run" / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # Temporary files of the program and its compiler stay in the checkout.
    (run_dir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tracer = bc.Tracer() if args.trace else None
    steal = bc.StealLog()
    try:
        if args.workload == "offline":
            import bench_offline as workload
        else:
            import bench_serve as workload
        result = workload.run(args, run_dir, tracer, steal)
    finally:
        steal.close()
        bc.reap_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    tally = result["tally"]
    if args.trace:
        layers = result["layers"]
        cycles = result["figures"]["mcu_layers"]
        layers["mcu.cycles"] = sum(cycles.values())
        layers["mcu.cycles_max_layer"] = max(cycles.values())
        metrics = {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: result["metrics"][name] for name in END_TO_END}
    stamp = bc.host_stamp(args.seed)
    latencies = [call.net_latency for call in tally.calls]
    cut = bc.tail_latency(latencies, workload.TAIL_PCT)
    tail = {"percentile": workload.TAIL_PCT, "samples": len(latencies),
            "beyond": sum(1 for latency in latencies if latency > cut)}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "decisions": result["decisions"],
        "setup_times_s": result["setup_times"],
        "segment_images_per_s": bc.segment_rates(tally.calls, result["start"]),
        "tail": tail,
        # The timed phase in plain wall time, and how much of it was stolen.
        "wall_images_per_s": bc.segment_rate(tally.calls, result["start"], net=False),
        "wall_p50_ms": bc.median([call.latency for call in tally.calls]) * 1e3,
        "steal_share_median": bc.median([call.steal for call in tally.calls]),
        "errors": tally.errors,
        "mcu_cycles_per_layer": result["figures"]["mcu_layers"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{tag}.spans.json")

    print(f"# stamp {json.dumps(stamp)}")
    print(f"# decisions {json.dumps(result['decisions'])}")
    print(f"# tail_ms is p{tail['percentile']:g} of {tail['samples']} calls, "
          f"{tail['beyond']} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
