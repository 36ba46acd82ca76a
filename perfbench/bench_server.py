"""The server process of the ``serve_predict`` / ``serve_stream`` workloads.

Builds the workload's model from its seeded recipe, compiles it through the
default ``engine.compile()`` path, publishes it into a fresh model
repository, starts an :class:`InferenceServer` behind ``serve_http`` on an
ephemeral port, and prints one ``READY {json}`` line (URL, pid and the
duration of each build stage).  It serves until its stdin closes.

Run by ``bench_serve.py``; by hand::

    PYTHONPATH=src python3 perfbench/bench_server.py --workload serve_predict --repo /tmp/r
"""

from __future__ import annotations

import argparse
import json
import sys

MODEL_NAME = "bench"
# The stream crossover is pinned (not measured at plan compile time) so the
# per-frame mode cannot flip between runs; the workload's dirty fraction
# sits far below it.
STREAM_CROSSOVER = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("serve_predict", "serve_stream"))
    parser.add_argument("--repo", required=True)
    args = parser.parse_args(argv)

    import bench_common as bc
    from repro.serve import InferenceServer, ModelRepository, StreamPolicy, serve_http

    tracer = bc.Tracer()
    recipe = bc.RESNET_A4 if args.workload == "serve_predict" else bc.TINYCONV_STREAM
    _, engine = bc.calibrated_engine(recipe, tracer)
    with tracer.span("pipeline.compile"):
        program = engine.compile()
    repository = ModelRepository(args.repo)
    with tracer.span("repository.publish"):
        repository.publish(program, MODEL_NAME)
    with tracer.span("server.start"):
        if args.workload == "serve_predict":
            server = InferenceServer(repository, workers=bc.PARALLEL, worker_mode="process")
        else:
            server = InferenceServer(repository, stream=StreamPolicy(crossover=STREAM_CROSSOVER))
        front = serve_http(server, port=0)
    ready = {
        "url": front.url,
        "timings": {s["name"]: s["end"] - s["start"] for s in tracer.spans},
    }
    print("READY " + json.dumps(ready), flush=True)
    try:
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        front.close()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
