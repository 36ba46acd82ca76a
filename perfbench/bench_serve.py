"""``serve_predict`` and ``serve_stream``: HTTP traffic against a server process.

``serve_predict`` sends single-image JSON ``POST /v1/models/<m>/predict``
requests over two keep-alive connections to a server running process workers
(``serve.http``, ``serve.batcher``, ``serve.admission``, ``serve.workers``),
the ResNet-14 recipe at 4-bit activations, published through the default
``engine.compile()`` -> ``repository.publish()`` path.  Replies are checked
against the ``O0`` reference backend.

``serve_stream`` sends single-frame ``POST /v1/models/<m>/stream`` requests
carrying a session id over two connections, one session each.  Frames come
from ``PatternStream`` at a fixed small change fraction on tinyconv at 64x64
(``core.stream_plan`` incremental execution, ``serve.streaming`` sessions);
each frame is checked bitwise against a batch-1 ``Executor.run``.

The server (``bench_server.py``) runs in its own process; setup is timed from
its start to the first correct reply, three times per run.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List
from urllib.parse import urlparse

import numpy as np

import bench_common as bc
from bench_server import MODEL_NAME, STREAM_CROSSOVER

HERE = Path(__file__).resolve().parent
RECIPES = {"serve_predict": bc.RESNET_A4, "serve_stream": bc.TINYCONV_STREAM}
CLIENTS = bc.PARALLEL
TAIL_PCT = 95.0
SETUPS = 3
PREDICT_POOL = 32  # distinct request images, cycled in a seeded order
STREAM_FRAMES = 60  # frames per session, played forwards then backwards
CHANGE_FRACTION = 0.02
READY_TIMEOUT_S = 150.0
HTTP_TIMEOUT_S = 60.0


class ServerProcess:
    """``bench_server.py`` in its own process, with a fresh repository and an
    empty native build cache."""

    def __init__(self, workload: str, run_dir: Path, index: int):
        self.repo = run_dir / f"repo-{index}"
        cache = run_dir / f"native-cache-{index}"
        cache.mkdir(parents=True)
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_server.py"), "--workload", workload,
             "--repo", str(self.repo)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            self.ready = bc.await_ready(self.proc, READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        url = urlparse(self.ready["url"])
        self.host, self.port = url.hostname, url.port

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)

    def get(self, path: str) -> Dict[str, object]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """Close stdin (the server's cue to shut down) and wait for it and
        for every process it left behind (workers, resource tracker)."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        bc.reap_children()


def _post(conn, path: str, body: bytes):
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.getheader("X-Stream-Session"), response.read()
    except (OSError, http.client.HTTPException):
        conn.close()  # the next request on this client reconnects
        raise


# -- serve_predict -------------------------------------------------------------------
class PredictTraffic:
    path = f"/v1/models/{MODEL_NAME}/predict"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pool = rng.normal(size=(PREDICT_POOL,) + RECIPES["serve_predict"].input_shape)
        self.order = rng.permutation(np.resize(np.arange(PREDICT_POOL), 4 * PREDICT_POOL))
        self.bodies = [json.dumps({"inputs": image.tolist()}).encode() for image in self.pool]
        self.expected = None
        self.conns: List[http.client.HTTPConnection] = []

    def first_reply(self, server: ServerProcess):
        conn = server.connect()
        try:
            status, _, data = _post(conn, self.path, self.bodies[0])
        finally:
            conn.close()
        return status, data

    def check_first(self, reply) -> bool:
        status, data = reply
        return status == 200 and bc.matches_oracle(
            np.asarray(json.loads(data)["outputs"]), self.expected[0])

    def oracle(self):
        compressed, engine = bc.calibrated_engine(RECIPES["serve_predict"])
        self.expected = bc.reference_outputs(engine, self.pool)
        return compressed

    def open(self, server: ServerProcess) -> List[bool]:
        self.conns = [server.connect() for _ in range(CLIENTS)]
        return []

    def call(self, slot: int, index: int, tracer) -> tuple:
        image = int(self.order[index % len(self.order)])
        with tracer.span("call", request=index):
            with tracer.span("http.request"):
                status, _, data = _post(self.conns[slot], self.path, self.bodies[image])
            if status != 200:
                return 0, False, f"http_{status}"
            ok = bc.matches_oracle(np.asarray(json.loads(data)["outputs"]), self.expected[image])
        return 1, ok, None if ok else "mismatch"


# -- serve_stream --------------------------------------------------------------------
def pingpong(n: int, frames: int) -> int:
    """Frame index of the ``n``-th request: 0, 1, ..., F-1, F-2, ..., 1, 0, 1, ...

    Walking the recorded stream back and forth keeps every step a small
    patch change, so the session never sees an artificial full-frame jump.
    """
    period = 2 * frames - 2
    m = n % period
    return m if m < frames else period - m


def stream_frames(seed: int, slot: int) -> np.ndarray:
    from repro.datasets import PatternLibrary

    size = RECIPES["serve_stream"].image_size
    library = PatternLibrary(num_classes=4, channels=3, image_size=size, seed=seed)
    stream = library.stream(slot % 4, change_fraction=CHANGE_FRACTION,
                            rng=np.random.default_rng([seed, slot]))
    return np.concatenate([stream.frame[None], stream.take(STREAM_FRAMES - 1)])


class StreamTraffic:
    path = f"/v1/models/{MODEL_NAME}/stream"

    def __init__(self, seed: int):
        self.frames = [stream_frames(seed, slot) for slot in range(CLIENTS)]
        self.frame_json = [[json.dumps(f.tolist()).encode() for f in frames]
                           for frames in self.frames]
        self.expected = None
        self.program = None
        self.conns: List[http.client.HTTPConnection] = []
        self.sessions: List[str] = [""] * CLIENTS
        self.sent = [0] * CLIENTS
        self.modes: Dict[str, int] = {}
        self.dirty: List[float] = []
        self._lock = threading.Lock()

    def _body(self, slot: int, k: int) -> bytes:
        head = b'{"session": "%s", "frames": ' % self.sessions[slot].encode() if self.sessions[slot] else b'{"frames": '
        return head + self.frame_json[slot][k] + b"}"

    def _send(self, slot: int, conn) -> tuple:
        k = pingpong(self.sent[slot], STREAM_FRAMES)
        status, session, data = _post(conn, self.path, self._body(slot, k))
        self.sent[slot] += 1
        if status != 200:
            return k, status, None
        if not self.sessions[slot]:
            self.sessions[slot] = session
        return k, status, json.loads(data.splitlines()[0])

    def first_reply(self, server: ServerProcess):
        conn = server.connect()
        self.sessions[0], self.sent[0] = "", 0
        try:
            return self._send(0, conn)
        finally:
            conn.close()

    def _ok(self, slot: int, k: int, line) -> bool:
        return (line is not None and "error" not in line
                and np.array_equal(np.asarray(line["outputs"]), self.expected[slot][k]))

    def check_first(self, reply) -> bool:
        k, _, line = reply
        return self._ok(0, k, line)

    def oracle(self):
        from repro.core import Executor

        compressed, engine = bc.calibrated_engine(RECIPES["serve_stream"])
        self.program = engine.compile()
        executor = Executor(self.program)
        self.expected = [np.stack([executor.run(f[None])[0] for f in frames])
                         for frames in self.frames]
        return compressed

    def open(self, server: ServerProcess) -> List[bool]:
        """One connection per client; the sessions other than setup's open
        with their first frame (untimed).  Returns those frames' checks."""
        self.conns = [server.connect() for _ in range(CLIENTS)]
        checks = []
        for slot in range(1, CLIENTS):
            k, _, line = self._send(slot, self.conns[slot])
            checks.append(self._ok(slot, k, line))
        return checks

    def call(self, slot: int, index: int, tracer) -> tuple:
        with tracer.span("call", request=index):
            with tracer.span("http.request"):
                k, status, line = self._send(slot, self.conns[slot])
            if line is None:
                return 0, False, f"http_{status}"
            ok = self._ok(slot, k, line)
            if ok:
                with self._lock:
                    self.modes[line["mode"]] = self.modes.get(line["mode"], 0) + 1
                    self.dirty.append(float(line.get("dirty_fraction", 0.0)))
        return 1, ok, None if ok else "mismatch"


# -- the workload --------------------------------------------------------------------
def run(args, run_dir: Path, tracer, steal: bc.StealLog) -> Dict[str, object]:
    traffic = PredictTraffic(args.seed) if args.workload == "serve_predict" else StreamTraffic(args.seed)
    setup_times, firsts, readies = [], [], []
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = ServerProcess(args.workload, run_dir, index)
            firsts.append(traffic.first_reply(server))
            setup_times.append(steal.net_setup(start, time.perf_counter()))
            readies.append(server.ready)
            bc.log(f"{args.workload} setup {index}: {setup_times[-1]:.2f}s")

        compressed = traffic.oracle()
        figures = bc.deployment_figures(RECIPES[args.workload], compressed)
        untimed = [traffic.check_first(reply) for reply in firsts] + traffic.open(server)
        tally, start, end = bc.run_closed_loop(
            traffic.call, args.seconds, bc.min_samples_for(TAIL_PCT), clients=CLIENTS,
            tracer=tracer, steal=steal,
        )
        for ok in untimed:
            tally.record_untimed(ok, None if ok else "setup_mismatch")
        stats = server.get("/stats")
        peak_rss = bc.peak_rss_tree_mb(server.proc.pid)
        for conn in traffic.conns:
            conn.close()
    finally:
        if server is not None:
            server.stop()

    snapshot = next(v for k, v in stats.items() if k.startswith(MODEL_NAME + "/"))
    result = {
        "tally": tally,
        "decisions": _decisions(snapshot),
        "figures": figures,
        "setup_times": setup_times,
        "start": start,
        "metrics": bc.end_to_end_metrics(
            tally, start, TAIL_PCT, bc.median(setup_times), peak_rss, figures
        ),
    }
    if tracer is not None:
        result["layers"] = _layers(args, tracer, traffic, server, readies, snapshot, run_dir)
        result["layers"]["trace.overhead_images_per_s"] = bc.trace_overhead(tally, start, end)
    return result


def _decisions(snapshot) -> Dict[str, object]:
    executor = snapshot.get("executor") or {}
    autotune = executor.get("autotune") or {}
    streaming = snapshot.get("streaming") or {}
    pipeline = snapshot.get("pipeline") or {}
    return {
        "level": pipeline.get("effective_level", pipeline.get("level")),
        "backend": executor.get("backend"),
        "tile": executor.get("tile"),
        "n_shards": executor.get("n_shards"),
        "workers": snapshot.get("workers"),
        "kernel_winners": {
            name: f"{pick['tap_gather']}/{pick['encoder']}"
            for name, pick in (autotune.get("layers") or {}).items()
        },
        "stream_crossover": streaming.get("crossover"),
        "stream_tile": streaming.get("tile"),
    }


def _layers(args, tracer, traffic, server, readies, snapshot, run_dir) -> Dict[str, float]:
    """Per-layer figures of the traced run, measured after the server stopped
    so the probes do not compete with it."""
    from repro.core import Executor, load_program
    from repro.core.program import auto_backend
    from repro.serve import ModelRepository

    layers: Dict[str, float] = {}
    for stage, name in (("compress", "compress.s"), ("engine.calibrate", "engine.calibrate_s"),
                        ("pipeline.compile", "pipeline.compile_s"),
                        ("repository.publish", "repository.publish_s")):
        layers[name] = bc.median([ready["timings"][stage] for ready in readies])

    program = load_program(ModelRepository(server.repo).artifact_path(MODEL_NAME))
    layers.update(bc.export_layers(program, run_dir / "artifact.npz"))

    backend = auto_backend("plan", program)
    executors = []
    bind = bc.repeat_timed(lambda: executors.append(Executor(program, backend=backend)), 3)
    layers["program.bind_s"] = bind[0]
    layers["codegen.build_s"] = bind[0] - bc.median(bind[1:])  # cold minus warm
    layers.update(bc.plan_layers(executors[0]))
    # One executor call at the batch size the server ran (one frame for a
    # stream): the program as deployed, then the plan kernels alone.
    batch = (traffic.pool[: max(1, int(round(snapshot["batches"]["mean_size"])))]
             if args.workload == "serve_predict" else traffic.frames[0][:1])
    layers["program.run_ms"] = bc.median(_run_s(executors[0], batch)) * 1e3
    for executor in executors:
        executor.close()
    kernel = _run_s(Executor(program, backend="plan"), batch)
    layers["kernel_plan.run_ms"] = bc.median(kernel) * 1e3

    # The call's self time (client-side encoding, parsing and the oracle
    # check) is the unattributed row; its HTTP round trip is split below.
    http_times = tracer.durations("http.request")
    http_mean = float(np.mean(http_times))
    client_p50 = bc.median(http_times)
    layers["self.call_ms"] = tracer.seconds("call") / len(tracer.durations("call")) * 1e3
    layers["self.unattributed_ms"] = layers["self.call_ms"] - http_mean * 1e3
    resilience = snapshot.get("resilience") or {}
    queue = snapshot.get("queue") or {}
    if args.workload == "serve_predict":
        layers["batcher.batch_size_mean"] = float(snapshot["batches"]["mean_size"])
        layers["batcher.queue_wait_ms"] = float(queue.get("wait_p95_ms", 0.0))
        layers["admission.shed"] = float(resilience.get("shed_total", 0))
        layers["workers.retries"] = float(resilience.get("retries", 0))
        predict = _server_predict_s(server.repo, traffic.pool)
        layers["server.predict_ms"] = bc.median(predict) * 1e3
        layers["workers.dispatch_ms"] = layers["server.predict_ms"] - layers["kernel_plan.run_ms"]
        layers["http.overhead_ms"] = client_p50 * 1e3 - layers["server.predict_ms"]
        # The HTTP round trip split by the in-process probes (means):
        kernel_ms = min(float(np.mean(kernel)), http_mean) * 1e3
        server_ms = min(float(np.mean(predict)), http_mean) * 1e3
        layers["self.kernel_plan_ms"] = kernel_ms
        layers["self.workers_ms"] = max(0.0, server_ms - kernel_ms)
        layers["self.http_ms"] = http_mean * 1e3 - kernel_ms - layers["self.workers_ms"]
    else:
        frame = _stream_frame_s(program, traffic.frames[0])
        layers["stream_plan.frame_ms"] = bc.median(frame) * 1e3
        frames = sum(traffic.modes.values()) or 1
        for mode in ("incremental", "cached", "full"):
            layers[f"stream_plan.{mode}_share"] = traffic.modes.get(mode, 0) / frames
        layers["stream_plan.dirty_fraction"] = float(np.mean(traffic.dirty)) if traffic.dirty else 0.0
        streaming = snapshot.get("streaming") or {}
        layers["streaming.evictions"] = float(streaming.get("evicted", 0) + streaming.get("expired", 0))
        layers["http.overhead_ms"] = client_p50 * 1e3 - layers["stream_plan.frame_ms"]
        layers["self.stream_plan_ms"] = min(float(np.mean(frame)), http_mean) * 1e3
        layers["self.http_ms"] = http_mean * 1e3 - layers["self.stream_plan_ms"]
    return layers


def _run_s(executor, batch: np.ndarray) -> List[float]:
    """Warm ``executor.run(batch)`` times; closes the executor."""
    executor.run(batch)
    times = bc.repeat_timed(lambda: executor.run(batch), 30)
    executor.close()
    return times


def _server_predict_s(repo: Path, pool: np.ndarray, seconds: float = 3.0) -> List[float]:
    """In-process ``InferenceServer.predict_request`` latencies under the
    same closed loop (two callers, process workers) the HTTP clients ran."""
    from repro.serve import InferenceServer, ModelRepository

    server = InferenceServer(ModelRepository(repo), workers=CLIENTS, worker_mode="process")
    latencies: List[float] = []
    lock = threading.Lock()
    try:
        server.predict_request(MODEL_NAME, pool[0])  # builds the pipeline
        deadline = time.perf_counter() + seconds

        def caller(slot: int) -> None:
            i = slot
            while time.perf_counter() < deadline:
                begin = time.perf_counter()
                server.predict_request(MODEL_NAME, pool[i % len(pool)])
                with lock:
                    latencies.append(time.perf_counter() - begin)
                i += CLIENTS

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.close()
    return latencies


def _stream_frame_s(program, frames: np.ndarray) -> List[float]:
    """``StreamSession.process`` on the workload's frames (first frame, a
    full recompute, excluded)."""
    from repro.core import compile_stream_plan
    from repro.serve import StreamPolicy

    plan = compile_stream_plan(program, tile=StreamPolicy().tile, crossover=STREAM_CROSSOVER)
    session = plan.session()
    session.process(frames[0])
    times = []
    for n in range(1, 2 * STREAM_FRAMES):
        frame = frames[pingpong(n, STREAM_FRAMES)]
        begin = time.perf_counter()
        session.process(frame)
        times.append(time.perf_counter() - begin)
    return times
