"""Shared pieces of the end-to-end benchmark (see ``perfbench/run.py``).

Everything here is workload-independent: the model recipes (seeded
random-init networks, so no run depends on pretrained weights), the oracle
comparison, outcome accounting, the latency/throughput statistics, the
in-memory span tracer, process memory readings and the host stamp.
"""

from __future__ import annotations

import bisect
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# -- model recipes -------------------------------------------------------------
# The model, its compression and its calibration data are fixed (seed 0): only
# the request inputs come from the benchmark's ``--seed``, so every run sets
# up the same program and a seed changes what is sent, not what serves it.
MODEL_SEED = 0
CALIBRATION_IMAGES = 32
# Callers, connections, server workers and executor shards: at most two,
# and no more than the machine's CPUs.
PARALLEL = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Recipe:
    """A seeded random-init network compressed onto a weight pool."""

    model: str
    image_size: int
    pool_size: int
    group_size: int
    activation_bits: int
    lut_bits: int

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (3, self.image_size, self.image_size)


# offline (O4 executor) and serve_predict (the same network at 4-bit
# activations: half the bit planes) share the ResNet-14 recipe; serve_stream
# runs tinyconv at 64x64, where receptive-field dilation leaves most tiles
# clean between frames.
RESNET_A8 = Recipe("resnet14_tiny", 32, 64, 8, 8, 8)
RESNET_A4 = Recipe("resnet14_tiny", 32, 64, 8, 4, 8)
TINYCONV_STREAM = Recipe("tinyconv", 64, 16, 8, 8, 8)


def build_model(recipe: Recipe):
    """Fresh seeded random-init model of the recipe (uncompressed)."""
    from repro.models import create_model

    kwargs = {"image_size": recipe.image_size} if recipe.model == "tinyconv" else {}
    return create_model(recipe.model, num_classes=10, in_channels=3, rng=MODEL_SEED, **kwargs)


def compress(recipe: Recipe, model):
    from repro.core import CompressionPolicy, compress_model

    return compress_model(
        model,
        recipe.input_shape,
        pool_size=recipe.pool_size,
        policy=CompressionPolicy(group_size=recipe.group_size),
        seed=MODEL_SEED,
    )


def calibration_loader(recipe: Recipe):
    from repro.nn import DataLoader
    from repro.nn.data.dataset import ArrayDataset

    rng = np.random.default_rng(MODEL_SEED)
    images = rng.normal(size=(CALIBRATION_IMAGES,) + recipe.input_shape)
    labels = np.zeros(CALIBRATION_IMAGES, dtype=np.int64)
    return DataLoader(ArrayDataset(images, labels), batch_size=CALIBRATION_IMAGES)


def calibrated_engine(recipe: Recipe, tracer: Optional["Tracer"] = None):
    """(compression result, calibrated engine), timing each stage as a span."""
    from repro.core import BitSerialInferenceEngine, EngineConfig

    tracer = tracer or NO_TRACE
    model = build_model(recipe)
    with tracer.span("compress"):
        compressed = compress(recipe, model)
    engine = BitSerialInferenceEngine(
        compressed.model,
        compressed.pool,
        EngineConfig(
            activation_bitwidth=recipe.activation_bits,
            lut_bitwidth=recipe.lut_bits,
            calibration_batches=1,
        ),
    )
    with tracer.span("engine.calibrate"):
        engine.calibrate(calibration_loader(recipe))
    return compressed, engine


def reference_outputs(engine, inputs: np.ndarray, chunk: int = 4) -> np.ndarray:
    """The oracle: the ``O0`` program on the ``reference`` backend."""
    from repro.core import Executor

    executor = Executor(engine.compile(level="O0"), backend="reference")
    return np.concatenate(
        [executor.run(inputs[i : i + chunk]) for i in range(0, len(inputs), chunk)]
    )


def deployment_figures(recipe: Recipe, compressed) -> Dict[str, object]:
    """Deployed storage (``repro.core.storage``) and modelled MCU latency
    (the ``cost`` backend of ``repro.mcu``) of a compressed model."""
    from repro.core import analyze_model_storage
    from repro.mcu import MC_LARGE, BitSerialKernelConfig, estimate_weight_pool_network

    storage = analyze_model_storage(
        compressed.model,
        recipe.input_shape,
        pool=compressed.pool,
        lut_bitwidth=recipe.lut_bits,
    )
    report = estimate_weight_pool_network(
        compressed.model,
        recipe.input_shape,
        MC_LARGE,
        config=BitSerialKernelConfig(
            pool_size=recipe.pool_size,
            group_size=recipe.group_size,
            activation_bitwidth=recipe.activation_bits,
        ),
    )
    return {
        "flash_kb": storage.flash_bytes() / 1024.0,
        "mcu_ms": report.latency_seconds * 1e3,
        "mcu_cycles": float(report.total_cycles),
        "mcu_layers": {layer.name: float(layer.cycles) for layer in report.layers},
    }


def plan_layers(executor) -> Dict[str, float]:
    """Per-layer counters a bound executor reports in ``plan_info``: the
    autotuner's trial count, the native build and the arena size."""
    info = executor.plan_info or {}
    native = info.get("native") or {}
    return {
        "pipeline.autotune_trials": float((info.get("autotune") or {}).get("trials", 0)),
        "codegen.cache_hit": float(native.get("cache_hit", 0)),
        "codegen.segments": float(native.get("segments", 0)),
        "codegen.native_step_share": (
            native.get("native_steps", 0) / native["steps"] if native.get("steps") else 0.0
        ),
        "memory_plan.arena_kb": info.get("arena_bytes", 0) / 1024.0,
    }


def export_layers(program, path: Path) -> Dict[str, float]:
    """Save/load times and size of ``program`` as a deployment artifact."""
    from repro.core import load_program, save_program

    save = repeat_timed(lambda: save_program(program, path), 3)
    load = repeat_timed(lambda: load_program(path), 3)
    return {
        "export.save_ms": median(save) * 1e3,
        "export.load_ms": median(load) * 1e3,
        "export.artifact_kb": path.stat().st_size / 1024.0,
    }


# -- oracle comparison -----------------------------------------------------------
# The repository's numerics contract between an optimized backend and the
# reference lowering: identical predictions, logits equal up to float
# reassociation.
RTOL = 1e-6
ATOL = 1e-9


def matches_oracle(outputs: np.ndarray, expected: np.ndarray) -> bool:
    outputs = np.asarray(outputs)
    if outputs.shape != expected.shape or not np.all(np.isfinite(outputs)):
        return False
    return bool(
        np.array_equal(outputs.argmax(axis=-1), expected.argmax(axis=-1))
        and np.allclose(outputs, expected, rtol=RTOL, atol=ATOL)
    )


# -- hypervisor steal ------------------------------------------------------------------
# On a shared virtual machine the hypervisor runs other guests on this one's
# CPUs for a varying share of the time (up to ~50% here, for minutes at a
# time), and the program's wall times swing with it.  Every timing the
# benchmark reports is therefore net of steal: the wall time of an interval
# minus the CPU time stolen during it, spread over the ``PARALLEL``
# activities (callers, shards, workers) the workloads run at once.  A call
# loses time to steal only while its work is on a CPU, so dividing by the
# machine's busy time instead would charge the call's timer waits too: serve
# replies stall ~40 ms on Nagle + delayed ACK with no CPU running, and at a
# 39% stolen share of busy ticks that netting turned a 60.9 ms wall p50 into
# 39.5 ms against 52 ms unstolen.
STEAL_SAMPLE_S = 0.25
CPUS = os.cpu_count() or 1
STEAL_SHARE_MAX = 0.9  # a net time never drops below a tenth of the wall


def parse_cpu_line(line: str) -> Tuple[int, int]:
    """(stolen, total) ticks of the aggregate ``cpu`` line of /proc/stat;
    total counts user through steal, idle and iowait included (guest time
    is already inside user)."""
    fields = [int(v) for v in line.split()[1:9]]
    if len(fields) < 8:
        return 0, 0
    return fields[7], sum(fields)


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of this machine since boot; (0, 0) where
    the kernel does not report them."""
    try:
        with open("/proc/stat") as stat:
            return parse_cpu_line(stat.readline())
    except (OSError, ValueError):
        return 0, 0


def steal_share(samples: Sequence[Tuple[float, int, int]], begin: float, end: float,
                cpus: int = CPUS, parallel: int = PARALLEL) -> float:
    """Share of one activity's wall time stolen between the two
    ``(time, stolen, total)`` samples that bracket [begin, end] (or the
    nearest ones there are): the stolen CPU time of all ``cpus`` CPUs,
    divided among ``parallel`` activities."""
    if len(samples) < 2:
        return 0.0
    times = [sample[0] for sample in samples]
    hi = min(len(samples) - 1, max(1, bisect.bisect_left(times, end)))
    lo = min(hi - 1, max(0, bisect.bisect_right(times, begin) - 1))
    stolen = samples[hi][1] - samples[lo][1]
    total = samples[hi][2] - samples[lo][2]
    if total <= 0:
        return 0.0
    return min(STEAL_SHARE_MAX, stolen / total * cpus / parallel)


class StealLog:
    """This machine's stolen and total CPU ticks, sampled every
    ``STEAL_SAMPLE_S`` by a background thread for the whole run.

    A call shorter than the sampling interval gets the share of the interval
    around it: at 100 ticks a second, the ticks of one 30 ms call are too few
    to give a share of their own.
    """

    def __init__(self):
        self.samples: List[Tuple[float, int, int]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(STEAL_SAMPLE_S):
            self.sample()

    def sample(self) -> None:
        stolen, total = cpu_ticks()
        with self._lock:
            self.samples.append((time.perf_counter(), stolen, total))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def share(self, begin: float, end: float, parallel: int = PARALLEL) -> float:
        if end >= self.samples[-1][0]:
            self.sample()  # the interval just ended: close its bracket now
        with self._lock:
            samples = list(self.samples)
        return steal_share(samples, begin, end, parallel=parallel)

    def net_setup(self, begin: float, end: float) -> float:
        """Seconds from ``begin`` to ``end`` net of steal, for a setup: one
        process building one model, so all the stolen CPU time is its own."""
        return (end - begin) * (1.0 - self.share(begin, end, parallel=1))


def process_start() -> float:
    """When this process started, on the ``time.perf_counter`` clock (from
    /proc/self/stat, to the kernel's 10 ms tick)."""
    now_perf = time.perf_counter()
    now_boot = time.clock_gettime(time.CLOCK_BOOTTIME)
    with open("/proc/self/stat") as stat:
        started = int(stat.read().rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
    return now_perf - (now_boot - started)


# -- outcome accounting and statistics ---------------------------------------------
@dataclass
class Call:
    """One closed-loop call: when it ended, how long it took (wall), the
    share of CPU time stolen meanwhile, and what it did."""

    end: float
    latency: float
    images: int
    ok: bool
    steal: float = 0.0

    @property
    def begin(self) -> float:
        return self.end - self.latency

    @property
    def net_latency(self) -> float:
        return self.latency * (1.0 - self.steal)


@dataclass
class Tally:
    """Calls attempted in the timed phase and their verified outcomes.

    A call counts as failed when it raised, was refused, or returned an
    output that does not match the oracle; only verified images count
    towards throughput.
    """

    calls: List[Call] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    # Outcomes outside the timed phase (the setup's first replies): they
    # count in ok_share but carry no latency sample.
    untimed_ok: int = 0
    untimed_failed: int = 0

    def _error(self, error: Optional[str]) -> None:
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1

    def record(self, end: float, latency: float, images: int, ok: bool,
               error: Optional[str] = None) -> None:
        self.calls.append(Call(end, latency, images, ok))
        self._error(error)

    def record_untimed(self, ok: bool, error: Optional[str] = None) -> None:
        if ok:
            self.untimed_ok += 1
        else:
            self.untimed_failed += 1
            self._error(error)

    @property
    def attempted(self) -> int:
        return len(self.calls) + self.untimed_ok + self.untimed_failed

    @property
    def failed(self) -> int:
        return sum(1 for call in self.calls if not call.ok) + self.untimed_failed

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.calls else 0.0


def min_samples_for(percentile: float, beyond: int = 10) -> int:
    """Smallest sample count leaving ``beyond`` samples above ``percentile``."""
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    return math.ceil(beyond / (1.0 - percentile / 100.0) - 1e-9)


def tail_latency(latencies: Sequence[float], percentile: float, beyond: int = 10) -> float:
    """The ``percentile`` of ``latencies``; refuses a sample too small to
    leave ``beyond`` observations above it."""
    need = min_samples_for(percentile, beyond)
    if len(latencies) < need:
        raise ValueError(
            f"p{percentile:g} needs at least {need} samples for {beyond} beyond it, "
            f"got {len(latencies)}"
        )
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), percentile))


def segment_rates(calls: Sequence[Call], start: float, segments: int = 20,
                  net: bool = True) -> List[float]:
    """Verified images per second over ``segments`` runs of consecutive
    completions (verified images / time of the run), in time order.  With
    ``net`` the time is net of steal (the calls' latency-weighted share)."""
    done = sorted(calls, key=lambda call: call.end)
    size = max(1, len(done) // segments)
    rates = []
    previous = start
    for i in range(0, len(done) - size + 1, size):
        group = done[i : i + size]
        span = group[-1].end - previous
        previous = group[-1].end
        if net:
            busy = sum(call.latency for call in group)
            if busy > 0:
                span *= 1.0 - sum(call.latency * call.steal for call in group) / busy
        if span > 0:
            rates.append(sum(call.images for call in group if call.ok) / span)
    return rates


def segment_rate(calls: Sequence[Call], start: float, segments: int = 20,
                 net: bool = True) -> float:
    """The median of :func:`segment_rates`: a median of short windows keeps
    a burst of host contention from moving the figure the way a single
    phase-long average would."""
    rates = segment_rates(calls, start, segments, net)
    return float(statistics.median(rates)) if rates else 0.0


def end_to_end_metrics(tally: Tally, start: float, tail_pct: float, setup_s: float,
                       peak_rss_mb: float, figures: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    latencies = [call.net_latency for call in tally.calls]
    return {
        "setup_s": (setup_s, "s"),
        "images_per_s": (segment_rate(tally.calls, start), "1/s"),
        "p50_ms": (float(np.median(latencies)) * 1e3, "ms"),
        "tail_ms": (tail_latency(latencies, tail_pct) * 1e3, "ms"),
        "ok_share": (tally.ok_share, "share"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "flash_kb": (float(figures["flash_kb"]), "KiB"),
        "mcu_ms": (float(figures["mcu_ms"]), "ms_modelled"),
    }


# A traced run alternates tracing on and off in chunks of this many
# seconds; the rate difference between the two halves is the tracing cost.
TRACE_CHUNK_S = 1.0


def traced_chunk(t: float, start: float) -> bool:
    return int((t - start) / TRACE_CHUNK_S) % 2 == 1


def run_closed_loop(call, seconds: float, min_calls: int, clients: int = 1,
                    tracer: Optional["Tracer"] = None,
                    steal: Optional[StealLog] = None) -> Tuple[Tally, float, float]:
    """Drive ``call(client, index, tracer)`` from ``clients`` threads, each
    waiting for its reply before the next call, for ``seconds`` and at least
    ``min_calls`` calls.  ``call`` returns (images, ok, error).

    With a ``tracer``, calls that begin in odd chunks of the phase get it and
    the rest get a disabled one (see :func:`trace_overhead`).  With a
    ``steal`` log, each call records the share stolen around it.  Returns
    (tally, phase start, phase end).
    """
    tally = Tally()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    counter = itertools.count()

    def client(slot: int) -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline and len(tally.calls) >= min_calls:
                    return
                index = next(counter)
            begin = time.perf_counter()
            active = tracer if tracer is not None and traced_chunk(begin, start) else NO_TRACE
            try:
                images, ok, error = call(slot, index, active)
            except Exception as exc:  # a failed call is an outcome, not an abort
                images, ok, error = 0, False, type(exc).__name__
            end = time.perf_counter()
            with lock:
                tally.record(end, end - begin, images, ok, error)

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if steal is not None:
        for done in tally.calls:
            done.steal = steal.share(done.begin, done.end)
    return tally, start, end


def trace_overhead(tally: Tally, start: float, end: float) -> float:
    """Traced minus untraced verified images per second (negative: tracing
    costs throughput), from the chunks a traced :func:`run_closed_loop`
    alternated between."""
    images = {False: 0, True: 0}
    for call in tally.calls:
        if call.ok:
            images[traced_chunk(call.begin, start)] += call.images
    span = {False: 0.0, True: 0.0}
    t = start
    while t < end:
        step = min(TRACE_CHUNK_S, end - t)
        span[traced_chunk(t + step / 2, start)] += step
        t += step
    if not span[False] or not span[True]:
        return 0.0
    return images[True] / span[True] - images[False] / span[False]


# -- tracing ----------------------------------------------------------------------
class Tracer:
    """In-memory spans (name, start, end, parent, request id) recorded by the
    benchmark around its calls into the program; written out at the end."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        parent = stack[-1] if stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent["id"] if parent else None,
                  "request": request if request is not None else (
                      parent["request"] if parent else None)}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every finished span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        totals: Dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered = _covered(
                [(c["start"], c["end"]) for c in children.get(s["id"], ()) if c["end"] is not None],
                s["start"], s["end"],
            )
            totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


NO_TRACE = Tracer(enabled=False)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


# -- processes and host --------------------------------------------------------------
def await_ready(proc: subprocess.Popen, timeout: float) -> Dict[str, object]:
    """The JSON a child process prints after ``READY `` on its stdout once
    it is set up; raises if it exits or stays silent for ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"{proc.args[1]} did not become ready")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if not readable:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{proc.args[1]} exited with {proc.wait()}")
        if line.startswith("READY "):
            return json.loads(line[len("READY "):])


PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts: a descendant
    whose parent exits first (a server's worker or its multiprocessing
    resource tracker) is re-parented here rather than to init, so
    :func:`reap_children` can wait for it.  A no-op where prctl is missing."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children(grace: float = REAP_GRACE_S) -> None:
    """Wait until this process has no child left, adopted orphans included;
    whatever still runs after ``grace`` seconds is killed, with its whole
    subtree.  This process's own multiprocessing resource tracker is
    stopped first, since it lives as long as this process otherwise."""
    from multiprocessing import resource_tracker

    getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()
    deadline = time.monotonic() + grace
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        if time.monotonic() > deadline:
            for pid in process_tree(os.getpid())[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.02)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and all of its descendants (from /proc)."""
    found = [pid]
    for current in found:
        task_dir = Path(f"/proc/{current}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                found.extend(int(c) for c in (task / "children").read_text().split())
            except OSError:
                continue
    return found


def peak_rss_tree_mb(pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pid`` and its descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def host_stamp(seed: int) -> Dict[str, object]:
    """CPU model, core count, toolchain versions, source revision and seed."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                             timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        gcc = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": gcc,
        "git_sha": _source_revision(),
        "seed": seed,
    }


def _source_revision() -> Optional[str]:
    """The checkout's commit, or a digest of ``src/`` where git is absent."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def repeat_timed(fn, repeats: int) -> List[float]:
    """Wall time of each of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        times.append(time.perf_counter() - begin)
    return times


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
