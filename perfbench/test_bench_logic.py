"""Tests of the benchmark's own logic (not of the program it measures).

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_common as bc  # noqa: E402


# -- the tail-percentile rule ----------------------------------------------------------
@pytest.mark.parametrize("percentile, need", [(80.0, 50), (95.0, 200), (99.0, 1000)])
def test_min_samples_leaves_ten_beyond(percentile, need):
    assert bc.min_samples_for(percentile) == need
    samples = np.arange(need, dtype=float)
    tail = bc.tail_latency(samples, percentile)
    assert (samples > tail).sum() >= 10


@pytest.mark.parametrize("percentile", [80.0, 95.0])
def test_tail_refuses_too_few_samples(percentile):
    need = bc.min_samples_for(percentile)
    with pytest.raises(ValueError, match="needs at least"):
        bc.tail_latency(np.ones(need - 1), percentile)


def test_min_samples_rejects_degenerate_percentiles():
    for percentile in (0.0, 100.0):
        with pytest.raises(ValueError):
            bc.min_samples_for(percentile)


# -- ok_share accounting -----------------------------------------------------------------
def test_wrong_output_counts_as_failure():
    expected = np.array([[0.1, 0.9, 0.0], [0.5, 0.2, 0.3]])
    assert bc.matches_oracle(expected + 1e-12, expected)
    wrong_label = expected[:, ::-1]
    wrong_logits = expected * (1 + 1e-3)
    assert not bc.matches_oracle(wrong_label, expected)
    assert not bc.matches_oracle(wrong_logits, expected)
    assert not bc.matches_oracle(np.full_like(expected, np.nan), expected)
    assert not bc.matches_oracle(expected[:1], expected)


def test_closed_loop_counts_mismatches_and_errors_without_aborting():
    expected = np.eye(4)

    def call(slot, index, tracer):
        if index == 3:
            raise ConnectionError("injected")
        out = expected[index % 4]
        if index == 5:
            out = out[::-1]  # injected wrong output
        ok = bc.matches_oracle(out, expected[index % 4])
        return 2, ok, None if ok else "mismatch"

    tally, start, end = bc.run_closed_loop(call, seconds=0.0, min_calls=20, clients=1)
    assert tally.attempted == 20
    assert tally.failed == 2
    assert tally.errors == {"ConnectionError": 1, "mismatch": 1}
    assert tally.ok_share == pytest.approx(18 / 20)
    tally.record_untimed(False, "setup_mismatch")
    assert (tally.attempted, tally.failed) == (21, 3)
    # Only verified images count towards throughput.
    assert sum(c.images for c in tally.calls if c.ok) == 36


def test_segment_rate_ignores_failed_calls():
    calls = [bc.Call(end=float(i + 1), latency=1.0, images=4, ok=i % 2 == 0) for i in range(40)]
    assert bc.segment_rate(calls, start=0.0) == pytest.approx(2.0)


# -- hypervisor steal -----------------------------------------------------------------------
def test_timings_are_net_of_steal():
    calls = [bc.Call(end=i + 1.0, latency=1.0, images=4, ok=True, steal=0.25) for i in range(40)]
    assert calls[0].net_latency == pytest.approx(0.75)
    assert bc.segment_rate(calls, start=0.0) == pytest.approx(4 / 0.75)
    assert bc.segment_rate(calls, start=0.0, net=False) == pytest.approx(4.0)


def test_steal_is_stolen_cpu_time_shared_by_the_parallel_activities():
    # Two vCPUs over one second (200 ticks), 40 of them stolen: 0.4 CPU
    # seconds lost, 0.2 s by each of two activities, 0.4 s by a lone one.
    # Idle and iowait ticks count in the total.
    before = bc.parse_cpu_line("cpu  1000 0 200 5000 50 0 10 100 0 0")
    after = bc.parse_cpu_line("cpu  1070 0 210 5070 60 0 10 140 0 0")
    assert (after[0] - before[0], after[1] - before[1]) == (40, 200)
    samples = [(0.0,) + before, (1.0,) + after]
    assert bc.steal_share(samples, 0.2, 0.8, cpus=2, parallel=2) == pytest.approx(0.2)
    assert bc.steal_share(samples, 0.2, 0.8, cpus=2, parallel=1) == pytest.approx(0.4)
    assert bc.steal_share([(0.0, 0, 0), (1.0, 400, 400)], 0.0, 1.0, cpus=4, parallel=1) \
        == bc.STEAL_SHARE_MAX


def test_steal_share_uses_the_samples_bracketing_the_interval():
    one = dict(cpus=1, parallel=1)
    samples = [(0.0, 0, 0), (1.0, 0, 100), (2.0, 50, 200), (3.0, 50, 300)]
    assert bc.steal_share(samples, 1.2, 1.4, **one) == pytest.approx(0.5)  # inside one interval
    assert bc.steal_share(samples, 0.5, 2.5, **one) == pytest.approx(50 / 300)
    assert bc.steal_share(samples, 3.5, 4.0, **one) == 0.0  # past the last sample
    assert bc.steal_share(samples[:1], 0.0, 1.0, **one) == 0.0
    assert bc.steal_share([(0.0, 5, 7), (1.0, 5, 7)], 0.0, 1.0, **one) == 0.0  # no ticks


def test_steal_log_samples_this_machine():
    log = bc.StealLog()
    try:
        begin = time.perf_counter()
        share = log.share(begin, begin + 0.01)
    finally:
        log.close()
    assert 0.0 <= share <= 1.0
    assert len(log.samples) >= 2
    stolen, total = bc.cpu_ticks()
    assert 0 <= stolen <= total


def test_process_start_is_before_now():
    assert 0.0 <= time.perf_counter() - bc.process_start() < 3600.0


# Run in a child so the test process itself never becomes a subreaper.
ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
import bench_common as bc
bc.adopt_orphans()
# The shell exits at once, leaving its background sleep an orphan.
shell = ["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"]
orphan = int(subprocess.run(shell, capture_output=True, text=True).stdout)
begin = time.monotonic()
bc.reap_children(grace=0.5)
try:
    os.kill(orphan, 0)
    alive = True
except ProcessLookupError:
    alive = False
print(alive, time.monotonic() - begin, len(bc.process_tree(os.getpid())) - 1)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl subreaper is Linux-only")
def test_orphans_are_adopted_killed_and_reaped():
    out = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, str(HERE)],
                         capture_output=True, text=True, timeout=60, check=True).stdout.split()
    alive, waited, children = out[0] == "True", float(out[1]), int(out[2])
    assert not alive and children == 0
    assert waited < 10.0  # killed after the grace, not waited out


# -- tracing -----------------------------------------------------------------------------
def test_self_times_and_remainder_add_up_to_the_call():
    tracer = bc.Tracer()
    with tracer.span("call", request=1):
        with tracer.span("program.run"):
            pass
        with tracer.span("http.request"):
            with tracer.span("program.run"):
                pass
    total = tracer.seconds("call")
    assert sum(tracer.self_seconds().values()) == pytest.approx(total, rel=1e-9, abs=1e-12)
    assert {s["request"] for s in tracer.spans} == {1}


# -- seeded inputs ---------------------------------------------------------------------------
def test_same_seed_same_inputs():
    import bench_offline
    import bench_serve

    pool_a, orders_a = bench_offline.make_inputs(7)
    pool_b, orders_b = bench_offline.make_inputs(7)
    np.testing.assert_array_equal(pool_a, pool_b)
    for a, b in zip(orders_a, orders_b):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(pool_a, bench_offline.make_inputs(8)[0])

    first, second = bench_serve.PredictTraffic(7), bench_serve.PredictTraffic(7)
    assert first.bodies == second.bodies
    np.testing.assert_array_equal(first.order, second.order)

    frames = bench_serve.stream_frames(7, 0)
    np.testing.assert_array_equal(frames, bench_serve.stream_frames(7, 0))
    assert not np.array_equal(frames, bench_serve.stream_frames(7, 1))


def test_pingpong_walks_back_and_forth():
    import bench_serve

    assert [bench_serve.pingpong(n, 4) for n in range(9)] == [0, 1, 2, 3, 2, 1, 0, 1, 2]


# -- deterministic deployment figures ------------------------------------------------------
@pytest.mark.parametrize("recipe", [bc.RESNET_A8, bc.RESNET_A4, bc.TINYCONV_STREAM],
                         ids=lambda r: f"{r.model}-a{r.activation_bits}")
def test_flash_and_mcu_figures_repeat_exactly(recipe):
    runs = [bc.deployment_figures(recipe, bc.compress(recipe, bc.build_model(recipe)))
            for _ in range(2)]
    assert runs[0]["flash_kb"] == runs[1]["flash_kb"] > 0
    assert runs[0]["mcu_ms"] == runs[1]["mcu_ms"] > 0
    assert runs[0]["mcu_layers"] == runs[1]["mcu_layers"]


def test_benchmark_json_lists_what_run_prints():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
