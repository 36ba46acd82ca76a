"""Tests for streaming execution: dirty-tile incremental inference.

Edge cases the propagation rules must survive bitwise (threshold 0):
padding borders (corner dirty tiles), stride-2 convolutions, fused chains
spanning a pooling step, and regions that dilate to the full frame — each
compared against the non-streaming executor, bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    StreamUnsupported,
    compile_network,
    compile_stream_plan,
    compress_model,
    stream_support,
)
from repro.datasets import PatternLibrary
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


def _compiled_program(model_name, image_size=32, **model_kwargs):
    model = create_model(
        model_name, num_classes=10, in_channels=3, rng=0, **model_kwargs
    )
    result = compress_model(
        model, (3, image_size, image_size), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=0,
    )
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(32, 3, image_size, image_size))
    targets = rng.integers(0, 10, size=32)
    loader = DataLoader(ArrayDataset(inputs, targets), batch_size=16)
    engine = BitSerialInferenceEngine(
        result.model, result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(loader)
    return engine.compile(level="O2")


@pytest.fixture(scope="module")
def resnet_plan():
    """resnet_s_tiny: padding-1 convs, stride-2 downsample convs, residual
    adds — compiled with a fixed crossover so tests are deterministic."""
    program = _compiled_program("resnet_s_tiny")
    return compile_stream_plan(program, tile=8, crossover=1.0, seed=0)


@pytest.fixture(scope="module")
def tinyconv_plan():
    """tinyconv: float stem conv (padding 2) + max/avg pools between the
    bit-serial convs — the chain-spanning-a-pool case."""
    program = _compiled_program("tinyconv")
    return compile_stream_plan(program, tile=8, crossover=1.0, seed=0)


def _frame(plan, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(plan.input_shape)


def _perturbed(frame, region, seed=1):
    rng = np.random.default_rng(seed)
    y0, y1, x0, x1 = region
    out = frame.copy()
    out[:, y0:y1, x0:x1] += rng.standard_normal(out[:, y0:y1, x0:x1].shape)
    return out


def _oracle(plan, frame):
    return plan.executor.run(frame[None])[0]


class TestStreamSupport:
    def test_metadata_shape(self, resnet_plan):
        support = stream_support(resnet_plan.program)
        assert support["supported"] is True
        kinds = [r["rule"] for r in support["rules"]]
        assert "dilate" in kinds and "cutoff" in kinds
        cutoff = support["cutoff_index"]
        assert support["rules"][cutoff]["rule"] == "cutoff"
        # Everything before the cutoff is spatially streamable.
        assert all(r["rule"] in ("dilate", "pass") for r in support["rules"][:cutoff])

    def test_unbound_program_rejected(self):
        model = create_model("resnet_s_tiny", num_classes=10, in_channels=3, rng=0)
        result = compress_model(
            model, (3, 32, 32), pool_size=16,
            policy=CompressionPolicy(group_size=8), seed=0,
        )
        program = compile_network(result.model, (3, 32, 32))
        with pytest.raises(StreamUnsupported) as exc:
            compile_stream_plan(program)
        assert exc.value.reason == "stream_unsupported"

    def test_bad_arguments(self, resnet_plan):
        with pytest.raises(ValueError):
            compile_stream_plan(resnet_plan.program, tile=0)
        with pytest.raises(ValueError):
            compile_stream_plan(
                resnet_plan.program, crossover=1.5, executor=resnet_plan.executor,
                verify=False,
            )
        with pytest.raises(ValueError):
            resnet_plan.session(threshold=-1.0)


class TestBitExactness:
    """Threshold 0 ⇒ streamed outputs identical to the executor's."""

    def test_pattern_stream_identity(self, resnet_plan):
        library = PatternLibrary(num_classes=4, channels=3, image_size=32, seed=0)
        stream = library.stream(1, change_fraction=0.1, rng=3)
        session = resnet_plan.session(threshold=0.0)
        modes = []
        for _ in range(6):
            frame = stream.next()
            out, info = session.process(frame)
            modes.append(info["mode"])
            np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))
        assert modes[0] == "full"
        assert "incremental" in modes[1:]

    @pytest.mark.parametrize(
        "corner",
        [(0, 5, 0, 5), (0, 5, 27, 32), (27, 32, 0, 5), (27, 32, 27, 32)],
        ids=["top-left", "top-right", "bottom-left", "bottom-right"],
    )
    def test_padding_border_corner_tiles(self, resnet_plan, corner):
        """Dirty tiles touching the image border exercise the conv halo
        padding (out-of-range rows filled with the layer zero point)."""
        base = _frame(resnet_plan)
        frame = _perturbed(base, corner)
        session = resnet_plan.session(threshold=0.0)
        session.process(base)
        out, info = session.process(frame)
        assert info["mode"] == "incremental"
        np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))

    def test_stride2_convs_odd_offsets(self, resnet_plan):
        """Tile-unaligned regions through the stride-2 downsample convs."""
        base = _frame(resnet_plan)
        for region in [(3, 11, 5, 14), (9, 10, 21, 22), (14, 25, 0, 7)]:
            frame = _perturbed(base, region)
            session = resnet_plan.session(threshold=0.0)
            session.process(base)
            out, info = session.process(frame)
            assert info["mode"] == "incremental"
            np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))

    def test_chain_spanning_pool(self, tinyconv_plan):
        """A dirty region crossing a pooling-window boundary propagates
        through conv → pool → quantize → bit-serial conv chains bitwise."""
        base = _frame(tinyconv_plan)
        # Straddles the 2x2 max-pool grid and the 8-pixel tile grid.
        frame = _perturbed(base, (5, 12, 7, 13))
        session = tinyconv_plan.session(threshold=0.0)
        session.process(base)
        out, info = session.process(frame)
        assert info["mode"] == "incremental"
        np.testing.assert_array_equal(out, _oracle(tinyconv_plan, frame))

    def test_dilation_to_full_frame_degrades_bitwise(self, resnet_plan):
        """A region dilating to the whole frame must degrade to exactly the
        non-streaming result (the incremental path over everything)."""
        h, w = resnet_plan.input_shape[1:]
        base = _frame(resnet_plan)
        # Dirty everywhere except one clean tile row: stays under the fixed
        # crossover (1.0) so the incremental path runs, but the receptive
        # field dilates the region to the full frame within a layer or two.
        frame = _perturbed(base, (0, h - resnet_plan.tile, 0, w))
        session = resnet_plan.session(threshold=0.0)
        session.process(base)
        out, info = session.process(frame)
        assert info["mode"] == "incremental"
        np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))

    def test_consecutive_incremental_frames_accumulate(self, resnet_plan):
        """The reference state stays exact across many incremental frames
        with disjoint and overlapping dirty regions."""
        base = _frame(resnet_plan)
        session = resnet_plan.session(threshold=0.0)
        session.process(base)
        frame = base
        for i, region in enumerate([(0, 6, 0, 6), (20, 30, 18, 28), (4, 9, 2, 12)]):
            frame = _perturbed(frame, region, seed=10 + i)
            out, _ = session.process(frame)
            np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))


class TestModes:
    def test_identical_frame_is_cached(self, resnet_plan):
        base = _frame(resnet_plan)
        session = resnet_plan.session(threshold=0.0)
        first, _ = session.process(base)
        out, info = session.process(base.copy())
        assert info["mode"] == "cached"
        assert info["dirty_tiles"] == 0
        np.testing.assert_array_equal(out, first)

    def test_crossover_fallback_engages(self):
        program = _compiled_program("resnet_s_tiny")
        plan = compile_stream_plan(
            program, tile=8, crossover=0.3, seed=0, verify=False
        )
        base = _frame(plan)
        frame = _perturbed(base, (0, 24, 0, 24))  # 56% of the frame dirty
        session = plan.session(threshold=0.0)
        session.process(base)
        out, info = session.process(frame)
        assert info["mode"] == "full"
        assert info["reason"] == "crossover"
        assert info["dirty_fraction"] >= 0.3
        np.testing.assert_array_equal(out, _oracle(plan, frame))

    def test_lossy_threshold_memoizes_small_changes(self, resnet_plan):
        base = _frame(resnet_plan)
        session = resnet_plan.session(threshold=0.05)
        first, _ = session.process(base)
        out, info = session.process(base + 0.01)  # sub-threshold everywhere
        assert info["mode"] == "cached"
        np.testing.assert_array_equal(out, first)

    def test_reset_recovers_with_full_recompute(self, resnet_plan):
        base = _frame(resnet_plan)
        session = resnet_plan.session(threshold=0.0)
        session.process(base)
        session.reset()
        frame = _perturbed(base, (0, 4, 0, 4))
        out, info = session.process(frame)
        assert info["mode"] == "full"
        assert info["reason"] == "first_frame"
        np.testing.assert_array_equal(out, _oracle(resnet_plan, frame))

    def test_frame_shape_validation(self, resnet_plan):
        session = resnet_plan.session()
        with pytest.raises(ValueError):
            session.process(np.zeros((3, 16, 16)))


class TestRecording:
    def test_compile_records_like_autotune(self, resnet_plan):
        record = resnet_plan.counters
        assert record["crossover"]["source"] == "fixed"
        assert record["steps"] == len(resnet_plan.steps)
        assert record["crop_steps"] > 0
        assert record["demoted_steps"] == []
        passes = {
            p["name"]: p
            for p in resnet_plan.program.pipeline_report["passes"]
        }
        assert "stream_plan" in passes
        assert passes["stream_plan"]["decisions"]["crossover"]["fraction"] == 1.0
        if resnet_plan.executor.plan_info is not None:
            assert "stream" in resnet_plan.executor.plan_info

    def test_measured_crossover_in_range(self):
        program = _compiled_program("resnet_s_tiny")
        plan = compile_stream_plan(program, tile=8, seed=0, verify=False)
        cross = plan.counters["crossover"]
        assert cross["source"] == "measured"
        assert 0.05 <= cross["fraction"] <= 0.95
        assert cross["t_full_ms"] > 0

    def test_session_stats(self, resnet_plan):
        base = _frame(resnet_plan)
        session = resnet_plan.session(threshold=0.0)
        session.process(base)
        session.process(_perturbed(base, (0, 4, 0, 4)))
        stats = session.stats()
        assert stats["frames"] == 2
        assert stats["full"] == 1
        assert stats["incremental"] == 1
        assert stats["state_bytes"] > 0
        assert 0.0 < stats["avg_dirty_fraction"] < 1.0
