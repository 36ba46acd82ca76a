"""Tests for whole-network lowering, the program IR, passes, and the executor."""

from dataclasses import replace

import numpy as np
import pytest

import repro.mcu  # noqa: F401  (registers the 'cost' executor backend)
from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    compress_model,
    compile_network,
    load_program,
    lower_model,
    package_from_program,
    save_program,
)
from repro.mcu import MC_LARGE, BitSerialKernelConfig, estimate_weight_pool_network
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


def _loader(seed=0, n=32, channels=3):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, channels, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


def _calibrated_engine(model_name, seed=0, lut_bitwidth=None, model_kwargs=None,
                       **policy_kwargs):
    model = create_model(
        model_name, num_classes=10, in_channels=3, rng=seed, **(model_kwargs or {})
    )
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8, **policy_kwargs), seed=seed,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=lut_bitwidth, calibration_batches=2),
    )
    engine.calibrate(_loader(seed))
    return engine


class TestLowering:
    def test_resnet_graph_has_residual_adds(self):
        model = create_model("resnet14_tiny", num_classes=10, rng=0)
        graph = lower_model(model, (3, 32, 32))
        kinds = graph.kinds()
        assert kinds.count("add") == 6  # one per BasicBlock
        assert kinds.count("conv") == 14 + 1  # 14 block/shortcut convs + stem
        assert kinds[-1] == "linear"  # classifier last

    def test_shape_inference_rejects_channel_mismatch(self):
        model = create_model("resnet_s_tiny", num_classes=10, in_channels=3, rng=0)
        with pytest.raises(ValueError):
            lower_model(model, (4, 32, 32))

    def test_unsupported_module_raises_not_implemented(self):
        from repro.nn import Module

        class Opaque(Module):
            def forward(self, x):
                return x

        with pytest.raises(NotImplementedError):
            lower_model(Opaque(), (3, 32, 32))


class TestCompile:
    def test_unbound_program_is_structural(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        assert not program.bound
        assert program.count("bitserial_conv") > 0
        with pytest.raises(RuntimeError):
            Executor(program, backend="plan")

    def test_lut_without_params_rejected(self, compressed_small_model, small_pool):
        from repro.core import build_lut

        with pytest.raises(ValueError):
            compile_network(
                compressed_small_model.model, (3, 32, 32), lut=build_lut(small_pool)
            )

    def test_optimize_folds_batchnorm_and_fuses_requantize(self):
        engine = _calibrated_engine("resnet14_tiny")
        plain = engine.compile(level="O0")
        optimized = engine.compile(level="O2")
        # Every BatchNorm behind a compressed conv folds into the epilogue;
        # only the (uncompressed) stem's BN survives.
        assert plain.count("batchnorm") == 15
        assert optimized.count("batchnorm") == 1
        # conv1 -> bn1 -> relu1 -> conv2 chains elide their dequantize/quantize
        # pair, one per BasicBlock; CSE merges the downsample blocks' duplicate
        # (conv1, shortcut) quantizes of the same buffer.
        assert optimized.count("requantize") == 6
        assert optimized.count("quantize") == plain.count("quantize") - 6 - 2
        # Folded relu2s before the downsample stages disappear entirely.
        assert optimized.count("activation") < plain.count("activation")

    def test_traces_match_dummy_forward_tracing(self):
        from repro.core import trace_model

        model = create_model("mobilenetv2_tiny", num_classes=10, rng=0)
        program = compile_network(model, (3, 32, 32))
        legacy = trace_model(model, (3, 32, 32))
        derived = program.layer_traces()
        assert len(derived) == len(legacy)
        for got, want in zip(derived, legacy):
            assert (got.kind, got.in_channels, got.out_channels) == (
                want.kind, want.in_channels, want.out_channels
            )
            assert (got.input_hw, got.output_hw) == (want.input_hw, want.output_hw)
            assert got.is_first == want.is_first
            assert got.macs == want.macs

    def test_describe_lists_ops(self):
        engine = _calibrated_engine("resnet_s_tiny")
        text = engine.compile().describe()
        assert "bitserial_conv" in text and "requantize" in text


class TestExecutorDetails:
    def test_unknown_backend_raises(self):
        engine = _calibrated_engine("resnet_s_tiny")
        with pytest.raises(KeyError):
            Executor(engine.compile(), backend="no-such-backend")

    def test_interpreter_runs_are_repeatable(self):
        engine = _calibrated_engine("resnet_s_tiny")
        executor = Executor(engine.compile(level="O1"))
        assert executor.exec_plan is None
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32))
        first = executor.run(x)
        np.testing.assert_array_equal(executor.run(x), first)

    def test_linear_only_model_compiles_from_feature_inputs(self):
        """Regression: (N, F) models lower from an (F,) input shape."""
        from repro.core import BitSerialInferenceEngine, EngineConfig
        from repro.core.layers import WeightPoolLinear
        from repro.core.weight_pool import WeightPool
        from repro.nn import Linear, ReLU, Sequential

        rng = np.random.default_rng(0)
        pool = WeightPool(vectors=rng.normal(size=(16, 8)))
        model = Sequential(
            WeightPoolLinear(32, 16, pool, rng=0), ReLU(), Linear(16, 10, rng=1)
        )
        inputs = rng.normal(size=(32, 32))
        targets = rng.integers(0, 10, size=32)
        loader = DataLoader(ArrayDataset(inputs, targets), batch_size=16)
        engine = BitSerialInferenceEngine(
            model, pool, EngineConfig(lut_bitwidth=8, calibration_batches=2)
        )
        engine.calibrate(loader)
        assert engine.compile().input_shape == (32,)
        out = engine.predict(rng.normal(size=(4, 32)))
        assert out.shape == (4, 10)
        assert 0.0 <= engine.evaluate(loader) <= 1.0

    def test_active_bits_truncation_through_graph(self):
        engine = _calibrated_engine("resnet_s_tiny")
        x = np.random.default_rng(6).normal(size=(2, 3, 32, 32))
        full = engine.predict(x)
        engine.config = replace(engine.config, active_bits=4)
        truncated = engine.predict(x)
        assert not np.allclose(full, truncated)


class TestProgramSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        engine = _calibrated_engine("resnet14_tiny", lut_bitwidth=8)
        program = engine.compile()
        x = np.random.default_rng(8).normal(size=(2, 3, 32, 32))
        expected = engine.predict(x)
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.kinds() == program.kinds()
        out = Executor(loaded, backend="plan").run(x)
        np.testing.assert_array_equal(out, expected)

    def test_loaded_program_needs_no_modules(self, tmp_path):
        engine = _calibrated_engine("resnet_s_tiny", lut_bitwidth=8)
        path = tmp_path / "program.npz"
        save_program(engine.compile(), path)
        loaded = load_program(path)
        assert all(op.module is None for op in loaded.ops)
        traces = loaded.layer_traces()
        assert any(t.kind == "conv" for t in traces)

    def test_structural_program_cannot_serialize(self, compressed_small_model, tmp_path):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        with pytest.raises(ValueError):
            save_program(program, tmp_path / "x.npz")

    def test_package_from_program_matches_flash_contents(self):
        engine = _calibrated_engine("resnet_s_tiny", lut_bitwidth=8)
        program = engine.compile()
        package = package_from_program(program, "resnet_s_tiny")
        assert len(package.layers) == len(program.layer_traces())
        compressed = package.compressed_layers
        assert len(compressed) == program.count("bitserial_conv") + program.count(
            "bitserial_linear"
        )
        # Packed indices round-trip through the artifact.
        bitserial_ops = [
            op for op in program.ops if op.kind.startswith("bitserial")
        ]
        for artifact, op in zip(compressed, bitserial_ops):
            np.testing.assert_array_equal(artifact.unpack_indices(), op.attrs["indices"])
            assert artifact.activation_scale == op.attrs["params"].scale
        assert package.flash_bytes > 0


class TestCostBackend:
    def test_cost_backend_reports_layer_cycles(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        executor = Executor(
            program,
            backend="cost",
            device=MC_LARGE,
            config=BitSerialKernelConfig(pool_size=16),
        )
        assert executor.total_cycles > 0
        compressed = [l for l in executor.layer_latencies if l.compressed]
        assert len(compressed) == program.count("bitserial_conv") + program.count(
            "bitserial_linear"
        )

    def test_cost_backend_agrees_with_estimator(self, compressed_small_model):
        config = BitSerialKernelConfig(pool_size=16)
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        executor = Executor(program, backend="cost", device=MC_LARGE, config=config)
        report = estimate_weight_pool_network(
            compressed_small_model.model, (3, 32, 32), MC_LARGE, config
        )
        assert executor.total_cycles == pytest.approx(report.total_cycles)

    def test_cost_backend_accepts_engine_options(self, compressed_small_model):
        """Regression: the engine forwards active_bits to every backend bind."""
        config = BitSerialKernelConfig(pool_size=16)
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        full = Executor(program, backend="cost", device=MC_LARGE, config=config)
        truncated = Executor(
            program, backend="cost", device=MC_LARGE, config=config, active_bits=4
        )
        assert truncated.total_cycles < full.total_cycles

    def test_cost_backend_run_propagates_shapes(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        executor = Executor(
            program, backend="cost", device=MC_LARGE,
            config=BitSerialKernelConfig(pool_size=16),
        )
        out = executor.run(np.zeros((3, 3, 32, 32)))
        assert out.shape == (3, 10)
