"""Tests for the whole-network bit-serial inference engine."""

import numpy as np
import pytest

from repro.core import BitSerialInferenceEngine, EngineConfig
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


@pytest.fixture()
def calibration_loader():
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(32, 3, 32, 32))
    targets = rng.integers(0, 10, size=32)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


@pytest.fixture()
def engine(compressed_small_model, calibration_loader):
    eng = BitSerialInferenceEngine(
        compressed_small_model.model,
        compressed_small_model.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=None, calibration_batches=2),
    )
    eng.calibrate(calibration_loader)
    return eng


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(activation_bitwidth=0)
        with pytest.raises(ValueError):
            EngineConfig(lut_bitwidth=1)
        with pytest.raises(ValueError):
            EngineConfig(activation_bitwidth=4, active_bits=6)


class TestBitSerialInferenceEngine:
    def test_requires_weight_pool_layers(self, small_model):
        from repro.core.weight_pool import WeightPool

        with pytest.raises(ValueError):
            BitSerialInferenceEngine(small_model, WeightPool(np.zeros((4, 8))))

    @pytest.mark.parametrize("use_lut", [True, False])
    def test_predict_requires_calibration(self, compressed_small_model, use_lut):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(use_lut=use_lut),
        )
        with pytest.raises(RuntimeError, match="calibrate"):
            engine.predict(np.zeros((1, 3, 32, 32)))
        assert all(layer.runtime is None for layer in engine.layers)

    def test_bitserial_output_close_to_float_at_8bit(self, engine, compressed_small_model):
        """Full-precision LUT + 8-bit activations should track the float model closely."""
        x = np.random.default_rng(1).normal(size=(4, 3, 32, 32))
        compressed_small_model.model.eval()
        float_out = compressed_small_model.model(x)
        bitserial_out = engine.predict(x)
        scale = max(float(np.abs(float_out).max()), 1e-6)
        assert np.abs(bitserial_out - float_out).max() < 0.25 * scale
        correlation = np.corrcoef(float_out.ravel(), bitserial_out.ravel())[0, 1]
        assert correlation > 0.98

    def test_lower_bitwidth_increases_error(self, engine, compressed_small_model):
        x = np.random.default_rng(2).normal(size=(2, 3, 32, 32))
        compressed_small_model.model.eval()
        float_out = compressed_small_model.model(x)
        errors = []
        for bits in (8, 4, 2):
            engine.set_activation_bitwidth(bits)
            errors.append(float(np.abs(engine.predict(x) - float_out).mean()))
        assert errors[0] < errors[1] < errors[2]

    def test_no_lut_mode_matches_fake_quant_reference(self, compressed_small_model, calibration_loader):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, use_lut=False, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        x = np.random.default_rng(3).normal(size=(2, 3, 32, 32))
        out = engine.predict(x)
        assert np.all(np.isfinite(out))

    def test_quantized_lut_changes_output_slightly(self, compressed_small_model, calibration_loader):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, lut_bitwidth=None, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32))
        exact = engine.predict(x)
        engine.set_lut_bitwidth(8)
        quantized = engine.predict(x)
        assert not np.allclose(exact, quantized)
        assert np.abs(exact - quantized).max() < 0.5

    def test_evaluate_returns_fraction(self, engine, calibration_loader):
        accuracy = engine.evaluate(calibration_loader)
        assert 0.0 <= accuracy <= 1.0

    def test_evaluate_float_reference(self, engine, calibration_loader):
        accuracy = engine.evaluate_float(calibration_loader)
        assert 0.0 <= accuracy <= 1.0

    def test_set_bitwidth_requires_calibration(self, compressed_small_model):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model, compressed_small_model.pool
        )
        with pytest.raises(RuntimeError):
            engine.set_activation_bitwidth(4)

    def test_recalibration_refreshes_input_shape(self, engine):
        """Regression: a second calibrate() must re-record the data shape."""
        assert engine.input_shape == (3, 32, 32)
        rng = np.random.default_rng(5)
        small = DataLoader(
            ArrayDataset(rng.normal(size=(16, 3, 16, 16)), rng.integers(0, 10, 16)),
            batch_size=8,
        )
        engine.calibrate(small)
        assert engine.input_shape == (3, 16, 16)
        out = engine.predict(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 10)

    def test_compile_returns_program_and_predict_delegates(self, engine):
        from repro.core import NetworkProgram

        program = engine.compile()
        assert isinstance(program, NetworkProgram)
        assert program.bound
        x = np.random.default_rng(11).normal(size=(2, 3, 32, 32))
        out = engine.predict(x)  # graph path: runtimes never installed
        assert out.shape == (2, 10)
        assert all(layer.runtime is None for layer in engine.layers)


class TestSetActivationBitwidthActiveBits:
    """Regression: set_activation_bitwidth used to silently reset active_bits."""

    def test_valid_active_bits_preserved(self, compressed_small_model, calibration_loader):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, active_bits=3, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        engine.set_activation_bitwidth(6)
        assert engine.config.active_bits == 3

    def test_invalid_active_bits_warns_and_resets(
        self, compressed_small_model, calibration_loader
    ):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, active_bits=6, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        with pytest.warns(UserWarning, match="active_bits"):
            engine.set_activation_bitwidth(4)
        assert engine.config.active_bits is None
        # The resulting config stays valid and executable.
        x = np.random.default_rng(12).normal(size=(2, 3, 32, 32))
        assert np.all(np.isfinite(engine.predict(x)))


class TestEngineLifecycle:
    """Runtime install/uninstall safety of calibration and No-LUT mode."""

    def test_no_lut_predict_uninstalls_after_exception(
        self, compressed_small_model, calibration_loader
    ):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(use_lut=False, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        with pytest.raises(ValueError):
            engine.predict(np.zeros((1, 5, 32, 32)))  # wrong channel count
        assert all(layer.runtime is None for layer in engine.layers)

    def test_calibrate_uninstalls_after_loader_exception(
        self, compressed_small_model
    ):
        class ExplodingLoader:
            def __iter__(self):
                raise RuntimeError("boom")

        engine = BitSerialInferenceEngine(
            compressed_small_model.model, compressed_small_model.pool
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.calibrate(ExplodingLoader())
        assert all(layer.runtime is None for layer in engine.layers)
