"""Every execution path against the one oracle.

The oracle is the ``O0`` program on the ``reference`` backend:
``Executor(engine.compile(level="O0"), backend="reference")`` — the
tap-loop kernels of :mod:`repro.core.bitserial` with the explicit epilogue
association.  Each model below runs the ``plan`` backend at ``O0``–``O3``
against it within the numerics contract the end-to-end benchmark checks
replies with (rtol 1e-6, atol 1e-9), with identical argmax.  The No-LUT
mode is pinned bitwise to a hand-written fake-quant forward, and executors
shared across threads are pinned bitwise to a serial run.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    compress_model,
)
from repro.core.layers import WeightPoolLinear
from repro.core.weight_pool import WeightPool
from repro.models import create_model
from repro.nn import DataLoader, Linear, Module, ReLU, Sequential
from repro.nn.data.dataset import ArrayDataset
from repro.quantization.quantizer import fake_quantize

RTOL, ATOL = 1e-6, 1e-9
LEVELS = ("O0", "O1", "O2", "O3")


def _image_loader(seed=0, n=32, size=32):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 3, size, size))
    return DataLoader(ArrayDataset(inputs, rng.integers(0, 10, size=n)), batch_size=16)


def _conv_engine(model_name, model_kwargs=None, **policy_kwargs):
    model = create_model(model_name, num_classes=10, in_channels=3, rng=0, **(model_kwargs or {}))
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8, **policy_kwargs), seed=0,
    )
    engine = BitSerialInferenceEngine(
        result.model, result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(_image_loader())
    return engine


def _linear_parts(seed=0):
    rng = np.random.default_rng(seed)
    pool = WeightPool(vectors=rng.normal(size=(16, 8)))
    fc1 = WeightPoolLinear(32, 16, pool, rng=0)
    fc2 = Linear(16, 10, rng=1)
    loader = DataLoader(
        ArrayDataset(rng.normal(size=(32, 32)), rng.integers(0, 10, size=32)), batch_size=16
    )
    return pool, fc1, fc2, loader


def _linear_engine(use_lut=True):
    pool, fc1, fc2, loader = _linear_parts()
    engine = BitSerialInferenceEngine(
        Sequential(fc1, ReLU(), fc2), pool,
        EngineConfig(lut_bitwidth=8, calibration_batches=2, use_lut=use_lut),
    )
    engine.calibrate(loader)
    return engine


MODELS = {
    "resnet14_tiny": lambda: _conv_engine("resnet14_tiny"),
    "mobilenetv2_tiny": lambda: _conv_engine("mobilenetv2_tiny"),
    # 5-channel convs under group size 8: exercises pad_channels.
    "tinyconv_padded": lambda: _conv_engine(
        "tinyconv", model_kwargs={"width_mult": 0.15},
        pad_channels=True, compress_first_layer=False,
    ),
    "linear_only": _linear_engine,
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def engine(request):
    return MODELS[request.param]()


@pytest.fixture(scope="module")
def resnet_engine():
    return MODELS["resnet14_tiny"]()


def _batch(engine, n=5, seed=1):
    return np.random.default_rng(seed).normal(size=(n,) + engine.input_shape)


def _oracle(engine, x, input_shape=None):
    program = engine.compile(level="O0", input_shape=input_shape)
    return Executor(program, backend="reference").run(x)


class TestLevelsAgainstOracle:
    @pytest.mark.parametrize("level", LEVELS)
    def test_plan_backend_tracks_the_oracle(self, engine, level):
        x = _batch(engine)
        expected = _oracle(engine, x)
        got = engine._executor(level=level, backend="plan").run(x)
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    def test_predict_runs_the_compiled_program(self, engine):
        x = _batch(engine, seed=2)
        np.testing.assert_array_equal(engine.predict(x), engine._executor().run(x))
        assert all(layer.runtime is None for layer in engine.layers)

    def test_padded_model_lowers_pad_channels(self):
        engine = MODELS["tinyconv_padded"]()
        assert engine.compile(level="O0").count("pad_channels") > 0


class TestInputShapes:
    def test_predict_at_another_spatial_size_matches_the_oracle(self, resnet_engine):
        """Calibrated at 32×32, predicting 16×16 compiles a 16×16 program."""
        x = np.random.default_rng(3).normal(size=(2, 3, 16, 16))
        got = resnet_engine.predict(x)
        expected = _oracle(resnet_engine, x, input_shape=(3, 16, 16))
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    def test_planned_run_at_the_wrong_shape_raises(self, resnet_engine):
        executor = resnet_engine._executor(level="O2")
        assert executor.exec_plan is not None
        x = np.zeros((2, 3, 16, 16))
        with pytest.raises(ValueError, match=r"\(3, 16, 16\).*\(3, 32, 32\)"):
            executor.run(x)


class TestNoLutMode:
    def test_predict_equals_hand_written_fake_quant_forward(self):
        engine = _linear_engine(use_lut=False)
        _, fc1, fc2, _ = _linear_parts()  # same seeds: identical parameters
        x = np.random.default_rng(4).normal(size=(6, 32))
        got = engine.predict(x)
        params = engine.activation_params[id(engine.layers[0])]
        hidden = fake_quantize(x, params) @ fc1.effective_weight().T + fc1.bias.data
        hidden = np.where(hidden > 0, hidden, 0.0)
        expected = hidden @ fc2.weight.data.T + fc2.bias.data
        np.testing.assert_array_equal(got, expected)
        assert all(layer.runtime is None for layer in engine.layers)


class TestUnlowerableModels:
    def test_model_without_lower_into_names_the_module(self):
        pool, fc1, fc2, loader = _linear_parts()

        class HandRolledMLP(Module):
            def __init__(self):
                super().__init__()
                self.fc1, self.fc2 = fc1, fc2

            def forward(self, x):
                return self.fc2(self.fc1(x))

        engine = BitSerialInferenceEngine(
            HandRolledMLP(), pool, EngineConfig(lut_bitwidth=8, calibration_batches=2)
        )
        engine.calibrate(loader)
        with pytest.raises(NotImplementedError, match="HandRolledMLP"):
            engine.predict(np.zeros((2, 32)))


class TestSharedExecutors:
    def test_threads_sharing_executors_match_a_serial_run(self, resnet_engine):
        plan = Executor(resnet_engine.compile(level="O0"), backend="plan")
        reference = Executor(resnet_engine.compile(level="O0"), backend="reference")
        rng = np.random.default_rng(5)
        inputs = [rng.normal(size=(2, 3, 32, 32)) for _ in range(4)]
        serial = [(plan.run(x), reference.run(x)) for x in inputs]
        results = [None] * len(inputs)
        errors = []
        barrier = threading.Barrier(len(inputs))

        def work(i):
            try:
                barrier.wait()
                results[i] = [(plan.run(inputs[i]), reference.run(inputs[i])) for _ in range(2)]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for want, got in zip(serial, results):
            for plan_out, reference_out in got:
                np.testing.assert_array_equal(plan_out, want[0])
                np.testing.assert_array_equal(reference_out, want[1])
