"""Whole-network bit-serial inference engine.

The engine reproduces what the paper's deployment flow does on the host and
the microcontroller:

1. **Calibration** — run a few batches through the compressed model in float
   mode while observing the input of every weight-pool layer.
2. **Freezing** — derive per-layer activation quantization parameters at the
   requested activation bitwidth (iterative range search by default, §5.3.3).
3. **Bit-serial execution** — lower the calibrated model into a
   :class:`~repro.core.program.NetworkProgram` at the configured pipeline
   level and run it through a compiled :class:`~repro.core.program.Executor`:
   every weight-pool layer quantizes its input, runs the LUT-based
   bit-serial kernel (:mod:`repro.core.kernel_plan`), corrects for the
   activation zero point using the LUT's all-ones entry, and rescales back
   to the real domain; the rest of the network (batch norm, activations,
   pooling, classifier) runs in float.

The engine supports two execution modes:

* ``use_lut=True`` (default) — the compiled bit-serial program (optionally
  with a quantized LUT, Table 5).  Executors are cached per input shape, so
  a batch at any supported shape runs the program compiled for it.
* ``use_lut=False`` — "No-LUT" mode: activations are fake-quantized and the
  reconstructed pool weights are used directly (the Table 5 reference
  column).  It runs the model's own forward with a fake-quant hook on every
  weight-pool layer.

Plain weight-pool accuracy (Table 4) is :meth:`BitSerialInferenceEngine.
evaluate_float`.  The oracle for every level and backend is
``Executor(engine.compile(level="O0"), backend="reference")``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.layers import WeightPoolConv2d, WeightPoolLinear
from repro.core.lut import LookupTable, build_lut
from repro.core.pipeline import OPT_LEVELS
from repro.core.program import Executor, NetworkProgram, compile_network
from repro.core.weight_pool import WeightPool
from repro.nn import DataLoader, Module
from repro.nn.training.trainer import evaluate_model, evaluate_predictions
from repro.quantization.activation import ActivationQuantizer
from repro.quantization.calibration import CalibrationMethod
from repro.quantization.quantizer import QuantParams, fake_quantize


@dataclass
class EngineConfig:
    """Configuration of the bit-serial inference engine."""

    activation_bitwidth: int = 8
    lut_bitwidth: Optional[int] = 8
    use_lut: bool = True
    calibration_method: CalibrationMethod = CalibrationMethod.ITERATIVE
    calibration_batches: int = 4
    active_bits: Optional[int] = None  # early termination (MSB-first truncation)
    # Pipeline optimization level of compile/predict/evaluate (one of
    # repro.core.pipeline.OPT_LEVELS).  "O4" runs native C segments where
    # the host can build them.
    opt_level: str = "O2"

    def __post_init__(self) -> None:
        if not 1 <= self.activation_bitwidth <= 8:
            raise ValueError(
                f"activation_bitwidth must be in [1, 8], got {self.activation_bitwidth}"
            )
        if self.lut_bitwidth is not None and not 2 <= self.lut_bitwidth <= 16:
            raise ValueError(f"lut_bitwidth must be in [2, 16], got {self.lut_bitwidth}")
        if self.active_bits is not None and not 1 <= self.active_bits <= self.activation_bitwidth:
            raise ValueError("active_bits must be in [1, activation_bitwidth]")
        if self.opt_level not in OPT_LEVELS:
            raise ValueError(
                f"unknown optimization level {self.opt_level!r}; valid levels: "
                f"{', '.join(OPT_LEVELS)}"
            )


class _CalibrationRuntime:
    """Runtime that records layer inputs and falls back to the float forward."""

    def __init__(self, quantizers: Dict[int, ActivationQuantizer]):
        self.quantizers = quantizers

    def run(self, layer, x: np.ndarray) -> np.ndarray:
        self.quantizers[id(layer)](x)  # observe
        return _float_forward(layer, x)


class _FakeQuantRuntime:
    """No-LUT mode: fake-quantized activations into the float pool weights."""

    def __init__(self, params: Dict[int, QuantParams]):
        self.params = params

    def run(self, layer, x: np.ndarray) -> np.ndarray:
        return _float_forward(layer, fake_quantize(x, self.params[id(layer)]))


def _float_forward(layer, x: np.ndarray) -> np.ndarray:
    """Run the layer's ordinary pool-weight forward without re-entering the runtime."""
    runtime = layer.runtime
    layer.runtime = None
    try:
        return layer.forward(x)
    finally:
        layer.runtime = runtime


class BitSerialInferenceEngine:
    """Calibrates and executes a compressed model with the bit-serial LUT kernel."""

    def __init__(
        self,
        model: Module,
        pool: WeightPool,
        config: Optional[EngineConfig] = None,
    ):
        self.model = model
        self.pool = pool
        self.config = config or EngineConfig()
        self.layers = [
            module
            for module in model.modules()
            if isinstance(module, (WeightPoolConv2d, WeightPoolLinear))
        ]
        if not self.layers:
            raise ValueError("model contains no weight-pool layers; compress it first")
        self.quantizers: Dict[int, ActivationQuantizer] = {}
        self.activation_params: Dict[int, QuantParams] = {}
        self.lut: Optional[LookupTable] = None
        self._calibrated = False
        # Per-sample input shape recorded during calibration (the default
        # compile shape), and the executors built so far, keyed on
        # (backend, level, input shape, active_bits).  Cleared whenever the
        # LUT or the activation parameters change.
        self.input_shape: Optional[Tuple[int, ...]] = None
        self._executors: Dict[tuple, Executor] = {}

    # -- lifecycle ---------------------------------------------------------------
    def calibrate(self, loader: DataLoader, batches: Optional[int] = None) -> None:
        """Observe weight-pool layer inputs over a few batches of data."""
        batches = batches if batches is not None else self.config.calibration_batches
        self.quantizers = {
            id(layer): ActivationQuantizer(
                bitwidth=self.config.activation_bitwidth,
                method=self.config.calibration_method,
            )
            for layer in self.layers
        }
        runtime = _CalibrationRuntime(self.quantizers)
        self.model.eval()
        self._install(runtime)
        self.input_shape = None  # re-calibration re-records the data shape
        try:
            for batch_index, (inputs, _) in enumerate(loader):
                if batch_index >= batches:
                    break
                if self.input_shape is None:
                    self.input_shape = tuple(inputs.shape[1:])
                self.model(inputs)
        finally:
            self._uninstall()
        self._freeze_quantizers()
        self._build_lut()
        self._calibrated = True

    def _freeze_quantizers(self) -> None:
        self.activation_params = {}
        for layer in self.layers:
            quantizer = self.quantizers[id(layer)]
            params = quantizer.freeze(self.config.activation_bitwidth)
            self.activation_params[id(layer)] = params

    def _build_lut(self) -> None:
        lut = build_lut(self.pool)
        if self.config.lut_bitwidth is not None:
            lut = lut.quantize(self.config.lut_bitwidth)
        self.lut = lut
        self._executors.clear()

    def set_activation_bitwidth(self, bitwidth: int) -> None:
        """Re-freeze activation quantizers at a new bitwidth (no re-calibration needed).

        A configured ``active_bits`` early-termination setting is preserved
        when it still fits the new bitwidth; when it does not, it is reset to
        ``None`` (process every bit) with a warning rather than silently.
        """
        if not self.quantizers:
            raise RuntimeError("calibrate() must be called before changing the bitwidth")
        active_bits = self.config.active_bits
        if active_bits is not None and active_bits > bitwidth:
            warnings.warn(
                f"active_bits={active_bits} does not fit the new activation "
                f"bitwidth {bitwidth}; resetting early termination to None",
                stacklevel=2,
            )
            active_bits = None
        self.config = replace(
            self.config, activation_bitwidth=bitwidth, active_bits=active_bits
        )
        for layer in self.layers:
            self.activation_params[id(layer)] = self.quantizers[id(layer)].set_bitwidth(bitwidth)
        self._executors.clear()

    def set_lut_bitwidth(self, bitwidth: Optional[int]) -> None:
        """Change the LUT storage bitwidth and rebuild the table."""
        self.config = replace(self.config, lut_bitwidth=bitwidth)
        self._build_lut()

    # -- whole-network compilation ---------------------------------------------
    def compile(
        self,
        level: Optional[str] = None,
        backend: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> NetworkProgram:
        """Lower the calibrated model into a :class:`NetworkProgram`.

        Builds (and caches) the matching :class:`Executor`; ``predict`` and
        ``evaluate`` run through the same cache.  The pipeline optimization
        ``level`` (``O0``–``O4``) defaults to ``config.opt_level``;
        ``backend`` to ``native`` for ``O4`` and ``plan`` otherwise;
        ``input_shape`` (``(C, H, W)`` or ``(F,)``) to the shape recorded
        during calibration.  Unknown level names raise :class:`ValueError`
        listing the valid choices; models without ``lower_into`` hooks raise
        :class:`NotImplementedError`.
        """
        return self._executor(level=level, backend=backend, input_shape=input_shape).program

    def export(
        self,
        path,
        level: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> NetworkProgram:
        """Compile the network and persist it as a program artifact.

        Convenience wrapper around :meth:`compile` +
        :func:`repro.core.export.save_program`: the written ``.npz`` is the
        deployment artifact a :class:`repro.serve.ModelRepository` serves
        (``repository.publish(engine.compile(), name)`` is the equivalent
        two-step spelling).  The artifact header carries the pipeline level
        and per-pass reports.  Returns the compiled program.
        """
        from repro.core.export import save_program  # engine is imported by export

        program = self.compile(level=level, input_shape=input_shape)
        save_program(program, path)
        return program

    def _executor(
        self,
        level: Optional[str] = None,
        backend: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> Executor:
        if not self._calibrated:
            raise RuntimeError("calibrate() must be called before compiling the network")
        level = level or self.config.opt_level
        if backend is None:
            # Defaulted backends route O4 programs to the native codegen
            # backend; the executor degrades back to ``plan`` (surfacing a
            # ``fallback_reason``) on hosts that cannot build it.  An explicit
            # ``backend="plan"`` stays the pure plan backend.
            backend = "native" if level == "O4" else "plan"
        input_shape = tuple(input_shape or self.input_shape or ())
        if not input_shape:
            raise RuntimeError(
                "input shape unknown; calibrate on batched data or pass "
                "input_shape explicitly"
            )
        key = (backend, level, input_shape, self.config.active_bits)
        executor = self._executors.get(key)
        if executor is None:
            program = compile_network(
                self.model,
                input_shape,
                lut=self.lut,
                activation_params=self.activation_params,
                act_bitwidth=self.config.activation_bitwidth,
                level=level,
            )
            executor = Executor(program, backend=backend, active_bits=self.config.active_bits)
            self._executors[key] = executor
        return executor

    # -- execution ---------------------------------------------------------------
    def _install(self, runtime) -> None:
        for layer in self.layers:
            layer.runtime = runtime

    def _uninstall(self) -> None:
        for layer in self.layers:
            layer.runtime = None

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run one batch through the model in bit-serial mode.

        Executes the program compiled for the batch's per-sample shape (built
        on first use).  No-LUT mode (``use_lut=False``) runs the model's
        float forward with fake-quantized weight-pool inputs instead.
        """
        inputs = np.asarray(inputs)
        if self.config.use_lut:
            return self._executor(input_shape=inputs.shape[1:]).run(inputs)
        if not self._calibrated:
            raise RuntimeError("calibrate() must be called before predicting")
        self.model.eval()
        self._install(_FakeQuantRuntime(self.activation_params))
        try:
            return self.model(inputs)
        finally:
            self._uninstall()

    def evaluate(self, loader: DataLoader) -> float:
        """Top-1 accuracy of the bit-serial execution over a loader."""
        return evaluate_predictions(self.predict, loader)

    def evaluate_float(self, loader: DataLoader) -> float:
        """Accuracy of the plain (float) weight-pool model, for comparison."""
        return evaluate_model(self.model, loader)
