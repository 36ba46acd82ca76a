"""The whole-network compiled execution pipeline: typed IR, passes, executor.

:mod:`repro.core.graph` lowers a model into generic dataflow ops; this module
*types* them into a :class:`NetworkProgram` — a linear IR of executable ops —
optimizes it with graph-level passes, and runs it through a batched
:class:`Executor` with pluggable backends:

``quantize``        float activations → unsigned integers (one layer's params)
``pad_channels``    zero-point padding of thin layers (hoisted to compile time)
``bitserial_conv``  LUT bit-serial convolution in the raw ``Σ q·w`` domain
``bitserial_linear``LUT bit-serial fully-connected layer (raw domain)
``dequantize``      affine epilogue back to the real domain (scale, zero-point
                    correction, bias; BatchNorm folds in here)
``requantize``      dequantize *fused with the next layer's quantize*: the
                    activations stay integer across chains of compressed layers
``batchnorm``       frozen-statistics affine normalisation (float)
``activation``      relu / relu6
``pool``            max / avg / global-avg pooling
``flatten``, ``add``, ``conv``, ``linear``  float glue and uncompressed layers

Optimization passes (rewrites that need more than one layer in view) live in
:mod:`repro.core.pipeline` as *registered passes* run by a
:class:`~repro.core.pipeline.PassManager` at an ordered optimization level
(``O0`` reference lowering … ``O4`` native codegen); :func:`compile_network`
drives the graph stage and the :class:`Executor` the schedule/codegen stages.
The pipeline's IR verifier runs between passes in debug mode and once at
every compile exit.

Backends (``Executor(program, backend=...)``):

* ``"plan"`` — compiled :mod:`repro.core.kernel_plan` kernels with the fused
  epilogue; the fast path.
* ``"reference"`` — the tap-loop kernels of :mod:`repro.core.bitserial` with
  the explicit epilogue association.  ``Executor(compile_network(...,
  level="O0"), backend="reference")`` is the oracle every other level and
  backend is tested against.
* ``"cost"`` — registered by :mod:`repro.mcu.executor`: replays the program
  through the MCU cycle model instead of computing activations.

Numerics: the raw bit-serial kernels of both backends are bit-exact with a
full-precision LUT.  The plan backend fuses the epilogue into ``α·acc + β``
and the optimization passes change only the float association of that
epilogue (BatchNorm scale folded into ``α``, the next scale's reciprocal
folded before rounding); integer-domain relu/max-pool are exactly
equivalent, so every level matches the oracle to float rounding (~1e-12
relative), with a vanishing chance of single-LSB requantization flips at
rounding boundaries.
"""

from __future__ import annotations

import copy
import os
import queue
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitserial import bitserial_conv2d_reference, bitserial_linear_reference
from repro.core.blas import single_threaded_blas
from repro.core.graph import NetworkGraph, lower_model
from repro.core.kernel_plan import compile_conv_plan, compile_linear_plan
from repro.core.layers import WeightPoolConv2d, WeightPoolLinear
from repro.core.lut import LookupTable
from repro.core.pipeline import (
    PassManager,
    _consumer_map,
    _require_bound,
    level_enables,
    record_stage_report,
)
from repro.core.tracing import LayerTrace
from repro.nn import Module
from repro.nn import functional as F
from repro.nn.training.trainer import evaluate_predictions
from repro.quantization.quantizer import QuantParams


# ---------------------------------------------------------------------------
# IR
# ---------------------------------------------------------------------------
#: Every op kind a :class:`NetworkProgram` can contain.  This is the
#: canonical list: the typing stage only emits these, the executors only
#: accept these, and ``docs/ARCHITECTURE.md`` documents each one (a docs test
#: keeps the table in sync with this tuple).
IR_OP_KINDS: Tuple[str, ...] = (
    "quantize",
    "pad_channels",
    "bitserial_conv",
    "bitserial_linear",
    "dequantize",
    "requantize",
    "batchnorm",
    "activation",
    "pool",
    "flatten",
    "add",
    "conv",
    "linear",
)


@dataclass(eq=False)
class ProgramOp:
    """One typed op of a compiled network program.

    ``attrs`` holds everything needed to execute the op without the source
    module (so serialized programs round-trip); ``module`` is kept when
    available for trace reconstruction and the MCU cost backend's
    compression-policy decisions.
    """

    kind: str
    inputs: Tuple[int, ...]
    output: int
    name: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    module: Optional[Module] = None
    in_shape: Tuple[int, ...] = ()
    out_shape: Tuple[int, ...] = ()


@dataclass
class NetworkProgram:
    """A compressed model lowered to a linear IR of typed ops.

    ``lut`` is ``None`` for *structural* programs (compiled without
    calibration, e.g. for the MCU cost model); data execution requires a
    bound program (``lut`` set and every ``quantize`` op carrying params).
    """

    ops: List[ProgramOp]
    input_id: int
    output_id: int
    num_buffers: int
    input_shape: Tuple[int, ...]
    lut: Optional[LookupTable] = None
    act_bitwidth: int = 8
    optimized: bool = False
    # Planner/runtime counters of the most recent ahead-of-time
    # :class:`Executor` built for this program (arena bytes, steps fused,
    # shard count); ``None`` until one is built.  Surfaced by
    # :meth:`metadata` so bench records, saved artifacts and the serve
    # ``/stats`` payload all report the same numbers.
    plan_counters: Optional[Dict[str, Any]] = None
    # The optimization level this program was compiled at (one of
    # :data:`repro.core.pipeline.OPT_LEVELS`) and the JSON-able
    # :class:`~repro.core.pipeline.PipelineReport` the pass manager
    # attached; ``None`` only for artifacts predating the pass manager.
    opt_level: Optional[str] = None
    pipeline_report: Optional[Dict[str, Any]] = None
    # Native (O4) build metadata of the most recent successful
    # :func:`repro.core.codegen.bind_native`: the emitted C source plus the
    # JSON-able build record (ABI, content hashes, cflags).  Persisted into
    # saved artifacts so servers rebuild the exact same library
    # deterministically; ``None`` when the program never bound natively.
    native_build: Optional[Dict[str, Any]] = None

    @property
    def bound(self) -> bool:
        return self.lut is not None

    @property
    def effective_opt_level(self) -> str:
        """The level the program actually *runs* at.

        Infers pre-pass-manager artifacts from their ``optimized`` flag
        (optimized meant the graph passes *and* the ahead-of-time planner,
        i.e. today's ``O2``).  When the pipeline report records a fallback
        (e.g. ``O4`` requested but no C compiler on this host) the effective
        level is the report's downgraded one — callers never see a silent
        downgrade."""
        if self.opt_level is not None:
            report = self.pipeline_report
            if (
                isinstance(report, dict)
                and report.get("fallback_reason")
                and report.get("level") == self.opt_level
                and report.get("effective_level")
            ):
                return str(report["effective_level"])
            return self.opt_level
        return "O2" if self.optimized else "O0"

    def kinds(self) -> List[str]:
        return [op.kind for op in self.ops]

    def count(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        """Per-sample shape of the program output buffer."""
        for op in self.ops:
            if op.output == self.output_id:
                return tuple(op.out_shape)
        return tuple(self.input_shape)  # degenerate identity program

    def metadata(self) -> Dict[str, Any]:
        """Cheap JSON-able summary of the program (no arrays).

        This is what a model repository stores next to the serialized
        artifact so that listing/choosing models never has to open the
        ``.npz``; :func:`repro.core.export.read_program_metadata` derives the
        same keys from a saved artifact's JSON header.
        """
        op_counts: Dict[str, int] = {}
        for op in self.ops:
            op_counts[op.kind] = op_counts.get(op.kind, 0) + 1
        meta: Dict[str, Any] = {
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "num_ops": len(self.ops),
            "num_buffers": int(self.num_buffers),
            "op_counts": op_counts,
            "act_bitwidth": int(self.act_bitwidth),
            "optimized": bool(self.optimized),
            "opt_level": self.effective_opt_level,
            "bound": self.bound,
        }
        if self.pipeline_report is not None:
            meta["pipeline"] = copy.deepcopy(self.pipeline_report)
        if self.lut is not None:
            meta["lut"] = {
                "pool_size": int(self.lut.pool_size),
                "group_size": int(self.lut.group_size),
                "bitwidth": self.lut.bitwidth,
            }
        if self.plan_counters is not None:
            meta["execution_plan"] = dict(self.plan_counters)
        # Streaming capability (schema ≥ 3 artifacts): per-op propagation
        # rules and whether the whole program can execute incrementally.
        # Serving gates `/stream` requests on this key — its absence marks a
        # pre-streaming artifact, which servers reject with a clear
        # `stream_unsupported` reason instead of a KeyError.
        from repro.core.stream_plan import stream_support

        meta["stream"] = stream_support(self)
        if self.native_build is not None:
            # Header-only view of the native build (hashes/flags, no source).
            meta["native"] = {
                k: v for k, v in self.native_build.items() if k != "source"
            }
        return meta

    # -- geometry ---------------------------------------------------------------
    def layer_traces(self) -> List[LayerTrace]:
        """Per-layer geometry of every conv/linear op, as :class:`LayerTrace`.

        This is the IR-derived replacement for :func:`repro.core.tracing.
        trace_model`'s dummy-forward walk; the MCU estimators consume it.
        """
        traces = [t for t in (op_layer_trace(op) for op in self.ops) if t is not None]
        if traces:
            first_conv = next((t for t in traces if t.kind == "conv"), traces[0])
            first_conv.is_first = True
        return traces

    def describe(self) -> str:
        """Human-readable op listing (one line per op)."""
        lines = [
            f"NetworkProgram(input={self.input_shape}, ops={len(self.ops)}, "
            f"optimized={self.optimized}, bound={self.bound})"
        ]
        for op in self.ops:
            ins = ",".join(f"b{i}" for i in op.inputs)
            extra = ""
            if op.kind == "activation":
                extra = f" fn={op.attrs['fn']}"
            elif op.kind == "pool":
                extra = f" {op.attrs['pool']}"
            elif op.kind in ("bitserial_conv", "conv"):
                extra = f" k={op.attrs['kernel_size']} s={op.attrs['stride']}"
            lines.append(
                f"  {op.kind:<16} {ins} -> b{op.output}  {op.out_shape}{extra}"
                + (f"  [{op.name}]" if op.name else "")
            )
        return "\n".join(lines)


def op_layer_trace(op: ProgramOp) -> Optional[LayerTrace]:
    """The :class:`LayerTrace` of one conv/linear program op (else ``None``).

    Works without the source module (loaded programs), reconstructing the
    weight shape from the op geometry; ``is_first`` is left to the caller.
    """
    if op.kind in ("conv", "bitserial_conv"):
        c = int(op.attrs.get("in_channels", op.in_shape[0]))
        f, oh, ow = op.out_shape
        k = int(op.attrs["kernel_size"])
        groups = int(op.attrs.get("groups", 1))
        if op.module is not None:
            weight_shape = tuple(op.module.weight.shape)
        elif op.attrs.get("weight") is not None:
            weight_shape = tuple(op.attrs["weight"].shape)
        else:
            weight_shape = (f, c // groups, k, k)
        return LayerTrace(
            name=op.name,
            kind="conv",
            in_channels=c,
            out_channels=f,
            kernel_size=k,
            stride=int(op.attrs["stride"]),
            padding=int(op.attrs["padding"]),
            groups=groups,
            input_hw=op.in_shape[1:],
            output_hw=(oh, ow),
            weight_shape=weight_shape,
            has_bias=op.attrs.get("bias") is not None,
            module=op.module,
        )
    if op.kind in ("linear", "bitserial_linear"):
        c = int(op.attrs.get("in_channels", op.in_shape[0]))
        f = int(op.out_shape[0])
        if op.module is not None:
            weight_shape = tuple(op.module.weight.shape)
        elif op.attrs.get("weight") is not None:
            weight_shape = tuple(op.attrs["weight"].shape)
        else:
            weight_shape = (f, c)
        return LayerTrace(
            name=op.name,
            kind="linear",
            in_channels=c,
            out_channels=f,
            kernel_size=1,
            stride=1,
            padding=0,
            groups=1,
            input_hw=(1, 1),
            output_hw=(1, 1),
            weight_shape=weight_shape,
            has_bias=op.attrs.get("bias") is not None,
            module=op.module,
        )
    return None


# ---------------------------------------------------------------------------
# Typing: generic graph ops -> executable IR
# ---------------------------------------------------------------------------
def _layer_w_sums(lut: LookupTable, indices: np.ndarray) -> np.ndarray:
    """Per-filter pool-vector sums for the zero-point correction."""
    gathered = lut.pool_vector_sums()[indices]
    return gathered.reshape(indices.shape[0], -1).sum(axis=1)


def _type_graph(
    graph: NetworkGraph,
    lut: Optional[LookupTable],
    activation_params: Optional[Dict[int, QuantParams]],
) -> Tuple[List[ProgramOp], int, int]:
    """Expand generic graph ops into typed program ops with fresh buffers."""
    ops: List[ProgramOp] = []
    remap: Dict[int, int] = {graph.input_id: 0}
    next_buffer = 1

    def new_buffer() -> int:
        nonlocal next_buffer
        buf = next_buffer
        next_buffer += 1
        return buf

    def emit(kind, inputs, name, attrs, module, in_shape, out_shape) -> int:
        out = new_buffer()
        ops.append(
            ProgramOp(
                kind=kind,
                inputs=tuple(inputs),
                output=out,
                name=name,
                attrs=attrs,
                module=module,
                in_shape=tuple(in_shape),
                out_shape=tuple(out_shape),
            )
        )
        return out

    for gop in graph.ops:
        ins = tuple(remap[i] for i in gop.inputs)
        module = gop.module
        if gop.kind == "conv" and isinstance(module, WeightPoolConv2d):
            params = activation_params[id(module)] if activation_params else None
            buf = emit(
                "quantize", ins, gop.name, {"params": params}, None,
                gop.in_shape, gop.in_shape,
            )
            shape = gop.in_shape
            expected = module.indices.shape[1] * module.pool.group_size
            if expected != shape[0]:
                # Thin layer padded up to the group size: the channel check is
                # resolved here, at compile time, so the hot path never pads
                # (or even tests) when the shapes already agree.
                pad_shape = (expected,) + tuple(shape[1:])
                buf = emit(
                    "pad_channels", (buf,), gop.name,
                    {"pad": expected - shape[0],
                     "value": params.zero_point if params else 0},
                    None, shape, pad_shape,
                )
                shape = pad_shape
            bias = module.bias.data if module.bias is not None else None
            raw = emit(
                "bitserial_conv", (buf,), gop.name,
                {"indices": module.indices, "stride": module.stride,
                 "padding": module.padding, "kernel_size": module.kernel_size,
                 "groups": 1, "in_channels": module.in_channels,
                 "params": params, "bias": bias},
                module, shape, gop.out_shape,
            )
            remap[gop.output] = emit(
                "dequantize", (raw,), gop.name,
                {"params": params, "bias": bias,
                 "w_sums": _layer_w_sums(lut, module.indices) if lut else None,
                 "bn": None},
                None, gop.out_shape, gop.out_shape,
            )
        elif gop.kind == "linear" and isinstance(module, WeightPoolLinear):
            params = activation_params[id(module)] if activation_params else None
            buf = emit(
                "quantize", ins, gop.name, {"params": params}, None,
                gop.in_shape, gop.in_shape,
            )
            bias = module.bias.data if module.bias is not None else None
            raw = emit(
                "bitserial_linear", (buf,), gop.name,
                {"indices": module.indices, "in_channels": module.in_features,
                 "params": params, "bias": bias},
                module, gop.in_shape, gop.out_shape,
            )
            remap[gop.output] = emit(
                "dequantize", (raw,), gop.name,
                {"params": params, "bias": bias,
                 "w_sums": _layer_w_sums(lut, module.indices) if lut else None,
                 "bn": None},
                None, gop.out_shape, gop.out_shape,
            )
        elif gop.kind == "conv":
            remap[gop.output] = emit(
                "conv", ins, gop.name,
                {"weight": module.weight.data,
                 "bias": module.bias.data if module.bias is not None else None,
                 "stride": module.stride, "padding": module.padding,
                 "kernel_size": module.kernel_size, "groups": module.groups,
                 "in_channels": module.in_channels},
                module, gop.in_shape, gop.out_shape,
            )
        elif gop.kind == "linear":
            remap[gop.output] = emit(
                "linear", ins, gop.name,
                {"weight": module.weight.data,
                 "bias": module.bias.data if module.bias is not None else None,
                 "in_channels": module.in_features},
                module, gop.in_shape, gop.out_shape,
            )
        elif gop.kind == "batchnorm":
            # Snapshot the frozen statistics: programs are inference
            # artifacts; recompile after touching BN parameters or stats.
            remap[gop.output] = emit(
                "batchnorm", ins, gop.name,
                {"mean": module.running_mean.copy(),
                 "inv_std": 1.0 / np.sqrt(module.running_var + module.eps),
                 "gamma": module.gamma.data.copy(),
                 "beta": module.beta.data.copy()},
                module, gop.in_shape, gop.out_shape,
            )
        elif gop.kind in ("activation", "pool", "flatten", "add"):
            remap[gop.output] = emit(
                gop.kind, ins, gop.name, dict(gop.attrs), module,
                gop.in_shape, gop.out_shape,
            )
        else:  # pragma: no cover - the builder rejects unknown kinds already
            raise ValueError(f"cannot type graph op kind '{gop.kind}'")

    return ops, remap[graph.output_id], next_buffer


# ---------------------------------------------------------------------------
# Compilation entry point
# ---------------------------------------------------------------------------
def compile_network(
    model: Module,
    input_shape: Tuple[int, ...],
    lut: Optional[LookupTable] = None,
    activation_params: Optional[Dict[int, QuantParams]] = None,
    act_bitwidth: int = 8,
    level: str = "O2",
    passes: Optional[List[str]] = None,
    debug: Optional[bool] = None,
) -> NetworkProgram:
    """Lower ``model`` to a :class:`NetworkProgram` for a ``(C, H, W)`` or
    ``(F,)`` input.

    With ``lut`` and ``activation_params`` (from a calibrated engine) the
    program is *bound* — executable through :class:`Executor`.  Without them
    the program is structural only (geometry + op stream), which is what the
    MCU cost backend consumes.

    The optimization pipeline is driven by the
    :class:`~repro.core.pipeline.PassManager`: ``level`` picks one of the
    ordered optimization levels (:data:`~repro.core.pipeline.OPT_LEVELS`,
    ``O0``–``O4``).  ``passes`` optionally restricts the graph stage to
    an explicit pass selection.  Unknown level or pass names raise
    :class:`ValueError` listing the valid choices — misconfiguration fails
    at compile time instead of silently falling through to defaults.  Graph
    passes rewrite bound programs only (a structural program keeps the
    canonical op stream so cost attribution stays per-layer); the pipeline's
    IR verifier runs on both and its report is attached to the program.
    """
    if (lut is None) != (activation_params is None):
        raise ValueError("lut and activation_params must be provided together")
    manager = PassManager(level=level, passes=passes, debug=debug)
    graph = lower_model(model, input_shape)
    ops, output_id, num_buffers = _type_graph(graph, lut, activation_params)
    program = NetworkProgram(
        ops=ops,
        input_id=0,
        output_id=output_id,
        num_buffers=num_buffers,
        input_shape=tuple(input_shape),
        lut=lut,
        act_bitwidth=act_bitwidth,
        optimized=False,
    )
    manager.run(program)
    return program


# ---------------------------------------------------------------------------
# Execution: backends
# ---------------------------------------------------------------------------
@dataclass
class Step:
    """One bound executable step of a backend schedule.

    ``op``/``plan``/``validated`` carry the compile-time context the
    ahead-of-time planner (:mod:`repro.core.memory_plan`) needs to retarget
    the schedule at preallocated arena memory: the IR op that produced the
    step, the compiled kernel plan of fused bit-serial steps, and whether
    the plan input is produced pre-validated.
    """

    fn: Callable[..., np.ndarray]
    inputs: Tuple[int, ...]
    output: int
    op: Optional[ProgramOp] = None
    plan: Optional[object] = None
    validated: bool = False


def _input_validated(producers: Dict[int, ProgramOp], buf: int) -> bool:
    """True when the producer chain guarantees in-range unsigned integers."""
    while True:
        op = producers.get(buf)
        if op is None:
            return False
        if op.kind in ("quantize", "requantize"):
            return True  # clipped to the representable range on write
        if op.kind in ("pad_channels", "flatten") or (
            op.kind == "pool" and op.attrs.get("integer")
        ):
            buf = op.inputs[0]
            continue
        return False


def _epilogue_terms(op: ProgramOp, epilogue: ProgramOp):
    """Compose the epilogue's ``α`` (scalar or per-filter) and ``β``.

    ``raw = table_scale·acc`` is the kernel output; the legacy epilogue
    ``scale·(raw − z·Σw) + bias``, an optional folded BatchNorm affine, and an
    optional fused requantization ``round(·/s₂) + z₂`` all compose into one
    ``α·acc + β`` (plus a clip for requantize).
    """
    params: QuantParams = op.attrs["params"]
    w_sums = epilogue.attrs["w_sums"]
    alpha = params.scale
    beta = -params.scale * params.zero_point * np.asarray(w_sums, dtype=np.float64)
    bias = epilogue.attrs.get("bias")
    if bias is not None:
        beta = beta + np.asarray(bias, dtype=np.float64)
    bn = epilogue.attrs.get("bn")
    if bn is not None:
        bn_scale, bn_shift = bn
        alpha = alpha * np.asarray(bn_scale, dtype=np.float64)
        beta = beta * bn_scale + bn_shift
    requant = None
    if epilogue.kind == "requantize":
        out_params: QuantParams = epilogue.attrs["out_params"]
        alpha = alpha / out_params.scale
        beta = beta / out_params.scale + out_params.zero_point
        out_dtype = np.dtype(np.uint8 if out_params.bitwidth <= 8 else np.uint16)
        requant = (
            float(epilogue.attrs["clip_lo"]),
            float(epilogue.attrs["clip_hi"]),
            out_dtype,
        )
    return alpha, np.asarray(beta, dtype=np.float64), requant


def _compile_op_plan(program: NetworkProgram, op: ProgramOp, epilogue: ProgramOp):
    """Compile the kernel plan executing ``op`` fused with its epilogue.

    Optimized programs additionally compile convolutions with the padding
    hoist (border work replaced by compile-time constants).
    """
    params: QuantParams = op.attrs["params"]
    indices = op.attrs["indices"]
    hoist = program.optimized
    simple = epilogue.kind == "dequantize" and epilogue.attrs.get("bn") is None
    if op.kind == "bitserial_conv":
        plan = compile_conv_plan(
            indices,
            program.lut,
            stride=op.attrs["stride"],
            padding=op.attrs["padding"],
            act_bitwidth=params.bitwidth,
            pad_value=params.zero_point,
            scale=params.scale if simple else None,
            zero_point=params.zero_point if simple else 0,
            bias=op.attrs.get("bias") if simple else None,
            hoist_padding=hoist,
        )
        if simple:
            return plan
        target = plan
    else:
        plan = compile_linear_plan(
            indices,
            program.lut,
            act_bitwidth=params.bitwidth,
            scale=params.scale if simple else None,
            zero_point=params.zero_point if simple else 0,
            bias=op.attrs.get("bias") if simple else None,
        )
        if simple:
            return plan
        target = plan.conv_plan
    alpha, beta, requant = _epilogue_terms(op, epilogue)
    # target.alpha currently holds the raw table scale; fold the composed α in.
    target.alpha = target.alpha * alpha
    target.beta = beta
    target.requant = requant
    return plan


def _exec_generic(op: ProgramOp, program: NetworkProgram,
                  active_bits: Optional[int] = None) -> Callable:
    """Executor for every op kind shared between the plan/reference backends."""
    kind = op.kind
    attrs = op.attrs
    if kind == "quantize":
        params: QuantParams = attrs["params"]
        out_dtype = np.dtype(np.uint8 if params.bitwidth <= 8 else np.uint16)
        # Clip bounds absorb folded relu/relu6 ops (monotone rounding).
        clip_lo = attrs.get("clip_lo", params.qmin)
        clip_hi = attrs.get("clip_hi", params.qmax)

        def fn(x):
            q = x / params.scale
            np.rint(q, out=q)
            q += params.zero_point
            np.clip(q, clip_lo, clip_hi, out=q)
            return q.astype(out_dtype, copy=False)

        return fn
    if kind == "pad_channels":
        pad, value = attrs["pad"], attrs["value"]
        width = ((0, 0), (0, pad)) + ((0, 0),) * (len(op.out_shape) - 1)
        return lambda x: np.pad(x, width[: x.ndim], mode="constant", constant_values=value)
    if kind in ("dequantize", "requantize"):
        params = attrs["params"]
        w_sums = np.asarray(attrs["w_sums"], dtype=np.float64)
        shape = (1, -1, 1, 1) if len(op.out_shape) == 3 else (1, -1)
        bias = attrs.get("bias")
        bn = attrs.get("bn")
        out_params = attrs.get("out_params")
        clip = (attrs.get("clip_lo"), attrs.get("clip_hi"))

        def fn(raw):
            # The reference oracle's explicit float association.
            out = params.scale * (raw - params.zero_point * w_sums.reshape(shape))
            if bias is not None:
                out = out + np.asarray(bias).reshape(shape[1:] if len(shape) == 2 else shape)
            if bn is not None:
                out = bn[0].reshape(shape) * out + bn[1].reshape(shape)
            if out_params is not None:
                q = np.round(out / out_params.scale)
                q += out_params.zero_point
                np.clip(q, clip[0], clip[1], out=q)
                out = q.astype(np.uint8 if out_params.bitwidth <= 8 else np.uint16, copy=False)
            return out

        return fn
    if kind == "batchnorm":
        mean = attrs["mean"].reshape(1, -1, 1, 1)
        inv_std = attrs["inv_std"].reshape(1, -1, 1, 1)
        gamma = attrs["gamma"].reshape(1, -1, 1, 1)
        beta = attrs["beta"].reshape(1, -1, 1, 1)

        def fn(x):
            out = np.empty_like(x)
            # Same association as BatchNorm2d.forward in eval mode.
            np.subtract(x, mean, out=out)
            np.multiply(out, inv_std, out=out)
            np.multiply(out, gamma, out=out)
            np.add(out, beta, out=out)
            return out

        return fn
    if kind == "activation":
        if attrs["fn"] == "relu6":
            return lambda x: np.clip(x, 0.0, 6.0)
        return lambda x: np.maximum(x, x.dtype.type(0))
    if kind == "pool":
        variant = attrs["pool"]
        if variant == "global_avg":
            return lambda x: x.mean(axis=(2, 3))
        k = attrs["kernel"]
        if variant == "max":
            return lambda x: x.reshape(
                x.shape[0], x.shape[1], x.shape[2] // k, k, x.shape[3] // k, k
            ).max(axis=(3, 5))
        return lambda x: x.reshape(
            x.shape[0], x.shape[1], x.shape[2] // k, k, x.shape[3] // k, k
        ).mean(axis=(3, 5))
    if kind == "flatten":
        return lambda x: x.reshape(x.shape[0], -1)
    if kind == "add":
        return lambda x, y: x + y
    if kind == "conv":
        weight, bias = attrs["weight"], attrs["bias"]
        stride, padding, groups = attrs["stride"], attrs["padding"], attrs["groups"]
        return lambda x: F.conv2d_forward(x, weight, bias, stride, padding, groups)[0]
    if kind == "linear":
        weight, bias = attrs["weight"], attrs["bias"]
        if bias is None:
            return lambda x: x @ weight.T
        return lambda x: x @ weight.T + bias
    if kind == "bitserial_conv":
        params = attrs["params"]
        return lambda x: bitserial_conv2d_reference(
            x,
            attrs["indices"],
            program.lut,
            stride=attrs["stride"],
            padding=attrs["padding"],
            act_bitwidth=params.bitwidth,
            active_bits=active_bits,
            pad_value=params.zero_point,
        )
    if kind == "bitserial_linear":
        params = attrs["params"]
        return lambda x: bitserial_linear_reference(
            x,
            attrs["indices"],
            program.lut,
            act_bitwidth=params.bitwidth,
            active_bits=active_bits,
        )
    raise ValueError(f"no executor for op kind '{kind}'")


# Per-image working-set budget steering the executor's batch tiling: chosen
# so one layer's stage-1 partials (+ scratch) of a micro-batch stay cache-
# resident, which measurably beats streaming a whole large batch per layer.
_TILE_BUDGET_BYTES = 2 << 20


def _stage1_bytes_per_image(op: ProgramOp, plan) -> int:
    """Stage-1 working set (pv + scratch) of one image for a bit-serial op."""
    conv_plan = getattr(plan, "conv_plan", plan)
    c, h, w = (op.in_shape + (1, 1))[:3]
    if conv_plan.padding and not conv_plan.hoist_padding:
        h, w = h + 2 * conv_plan.padding, w + 2 * conv_plan.padding
    groups = max(conv_plan.in_channels // conv_plan.group_size, 1)
    width = conv_plan.tables.shape[-1]
    return 2 * groups * h * w * width * conv_plan.partial_dtype.itemsize


def _bind_plan(program: NetworkProgram, executor: "Executor",
               active_bits: Optional[int] = None) -> List[Step]:
    """Schedule with compiled kernel plans; fuses each bit-serial op with its
    dequantize/requantize epilogue into a single plan call, and sizes the
    executor's batch tile so the largest layer's working set stays in cache."""
    _require_bound(program)
    producers = {op.output: op for op in program.ops}
    consumers = _consumer_map(program.ops)
    steps: List[Step] = []
    fused: set = set()
    peak_per_image = 0
    for op in program.ops:
        if id(op) in fused:
            continue
        if op.kind in ("bitserial_conv", "bitserial_linear"):
            users = consumers.get(op.output, [])
            if len(users) != 1 or users[0].kind not in ("dequantize", "requantize"):
                raise RuntimeError(
                    f"bit-serial op '{op.name}' has no epilogue op to fuse with"
                )
            epilogue = users[0]
            plan = _compile_op_plan(program, op, epilogue)
            validated = _input_validated(producers, op.inputs[0])
            peak_per_image = max(peak_per_image, _stage1_bytes_per_image(op, plan))
            steps.append(
                Step(
                    fn=lambda x, _plan=plan, _v=validated: _plan(
                        x, active_bits=active_bits, validated=_v
                    ),
                    inputs=op.inputs,
                    output=epilogue.output,
                    op=op,
                    plan=plan,
                    validated=validated,
                )
            )
            fused.add(id(epilogue))
        else:
            steps.append(
                Step(
                    fn=_exec_generic(op, program, active_bits),
                    inputs=op.inputs,
                    output=op.output,
                    op=op,
                )
            )
    # Auto-tile only optimized programs: micro-batching is per-sample exact
    # for every op we emit, but BLAS reorders the float convs' reductions
    # with batch size, and O0 runs whole batches like the oracle.
    if executor.tile is None and peak_per_image and program.optimized:
        executor.tile = int(np.clip(_TILE_BUDGET_BYTES // peak_per_image, 1, 64))
    return steps


def _bind_reference(program: NetworkProgram, executor: "Executor",
                    active_bits: Optional[int] = None) -> List[Step]:
    """Schedule with the original tap-loop kernels and explicit epilogues."""
    _require_bound(program)
    return [
        Step(
            fn=_exec_generic(op, program, active_bits),
            inputs=op.inputs,
            output=op.output,
            op=op,
        )
        for op in program.ops
    ]


BACKENDS: Dict[str, Callable] = {}


def register_backend(name: str, bind: Callable) -> None:
    """Register an executor backend: ``bind(program, executor, **options)``.

    ``bind`` returns the step schedule and may attach backend-specific results
    to the executor (the MCU ``cost`` backend records per-layer cycles).
    """
    BACKENDS[name] = bind


register_backend("plan", _bind_plan)
register_backend("reference", _bind_reference)
# The native (O4) backend shares the plan backend's schedule bind; the
# executor additionally emits/compiles the planned schedule's eligible steps
# to a shared library after planning (and falls back to plan when it cannot).
register_backend("native", _bind_plan)


def auto_backend(backend: str, program: Optional[NetworkProgram]) -> str:
    """Upgrade a defaulted ``plan`` backend to ``native`` for O4 programs.

    Consumers that pick a backend on the caller's behalf (the engine's
    executor cache, the serve worker pools) route O4-compiled programs to the
    native backend; :class:`Executor` degrades back to ``plan`` gracefully —
    with a surfaced ``fallback_reason`` — when the host cannot build it.
    Tests and callers that want the pure plan oracle pass ``backend="plan"``
    to :class:`Executor` directly, which never upgrades.
    """
    if (
        backend == "plan"
        and program is not None
        and getattr(program, "opt_level", None) == "O4"
    ):
        return "native"
    return backend


def _chunk_bounds(n: int, k: int, tile: int) -> List[Tuple[int, int]]:
    """Split ``n`` samples into ``k`` contiguous chunks of whole tiles.

    Chunk boundaries land on tile multiples, so the micro-batches every
    shard executes are the *same* tiles a serial run would execute — the
    float convs' BLAS reductions see identical batches and the sharded
    result stays bitwise identical for every shard count.
    """
    tiles = -(-n // tile)
    base, extra = divmod(tiles, k)
    bounds = []
    start = 0
    for i in range(k):
        size = (base + (1 if i < extra else 0)) * tile
        bounds.append((start, min(start + size, n)))
        start += size
    return bounds


def _default_shard_count() -> int:
    """Shard count the executor picks when ``n_shards`` is unset: one worker
    per core up to a modest cap, serial on single-core machines."""
    cpus = os.cpu_count() or 1
    return 1 if cpus < 2 else min(cpus, 8)


class Executor:
    """Runs a bound :class:`NetworkProgram` batch-wise through a backend.

    ``O2`` and higher programs on the ``plan``/``native`` backends execute
    through an **ahead-of-time execution plan** (:mod:`repro.core.memory_plan`):
    elementwise glue fused into single steps, every intermediate placed at a
    fixed offset of a preallocated arena, and large batches split across a
    pool of per-shard arenas on worker threads (NumPy releases the GIL in the
    hot kernels; single-core machines stay serial).  A planned executor runs
    batches of exactly ``program.input_shape`` samples.

    Everything else — ``O0``/``O1`` programs, the ``reference`` and ``cost``
    backends — runs through a plain step interpreter that allocates every
    step's output.  No executor keeps mutable state between runs (shard
    arenas are checked out per run; kernel-plan caches only ever store
    identical constants), so ``run`` is safe to call from several threads.

    Parameters
    ----------
    tile:
        Micro-batch size; ``None`` lets the backend choose (the plan backend
        sizes it so the largest layer's stage-1 working set stays
        cache-resident), 0 disables tiling in the interpreter.
    n_shards:
        Worker arenas for the planned path; ``None`` picks one per core
        (capped at 8, 1 on single-core machines).
    """

    def __init__(
        self,
        program: NetworkProgram,
        backend: str = "plan",
        tile: Optional[int] = None,
        n_shards: Optional[int] = None,
        **options,
    ):
        if backend not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            hint = " (the 'cost' backend registers on `import repro.mcu`)" if backend == "cost" else ""
            raise KeyError(f"unknown backend '{backend}'; registered: {known}{hint}")
        self.program = program
        self.backend = backend
        # Batch tile: incoming batches are split into micro-batches of this
        # size and run through the whole program tile-by-tile, keeping the
        # inter-layer working set cache-resident.  Ops treat samples
        # independently, so tiling is bit-exact.  ``None`` lets the backend
        # choose (the plan backend sizes it from the largest layer's stage-1
        # footprint); pass 0 to disable.
        self.tile = tile
        self._steps = BACKENDS[backend](program, self, **options)
        # Reader counts: the interpreter drops each buffer after its last read.
        self._refcounts: Dict[int, int] = {program.output_id: 1}
        for step in self._steps:
            for buf in step.inputs:
                self._refcounts[buf] = self._refcounts.get(buf, 0) + 1

        # -- ahead-of-time execution plan (arena + fused steps + shards) ----
        # The schedule ("memory_plan") pipeline stage runs here, gated by the
        # program's optimization level: O2 and higher plan the arena at the
        # requested tile or the backend's heuristic one.
        planned = (
            backend in ("plan", "native")
            and program.bound
            and program.optimized
            and level_enables(program.effective_opt_level, "O2")
        )
        self.exec_plan = None
        self._native = None  # NativeExecution after a successful O4 bind
        self.plan_info: Optional[Dict[str, Any]] = None
        self._runtime_q: Optional[queue.LifoQueue] = None
        self._shard_threads = None
        self._shard_lock = threading.Lock()
        self.max_shards_used = 0
        active_bits = options.get("active_bits")
        if planned:
            from repro.core.memory_plan import PlanUnsupported, compile_execution_plan

            try:
                self.exec_plan = compile_execution_plan(
                    program, self._steps, tile=self.tile or 64, active_bits=active_bits
                )
            except PlanUnsupported:
                pass  # the step interpreter runs the schedule instead
        # -- native (O4) codegen bind ----------------------------------------
        # The ``codegen`` pipeline stage runs here, after planning: the
        # native backend lowers the planned schedule's eligible steps to C,
        # compiles (or cache-loads) them, and replaces those steps with
        # library calls.  Expected failures downgrade to the plan backend
        # with a surfaced ``fallback_reason`` — never silently.
        if backend == "native":
            self._bind_native(active_bits)
        if self.exec_plan is not None:
            # Record the schedule/codegen stages only once they are live.
            record_stage_report(
                program,
                {
                    "name": "memory_plan",
                    "stage": "schedule",
                    "counters": dict(self.exec_plan.counters),
                },
            )
            if self._native is not None:
                record_stage_report(
                    program,
                    {
                        "name": "codegen",
                        "stage": "codegen",
                        "counters": dict(self._native.counters()),
                    },
                )
            from repro.core.memory_plan import ShardRuntime

            self.n_shards = max(
                1, n_shards if n_shards is not None else _default_shard_count()
            )
            self._runtime_q = queue.LifoQueue()
            for _ in range(self.n_shards):
                self._runtime_q.put(ShardRuntime(self.exec_plan))
            self.plan_info = dict(self.exec_plan.counters)
            self.plan_info["n_shards"] = self.n_shards
            # ``self.backend`` (not the requested one): a failed native bind
            # has already downgraded it, and /stats reports what actually runs.
            self.plan_info["backend"] = self.backend
            if self._native is not None:
                self.plan_info["native"] = self._native.counters()
            program.plan_counters = dict(self.plan_info)
        else:
            self.n_shards = max(1, n_shards or 1)

    def _bind_native(self, active_bits: Optional[int]) -> None:
        """Attempt the native (O4) codegen bind; fall back to ``plan``.

        Every *expected* obstacle — the program could not be planned, no
        schedule step is native-eligible, or the host has no C compiler and
        the build cache is cold — reverts this executor to the plan backend
        and records the reason in the program's pipeline report (surfaced by
        ``effective_opt_level``, artifact headers and serve ``/stats``).  A
        compiler *rejecting* the emitted source is a codegen bug and
        propagates as :class:`~repro.core.codegen.NativeBuildError`.
        """
        from repro.core.codegen import CodegenUnsupported, NoCompilerError, bind_native

        reason = None
        if self.exec_plan is None:
            reason = "no_execution_plan"
        else:
            try:
                self._native = bind_native(
                    self.program, self._steps, self.exec_plan, active_bits=active_bits
                )
            except NoCompilerError:
                reason = "no_compiler"
            except CodegenUnsupported:
                reason = "no_native_steps"
        report = self.program.pipeline_report
        if self._native is not None:
            build = dict(self._native.build_meta())
            build["source"] = self._native.emitted.source
            self.program.native_build = build
            if isinstance(report, dict) and report.get("level") == "O4":
                # A successful bind clears a compile-time probe's fallback —
                # the build cache can satisfy O4 without a live compiler.
                report["fallback_reason"] = None
                report["effective_level"] = "O4"
            return
        self.backend = "plan"
        if isinstance(report, dict) and report.get("level") == "O4":
            report["fallback_reason"] = reason
            report["effective_level"] = "O2"
        warnings.warn(
            f"native (O4) backend unavailable ({reason}); falling back to "
            "the plan backend (effective level O2)",
            RuntimeWarning,
            stacklevel=3,
        )

    def close(self) -> None:
        """Shut down the shard worker threads (idempotent; runs still work
        serially afterwards on a fresh pool if called again)."""
        with self._shard_lock:
            threads, self._shard_threads = self._shard_threads, None
        if threads is not None:
            threads.shutdown(wait=True)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute one batch and return the output.

        The planned path writes every shard's result into one preallocated
        output slice, so assembly is deterministic and the result is
        bitwise identical to a serial run.  Its arena is laid out for
        ``program.input_shape`` samples; any other sample shape raises
        :class:`ValueError`.
        """
        x = np.asarray(x)
        if self.exec_plan is not None:
            if tuple(x.shape[1:]) != tuple(self.program.input_shape):
                raise ValueError(
                    f"input samples of shape {tuple(x.shape[1:])} do not match "
                    f"the planned program's input shape "
                    f"{tuple(self.program.input_shape)}"
                )
            return self._run_planned(x)
        if self.tile and x.shape[0] > self.tile:
            return np.concatenate(
                [self._run_tile(x[i : i + self.tile]) for i in range(0, x.shape[0], self.tile)]
            )
        return self._run_tile(x)

    def _run_tile(self, x: np.ndarray) -> np.ndarray:
        """Interpret the step schedule on one micro-batch."""
        buffers: Dict[int, np.ndarray] = {self.program.input_id: x}
        remaining = dict(self._refcounts)
        for step in self._steps:
            buffers[step.output] = step.fn(*[buffers[buf] for buf in step.inputs])
            for buf in step.inputs:
                remaining[buf] -= 1
                if remaining[buf] == 0:
                    del buffers[buf]
        return buffers[self.program.output_id]

    # -- planned execution ---------------------------------------------------
    def _run_planned(self, x: np.ndarray) -> np.ndarray:
        plan = self.exec_plan
        # The plan's buffer specs are typed for float64 inputs (what the data
        # loaders produce); the native segments additionally require a
        # C-contiguous input.  No-op (no copy) for contiguous float64 input.
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = x.shape[0]
        out = np.empty((n,) + plan.out_shape, dtype=plan.out_dtype)
        if n == 0:
            return out
        runtimes = [self._runtime_q.get()]
        try:
            if self.n_shards > 1 and n > plan.tile:
                # Grab whatever other shards are idle right now — concurrent
                # run() calls share the pool, each taking what is free.
                want = min(self.n_shards, -(-n // plan.tile))
                while len(runtimes) < want:
                    try:
                        runtimes.append(self._runtime_q.get_nowait())
                    except queue.Empty:
                        break
            k = len(runtimes)
            self.max_shards_used = max(self.max_shards_used, k)
            if k == 1:
                self._run_chunk(runtimes[0], x, out)
            else:
                # The shards occupy the cores: their float conv/linear steps
                # must not start a BLAS thread pool on top of them.
                with single_threaded_blas():
                    self._run_shards(runtimes, x, out)
        finally:
            for rt in runtimes:
                self._runtime_q.put(rt)
        return out

    def _run_shards(self, runtimes, x: np.ndarray, out: np.ndarray) -> None:
        bounds = _chunk_bounds(x.shape[0], len(runtimes), self.exec_plan.tile)
        threads = self._shard_pool()
        futures = [
            threads.submit(self._run_chunk, rt, x[a:b], out[a:b])
            for rt, (a, b) in zip(runtimes[1:], bounds[1:])
        ]
        a, b = bounds[0]
        errors: List[BaseException] = []
        try:
            self._run_chunk(runtimes[0], x[a:b], out[a:b])
        except BaseException as exc:
            errors.append(exc)
        # Wait for *every* chunk before surfacing an error: a
        # runtime must never return to the pool while its worker
        # thread is still executing on it.
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def _shard_pool(self):
        with self._shard_lock:
            if self._shard_threads is None:
                from concurrent.futures import ThreadPoolExecutor

                self._shard_threads = ThreadPoolExecutor(
                    max_workers=self.n_shards, thread_name_prefix="executor-shard"
                )
            return self._shard_threads

    def _run_chunk(self, runtime, x: np.ndarray, out: np.ndarray) -> None:
        tile = self.exec_plan.tile
        for i in range(0, x.shape[0], tile):
            self._run_planned_tile(runtime, x[i : i + tile], out[i : i + tile])

    def _run_planned_tile(self, runtime, x: np.ndarray, out: np.ndarray) -> None:
        plan = self.exec_plan
        n = x.shape[0]
        buffers: List[Optional[np.ndarray]] = [None] * self.program.num_buffers
        buffers[plan.input_id] = x
        native = self._native
        schedule = plan.steps if native is None else native.schedule
        for step in schedule:
            if native is not None and not hasattr(step, "fn"):
                # A compiled segment covering a contiguous run of plan steps.
                native.run_segment(step, buffers, runtime, n)
                continue
            args = [buffers[buf] for buf in step.inputs]
            placement = step.placement
            if placement == "arena":
                o = runtime.view(step.output, n)
            elif placement == "output":
                o = out
            else:  # view / heap allocate or alias internally
                o = None
            buffers[step.output] = step.fn(args, o, runtime)

    predict = run

    def evaluate(self, loader) -> float:
        """Top-1 accuracy over a data loader."""
        return evaluate_predictions(self.run, loader)
