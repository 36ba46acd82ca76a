"""Streaming execution: dirty-tile incremental inference over frame streams.

The paper ablates *memoization* against pool precomputation, but until now it
survived only as an MCU cycle cost model (`repro.mcu.kernels.memoization`) —
the host pipeline recomputed every frame from scratch even when consecutive
inputs were nearly identical.  This module exploits that temporal redundancy
on the host: a :class:`StreamSession` keeps the previous frame's full
intermediate state, diffs each incoming frame into a tile-granular change
map, and re-executes only the dirty region of every step of the planned
schedule.

Compile-time propagation metadata
---------------------------------
:func:`compile_stream_plan` walks the plan backend's bound schedule (the
same :class:`~repro.core.program.Step` list the arena planner consumes) and
derives one :class:`StreamRule` per step:

==================  =========================================================
rule                steps
==================  =========================================================
``pass``            elementwise glue — quantize, batchnorm, activation,
                    pad_channels, add, dequantize/requantize: the output
                    dirty region equals the input region.
``dilate``          windowed ops — bit-serial/float convs and avg/max pools:
                    the output region is the input region dilated by the
                    receptive field (``kernel``/``stride``/``padding``), and
                    the *input crop* read back is the output region's halo.
``cutoff``          flatten, linear, bit-serial linear, global-average pool:
                    any dirty input invalidates the whole (non-spatial)
                    output; the step and everything after it recompute in
                    full each frame.  The head is cheap — this is the
                    classic full-recompute cutoff.
==================  =========================================================

Bit-exactness strategy (threshold 0 ⇒ identical results):

* Elementwise crops run the *same ufunc sequence per element* as the full
  step, so crops are bitwise equal by construction.
* Bit-serial convolutions accumulate integer partials — order-independent —
  so a crop through a **padding-0 clone** of the step's compiled
  :class:`~repro.core.kernel_plan.ConvKernelPlan` (the halo is materialized
  explicitly, borders pre-padded with the layer zero point) reproduces the
  full plan's outputs exactly, including the fused ``α·acc + β`` epilogue.
* Float convs reduce over the channel/kernel axis only (im2col + GEMM), so
  each output pixel is an independent dot product and a halo crop is
  bitwise-equal on this stack; the compile-time verification below is the
  backstop on hosts where the BLAS reduction order does depend on the
  spatial extent.  Float *linears* sit behind the cutoff and always run in
  full.
* Pool crops are aligned to whole pooling windows so the windowed
  reshape-reduce sees exactly the windows the full step sees.

On top of the construction, :func:`compile_stream_plan` *verifies* the
incremental path at compile time — a perturbed frame is executed both ways
and every intermediate buffer compared bitwise; any step that deviates is
demoted to full-frame execution (an autotuner-style "prove it on the spot"
gate: never a wrong answer, only less savings).

Crossover fallback
------------------
Incremental execution has bookkeeping overhead (diffing, halo crops, slice
writes), so above some dirty fraction it is *slower* than simply rerunning
the whole schedule.  The compile step measures both paths and records the
crossover dirty fraction — like autotune decisions — under the executor's
``plan_info["stream"]`` and the program's pipeline report
(``stream_plan`` pass).  Sessions above the crossover fall back to a full
refresh (which also keeps their persistent state warm).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import record_stage_report
from repro.core.program import Executor, NetworkProgram, Step

__all__ = [
    "StreamUnsupported",
    "StreamRule",
    "StreamPlan",
    "StreamSession",
    "compile_stream_plan",
    "stream_support",
]


class StreamUnsupported(RuntimeError):
    """The program cannot execute incrementally (and why)."""

    def __init__(self, message: str, reason: str = "stream_unsupported"):
        super().__init__(message)
        self.reason = reason


# Op kinds whose dirty region passes through unchanged (same spatial grid,
# per-element math).
_PASS_KINDS = frozenset(
    {"quantize", "batchnorm", "activation", "pad_channels", "add",
     "dequantize", "requantize"}
)
# Op kinds that end spatial propagation: everything from the first dirty
# cutoff step on recomputes in full each frame.
_CUTOFF_KINDS = frozenset({"flatten", "linear", "bitserial_linear"})


# ---------------------------------------------------------------------------
# Static support metadata (artifact headers / serve capability gating)
# ---------------------------------------------------------------------------

def stream_support(program: NetworkProgram) -> Dict[str, Any]:
    """Static streaming-capability summary of a program (no compile needed).

    Stored in artifact headers by :func:`repro.core.export.save_program`
    (schema ≥ 3) and surfaced by ``read_program_metadata``, so a server can
    reject streaming requests against incapable — or pre-schema — artifacts
    with a clear ``stream_unsupported`` reason instead of a KeyError.
    """
    rules: List[Dict[str, Any]] = []
    supported = len(program.input_shape) == 3
    cutoff_index: Optional[int] = None
    for i, op in enumerate(program.ops):
        if op.kind in ("bitserial_conv", "conv"):
            rule = {
                "op": op.name or op.kind,
                "kind": op.kind,
                "rule": "dilate",
                "kernel": _op_kernel(op),
                "stride": int(op.attrs.get("stride", 1)),
                "padding": int(op.attrs.get("padding", 0)),
            }
        elif op.kind == "pool" and op.attrs.get("pool") != "global_avg":
            k = int(op.attrs.get("kernel", 1))
            rule = {
                "op": op.name or op.kind,
                "kind": op.kind,
                "rule": "dilate",
                "kernel": [k, k],
                "stride": k,
                "padding": 0,
            }
        elif op.kind in _CUTOFF_KINDS or op.kind == "pool":
            rule = {"op": op.name or op.kind, "kind": op.kind, "rule": "cutoff"}
            if cutoff_index is None:
                cutoff_index = i
        elif op.kind in _PASS_KINDS:
            rule = {"op": op.name or op.kind, "kind": op.kind, "rule": "pass"}
        else:
            rule = {"op": op.name or op.kind, "kind": op.kind, "rule": "unknown"}
            supported = False
        rules.append(rule)
    return {
        "supported": bool(supported),
        "rules": rules,
        "cutoff_index": cutoff_index,
    }


def _op_kernel(op) -> List[int]:
    """(KH, KW) of a conv-like op, from attrs or the index tensor."""
    if "kernel" in op.attrs:
        k = op.attrs["kernel"]
        return [int(k), int(k)] if np.isscalar(k) else [int(k[0]), int(k[1])]
    weight = op.attrs.get("weight")
    if weight is not None:
        return [int(weight.shape[-2]), int(weight.shape[-1])]
    indices = op.attrs.get("indices")
    if indices is not None and indices.ndim >= 4:
        return [int(indices.shape[-2]), int(indices.shape[-1])]
    return [1, 1]


# ---------------------------------------------------------------------------
# Propagation rules over the bound schedule
# ---------------------------------------------------------------------------

#: Pixel-space dirty region of one buffer: ``(y0, y1, x0, x1)`` half-open.
Region = Tuple[int, int, int, int]


@dataclass
class StreamRule:
    """How one bound schedule step propagates and executes a dirty region.

    ``kind`` is the propagation rule (``pass``/``dilate``/``cutoff``);
    ``mode`` is how the step executes when its input is dirty: ``crop``
    re-executes only the dilated region in place, ``full`` reruns the whole
    step (float convs, and any step the compile-time bitwise verification
    demoted).
    """

    kind: str  # "pass" | "dilate" | "cutoff"
    mode: str  # "crop" | "full"
    kernel: Tuple[int, int] = (1, 1)
    stride: int = 1
    padding: int = 0
    align: int = 1  # output-region alignment (pool windows)
    demoted: bool = False  # verification demoted a crop step to full

    def out_region(self, region: Region, out_hw: Tuple[int, int]) -> Region:
        """Dilate an input dirty region to the affected output region."""
        if self.kind == "pass":
            y0, y1, x0, x1 = region
        else:
            iy0, iy1, ix0, ix1 = region
            kh, kw = self.kernel
            s, p = self.stride, self.padding
            # Output pixel oy reads input rows [oy*s - p, oy*s - p + kh):
            # the window intersects [iy0, iy1) iff oy*s - p < iy1 and
            # oy*s - p + kh > iy0.
            y0 = max(0, -(-(iy0 - kh + 1 + p) // s))
            y1 = (iy1 - 1 + p) // s + 1
            x0 = max(0, -(-(ix0 - kw + 1 + p) // s))
            x1 = (ix1 - 1 + p) // s + 1
        oh, ow = out_hw
        y0, y1 = max(0, min(y0, oh)), max(0, min(y1, oh))
        x0, x1 = max(0, min(x0, ow)), max(0, min(x1, ow))
        if self.align > 1:
            a = self.align
            y0, x0 = (y0 // a) * a, (x0 // a) * a
            y1, x1 = min(oh, -(-y1 // a) * a), min(ow, -(-x1 // a) * a)
        return (y0, y1, x0, x1)

    def in_window(self, out_region: Region, in_hw: Tuple[int, int]) -> Region:
        """The (unclamped) input window the output region reads — its halo."""
        y0, y1, x0, x1 = out_region
        if self.kind == "pass":
            return out_region
        kh, kw = self.kernel
        s, p = self.stride, self.padding
        return (
            y0 * s - p,
            (y1 - 1) * s + kh - p,
            x0 * s - p,
            (x1 - 1) * s + kw - p,
        )


def _classify_step(step: Step) -> StreamRule:
    op = step.op
    if op is None:
        # Backend-synthesized step with no IR op: cannot reason about it.
        raise StreamUnsupported("schedule step carries no IR op")
    kind = op.kind
    if kind == "bitserial_conv":
        kh, kw = _op_kernel(op)
        return StreamRule(
            kind="dilate", mode="crop", kernel=(kh, kw),
            stride=int(op.attrs.get("stride", 1)),
            padding=int(op.attrs.get("padding", 0)),
        )
    if kind == "conv":
        kh, kw = _op_kernel(op)
        # Float convs reduce over the channel/kernel axis only (im2col +
        # GEMM): each output pixel is an independent dot product, so a halo
        # crop reproduces the full result bit for bit on this stack.  The
        # compile-time verification is the backstop — a host/BLAS whose
        # reduction order does depend on the spatial extent demotes the
        # step to full-frame execution.
        return StreamRule(
            kind="dilate", mode="crop", kernel=(kh, kw),
            stride=int(op.attrs.get("stride", 1)),
            padding=int(op.attrs.get("padding", 0)),
        )
    if kind == "pool":
        if op.attrs.get("pool") == "global_avg":
            return StreamRule(kind="cutoff", mode="full")
        k = int(op.attrs["kernel"])
        return StreamRule(
            kind="dilate", mode="crop", kernel=(k, k), stride=k, padding=0,
        )
    if kind in _CUTOFF_KINDS:
        return StreamRule(kind="cutoff", mode="full")
    if kind in _PASS_KINDS:
        spatial = len(op.out_shape) == 3
        return StreamRule(kind="pass", mode="crop" if spatial else "full")
    raise StreamUnsupported(f"op kind '{kind}' has no streaming rule")


# ---------------------------------------------------------------------------
# Crop executors (bitwise-equal re-execution of one step's dirty region)
# ---------------------------------------------------------------------------

def _clone_conv_plan(plan) -> Any:
    """A padding-0, hoist-off shallow clone of a compiled conv plan.

    Shares the (immutable) LUT sub-tables and the folded epilogue terms;
    only the border handling changes — the streaming executor materializes
    the halo crop explicitly (pre-padded with the layer zero point), so the
    clone sees a borderless problem.  Integer accumulation makes the result
    bitwise equal to the original plan's, whatever ``hoist_padding``/
    ``tap_gather``/``encoder`` variant the autotuner picked for it.
    """
    clone = copy.copy(plan)
    clone.padding = 0
    clone.hoist_padding = False
    return clone


def _crop_with_halo(
    buf: np.ndarray, window: Region, padding_value: int | float
) -> np.ndarray:
    """Slice ``window`` out of a (1, C, H, W) buffer, padding out-of-range
    rows/cols with ``padding_value`` (a conv's halo at the image border)."""
    y0, y1, x0, x1 = window
    h, w = buf.shape[2], buf.shape[3]
    cy0, cy1 = max(y0, 0), min(y1, h)
    cx0, cx1 = max(x0, 0), min(x1, w)
    crop = buf[:, :, cy0:cy1, cx0:cx1]
    pads = (cy0 - y0, y1 - cy1, cx0 - x0, x1 - cx1)
    if any(pads):
        crop = np.pad(
            crop,
            ((0, 0), (0, 0), (pads[0], pads[1]), (pads[2], pads[3])),
            mode="constant",
            constant_values=padding_value,
        )
    return crop


def _elementwise_crop_fn(step: Step) -> Callable:
    """Crop executor of an elementwise step: same per-element ufunc sequence
    as the bound full-step fn, restricted to the region."""
    op = step.op
    kind, attrs = op.kind, op.attrs

    if kind == "quantize":
        params = attrs["params"]
        out_dtype = np.dtype(np.uint8 if params.bitwidth <= 8 else np.uint16)
        clip_lo = attrs.get("clip_lo", params.qmin)
        clip_hi = attrs.get("clip_hi", params.qmax)

        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            q = bufs[ins[0]][:, :, y0:y1, x0:x1] / params.scale
            np.rint(q, out=q)
            q += params.zero_point
            np.clip(q, clip_lo, clip_hi, out=q)
            bufs[out][:, :, y0:y1, x0:x1] = q.astype(out_dtype, copy=False)

        return fn

    if kind == "pad_channels":
        channels = op.in_shape[0]
        value = attrs["value"]

        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            dst = bufs[out][:, :, y0:y1, x0:x1]
            dst[:, :channels] = bufs[ins[0]][:, :, y0:y1, x0:x1]
            dst[:, channels:] = value

        return fn

    if kind == "batchnorm":
        mean = attrs["mean"].reshape(1, -1, 1, 1)
        inv_std = attrs["inv_std"].reshape(1, -1, 1, 1)
        gamma = attrs["gamma"].reshape(1, -1, 1, 1)
        beta = attrs["beta"].reshape(1, -1, 1, 1)

        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            dst = bufs[out][:, :, y0:y1, x0:x1]
            np.subtract(bufs[ins[0]][:, :, y0:y1, x0:x1], mean, out=dst)
            np.multiply(dst, inv_std, out=dst)
            np.multiply(dst, gamma, out=dst)
            np.add(dst, beta, out=dst)

        return fn

    if kind == "activation":
        if attrs["fn"] == "relu6":
            def fn(bufs, region, ins, out):
                y0, y1, x0, x1 = region
                np.clip(
                    bufs[ins[0]][:, :, y0:y1, x0:x1], 0.0, 6.0,
                    out=bufs[out][:, :, y0:y1, x0:x1],
                )
            return fn

        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            src = bufs[ins[0]][:, :, y0:y1, x0:x1]
            np.maximum(
                src, src.dtype.type(0), out=bufs[out][:, :, y0:y1, x0:x1]
            )

        return fn

    if kind == "add":
        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            np.add(
                bufs[ins[0]][:, :, y0:y1, x0:x1],
                bufs[ins[1]][:, :, y0:y1, x0:x1],
                out=bufs[out][:, :, y0:y1, x0:x1],
            )
        return fn

    if kind in ("dequantize", "requantize"):
        # Standalone epilogues only exist on unfused schedules (the plan
        # backend fuses them into the kernel plan); keep the reference
        # association, restricted to the region.
        full = step.fn

        def fn(bufs, region, ins, out):
            y0, y1, x0, x1 = region
            bufs[out][:, :, y0:y1, x0:x1] = full(
                bufs[ins[0]][:, :, y0:y1, x0:x1]
            )

        return fn

    raise StreamUnsupported(f"no elementwise crop executor for '{kind}'")


def _pool_crop_fn(step: Step) -> Callable:
    variant = step.op.attrs["pool"]
    k = int(step.op.attrs["kernel"])

    def fn(bufs, region, ins, out):
        y0, y1, x0, x1 = region  # output region, window-aligned by the rule
        crop = bufs[ins[0]][:, :, y0 * k : y1 * k, x0 * k : x1 * k]
        n, c = crop.shape[:2]
        windows = crop.reshape(n, c, y1 - y0, k, x1 - x0, k)
        if variant == "max":
            bufs[out][:, :, y0:y1, x0:x1] = windows.max(axis=(3, 5))
        else:
            bufs[out][:, :, y0:y1, x0:x1] = windows.mean(axis=(3, 5))

    return fn


def _float_conv_crop_fn(step: Step, rule: StreamRule) -> Callable:
    attrs = step.op.attrs
    weight, bias = attrs["weight"], attrs["bias"]
    stride, groups = attrs["stride"], attrs["groups"]

    def fn(bufs, region, ins, out):
        from repro.nn import functional as F

        window = rule.in_window(region, bufs[ins[0]].shape[2:])
        crop = _crop_with_halo(bufs[ins[0]], window, 0.0)
        res = F.conv2d_forward(crop, weight, bias, stride, 0, groups)[0]
        y0, y1, x0, x1 = region
        bufs[out][:, :, y0:y1, x0:x1] = res

    return fn


def _conv_crop_fn(step: Step, rule: StreamRule, active_bits: Optional[int]) -> Callable:
    plan = step.plan
    clone = _clone_conv_plan(plan)
    pad_value = int(getattr(plan, "pad_value", 0))
    validated = step.validated

    def fn(bufs, region, ins, out):
        window = rule.in_window(region, bufs[ins[0]].shape[2:])
        crop = _crop_with_halo(bufs[ins[0]], window, pad_value)
        res = clone(crop, active_bits=active_bits, validated=validated)
        y0, y1, x0, x1 = region
        np.copyto(bufs[out][:, :, y0:y1, x0:x1], res, casting="unsafe")

    return fn


# ---------------------------------------------------------------------------
# The compiled stream plan
# ---------------------------------------------------------------------------

@dataclass
class _BoundStreamStep:
    step: Step
    rule: StreamRule
    crop_fn: Optional[Callable]  # None => full-frame execution


class StreamPlan:
    """Compile-once streaming machinery shared by every session of a program.

    Holds the full-recompute oracle (:class:`Executor` on the plan backend),
    the bound schedule annotated with :class:`StreamRule` propagation
    metadata and crop executors, and the measured incremental-vs-full
    crossover.  Sessions (:meth:`session`) own the per-stream state.
    """

    def __init__(
        self,
        program: NetworkProgram,
        executor: Executor,
        steps: List[_BoundStreamStep],
        tile: int,
        crossover: float,
        record: Dict[str, Any],
    ):
        self.program = program
        self.executor = executor
        self.steps = steps
        self.tile = int(tile)
        self.crossover = float(crossover)
        self.record = record
        self.input_shape = tuple(program.input_shape)

    # -- bookkeeping ---------------------------------------------------------
    @property
    def counters(self) -> Dict[str, Any]:
        return dict(self.record)

    def session(self, threshold: float = 0.0) -> "StreamSession":
        """A new stream session (threshold 0 ⇒ bit-exact incremental)."""
        return StreamSession(self, threshold=threshold)

    # -- full-frame schedule execution ---------------------------------------
    def run_full(self, bufs: Dict[int, np.ndarray], x: np.ndarray) -> np.ndarray:
        """Execute the whole bound schedule into ``bufs`` (persistent state).

        Same step fns in the same order as the executor's interpreter, so
        the result is bitwise identical to :meth:`Executor.run` — asserted
        at compile time by :func:`compile_stream_plan`.
        """
        # An owned copy: sessions patch the dirty region of this buffer in
        # place on later frames, so it must never alias caller memory.
        bufs[self.program.input_id] = np.array(x, dtype=np.float64)
        for bound in self.steps:
            step = bound.step
            bufs[step.output] = step.fn(*[bufs[b] for b in step.inputs])
        return bufs[self.program.output_id]


class StreamSession:
    """Per-stream state: the previous frame's full intermediate buffers.

    ``process(frame)`` diffs the frame against the session's reference
    frame at tile granularity, dilates the dirty bounding box through the
    propagation rules, and re-executes only that region of each step in
    place — falling back to a full refresh on the first frame, above the
    measured crossover fraction, or after a fault (:meth:`reset`).

    Sessions are single-stream objects: callers (the serve layer) must not
    interleave ``process`` calls from multiple threads.
    """

    def __init__(self, plan: StreamPlan, threshold: float = 0.0):
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.plan = plan
        self.threshold = float(threshold)
        self.buffers: Dict[int, np.ndarray] = {}
        self._prev: Optional[np.ndarray] = None  # reference frame, (1,C,H,W)
        self.frames = 0
        self.full_frames = 0
        self.incremental_frames = 0
        self.cached_frames = 0
        self.dirty_fraction_sum = 0.0
        self.last_used: float = 0.0  # maintained by the serve layer

    # -- introspection -------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Persistent per-session state (deduplicated against views)."""
        seen: Dict[int, int] = {}
        for arr in self.buffers.values():
            base = arr if arr.base is None else arr.base
            seen[id(base)] = base.nbytes
        if self._prev is not None:
            seen[id(self._prev)] = self._prev.nbytes
        return int(sum(seen.values()))

    def stats(self) -> Dict[str, Any]:
        frames = max(1, self.incremental_frames)
        return {
            "frames": self.frames,
            "full": self.full_frames,
            "incremental": self.incremental_frames,
            "cached": self.cached_frames,
            "avg_dirty_fraction": self.dirty_fraction_sum / frames,
            "state_bytes": self.nbytes,
        }

    def reset(self) -> None:
        """Drop all persistent state; the next frame recomputes in full.

        The serve layer's fault path: a crashed/poisoned session resets and
        retries, so a failure can delay an answer but never corrupt one.
        """
        self.buffers.clear()
        self._prev = None

    # -- the per-frame entry point -------------------------------------------
    def process(self, frame: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Execute one frame; returns ``(outputs, info)``.

        ``outputs`` is a fresh copy (the caller may hold it across frames);
        ``info`` records the execution mode (``full``/``incremental``/
        ``cached``), the dirty-tile counts and the dirty-area fraction.
        """
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape == (1,) + self.plan.input_shape:
            frame = frame[0]
        if frame.shape != self.plan.input_shape:
            raise ValueError(
                f"frame shape {frame.shape} does not match the program input "
                f"shape {self.plan.input_shape}"
            )
        self.frames += 1
        if self._prev is None:
            return self._full(frame, reason="first_frame")
        dirty_tiles, total_tiles, region = self._diff(frame)
        if dirty_tiles == 0:
            self.cached_frames += 1
            out = self.buffers[self.plan.program.output_id]
            return np.array(out[0], copy=True), {
                "mode": "cached",
                "dirty_tiles": 0,
                "total_tiles": total_tiles,
                "dirty_fraction": 0.0,
            }
        h, w = self.plan.input_shape[1:]
        y0, y1, x0, x1 = region
        fraction = ((y1 - y0) * (x1 - x0)) / float(h * w)
        if fraction >= self.plan.crossover:
            info_out = self._full(frame, reason="crossover")
            info_out[1].update(
                dirty_tiles=dirty_tiles,
                total_tiles=total_tiles,
                dirty_fraction=fraction,
            )
            return info_out
        self.incremental_frames += 1
        self.dirty_fraction_sum += fraction
        out = self._incremental(frame, region)
        return np.array(out[0], copy=True), {
            "mode": "incremental",
            "dirty_tiles": dirty_tiles,
            "total_tiles": total_tiles,
            "dirty_fraction": fraction,
        }

    # -- internals -----------------------------------------------------------
    def _full(self, frame: np.ndarray, reason: str):
        self.full_frames += 1
        out = self.plan.run_full(self.buffers, frame[None])
        self._prev = self.buffers[self.plan.program.input_id]
        return np.array(out[0], copy=True), {
            "mode": "full",
            "reason": reason,
            "dirty_tiles": None,
            "total_tiles": None,
            "dirty_fraction": 1.0,
        }

    def _diff(self, frame: np.ndarray) -> Tuple[int, int, Optional[Region]]:
        """Tile-granular change map vs. the reference frame → dirty bbox."""
        t = self.plan.tile
        prev = self._prev[0]
        c, h, w = prev.shape
        th, tw = -(-h // t), -(-w // t)
        dirty_rows: List[int] = []
        dirty_cols: List[int] = []
        count = 0
        for ty in range(th):
            ys = slice(ty * t, min((ty + 1) * t, h))
            for tx in range(tw):
                xs = slice(tx * t, min((tx + 1) * t, w))
                new, old = frame[:, ys, xs], prev[:, ys, xs]
                if self.threshold == 0.0:
                    changed = not np.array_equal(new, old)
                else:
                    changed = bool(np.max(np.abs(new - old)) > self.threshold)
                if changed:
                    count += 1
                    dirty_rows.append(ty)
                    dirty_cols.append(tx)
        if not count:
            return 0, th * tw, None
        y0 = min(dirty_rows) * t
        y1 = min(h, (max(dirty_rows) + 1) * t)
        x0 = min(dirty_cols) * t
        x1 = min(w, (max(dirty_cols) + 1) * t)
        return count, th * tw, (y0, y1, x0, x1)

    def _incremental(self, frame: np.ndarray, region: Region) -> np.ndarray:
        bufs = self.buffers
        plan = self.plan
        y0, y1, x0, x1 = region
        # The reference frame absorbs the dirty region: with threshold 0
        # nothing outside it differs, so the state is exactly the incoming
        # frame; with a lossy threshold, sub-threshold tiles keep their old
        # values (that is the memoization) and the reference tracks what was
        # actually executed.
        prev = self._prev
        prev[0, :, y0:y1, x0:x1] = frame[:, y0:y1, x0:x1]
        regions: Dict[int, Optional[Region]] = {plan.program.input_id: region}
        cut = False
        for bound in plan.steps:
            step, rule = bound.step, bound.rule
            in_regions = [regions.get(b) for b in step.inputs]
            if not cut and all(r is None for r in in_regions):
                regions[step.output] = None
                continue  # clean step: previous frame's output stands
            if cut or rule.kind == "cutoff" or bound.crop_fn is None:
                # Full-frame re-execution (cutoff head, float convs, or a
                # verification-demoted step).
                bufs[step.output] = step.fn(*[bufs[b] for b in step.inputs])
                if cut or rule.kind == "cutoff":
                    cut = True
                    regions[step.output] = None
                    continue
                out_hw = bufs[step.output].shape[2:]
                merged = _union(
                    [r for r in in_regions if r is not None],
                )
                regions[step.output] = rule.out_region(merged, out_hw)
                continue
            merged = _union([r for r in in_regions if r is not None])
            out = bufs[step.output]
            out_region = rule.out_region(merged, out.shape[2:])
            bound.crop_fn(bufs, out_region, step.inputs, step.output)
            regions[step.output] = out_region
        return bufs[plan.program.output_id]


def _union(regions: List[Region]) -> Region:
    y0 = min(r[0] for r in regions)
    y1 = max(r[1] for r in regions)
    x0 = min(r[2] for r in regions)
    x1 = max(r[3] for r in regions)
    return (y0, y1, x0, x1)


# ---------------------------------------------------------------------------
# Compilation: bind rules, verify bitwise, measure the crossover
# ---------------------------------------------------------------------------

def compile_stream_plan(
    program: NetworkProgram,
    tile: int = 8,
    crossover: Optional[float] = None,
    active_bits: Optional[int] = None,
    executor: Optional[Executor] = None,
    verify: bool = True,
    seed: int = 0,
) -> StreamPlan:
    """Compile the streaming machinery for a bound program.

    Derives per-step propagation rules from the plan backend's bound
    schedule, builds crop executors (padding-0 conv-plan clones for the
    fused bit-serial steps), **verifies** the incremental path bitwise
    against the full executor on a perturbed frame (demoting any deviating
    step to full-frame execution), and measures the incremental-vs-full
    crossover dirty fraction — recorded like autotune decisions under the
    executor's ``plan_info["stream"]`` and the program's pipeline report.

    ``crossover`` overrides the measurement with a fixed fraction
    (deterministic tests); ``executor`` reuses an existing plan-backend
    executor instead of binding a new one.
    """
    if not program.bound:
        raise StreamUnsupported("only bound programs (with a LUT) can stream")
    if len(program.input_shape) != 3:
        raise StreamUnsupported(
            f"streaming needs a spatial (C, H, W) input, got "
            f"{program.input_shape}"
        )
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    support = stream_support(program)
    if not support["supported"]:
        bad = [r["op"] for r in support["rules"] if r["rule"] == "unknown"]
        raise StreamUnsupported(
            f"program has ops without streaming rules: {bad}"
        )
    if executor is None:
        executor = Executor(program, backend="plan", active_bits=active_bits)
    bound_steps: List[_BoundStreamStep] = []
    for step in executor._steps:
        rule = _classify_step(step)
        crop_fn: Optional[Callable] = None
        if rule.mode == "crop":
            if step.op.kind == "bitserial_conv":
                crop_fn = _conv_crop_fn(step, rule, active_bits)
            elif step.op.kind == "conv":
                crop_fn = _float_conv_crop_fn(step, rule)
            elif step.op.kind == "pool":
                rule.align = 1  # output grid is already window-granular
                crop_fn = _pool_crop_fn(step)
            else:
                crop_fn = _elementwise_crop_fn(step)
        bound_steps.append(_BoundStreamStep(step=step, rule=rule, crop_fn=crop_fn))

    record: Dict[str, Any] = {
        "tile": int(tile),
        "steps": len(bound_steps),
        "crop_steps": sum(1 for b in bound_steps if b.crop_fn is not None),
        "cutoff_index": support["cutoff_index"],
        "demoted_steps": [],
    }
    plan = StreamPlan(
        program, executor, bound_steps, tile=tile, crossover=1.0, record=record
    )

    rng = np.random.default_rng(seed)
    base = rng.standard_normal((1,) + tuple(program.input_shape))
    if verify:
        _verify_bitwise(plan, base, rng, record)

    if crossover is not None:
        if not (0.0 < crossover <= 1.0):
            raise ValueError(f"crossover must be in (0, 1], got {crossover}")
        plan.crossover = float(crossover)
        record["crossover"] = {"fraction": plan.crossover, "source": "fixed"}
    else:
        record["crossover"] = _measure_crossover(plan, base, rng)
        plan.crossover = record["crossover"]["fraction"]

    record_stage_report(
        program,
        {
            "name": "stream_plan",
            "stage": "stream",
            "counters": {
                "tile": record["tile"],
                "steps": record["steps"],
                "crop_steps": record["crop_steps"],
                "demoted": len(record["demoted_steps"]),
            },
            "decisions": {"crossover": record["crossover"]},
        },
    )
    if executor.plan_info is not None:
        executor.plan_info["stream"] = plan.counters
    return plan


def _perturb(base: np.ndarray, region: Region, rng) -> np.ndarray:
    frame = np.array(base, copy=True)
    y0, y1, x0, x1 = region
    frame[0, :, y0:y1, x0:x1] += rng.standard_normal(
        frame[0, :, y0:y1, x0:x1].shape
    )
    return frame


def _verify_bitwise(plan: StreamPlan, base: np.ndarray, rng, record) -> None:
    """Prove the incremental path bitwise-equal on a perturbed frame.

    Runs a base frame full, perturbs a sub-region, executes it both ways
    (fresh full run vs. incremental from the base state) and compares every
    persistent buffer.  A deviating step is demoted to full-frame execution
    and the check repeats — by construction this converges (a schedule with
    every step demoted is exactly the full path).
    """
    h, w = plan.input_shape[1:]
    t = plan.tile
    # A border-touching, tile-unaligned region exercises halo padding.
    region = (0, min(h, max(1, t + t // 2)), 0, min(w, max(1, t + t // 2)))
    frame = _perturb(base, region, rng)
    # The full streaming refresh must match the executor end to end (the
    # interpreter and the planned path are bitwise identical by the repo's
    # standing contract; this assert keeps the streaming path honest about it).
    expected = plan.executor.run(frame)
    reference: Dict[int, np.ndarray] = {}
    plan.run_full(reference, frame)
    if not np.array_equal(reference[plan.program.output_id], expected):
        raise StreamUnsupported(
            "full streaming refresh deviates from the executor oracle"
        )  # pragma: no cover - interpreter/planned bitwise identity is a repo invariant
    for _ in range(len(plan.steps) + 1):
        session = plan.session(threshold=0.0)
        session.process(base[0])
        session.process(frame[0])
        culprit = None
        for bound in plan.steps:
            out = bound.step.output
            if not np.array_equal(session.buffers[out], reference[out]):
                culprit = bound
                break
        if culprit is None:
            return
        culprit.crop_fn = None
        culprit.rule.demoted = True
        record["demoted_steps"].append(
            culprit.step.op.name or culprit.step.op.kind
        )
    raise StreamUnsupported(
        "incremental execution failed bitwise verification even with every "
        "step demoted to full-frame execution"
    )  # pragma: no cover - demoting all steps reproduces the full path


def _measure_crossover(plan: StreamPlan, base: np.ndarray, rng) -> Dict[str, Any]:
    """Time full refresh vs. incremental at low/high dirty fractions.

    Models incremental cost as linear in the dirty-area fraction (it is:
    every crop scales with the dilated bounding box) and solves for the
    fraction where it meets the full-refresh cost.  Clamped to [0.05, 0.95]
    so a full-frame change always takes the full path and a tiny change
    always goes incremental.
    """
    h, w = plan.input_shape[1:]
    t = plan.tile
    lo_region = (0, min(h, t), 0, min(w, t))
    hi_region = (0, h, 0, w)

    def time_increment(region: Region, reps: int = 3) -> float:
        best = float("inf")
        for _ in range(reps):
            session = plan.session(threshold=0.0)
            session.process(base[0])
            frame = _perturb(base, region, rng)
            start = time.perf_counter()
            session._incremental(frame[0], region)
            best = min(best, time.perf_counter() - start)
        return best

    def time_full(reps: int = 3) -> float:
        session = plan.session(threshold=0.0)
        session.process(base[0])
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            plan.run_full(session.buffers, base)
            best = min(best, time.perf_counter() - start)
        return best

    t_full = time_full()
    t_lo = time_increment(lo_region)
    t_hi = time_increment(hi_region)
    f_lo = (t * t) / float(h * w)
    if t_hi <= t_lo:  # degenerate timing; incremental cost looks flat
        fraction = 1.0 if t_hi <= t_full else f_lo
    else:
        fraction = f_lo + (t_full - t_lo) * (1.0 - f_lo) / (t_hi - t_lo)
    fraction = float(np.clip(fraction, 0.05, 0.95))
    return {
        "fraction": fraction,
        "source": "measured",
        "t_full_ms": t_full * 1e3,
        "t_incremental_lo_ms": t_lo * 1e3,
        "t_incremental_hi_ms": t_hi * 1e3,
    }
