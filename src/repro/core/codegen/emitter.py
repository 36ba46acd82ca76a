"""Deterministic C99 emission of a planned schedule.

The emitter consumes exactly what the executor already computed ahead of
time — the bound schedule (``Executor._bind_plan``'s steps, carrying the
compiled kernel plans) and the
:class:`~repro.core.memory_plan.ExecutionPlan` (fused steps, static arena
offsets, buffer specs) — and lowers the native-eligible portion to portable
C99, with a stage-2 tap loop of its own.  Nothing is re-derived: arena offsets
are baked into the source as integer constants, each fused chain becomes
one per-sample loop nest, and
every per-layer constant (bit-weighted sub-tables, stage-2 gather columns,
hoisted border tensors, epilogue ``α``/``β``) is serialized into one binary
*consts blob* passed to the library at call time — keeping the C text small
and byte-identical across hosts with the same program.

**Bit-exactness contract.**  A step is native-eligible only when its C
lowering provably reproduces the NumPy plan backend bit for bit:

* Bit-serial kernel-plan steps qualify when the plan accumulates in
  *integers* (``ConvKernelPlan.integer``): integer addition is associative,
  so the C loop nest is free to pick its own order; only the float epilogue
  (``α·acc + β`` → rint → clip → cast) must — and does — mirror the exact
  ufunc sequence of ``ConvKernelPlan._apply_epilogue``.
* Elementwise glue (quantize, pad_channels, batchnorm, relu/relu6, integer
  max-pool, flatten, same-dtype add) qualifies because each NumPy ufunc in
  the chain is a per-element operation with a direct C equivalent —
  including the sign-of-zero/NaN corner cases (``np.maximum(x, 0)`` returns
  ``+0.0`` for ``x = -0.0``; ``np.clip`` *keeps* ``-0.0``), which the
  emitted expressions reproduce literally.
* Float convolutions (BLAS reduction order), avg/global-avg pools (NumPy's
  pairwise mean) and anything non-eligible stay on the NumPy plan path; the
  schedule interleaves native segments with plan steps.

Maximal runs of eligible steps become *segments*, each a C function

.. code-block:: c

    void repro_seg_<k>(const unsigned char* consts, unsigned char* arena,
                       unsigned char* scratch, const void* const* ext, long n);

reading/writing buffers at their planned arena offsets (sample ``i`` of
buffer ``b`` lives at ``arena + slot(b).offset + i * sample_nbytes(b)`` —
exactly the layout of the plan backend's arena views), with non-arena
buffers (the program input, float-conv heap outputs) passed via ``ext``.

``standalone=True`` (the MCU bundle) instead lowers *every* step — float
convs, linears and average pools get straightforward C loop nests that are
numerically close but **not** bitwise (BLAS/pairwise-mean order) — into a
single segment plus a ``repro_net_run(input, output)`` entry with static
arena/scratch, and expects the consts blob linked in as ``repro_consts``
(see :mod:`repro.mcu.bundle`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitserial import active_bit_positions
from repro.core.memory_plan import ExecutionPlan, _chain_groups

#: Alignment of consts-blob entries and scratch allocations (cache line).
_ALIGN = 64

_CTYPES = {
    "|u1": "uint8_t",
    "<u2": "uint16_t",
    "<u4": "uint32_t",
    "<u8": "uint64_t",
    "|i1": "int8_t",
    "<i2": "int16_t",
    "<i4": "int32_t",
    "<i8": "int64_t",
    "<f4": "float",
    "<f8": "double",
}

#: Matching unsigned type for wraparound-defined signed arithmetic.
_UNSIGNED = {
    "int8_t": "uint8_t",
    "int16_t": "uint16_t",
    "int32_t": "uint32_t",
    "int64_t": "uint64_t",
}


class CodegenUnsupported(RuntimeError):
    """The schedule (or one of its steps) cannot be lowered to C."""


def _ctype(dtype) -> str:
    code = np.dtype(dtype).str
    if code not in _CTYPES:
        raise CodegenUnsupported(f"no C type for dtype {np.dtype(dtype)}")
    return _CTYPES[code]


def _hexf(value) -> str:
    """A double constant as a C99 hexadecimal float literal (bit-exact)."""
    return float(value).hex()


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SegmentSpec:
    """One emitted segment: plan-step range, ext buffers, covered outputs."""

    name: str
    start: int  # first plan-step index covered (inclusive)
    stop: int  # one past the last plan-step index covered
    ext: Tuple[int, ...]  # buffer ids passed via the ext pointer table
    outputs: Tuple[int, ...]  # covered step outputs (arena views to register)


@dataclass
class EmittedProgram:
    """The emitter's output: source text, consts blob, segment table."""

    source: str
    consts: bytes
    segments: List[SegmentSpec]
    scratch_bytes: int
    # The source split per segment: each unit is the ``#include`` header
    # plus one ``repro_seg_k`` (segments share nothing else), so the build
    # driver compiles them as separate translation units in parallel.
    units: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    entry: Optional[str] = None  # standalone entry point name

    @property
    def source_sha256(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    @property
    def consts_sha256(self) -> str:
        return hashlib.sha256(self.consts).hexdigest()


class _Consts:
    """The binary constants blob: aligned, deduplicated array appends."""

    def __init__(self):
        self._blob = bytearray()
        self._index: Dict[Tuple, int] = {}

    def add(self, array: np.ndarray) -> int:
        array = np.ascontiguousarray(array)
        data = array.tobytes()
        key = (array.dtype.str, array.shape, hashlib.sha256(data).digest())
        offset = self._index.get(key)
        if offset is None:
            pad = _align(len(self._blob)) - len(self._blob)
            self._blob.extend(b"\x00" * pad)
            offset = len(self._blob)
            self._blob.extend(data)
            self._index[key] = offset
        return offset

    def bytes(self) -> bytes:
        return bytes(self._blob)


class _Scratch:
    """Per-plan-step scratch allocator; the emitter keeps the max watermark."""

    def __init__(self):
        self.peak = 0
        self._cur = 0

    def reset(self):
        self._cur = 0

    def alloc(self, nbytes: int) -> int:
        offset = _align(self._cur)
        self._cur = offset + int(nbytes)
        self.peak = max(self.peak, self._cur)
        return offset


class _Fn:
    """A C function under construction (indentation-tracking line buffer)."""

    def __init__(self, name: str, signature: str):
        self.name = name
        self.lines: List[str] = [signature + " {"]
        self._indent = 1

    def line(self, text: str = ""):
        self.lines.append("    " * self._indent + text if text else "")

    def open(self, text: str):
        self.line(text)
        self._indent += 1

    def close(self):
        self._indent -= 1
        self.line("}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n}\n"


# Glue kinds with a bit-exact C lowering (further conditions in
# `_stage_supported`); kernel-plan steps are handled separately.
_HOST_GLUE = frozenset(
    {"quantize", "pad_channels", "batchnorm", "activation", "pool", "flatten", "add"}
)
# Additional kinds lowered only in standalone (tolerance, not bitwise) mode.
_STANDALONE_ONLY = frozenset({"conv", "linear"})


class Emitter:
    def __init__(
        self,
        program,
        steps: Sequence,
        exec_plan: ExecutionPlan,
        active_bits: Optional[int] = None,
        standalone: bool = False,
    ):
        self.program = program
        self.steps = list(steps)
        self.plan = exec_plan
        self.active_bits = active_bits
        self.standalone = standalone
        groups = _chain_groups(self.steps, program)
        if len(groups) != len(exec_plan.steps):
            raise CodegenUnsupported(
                "bound schedule and execution plan disagree on fusion groups"
            )
        self.groups = groups
        self.runs = [self.steps[first : last + 1] for first, last in groups]
        self.consts = _Consts()
        self.scratch = _Scratch()
        self._ext_order: List[int] = []  # standalone: module-wide ext table

    # -- eligibility -----------------------------------------------------------
    def _stage_supported(self, bound) -> bool:
        op = bound.op
        if bound.plan is not None:
            conv_plan = getattr(bound.plan, "conv_plan", bound.plan)
            in_spec = self.plan.specs.get(bound.inputs[0])
            try:
                out_ct = _ctype(
                    conv_plan.requant[2] if conv_plan.requant is not None else np.float64
                )
                _ctype(conv_plan.partial_dtype)
                _ctype(conv_plan.acc_dtype)
            except CodegenUnsupported:
                return False
            return bool(
                conv_plan.integer
                and bound.validated
                and conv_plan.mode in ("direct", "precompute")
                and in_spec is not None
                and in_spec.dtype.kind == "u"
                and conv_plan.group_size <= 16
                and out_ct is not None
            )
        kind = op.kind
        if self.standalone and kind in _STANDALONE_ONLY:
            return True
        if kind not in _HOST_GLUE:
            return False
        in_specs = [self.plan.specs.get(b) for b in op.inputs]
        out_spec = self.plan.specs.get(op.output)
        if out_spec is None or any(s is None for s in in_specs):
            return False
        try:
            _ctype(out_spec.dtype)
            for s in in_specs:
                _ctype(s.dtype)
        except CodegenUnsupported:
            return False
        if kind == "quantize":
            return in_specs[0].dtype == np.float64
        if kind == "batchnorm":
            return in_specs[0].dtype == np.float64
        if kind == "activation":
            return op.attrs.get("fn") in ("relu", "relu6")
        if kind == "pool":
            if op.attrs["pool"] == "max":
                return in_specs[0].dtype.kind in "iu"
            return self.standalone  # avg/global_avg: NumPy pairwise mean
        if kind == "add":
            return in_specs[0].dtype == in_specs[1].dtype == out_spec.dtype
        return True  # pad_channels, flatten

    def _step_native(self, index: int) -> bool:
        pstep = self.plan.steps[index]
        if not self.standalone and pstep.placement not in ("arena", "view"):
            return False
        if not all(self._stage_supported(b) for b in self.runs[index]):
            return False
        # Per-sample hazard: the C loop runs all stages for sample i before
        # touching sample i+1, while the NumPy plan runs each stage for the
        # whole tile.  When the output took over an input's arena slot
        # (in-place handoff) *and* has a larger per-sample stride, writing
        # sample i would overwrite sample i+1 of the aliased input before it
        # is read — keep such steps on the plan path.  (tile=1 — the
        # standalone bundle — has no second sample, so it is always safe.)
        if not self.standalone and self.plan.tile > 1:
            slot = self._slot(pstep.output)
            if slot is not None and slot.reused_from is not None:
                out_nbytes = self._sample_nbytes(pstep.output)
                for buf in pstep.inputs:
                    if (
                        self.plan.storage.get(buf) == slot.reused_from
                        and out_nbytes > self._sample_nbytes(buf)
                    ):
                        return False
        return True

    # -- buffer addressing -----------------------------------------------------
    def _sample_nbytes(self, buf: int) -> int:
        spec = self.plan.specs[buf]
        return int(np.prod(spec.shape, dtype=np.int64)) * spec.dtype.itemsize

    def _slot(self, buf: int):
        return self.plan.slots.get(self.plan.storage.get(buf, buf))

    def _buf_ptr(self, buf: int, ext_index: Dict[int, int], writable: bool) -> str:
        """C expression for the sample-``i`` base pointer of ``buf``."""
        ct = _ctype(self.plan.specs[buf].dtype)
        qual = "" if writable else "const "
        slot = self._slot(buf)
        if slot is not None:
            return (
                f"({qual}{ct}*)(arena + {slot.offset} + "
                f"(size_t)i * {self._sample_nbytes(buf)})"
            )
        j = ext_index[buf]
        return f"({qual}{ct}*)((const unsigned char*)ext[{j}] + (size_t)i * {self._sample_nbytes(buf)})"

    # -- emission --------------------------------------------------------------
    def emit(self) -> EmittedProgram:
        native = [self._step_native(i) for i in range(len(self.plan.steps))]
        if self.standalone and not all(native):
            bad = next(
                b.op.kind
                for i, run in enumerate(self.runs)
                if not native[i]
                for b in run
                if not self._stage_supported(b)
            )
            raise CodegenUnsupported(
                f"standalone bundle cannot lower op kind '{bad}' to C"
            )

        segments: List[Tuple[int, int]] = []
        i = 0
        while i < len(native):
            if native[i]:
                j = i
                while j + 1 < len(native) and native[j + 1]:
                    j += 1
                segments.append((i, j + 1))
                i = j + 1
            else:
                i += 1

        fns: List[str] = []
        specs: List[SegmentSpec] = []
        native_steps = 0
        for k, (start, stop) in enumerate(segments):
            name = f"repro_seg_{k}"
            ext: List[int] = []
            produced = set()
            for pi in range(start, stop):
                for buf in self.plan.steps[pi].inputs:
                    if (
                        self._slot(buf) is None
                        and buf not in produced
                        and buf not in ext
                    ):
                        ext.append(buf)
                produced.add(self.plan.steps[pi].output)
            outputs = []
            if self.standalone:
                # Heap/output placements also flow through ext (static
                # buffers / the entry's output parameter).
                for pi in range(start, stop):
                    out = self.plan.steps[pi].output
                    if self._slot(out) is None and out not in ext:
                        ext.append(out)
            for pi in range(start, stop):
                out = self.plan.steps[pi].output
                if self._slot(out) is not None:
                    outputs.append(out)
            ext_index = {buf: j for j, buf in enumerate(ext)}
            fn = _Fn(
                name,
                f"void {name}(const unsigned char* consts, unsigned char* arena,\n"
                f"        unsigned char* scratch, const void* const* ext, long n)",
            )
            fn.line("(void)consts; (void)arena; (void)scratch; (void)ext;")
            for pi in range(start, stop):
                self.scratch.reset()
                self._emit_plan_step(fn, pi, ext_index)
                native_steps += 1
            fns.append(fn.text())
            specs.append(
                SegmentSpec(
                    name=name,
                    start=start,
                    stop=stop,
                    ext=tuple(ext),
                    outputs=tuple(outputs),
                )
            )
        header = "\n".join([
            "/* Generated by repro.core.codegen — planned schedule lowered to C99.",
            " * Bit-exact with the NumPy plan backend for every emitted step",
            " * (integer kernels; float epilogues mirror the ufunc sequence).",
            " * Compile with -ffp-contract=off; see core/codegen/build.py. */",
            "#include <stdint.h>",
            "#include <string.h>",
            "#include <math.h>",
            "",
        ])
        source = header + "\n".join(fns)
        entry = None
        if self.standalone:
            source += self._emit_standalone_entry(specs)
            entry = "repro_net_run"
        counters = {
            "segments": len(specs),
            "native_steps": native_steps,
            "steps": len(self.plan.steps),
            "source_bytes": len(source.encode("utf-8")),
        }
        return EmittedProgram(
            source=source,
            consts=self.consts.bytes(),
            segments=specs,
            units=[] if self.standalone else [header + text for text in fns],
            scratch_bytes=self.scratch.peak,
            counters=counters,
            entry=entry,
        )

    def _emit_standalone_entry(self, specs: List[SegmentSpec]) -> str:
        assert len(specs) == 1, "standalone mode emits exactly one segment"
        seg = specs[0]
        lines = [
            "",
            "extern const unsigned char repro_consts[];",
            f"static unsigned char repro_arena[{max(self.plan.arena_bytes, 1)}];",
            f"static unsigned char repro_scratch[{max(self.scratch.peak, 1)}];",
        ]
        heap_names: Dict[int, str] = {}
        for buf in seg.ext:
            if buf in (self.plan.input_id, self.plan.output_id):
                continue
            heap_names[buf] = f"repro_heap_{buf}"
            lines.append(
                f"static unsigned char {heap_names[buf]}[{self._sample_nbytes(buf)}];"
            )
        lines.append("")
        lines.append("void repro_net_run(const double* input, double* output) {")
        lines.append(f"    const void* ext[{max(len(seg.ext), 1)}];")
        for j, buf in enumerate(seg.ext):
            if buf == self.plan.input_id:
                lines.append(f"    ext[{j}] = (const void*)input;")
            elif buf == self.plan.output_id:
                lines.append(f"    ext[{j}] = (const void*)output;")
            else:
                lines.append(f"    ext[{j}] = (const void*){heap_names[buf]};")
        lines.append(
            f"    {seg.name}(repro_consts, repro_arena, repro_scratch, ext, 1);"
        )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- per-step emission -----------------------------------------------------
    def _emit_plan_step(self, fn: _Fn, pi: int, ext_index: Dict[int, int]):
        pstep = self.plan.steps[pi]
        run = self.runs[pi]
        if pstep.placement == "view" and len(run) == 1 and run[0].op.kind == "flatten":
            fn.line(f"/* step {pi}: flatten b{pstep.output} — arena view, no code */")
            return
        fn.line(f"/* step {pi}: {'+'.join(pstep.fused) or pstep.kind} "
                f"-> b{pstep.output} */")
        fn.open("for (long i = 0; i < n; ++i) {")
        env: Dict[int, str] = {}
        declared: Dict[int, str] = {}

        def ptr(buf: int, writable: bool = False) -> str:
            if buf in env:
                return env[buf]
            if buf not in declared:
                var = f"b{buf}"
                fn.line(f"{'' if writable else 'const '}{_ctype(self.plan.specs[buf].dtype)}* "
                        f"{var} = {self._buf_ptr(buf, ext_index, writable)};")
                declared[buf] = var
            return declared[buf]

        last = len(run) - 1
        for si, bound in enumerate(run):
            op = bound.op
            tag = f"s{pi}_{si}"
            out_buf = bound.output
            if op.kind == "flatten" and si != last:
                env[out_buf] = ptr(op.inputs[0])
                continue
            srcs = [ptr(b) for b in op.inputs]
            if si == last:
                dst = ptr(out_buf, writable=True)
            else:
                spec = self.plan.specs[out_buf]
                off = self.scratch.alloc(self._sample_nbytes(out_buf))
                var = f"t{out_buf}"
                fn.line(f"{_ctype(spec.dtype)}* {var} = "
                        f"({_ctype(spec.dtype)}*)(scratch + {off});")
                env[out_buf] = var
                dst = var
            if bound.plan is not None:
                self._emit_bitserial(fn, tag, bound, srcs[0], dst)
            else:
                self._emit_glue(fn, tag, op, srcs, dst)
            env[out_buf] = dst
        fn.close()

    # -- glue stages -----------------------------------------------------------
    def _emit_glue(self, fn: _Fn, tag: str, op, srcs: List[str], dst: str):
        kind = op.kind
        emit = getattr(self, f"_emit_{kind}")
        emit(fn, tag, op, srcs, dst)

    def _emit_quantize(self, fn, tag, op, srcs, dst):
        params = op.attrs["params"]
        lo = op.attrs.get("clip_lo", params.qmin)
        hi = op.attrs.get("clip_hi", params.qmax)
        count = int(np.prod(op.in_shape, dtype=np.int64))
        ct = _ctype(self.plan.specs[op.output].dtype)
        fn.open(f"for (long e = 0; e < {count}; ++e) {{")
        fn.line(f"double v = {srcs[0]}[e] / {_hexf(params.scale)};")
        fn.line("v = rint(v);")
        fn.line(f"v = v + {_hexf(params.zero_point)};")
        fn.line(f"if (v < {_hexf(lo)}) v = {_hexf(lo)};")
        fn.line(f"if (v > {_hexf(hi)}) v = {_hexf(hi)};")
        fn.line(f"{dst}[e] = ({ct})v;")
        fn.close()

    def _emit_pad_channels(self, fn, tag, op, srcs, dst):
        spec = self.plan.specs[op.output]
        ct = _ctype(spec.dtype)
        channels = int(op.in_shape[0])
        inner = int(np.prod(op.in_shape[1:], dtype=np.int64)) if len(op.in_shape) > 1 else 1
        total = int(np.prod(spec.shape, dtype=np.int64))
        value = op.attrs["value"]
        fn.line(f"memcpy({dst}, {srcs[0]}, {channels * inner} * sizeof({ct}));")
        fn.open(f"for (long e = {channels * inner}; e < {total}; ++e) {{")
        fn.line(f"{dst}[e] = ({ct}){value};")
        fn.close()

    def _emit_batchnorm(self, fn, tag, op, srcs, dst):
        attrs = op.attrs
        c = int(op.in_shape[0])
        hw = int(np.prod(op.in_shape[1:], dtype=np.int64))
        offs = {
            name: self.consts.add(np.asarray(attrs[name], dtype=np.float64).reshape(-1))
            for name in ("mean", "inv_std", "gamma", "beta")
        }
        for name, off in offs.items():
            fn.line(f"const double* {tag}_{name} = (const double*)(consts + {off});")
        fn.open(f"for (int c = 0; c < {c}; ++c) {{")
        fn.line(f"const double* s = {srcs[0]} + (size_t)c * {hw};")
        fn.line(f"double* d = {dst} + (size_t)c * {hw};")
        fn.line(f"double m = {tag}_mean[c], is = {tag}_inv_std[c], "
                f"ga = {tag}_gamma[c], be = {tag}_beta[c];")
        fn.open(f"for (long p = 0; p < {hw}; ++p) {{")
        fn.line("double v = s[p] - m;")
        fn.line("v = v * is;")
        fn.line("v = v * ga;")
        fn.line("v = v + be;")
        fn.line("d[p] = v;")
        fn.close()
        fn.close()

    def _emit_activation(self, fn, tag, op, srcs, dst):
        spec = self.plan.specs[op.output]
        ct = _ctype(spec.dtype)
        count = int(np.prod(spec.shape, dtype=np.int64))
        is_float = spec.dtype.kind == "f"
        fn.open(f"for (long e = 0; e < {count}; ++e) {{")
        fn.line(f"{ct} v = {srcs[0]}[e];")
        if op.attrs["fn"] == "relu6":
            # np.clip keeps -0.0 and propagates NaN: plain comparisons do too.
            zero = _hexf(0.0) if is_float else "0"
            six = _hexf(6.0) if is_float else "6"
            fn.line(f"if (v < {zero}) v = {zero};")
            fn.line(f"if (v > {six}) v = {six};")
        elif is_float:
            # np.maximum(x, 0.0) returns the *second* operand on ties, so
            # -0.0 maps to +0.0, while NaN propagates.
            fn.line(f"v = (v > {_hexf(0.0)}) ? v : ((v == v) ? {_hexf(0.0)} : v);")
        else:
            fn.line("if (v < 0) v = 0;")
        fn.line(f"{dst}[e] = v;")
        fn.close()

    def _emit_pool(self, fn, tag, op, srcs, dst):
        variant = op.attrs["pool"]
        in_spec = self.plan.specs[op.inputs[0]]
        ct_in = _ctype(in_spec.dtype)
        c, h, w = (int(d) for d in op.in_shape)
        if variant == "global_avg":
            # Standalone-only (NumPy's np.mean is pairwise; tolerance mode).
            fn.open(f"for (int c = 0; c < {c}; ++c) {{")
            fn.line("double s = 0.0;")
            fn.open(f"for (long p = 0; p < {h * w}; ++p) {{")
            fn.line(f"s += (double){srcs[0]}[(size_t)c * {h * w} + p];")
            fn.close()
            fn.line(f"{dst}[c] = s / {_hexf(h * w)};")
            fn.close()
            return
        k = int(op.attrs["kernel"])
        oh, ow = h // k, w // k
        fn.open(f"for (int c = 0; c < {c}; ++c) {{")
        fn.open(f"for (int y = 0; y < {oh}; ++y) {{")
        fn.open(f"for (int x = 0; x < {ow}; ++x) {{")
        if variant == "max":
            fn.line(f"{ct_in} m = {srcs[0]}[((size_t)c * {h} + y * {k}) * {w} + x * {k}];")
            fn.open(f"for (int dy = 0; dy < {k}; ++dy) {{")
            fn.open(f"for (int dx = 0; dx < {k}; ++dx) {{")
            fn.line(f"{ct_in} v = {srcs[0]}[((size_t)c * {h} + y * {k} + dy) * {w} "
                    f"+ x * {k} + dx];")
            fn.line("if (v > m) m = v;")
            fn.close()
            fn.close()
            fn.line(f"{dst}[((size_t)c * {oh} + y) * {ow} + x] = m;")
        else:  # avg (standalone-only)
            fn.line("double s = 0.0;")
            fn.open(f"for (int dy = 0; dy < {k}; ++dy) {{")
            fn.open(f"for (int dx = 0; dx < {k}; ++dx) {{")
            fn.line(f"s += (double){srcs[0]}[((size_t)c * {h} + y * {k} + dy) * {w} "
                    f"+ x * {k} + dx];")
            fn.close()
            fn.close()
            fn.line(f"{dst}[((size_t)c * {oh} + y) * {ow} + x] = s / {_hexf(k * k)};")
        fn.close()
        fn.close()
        fn.close()

    def _emit_flatten(self, fn, tag, op, srcs, dst):
        # Only reached as a chain's final (materialising) stage.
        ct = _ctype(self.plan.specs[op.output].dtype)
        count = int(np.prod(op.out_shape, dtype=np.int64))
        fn.line(f"memcpy({dst}, {srcs[0]}, {count} * sizeof({ct}));")

    def _emit_add(self, fn, tag, op, srcs, dst):
        spec = self.plan.specs[op.output]
        ct = _ctype(spec.dtype)
        count = int(np.prod(spec.shape, dtype=np.int64))
        fn.open(f"for (long e = 0; e < {count}; ++e) {{")
        if ct in _UNSIGNED:
            # NumPy integer add wraps; C signed overflow is UB — compute in
            # the matching unsigned type (defined wraparound) and cast back.
            ut = _UNSIGNED[ct]
            fn.line(f"{dst}[e] = ({ct})(({ut}){srcs[0]}[e] + ({ut}){srcs[1]}[e]);")
        else:
            fn.line(f"{dst}[e] = {srcs[0]}[e] + {srcs[1]}[e];")
        fn.close()

    # -- float kernels (standalone / tolerance mode only) ----------------------
    def _emit_conv(self, fn, tag, op, srcs, dst):
        attrs = op.attrs
        weight = np.asarray(attrs["weight"], dtype=np.float64)
        bias = attrs["bias"]
        stride, padding, groups = (
            int(attrs["stride"]), int(attrs["padding"]), int(attrs["groups"]),
        )
        f_out, cg, kh, kw = weight.shape
        c, h, w = (int(d) for d in op.in_shape)
        oh, ow = int(op.out_shape[1]), int(op.out_shape[2])
        w_off = self.consts.add(weight.reshape(-1))
        fn.line(f"const double* {tag}_w = (const double*)(consts + {w_off});")
        if bias is not None:
            b_off = self.consts.add(np.asarray(bias, dtype=np.float64).reshape(-1))
            fn.line(f"const double* {tag}_b = (const double*)(consts + {b_off});")
        fpg = f_out // groups
        fn.open(f"for (int f = 0; f < {f_out}; ++f) {{")
        fn.line(f"int g0 = (f / {fpg}) * {cg};")
        fn.open(f"for (int y = 0; y < {oh}; ++y) {{")
        fn.open(f"for (int x = 0; x < {ow}; ++x) {{")
        fn.line(f"double s = {f'{tag}_b[f]' if bias is not None else _hexf(0.0)};")
        fn.open(f"for (int ci = 0; ci < {cg}; ++ci) {{")
        fn.open(f"for (int ky = 0; ky < {kh}; ++ky) {{")
        fn.line(f"int yy = y * {stride} + ky - {padding};")
        fn.line(f"if (yy < 0 || yy >= {h}) continue;")
        fn.open(f"for (int kx = 0; kx < {kw}; ++kx) {{")
        fn.line(f"int xx = x * {stride} + kx - {padding};")
        fn.line(f"if (xx < 0 || xx >= {w}) continue;")
        fn.line(f"s += {srcs[0]}[((size_t)(g0 + ci) * {h} + yy) * {w} + xx] * "
                f"{tag}_w[(((size_t)f * {cg} + ci) * {kh} + ky) * {kw} + kx];")
        fn.close()
        fn.close()
        fn.close()
        fn.line(f"{dst}[((size_t)f * {oh} + y) * {ow} + x] = s;")
        fn.close()
        fn.close()
        fn.close()
        assert c == cg * groups

    def _emit_linear(self, fn, tag, op, srcs, dst):
        attrs = op.attrs
        weight = np.asarray(attrs["weight"], dtype=np.float64)
        bias = attrs["bias"]
        f_out, c = weight.shape
        w_off = self.consts.add(weight.reshape(-1))
        fn.line(f"const double* {tag}_w = (const double*)(consts + {w_off});")
        if bias is not None:
            b_off = self.consts.add(np.asarray(bias, dtype=np.float64).reshape(-1))
            fn.line(f"const double* {tag}_b = (const double*)(consts + {b_off});")
        fn.open(f"for (int f = 0; f < {f_out}; ++f) {{")
        fn.line("double s = 0.0;")
        fn.open(f"for (int ci = 0; ci < {c}; ++ci) {{")
        fn.line(f"s += {srcs[0]}[ci] * {tag}_w[(size_t)f * {c} + ci];")
        fn.close()
        fn.line(f"{dst}[f] = s{f' + {tag}_b[f]' if bias is not None else ''};")
        fn.close()

    # -- the bit-serial two-stage kernel ---------------------------------------
    def _emit_bitserial(self, fn: _Fn, tag: str, bound, src: str, dst: str):
        """One integer bit-serial layer: stage-1 partials, tap reduction,
        epilogue — per sample, following the hoisted-padding formulation
        (integer accumulation makes the order change bit-exact)."""
        plan = getattr(bound.plan, "conv_plan", bound.plan)
        op = bound.op
        in_shape = tuple(int(d) for d in op.in_shape)
        out_shape = tuple(int(d) for d in op.out_shape)
        if len(in_shape) == 1:  # bit-serial linear: a 1×1 conv on a 1×1 image
            c, h, w = in_shape[0], 1, 1
            f_out, oh, ow = out_shape[0], 1, 1
        else:
            c, h, w = in_shape
            f_out, oh, ow = out_shape
        kh, kw = plan.kernel
        stride, padding = plan.stride, plan.padding
        gsize = plan.group_size
        groups = plan.in_channels // gsize
        bits = active_bit_positions(plan.act_bitwidth, self.active_bits)
        tables = np.ascontiguousarray(plan.tables)
        wid = int(tables.shape[-1])
        ts = int(tables.shape[-2])  # 2^group_size rows per (bit[, group])
        pt = _ctype(plan.partial_dtype)
        at = _ctype(plan.acc_dtype)
        pt_size = np.dtype(plan.partial_dtype).itemsize
        at_size = np.dtype(plan.acc_dtype).itemsize

        # Pointwise downsample reads every stride-th pixel; fold the
        # decimation into the stage-1 grid (integer math — order-free).
        istep, s2 = 1, stride
        gh, gw = h, w
        if kh == kw == 1 and stride > 1 and padding == 0:
            istep, s2 = stride, 1
            gh, gw = oh, ow

        tab_off = self.consts.add(tables)
        cols_off = self.consts.add(np.ascontiguousarray(plan.group_cols, dtype=np.int32))
        pv_off = self.scratch.alloc(groups * gh * gw * wid * pt_size)
        acc_off = self.scratch.alloc(oh * ow * f_out * at_size)
        tt = _ctype(tables.dtype)
        fn.line(f"const {tt}* {tag}_tab = (const {tt}*)(consts + {tab_off});")
        fn.line(f"const int32_t* {tag}_cols = (const int32_t*)(consts + {cols_off});")
        fn.line(f"{pt}* {tag}_pv = ({pt}*)(scratch + {pv_off});")
        fn.line(f"{at}* {tag}_acc = ({at}*)(scratch + {acc_off});")

        # Stage 1: per-pixel, per-group bit-serial pool partials.
        fn.open(f"for (int g = 0; g < {groups}; ++g) {{")
        fn.open(f"for (int y = 0; y < {gh}; ++y) {{")
        fn.open(f"for (int x = 0; x < {gw}; ++x) {{")
        for m in range(len(bits)):
            fn.line(f"unsigned int a{m} = 0;")
        fn.open(f"for (int ci = 0; ci < {gsize}; ++ci) {{")
        fn.line(f"unsigned int v = (unsigned int){src}[((size_t)(g * {gsize} + ci) "
                f"* {h} + y * {istep}) * {w} + x * {istep}];")
        for m, j in enumerate(bits):
            fn.line(f"a{m} |= ((v >> {j}) & 1u) << ci;")
        fn.close()
        fn.line(f"{pt}* pr = {tag}_pv + (((size_t)g * {gh} + y) * {gw} + x) * {wid};")
        fn.open(f"for (int s = 0; s < {wid}; ++s) {{")
        fn.line("long long t = 0;")
        for m, j in enumerate(bits):
            if plan.mode == "direct":
                row = f"((size_t){j} * {groups} + g) * {ts} + a{m}"
            else:
                row = f"(size_t){j} * {ts} + a{m}"
            fn.line(f"t += (long long){tag}_tab[({row}) * {wid} + s];")
        fn.line(f"pr[s] = ({pt})t;")
        fn.close()
        fn.close()
        fn.close()
        fn.close()

        # Stage 2: windowed tap reduction over the in-bounds tap windows.
        kkf = kh * kw * f_out
        bounds = []
        for k in range(kh * kw):
            ki, kj = divmod(k, kw)
            y0, y1, x0, x1 = plan._tap_bounds(ki, kj, gh, gw, oh, ow, s2)
            bounds.append((y0, y1, x0, x1, ki, kj))
        rows = ", ".join(
            "{" + ", ".join(str(v) for v in b) + "}" for b in bounds
        )
        fn.line(f"static const int {tag}_tb[{kh * kw}][6] = {{{rows}}};")
        fn.line(f"memset({tag}_acc, 0, {oh * ow * f_out} * sizeof({at}));")
        fn.open(f"for (int g = 0; g < {groups}; ++g) {{")
        fn.line(f"const int32_t* cg = {tag}_cols + (size_t)g * {kkf};")
        fn.open(f"for (int k = 0; k < {kh * kw}; ++k) {{")
        fn.line(f"int y0 = {tag}_tb[k][0], y1 = {tag}_tb[k][1];")
        fn.line(f"int x0 = {tag}_tb[k][2], x1 = {tag}_tb[k][3];")
        fn.line(f"int ki = {tag}_tb[k][4], kj = {tag}_tb[k][5];")
        fn.line(f"const int32_t* ck = cg + (size_t)k * {f_out};")
        fn.open("for (int y = y0; y < y1; ++y) {")
        fn.line(f"const {pt}* prow = {tag}_pv + (((size_t)g * {gh} + "
                f"(y * {s2} + ki - {padding})) * {gw} + "
                f"(x0 * {s2} + kj - {padding})) * {wid};")
        fn.line(f"{at}* arow = {tag}_acc + ((size_t)y * {ow} + x0) * {f_out};")
        fn.open("for (int x = x0; x < x1; ++x) {")
        fn.open(f"for (int f = 0; f < {f_out}; ++f) {{")
        fn.line(f"arow[f] += ({at})prow[ck[f]];")
        fn.close()
        fn.line(f"arow += {f_out};")
        fn.line(f"prow += {s2 * wid};")
        fn.close()
        fn.close()
        fn.close()
        fn.close()
        if padding:
            border = plan._border_tensor(gh, gw, oh, ow, s2, bits)
            b_off = self.consts.add(np.ascontiguousarray(border, dtype=plan.acc_dtype))
            fn.line(f"const {at}* {tag}_bd = (const {at}*)(consts + {b_off});")
            fn.open(f"for (long e = 0; e < {oh * ow * f_out}; ++e) {{")
            fn.line(f"{tag}_acc[e] += {tag}_bd[e];")
            fn.close()

        # Epilogue: α·acc + β (→ rint → clip → cast when requantizing) —
        # the exact ufunc sequence of ConvKernelPlan._apply_epilogue.
        alpha = plan.alpha
        if np.ndim(alpha):
            a_off = self.consts.add(np.asarray(alpha, dtype=np.float64).reshape(-1))
            fn.line(f"const double* {tag}_al = (const double*)(consts + {a_off});")
            alpha_expr = f"{tag}_al[f]"
        else:
            alpha_expr = _hexf(alpha)
        if plan.beta is not None:
            be_off = self.consts.add(np.asarray(plan.beta, dtype=np.float64).reshape(-1))
            fn.line(f"const double* {tag}_be = (const double*)(consts + {be_off});")
        # ``bound.output`` (the fused epilogue's buffer), not ``op.output``
        # (the pre-epilogue intermediate, which the bound schedule eliminates).
        out_ct = _ctype(self.plan.specs[bound.output].dtype)
        fn.open(f"for (int f = 0; f < {f_out}; ++f) {{")
        fn.open(f"for (int y = 0; y < {oh}; ++y) {{")
        fn.open(f"for (int x = 0; x < {ow}; ++x) {{")
        fn.line(f"double v = (double){tag}_acc[((size_t)y * {ow} + x) * {f_out} + f] "
                f"* {alpha_expr};")
        if plan.beta is not None:
            # Skipped entirely when β is None: adding 0.0 would flip -0.0.
            fn.line(f"v = v + {tag}_be[f];")
        if plan.requant is not None:
            lo, hi, _ = plan.requant
            fn.line("v = rint(v);")
            fn.line(f"if (v < {_hexf(lo)}) v = {_hexf(lo)};")
            fn.line(f"if (v > {_hexf(hi)}) v = {_hexf(hi)};")
        fn.line(f"{dst}[((size_t)f * {oh} + y) * {ow} + x] = ({out_ct})v;")
        fn.close()
        fn.close()
        fn.close()


def emit_native(
    program,
    steps: Sequence,
    exec_plan: ExecutionPlan,
    active_bits: Optional[int] = None,
    standalone: bool = False,
) -> EmittedProgram:
    """Emit C99 for the native-eligible portion of a planned schedule."""
    return Emitter(
        program, steps, exec_plan, active_bits=active_bits, standalone=standalone
    ).emit()
