"""Standalone C source bundle for MCU deployment.

Replaces the cost-model-only MCU path with *compilable output*: the same
emitter that powers the host's native (O4) backend lowers a compiled
program — every step, including the float convolutions and average pools
the host keeps on NumPy — into a self-contained C99 bundle:

* ``model.c``   — the lowered network: one segment covering the whole
  schedule plus a ``repro_net_run(const double* input, double* output)``
  entry with statically-allocated arena/scratch (no malloc, no libc beyond
  ``memcpy``/``rint`` — the firmware profile of the paper's targets).
* ``weights.c`` — the consts blob (bit-weighted LUT sub-tables, gather
  columns, border tensors, epilogue coefficients, float weights) as one
  ``const unsigned char repro_consts[]`` array, the flash image.
* ``model.h``   — entry prototype and input/output element counts.
* ``main.c``    — an optional host-side harness: one raw float64 sample on
  stdin, logits on stdout (what the round-trip test drives).

Numerics: the integer bit-serial layers and elementwise glue are bit-exact
with the host plan backend; float convolutions and average pools use plain
loop nests whose summation order differs from BLAS/pairwise-mean, so
end-to-end outputs agree to float tolerance (the host-mode native backend,
which keeps those steps on NumPy, stays bitwise).

The bundle always plans at batch tile 1 — per-sample static buffers are
the MCU memory model, and they also make the lowering hazard-free (see
``Emitter._step_native``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

import numpy as np


@dataclass
class SourceBundle:
    """A standalone C bundle: file name → file text, plus emission counters."""

    files: Dict[str, str]
    entry: str
    input_elems: int
    output_elems: int
    arena_bytes: int
    consts_bytes: int
    counters: Dict[str, int] = field(default_factory=dict)

    def write(self, directory: Union[str, Path]) -> Path:
        """Write every file into ``directory`` (created if missing)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text)
        return directory


def _render_consts(consts: bytes, per_line: int = 16) -> str:
    """The consts blob as a compilable C translation unit (flash image)."""
    data = consts or b"\x00"
    lines = [
        "/* Generated by repro.mcu.bundle — program constants (flash image). */",
        f"const unsigned char repro_consts[{len(data)}] = {{",
    ]
    for start in range(0, len(data), per_line):
        chunk = ", ".join(str(b) for b in data[start : start + per_line])
        lines.append(f"    {chunk},")
    lines.append("};")
    return "\n".join(lines) + "\n"


def _render_header(input_elems: int, output_elems: int) -> str:
    return (
        "/* Generated by repro.mcu.bundle. */\n"
        "#ifndef REPRO_MODEL_H\n"
        "#define REPRO_MODEL_H\n"
        "\n"
        f"#define REPRO_INPUT_ELEMS {input_elems}\n"
        f"#define REPRO_OUTPUT_ELEMS {output_elems}\n"
        "\n"
        "/* Runs one sample: input (REPRO_INPUT_ELEMS doubles, CHW) ->\n"
        " * output (REPRO_OUTPUT_ELEMS doubles). Reentrant per call, not\n"
        " * thread-safe (static arena). */\n"
        "void repro_net_run(const double* input, double* output);\n"
        "\n"
        "#endif /* REPRO_MODEL_H */\n"
    )


_MAIN_C = """\
/* Generated by repro.mcu.bundle — host-side harness for the bundle.
 * Reads one raw float64 sample from stdin, writes the logits to stdout. */
#include <stdio.h>

#include "model.h"

int main(void) {
    static double input[REPRO_INPUT_ELEMS];
    static double output[REPRO_OUTPUT_ELEMS];
    if (fread(input, sizeof(double), REPRO_INPUT_ELEMS, stdin)
            != (size_t)REPRO_INPUT_ELEMS) {
        fprintf(stderr, "short read: expected %d doubles\\n", REPRO_INPUT_ELEMS);
        return 1;
    }
    repro_net_run(input, output);
    fwrite(output, sizeof(double), REPRO_OUTPUT_ELEMS, stdout);
    return 0;
}
"""


def build_source_bundle(program, active_bits=None) -> SourceBundle:
    """Lower a bound, optimized program into a standalone C bundle.

    Plans the program exactly like the host executor (arena offsets, fused
    chains, kernel plans), then emits *every* step in standalone mode.
    Raises :class:`~repro.core.codegen.CodegenUnsupported` when some op has
    no C lowering, and :class:`~repro.core.memory_plan.PlanUnsupported` when
    the program cannot be planned (it must be bound and compiled at O2 or
    higher).
    """
    from repro.core.codegen import CodegenUnsupported, emit_native
    from repro.core.memory_plan import PlanUnsupported
    from repro.core.program import Executor

    executor = Executor(
        program, backend="plan", tile=1, n_shards=1, active_bits=active_bits
    )
    plan = executor.exec_plan
    if plan is None:
        raise PlanUnsupported(
            f"a source bundle needs an ahead-of-time plan; this "
            f"{program.effective_opt_level} program has none (compile at O2 or higher)"
        )
    if np.dtype(plan.out_dtype) != np.float64:
        raise CodegenUnsupported(
            f"standalone entry emits double output; program produces {plan.out_dtype}"
        )
    emitted = emit_native(
        program, executor._steps, plan, active_bits=active_bits, standalone=True
    )
    input_elems = int(np.prod(program.input_shape, dtype=np.int64))
    output_elems = int(np.prod(plan.out_shape, dtype=np.int64))
    files = {
        "model.c": emitted.source,
        "weights.c": _render_consts(emitted.consts),
        "model.h": _render_header(input_elems, output_elems),
        "main.c": _MAIN_C,
    }
    return SourceBundle(
        files=files,
        entry=emitted.entry or "repro_net_run",
        input_elems=input_elems,
        output_elems=output_elems,
        arena_bytes=int(plan.arena_bytes),
        consts_bytes=len(emitted.consts),
        counters=dict(emitted.counters),
    )


def write_source_bundle(
    program, directory: Union[str, Path], active_bits=None
) -> SourceBundle:
    """:func:`build_source_bundle` + :meth:`SourceBundle.write` in one call."""
    bundle = build_source_bundle(program, active_bits=active_bits)
    bundle.write(directory)
    return bundle
