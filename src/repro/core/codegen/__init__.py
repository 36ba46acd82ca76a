"""Native (O4) codegen backend: planned schedule → C99 → shared library.

Three stages, one per module:

* :mod:`~repro.core.codegen.emitter` — deterministic C99 emission of the
  native-eligible portion of a planned schedule (arena offsets baked as
  constants, fused chains as single loop nests, per-layer tables in one
  binary consts blob).
* :mod:`~repro.core.codegen.build` — host-compiler discovery, a parallel
  per-segment ``-O3`` build, and a content-hash-keyed build cache of
  compiled shared libraries.
* :mod:`~repro.core.codegen.runtime` — ctypes loading and execution of the
  emitted segments against the executor's shard runtimes.

:func:`bind_native` is the executor-facing entry point tying them together.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.codegen.build import (
    CFLAGS,
    NATIVE_ABI,
    NativeBuildError,
    NoCompilerError,
    build_shared_library,
    content_key,
    default_cache_dir,
    find_compiler,
)
from repro.core.codegen.emitter import (
    CodegenUnsupported,
    EmittedProgram,
    Emitter,
    SegmentSpec,
    emit_native,
)
from repro.core.codegen.runtime import NativeExecution, NativeModule

__all__ = [
    "CFLAGS",
    "NATIVE_ABI",
    "CodegenUnsupported",
    "EmittedProgram",
    "Emitter",
    "NativeBuildError",
    "NativeExecution",
    "NativeModule",
    "NoCompilerError",
    "SegmentSpec",
    "bind_native",
    "build_shared_library",
    "content_key",
    "default_cache_dir",
    "emit_native",
    "find_compiler",
]


def bind_native(
    program,
    steps: Sequence,
    exec_plan,
    active_bits: Optional[int] = None,
    cache_dir=None,
) -> NativeExecution:
    """Emit, build (or fetch from cache) and load native code for a plan.

    Raises :class:`CodegenUnsupported` when no step of the schedule is
    native-eligible, :class:`NoCompilerError` when the host has no C
    compiler (and the library is not already cached), and
    :class:`NativeBuildError` on compiler failure.
    """
    emitted = emit_native(program, steps, exec_plan, active_bits=active_bits)
    if not emitted.segments:
        raise CodegenUnsupported(
            "no native-eligible steps in this schedule (nothing to compile)"
        )
    lib_path, cache_hit, compiler = build_shared_library(
        emitted.source, emitted.consts, cache_dir=cache_dir, units=emitted.units
    )
    return NativeExecution(
        emitted, exec_plan, lib_path, compiler=compiler, cache_hit=cache_hit
    )
