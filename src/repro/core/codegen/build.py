"""Native build driver: C source + consts blob → cached shared library.

The emitter (:mod:`repro.core.codegen.emitter`) produces two artifacts per
program: deterministic C99 source and a binary constants blob (tables,
border tensors, epilogue coefficients).  This module owns everything after
that: finding a host C compiler, compiling the source into a shared library
with a pinned flag set, and caching the result on disk keyed by the SHA-256
of *both* artifacts plus the flags and ABI revision — the same program
content built the same way always maps to the same library file, so repeated
binds (and server restarts) skip the compile entirely, and a library built
with other flags is never reused.

The emitter also hands over the source split into one translation unit per
segment (``repro_seg_k``; the segments share nothing but the ``#include``
header).  A cold build compiles those units concurrently — at most
``os.cpu_count()`` compilers at once — and links the objects once, so the
``-O3`` build's wall time shrinks with the core count.  The
cache key, the ``.c`` companion written next to the library and the atomic
publish all cover the whole source, as if it had been compiled in one piece.

Flags are part of the contract, not a tuning knob.  ``-O3`` adds loop
vectorisation and unrolling, but without ``-ffast-math`` the compiler never
reassociates float arithmetic; ``-ffp-contract=off`` forbids FMA
contraction so the emitted float expressions evaluate exactly the
ufunc-by-ufunc sequence the NumPy plan backend runs — the bit-exactness
guarantee of the ``native`` backend depends on it.  Value-changing flags
(``-ffast-math``, ``-Ofast``) break that guarantee, and host-ISA flags
(``-march=native``) would make the cached library host-specific while the
cache key carries no ISA, so neither belongs here.

Hosts without a compiler raise :class:`NoCompilerError`; the executor
catches it and falls back to the plan backend (O4 → effective O2) with a
surfaced ``fallback_reason``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: ABI revision of the emitted segment entry points; bumped when the
#: signature ``(consts, arena, scratch, ext, n)`` or the layout contract
#: changes.  Persisted in artifact headers so a loader can refuse a source
#: it does not understand.
NATIVE_ABI = 1

#: Pinned compile flags for every translation unit (see module docstring for
#: why they are contractual); the objects are then linked with ``-shared``.
CFLAGS: Tuple[str, ...] = ("-O3", "-std=c99", "-fPIC", "-ffp-contract=off")

#: Compiler candidates probed in order.
_COMPILERS = ("cc", "gcc", "clang")


class NoCompilerError(RuntimeError):
    """No C compiler found on this host; the native backend cannot build."""


class NativeBuildError(RuntimeError):
    """The C compiler rejected the emitted source (a codegen bug)."""


def find_compiler() -> Optional[str]:
    """Path of the first available host C compiler, or ``None``."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def default_cache_dir() -> Path:
    """Build-cache directory: ``$REPRO_NATIVE_CACHE`` or the XDG cache."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def content_key(source: str, consts: bytes) -> str:
    """SHA-256 over the emitted source, the constants blob, :data:`CFLAGS`
    and :data:`NATIVE_ABI`.

    Two programs that emit identical C but different constants (same
    architecture, different weights) must not share a library name for
    cache-correctness of the on-disk ``.c`` companion — the constants are
    passed at run time, but keying on both keeps one key usable as "the
    program content hash" everywhere (artifacts, stats, cache files).  The
    flags and ABI revision change the library itself, so they are keyed
    too.  No compiler is probed: a warmed cache must still serve hosts
    without one.
    """
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(consts)
    digest.update(b"\x00")
    digest.update("\x1f".join(CFLAGS).encode("utf-8"))
    digest.update(f"\x00abi={NATIVE_ABI}".encode("utf-8"))
    return digest.hexdigest()


def build_shared_library(
    source: str,
    consts: bytes,
    cache_dir: Optional[os.PathLike] = None,
    units: Optional[Sequence[str]] = None,
) -> Tuple[Path, bool, Optional[str]]:
    """Compile (or fetch from cache) the shared library for ``source``.

    ``units`` are independently compilable translation units that together
    define what ``source`` defines (the emitter's per-segment split); they
    are compiled in parallel and linked once.  ``None`` compiles ``source``
    as one unit.  The cache key and the ``.c`` companion always cover
    ``source``.

    Returns ``(library_path, cache_hit, compiler)``; ``compiler`` is ``None``
    on a cache hit (nothing was invoked).  Raises :class:`NoCompilerError`
    when no compiler exists and the library is not already cached, and
    :class:`NativeBuildError` — naming the failing command — when a unit
    does not compile or the link fails.  Intermediate files live in a
    private temporary directory that is removed on success and on failure;
    concurrent builders of one key each publish a complete library under
    the same name, so every one of them ends with a valid file.
    """
    key = content_key(source, consts)
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    lib_path = cache / f"repro_{key[:32]}.so"
    if lib_path.exists():
        return lib_path, True, None
    compiler = find_compiler()
    if compiler is None:
        raise NoCompilerError(
            "no C compiler found (tried: " + ", ".join(_COMPILERS) + "); "
            "install gcc or set PATH to enable the native (O4) backend"
        )
    cache.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".repro_{key[:32]}.", dir=str(cache)))
    try:
        objects = _compile_units(compiler, list(units or [source]), work)
        tmp_lib = work / "lib.so"
        _run([compiler, "-shared", "-o", str(tmp_lib), *map(str, objects)])
        tmp_src = work / "source.c"
        tmp_src.write_text(source)
        # Atomic publish, companion first: concurrent builders race benignly
        # to the same names, and a published library always has its source.
        os.replace(tmp_src, cache / f"repro_{key[:32]}.c")
        os.replace(tmp_lib, lib_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return lib_path, False, compiler


def _compile_units(compiler: str, units: List[str], work: Path) -> List[Path]:
    """Compile each unit to an object in ``work``, concurrently; returns the
    object paths in unit order or raises the first failing unit's error."""
    commands = []
    objects = []
    for k, text in enumerate(units):
        src = work / f"unit{k}.c"
        src.write_text(text)
        obj = work / f"unit{k}.o"
        commands.append([compiler, *CFLAGS, "-c", "-o", str(obj), str(src)])
        objects.append(obj)
    workers = max(1, min(len(commands), os.cpu_count() or 1))
    # Leaving the pool waits for every compiler, so a failure never leaves
    # one writing into the directory the caller is about to remove.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_run, commands))
    return objects


def _run(cmd: List[str]) -> None:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise NativeBuildError(
            f"native build failed ({' '.join(cmd)}):\n{proc.stderr.strip()[-2000:]}"
        )
