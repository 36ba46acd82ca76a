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

Flags are part of the contract, not a tuning knob: ``-ffp-contract=off``
forbids FMA contraction so the emitted float expressions evaluate exactly
the ufunc-by-ufunc sequence the NumPy plan backend runs — the bit-exactness
guarantee of the ``native`` backend depends on it.

Hosts without a compiler raise :class:`NoCompilerError`; the executor
catches it and falls back to the plan backend (O4 → effective O3) with a
surfaced ``fallback_reason``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

#: ABI revision of the emitted segment entry points; bumped when the
#: signature ``(consts, arena, scratch, ext, n)`` or the layout contract
#: changes.  Persisted in artifact headers so a loader can refuse a source
#: it does not understand.
NATIVE_ABI = 1

#: Pinned compile flags (see module docstring for why they are contractual).
CFLAGS: Tuple[str, ...] = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

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
    source: str, consts: bytes, cache_dir: Optional[os.PathLike] = None
) -> Tuple[Path, bool, Optional[str]]:
    """Compile (or fetch from cache) the shared library for ``source``.

    Returns ``(library_path, cache_hit, compiler)``; ``compiler`` is ``None``
    on a cache hit (nothing was invoked).  Raises :class:`NoCompilerError`
    when no compiler exists and the library is not already cached, and
    :class:`NativeBuildError` when compilation fails.
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
    src_path = cache / f"repro_{key[:32]}.c"
    src_path.write_text(source)
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    cmd = [compiler, *CFLAGS, "-o", tmp_name, str(src_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeBuildError(
                f"native build failed ({' '.join(cmd)}):\n{proc.stderr.strip()[-2000:]}"
            )
        # Atomic publish: concurrent builders race benignly to the same name.
        os.replace(tmp_name, lib_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return lib_path, False, compiler
