"""Pass-manager compiler pipeline: one subsystem owning "model → program".

PRs 1–4 grew four layers of execution machinery (per-layer kernel plans, the
graph IR, ahead-of-time memory plans, serving), but the glue between them was
ad-hoc: :func:`~repro.core.program.compile_network` hard-coded two pass
calls and nothing verified the IR between transformations.  This module
organizes it the way production ML compilers do — as a *pass pipeline*
with verification:

* :class:`Pass` / :data:`PASS_REGISTRY` — every transformation is a
  registered, typed pass with a ``stage`` (``graph`` rewrites the IR,
  ``schedule`` compiles the bound step schedule, ``codegen`` lowers it to
  native code) and the first optimization :data:`level <OPT_LEVELS>` that
  enables it.
* :class:`PassManager` — validates level/pass selections (unknown names
  raise, listing the valid choices), runs the graph stage in registration
  order, and produces a :class:`PipelineReport` (per-pass counters, op
  counts before/after, verifier runs) that travels with the program: into
  saved artifact headers, repository metadata, and the serve ``/stats``
  payload.
* **Optimization levels** — ``O0`` is the reference lowering (on the
  ``reference`` backend, the oracle), ``O1`` adds the graph passes (BatchNorm fold,
  requantize fusion, quantize CSE, activation-clip fold), ``O2`` adds the
  ahead-of-time fusion/arena memory plan, and ``O4`` adds native C
  codegen of the planned schedule.  Every level produces the same
  predictions — the graph passes change only the float association of
  epilogues (documented ~1e-12 relative tolerance); the schedule's shard
  count is bitwise-invariant by construction, and the heuristic tile
  carries one caveat (the float stem conv's BLAS reduction order varies
  with batch tile).  The level name ``O3`` (a retired empirical kernel
  autotuner whose candidates were all bitwise-identical to the ``O2``
  schedule) is no longer accepted; artifacts saved at it load as ``O2``.
* :func:`verify_program` — an IR verifier (SSA/def-before-use, shape and
  dtype propagation, single-consumer epilogue claims) run between passes in
  debug mode (``debug=True`` or ``REPRO_PIPELINE_DEBUG=1``) and once at
  pipeline exit always, so a broken pass fails at compile time with the
  offending op named instead of deep inside a kernel.

The four graph passes lived in :mod:`repro.core.program` through PR 4; they
moved here with identical semantics and are re-exported from
:mod:`repro.core` under their original names.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.functional import conv_output_size
from repro.quantization.quantizer import QuantParams

# ---------------------------------------------------------------------------
# Optimization levels
# ---------------------------------------------------------------------------
#: Ordered optimization levels.  Each level enables every pass of the levels
#: below it; the docs table in ``docs/ARCHITECTURE.md`` §3 names what each
#: adds (a docs test keeps the two in sync).
OPT_LEVELS: Tuple[str, ...] = ("O0", "O1", "O2", "O4")

#: Pipeline stages, in execution order.  ``graph`` passes rewrite the IR
#: (run by :meth:`PassManager.run`), ``schedule`` passes compile the bound
#: step schedule, and ``codegen`` passes lower the planned schedule to
#: native code (both non-graph stages run when the
#: :class:`~repro.core.program.Executor` binds the program).
PASS_STAGES: Tuple[str, ...] = ("graph", "schedule", "codegen")


def _level_index(level: str) -> int:
    if level not in OPT_LEVELS:
        raise ValueError(
            f"unknown optimization level {level!r}; valid levels: "
            f"{', '.join(OPT_LEVELS)}"
        )
    return OPT_LEVELS.index(level)


def level_enables(level: str, threshold: str) -> bool:
    """True when optimization ``level`` enables passes gated at ``threshold``."""
    return _level_index(level) >= _level_index(threshold)


# ---------------------------------------------------------------------------
# Pass abstraction and registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Pass:
    """One registered compiler pass.

    ``fn(program) -> Dict[str, int]`` applies a *graph*-stage pass and
    returns its report counters; schedule/codegen passes are registered for
    reporting and level-gating but execute inside the executor bind (their
    ``fn`` is ``None``).  ``counters`` names the report keys the pass emits
    (documented per pass in ``docs/ARCHITECTURE.md``).
    """

    name: str
    stage: str
    level: str
    fn: Optional[Callable[[Any], Dict[str, int]]] = None
    rewrites: str = ""
    counters: Tuple[str, ...] = ()


#: Registered passes by name, in registration order (dicts preserve it);
#: registration order *is* execution order within a stage.
PASS_REGISTRY: Dict[str, Pass] = {}


def register_pass(pass_: Pass) -> Pass:
    """Register a pass; names are unique, stages and levels validated."""
    if pass_.name in PASS_REGISTRY:
        raise ValueError(f"pass '{pass_.name}' is already registered")
    if pass_.stage not in PASS_STAGES:
        raise ValueError(
            f"pass '{pass_.name}' has unknown stage {pass_.stage!r}; "
            f"valid stages: {', '.join(PASS_STAGES)}"
        )
    _level_index(pass_.level)
    PASS_REGISTRY[pass_.name] = pass_
    return pass_


def registered_passes(stage: Optional[str] = None) -> List[Pass]:
    """Registered passes in registration order, optionally one stage only."""
    passes = list(PASS_REGISTRY.values())
    if stage is None:
        return passes
    return [p for p in passes if p.stage == stage]


# ---------------------------------------------------------------------------
# Graph passes (moved verbatim from repro.core.program)
# ---------------------------------------------------------------------------
def _consumer_map(ops) -> Dict[int, List]:
    consumers: Dict[int, List] = {}
    for op in ops:
        for buf in op.inputs:
            consumers.setdefault(buf, []).append(op)
    return consumers


def _require_bound(program) -> None:
    if not program.bound:
        raise RuntimeError(
            "program is structural (compiled without lut/activation_params); "
            "calibrate an engine and compile() it to execute data"
        )


def _quant_level(value: float, params: QuantParams) -> int:
    """The integer level ``quantize(value)`` maps to."""
    q = int(np.round(value / params.scale)) + params.zero_point
    return int(np.clip(q, params.qmin, params.qmax))


def fold_batchnorm(program) -> int:
    """Fold BatchNorm ops into the preceding bit-serial epilogue.

    ``bn(deq(acc)) = bn_scale·(α·acc + β) + bn_shift`` collapses into a
    per-filter ``α', β'`` on the dequantize/requantize op, deleting one full
    float pass over the activations per compressed conv.  Returns the number
    of BatchNorms folded.
    """
    _require_bound(program)
    consumers = _consumer_map(program.ops)
    removed = []
    for op in program.ops:
        if op.kind != "dequantize" or len(op.out_shape) != 3:
            continue
        users = consumers.get(op.output, [])
        if len(users) != 1 or users[0].kind != "batchnorm" or op.output == program.output_id:
            continue
        bn = users[0]
        scale = bn.attrs["gamma"] * bn.attrs["inv_std"]
        shift = bn.attrs["beta"] - bn.attrs["mean"] * scale
        op.attrs["bn"] = (scale, shift)
        op.output = bn.output
        op.out_shape = bn.out_shape
        removed.append(bn)
    program.ops = [op for op in program.ops if op not in removed]
    return len(removed)


def fuse_requantize(program) -> int:
    """Elide ``dequantize → … → quantize`` chains into fused requantization.

    Walks forward from each dequantize through single-consumer ops that
    commute exactly with the (monotone) round/clip of quantization — relu,
    relu6, non-overlapping max pooling — and, when the chain ends in a
    ``quantize`` op, rewrites the dequantize into a ``requantize`` whose
    epilogue emits the next layer's integer activations directly.  The relu
    becomes the requantize clip's lower bound (the zero point represents
    exactly 0), relu6 caps the upper bound, and max pools run on the integer
    buffers.  Returns the number of pairs elided.
    """
    _require_bound(program)
    consumers = _consumer_map(program.ops)
    substitute: Dict[int, int] = {}
    removed: List = []
    fused = 0
    for op in program.ops:
        if op.kind != "dequantize":
            continue
        chain: List = []
        cursor = op
        quant = None
        while True:
            if cursor.output == program.output_id:
                break
            users = consumers.get(cursor.output, [])
            if len(users) != 1:
                break
            nxt = users[0]
            if nxt.kind == "activation" and nxt.attrs.get("fn") in ("relu", "relu6"):
                chain.append(nxt)
                cursor = nxt
            elif nxt.kind == "pool" and nxt.attrs.get("pool") == "max":
                chain.append(nxt)
                cursor = nxt
            elif nxt.kind == "flatten":
                chain.append(nxt)
                cursor = nxt
            elif nxt.kind == "quantize":
                quant = nxt
                break
            else:
                break
        if quant is None:
            continue
        out_params: QuantParams = quant.attrs["params"]
        clip_lo, clip_hi = out_params.qmin, out_params.qmax
        for link in chain:
            if link.kind != "activation":
                continue
            clip_lo = max(clip_lo, out_params.zero_point)
            if link.attrs["fn"] == "relu6":
                clip_hi = min(clip_hi, _quant_level(6.0, out_params))
            removed.append(link)
            substitute[link.output] = link.inputs[0]
        for link in chain:
            if link.kind == "pool":
                link.attrs["integer"] = True
        op.kind = "requantize"
        op.attrs["out_params"] = out_params
        op.attrs["clip_lo"] = clip_lo
        op.attrs["clip_hi"] = clip_hi
        removed.append(quant)
        substitute[quant.output] = quant.inputs[0]
        fused += 1

    if not fused:
        return 0
    program.ops = [op for op in program.ops if op not in removed]

    def resolve(buf: int) -> int:
        while buf in substitute:
            buf = substitute[buf]
        return buf

    for op in program.ops:
        op.inputs = tuple(resolve(buf) for buf in op.inputs)
    program.output_id = resolve(program.output_id)
    return fused


def dedupe_quantize(program) -> int:
    """Common-subexpression-eliminate duplicate quantize ops.

    Two consumers of the same buffer (e.g. a downsample block's ``conv1`` and
    its shortcut) calibrate on the same tensor and freeze identical
    parameters; their quantize ops are the same computation.  Keeps the first,
    rewires the rest.  Returns the number of ops removed.
    """
    _require_bound(program)
    seen: Dict[tuple, Any] = {}
    substitute: Dict[int, int] = {}
    removed = []
    for op in program.ops:
        if op.kind != "quantize":
            continue
        key = (op.inputs, op.attrs["params"])
        kept = seen.get(key)
        if kept is None:
            seen[key] = op
        else:
            substitute[op.output] = kept.output
            removed.append(op)
    if not removed:
        return 0
    program.ops = [op for op in program.ops if op not in removed]
    for op in program.ops:
        op.inputs = tuple(substitute.get(buf, buf) for buf in op.inputs)
    return len(removed)


def fold_activation_into_quantize(program) -> int:
    """Delete relu/relu6 ops whose every consumer is a quantize op.

    Rounding is monotone, so ``quantize(relu(x)) == clip(quantize(x), z, ·)``
    exactly; the activation becomes the quantize op's clip bounds (the zero
    point represents exactly 0).  Returns the number of activations folded.
    """
    _require_bound(program)
    consumers = _consumer_map(program.ops)
    substitute: Dict[int, int] = {}
    removed = []
    for op in program.ops:
        if op.kind != "activation" or op.attrs.get("fn") not in ("relu", "relu6"):
            continue
        if op.output == program.output_id:
            continue
        users = consumers.get(op.output, [])
        if not users or any(user.kind != "quantize" for user in users):
            continue
        for quant in users:
            params: QuantParams = quant.attrs["params"]
            quant.attrs["clip_lo"] = max(
                quant.attrs.get("clip_lo", params.qmin), params.zero_point
            )
            if op.attrs["fn"] == "relu6":
                quant.attrs["clip_hi"] = min(
                    quant.attrs.get("clip_hi", params.qmax), _quant_level(6.0, params)
                )
        substitute[op.output] = op.inputs[0]
        removed.append(op)
    if not removed:
        return 0
    program.ops = [op for op in program.ops if op not in removed]
    for op in program.ops:
        op.inputs = tuple(substitute.get(buf, buf) for buf in op.inputs)
    return len(removed)


# -- registration (order = execution order within the graph stage) -----------
register_pass(Pass(
    name="fold_batchnorm", stage="graph", level="O1",
    fn=lambda program: {"batchnorms_folded": fold_batchnorm(program)},
    rewrites="BatchNorm behind a bit-serial epilogue folds into the epilogue's per-filter α·acc + β",
    counters=("batchnorms_folded",),
))
register_pass(Pass(
    name="fuse_requantize", stage="graph", level="O1",
    fn=lambda program: {"pairs_fused": fuse_requantize(program)},
    rewrites="dequantize → … → quantize chains collapse into requantize (integer activations across compressed chains)",
    counters=("pairs_fused",),
))
register_pass(Pass(
    name="dedupe_quantize", stage="graph", level="O1",
    fn=lambda program: {"quantizes_removed": dedupe_quantize(program)},
    rewrites="CSE of duplicate quantize ops reading the same buffer with identical params",
    counters=("quantizes_removed",),
))
register_pass(Pass(
    name="fold_activation_into_quantize", stage="graph", level="O1",
    fn=lambda program: {"activations_folded": fold_activation_into_quantize(program)},
    rewrites="relu/relu6 whose every consumer is a quantize become the quantize's clip bounds",
    counters=("activations_folded",),
))
register_pass(Pass(
    name="memory_plan", stage="schedule", level="O2",
    rewrites="fuses elementwise glue runs and places every intermediate at a fixed offset of a preallocated arena",
    counters=("arena_bytes", "peak_live_bytes", "steps", "steps_fused", "fused_chains", "tile"),
))
register_pass(Pass(
    name="codegen", stage="codegen", level="O4",
    rewrites="lowers the planned schedule's native-eligible steps to C99, compiles them into a cached shared library, and executes them via ctypes",
    counters=("segments", "native_steps", "steps", "cache_hit", "source_bytes"),
))


# ---------------------------------------------------------------------------
# IR verifier
# ---------------------------------------------------------------------------
class VerificationError(RuntimeError):
    """The IR violates a structural invariant; the message names the op."""


def _expected_out_shape(op, in_shape: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """The out shape ``op`` must produce for ``in_shape``; ``None`` = unchecked."""
    kind = op.kind
    if kind in ("quantize", "batchnorm", "activation", "add", "dequantize", "requantize"):
        return in_shape
    if kind == "pad_channels":
        return (in_shape[0] + int(op.attrs["pad"]),) + tuple(in_shape[1:])
    if kind in ("bitserial_conv", "conv"):
        c, h, w = in_shape
        k = int(op.attrs["kernel_size"])
        stride = int(op.attrs["stride"])
        padding = int(op.attrs["padding"])
        if kind == "conv":
            filters = int(op.attrs["weight"].shape[0]) if op.attrs.get("weight") is not None else op.out_shape[0]
        else:
            filters = int(np.asarray(op.attrs["indices"]).shape[0])
        oh = conv_output_size(h, k, stride, padding)
        ow = conv_output_size(w, k, stride, padding)
        return (filters, oh, ow)
    if kind == "bitserial_linear":
        return (int(np.asarray(op.attrs["indices"]).shape[0]),)
    if kind == "linear":
        if op.attrs.get("weight") is not None:
            return (int(op.attrs["weight"].shape[0]),)
        return None
    if kind == "pool":
        if op.attrs["pool"] == "global_avg":
            return (in_shape[0],)
        k = int(op.attrs["kernel"])
        c, h, w = in_shape
        return (c, h // k, w // k)
    if kind == "flatten":
        return (int(np.prod(in_shape, dtype=np.int64)),)
    return None


def _quant_dtype(params) -> np.dtype:
    return np.dtype(np.uint8 if params.bitwidth <= 8 else np.uint16)


def _propagate_dtype(op, in_dtypes: List[np.dtype]) -> Optional[np.dtype]:
    """The dtype ``op`` produces (mirrors the executor's step semantics)."""
    kind = op.kind
    if kind in ("quantize", "requantize"):
        params = op.attrs["out_params"] if kind == "requantize" else op.attrs["params"]
        if params is None:
            return None
        return _quant_dtype(params)
    if kind in ("pad_channels", "batchnorm", "activation", "flatten"):
        return in_dtypes[0]
    if kind == "pool":
        return in_dtypes[0] if op.attrs["pool"] == "max" else np.dtype(np.float64)
    if kind == "add":
        return np.result_type(*in_dtypes)
    if kind in ("conv", "linear"):
        if op.attrs.get("weight") is None:
            return None
        return np.result_type(in_dtypes[0], op.attrs["weight"].dtype)
    if kind in ("bitserial_conv", "bitserial_linear", "dequantize"):
        # Raw bit-serial accumulations and their epilogues are float at the
        # IR level (the plan backend's integer accumulation is internal).
        return np.dtype(np.float64)
    return None


def verify_program(program) -> Dict[str, int]:
    """Verify the IR's structural invariants; returns check counters.

    Checks, in order:

    * every op kind is in :data:`~repro.core.program.IR_OP_KINDS`;
    * **SSA** — each buffer is written by exactly one op, and never the
      program input;
    * **def-before-use** — every input buffer is the program input or a
      preceding op's output, and the program output is produced;
    * **shape propagation** — each op's recorded ``in_shape``/``out_shape``
      agree with its producer and with the shape its attrs imply;
    * **dtype propagation** (bound programs) — integer/float domains flow
      consistently: a ``quantize`` must consume float data, an
      integer-marked ``pool`` must consume integer data, ``batchnorm`` and
      ``add`` run in float;
    * **single-consumer claims** — every ``bitserial_*`` op feeds exactly
      one ``dequantize``/``requantize`` epilogue (what the plan backend's
      kernel fusion relies on).

    Raises :class:`VerificationError` naming the offending op on the first
    violation.
    """
    from repro.core.program import IR_OP_KINDS  # late: avoid import cycle

    def fail(op, index, message) -> None:
        label = f"op[{index}] {op.kind}" + (f" '{op.name}'" if op.name else "")
        raise VerificationError(f"IR verification failed at {label}: {message}")

    counters = {
        "ops": len(program.ops),
        "ssa_checks": 0,
        "shape_checks": 0,
        "dtype_checks": 0,
        "consumer_checks": 0,
    }
    defined = {program.input_id}
    shapes: Dict[int, Tuple[int, ...]] = {program.input_id: tuple(program.input_shape)}
    dtypes: Dict[int, Optional[np.dtype]] = {program.input_id: np.dtype(np.float64)}
    for index, op in enumerate(program.ops):
        if op.kind not in IR_OP_KINDS:
            fail(op, index, f"unknown op kind (IR_OP_KINDS: {', '.join(IR_OP_KINDS)})")
        if op.output in defined:
            fail(op, index, f"buffer b{op.output} is written more than once (SSA violation)")
        for buf in op.inputs:
            if buf not in defined:
                fail(op, index, f"reads buffer b{buf} before any op defines it")
        counters["ssa_checks"] += 1

        if op.inputs:
            produced = shapes[op.inputs[0]]
            if op.in_shape and tuple(op.in_shape) != produced:
                fail(
                    op, index,
                    f"records in_shape {tuple(op.in_shape)} but its input "
                    f"b{op.inputs[0]} has shape {produced}",
                )
            expected = _expected_out_shape(op, produced)
            if expected is not None and tuple(op.out_shape) != tuple(expected):
                fail(
                    op, index,
                    f"records out_shape {tuple(op.out_shape)} but the op "
                    f"implies {tuple(expected)}",
                )
            counters["shape_checks"] += 1

        if program.bound and op.inputs:
            in_dtypes = [dtypes.get(buf) for buf in op.inputs]
            if all(dt is not None for dt in in_dtypes):
                if op.kind == "quantize" and in_dtypes[0].kind != "f":
                    fail(op, index, f"quantize consumes non-float dtype {in_dtypes[0]}")
                if op.kind in ("batchnorm", "add") and any(dt.kind != "f" for dt in in_dtypes):
                    fail(op, index, f"{op.kind} consumes integer dtype {in_dtypes}")
                if (
                    op.kind == "pool"
                    and op.attrs.get("integer")
                    and in_dtypes[0].kind not in "ui"
                ):
                    fail(op, index, "integer-marked pool consumes a float buffer")
                counters["dtype_checks"] += 1
        dtypes[op.output] = (
            _propagate_dtype(op, [dtypes.get(buf) for buf in op.inputs])
            if program.bound and all(dtypes.get(buf) is not None for buf in op.inputs)
            else None
        )
        defined.add(op.output)
        shapes[op.output] = tuple(op.out_shape)

    if program.output_id not in defined:
        raise VerificationError(
            f"IR verification failed: program output b{program.output_id} "
            "is never produced"
        )

    consumers = _consumer_map(program.ops)
    for index, op in enumerate(program.ops):
        if op.kind not in ("bitserial_conv", "bitserial_linear"):
            continue
        users = consumers.get(op.output, [])
        if len(users) != 1 or users[0].kind not in ("dequantize", "requantize"):
            fail(
                op, index,
                f"must feed exactly one dequantize/requantize epilogue, has "
                f"{[u.kind for u in users]}",
            )
        counters["consumer_checks"] += 1
    return counters


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
@dataclass
class PassReport:
    """What one pass did: counters plus op counts before/after."""

    name: str
    stage: str
    counters: Dict[str, int] = field(default_factory=dict)
    ops_before: int = 0
    ops_after: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "stage": self.stage,
            "counters": {k: v for k, v in self.counters.items()},
            "ops_before": int(self.ops_before),
            "ops_after": int(self.ops_after),
        }


@dataclass
class PipelineReport:
    """The pipeline's run record, attached to the program it compiled.

    JSON-able via :meth:`to_dict`; :func:`repro.core.export.save_program`
    embeds it in the artifact header, so
    :func:`~repro.core.export.read_program_metadata` (and repository
    listings, and the serve ``/stats`` payload) all expose it header-only.
    """

    level: str
    passes: List[PassReport] = field(default_factory=list)
    verifier_runs: int = 0
    verifier_counters: Dict[str, int] = field(default_factory=dict)
    ops_before: int = 0
    ops_after: int = 0
    debug: bool = False
    # Effective-level surfacing (no silent downgrades): when a level cannot
    # fully engage on this host — O4 without a C compiler — ``fallback_reason``
    # names why and ``effective_level`` the level that actually ran.  The
    # executor updates the attached dict in place when it binds (a host
    # *with* a compiler re-binding a fallen-back artifact restores O4).
    fallback_reason: Optional[str] = None
    effective_level: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "effective_level": self.effective_level or self.level,
            "fallback_reason": self.fallback_reason,
            "passes": [p.to_dict() for p in self.passes],
            "verifier_runs": int(self.verifier_runs),
            "verifier_counters": dict(self.verifier_counters),
            "ops_before": int(self.ops_before),
            "ops_after": int(self.ops_after),
            "debug": bool(self.debug),
        }


def record_stage_report(program, report: Dict[str, Any]) -> None:
    """Merge a schedule/codegen-stage pass report into the program's pipeline
    report (replacing a previous report of the same pass, so repeated
    executor binds never duplicate entries)."""
    pipeline = program.pipeline_report
    if pipeline is None:
        return
    passes = pipeline.setdefault("passes", [])
    for i, existing in enumerate(passes):
        if existing.get("name") == report.get("name"):
            passes[i] = report
            return
    passes.append(report)


def format_pipeline_report(program) -> str:
    """Human-readable pipeline report of a compiled program.

    One line per pass (graph, schedule and codegen stages), plus the
    verifier tally and — when an executor has bound the program — the
    memory plan's arena size.  This is what ``examples/quickstart.py``
    prints after compiling.
    """
    pipeline = program.pipeline_report
    if pipeline is None:
        return "  (no pipeline report: program predates the pass manager)"
    lines = [
        f"  pipeline level {pipeline['level']}: "
        f"{pipeline['ops_before']} ops -> {pipeline['ops_after']} ops, "
        f"verifier ran {pipeline['verifier_runs']}x"
    ]
    for entry in pipeline.get("passes", []):
        counters = ", ".join(f"{k}={v}" for k, v in entry.get("counters", {}).items()
                             if not isinstance(v, dict))
        lines.append(f"    [{entry['stage']:<8}] {entry['name']}: {counters}")
    plan = (program.plan_counters or {})
    if plan.get("arena_bytes"):
        lines.append(
            f"    arena {plan['arena_bytes'] / 1024:.0f} KiB, "
            f"{plan['steps']} steps ({plan['steps_fused']} fused away), "
            f"tile {plan['tile']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# PassManager
# ---------------------------------------------------------------------------
class PassManager:
    """Validates a level/pass selection and runs the graph stage.

    Parameters
    ----------
    level:
        One of :data:`OPT_LEVELS`.  Unknown names raise :class:`ValueError`
        listing the valid levels (misconfiguration used to fall through to
        defaults silently).
    passes:
        Optional explicit graph-pass selection (registered names; execution
        stays in registration order).  Unknown names raise, listing the
        registered passes.  ``None`` runs every graph pass the level enables.
    debug:
        Run the verifier between passes (defaults to the
        ``REPRO_PIPELINE_DEBUG`` environment variable).  The exit
        verification always runs.
    """

    def __init__(
        self,
        level: str = "O2",
        passes: Optional[Sequence[str]] = None,
        debug: Optional[bool] = None,
    ):
        _level_index(level)
        self.level = level
        if passes is not None:
            unknown = [name for name in passes if name not in PASS_REGISTRY]
            if unknown:
                raise ValueError(
                    f"unknown pass name(s) {unknown}; registered passes: "
                    f"{', '.join(PASS_REGISTRY)}"
                )
            not_graph = [
                name for name in passes if PASS_REGISTRY[name].stage != "graph"
            ]
            if not_graph:
                raise ValueError(
                    f"pass(es) {not_graph} are not graph-stage passes and "
                    "cannot be selected explicitly; schedule/codegen stages are "
                    "driven by the optimization level "
                    f"({', '.join(OPT_LEVELS)})"
                )
        self.passes = None if passes is None else list(passes)
        if debug is None:
            debug = os.environ.get("REPRO_PIPELINE_DEBUG", "") not in ("", "0")
        self.debug = bool(debug)

    def enabled(self, stage: str) -> List[Pass]:
        """The passes of ``stage`` this manager's level (and explicit
        selection, for the graph stage) enables, in execution order."""
        selected = []
        for pass_ in registered_passes(stage):
            if self.passes is not None and stage == "graph":
                if pass_.name in self.passes:
                    selected.append(pass_)
            elif level_enables(self.level, pass_.level):
                selected.append(pass_)
        return selected

    def run(self, program) -> PipelineReport:
        """Run the graph stage on ``program`` and attach the report.

        Graph passes rewrite bound programs only (structural programs keep
        the canonical op stream so MCU cost attribution stays per-layer);
        the verifier runs on both.  The report — and the level — are
        attached to the program (``program.opt_level``,
        ``program.pipeline_report``); the executor appends its
        schedule/codegen-stage reports to the same record when it binds.
        """
        report = PipelineReport(
            level=self.level, ops_before=len(program.ops), debug=self.debug
        )
        if self.level == "O4":
            # Compiler probe at compile time: O4 needs a host C compiler to
            # build the native backend.  Record the fallback here (and warn
            # once) so ``compile_network(level="O4")`` reports the effective
            # level immediately — the executor still retries at bind time,
            # where a populated build cache can satisfy O4 without one.
            from repro.core.codegen.build import find_compiler

            if find_compiler() is None:
                report.fallback_reason = "no_compiler"
                report.effective_level = "O2"
                warnings.warn(
                    "O4 requested but no C compiler found; compiling at the "
                    "effective level O2 (plan backend). Install gcc/cc to "
                    "enable the native backend.",
                    RuntimeWarning,
                    stacklevel=2,
                )
        graph_passes = self.enabled("graph") if program.bound else []
        for pass_ in graph_passes:
            ops_before = len(program.ops)
            counters = pass_.fn(program)
            report.passes.append(
                PassReport(
                    name=pass_.name,
                    stage=pass_.stage,
                    counters=counters,
                    ops_before=ops_before,
                    ops_after=len(program.ops),
                )
            )
            if self.debug:
                report.verifier_counters = verify_program(program)
                report.verifier_runs += 1
        # The exit verification always runs — a broken pass (or a broken
        # lowering) fails here, at compile time, with the op named.
        report.verifier_counters = verify_program(program)
        report.verifier_runs += 1
        report.ops_after = len(program.ops)
        program.optimized = bool(graph_passes)
        program.opt_level = self.level
        program.pipeline_report = report.to_dict()
        return report
