"""Deployment artifact export.

The paper's flow (Figure 1) ends with the host sending three things to the
microcontroller's flash: the dot-product lookup table, the per-layer weight
index streams, and the precision information.  This module builds that
deployable artifact from a compressed model:

* :class:`DeploymentPackage` — an in-memory description of everything the MCU
  stores (LUT bytes, packed index streams, uncompressed-layer weights, per-
  layer metadata, activation quantization parameters);
* :func:`build_deployment_package` — assemble the package from a compressed
  model (optionally with a calibrated
  :class:`~repro.core.engine.BitSerialInferenceEngine` for the activation
  parameters);
* ``save`` / ``load`` — persist the package as a ``.npz`` archive;
* :func:`emit_c_header` — render the package as a C header (const arrays),
  which is how the artifact would actually be baked into MCU firmware.

Since the whole-network compiler landed, the *compiled program* is itself a
deployment artifact:

* :func:`save_program` / :func:`load_program` — serialize a bound
  :class:`~repro.core.program.NetworkProgram` (op stream, LUT, quantization
  parameters, folded epilogues, float weights of uncompressed layers) to one
  ``.npz`` archive and reconstruct it exactly — a loaded program executes
  bit-identically to the original through the graph
  :class:`~repro.core.program.Executor`, with no model object required;
* :func:`read_program_metadata` — the artifact's JSON header only (op
  counts, shapes, LUT geometry, the pipeline's optimization level and
  per-pass reports (``pipeline``/``opt_level``), and — when an
  ahead-of-time :class:`~repro.core.program.Executor` was built before
  saving — the planner's ``execution_plan`` counters: arena bytes, steps
  fused, shard count) without touching the arrays, so
  model repositories can list artifacts cheaply.  Execution plans themselves are *derived* state:
  :func:`load_program` reconstructs the IR and the next executor re-plans
  it, bitwise-identically to the original (covered by the planner's
  round-trip tests);
* :func:`package_from_program` — build the MCU flash
  :class:`DeploymentPackage` straight from the IR, so the host-side executor
  artifact and the firmware image share one source of truth.

Program artifacts are versioned: :data:`PROGRAM_SCHEMA_VERSION` is written
into every archive and checked on load, so a non-program file or an
artifact written by an unsupported schema version raises
:class:`ProgramFormatError` (naming the offending path and both versions)
instead of failing deep inside deserialization.  The supported set is
:data:`SUPPORTED_PROGRAM_SCHEMAS` — v1 (the pre-versioning format) still
loads because v2 is purely additive.

Every archive header also embeds a ``sha256`` content digest
(:func:`repro.core.storage.content_digest` over all array members) written
at save time and re-verified on every :func:`load_program` — a corrupted
artifact raises :class:`ProgramFormatError` naming the path instead of
silently mispredicting.  Repository replication diffs artifacts by this
digest (header-only via :func:`read_program_metadata`) and
:func:`verify_program_digest` checks a file in place without constructing
the program.

The package size reported here is what the MCU cost model's flash-fit check
uses conceptually (indices + LUT + uncompressed layers), so the two agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.engine import BitSerialInferenceEngine
from repro.core.layers import WeightPoolConv2d, WeightPoolLinear
from repro.core.lut import LookupTable, build_lut
from repro.core.program import NetworkProgram, ProgramOp
from repro.core.storage import content_digest
from repro.core.tracing import trace_model
from repro.core.weight_pool import WeightPool
from repro.nn import Module
from repro.quantization.quantizer import QuantParams
from repro.quantization.weights import quantize_weight_tensor
from repro.utils.bits import pack_sub_byte, required_bits, unpack_sub_byte


@dataclass
class LayerArtifact:
    """What the MCU stores for one layer."""

    name: str
    kind: str  # "conv" or "linear"
    compressed: bool
    shape: Tuple[int, ...]
    stride: int = 1
    padding: int = 0
    # Compressed layers: packed pool indices (+ their unpacked count / bitwidth).
    packed_indices: Optional[np.ndarray] = None
    num_indices: int = 0
    index_bitwidth: int = 8
    index_shape: Tuple[int, ...] = ()
    # Uncompressed layers: 8-bit quantized weights and their scale.
    q_weight: Optional[np.ndarray] = None
    weight_scale: float = 1.0
    bias: Optional[np.ndarray] = None
    activation_scale: Optional[float] = None
    activation_zero_point: Optional[int] = None

    @property
    def storage_bytes(self) -> float:
        """Flash bytes this layer contributes to the deployment image."""
        total = 0.0
        if self.packed_indices is not None:
            total += self.packed_indices.size
        if self.q_weight is not None:
            total += self.q_weight.size
        if self.bias is not None:
            total += self.bias.size  # 8-bit biases
        return total

    def unpack_indices(self) -> np.ndarray:
        """Recover the index tensor from the packed byte stream."""
        if self.packed_indices is None:
            raise ValueError(f"layer '{self.name}' has no packed indices")
        flat = unpack_sub_byte(self.packed_indices, self.index_bitwidth, self.num_indices)
        return flat.reshape(self.index_shape)


@dataclass
class DeploymentPackage:
    """Everything the microcontroller needs to run the compressed network."""

    network: str
    group_size: int
    pool_size: int
    lut_bitwidth: int
    activation_bitwidth: int
    lut_integer: np.ndarray  # (2^g, S) integer entries
    lut_scale: float
    layers: List[LayerArtifact] = field(default_factory=list)

    # -- sizes ----------------------------------------------------------------
    @property
    def lut_bytes(self) -> float:
        return self.lut_integer.size * self.lut_bitwidth / 8.0

    @property
    def flash_bytes(self) -> float:
        """Total flash image size: LUT + every layer's storage."""
        return self.lut_bytes + sum(layer.storage_bytes for layer in self.layers)

    @property
    def compressed_layers(self) -> List[LayerArtifact]:
        return [layer for layer in self.layers if layer.compressed]

    # -- persistence ------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Persist the package as a ``.npz`` archive."""
        path = Path(path)
        arrays: Dict[str, np.ndarray] = {
            "__meta__": np.array(
                [self.group_size, self.pool_size, self.lut_bitwidth, self.activation_bitwidth]
            ),
            "__network__": np.array(self.network),
            "__lut__": self.lut_integer,
            "__lut_scale__": np.array(self.lut_scale),
            "__layer_names__": np.array([layer.name for layer in self.layers]),
        }
        for i, layer in enumerate(self.layers):
            prefix = f"layer{i}"
            arrays[f"{prefix}_info"] = np.array(
                [
                    1 if layer.compressed else 0,
                    layer.num_indices,
                    layer.index_bitwidth,
                    layer.stride,
                    layer.padding,
                ]
            )
            arrays[f"{prefix}_kind"] = np.array(layer.kind)
            arrays[f"{prefix}_shape"] = np.array(layer.shape)
            arrays[f"{prefix}_index_shape"] = np.array(layer.index_shape or (0,))
            if layer.packed_indices is not None:
                arrays[f"{prefix}_indices"] = layer.packed_indices
            if layer.q_weight is not None:
                arrays[f"{prefix}_qweight"] = layer.q_weight
                arrays[f"{prefix}_wscale"] = np.array(layer.weight_scale)
            if layer.bias is not None:
                arrays[f"{prefix}_bias"] = layer.bias
            if layer.activation_scale is not None:
                arrays[f"{prefix}_act"] = np.array(
                    [layer.activation_scale, float(layer.activation_zero_point)]
                )
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DeploymentPackage":
        data = np.load(Path(path), allow_pickle=False)
        group_size, pool_size, lut_bitwidth, act_bitwidth = (int(v) for v in data["__meta__"])
        layer_names = [str(name) for name in data["__layer_names__"]]
        package = cls(
            network=str(data["__network__"]),
            group_size=group_size,
            pool_size=pool_size,
            lut_bitwidth=lut_bitwidth,
            activation_bitwidth=act_bitwidth,
            lut_integer=data["__lut__"],
            lut_scale=float(data["__lut_scale__"]),
        )
        for i, name in enumerate(layer_names):
            prefix = f"layer{i}"
            compressed, num_indices, index_bitwidth, stride, padding = (
                int(v) for v in data[f"{prefix}_info"]
            )
            index_shape = tuple(int(v) for v in data[f"{prefix}_index_shape"])
            layer = LayerArtifact(
                name=name,
                kind=str(data[f"{prefix}_kind"]),
                compressed=bool(compressed),
                shape=tuple(int(v) for v in data[f"{prefix}_shape"]),
                stride=stride,
                padding=padding,
                num_indices=num_indices,
                index_bitwidth=index_bitwidth,
                index_shape=index_shape if index_shape != (0,) else (),
            )
            if f"{prefix}_indices" in data:
                layer.packed_indices = data[f"{prefix}_indices"]
            if f"{prefix}_qweight" in data:
                layer.q_weight = data[f"{prefix}_qweight"]
                layer.weight_scale = float(data[f"{prefix}_wscale"])
            if f"{prefix}_bias" in data:
                layer.bias = data[f"{prefix}_bias"]
            if f"{prefix}_act" in data:
                act = data[f"{prefix}_act"]
                layer.activation_scale = float(act[0])
                layer.activation_zero_point = int(act[1])
            package.layers.append(layer)
        return package


def build_deployment_package(
    model: Module,
    input_shape: Tuple[int, int, int],
    pool: WeightPool,
    network_name: str = "network",
    lut_bitwidth: int = 8,
    activation_bitwidth: int = 8,
    index_bitwidth: Optional[int] = None,
    engine: Optional[BitSerialInferenceEngine] = None,
) -> DeploymentPackage:
    """Assemble the flashable artifact for a compressed model.

    ``index_bitwidth`` defaults to ``log2(pool size)`` rounded up (the paper's
    Eq. 4 minimum); pass 8 to mirror the byte-aligned implementation choice.
    When a calibrated ``engine`` is given, each compressed layer's activation
    quantization parameters are embedded (the "precision information" of
    Figure 1).
    """
    index_bits = index_bitwidth if index_bitwidth is not None else required_bits(pool.size)
    if not 1 <= index_bits <= 8:
        raise ValueError(f"index_bitwidth must be in [1, 8] for sub-byte packing, got {index_bits}")
    lut: LookupTable = build_lut(pool).quantize(lut_bitwidth)

    package = DeploymentPackage(
        network=network_name,
        group_size=pool.group_size,
        pool_size=pool.size,
        lut_bitwidth=lut_bitwidth,
        activation_bitwidth=activation_bitwidth,
        lut_integer=lut.integer_values,
        lut_scale=float(lut.scale),
    )

    traces = trace_model(model, input_shape)
    for trace in traces:
        module = trace.module
        artifact = LayerArtifact(
            name=trace.name,
            kind=trace.kind,
            compressed=isinstance(module, (WeightPoolConv2d, WeightPoolLinear)),
            shape=trace.weight_shape,
            stride=trace.stride,
            padding=trace.padding,
        )
        if artifact.compressed:
            indices = module.indices
            artifact.index_bitwidth = index_bits
            artifact.num_indices = int(indices.size)
            artifact.index_shape = tuple(indices.shape)
            artifact.packed_indices = pack_sub_byte(indices.ravel(), index_bits)
            if module.bias is not None:
                q_bias, _ = quantize_weight_tensor(module.bias.data, bitwidth=8)
                artifact.bias = q_bias.astype(np.int8)
            if engine is not None and id(module) in engine.activation_params:
                params = engine.activation_params[id(module)]
                artifact.activation_scale = params.scale
                artifact.activation_zero_point = params.zero_point
        else:
            q_weight, params = quantize_weight_tensor(module.weight.data, bitwidth=8)
            artifact.q_weight = q_weight.astype(np.int8)
            artifact.weight_scale = params.scale
            if module.bias is not None:
                q_bias, _ = quantize_weight_tensor(module.bias.data, bitwidth=8)
                artifact.bias = q_bias.astype(np.int8)
        package.layers.append(artifact)
    return package


# ---------------------------------------------------------------------------
# Compiled-program serialization (the executor-side deployment artifact)
# ---------------------------------------------------------------------------
#: Schema version written into every program artifact.  Version 1 is the
#: original (implicitly unversioned) format of the first compiled-program
#: release; version 2 adds the explicit ``schema`` field and the embedded
#: metadata summary; version 3 adds the ``stream`` capability block to the
#: metadata summary (per-op dirty-region propagation rules), which serving
#: uses to gate streaming requests.  Bump this whenever the archive layout
#: changes incompatibly.
PROGRAM_SCHEMA_VERSION = 3

#: Schema versions :func:`load_program` can read.  v2 and v3 are purely
#: additive over v1, so older artifacts still load (a v1/v2 artifact simply
#: has no ``stream`` capability block and cannot serve streaming requests);
#: unknown versions raise :class:`ProgramFormatError`.
SUPPORTED_PROGRAM_SCHEMAS = (1, 2, PROGRAM_SCHEMA_VERSION)


class ProgramFormatError(ValueError):
    """A program artifact is unreadable: wrong schema version or not a
    program archive at all.  The message always names the offending path."""


def _program_header(path: Path, data) -> Dict:
    """Parse and schema-check the ``__program__`` JSON header of an archive."""
    if "__program__" not in data:
        raise ProgramFormatError(
            f"'{path}' is not a compiled-program artifact "
            "(missing the '__program__' header; was it written by "
            "save_program()?)"
        )
    meta = json.loads(str(data["__program__"]))
    schema = meta.get("schema", 1)
    if schema not in SUPPORTED_PROGRAM_SCHEMAS:
        supported = ", ".join(str(v) for v in SUPPORTED_PROGRAM_SCHEMAS)
        raise ProgramFormatError(
            f"'{path}' was written with program schema version {schema}, but "
            f"this build reads version(s) {supported}; re-export the program "
            "with the matching repro version"
        )
    for record in (meta, meta.get("metadata") or {}):
        retire_o3(record)
    return meta


def retire_o3(record: Dict) -> None:
    """Read a header written while ``O3`` was a level as the ``O2`` plan.

    ``O3`` added an empirical kernel autotuner whose candidates were all
    bitwise-identical to the ``O2`` schedule; it is no longer a level.  An
    ``opt_level``/``pipeline.level`` of ``"O3"``, and an O4 fallback's
    ``effective_level: "O3"``, map to ``"O2"``, and the recorded
    ``autotune`` pass entry is dropped (a bind never reads it).  Every
    reader of a recorded header goes through here: the artifact loader and
    a model repository's ``metadata.json`` sidecar.
    """
    if record.get("opt_level") == "O3":
        record["opt_level"] = "O2"
    pipeline = record.get("pipeline")
    if not isinstance(pipeline, dict):
        return
    for key in ("level", "effective_level"):
        if pipeline.get(key) == "O3":
            pipeline[key] = "O2"
    pipeline["passes"] = [
        entry for entry in pipeline.get("passes", []) if entry.get("name") != "autotune"
    ]


def _encode_attrs(attrs: Dict, prefix: str, arrays: Dict[str, np.ndarray]) -> Dict:
    """Split op attrs into a JSON-able description + named npz arrays."""
    meta: Dict[str, Dict] = {}
    for key, value in attrs.items():
        if value is None:
            meta[key] = {"t": "none"}
        elif isinstance(value, QuantParams):
            meta[key] = {
                "t": "qp",
                "scale": float(value.scale),
                "zero_point": int(value.zero_point),
                "bitwidth": int(value.bitwidth),
                "signed": bool(value.signed),
            }
        elif isinstance(value, np.ndarray):
            meta[key] = {"t": "arr"}
            arrays[f"{prefix}_{key}"] = value
        elif (
            isinstance(value, tuple)
            and len(value) == 2
            and all(isinstance(v, np.ndarray) for v in value)
        ):
            meta[key] = {"t": "arrpair"}
            arrays[f"{prefix}_{key}_0"] = value[0]
            arrays[f"{prefix}_{key}_1"] = value[1]
        elif isinstance(value, (bool, str)):
            meta[key] = {"t": "val", "v": value}
        elif isinstance(value, (int, np.integer)):
            meta[key] = {"t": "val", "v": int(value)}
        elif isinstance(value, (float, np.floating)):
            meta[key] = {"t": "val", "v": float(value)}
        else:
            raise TypeError(
                f"cannot serialize program attr '{key}' of type {type(value).__name__}"
            )
    return meta


def _decode_attrs(meta: Dict, prefix: str, data) -> Dict:
    attrs: Dict = {}
    for key, desc in meta.items():
        kind = desc["t"]
        if kind == "none":
            attrs[key] = None
        elif kind == "qp":
            attrs[key] = QuantParams(
                scale=desc["scale"],
                zero_point=desc["zero_point"],
                bitwidth=desc["bitwidth"],
                signed=desc["signed"],
            )
        elif kind == "arr":
            attrs[key] = data[f"{prefix}_{key}"]
        elif kind == "arrpair":
            attrs[key] = (data[f"{prefix}_{key}_0"], data[f"{prefix}_{key}_1"])
        else:
            attrs[key] = desc["v"]
    return attrs


def save_program(program: NetworkProgram, path: Union[str, Path]) -> None:
    """Serialize a bound :class:`NetworkProgram` as a ``.npz`` archive.

    The archive is self-contained: the op stream (with folded epilogues and
    quantization parameters), the LUT, and the float weights of uncompressed
    layers.  :func:`load_program` reconstructs a program whose executor output
    is bit-identical to the original's.  The archive carries
    :data:`PROGRAM_SCHEMA_VERSION` plus the program's
    :meth:`~repro.core.program.NetworkProgram.metadata` summary, which
    :func:`read_program_metadata` (and model repositories built on it) read
    without touching the arrays.
    """
    if not program.bound:
        raise ValueError("only bound programs (with a LUT) can be serialized")
    arrays: Dict[str, np.ndarray] = {"__lut_values__": program.lut.values}
    if program.lut.integer_values is not None:
        arrays["__lut_integer__"] = program.lut.integer_values
    ops_meta = []
    for i, op in enumerate(program.ops):
        ops_meta.append(
            {
                "kind": op.kind,
                "name": op.name,
                "inputs": list(op.inputs),
                "output": int(op.output),
                "in_shape": list(op.in_shape),
                "out_shape": list(op.out_shape),
                "attrs": _encode_attrs(op.attrs, f"op{i}", arrays),
            }
        )
    meta = {
        "schema": PROGRAM_SCHEMA_VERSION,
        "metadata": program.metadata(),
        "input_shape": list(program.input_shape),
        "input_id": int(program.input_id),
        "output_id": int(program.output_id),
        "num_buffers": int(program.num_buffers),
        "act_bitwidth": int(program.act_bitwidth),
        "optimized": bool(program.optimized),
        "opt_level": program.opt_level,
        "pipeline": program.pipeline_report,
        "lut": {
            "pool_size": int(program.lut.pool_size),
            "group_size": int(program.lut.group_size),
            "bitwidth": program.lut.bitwidth,
            "scale": program.lut.scale,
            "order": program.lut.order,
        },
        "ops": ops_meta,
    }
    if program.native_build is not None:
        # Native (O4) build metadata: the JSON header keeps the hashes/flags
        # (visible to read_program_metadata without array loads); the emitted
        # C source itself ships as a byte array member, so a serving host
        # rebuilds the exact same library deterministically.
        native = dict(program.native_build)
        source = native.pop("source", None)
        meta["native"] = native
        if source is not None:
            arrays["__native_source__"] = np.frombuffer(
                source.encode("utf-8"), dtype=np.uint8
            )
    # Content digest over every array member (the header itself excluded —
    # it carries the digest).  load_program re-verifies this; replica sync
    # diffs repositories by it without loading arrays.
    meta["sha256"] = content_digest(arrays)
    arrays["__program__"] = np.array(json.dumps(meta))
    np.savez_compressed(Path(path), **arrays)


def load_program(path: Union[str, Path]) -> NetworkProgram:
    """Reconstruct a :class:`NetworkProgram` saved by :func:`save_program`.

    The loaded program carries no module references — it executes purely from
    the serialized op attributes (indices, LUT, epilogue terms, weights).
    Raises :class:`ProgramFormatError` (naming ``path``) when the file is not
    a program artifact, was written by an unsupported schema version, or its
    array contents no longer match the embedded sha256 digest.
    """
    path = Path(path)
    data = np.load(path, allow_pickle=False)
    meta = _program_header(path, data)
    _verify_header_digest(path, data, meta)
    lut_meta = meta["lut"]
    lut = LookupTable(
        values=data["__lut_values__"],
        pool_size=lut_meta["pool_size"],
        group_size=lut_meta["group_size"],
        bitwidth=lut_meta["bitwidth"],
        scale=lut_meta["scale"],
        integer_values=data["__lut_integer__"] if "__lut_integer__" in data else None,
        order=lut_meta["order"],
    )
    ops = [
        ProgramOp(
            kind=op_meta["kind"],
            inputs=tuple(op_meta["inputs"]),
            output=op_meta["output"],
            name=op_meta["name"],
            attrs=_decode_attrs(op_meta["attrs"], f"op{i}", data),
            module=None,
            in_shape=tuple(op_meta["in_shape"]),
            out_shape=tuple(op_meta["out_shape"]),
        )
        for i, op_meta in enumerate(meta["ops"])
    ]
    native_build = None
    if meta.get("native") is not None:
        native_build = dict(meta["native"])
        if "__native_source__" in data:
            native_build["source"] = bytes(data["__native_source__"]).decode("utf-8")
    return NetworkProgram(
        ops=ops,
        input_id=meta["input_id"],
        output_id=meta["output_id"],
        num_buffers=meta["num_buffers"],
        input_shape=tuple(meta["input_shape"]),
        lut=lut,
        act_bitwidth=meta["act_bitwidth"],
        optimized=meta["optimized"],
        opt_level=meta.get("opt_level"),
        pipeline_report=meta.get("pipeline"),
        native_build=native_build,
    )


def _verify_header_digest(path: Path, data, meta: Dict) -> None:
    """Re-hash every array member and compare to the header's ``sha256``.

    Artifacts written before the digest landed (no ``sha256`` key) pass —
    the field is additive within schema v2 — but a *present* digest must
    match bit-for-bit.
    """
    expected = meta.get("sha256")
    if expected is None:
        return
    actual = content_digest(
        {name: data[name] for name in data.files if name != "__program__"}
    )
    if actual != expected:
        raise ProgramFormatError(
            f"'{path}' failed content verification: artifact sha256 is "
            f"{actual}, header says {expected} — the file was corrupted or "
            "truncated after export; re-sync or re-export it"
        )


def verify_program_digest(path: Union[str, Path]) -> Optional[str]:
    """Verify an artifact's embedded sha256 in place; return the digest.

    Reads the header, re-hashes the array members, and raises
    :class:`ProgramFormatError` (naming ``path``) on any mismatch — without
    constructing the program.  Returns the verified digest, or ``None`` for
    pre-digest artifacts that carry no ``sha256`` field.  Replica nodes run
    this on every synced pull before publishing the artifact.
    """
    path = Path(path)
    data = np.load(path, allow_pickle=False)
    meta = _program_header(path, data)
    _verify_header_digest(path, data, meta)
    return meta.get("sha256")


def read_program_metadata(path: Union[str, Path]) -> Dict:
    """Read a program artifact's metadata summary without loading arrays.

    Returns the dict :meth:`NetworkProgram.metadata` produced at save time
    (input/output shapes, op counts, activation bitwidth, LUT geometry, …)
    plus ``schema`` and ``file_bytes``.  ``.npz`` members load lazily, so
    this only decompresses the small JSON header — cheap enough for a model
    repository to call on every artifact it lists.  Raises
    :class:`ProgramFormatError` on non-program or wrong-schema files.
    """
    path = Path(path)
    data = np.load(path, allow_pickle=False)
    meta = _program_header(path, data)
    summary = dict(meta.get("metadata") or _metadata_from_header(meta))
    summary["schema"] = meta.get("schema", 1)
    summary["file_bytes"] = path.stat().st_size
    # Content digest (None for pre-digest artifacts): replica sync diffs
    # repositories on this field without touching the arrays.
    summary["sha256"] = meta.get("sha256")
    return summary


def _metadata_from_header(meta: Dict) -> Dict:
    """Derive the metadata summary from a v1 header (no embedded summary).

    Everything needed lives in the JSON: op kinds/shapes, buffer counts, and
    the LUT geometry — still no array loads.
    """
    op_counts: Dict[str, int] = {}
    output_shape = list(meta["input_shape"])
    for op_meta in meta["ops"]:
        op_counts[op_meta["kind"]] = op_counts.get(op_meta["kind"], 0) + 1
        if op_meta["output"] == meta["output_id"]:
            output_shape = list(op_meta["out_shape"])
    lut_meta = meta["lut"]
    return {
        "input_shape": list(meta["input_shape"]),
        "output_shape": output_shape,
        "num_ops": len(meta["ops"]),
        "num_buffers": int(meta["num_buffers"]),
        "op_counts": op_counts,
        "act_bitwidth": int(meta["act_bitwidth"]),
        "optimized": bool(meta["optimized"]),
        "bound": True,  # only bound programs are ever serialized
        "lut": {
            "pool_size": int(lut_meta["pool_size"]),
            "group_size": int(lut_meta["group_size"]),
            "bitwidth": lut_meta["bitwidth"],
        },
    }


def package_from_program(
    program: NetworkProgram,
    network_name: str = "network",
    lut_bitwidth: int = 8,
    index_bitwidth: Optional[int] = None,
) -> DeploymentPackage:
    """Build the MCU flash :class:`DeploymentPackage` from a compiled program.

    The firmware image and the host executor artifact derive from the same
    IR: packed index streams and activation parameters come from the
    ``bitserial_*`` ops, q7 weights from the float ``conv``/``linear`` ops.
    """
    if not program.bound:
        raise ValueError("only bound programs can be packaged for deployment")
    lut = program.lut
    if lut.bitwidth is None:
        lut = lut.quantize(lut_bitwidth)
    pool_size = lut.pool_size
    index_bits = index_bitwidth if index_bitwidth is not None else required_bits(pool_size)
    if not 1 <= index_bits <= 8:
        raise ValueError(
            f"index_bitwidth must be in [1, 8] for sub-byte packing, got {index_bits}"
        )
    package = DeploymentPackage(
        network=network_name,
        group_size=lut.group_size,
        pool_size=pool_size,
        lut_bitwidth=lut.bitwidth,
        activation_bitwidth=program.act_bitwidth,
        lut_integer=lut.integer_values,
        lut_scale=float(lut.scale),
    )
    for op in program.ops:
        if op.kind in ("bitserial_conv", "bitserial_linear"):
            indices = np.asarray(op.attrs["indices"])
            params = op.attrs.get("params")
            artifact = LayerArtifact(
                name=op.name,
                kind="conv" if op.kind == "bitserial_conv" else "linear",
                compressed=True,
                shape=(op.out_shape[0], op.attrs["in_channels"])
                + ((op.attrs["kernel_size"],) * 2 if op.kind == "bitserial_conv" else ()),
                stride=op.attrs.get("stride", 1),
                padding=op.attrs.get("padding", 0),
                index_bitwidth=index_bits,
                num_indices=int(indices.size),
                index_shape=tuple(indices.shape),
                packed_indices=pack_sub_byte(indices.ravel(), index_bits),
                activation_scale=params.scale if params else None,
                activation_zero_point=params.zero_point if params else None,
            )
            if op.attrs.get("bias") is not None:
                q_bias, _ = quantize_weight_tensor(op.attrs["bias"], bitwidth=8)
                artifact.bias = q_bias.astype(np.int8)
            package.layers.append(artifact)
        elif op.kind in ("conv", "linear"):
            q_weight, w_params = quantize_weight_tensor(op.attrs["weight"], bitwidth=8)
            artifact = LayerArtifact(
                name=op.name,
                kind=op.kind,
                compressed=False,
                shape=tuple(op.attrs["weight"].shape),
                stride=op.attrs.get("stride", 1),
                padding=op.attrs.get("padding", 0),
                q_weight=q_weight.astype(np.int8),
                weight_scale=w_params.scale,
            )
            if op.attrs.get("bias") is not None:
                q_bias, _ = quantize_weight_tensor(op.attrs["bias"], bitwidth=8)
                artifact.bias = q_bias.astype(np.int8)
            package.layers.append(artifact)
    return package


def _c_array(name: str, values: np.ndarray, ctype: str = "int8_t", per_line: int = 16) -> str:
    flat = values.ravel()
    lines = []
    for start in range(0, flat.size, per_line):
        chunk = ", ".join(str(int(v)) for v in flat[start : start + per_line])
        lines.append(f"    {chunk},")
    body = "\n".join(lines)
    return f"static const {ctype} {name}[{flat.size}] = {{\n{body}\n}};\n"


def emit_c_header(package: DeploymentPackage, guard: str = "WEIGHT_POOL_NETWORK_H") -> str:
    """Render the deployment package as a C header for MCU firmware.

    The header contains the quantized LUT, every compressed layer's packed
    index stream, every uncompressed layer's q7 weights, and the precision
    metadata — the exact contents the paper loads into flash (Figure 1).
    """
    parts = [
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        "#include <stdint.h>",
        "",
        f"/* Auto-generated deployment package for '{package.network}'. */",
        f"#define WP_GROUP_SIZE {package.group_size}",
        f"#define WP_POOL_SIZE {package.pool_size}",
        f"#define WP_LUT_BITWIDTH {package.lut_bitwidth}",
        f"#define WP_ACTIVATION_BITWIDTH {package.activation_bitwidth}",
        f"#define WP_NUM_LAYERS {len(package.layers)}",
        "",
        f"/* LUT scale: {package.lut_scale!r} */",
        _c_array("wp_lut", package.lut_integer, "int16_t" if package.lut_bitwidth > 8 else "int8_t"),
    ]
    for i, layer in enumerate(package.layers):
        parts.append(f"/* layer {i}: {layer.name} ({layer.kind}), "
                     f"{'compressed' if layer.compressed else 'uncompressed'} */")
        if layer.packed_indices is not None:
            parts.append(_c_array(f"wp_layer{i}_indices", layer.packed_indices, "uint8_t"))
        if layer.q_weight is not None:
            parts.append(_c_array(f"wp_layer{i}_weights", layer.q_weight, "int8_t"))
        if layer.bias is not None:
            parts.append(_c_array(f"wp_layer{i}_bias", layer.bias, "int8_t"))
    parts.append(f"#endif /* {guard} */")
    return "\n".join(parts)
