"""Weight pools and bit-serial lookup-table execution (the paper's contribution).

Public API overview
-------------------
Compression (paper §3):

* :func:`repro.core.compress.compress_model` — replace eligible layers of a
  trained model with weight-pool layers sharing one :class:`WeightPool`.
* :class:`repro.core.weight_pool.WeightPool` — the shared pool of 1×N weight
  vectors, built by :func:`repro.core.weight_pool.build_weight_pool`.
* :func:`repro.core.finetune.finetune_compressed_model` — index-reassignment
  fine-tuning (forward reassigns, backward updates latent weights).

Bit-serial LUT execution (paper §3.1–3.3):

* :func:`repro.core.lut.build_lut` — dot-product lookup table between every
  1-bit activation vector and every pool vector.
* :func:`repro.core.bitserial.bitserial_conv2d` — functional bit-serial
  convolution driven entirely by LUT lookups.
* :mod:`repro.core.kernel_plan` — compile-once / execute-many per-layer
  kernel plans (pre-gathered sub-tables, fused epilogue, compact dtypes)
  backing the fast execution path.
* :class:`repro.core.engine.BitSerialInferenceEngine` — calibrates activation
  ranges and runs whole networks at arbitrary activation/LUT bitwidths.

Whole-network compilation (the graph pipeline):

* :mod:`repro.core.graph` — lower a model to a flat dataflow graph via the
  per-module ``lower_into`` hooks.
* :mod:`repro.core.program` — type the graph into a :class:`NetworkProgram`
  IR and execute it batch-wise through a multi-backend :class:`Executor`
  (``plan`` / ``reference`` / MCU ``cost``).
* :mod:`repro.core.pipeline` — the pass-manager pipeline: registered
  optimization passes at ordered levels (``O0``, ``O1``, ``O2``, ``O4``)
  and an IR verifier.
* :func:`repro.core.export.save_program` / ``load_program`` — the compiled
  program as a serializable deployment artifact.

Storage accounting (paper Eq. 3–4, Table 3):

* :mod:`repro.core.storage`.
"""

from repro.core.clustering import KMeansResult, kmeans
from repro.core.grouping import (
    extract_xy_vectors,
    extract_z_vectors,
    reconstruct_from_xy_indices,
    reconstruct_from_z_indices,
    pad_channels_to_group,
)
from repro.core.weight_pool import WeightPool, build_weight_pool
from repro.core.policy import CompressionPolicy
from repro.core.layers import WeightPoolConv2d, WeightPoolLinear
from repro.core.compress import CompressionResult, compress_model, apply_xy_pool_to_model
from repro.core.finetune import finetune_compressed_model, freeze_assignments
from repro.core.lut import LookupTable, build_lut
from repro.core.bitserial import (
    bit_decompose,
    bit_vector_values,
    bitserial_conv2d,
    bitserial_conv2d_reference,
    bitserial_dot,
    bitserial_linear,
    bitserial_linear_reference,
)
from repro.core.kernel_plan import (
    ConvKernelPlan,
    LinearKernelPlan,
    compile_conv_plan,
    compile_linear_plan,
)
from repro.core.graph import GraphBuilder, GraphOp, NetworkGraph, lower_model
from repro.core.memory_plan import (
    ExecutionPlan,
    PlanUnsupported,
    ShardRuntime,
    compile_execution_plan,
    validate_arena_plan,
)
from repro.core.pipeline import (
    OPT_LEVELS,
    PASS_REGISTRY,
    Pass,
    PassManager,
    PipelineReport,
    VerificationError,
    dedupe_quantize,
    fold_activation_into_quantize,
    fold_batchnorm,
    format_pipeline_report,
    fuse_requantize,
    register_pass,
    registered_passes,
    verify_program,
)
from repro.core.program import (
    Executor,
    IR_OP_KINDS,
    NetworkProgram,
    ProgramOp,
    compile_network,
    register_backend,
)
from repro.core.stream_plan import (
    StreamPlan,
    StreamRule,
    StreamSession,
    StreamUnsupported,
    compile_stream_plan,
    stream_support,
)
from repro.core.engine import BitSerialInferenceEngine, EngineConfig
from repro.core.storage import (
    StorageReport,
    analyze_model_storage,
    content_digest,
    file_sha256,
    lut_storage_bits,
    theoretical_compression_ratio,
)
from repro.core.export import (
    DeploymentPackage,
    ProgramFormatError,
    build_deployment_package,
    emit_c_header,
    load_program,
    package_from_program,
    read_program_metadata,
    save_program,
    verify_program_digest,
)
from repro.core.tracing import LayerTrace, trace_model

__all__ = [
    "kmeans",
    "KMeansResult",
    "extract_z_vectors",
    "extract_xy_vectors",
    "reconstruct_from_z_indices",
    "reconstruct_from_xy_indices",
    "pad_channels_to_group",
    "WeightPool",
    "build_weight_pool",
    "CompressionPolicy",
    "WeightPoolConv2d",
    "WeightPoolLinear",
    "compress_model",
    "apply_xy_pool_to_model",
    "CompressionResult",
    "finetune_compressed_model",
    "freeze_assignments",
    "LookupTable",
    "build_lut",
    "bit_decompose",
    "bit_vector_values",
    "bitserial_dot",
    "bitserial_conv2d",
    "bitserial_conv2d_reference",
    "bitserial_linear",
    "bitserial_linear_reference",
    "ConvKernelPlan",
    "LinearKernelPlan",
    "compile_conv_plan",
    "compile_linear_plan",
    "BitSerialInferenceEngine",
    "EngineConfig",
    "GraphBuilder",
    "GraphOp",
    "NetworkGraph",
    "lower_model",
    "Executor",
    "ExecutionPlan",
    "IR_OP_KINDS",
    "NetworkProgram",
    "OPT_LEVELS",
    "PASS_REGISTRY",
    "Pass",
    "PassManager",
    "PipelineReport",
    "PlanUnsupported",
    "ProgramOp",
    "ShardRuntime",
    "VerificationError",
    "compile_execution_plan",
    "compile_network",
    "dedupe_quantize",
    "fold_activation_into_quantize",
    "fold_batchnorm",
    "format_pipeline_report",
    "fuse_requantize",
    "register_backend",
    "register_pass",
    "StreamPlan",
    "StreamRule",
    "StreamSession",
    "StreamUnsupported",
    "compile_stream_plan",
    "stream_support",
    "registered_passes",
    "validate_arena_plan",
    "verify_program",
    "StorageReport",
    "analyze_model_storage",
    "content_digest",
    "file_sha256",
    "lut_storage_bits",
    "theoretical_compression_ratio",
    "DeploymentPackage",
    "build_deployment_package",
    "emit_c_header",
    "save_program",
    "load_program",
    "read_program_metadata",
    "verify_program_digest",
    "ProgramFormatError",
    "package_from_program",
    "LayerTrace",
    "trace_model",
]
