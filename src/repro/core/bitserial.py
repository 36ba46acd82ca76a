"""Bit-serial LUT execution of weight-pool layers (functional, exact simulation).

These functions compute convolutions and matrix products exactly the way the
paper's microcontroller kernel does (Algorithm 1): activations are quantized
to unsigned integers, decomposed bit-by-bit, and every 8-element partial dot
product is obtained by *looking up* the dot product of a 1-bit activation
vector with a pool vector, then shift-accumulated over bit positions (Eq. 1–2,
Figure 5).

With a full-precision LUT the result is bit-exact with an ordinary convolution
using the reconstructed pool weights on the integer activations — the central
correctness invariant of the implementation (verified by property tests).
With a quantized LUT, every table entry carries its quantization error, which
is what Table 5 measures.

Two execution strategies coexist:

* ``bitserial_conv2d`` / ``bitserial_linear`` — the public kernels.  They
  compile a per-call :mod:`repro.core.kernel_plan` and execute it with the
  vectorised gather-accumulate engine (the fast path).
* ``bitserial_conv2d_reference`` / ``bitserial_linear_reference`` — the
  original Python tap-loop kernels, kept as the independent oracle for the
  property tests and behind the ``reference`` executor backend.

Long-lived callers (the inference engine) should compile a plan once via
:func:`repro.core.kernel_plan.compile_conv_plan` and reuse it across batches
instead of going through the per-call wrappers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.lut import LookupTable
from repro.nn.functional import conv_output_size, im2col_patches
from repro.utils.bits import min_uint_dtype


# ---------------------------------------------------------------------------
# Bit decomposition
# ---------------------------------------------------------------------------
def _validate_unsigned(values: np.ndarray, bitwidth: int, caller: str) -> None:
    """Range-check unsigned integers once, up front (not per bit-position pass)."""
    if bitwidth < 1:
        raise ValueError(f"bitwidth must be >= 1, got {bitwidth}")
    if values.size:
        low = int(values.min())
        if low < 0:
            raise ValueError(f"{caller} expects non-negative (unsigned) integers")
        high = int(values.max())
        if high >= (1 << bitwidth):
            raise ValueError(
                f"activation value {high} does not fit in {bitwidth} bits"
            )


def bit_decompose(values: np.ndarray, bitwidth: int) -> np.ndarray:
    """Decompose unsigned integers into bits along a new trailing axis (LSB first).

    Mirrors Eq. 2: ``a = sum_j 2^j a[j]``.  Output shape is
    ``values.shape + (bitwidth,)`` with entries in {0, 1}.
    """
    values = np.asarray(values, dtype=np.int64)
    _validate_unsigned(values, bitwidth, "bit_decompose")
    return ((values[..., None] >> np.arange(bitwidth)) & 1).astype(np.int64)


def bit_vector_values(groups: np.ndarray, bitwidth: int) -> np.ndarray:
    """Encode each group of activations into per-bit-position LUT addresses.

    ``groups`` has shape ``(..., g)`` of unsigned integers.  The result has
    shape ``(..., bitwidth)``; entry ``[..., j]`` is the integer whose bit ``i``
    is bit ``j`` of activation ``i`` in the group — i.e. the address of the
    1-bit activation vector for bit position ``j`` (a row of the decomposed
    matrix in Figure 5b).

    Addresses are always below ``2^g``, so the result uses the smallest
    sufficient unsigned dtype (``uint8`` for the paper's g=8) rather than
    int64; inputs are validated exactly once before the per-bit passes.
    """
    groups = np.asarray(groups, dtype=np.int64)
    _validate_unsigned(groups, bitwidth, "bit_vector_values")
    g = groups.shape[-1]
    out = np.empty(
        groups.shape[:-1] + (bitwidth,), dtype=min_uint_dtype(max((1 << g) - 1, 0))
    )
    position_weights = (1 << np.arange(g)).astype(np.int64)  # position within the group
    # One pass per bit position keeps the peak memory at the size of the output
    # rather than materialising the full (..., g, bitwidth) bit tensor.
    for j in range(bitwidth):
        out[..., j] = (((groups >> j) & 1) * position_weights).sum(axis=-1)
    return out


def active_bit_positions(act_bitwidth: int, active_bits: Optional[int]) -> list:
    """Bit positions processed by the kernels, most significant first.

    ``active_bits`` truncates execution after the most significant positions
    (the paper's early-termination runtime/accuracy knob); ``None`` processes
    every position.
    """
    active = act_bitwidth if active_bits is None else active_bits
    if not 1 <= active <= act_bitwidth:
        raise ValueError(f"active_bits must be in [1, {act_bitwidth}], got {active}")
    return list(range(act_bitwidth - 1, act_bitwidth - 1 - active, -1))


# ---------------------------------------------------------------------------
# Single dot product (reference-style, used in tests and small kernels)
# ---------------------------------------------------------------------------
def bitserial_dot(
    q_activations: np.ndarray,
    pool_index: int,
    lut: LookupTable,
    act_bitwidth: int,
    active_bits: Optional[int] = None,
) -> float:
    """Bit-serial dot product of one activation group with one pool vector.

    ``active_bits`` truncates execution after the most significant
    ``active_bits`` bit positions — the paper's runtime/accuracy knob
    ("reducing activation bitwidth now just amounts to truncating the temporal
    bit-serial execution earlier").
    """
    q_activations = np.asarray(q_activations, dtype=np.int64)
    if q_activations.ndim != 1 or q_activations.shape[0] != lut.group_size:
        raise ValueError(
            f"expected a length-{lut.group_size} activation group, got {q_activations.shape}"
        )
    addresses = bit_vector_values(q_activations[None, :], act_bitwidth)[0]
    total = 0.0
    # MSB first, truncating the least significant bits when active < bitwidth.
    for j in active_bit_positions(act_bitwidth, active_bits):
        total += float(lut.lookup(int(addresses[j]), pool_index)) * (1 << j)
    return total


# ---------------------------------------------------------------------------
# Reference convolution (original Python tap-loop kernel)
# ---------------------------------------------------------------------------
def _grouped_addresses(
    q_x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    group_size: int,
    act_bitwidth: int,
    pad_value: int,
) -> np.ndarray:
    """im2col + channel grouping + bit decomposition.

    Returns LUT addresses of shape ``(N, C/g, KH, KW, P, M)`` where ``P`` is the
    number of output positions and ``M`` the activation bitwidth.  The patch
    tensor is materialised exactly once, in the grouped layout, from the
    zero-copy :func:`~repro.nn.functional.im2col_patches` view.
    """
    n, c, h, w = q_x.shape
    kh, kw = kernel
    if c % group_size:
        raise ValueError(
            f"channel count {c} must be a multiple of the group size {group_size} "
            "(pad activation channels with the zero-point first)"
        )
    if padding:
        q_x = np.pad(
            q_x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
            constant_values=pad_value,
        )
    patches = im2col_patches(q_x, kernel, stride, padding=0)  # (N, C, KH, KW, OH, OW) view
    oh, ow = patches.shape[4], patches.shape[5]
    groups = c // group_size
    # Split the channel axis into (groups, g) on the strided view, move the
    # group-element axis last, and materialise with a single copy.
    sn, sc, skh, skw, soh, sow = patches.strides
    grouped = np.lib.stride_tricks.as_strided(
        patches,
        shape=(n, groups, group_size, kh, kw, oh, ow),
        strides=(sn, sc * group_size, sc, skh, skw, soh, sow),
        writeable=False,
    )
    cols = np.ascontiguousarray(grouped.transpose(0, 1, 3, 4, 5, 6, 2)).reshape(
        n, groups, kh, kw, oh * ow, group_size
    )  # (N, groups, KH, KW, P, g)
    return bit_vector_values(cols, act_bitwidth)  # (N, groups, KH, KW, P, M)


def bitserial_conv2d_reference(
    q_x: np.ndarray,
    indices: np.ndarray,
    lut: LookupTable,
    stride: int = 1,
    padding: int = 0,
    act_bitwidth: int = 8,
    active_bits: Optional[int] = None,
    pad_value: int = 0,
) -> np.ndarray:
    """Original tap-loop bit-serial convolution (the legacy kernel).

    Semantically identical to :func:`bitserial_conv2d` but loops in Python
    over every channel-group × kernel-tap.  Kept as the independent oracle for
    the plan-based kernels (the ``reference`` executor backend runs it).
    """
    q_x = np.asarray(q_x, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if q_x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) activations, got {q_x.shape}")
    if indices.ndim != 4:
        raise ValueError(f"expected (F, C/g, KH, KW) indices, got {indices.shape}")
    f, groups, kh, kw = indices.shape
    n, c, h, w = q_x.shape
    if groups * lut.group_size != c:
        raise ValueError(
            f"indices expect {groups * lut.group_size} channels, activations have {c}"
        )
    bit_positions = active_bit_positions(act_bitwidth, active_bits)
    bit_weights = [float(1 << j) for j in bit_positions]

    addresses = _grouped_addresses(
        q_x, (kh, kw), stride, padding, lut.group_size, act_bitwidth, pad_value
    )  # (N, groups, KH, KW, P, M)
    p = addresses.shape[4]
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    out = np.zeros((n, p, f), dtype=np.float64)
    table = lut.values  # (2^g, S)
    pool_size = table.shape[1]
    # Loop over group positions (channel group × kernel offset); every inner
    # operation is a vectorised gather/accumulate over batch and position.
    # Mirroring the MCU kernel's own optimisation (§4.3), the per-pool-vector
    # partials are only materialised when the layer has more filters than pool
    # entries; otherwise the lookups go directly through the filter indices.
    for cg in range(groups):
        for i in range(kh):
            for j in range(kw):
                addr = addresses[:, cg, i, j]  # (N, P, M), LSB-first bit axis
                filter_indices = indices[:, cg, i, j]  # (F,)
                if f <= pool_size:
                    # Direct lookups: gather only the columns this layer uses.
                    sub_table = table[:, filter_indices]  # (2^g, F)
                    partial = np.zeros((n, p, f), dtype=np.float64)
                    for bit, weight in zip(bit_positions, bit_weights):
                        partial += weight * sub_table[addr[..., bit]]
                    out += partial
                else:
                    # Precomputation: partials for every pool vector, then gather.
                    partial = np.zeros((n, p, pool_size), dtype=np.float64)
                    for bit, weight in zip(bit_positions, bit_weights):
                        partial += weight * table[addr[..., bit]]
                    out += partial[:, :, filter_indices]

    return out.transpose(0, 2, 1).reshape(n, f, oh, ow)


def bitserial_linear_reference(
    q_x: np.ndarray,
    indices: np.ndarray,
    lut: LookupTable,
    act_bitwidth: int = 8,
    active_bits: Optional[int] = None,
) -> np.ndarray:
    """Original group-loop bit-serial matrix product (the legacy kernel)."""
    q_x = np.asarray(q_x, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if q_x.ndim != 2 or indices.ndim != 2:
        raise ValueError("bitserial_linear expects 2D activations and 2D indices")
    n, in_features = q_x.shape
    out_features, groups = indices.shape
    if groups * lut.group_size != in_features:
        raise ValueError(
            f"indices expect {groups * lut.group_size} inputs, activations have {in_features}"
        )
    bit_positions = active_bit_positions(act_bitwidth, active_bits)
    bit_weights = [float(1 << j) for j in bit_positions]

    grouped = q_x.reshape(n, groups, lut.group_size)
    addresses = bit_vector_values(grouped, act_bitwidth)  # (N, groups, M)

    out = np.zeros((n, out_features), dtype=np.float64)
    table = lut.values
    for cg in range(groups):
        addr = addresses[:, cg]  # (N, M), LSB-first bit axis
        partial = np.zeros((n, table.shape[1]), dtype=np.float64)
        for bit, weight in zip(bit_positions, bit_weights):
            partial += weight * table[addr[:, bit]]
        out += partial[:, indices[:, cg]]
    return out


# ---------------------------------------------------------------------------
# Public kernels (plan-backed)
# ---------------------------------------------------------------------------
def bitserial_conv2d(
    q_x: np.ndarray,
    indices: np.ndarray,
    lut: LookupTable,
    stride: int = 1,
    padding: int = 0,
    act_bitwidth: int = 8,
    active_bits: Optional[int] = None,
    pad_value: int = 0,
) -> np.ndarray:
    """Bit-serial LUT convolution over unsigned integer activations.

    Compiles a single-use :class:`~repro.core.kernel_plan.ConvKernelPlan` and
    executes it.  Long-lived callers should compile the plan once themselves
    and reuse it across batches (the inference engine does).

    Parameters
    ----------
    q_x:
        ``(N, C, H, W)`` unsigned integer activations (quantized levels).
    indices:
        ``(F, C/g, KH, KW)`` pool indices of the weight-pool layer.
    lut:
        Shared lookup table (full precision or quantized).
    act_bitwidth:
        Bitwidth of the quantized activations (number of bit-serial iterations).
    active_bits:
        If given, only the most significant ``active_bits`` positions are
        processed (early termination).
    pad_value:
        Value used for spatial zero padding — pass the activation zero point so
        padded positions contribute zero in the dequantized domain.

    Returns
    -------
    ``(N, F, OH, OW)`` array containing ``sum_taps q * w`` in the
    "integer activation × real pool weight" domain.  The caller applies the
    activation scale / zero-point correction and bias.
    """
    from repro.core.kernel_plan import compile_conv_plan

    plan = compile_conv_plan(
        indices,
        lut,
        stride=stride,
        padding=padding,
        act_bitwidth=act_bitwidth,
        pad_value=pad_value,
    )
    return plan(q_x, active_bits=active_bits)


def bitserial_linear(
    q_x: np.ndarray,
    indices: np.ndarray,
    lut: LookupTable,
    act_bitwidth: int = 8,
    active_bits: Optional[int] = None,
) -> np.ndarray:
    """Bit-serial LUT matrix product for fully-connected weight-pool layers.

    ``q_x`` is ``(N, in_features)`` unsigned integers; ``indices`` is
    ``(out_features, in_features / g)``.  Returns ``sum q * w`` of shape
    ``(N, out_features)``.  Plan-backed; see :func:`bitserial_conv2d`.
    """
    from repro.core.kernel_plan import compile_linear_plan

    plan = compile_linear_plan(indices, lut, act_bitwidth=act_bitwidth)
    return plan(q_x, active_bits=active_bits)
