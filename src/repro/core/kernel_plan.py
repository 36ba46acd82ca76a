"""Compiled per-layer kernel plans for bit-serial LUT execution.

The functional kernels in :mod:`repro.core.bitserial` re-derive every
per-layer constant (sub-tables, zero-point corrections, dtypes) on every
batch and loop in Python over every channel-group × kernel-tap, gathering
``N·T·P·M·F`` table entries per batch (``T`` taps, ``P`` output positions,
``M`` bit positions, ``F`` filters).  A *kernel plan* moves all per-layer
constant work to compile time — once per layer — and restructures execution
so the per-batch gather work drops by roughly ``M·KH·KW``:

* **Pre-gathered sub-tables** — in direct mode (``F ≤ S``, the paper's §4.3
  dispatch rule) the LUT columns each channel group actually uses,
  ``lut.values[:, used]``, are gathered at compile time into one contiguous
  ``(G, 2^g, W)`` tensor with the layer's pool indices remapped into the
  compact column space; in precompute mode (``F > S``) the shared ``(2^g,
  S)`` table is used whole.
* **Bit/space hoisting** — at run time the activation image is bit-encoded
  *once per padded pixel* and the shift-accumulate over bit positions
  produces per-group pool partials ``pv[n, g, y, x, :]`` before the
  convolution window is taken.  Overlapping windows share pixels, so this
  memoizes the bit-serial work across the ``KH·KW`` taps that would
  otherwise recompute it (the §4.3 precompute idea applied network-side).
  The remaining tap reduction is a single bit-free windowed gather.
* **Fused affine epilogue** — the activation scale, the zero-point correction
  ``scale · zero_point · Σw`` and the layer bias folded into one
  ``out = α·acc + β`` applied after accumulation.
* **Compact dtypes** — LUT addresses are ``uint8``/``uint16`` (values are
  below ``2^g``), quantized LUTs accumulate in *integers* sized by exact
  overflow bounds (``int16`` tables and partials for the default 8-bit LUT ×
  8-bit activations) with a single final rescale, and full-precision LUTs
  keep ``float64`` tables so the bit-exactness invariant against the
  reference kernel holds.  An explicit ``table_dtype`` (e.g. ``np.float32``)
  trades exactness for memory.

Batch and tap chunking bound every gather temporary to a fixed memory
budget, so the kernel stays memory-lean for arbitrarily large layers.

Plans are immutable snapshots of ``(indices, lut, quant params)``; recompile
after changing any of them (the engine invalidates its plan cache on
``set_activation_bitwidth`` / ``set_lut_bitwidth``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import sys

from repro.core.bitserial import active_bit_positions, bit_vector_values, _validate_unsigned
from repro.core.lut import LookupTable
from repro.nn.functional import conv_output_size
from repro.utils.bits import min_uint_dtype

# Upper bound on the size of any single temporary materialised during
# execution; batches and taps are processed in chunks that fit this budget.
_GATHER_BUDGET_BYTES = 64 << 20

# 8×8 bit-matrix transpose constants (Hacker's Delight §7-3): with the 8
# bytes of one channel group viewed as a little-endian uint64 ``x``,
# ``(((x >> j) & LANES) * GATHER) >> 56`` collects bit ``j`` of every
# channel into one byte — the group's LUT address for bit position ``j``.
_BIT_LANES = np.uint64(0x0101010101010101)
_BIT_GATHER = np.uint64(0x0102040810204080)


def scratch_buf(scratch: Optional[dict], name: str, shape, dtype) -> np.ndarray:
    """A reusable work buffer from ``scratch``, or a fresh allocation.

    ``scratch`` is a caller-owned dict keyed by ``(name, shape, dtype)``; the
    graph executor hands every kernel-plan step a per-shard dict so repeated
    batches of the same geometry never re-allocate their gather temporaries
    (pool partials, tap scratch, accumulators).  ``None`` (the executor's
    step interpreter) allocates afresh.  Buffers come back
    *uninitialised* — callers must fully overwrite or ``fill`` them.
    """
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    key = (name, tuple(shape), np.dtype(dtype).str)
    buf = scratch.get(key)
    if buf is None:
        buf = scratch[key] = np.empty(shape, dtype=dtype)
    return buf


def _compile_tables(
    lut: LookupTable, table_dtype: Optional[np.dtype]
) -> Tuple[np.ndarray, float, bool]:
    """Pick the table representation: ``(base_table, table_scale, integer)``.

    Quantized LUTs execute in the integer domain (exact integer accumulation,
    one final multiply by the LUT scale); full-precision LUTs stay ``float64``
    so plan-based execution remains bit-exact with the reference kernel.  An
    explicit ``table_dtype`` (e.g. ``np.float32``) overrides the policy for
    callers trading exactness for memory.
    """
    if table_dtype is not None:
        return np.ascontiguousarray(lut.values, dtype=table_dtype), 1.0, False
    if lut.integer_values is not None:
        # Entries fit int32 for every supported LUT bitwidth (<= 16).
        return np.ascontiguousarray(lut.integer_values, dtype=np.int32), float(lut.scale), True
    return np.ascontiguousarray(lut.values, dtype=np.float64), 1.0, False


def _fused_epilogue(
    lut: LookupTable,
    indices: np.ndarray,
    table_scale: float,
    scale: Optional[float],
    zero_point: int,
    bias: Optional[np.ndarray],
) -> Tuple[float, Optional[np.ndarray]]:
    """Fold activation scale, zero-point correction and bias into ``α, β``.

    ``raw = table_scale · acc`` is the kernel output in the "integer
    activation × real weight" domain; the engine's dequantization
    ``scale · (raw − zero_point · Σw) + bias`` collapses to ``α·acc + β``.
    With ``scale=None`` the plan is a raw kernel (α = table_scale, no β),
    matching the functional :func:`~repro.core.bitserial.bitserial_conv2d`
    contract.
    """
    if scale is None:
        return table_scale, None
    f = indices.shape[0]
    w_sums = lut.pool_vector_sums()[indices].reshape(f, -1).sum(axis=1)  # (F,)
    beta = -float(scale) * float(zero_point) * w_sums
    if bias is not None:
        beta = beta + np.asarray(bias, dtype=np.float64)
    return float(scale) * table_scale, beta


@dataclass
class ConvKernelPlan:
    """Compiled execution plan for one weight-pool convolution layer.

    Call the plan with ``(N, C, H, W)`` unsigned integer activations; it
    returns ``(N, F, OH, OW)`` outputs with the fused epilogue applied.
    """

    group_size: int
    act_bitwidth: int
    stride: int
    padding: int
    pad_value: int
    kernel: Tuple[int, int]
    in_channels: int
    num_filters: int
    num_taps: int
    mode: str  # "direct" (F <= S) or "precompute" (F > S), paper §4.3
    # Bit-weighted tables: entry [j] is the (sub-)table pre-multiplied by 2^j
    # (exact for float64 — powers of two — and overflow-checked for int32).
    # direct: (M, G, 2^g, W) per-group sub-tables; precompute: (M, 2^g, S).
    tables: np.ndarray
    # (G, KH*KW*F) column into the stage-1 partials that each (kernel
    # position, filter) pair of a channel group reads, kernel-position-major.
    group_cols: np.ndarray
    partial_dtype: np.dtype  # stage-1 accumulator dtype (int32/int64/float)
    acc_dtype: np.dtype  # stage-2 accumulator dtype (int32/int64/float)
    integer: bool
    # Fused affine epilogue ``out = alpha * acc + beta``.  ``alpha`` is a
    # scalar for the plain engine epilogue; the network compiler widens it to
    # a per-filter ``(F,)`` array when BatchNorm is folded into the plan.
    alpha: float
    beta: Optional[np.ndarray]
    # Fused requantization ``(clip_lo, clip_hi, dtype)``: when set, the
    # epilogue result is rounded, clipped, and emitted as the next layer's
    # quantized-integer activations (``alpha``/``beta`` already include the
    # next layer's 1/scale and zero point) — the dequantize→quantize pair the
    # graph optimizer elides.  ``None`` keeps the float (dequantized) output.
    requant: Optional[Tuple[float, float, np.dtype]] = None
    # Padding hoist (network-compiler variant): execute stage 1 on the
    # *unpadded* image and inject the padded border's contribution — which is
    # a per-(group, column) constant, since every padding pixel encodes the
    # same all-``pad_value`` activation group — as compile-time constants
    # during the tap reduction.  Cuts the bit-encode and gather work by the
    # border fraction (11% at 32², 34% at 8² for 3×3/pad-1) and skips the
    # per-batch pad copy.  Changes only the float *order* of the tap sum, so
    # unoptimized (O0) programs keep it off.
    hoist_padding: bool = False
    # Compile-time per-group row offsets folding the group axis into the
    # direct-mode gather rows (hoisted out of ``_pool_partials``, which used
    # to rebuild this arange on every batch).
    row_offsets: Optional[np.ndarray] = None

    @property
    def encoder(self) -> str:
        """The address encoder this plan's input geometry selects.

        ``"bitmul"`` (a uint64 mask-multiply bit-matrix transpose, ~16×
        faster than the alternative) needs full 8-channel groups, at most
        8 activation bits and a little-endian host; every other
        configuration uses ``"packbits"`` (``np.unpackbits``/``np.packbits``,
        or the generic encoder beyond 8 bits).  Both produce identical
        addresses.
        """
        if self.group_size == 8 and self.act_bitwidth <= 8 and sys.byteorder == "little":
            return "bitmul"
        return "packbits"

    # -- stage 1: per-pixel bit-serial pool partials ---------------------------
    def _encode_addresses(
        self, q_x: np.ndarray, pad: bool = True, scratch: Optional[dict] = None
    ) -> np.ndarray:
        """Per-bit LUT addresses ``(G, N, Hp, Wp, M)`` of the (padded) image.

        For the paper's configuration (group size and activation bitwidth both
        ≤ 8) the addresses are a bit-matrix transpose of uint8 data at C speed
        (see :attr:`encoder`); other configurations fall back to the generic
        :func:`~repro.core.bitserial.bit_vector_values` encoder.
        Inputs are range-validated by ``__call__`` before this runs.
        ``pad=False`` (the padding-hoist pipeline) encodes the raw image.
        With a ``scratch`` dict, the dtype-compaction and layout copies land
        in reused buffers instead of fresh per-call allocations (the
        unpackbits/packbits temporaries have no ``out=`` form and remain).
        """
        n = q_x.shape[0]
        fast = self.group_size <= 8 and self.act_bitwidth <= 8
        if fast and q_x.dtype != np.uint8:
            q8 = scratch_buf(scratch, "q8", q_x.shape, np.uint8)
            np.copyto(q8, q_x, casting="unsafe")
            q_x = q8
        if pad and self.padding:
            p = self.padding
            padded_shape = q_x.shape[:2] + (q_x.shape[2] + 2 * p, q_x.shape[3] + 2 * p)
            if scratch is None:
                q_x = np.pad(
                    q_x,
                    ((0, 0), (0, 0), (p,) * 2, (p,) * 2),
                    mode="constant",
                    constant_values=self.pad_value,
                )
            else:
                padded = scratch_buf(scratch, "padded", padded_shape, q_x.dtype)
                padded.fill(self.pad_value)
                padded[:, :, p:-p, p:-p] = q_x
                q_x = padded
        hp, wp = q_x.shape[2], q_x.shape[3]
        groups = self.in_channels // self.group_size
        grouped = q_x.reshape(n, groups, self.group_size, hp, wp).transpose(1, 0, 3, 4, 2)
        if not fast:
            return bit_vector_values(grouped, self.act_bitwidth)
        if scratch is None:
            grouped = np.ascontiguousarray(grouped)  # (G, N, Hp, Wp, g) uint8
        else:
            contig = scratch_buf(scratch, "grouped", grouped.shape, np.uint8)
            np.copyto(contig, grouped)
            grouped = contig
        if self.encoder == "bitmul":
            # uint64 bit-matrix transpose: one shift/and/multiply/shift pass
            # per bit position over the group words, no 8× bit expansion.
            words = grouped.view(np.uint64)[..., 0]  # (G, N, Hp, Wp)
            addresses = scratch_buf(
                scratch, "addr", grouped.shape[:-1] + (self.act_bitwidth,), np.uint8
            )
            lane = scratch_buf(scratch, "addr_lane", words.shape, np.uint64)
            for j in range(self.act_bitwidth):
                np.right_shift(words, np.uint64(j), out=lane)
                np.bitwise_and(lane, _BIT_LANES, out=lane)
                np.multiply(lane, _BIT_GATHER, out=lane)  # wraps mod 2^64 by design
                np.right_shift(lane, np.uint64(56), out=lane)
                addresses[..., j] = lane
            return addresses
        # The per-group addresses are the 8×8 bit-matrix transpose of the
        # group bytes: one unpackbits (byte → its 8 bits, little-endian) and
        # one packbits across the *group* axis (element i → address bit i)
        # produce every bit position's address in two C calls.
        bits = np.unpackbits(grouped[..., None], axis=-1, bitorder="little")
        addresses = np.packbits(bits, axis=-2, bitorder="little")[..., 0, :]
        if self.act_bitwidth < 8:
            addresses = addresses[..., : self.act_bitwidth]
        return addresses

    def _pool_partials(
        self, q_x: np.ndarray, bit_positions: List[int], scratch: Optional[dict] = None
    ) -> np.ndarray:
        """Shift-accumulated LUT partials per padded pixel and channel group.

        Returns ``pv`` of shape ``(G, N, Hp, Wp, W)`` where
        ``pv[g, n, y, x, s] = Σ_j 2^j · table_g[addr_j(n, g, y, x), s]`` —
        the bit-serial dot products of every (sub-)pool column with the
        activation group at one pixel.  Computed once per pixel; the
        convolution windows gather from it without touching bits again.
        """
        addresses = self._encode_addresses(q_x, scratch=scratch)
        groups, n, hp, wp, _ = addresses.shape
        width = self.tables.shape[-1]

        if self.mode == "direct":
            # Fold the group axis into the row index so every bit pass is one
            # flat row-gather (tables are stored (M, G, 2^g, W) contiguous).
            flat_tables = self.tables.reshape(self.act_bitwidth, -1, width)
            offsets = self.row_offsets
            if offsets is None:  # plans compiled before the hoist landed
                offsets = (
                    np.arange(groups, dtype=min_uint_dtype((groups << self.group_size) - 1))
                    << self.group_size
                ).reshape(groups, 1, 1, 1, 1)
            rows = scratch_buf(scratch, "rows", addresses.shape, offsets.dtype)
            np.copyto(rows, addresses, casting="unsafe")
            rows += offsets
        else:
            flat_tables = self.tables
            rows = addresses

        pv = scratch_buf(scratch, "pv", (groups, n, hp, wp, width), self.partial_dtype)
        if self.partial_dtype == self.tables.dtype:
            # Gather straight into the accumulator / a reused scratch buffer.
            gather: Optional[np.ndarray] = None
            for i, j in enumerate(bit_positions):
                if i == 0:
                    np.take(flat_tables[j], rows[..., j], axis=0, out=pv)
                else:
                    if gather is None:
                        gather = scratch_buf(scratch, "pv_gather", pv.shape, pv.dtype)
                    np.take(flat_tables[j], rows[..., j], axis=0, out=gather)
                    pv += gather
        else:
            # Mixed dtypes (e.g. int32 tables, int64 partials): gather, widen, add.
            pv.fill(0)
            for j in bit_positions:
                pv += flat_tables[j][rows[..., j]]
        return pv

    # -- stage 2: windowed tap reduction ---------------------------------------
    def _reduce_taps(
        self,
        pv: np.ndarray,
        oh: int,
        ow: int,
        stride: int,
        scratch_dict: Optional[dict] = None,
    ) -> np.ndarray:
        """Bit-free gather of each filter's column, then strided window sums.

        Per (channel group, kernel position), one contiguous ``np.take`` into
        a reused buffer pulls the column every filter uses for the whole
        padded image; the spatial reduction is then a pure strided slice-add.
        ``N·T·P·F``-order element reads in total, no bit dimension.
        """
        groups, n, hp, wp, _ = pv.shape
        kh, kw = self.kernel
        f = self.num_filters
        acc = scratch_buf(scratch_dict, "tap_acc", (n, oh, ow, f), self.acc_dtype)
        acc.fill(0)
        scratch = scratch_buf(scratch_dict, "tap_cols", (n, hp * wp, f), pv.dtype)
        image = scratch.reshape(n, hp, wp, f)
        for g in range(groups):
            flat = pv[g].reshape(n, hp * wp, -1)
            for k in range(kh * kw):
                ki, kj = divmod(k, kw)
                np.take(flat, self.group_cols[g, k * f : (k + 1) * f], axis=-1, out=scratch)
                acc += image[
                    :,
                    ki : ki + oh * stride : stride,
                    kj : kj + ow * stride : stride,
                ]
        return acc.transpose(0, 3, 1, 2)

    # -- padding-hoist pipeline (network-compiler variant) ---------------------
    def _pool_partials_grouped(
        self, q_x: np.ndarray, bit_positions: List[int], scratch: Optional[dict] = None
    ) -> np.ndarray:
        """Stage-1 partials of the *unpadded* image, gathered per channel group.

        Same per-element arithmetic (and dtype) as :meth:`_pool_partials`, but
        without the padded-image copy and without materialising the flat
        group-offset row tensor: each group gathers straight through its own
        sub-table slice.
        """
        addresses = self._encode_addresses(q_x, pad=False, scratch=scratch)
        groups, n, h, w, _ = addresses.shape
        width = self.tables.shape[-1]
        pv = scratch_buf(scratch, "pv", (groups, n, h, w, width), self.partial_dtype)
        gather: Optional[np.ndarray] = None
        for g in range(groups):
            tables_g = self.tables[:, g] if self.mode == "direct" else self.tables
            if self.partial_dtype == self.tables.dtype:
                for i, j in enumerate(bit_positions):
                    if i == 0:
                        np.take(tables_g[j], addresses[g, ..., j], axis=0, out=pv[g])
                    else:
                        if gather is None:
                            gather = scratch_buf(scratch, "pv_gather", pv.shape[1:], pv.dtype)
                        np.take(tables_g[j], addresses[g, ..., j], axis=0, out=gather)
                        pv[g] += gather
            else:
                pv[g].fill(0)
                for j in bit_positions:
                    pv[g] += tables_g[j][addresses[g, ..., j]]
        return pv

    def _border_constants(self, bit_positions: List[int]) -> np.ndarray:
        """Per-(group, column) stage-1 value of an all-``pad_value`` pixel.

        Every padding pixel encodes the same activation group, so its pool
        partials are constants: the bit-weighted table rows at address 0 or
        ``2^g − 1`` depending on each bit of the zero point.  Summed in the
        same bit order as the gather loop; cached per active-bit selection.
        """
        cache = getattr(self, "_border_cache", None)
        if cache is None:
            cache = {}
            self._border_cache = cache
        key = tuple(bit_positions)
        consts = cache.get(key)
        if consts is None:
            groups = self.in_channels // self.group_size
            all_ones = (1 << self.group_size) - 1
            consts = np.zeros((groups, self.tables.shape[-1]), dtype=self.acc_dtype)
            for g in range(groups):
                tables_g = self.tables[:, g] if self.mode == "direct" else self.tables
                for j in bit_positions:
                    address = all_ones if (self.pad_value >> j) & 1 else 0
                    consts[g] += tables_g[j][address].astype(self.acc_dtype, copy=False)
            cache[key] = consts
        return consts

    def _tap_bounds(self, ki: int, kj: int, h: int, w: int, oh: int, ow: int, stride: int):
        """In-bounds output window of one tap: y·s + ki − p ∈ [0, h)."""
        p = self.padding
        y0 = max(0, -((p - ki) // -stride))
        y1 = min(oh, (h - 1 - ki + p) // stride + 1)
        x0 = max(0, -((p - kj) // -stride))
        x1 = min(ow, (w - 1 - kj + p) // stride + 1)
        return y0, y1, x0, x1

    def _border_tensor(
        self, h: int, w: int, oh: int, ow: int, stride: int, bit_positions: List[int]
    ) -> np.ndarray:
        """Total padded-border contribution per output position, ``(OH, OW, F)``.

        Purely a function of the layer geometry, the zero point, and the
        active bit selection — independent of the batch — so it is computed
        once and cached; the hot tap reduction adds it in a single pass.
        """
        cache = getattr(self, "_border_tensor_cache", None)
        if cache is None:
            cache = {}
            self._border_tensor_cache = cache
        key = (h, w, oh, ow, stride, tuple(bit_positions))
        border = cache.get(key)
        if border is None:
            consts = self._border_constants(bit_positions)
            kh, kw = self.kernel
            f = self.num_filters
            groups = self.in_channels // self.group_size
            border = np.zeros((oh, ow, f), dtype=self.acc_dtype)
            for g in range(groups):
                for k in range(kh * kw):
                    y0, y1, x0, x1 = self._tap_bounds(*divmod(k, kw), h, w, oh, ow, stride)
                    cvec = consts[g][self.group_cols[g, k * f : (k + 1) * f]]
                    border += cvec
                    if y0 < y1 and x0 < x1:
                        border[y0:y1, x0:x1] -= cvec
            cache[key] = border
        return border

    def _reduce_taps_hoisted(
        self,
        pv: np.ndarray,
        oh: int,
        ow: int,
        stride: int,
        bit_positions: List[int],
        scratch_dict: Optional[dict] = None,
    ) -> np.ndarray:
        """Tap reduction over unpadded partials + cached border terms.

        Each tap adds its in-bounds window region directly; the contribution
        of taps that fall into the padding is the precomputed (batch-
        independent) :meth:`_border_tensor`, added in one pass at the end.
        One narrow gather per (group, kernel position): the ``(N, H·W, F)``
        column buffer stays cache-resident across the strided adds.
        """
        groups, n, h, w, _ = pv.shape
        kh, kw = self.kernel
        f = self.num_filters
        acc = scratch_buf(scratch_dict, "tap_acc", (n, oh, ow, f), self.acc_dtype)
        acc.fill(0)
        cols = scratch_buf(scratch_dict, "tap_col", (n, h * w, f), pv.dtype)
        image = cols.reshape(n, h, w, f)
        for g in range(groups):
            flat = pv[g].reshape(n, h * w, -1)
            for k in range(kh * kw):
                ki, kj = divmod(k, kw)
                y0, y1, x0, x1 = self._tap_bounds(ki, kj, h, w, oh, ow, stride)
                if y0 >= y1 or x0 >= x1:
                    continue
                np.take(flat, self.group_cols[g, k * f : (k + 1) * f], axis=-1, out=cols)
                ys = y0 * stride + ki - self.padding
                xs = x0 * stride + kj - self.padding
                acc[:, y0:y1, x0:x1] += image[
                    :,
                    ys : ys + (y1 - y0) * stride : stride,
                    xs : xs + (x1 - x0) * stride : stride,
                ]
        if self.padding:
            acc += self._border_tensor(h, w, oh, ow, stride, bit_positions)[None]
        return acc.transpose(0, 3, 1, 2)

    # -- memory ----------------------------------------------------------------
    def _batch_chunk(self, hp: int, wp: int) -> int:
        groups = self.in_channels // self.group_size
        per_image = max(
            hp * wp * (groups * self.tables.shape[-1] + self.num_filters)
            * self.partial_dtype.itemsize,
            1,
        )
        return max(1, _GATHER_BUDGET_BYTES // per_image)

    # -- execution -------------------------------------------------------------
    def __call__(
        self,
        q_x: np.ndarray,
        active_bits: Optional[int] = None,
        validated: bool = False,
        out: Optional[np.ndarray] = None,
        scratch: Optional[dict] = None,
    ) -> np.ndarray:
        """Execute the plan on unsigned-integer activations.

        ``validated=True`` skips the int64 conversion and range check — the
        graph executor passes it for buffers whose producer (a clipped
        quantize/requantize op) guarantees in-range unsigned values, removing
        one full pass over the activations per layer.

        ``out`` (shape ``(N, F, OH, OW)``, the epilogue's output dtype)
        receives the result in place — the arena executor passes a view into
        its planned arena.  The input is fully consumed before ``out`` is
        first written, so ``out`` may safely reuse ``q_x``'s storage.
        ``scratch`` (see :func:`scratch_buf`) recycles every internal
        temporary across calls; both default to the allocate-per-call
        behaviour and change nothing numerically.
        """
        if not validated:
            q_x = np.asarray(q_x, dtype=np.int64)
        if q_x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) activations, got {q_x.shape}")
        n, c, h, w = q_x.shape
        if c != self.in_channels:
            raise ValueError(
                f"indices expect {self.in_channels} channels, activations have {c}"
            )
        if not validated:
            # Validate once here; the encoders below assume in-range values.
            _validate_unsigned(q_x, self.act_bitwidth, "bit-serial kernels")
        bit_positions = active_bit_positions(self.act_bitwidth, active_bits)
        kh, kw = self.kernel
        oh = conv_output_size(h, kh, self.stride, self.padding)
        ow = conv_output_size(w, kw, self.stride, self.padding)

        stride = self.stride
        if kh == kw == 1 and stride > 1 and self.padding == 0:
            # Pointwise downsample: only every stride-th pixel is ever read,
            # so drop the others before the bit-serial stage.
            q_x = q_x[:, :, ::stride, ::stride]
            stride = 1
        acc = scratch_buf(scratch, "acc", (n, self.num_filters, oh, ow), self.acc_dtype)
        chunk = self._batch_chunk(h + 2 * self.padding, w + 2 * self.padding)
        for n0 in range(0, n, chunk):
            n1 = min(n, n0 + chunk)
            if self.hoist_padding:
                pv = self._pool_partials_grouped(q_x[n0:n1], bit_positions, scratch)
                acc[n0:n1] = self._reduce_taps_hoisted(
                    pv, oh, ow, stride, bit_positions, scratch
                )
            else:
                pv = self._pool_partials(q_x[n0:n1], bit_positions, scratch)
                acc[n0:n1] = self._reduce_taps(pv, oh, ow, stride, scratch)
        return self._apply_epilogue(acc, out, scratch)

    def _apply_epilogue(
        self, acc: np.ndarray, out: Optional[np.ndarray], scratch: Optional[dict]
    ) -> np.ndarray:
        """``α·acc + β`` (+ requant clip), into ``out`` when provided.

        The ``out`` path runs the exact same ufunc sequence as the
        allocate-per-call path (multiply/add/rint/clip and one final cast),
        so results are bitwise identical either way.
        """
        alpha = self.alpha
        if np.ndim(alpha):  # per-filter alpha (BatchNorm folded into the epilogue)
            alpha = np.asarray(alpha, dtype=np.float64).reshape(1, -1, 1, 1)
            scale = True
        else:
            scale = self.integer or alpha != 1.0
        if out is not None:
            # Float math lands in `out` directly when `out` is the float
            # result; fused requantization rounds in a float scratch and
            # casts into `out` at the end.
            res = out if self.requant is None else scratch_buf(scratch, "epi", acc.shape, np.float64)
            if scale:
                np.multiply(acc, alpha, out=res)
            else:
                np.copyto(res, acc)
        elif scale:
            res = acc * alpha  # fresh product; `acc` may live in scratch
        else:
            # With a scratch dict `acc` is a reused buffer the next call
            # overwrites — the result must not alias it.
            res = acc.astype(np.float64, copy=scratch is not None)
        if self.beta is not None:
            np.add(res, self.beta.reshape(1, -1, 1, 1), out=res)
        if self.requant is not None:
            lo, hi, dtype = self.requant
            np.rint(res, out=res)
            np.clip(res, lo, hi, out=res)
            if out is None:
                return res.astype(dtype, copy=False)
            np.copyto(out, res, casting="unsafe")
        return res if out is None else out


def compile_conv_plan(
    indices: np.ndarray,
    lut: LookupTable,
    stride: int = 1,
    padding: int = 0,
    act_bitwidth: int = 8,
    pad_value: int = 0,
    scale: Optional[float] = None,
    zero_point: int = 0,
    bias: Optional[np.ndarray] = None,
    table_dtype: Optional[np.dtype] = None,
    hoist_padding: bool = False,
) -> ConvKernelPlan:
    """Compile a convolution kernel plan for one weight-pool layer.

    With ``scale=None`` the plan computes the raw ``sum q·w`` domain exactly
    like :func:`~repro.core.bitserial.bitserial_conv2d`; passing the
    activation ``scale``/``zero_point`` (and optionally ``bias``) fuses the
    whole dequantization epilogue into the plan.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 4:
        raise ValueError(f"expected (F, C/g, KH, KW) indices, got {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= lut.pool_size):
        raise ValueError("pool index out of range for this LUT")
    f, groups, kh, kw = indices.shape
    taps = groups * kh * kw

    base, table_scale, integer = _compile_tables(lut, table_dtype)
    alpha, beta = _fused_epilogue(lut, indices, table_scale, scale, zero_point, bias)

    if f <= lut.pool_size:
        # Direct mode: pre-gather only the LUT columns each channel group
        # uses, and remap the layer's pool indices into that compact space.
        mode = "direct"
        used = [np.unique(indices[:, g]) for g in range(groups)]
        width = max(len(u) for u in used)
        sub = np.zeros((groups, base.shape[0], width), dtype=base.dtype)
        local = np.empty_like(indices)
        for g, u in enumerate(used):
            sub[g, :, : len(u)] = base[:, u]
            local[:, g] = np.searchsorted(u, indices[:, g])
    else:
        # Precompute mode (F > S): per-pool-vector partials, shared table.
        mode = "precompute"
        sub = base
        local = indices

    # Pre-scale the tables by every bit weight (exact: powers of two), so the
    # per-bit execution pass is a pure gather-add.
    bit_weights = (1 << np.arange(act_bitwidth, dtype=np.int64)).reshape(
        (act_bitwidth,) + (1,) * sub.ndim
    )
    if integer:
        tables = sub.astype(np.int64)[None] * bit_weights

        def _int_dtype(bound: int) -> np.dtype:
            for candidate in (np.int16, np.int32, np.int64):
                if bound <= np.iinfo(candidate).max:
                    return np.dtype(candidate)
            raise ValueError(f"integer bound {bound} exceeds int64")

        tables = tables.astype(_int_dtype(int(np.abs(tables).max(initial=0))))
        # Stage-1 partials sum the bit-weighted entries over at most M bits
        # (for the default 8-bit LUT × 8-bit activations this fits int16,
        # halving the gather traffic); stage-2 additionally sums the T taps.
        partial_bound = ((1 << act_bitwidth) - 1) * int(np.abs(sub).max(initial=0))
        partial_dtype = _int_dtype(partial_bound)
        acc_dtype = max(_int_dtype(taps * partial_bound), np.dtype(np.int32))
    else:
        # Bit weights are powers of two: exact in any float dtype.
        tables = sub[None] * bit_weights.astype(sub.dtype)
        partial_dtype = tables.dtype
        acc_dtype = tables.dtype
    tables = np.ascontiguousarray(tables)
    if padding and not 0 <= pad_value < (1 << act_bitwidth):
        raise ValueError(
            f"pad_value {pad_value} does not fit in {act_bitwidth} bits"
        )

    # Stage-2 gather columns, kernel-position-major per channel group.
    group_cols = np.ascontiguousarray(
        local.transpose(1, 2, 3, 0).reshape(groups, kh * kw * f)
    ).astype(np.intp)

    # Direct-mode row offsets folding the group axis into the flat gather
    # rows: purely a function of the layer geometry, so built here instead of
    # on every batch.
    row_offsets = None
    if mode == "direct":
        offset_dtype = min_uint_dtype((groups << lut.group_size) - 1)
        row_offsets = (
            np.arange(groups, dtype=offset_dtype) << lut.group_size
        ).reshape(groups, 1, 1, 1, 1)

    return ConvKernelPlan(
        group_size=lut.group_size,
        act_bitwidth=act_bitwidth,
        stride=stride,
        padding=padding,
        pad_value=pad_value,
        kernel=(kh, kw),
        in_channels=groups * lut.group_size,
        num_filters=f,
        num_taps=taps,
        mode=mode,
        tables=tables,
        group_cols=group_cols,
        partial_dtype=partial_dtype,
        acc_dtype=acc_dtype,
        integer=integer,
        alpha=alpha,
        beta=beta,
        hoist_padding=hoist_padding,
        row_offsets=row_offsets,
    )


@dataclass
class LinearKernelPlan:
    """Compiled execution plan for one weight-pool linear layer.

    Internally a 1×1 convolution plan over a 1×1 "image"; call with
    ``(N, in_features)`` unsigned integer activations.
    """

    conv_plan: ConvKernelPlan

    def __call__(
        self,
        q_x: np.ndarray,
        active_bits: Optional[int] = None,
        validated: bool = False,
        out: Optional[np.ndarray] = None,
        scratch: Optional[dict] = None,
    ) -> np.ndarray:
        if not validated:
            q_x = np.asarray(q_x, dtype=np.int64)
        if q_x.ndim != 2:
            raise ValueError("bitserial_linear expects 2D activations and 2D indices")
        n, in_features = q_x.shape
        if in_features != self.conv_plan.in_channels:
            raise ValueError(
                f"indices expect {self.conv_plan.in_channels} inputs, "
                f"activations have {in_features}"
            )
        res = self.conv_plan(
            q_x.reshape(n, in_features, 1, 1),
            active_bits=active_bits,
            validated=validated,
            out=None if out is None else out.reshape(n, -1, 1, 1),
            scratch=scratch,
        )
        return res.reshape(n, self.conv_plan.num_filters)


def compile_linear_plan(
    indices: np.ndarray,
    lut: LookupTable,
    act_bitwidth: int = 8,
    scale: Optional[float] = None,
    zero_point: int = 0,
    bias: Optional[np.ndarray] = None,
    table_dtype: Optional[np.dtype] = None,
) -> LinearKernelPlan:
    """Compile a kernel plan for a fully-connected weight-pool layer."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError("bitserial_linear expects 2D activations and 2D indices")
    conv_plan = compile_conv_plan(
        indices[:, :, None, None],
        lut,
        stride=1,
        padding=0,
        act_bitwidth=act_bitwidth,
        pad_value=0,
        scale=scale,
        zero_point=zero_point,
        bias=bias,
        table_dtype=table_dtype,
    )
    return LinearKernelPlan(conv_plan=conv_plan)
