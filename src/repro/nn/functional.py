"""Vectorised functional primitives (im2col convolution, softmax, ...).

Every hot operation is expressed with NumPy array primitives rather than
Python loops, following the scikit-learn performance guidance.  The pure,
loop-based reference implementations live in the test suite and are used to
validate these vectorised versions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------
# Columns :func:`col2im` scatters per pass: about one L2's worth, so the
# KH·KW strided passes re-read cached data.
_COL2IM_CHUNK_BYTES = 1 << 20


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col_patches(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Zero-copy sliding-window view of image patches.

    Returns a read-only strided *view* of shape ``(N, C, KH, KW, OH, OW)``.
    Callers that need a different memory layout should materialise it with a
    single explicit copy (``np.ascontiguousarray`` after a transpose) instead
    of reshaping this view — a reshape silently copies, and doing so before a
    transpose used to copy the full int64 patch tensor twice on the
    bit-serial path.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides, writeable=False)


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(KH, KW)`` kernel size.

    Returns
    -------
    Array of shape ``(N, C * KH * KW, OH * OW)`` (one materialising copy of
    the :func:`im2col_patches` view).
    """
    n, c, _, _ = x.shape
    kh, kw = kernel
    patches = im2col_patches(x, kernel, stride, padding)
    oh, ow = patches.shape[4], patches.shape[5]
    return patches.reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add columns back to image space (adjoint of :func:`im2col`).

    ``cols`` is ``(N, C·KH·KW, OH·OW)``.  The taps are accumulated
    channels-last, a few samples at a time so each sample's columns stay
    cache-resident across the KH·KW strided passes.  The conv backward's
    einsum hands dense-conv ``cols`` over with the ``(N, OH·OW, C·KH·KW)``
    memory layout, which this reads without a copy; any other layout costs
    one transposing copy.  Every output element receives its taps in
    ``(i, j)`` order.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    taps = cols.transpose(0, 2, 1).reshape(n, oh, ow, c, kh, kw)
    out = np.zeros((n, h_pad, w_pad, c), dtype=cols.dtype)
    chunk = max(1, _COL2IM_CHUNK_BYTES // max(taps[0].nbytes if n else 0, 1))
    for a in range(0, n, chunk):
        dst, src = out[a : a + chunk], taps[a : a + chunk]
        for i in range(kh):
            i_max = i + stride * oh
            for j in range(kw):
                j_max = j + stride * ow
                dst[:, i:i_max:stride, j:j_max:stride] += src[..., i, j]
    out = out[:, padding : h_pad - padding, padding : w_pad - padding]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# Convolution (grouped)
# ---------------------------------------------------------------------------
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    padding: int,
    groups: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grouped 2D convolution.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` input.
    weight:
        ``(F, C // groups, KH, KW)`` filters.
    bias:
        ``(F,)`` bias or ``None``.

    Returns
    -------
    ``(output, cols)`` where ``cols`` is the im2col buffer cached for backward;
    for grouped convolutions ``cols`` has shape
    ``(groups, N, (C//groups)*KH*KW, OH*OW)``.
    """
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    if c % groups or f % groups:
        raise ValueError(
            f"channels ({c}) and filters ({f}) must both be divisible by groups ({groups})"
        )
    if c_per_group != c // groups:
        raise ValueError(
            f"weight expects {c_per_group} channels per group but input provides {c // groups}"
        )
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    f_per_group = f // groups

    if groups == 1:
        cols = im2col(x, (kh, kw), stride, padding)
        out = np.einsum("fk,nkp->nfp", weight.reshape(f, -1), cols, optimize=True)
        out = out.reshape(n, f, oh, ow)
        cols = cols[None]  # unify shape with the grouped path
    else:
        cols_list = []
        out = np.empty((n, f, oh, ow), dtype=np.result_type(x, weight))
        for g in range(groups):
            xg = x[:, g * c_per_group : (g + 1) * c_per_group]
            wg = weight[g * f_per_group : (g + 1) * f_per_group]
            cols_g = im2col(xg, (kh, kw), stride, padding)
            out_g = np.einsum(
                "fk,nkp->nfp", wg.reshape(f_per_group, -1), cols_g, optimize=True
            )
            out[:, g * f_per_group : (g + 1) * f_per_group] = out_g.reshape(
                n, f_per_group, oh, ow
            )
            cols_list.append(cols_g)
        cols = np.stack(cols_list, axis=0)

    if bias is not None:
        out = out + bias.reshape(1, f, 1, 1)
    return out, cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
    groups: int = 1,
    has_bias: bool = True,
):
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    when ``has_bias`` is False.
    """
    n, c, h, w = x_shape
    f, c_per_group, kh, kw = weight.shape
    f_per_group = f // groups
    oh, ow = grad_out.shape[2], grad_out.shape[3]

    grad_bias = grad_out.sum(axis=(0, 2, 3)) if has_bias else None
    grad_weight = np.zeros_like(weight)
    grad_x = np.zeros(x_shape, dtype=np.float64)

    for g in range(groups):
        go_g = grad_out[:, g * f_per_group : (g + 1) * f_per_group].reshape(
            n, f_per_group, oh * ow
        )
        cols_g = cols[g] if groups > 1 or cols.ndim == 4 else cols
        # grad wrt weights: sum over batch of (grad_out @ cols^T)
        gw = np.einsum("nfp,nkp->fk", go_g, cols_g, optimize=True)
        grad_weight[g * f_per_group : (g + 1) * f_per_group] = gw.reshape(
            f_per_group, c_per_group, kh, kw
        )
        # grad wrt input columns, then scatter back to image space
        wg = weight[g * f_per_group : (g + 1) * f_per_group].reshape(f_per_group, -1)
        grad_cols = np.einsum("fk,nfp->nkp", wg, go_g, optimize=True)
        gx_g = col2im(
            grad_cols,
            (n, c_per_group, h, w),
            (kh, kw),
            stride,
            padding,
        )
        grad_x[:, g * c_per_group : (g + 1) * c_per_group] = gx_g

    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Softmax / log-softmax
# ---------------------------------------------------------------------------
def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
