"""Tests for the vectorised functional primitives against loop references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def reference_conv2d(x, weight, bias, stride, padding, groups=1):
    """Straightforward loop implementation used as the gold standard."""
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, oh, ow))
    f_per_group = f // groups
    for ni in range(n):
        for fi in range(f):
            g = fi // f_per_group
            for oi in range(oh):
                for oj in range(ow):
                    patch = x_pad[
                        ni,
                        g * c_per_group : (g + 1) * c_per_group,
                        oi * stride : oi * stride + kh,
                        oj * stride : oj * stride + kw,
                    ]
                    out[ni, fi, oi, oj] = (patch * weight[fi]).sum()
            if bias is not None:
                out[ni, fi] += bias[fi]
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(5, 5, 1, 0) == 1

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = F.im2col(x, (3, 3), stride=1, padding=1)
        assert cols.shape == (2, 27, 25)

    def test_identity_kernel_recovers_pixels(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        cols = F.im2col(x, (1, 1), stride=1, padding=0)
        np.testing.assert_allclose(cols.reshape(1, 2, 16), x.reshape(1, 2, 16))

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for random x, y (adjointness).
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, (3, 3), stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, (3, 3), stride=2, padding=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("layout", ["c_contiguous", "backward_einsum"])
    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_col2im_matches_tap_loop_bitwise(self, layout, n, stride, padding):
        # 16 channels at 16x16: one sample's columns are ~0.3 MiB, so a batch
        # of 8 spans several of col2im's ~1 MiB accumulation chunks.
        c, h, w, k = 16, 16, 16, 3
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        y = np.random.default_rng(stride + 3 * padding).normal(size=(n, c * k * k, oh * ow))
        if layout == "backward_einsum":
            # What conv2d_backward's einsum returns: (N, OH*OW, C*KH*KW) in
            # memory, viewed as (N, C*KH*KW, OH*OW).
            y = np.ascontiguousarray(y.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert y.transpose(0, 2, 1).flags.c_contiguous
        taps = y.reshape(n, c, k, k, oh, ow)
        expected = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        for i in range(k):
            for j in range(k):
                expected[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += taps[
                    :, :, i, j
                ]
        expected = expected[:, :, padding : padding + h, padding : padding + w]
        back = F.col2im(y, (n, c, h, w), (k, k), stride=stride, padding=padding)
        np.testing.assert_array_equal(back, expected)


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_matches_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, padding)
        np.testing.assert_allclose(out, reference_conv2d(x, w, b, stride, padding), atol=1e-10)

    def test_grouped_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))  # depthwise
        out, _ = F.conv2d_forward(x, w, None, 1, 1, groups=4)
        np.testing.assert_allclose(
            out, reference_conv2d(x, w, None, 1, 1, groups=4), atol=1e-10
        )

    def test_1x1_conv(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 4, 4))
        w = rng.normal(size=(5, 8, 1, 1))
        out, _ = F.conv2d_forward(x, w, None, 1, 0)
        expected = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_rejects_bad_group_config(self):
        x = np.zeros((1, 3, 4, 4))
        w = np.zeros((4, 1, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1, groups=3)

    def test_rejects_channel_mismatch(self):
        x = np.zeros((1, 4, 4, 4))
        w = np.zeros((4, 3, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1, groups=1)

    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 4),
        f=st.integers(1, 4),
        size=st.integers(3, 8),
        stride=st.integers(1, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_matches_reference(self, n, c, f, size, stride):
        rng = np.random.default_rng(n * 100 + c * 10 + f)
        x = rng.normal(size=(n, c, size, size))
        w = rng.normal(size=(f, c, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, stride, 1)
        np.testing.assert_allclose(out, reference_conv2d(x, w, None, stride, 1), atol=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 7)) * 10
        probs = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_stability_with_large_values(self):
        logits = np.array([[1000.0, 1000.0]])
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_consistency(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(logits), np.log(F.softmax(logits)), atol=1e-12
        )
