"""Gradient checks for convolution, pooling and bilinear resampling."""

import tracemalloc

import numpy as np
import pytest

from repro.autodiff.conv import avg_pool2d, bilinear_resize, conv2d, max_pool2d, _interp_matrix
from repro.autodiff.tensor import Tensor
from tests.conftest import assert_gradients_close, numerical_gradient


class TestConv2d:
    def test_output_shape_with_stride_and_padding(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 9, 9)))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 5, 5)

    def test_matches_direct_computation(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), padding=0).data
        expected = np.zeros((1, 1, 2, 2))
        for i in range(2):
            for j in range(2):
                expected[0, 0, i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 4, 3, 3))))

    def test_gradcheck_all_inputs(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        (conv2d(xt, wt, bt, stride=1, padding=1) ** 2).mean().backward()

        def scalar():
            return float((conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wt.grad, numerical_gradient(scalar, w))
        assert_gradients_close(bt.grad, numerical_gradient(scalar, b))

    def test_gradcheck_strided(self, rng):
        x = rng.standard_normal((1, 2, 7, 7))
        w = rng.standard_normal((2, 2, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        (conv2d(xt, wt, stride=2, padding=1) ** 2).mean().backward()

        def scalar():
            return float((conv2d(Tensor(x), Tensor(w), stride=2, padding=1) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wt.grad, numerical_gradient(scalar, w))


def _direct_conv2d(x, w, b, stride, padding):
    """Cross-correlation by nested loops over every output entry, in float64."""
    (sh, sw), (ph, pw) = stride, padding
    padded = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    batch, _, height, width = padded.shape
    out_channels, _, kh, kw = w.shape
    out_h, out_w = (height - kh) // sh + 1, (width - kw) // sw + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for n in range(batch):
        for o in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[n, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[n, o, i, j] = np.sum(patch * w[o]) + (b[o] if b is not None else 0.0)
    return out


class TestConv2dAgainstDirectLoop:
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 5), (3, 2)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("padding", [0, 1, 2], ids="pad{}".format)
    @pytest.mark.parametrize("stride", [1, 2], ids="stride{}".format)
    def test_matches_direct_loop(self, rng, kernel, padding, stride):
        x = rng.standard_normal((2, 3, 7, 9))  # H != W
        w = rng.standard_normal((4, 3) + kernel)
        b = rng.standard_normal(4)
        for bias in (None, b):
            expected = _direct_conv2d(x, w, bias, (stride, stride), (padding, padding))
            out = conv2d(Tensor(x), Tensor(w), None if bias is None else Tensor(bias),
                         stride=stride, padding=padding).data
            assert out.dtype == np.float64
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

            x32, w32 = x.astype(np.float32), w.astype(np.float32)
            b32 = None if bias is None else bias.astype(np.float32)
            out32 = conv2d(Tensor(x32), Tensor(w32), None if b32 is None else Tensor(b32),
                           stride=stride, padding=padding).data
            expected32 = _direct_conv2d(x32, w32, b32, (stride, stride), (padding, padding))
            assert out32.dtype == np.float32
            assert np.abs(out32 - expected32).max() <= 1e-5 * np.abs(expected32).max()

    @pytest.mark.parametrize("kernel,padding", [((5, 5), 2), ((1, 1), 0)], ids=["5x5-pad2", "1x1"])
    def test_gradcheck(self, rng, kernel, padding):
        x = rng.standard_normal((2, 2, 6, 7))
        w = rng.standard_normal((3, 2) + kernel)
        b = rng.standard_normal(3)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        (conv2d(xt, wt, bt, padding=padding) ** 2).mean().backward()

        def scalar():
            return float((conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wt.grad, numerical_gradient(scalar, w))
        assert_gradients_close(bt.grad, numerical_gradient(scalar, b))


def test_conv2d_tape_keeps_about_the_input():
    """What a float32 forward leaves allocated for its backward (the padded
    input) plus its output stays below 3x the input's bytes; a patch matrix
    of a 3x3 kernel alone would be 9x."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16, 64, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = conv2d(x, w, padding=1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad and out.dtype == np.float32
    assert retained < 3 * x.data.nbytes, f"retained {retained / 1e6:.1f} MB"


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        xt = Tensor(x.copy(), requires_grad=True)
        max_pool2d(xt, 2).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
        np.testing.assert_allclose(xt.grad, expected)

    def test_avg_pool_values_and_gradient(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        out = avg_pool2d(xt, 2)
        np.testing.assert_allclose(
            out.data[0, 0, 0, 0], x[0, 0, :2, :2].mean(), rtol=1e-6
        )
        out.sum().backward()
        np.testing.assert_allclose(xt.grad, np.full_like(x, 0.25))

    def test_max_pool_gradcheck(self, rng):
        x = rng.standard_normal((1, 1, 6, 6)) * 3
        xt = Tensor(x.copy(), requires_grad=True)
        (max_pool2d(xt, 2) ** 2).mean().backward()

        def scalar():
            return float((max_pool2d(Tensor(x), 2) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x), tolerance=1e-4)


class TestBilinearResize:
    def test_identity_when_same_size(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        np.testing.assert_allclose(bilinear_resize(Tensor(x), (5, 5)).data, x, atol=1e-12)

    def test_constant_field_preserved(self):
        x = np.full((1, 1, 4, 4), 3.7)
        out = bilinear_resize(Tensor(x), (9, 7)).data
        np.testing.assert_allclose(out, 3.7, rtol=1e-6)

    def test_interp_matrix_rows_sum_to_one(self):
        matrix = _interp_matrix(10, 4, np.float64)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(10), rtol=1e-12)

    def test_gradcheck(self, rng):
        x = rng.standard_normal((1, 2, 4, 5))
        xt = Tensor(x.copy(), requires_grad=True)
        (bilinear_resize(xt, (7, 9)) ** 2).mean().backward()

        def scalar():
            return float((bilinear_resize(Tensor(x), (7, 9)) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))

    def test_downsample_then_upsample_smooths(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        down = bilinear_resize(Tensor(x), (4, 4))
        up = bilinear_resize(down, (8, 8))
        assert up.data.std() <= x.std() + 1e-9
