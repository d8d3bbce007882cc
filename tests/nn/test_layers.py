"""Tests for linear, convolutional, normalisation and activation layers."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GELU,
    Identity,
    InstanceNorm2d,
    LayerNorm,
    LeakyReLU,
    Linear,
    MLP,
    PointwiseConv2d,
    ReLU,
    Sigmoid,
    Tanh,
)


class TestLinearAndMLP:
    def test_linear_shapes_and_values(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_linear_without_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_trains_toward_target(self, rng):
        layer = Linear(2, 1, rng=rng)
        x = rng.standard_normal((64, 2))
        target = x @ np.array([[2.0], [-1.0]]) + 0.5
        for _ in range(200):
            out = layer(Tensor(x))
            loss = ((out - Tensor(target)) ** 2).mean()
            layer.zero_grad()
            loss.backward()
            for param in layer.parameters():
                param.data = param.data - 0.1 * param.grad
        assert loss.item() < 1e-3

    def test_mlp_depth_and_activation(self, rng):
        mlp = MLP([3, 16, 16, 2], rng=rng)
        out = mlp(Tensor(rng.standard_normal((7, 3))))
        assert out.shape == (7, 2)
        assert len(mlp.layers) == 3

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])


class TestConvLayers:
    def test_conv2d_layer_shape(self, rng):
        layer = Conv2d(3, 6, kernel_size=3, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 6, 8, 8)

    def test_pointwise_equivalent_to_1x1_conv(self, rng):
        """Output and all three gradients match a 1x1 ``Conv2d``, in both
        precisions, and the weight gradient keeps the stored (Cout, Cin)
        shape."""
        x64 = rng.standard_normal((2, 3, 5, 5))
        upstream64 = rng.standard_normal((2, 4, 5, 5))
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            pointwise = PointwiseConv2d(3, 4, rng=np.random.default_rng(0)).astype(dtype)
            conv = Conv2d(3, 4, kernel_size=1, rng=np.random.default_rng(1)).astype(dtype)
            conv.weight.data = pointwise.weight.data.reshape(4, 3, 1, 1).copy()
            conv.bias.data = pointwise.bias.data.copy()
            results = []
            for layer in (pointwise, conv):
                x = Tensor(x64.astype(dtype), requires_grad=True)
                out = layer(x)
                out.backward(upstream64.astype(dtype))
                results.append((out.data, x.grad, layer.weight.grad, layer.bias.grad))
            (out_p, gx_p, gw_p, gb_p), (out_c, gx_c, gw_c, gb_c) = results
            assert out_p.dtype == gx_p.dtype == gw_p.dtype == gb_p.dtype == dtype
            assert gw_p.shape == (4, 3)
            np.testing.assert_allclose(out_p, out_c, rtol=rtol, atol=rtol)
            np.testing.assert_allclose(gx_p, gx_c, rtol=rtol, atol=rtol)
            np.testing.assert_allclose(gw_p, gw_c.reshape(4, 3), rtol=rtol, atol=rtol)
            np.testing.assert_allclose(gb_p, gb_c, rtol=rtol, atol=rtol)

    def test_pointwise_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            PointwiseConv2d(3, 4)(Tensor(rng.standard_normal((1, 2, 4, 4))))

    def test_pointwise_is_local(self, rng):
        """A 1x1 convolution must not mix neighbouring grid cells."""
        layer = PointwiseConv2d(2, 2, rng=rng)
        x = np.zeros((1, 2, 6, 6))
        x[0, :, 2, 3] = 1.0
        out = layer(Tensor(x)).data - layer(Tensor(np.zeros_like(x))).data
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, 3] = True
        assert np.abs(out[0, :, ~mask]).max() < 1e-12


class TestNormalisation:
    def test_batchnorm_normalises_in_training(self, rng):
        layer = BatchNorm2d(3)
        x = rng.standard_normal((8, 3, 6, 6)) * 4 + 2
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(3), atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = rng.standard_normal((16, 2, 4, 4)) + 3.0
        for _ in range(10):
            layer(Tensor(x))
        layer.eval()
        out = layer(Tensor(x)).data
        assert abs(out.mean()) < 0.5

    def test_batchnorm_shape_check(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(rng.standard_normal((2, 4, 5, 5))))

    def test_instance_norm(self, rng):
        layer = InstanceNorm2d(3)
        out = layer(Tensor(rng.standard_normal((2, 3, 8, 8)) * 7 + 1)).data
        np.testing.assert_allclose(out.mean(axis=(2, 3)), np.zeros((2, 3)), atol=1e-5)

    def test_layer_norm_layer(self, rng):
        layer = LayerNorm((6,))
        out = layer(Tensor(rng.standard_normal((4, 6)) * 3)).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer_cls", [ReLU, GELU, Tanh, Sigmoid, LeakyReLU, Identity]
    )
    def test_activation_preserves_shape(self, rng, layer_cls):
        layer = layer_cls()
        x = rng.standard_normal((3, 4, 5))
        assert layer(Tensor(x)).shape == x.shape

    def test_identity_is_exact(self, rng):
        x = rng.standard_normal((5,))
        np.testing.assert_allclose(Identity()(Tensor(x)).data, x)
