"""Convolutional layers used by the U-Net bypass and the attention block."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autodiff.conv import conv2d
from repro.autodiff.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

IntPair = Union[int, Tuple[int, int]]


class Conv2d(Module):
    """2D convolution over (B, C, H, W) tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair = 3,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kh, kw), rng=rng))
        if bias:
            bound = 1.0 / np.sqrt(in_channels * kh * kw)
            self.bias = Parameter(init.uniform((out_channels,), -bound, bound, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class PointwiseConv2d(Module):
    """1x1 convolution implemented as a channel-mixing matrix product.

    This is the ``W`` linear bypass of every Fourier layer as well as the
    Q/K/V embeddings of the attention block.  It never looks at neighbouring
    grid points, so it preserves mesh-invariance exactly.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels), rng=rng))
        if bias:
            bound = 1.0 / np.sqrt(in_channels)
            self.bias = Parameter(init.uniform((out_channels,), -bound, bound, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.ensure(x)
        batch, channels, height, width = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"PointwiseConv2d expected {self.in_channels} channels, got {channels}"
            )
        flat = x.reshape(batch, channels, height * width)
        # (B, Cin, N) -> (B, N, Cin) @ (Cin, Cout) -> (B, N, Cout) -> (B, Cout, N)
        mixed = flat.transpose(0, 2, 1) @ self.weight.transpose()
        if self.bias is not None:
            mixed = mixed + self.bias
        return mixed.transpose(0, 2, 1).reshape(batch, self.out_channels, height, width)

    def __repr__(self) -> str:
        return f"PointwiseConv2d(in={self.in_channels}, out={self.out_channels})"
