"""Convolution, pooling and resampling primitives with autodiff support.

The convolution runs as one matrix product per kernel tap on a flat copy of
the padded input (the implicit-GEMM scheme; Anderson et al., *Low-memory
GEMM-based convolution algorithms for deep neural networks*, 2017).  With the
input padded to ``Hp x Wp`` and each channel's rows laid end to end, tap
``(i, j)`` of a stride-1 cross-correlation reads the contiguous window that
starts at offset ``i * Wp + j`` and spans ``(Hp - kh + 1) * Wp`` entries, so

    out = sum over taps of  W[:, :, i, j] @ window(i, j)

is ``kh * kw`` BLAS products on views, with no patch matrix.  The output is
computed on ``Wp`` columns per row; the last ``kw - 1`` of them wrap into the
next row and are cropped.  The backward pass pads the output gradient into
the same layout (its wrap columns zero) and takes, per tap, the weight
gradient as a product of that gradient with the window and the input
gradient as ``W[:, :, i, j]^T @ grad`` added into the window.  The backward
keeps only the flat padded input, about the input's own size, where an
unfolded patch matrix would be ``kh * kw`` times it.  A stride other than 1
subsamples the stride-1 result.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autodiff.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2D cross-correlation of ``x`` (B, Cin, H, W) with ``weight`` (Cout, Cin, kh, kw)."""
    x = Tensor.ensure(x)
    weight = Tensor.ensure(weight)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]} channels, weight expects {in_channels}"
        )

    batch, _, height, width = x.shape
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    full_h, full_w = padded_h - kh + 1, padded_w - kw + 1  # the stride-1 output
    length = full_h * padded_w  # one tap's window: full_h rows of padded_w columns
    # The padded input, one flat row per channel; the kw - 1 trailing zeros
    # keep the last tap's window in range.
    flat = np.zeros((batch, in_channels, padded_h * padded_w + kw - 1), x.data.dtype)
    flat[:, :, :padded_h * padded_w].reshape(batch, in_channels, padded_h, padded_w)[
        :, :, ph:ph + height, pw:pw + width
    ] = x.data
    windows = [
        slice(i * padded_w + j, i * padded_w + j + length) for i in range(kh) for j in range(kw)
    ]
    # (Cout, Cin, kh, kw) -> one contiguous (Cout, Cin) matrix per tap.
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(
        kh * kw, out_channels, in_channels
    )

    wide = np.matmul(taps[0], flat[:, :, windows[0]])  # (B, Cout, length)
    for tap in range(1, kh * kw):
        wide += np.matmul(taps[tap], flat[:, :, windows[tap]])
    out = wide.reshape(batch, out_channels, full_h, padded_w)[:, :, ::sh, :full_w:sw]
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)
    else:
        out = np.ascontiguousarray(out)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(bias.shape))
        if not (weight.requires_grad or x.requires_grad):
            return
        # The output gradient in the forward's wide layout: zero on the wrap
        # columns and, for a stride above 1, on the skipped positions.
        grad_wide = np.zeros((batch, out_channels, full_h, padded_w), grad.dtype)
        grad_wide[:, :, ::sh, :full_w:sw] = grad
        grad_wide = grad_wide.reshape(batch, out_channels, length)
        if weight.requires_grad:
            grad_taps = np.empty(taps.shape, np.result_type(grad_wide, flat))
            for tap, window in enumerate(windows):
                # (B, Cout, length) @ (B, length, Cin), summed over the batch.
                np.sum(np.matmul(grad_wide, flat[:, :, window].swapaxes(1, 2)), axis=0,
                       out=grad_taps[tap])
            weight._accumulate(
                grad_taps.reshape(kh, kw, out_channels, in_channels).transpose(2, 3, 0, 1)
            )
        if x.requires_grad:
            grad_flat = np.zeros(flat.shape, np.result_type(taps, grad_wide))
            for tap, window in enumerate(windows):
                grad_flat[:, :, window] += np.matmul(taps[tap].T, grad_wide)
            x._accumulate(
                grad_flat[:, :, :padded_h * padded_w].reshape(
                    batch, in_channels, padded_h, padded_w
                )[:, :, ph:ph + height, pw:pw + width]
            )

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows of a (B, C, H, W) tensor."""
    x = Tensor.ensure(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    flat = windows.reshape(batch, channels, out_h, out_w, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        ki, kj = np.unravel_index(arg, (kh, kw))
        b_idx, c_idx, i_idx, j_idx = np.indices((batch, channels, out_h, out_w))
        rows = i_idx * sh + ki
        cols = j_idx * sw + kj
        np.add.at(grad_x, (b_idx, c_idx, rows, cols), grad)
        x._accumulate(grad_x)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over windows of a (B, C, H, W) tensor."""
    x = Tensor.ensure(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    out = windows.mean(axis=(-2, -1))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        share = grad / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += share
        x._accumulate(grad_x)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def _interp_matrix(out_size: int, in_size: int, dtype) -> np.ndarray:
    """Bilinear interpolation matrix mapping a length-``in_size`` signal to ``out_size``.

    Uses the ``align_corners=False`` convention (pixel centres), matching the
    behaviour of common deep-learning frameworks.
    """
    matrix = np.zeros((out_size, in_size), dtype=dtype)
    if in_size == 1:
        matrix[:, 0] = 1.0
        return matrix
    scale = in_size / out_size
    for i in range(out_size):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), in_size - 1.0)
        low = int(np.floor(src))
        high = min(low + 1, in_size - 1)
        frac = src - low
        matrix[i, low] += 1.0 - frac
        matrix[i, high] += frac
    return matrix


def bilinear_resize(x: Tensor, size: Tuple[int, int]) -> Tensor:
    """Bilinearly resize a (B, C, H, W) tensor to spatial ``size`` (H_out, W_out)."""
    x = Tensor.ensure(x)
    out_h, out_w = size
    _, _, in_h, in_w = x.shape
    mat_h = _interp_matrix(out_h, in_h, x.data.dtype)
    mat_w = _interp_matrix(out_w, in_w, x.data.dtype)
    out = np.einsum("hi,bciw,ow->bcho", mat_h, x.data, mat_w, optimize=True)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.einsum("hi,bcho,ow->bciw", mat_h, grad, mat_w, optimize=True)
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)
