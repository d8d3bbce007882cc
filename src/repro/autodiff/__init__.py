"""Reverse-mode automatic differentiation on NumPy arrays.

This subpackage is the substrate that replaces PyTorch in the SAU-FNO
reproduction.  It provides:

* :class:`~repro.autodiff.tensor.Tensor` — an array wrapper that records a
  tape of operations and can back-propagate gradients through them.
* Convolution, pooling and resampling primitives (:mod:`repro.autodiff.conv`).
* Spectral (FFT-based) primitives with analytically derived adjoints
  (:mod:`repro.autodiff.spectral`), used by the Fourier Neural Operator.
* Fused softmax attention with an analytic adjoint
  (:mod:`repro.autodiff.attention`), used by the SAU-FNO attention block.
* Composite neural-network functions such as GELU, softmax and loss
  functions (:mod:`repro.autodiff.functional`).

All gradients are exercised against finite differences in the test-suite.
"""

from repro.autodiff.tensor import Tensor, no_grad, is_grad_enabled
from repro.autodiff import functional
from repro.autodiff.conv import (
    conv2d,
    max_pool2d,
    avg_pool2d,
    bilinear_resize,
)
from repro.autodiff.spectral import spectral_conv2d
from repro.autodiff.attention import softmax_attention

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "bilinear_resize",
    "spectral_conv2d",
    "softmax_attention",
]
