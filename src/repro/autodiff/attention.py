"""Fused softmax attention with an analytic adjoint.

Built from Tensor primitives, ``softmax(scale * (q @ k)) @ v`` records five
``(B, N, N)`` tape arrays; over the ``N = H * W`` grid positions of the
SAU-FNO attention block those dominate the training step's time and memory.
:func:`softmax_attention` is one op instead, in the pattern of
:func:`repro.autodiff.spectral.spectral_conv2d`: it keeps only the weight
matrix ``P`` for the backward pass and is validated against finite
differences in ``tests/autodiff/test_attention.py``.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor


def softmax_attention(query: Tensor, key: Tensor, value: Tensor, scale: float) -> Tensor:
    """Compute ``softmax(scale * (query @ key), axis=-1) @ value`` as one op.

    Parameters
    ----------
    query:
        ``(B, N, d)`` queries, one row per position.
    key:
        ``(B, d, N)`` keys, one column per position.
    value:
        ``(B, N, C)`` values, one row per position.
    scale:
        Score scale, ``1 / sqrt(d)`` for scaled dot-product attention.  It
        takes the query's dtype.

    Notes
    -----
    With ``S = scale * Q K``, ``P = softmax(S)`` row-wise and ``O = P V``, the
    adjoints are

    * ``dV = P^T dO``
    * ``dS = P * (dO V^T - D)`` with ``D_i = sum_j P_ij (dO V^T)_ij
      = dO_i . O_i``, computed from ``O`` rather than from the ``N x N`` product
    * ``dQ = scale * dS K^T`` and ``dK = (scale * Q)^T dS``.

    The softmax is shifted by its row maximum, so scores of any magnitude
    give finite weights and gradients.
    """
    query = Tensor.ensure(query)
    key = Tensor.ensure(key)
    value = Tensor.ensure(value)
    scale = query.data.dtype.type(scale)

    scaled_query = query.data * scale
    weights = np.matmul(scaled_query, key.data)  # S, then P in place: (B, N, N)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = np.matmul(weights, value.data)

    def backward(grad: np.ndarray) -> None:
        if value.requires_grad:
            value._accumulate(np.matmul(weights.swapaxes(-1, -2), grad))
        if not (query.requires_grad or key.requires_grad):
            return
        grad_scores = np.matmul(grad, value.data.swapaxes(-1, -2))  # dP, then dS in place
        grad_scores -= np.sum(grad * out, axis=-1, keepdims=True)
        grad_scores *= weights
        if query.requires_grad:
            query._accumulate(np.matmul(grad_scores, key.data.swapaxes(-1, -2)) * scale)
        if key.requires_grad:
            key._accumulate(np.matmul(scaled_query.swapaxes(-1, -2), grad_scores))

    return Tensor._make(out, (query, key, value), backward)
