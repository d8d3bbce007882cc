"""Fused softmax attention with an analytic adjoint, blocked over query rows.

Built from Tensor primitives, ``softmax(scale * (q @ k)) @ v`` records five
``(B, N, N)`` tape arrays; over the ``N = H * W`` grid positions of the
SAU-FNO attention block those dominate the training step's time and memory.
:func:`softmax_attention` is one op instead, in the pattern of
:func:`repro.autodiff.spectral.spectral_conv2d`.  It runs over blocks of
``_BLOCK_ROWS`` query rows (the FlashAttention scheme; Dao et al., NeurIPS
2022): for the backward pass it keeps each row's maximum score and softmax
denominator, ``O(B * N)`` numbers, and recomputes each block's weights from
them, so no ``N x N`` array outlives a block.  It is validated against finite
differences and the composite op in ``tests/autodiff/test_attention.py``.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, is_grad_enabled

#: Query rows per block.  Each block holds two ``(rows, N)`` arrays; the op's
#: speed reads flat from 32 to 256 rows at N = 1600 and N = 4096.
_BLOCK_ROWS = 128


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

    Both passes walk blocks of query rows, and two products with augmented
    operands carry the softmax normalisation, so no full-width pass over a
    block sums, divides or subtracts ``D``:

    * Forward: each row of ``S`` is shifted by its maximum ``m`` (an exact
      zero at the maximum, so scores of any magnitude give finite weights
      and gradients), ``E = exp(S - m)``, and one product
      ``E [V | 1] = [E V | z]`` gives the unnormalised output and the row
      sums ``z`` together; ``O = (E V) / z`` divides ``(rows, C)``, not
      ``(rows, N)``.
    * Backward: ``dV = E^T (dO / z)`` and
      ``dS = E * ([dO / z | -D / z] [V | 1]^T)``, which is ``P * (dP - D)``
      with ``P = E / z`` never formed.

    For the backward the op keeps ``scale * Q``, ``O``, ``[V | 1]``, ``m`` and
    ``z`` (the last two ``(B, N, 1)``, and only when a gradient is tracked),
    all ``O(B * N)``.  The backward recomputes each block's ``E`` with the
    same product and shift, so it differentiates the forward's own weights.
    Beyond arrays of the operands' sizes, either pass holds at most two
    ``(rows, N)`` blocks.
    """
    query = Tensor.ensure(query)
    key = Tensor.ensure(key)
    value = Tensor.ensure(value)
    scale = query.data.dtype.type(scale)

    scaled_query = query.data * scale
    keys, values = key.data, value.data
    batch, positions, _ = scaled_query.shape
    channels = values.shape[-1]
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, positions, _BLOCK_ROWS)]
    score_dtype = np.result_type(scaled_query, keys)
    out_dtype = np.result_type(score_dtype, values)
    # [V | 1]: one product with the exponentials gives E V and the row sums z.
    augmented_values = np.empty((batch, positions, channels + 1), out_dtype)
    augmented_values[..., :channels] = values
    augmented_values[..., channels] = 1
    out = np.empty((batch, positions, channels), out_dtype)
    tracked = is_grad_enabled() and (query.requires_grad or key.requires_grad or value.requires_grad)
    if tracked:
        row_max = np.empty((batch, positions, 1), score_dtype)
        row_sum = np.empty((batch, positions, 1), out_dtype)

    for b in range(batch):
        for rows in blocks:
            weights = np.matmul(scaled_query[b, rows], keys[b])  # S, then E in place
            block_max = weights.max(axis=-1, keepdims=True)
            weights -= block_max
            np.exp(weights, out=weights)
            products = np.matmul(weights, augmented_values[b])  # [E V | z]
            block_sum = products[:, channels:]
            np.divide(products[:, :channels], block_sum, out=out[b, rows])
            if tracked:
                row_max[b, rows] = block_max
                row_sum[b, rows] = block_sum

    def backward(grad: np.ndarray) -> None:
        grad_query = np.empty_like(scaled_query) if query.requires_grad else None
        grad_key = np.zeros_like(keys) if key.requires_grad else None
        grad_value = np.zeros_like(values) if value.requires_grad else None
        # [dO / z | -D / z] with D = rowsum(dO * O): its product with [V | 1]^T
        # is (dP - D) / z, and its first C columns, dO / z, give dV.
        augmented_grad = np.empty((batch, positions, channels + 1), np.result_type(grad, out))
        np.divide(grad, row_sum, out=augmented_grad[..., :channels])
        np.sum(augmented_grad[..., :channels] * out, axis=-1, out=augmented_grad[..., channels])
        np.negative(augmented_grad[..., channels], out=augmented_grad[..., channels])
        scaled_grad = augmented_grad[..., :channels]  # dO / z
        for b in range(batch):
            for rows in blocks:
                # The forward's own E: same product and shift.
                weights = np.matmul(scaled_query[b, rows], keys[b])
                weights -= row_max[b, rows]
                np.exp(weights, out=weights)
                if grad_value is not None:
                    grad_value[b] += np.matmul(weights.T, scaled_grad[b, rows])
                if grad_query is None and grad_key is None:
                    continue
                # dS = E * ((dO / z) V^T - D / z) = P * (dP - D), in place in E.
                weights *= np.matmul(augmented_grad[b, rows], augmented_values[b].T)
                if grad_query is not None:
                    np.matmul(weights, keys[b].T, out=grad_query[b, rows])
                if grad_key is not None:
                    grad_key[b] += np.matmul(scaled_query[b, rows].T, weights)
        if grad_query is not None:
            grad_query *= scale
            query._accumulate(grad_query)
        if grad_key is not None:
            key._accumulate(grad_key)
        if grad_value is not None:
            value._accumulate(grad_value)

    return Tensor._make(out, (query, key, value), backward)
