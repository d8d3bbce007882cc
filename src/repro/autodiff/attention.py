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

The blocks run on every core the process may use, split as in
FlashAttention-2 (Dao, ICLR 2024).  The forward's (batch item, query block)
pairs are independent: each writes only its own rows.  So are the
backward's batch items: each writes only its own ``dQ``, ``dK`` and ``dV``
slices, and adds its blocks into them in block order.  The calling thread
and up to ``W - 1`` pool threads claim these items one at a time, and each
item runs the serial op's code on the same operands, so the outputs and
gradients are bitwise equal to one thread's for any ``W``.

``W`` is the number of CPUs in the process's affinity mask when the BLAS
numpy links runs one thread per call (``OPENBLAS_NUM_THREADS=1``, as
perfbench pins it), and 1 otherwise or when that count cannot be read:
pool threads stacked on OpenBLAS's own threads ran slower than the serial
op.  With ``W = 1`` the same code runs inline and no thread starts.  The
pool is made by the first call that has two items to share, and a forked
child makes its own.  Each worker holds at most two ``(rows, N)`` blocks at
a time.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor, is_grad_enabled

#: Query rows per block.  Each block holds two ``(rows, N)`` arrays; the op's
#: speed reads flat from 32 to 256 rows at N = 1600 and N = 4096.
_BLOCK_ROWS = 128

#: Thread-count getters of the OpenBLAS builds numpy links (the wheels bundle
#: scipy-openblas; a system numpy may link a plain OpenBLAS).
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.lru_cache(maxsize=None)
def _blas_thread_getter() -> Optional[Callable[[], int]]:
    """The thread-count getter of the BLAS numpy loaded, or ``None``."""
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        # A symbol lookup on the extension's handle also searches the
        # libraries it links, so this finds numpy's BLAS wherever it lives.
        library = ctypes.CDLL(extension.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_GETTERS:
        getter = getattr(library, name, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = ()
            return getter
    return None


def _blas_threads() -> Optional[int]:
    """Threads numpy's BLAS runs per call, or ``None`` where that cannot be read."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def _worker_count() -> int:
    """``W``: the CPUs this process may use if BLAS runs one thread per call, else 1."""
    if _blas_threads() != 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process's one pool, made with ``workers - 1`` threads on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="attention")
        return _pool


def _forget_pool() -> None:
    """In a forked child: drop the copied pool, whose threads did not survive
    the fork and whose locks may be held, so the child makes its own."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_items(task: Callable, items: Sequence) -> None:
    """Run ``task(item)`` for every item, on this thread and the pool.

    The calling thread and up to ``W - 1`` pool shares claim items one at a
    time, so a share still queued behind another caller's work when the
    items run out is cancelled.  The caller waits for every share that runs
    before it raises the first exception.  Tasks only compute on NumPy
    arrays: whatever depends on the caller's context (the grad flag) is
    decided before.
    """
    workers = _worker_count()
    shares = min(workers, len(items))
    if shares < 2:
        for item in items:
            task(item)
        return
    pending = deque(items)

    def share() -> None:
        while True:
            try:
                item = pending.popleft()
            except IndexError:
                return
            task(item)

    pool = _shared_pool(workers)
    futures = [pool.submit(share) for _ in range(shares - 1)]
    try:
        share()
    finally:
        errors = [future.exception() for future in futures if not future.cancel()]
    for error in errors:
        if error is not None:
            raise error


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

    The forward shares its (batch item, block) pairs and the backward its
    batch items among ``W`` workers (see the module docstring).  An item
    writes only its own rows, and a batch item adds its blocks into
    ``dK[b]`` and ``dV[b]`` in block order, so every result is bitwise equal
    to the serial op's.  Beyond arrays of the operands' sizes, either pass
    holds at most two ``(rows, N)`` blocks per worker.
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

    def forward_block(item) -> None:
        b, rows = item
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

    _run_items(forward_block, [(b, rows) for b in range(batch) for rows in blocks])

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

        def backward_item(b: int) -> None:
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

        _run_items(backward_item, range(batch))
        if grad_query is not None:
            grad_query *= scale
            query._accumulate(grad_query)
        if grad_key is not None:
            key._accumulate(grad_key)
        if grad_value is not None:
            value._accumulate(grad_value)

    return Tensor._make(out, (query, key, value), backward)
