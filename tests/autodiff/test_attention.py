"""Gradient and behaviour tests for the fused softmax-attention op."""

import tracemalloc

import numpy as np
import pytest

from repro.autodiff import attention
from repro.autodiff import functional as F
from repro.autodiff.attention import softmax_attention
from repro.autodiff.tensor import Tensor, no_grad
from tests.conftest import assert_gradients_close, numerical_gradient


def _operands(rng, batch=2, positions=6, dim=3, channels=4, dtype=np.float64):
    return (
        rng.standard_normal((batch, positions, dim)).astype(dtype),
        rng.standard_normal((batch, dim, positions)).astype(dtype),
        rng.standard_normal((batch, positions, channels)).astype(dtype),
    )


def _reference(q, k, v, scale):
    return (F.softmax(scale * (Tensor(q) @ Tensor(k)), axis=-1) @ Tensor(v)).data


class TestSoftmaxAttention:
    @pytest.mark.parametrize("operand", [0, 1, 2], ids=["query", "key", "value"])
    def test_gradcheck(self, rng, operand):
        arrays = list(_operands(rng))
        # A fixed random upstream gradient exercises every output entry.
        weights = rng.standard_normal((2, 6, 4))
        scale = 0.7

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        (softmax_attention(*tensors, scale) * Tensor(weights)).sum().backward()

        def scalar():
            out = softmax_attention(*(Tensor(a) for a in arrays), scale)
            return float((out.data * weights).sum())

        numeric = numerical_gradient(scalar, arrays[operand])
        assert_gradients_close(tensors[operand].grad, numeric, 1e-6)

    def test_forward_matches_composite_float64(self, rng):
        q, k, v = _operands(rng, positions=9, dim=4, channels=5)
        out = softmax_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, _reference(q, k, v, 0.5), rtol=0, atol=1e-12)

    def test_forward_matches_composite_float32(self, rng):
        q, k, v = _operands(rng, positions=9, dim=4, channels=5, dtype=np.float32)
        out = softmax_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _reference(q, k, v, 0.5), rtol=1e-5, atol=1e-6)

    def test_gradients_keep_float32(self, rng):
        tensors = [Tensor(a, requires_grad=True) for a in _operands(rng, dtype=np.float32)]
        out = softmax_attention(*tensors, np.float64(0.5))  # the scale takes the query's dtype
        out.sum().backward()
        assert out.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in tensors)

    def test_large_scores_stay_finite(self, rng):
        q, k, v = _operands(rng)
        q = np.sign(q) * 100.0
        k = np.sign(k) * 100.0 / 3.0  # scores of magnitude 1e4
        tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        scores = np.abs(q @ k)
        assert scores.max() >= 1e4 - 1e-6
        out = softmax_attention(*tensors, 1.0)
        (out * out).sum().backward()
        assert np.isfinite(out.data).all()
        assert all(np.isfinite(t.grad).all() for t in tensors)
        # Each row is a convex combination of the values.
        assert (out.data <= v.max(axis=1, keepdims=True) + 1e-12).all()
        assert (out.data >= v.min(axis=1, keepdims=True) - 1e-12).all()

    def test_no_grad_forward_is_bitwise_equal(self, rng):
        arrays = _operands(rng, dtype=np.float32)
        tracked = softmax_attention(*(Tensor(a, requires_grad=True) for a in arrays), 0.25)
        with no_grad():
            untracked = softmax_attention(*(Tensor(a, requires_grad=True) for a in arrays), 0.25)
        assert tracked.requires_grad and not untracked.requires_grad
        np.testing.assert_array_equal(tracked.data, untracked.data)

    def test_only_requested_gradients(self, rng):
        q, k, v = (Tensor(a) for a in _operands(rng))
        v.requires_grad = True
        softmax_attention(q, k, v, 1.0).sum().backward()
        assert q.grad is None and k.grad is None
        # Rows of P sum to one, so d(sum O)/dV is the column sums of P.
        np.testing.assert_allclose(v.grad.sum(axis=(1, 2)), 6 * 4, rtol=1e-12)


def _composite(q, k, v, scale):
    return F.softmax(scale * (q @ k), axis=-1) @ v


def _output_and_gradients(attention_fn, arrays, scale, upstream):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = attention_fn(*tensors, scale)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [t.grad for t in tensors]


class TestQueryBlocks:
    """The op walks blocks of ``_BLOCK_ROWS`` query rows; these tests shrink
    the block so several blocks, the last one ragged, cover a small grid."""

    @pytest.fixture(params=[1, 4, -1], ids=["block1", "block4", "blockN-1"])
    def block_rows(self, request, monkeypatch):
        def set_for(positions):
            rows = positions - 1 if request.param == -1 else request.param
            monkeypatch.setattr(attention, "_BLOCK_ROWS", rows)
            return rows

        return set_for

    @pytest.mark.parametrize("positions", [9, 11, 13])
    def test_float64_matches_composite(self, rng, block_rows, positions):
        assert block_rows(positions) < positions
        arrays = _operands(rng, batch=3, positions=positions, dim=4, channels=5)
        upstream = rng.standard_normal((3, positions, 5))
        out, grads = _output_and_gradients(softmax_attention, arrays, 0.6, upstream)
        expected_out, expected_grads = _output_and_gradients(_composite, arrays, 0.6, upstream)
        np.testing.assert_allclose(out, expected_out, rtol=0, atol=1e-12)
        for name, grad, expected in zip("qkv", grads, expected_grads):
            np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("positions", [10, 12])
    def test_float32_matches_composite(self, rng, block_rows, positions):
        block_rows(positions)
        arrays = _operands(rng, positions=positions, dim=4, channels=5, dtype=np.float32)
        upstream = rng.standard_normal((2, positions, 5)).astype(np.float32)
        out, grads = _output_and_gradients(softmax_attention, arrays, 0.5, upstream)
        expected_out, expected_grads = _output_and_gradients(_composite, arrays, 0.5, upstream)
        assert out.dtype == np.float32 and all(g.dtype == np.float32 for g in grads)
        np.testing.assert_allclose(out, expected_out, rtol=1e-5, atol=1e-6)
        for name, grad, expected in zip("qkv", grads, expected_grads):
            assert np.abs(grad - expected).max() <= 1e-5 * np.abs(expected).max(), name

    def test_large_scores_stay_finite(self, rng, block_rows):
        block_rows(11)
        q, k, v = _operands(rng, positions=11)
        q = np.sign(q) * 100.0
        k = np.sign(k) * 100.0 / 3.0  # scores of magnitude 1e4
        tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = softmax_attention(*tensors, 1.0)
        (out * out).sum().backward()
        assert np.isfinite(out.data).all()
        assert all(np.isfinite(t.grad).all() for t in tensors)
        assert (out.data <= v.max(axis=1, keepdims=True) + 1e-12).all()
        assert (out.data >= v.min(axis=1, keepdims=True) - 1e-12).all()

    def test_no_grad_forward_is_bitwise_equal(self, rng, block_rows):
        block_rows(13)
        arrays = _operands(rng, positions=13, dtype=np.float32)
        tracked = softmax_attention(*(Tensor(a, requires_grad=True) for a in arrays), 0.25)
        with no_grad():
            untracked = softmax_attention(*(Tensor(a, requires_grad=True) for a in arrays), 0.25)
        np.testing.assert_array_equal(tracked.data, untracked.data)


def test_forward_and_backward_hold_no_score_matrix(rng):
    """Forward + backward at B2 x N2048 float32 stays under a quarter of one
    ``(B, N, N)`` float32 array (8.4 MB); the unblocked op held two (69 MB)."""
    batch, positions = 2, 2048
    tensors = [
        Tensor(a, requires_grad=True)
        for a in _operands(rng, batch=batch, positions=positions, dim=16, channels=16, dtype=np.float32)
    ]
    tracemalloc.start()
    try:
        out = softmax_attention(*tensors, 0.25)
        (out * out).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in tensors)
    assert peak < batch * positions ** 2 * 4 / 4, f"traced peak {peak / 1e6:.1f} MB"
