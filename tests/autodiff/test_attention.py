"""Gradient and behaviour tests for the fused softmax-attention op."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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


@pytest.fixture
def workers(monkeypatch):
    """``set(w)`` forces the op's worker count ``W`` (tier-1 runs with an
    unpinned, multi-threaded BLAS, where ``W`` reads 1)."""

    def set_workers(count):
        monkeypatch.setattr(attention, "_worker_count", lambda: count)

    return set_workers


def test_forward_and_backward_hold_no_score_matrix(rng, workers):
    """Forward + backward at B2 x N2048 float32 stays under a quarter of one
    ``(B, N, N)`` float32 array (8.4 MB); the unblocked op held two (69 MB).
    Each worker holds at most two ``(rows, N)`` blocks, so with ``W = 2`` the
    peak also stays below the op's operand-sized arrays plus four blocks."""
    batch, positions, channels, worker_count = 2, 2048, 16, 2
    workers(worker_count)
    tensors = [
        Tensor(a, requires_grad=True)
        for a in _operands(rng, batch=batch, positions=positions, dim=16, channels=channels,
                           dtype=np.float32)
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
    # Twelve (B, N, C + 1) float32 arrays cover what the forward keeps, the
    # upstream gradients, [dO / z | -D / z] and the three gradients.
    operands = 12 * batch * positions * (channels + 1) * 4
    block = attention._BLOCK_ROWS * positions * 4
    bar = operands + worker_count * 2 * block
    assert peak < bar, f"traced peak {peak / 1e6:.1f} MB >= {bar / 1e6:.1f} MB"


def _pooled_and_serial(workers, arrays, upstream, worker_count=2):
    workers(worker_count)
    pooled = _output_and_gradients(softmax_attention, arrays, 0.3, upstream)
    workers(1)
    serial = _output_and_gradients(softmax_attention, arrays, 0.3, upstream)
    return pooled, serial


def _assert_bitwise_equal(result, reference):
    (out, grads), (expected_out, expected_grads) = result, reference
    assert np.array_equal(out, expected_out)
    for name, grad, expected in zip("qkv", grads, expected_grads):
        assert grad.dtype == expected.dtype and np.array_equal(grad, expected), name


class TestWorkerPool:
    """The op shares its query blocks (forward) and batch items (backward)
    among ``W`` workers; every result must be bitwise the serial op's."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 4])
    @pytest.mark.parametrize("positions", [200, 1600])
    def test_pooled_equals_serial_bitwise(self, rng, workers, dtype, batch, positions):
        arrays = _operands(rng, batch=batch, positions=positions, dim=16, channels=16,
                           dtype=dtype)
        upstream = rng.standard_normal((batch, positions, 16)).astype(dtype)
        pooled, serial = _pooled_and_serial(workers, arrays, upstream)
        _assert_bitwise_equal(pooled, serial)

    def test_more_workers_than_pool_threads(self, rng, workers):
        """Shares beyond the pool's threads queue, then find nothing left."""
        arrays = _operands(rng, batch=4, positions=700, dim=8, channels=8, dtype=np.float32)
        upstream = rng.standard_normal((4, 700, 8)).astype(np.float32)
        pooled, serial = _pooled_and_serial(workers, arrays, upstream, worker_count=6)
        _assert_bitwise_equal(pooled, serial)

    def test_no_grad_forward_is_bitwise_equal(self, rng, workers):
        arrays = _operands(rng, batch=1, positions=1024, dim=16, channels=16, dtype=np.float32)
        workers(2)
        with no_grad():
            pooled = softmax_attention(*(Tensor(a) for a in arrays), 0.25).data
        workers(1)
        with no_grad():
            serial = softmax_attention(*(Tensor(a) for a in arrays), 0.25).data
        assert np.array_equal(pooled, serial)

    def test_concurrent_callers_match_serial_calls(self, rng, workers):
        """Four callers at once, switching often, share the one pool; a lost
        or doubled block in any gradient would break bitwise equality."""
        cases = []
        for batch in (1, 2, 3, 4):
            arrays = _operands(rng, batch=batch, positions=600, dim=8, channels=8,
                               dtype=np.float32)
            cases.append((arrays, rng.standard_normal((batch, 600, 8)).astype(np.float32)))
        workers(1)
        serial = [_output_and_gradients(softmax_attention, a, 0.3, u) for a, u in cases]
        workers(2)
        barrier = threading.Barrier(len(cases))
        results = [None] * len(cases)

        def call(index):
            arrays, upstream = cases[index]
            barrier.wait(timeout=60)
            results[index] = _output_and_gradients(softmax_attention, arrays, 0.3, upstream)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result, reference in zip(results, serial):
            _assert_bitwise_equal(result, reference)

    def test_a_pool_share_error_reaches_the_caller(self, workers):
        workers(2)
        pool_started = threading.Event()

        def task(item):
            if threading.current_thread() is threading.main_thread():
                assert pool_started.wait(timeout=30)
            else:
                pool_started.set()
                raise ValueError(f"item {item}")

        with pytest.raises(ValueError, match="item"):
            attention._run_items(task, range(6))

    def test_the_caller_waits_for_running_shares_before_it_raises(self, workers):
        workers(2)
        pool_started, pool_finished = threading.Event(), threading.Event()

        def task(item):
            if threading.current_thread() is threading.main_thread():
                assert pool_started.wait(timeout=30)
                raise ValueError("caller")
            pool_started.set()
            time.sleep(0.2)
            pool_finished.set()

        with pytest.raises(ValueError, match="caller"):
            attention._run_items(task, range(2))
        assert pool_finished.is_set()

    def test_multi_threaded_blas_gives_one_worker(self, monkeypatch):
        monkeypatch.setattr(attention, "_blas_threads", lambda: 2)
        assert attention._worker_count() == 1
        monkeypatch.setattr(attention, "_blas_threads", lambda: None)
        assert attention._worker_count() == 1
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(attention, "_blas_threads", lambda: 1)
            assert attention._worker_count() == len(os.sched_getaffinity(0))

    def test_reads_the_blas_thread_pin(self):
        if attention._blas_threads() is None:
            pytest.skip("this numpy's BLAS exposes no thread count")
        code = "from repro.autodiff import attention; print(attention._blas_threads())"
        assert _run_with_blas_pinned(code).split() == ["1"]

    def test_no_thread_before_the_first_pooled_call(self):
        """Importing the package and generating an fvm dataset start no
        thread, even where the BLAS pin gives the op a pool; the first call
        with two blocks to share starts one."""
        code = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import numpy as np\n"
            "import repro\n"
            "from repro.autodiff import attention\n"
            "from repro.autodiff.tensor import Tensor\n"
            "from repro.data.generation import DatasetSpec, generate_dataset\n"
            "generate_dataset(DatasetSpec('chip1', 12, 4, seed=0))\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert attention._pool is None\n"
            "rows = Tensor(np.ones((1, 2 * attention._BLOCK_ROWS, 4), np.float32))\n"
            "columns = Tensor(np.ones((1, 4, 2 * attention._BLOCK_ROWS), np.float32))\n"
            "attention.softmax_attention(rows, columns, rows, 0.5)\n"
            "pooled = attention._worker_count() > 1\n"
            "assert threading.active_count() == before + pooled, threading.enumerate()\n"
        )
        _run_with_blas_pinned(code)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_finishes_a_pooled_call(self, rng, workers):
        """After a pooled call, a forked child's pooled call finishes within
        a timeout on a pool of its own, bitwise equal to the parent's."""
        arrays = _operands(rng, batch=2, positions=600, dim=8, channels=8, dtype=np.float32)
        workers(2)
        with no_grad():
            expected = softmax_attention(*(Tensor(a) for a in arrays), 0.3).data
        assert attention._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_pooled_call_in_child, args=(arrays, expected)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child hung in a pooled call")
        assert child.exitcode == 0


def _run_with_blas_pinned(code):
    """Run ``code`` in a fresh interpreter whose BLAS runs one thread; return its output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _pooled_call_in_child(arrays, expected):
    with no_grad():
        out = softmax_attention(*(Tensor(a) for a in arrays), 0.3).data
    # The child starts with its main thread only; its own pool adds one. The
    # copied parent pool would start none and leave the caller all the work.
    os._exit(0 if np.array_equal(out, expected) and threading.active_count() == 2 else 1)
