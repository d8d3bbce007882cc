"""Gradient and semantics tests for the elementwise / reduction Tensor ops."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad, is_grad_enabled, unbroadcast
from tests.conftest import assert_gradients_close, numerical_gradient


def _check_unary(op_name, data, tolerance=1e-6, **kwargs):
    base = data.astype(np.float64)
    tensor = Tensor(base.copy(), requires_grad=True)
    out = getattr(tensor, op_name)(**kwargs)
    (out ** 2).mean().backward()

    def scalar():
        fresh = Tensor(base)
        return float((getattr(fresh, op_name)(**kwargs) ** 2).mean().data)

    numeric = numerical_gradient(scalar, base)
    assert_gradients_close(tensor.grad, numeric, tolerance)


class TestElementwiseGradients:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)).astype(np.float64), requires_grad=True)
        ((a + b) ** 2).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, (2 * (a.data + b.data)).sum(axis=0), rtol=1e-10)

    def test_mul_gradients(self, rng):
        base_a = rng.standard_normal((2, 5)).astype(np.float64)
        base_b = rng.standard_normal((2, 5)).astype(np.float64)
        a = Tensor(base_a.copy(), requires_grad=True)
        b = Tensor(base_b.copy(), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, base_b)
        np.testing.assert_allclose(b.grad, base_a)

    def test_div_gradient(self, rng):
        base = rng.uniform(0.5, 2.0, (3, 3))
        tensor = Tensor(base.copy(), requires_grad=True)
        (1.0 / tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, -1.0 / base ** 2, rtol=1e-10)

    def test_pow_gradient(self, rng):
        base = rng.uniform(0.5, 2.0, (4,))
        tensor = Tensor(base.copy(), requires_grad=True)
        (tensor ** 3).sum().backward()
        np.testing.assert_allclose(tensor.grad, 3 * base ** 2, rtol=1e-10)

    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid", "erf", "abs", "relu"])
    def test_unary_ops_match_numerical_gradient(self, rng, op):
        data = rng.uniform(0.3, 1.5, (3, 4))
        _check_unary(op, data)

    def test_maximum_gradient_routing(self, rng):
        base_a = np.array([1.0, 5.0, -2.0])
        base_b = np.array([2.0, 3.0, -1.0])
        a = Tensor(base_a.copy(), requires_grad=True)
        b = Tensor(base_b.copy(), requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0, 1.0])

    def test_clip_gradient(self):
        base = np.array([-2.0, 0.5, 2.0])
        tensor = Tensor(base.copy(), requires_grad=True)
        tensor.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        base = rng.standard_normal((2, 3, 4))
        tensor = Tensor(base.copy(), requires_grad=True)
        out = tensor.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(base))

    def test_mean_gradient(self, rng):
        base = rng.standard_normal((3, 5))
        tensor = Tensor(base.copy(), requires_grad=True)
        tensor.mean().backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(base, 1.0 / base.size))

    def test_var_matches_numpy(self, rng):
        base = rng.standard_normal((4, 6))
        tensor = Tensor(base)
        np.testing.assert_allclose(tensor.var(axis=1).data, base.var(axis=1), rtol=1e-6)

    def test_max_reduction_value_and_gradient(self):
        base = np.array([[1.0, 3.0], [2.0, 0.5]])
        tensor = Tensor(base.copy(), requires_grad=True)
        out = tensor.max(axis=1)
        np.testing.assert_allclose(out.data, [3.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_min_is_negated_max(self, rng):
        base = rng.standard_normal((5, 5))
        np.testing.assert_allclose(Tensor(base).min(axis=0).data, base.min(axis=0), rtol=1e-6)

    def test_matmul_gradcheck(self, rng):
        base_a = rng.standard_normal((3, 4))
        base_b = rng.standard_normal((4, 2))
        a = Tensor(base_a.copy(), requires_grad=True)
        b = Tensor(base_b.copy(), requires_grad=True)
        ((a @ b) ** 2).mean().backward()

        def scalar():
            return float(((Tensor(base_a) @ Tensor(base_b)) ** 2).mean().data)

        assert_gradients_close(a.grad, numerical_gradient(scalar, base_a))
        assert_gradients_close(b.grad, numerical_gradient(scalar, base_b))

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


_SCALAR_EXPRESSIONS = {
    "t + 1.0": lambda t: t + 1.0,
    "t * np.float64(2)": lambda t: t * np.float64(2),
    "t / np.sqrt(16)": lambda t: t / np.sqrt(16),
    "1.0 - t": lambda t: 1.0 - t,
    "2.0 / t": lambda t: 2.0 / t,
    "t.maximum(0.0)": lambda t: t.maximum(0.0),
    "t - np.array(3.0)": lambda t: t - np.array(3.0),
}


@pytest.fixture
def accumulated_dtypes(monkeypatch):
    """Dtypes of the raw gradients backward closures hand to ``_accumulate``."""
    seen = []
    accumulate = Tensor._accumulate

    def spy(self, grad):
        seen.append(np.asarray(grad).dtype)
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    return seen


class TestScalarRule:
    """A scalar operand takes the tensor's dtype, in value and in gradient."""

    @pytest.mark.parametrize("expression", sorted(_SCALAR_EXPRESSIONS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_operand_keeps_dtype(self, expression, dtype, accumulated_dtypes):
        tensor = Tensor(np.array([0.5, -1.0, 2.0], dtype=dtype), requires_grad=True)
        out = _SCALAR_EXPRESSIONS[expression](tensor)
        assert out.dtype == dtype
        out.sum().backward()
        assert accumulated_dtypes and set(accumulated_dtypes) == {np.dtype(dtype)}

    def test_float64_arithmetic_is_unchanged(self, rng):
        data = rng.uniform(0.5, 2.0, (4,))
        out = (2.0 / Tensor(data)) * np.float32(3) - np.array(0.25, dtype=np.float32)
        np.testing.assert_array_equal(out.data, (2.0 / data) * 3.0 - 0.25)

    def test_array_operand_still_promotes(self):
        tensor = Tensor(np.ones(3, dtype=np.float32))
        assert (tensor * np.ones(3, dtype=np.float64)).dtype == np.float64

    def test_erf_gradient_is_computed_in_float32(self, accumulated_dtypes):
        tensor = Tensor(np.array([0.1, -0.4], dtype=np.float32), requires_grad=True)
        tensor.erf().sum().backward()
        assert accumulated_dtypes and set(accumulated_dtypes) == {np.dtype(np.float32)}


class TestGraphMechanics:
    def test_backward_requires_scalar_without_gradient(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (tensor * 2).backward()

    def test_gradient_accumulates_across_uses(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        out = tensor * 3 + tensor * 4
        out.backward()
        np.testing.assert_allclose(tensor.grad, [7.0])

    def test_no_grad_disables_tape(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = tensor * 2
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_detach_stops_gradient(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        out = (tensor.detach() * 5).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        (tensor * 2).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None

    def test_backward_keeps_only_leaf_gradients(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        hidden = (x @ w).tanh()
        loss = (hidden * hidden + hidden).mean()
        loss.backward()

        interior, stack = {}, [loss]
        while stack:  # the tape survives backward: its parents are still linked
            node = stack.pop()
            if id(node) not in interior and node._backward is not None:
                interior[id(node)] = node
                stack.extend(node._parents)
        assert len(interior) >= 5
        assert all(node.grad is None for node in interior.values())
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)

    def test_second_backward_through_a_shared_node_does_not_double_count(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        a = x * 2
        a.sum().backward()
        (a * 3).sum().backward()
        np.testing.assert_array_equal(x.grad, [8.0])  # 2 + 2 * 3, not 2 + 2 * (1 + 3)

    def test_unbroadcast_sums_leading_and_singleton_axes(self):
        grad = np.ones((5, 3, 4))
        reduced = unbroadcast(grad, (3, 1))
        assert reduced.shape == (3, 1)
        np.testing.assert_allclose(reduced, np.full((3, 1), 20.0))

    def test_repr_mentions_shape(self):
        assert "shape=(2, 2)" in repr(Tensor(np.zeros((2, 2))))
