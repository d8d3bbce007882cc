"""The :class:`Tensor` class: a NumPy array with reverse-mode autodiff.

The implementation follows the classic tape-based design: every operation
returns a new ``Tensor`` holding references to its parents and a closure that
knows how to push the output gradient back to them.  Calling
:meth:`Tensor.backward` performs a topological sort of the recorded graph and
invokes the closures in reverse order.

Only float arrays are supported; gradients always share the dtype of the
forward data.  Broadcasting follows NumPy semantics and is undone in the
backward pass by summing over the broadcast axes.

Scalar rule: in the binary ops (``+ - * /``, their reflected forms and
:meth:`Tensor.maximum`) a real scalar operand -- a Python number, a NumPy
scalar or a 0-d array -- takes the tensor's dtype.  ``float32_tensor * 0.5``
and ``float32_tensor / np.sqrt(2)`` stay float32; float64 stays float64.
This is what NumPy does for a Python scalar; NumPy 2 (NEP 50) treats NumPy
scalars and 0-d arrays as strongly typed and would otherwise promote the
result, and every node after it, to float64.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as _special

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
# A Python float: an np.float64 constant would promote float32 gradients.
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def set_default_dtype(dtype) -> None:
    """Set the dtype used when tensors are created from Python data."""
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype).type


def get_default_dtype():
    """Return the dtype used for tensors created from Python data."""
    return _DEFAULT_DTYPE


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used for inference and for parameter updates inside optimizers.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value)
    if array.dtype.kind not in "fc":
        array = array.astype(dtype or _DEFAULT_DTYPE)
    return array


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing NumPy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array wrapper that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 200  # make NumPy defer to Tensor.__r*__ operators

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def ensure(value: ArrayLike) -> "Tensor":
        """Wrap ``value`` in a Tensor if it is not one already."""
        return value if isinstance(value, Tensor) else Tensor(value)

    def _operand(self, other: ArrayLike) -> "Tensor":
        """Wrap the other operand of a binary op, applying the scalar rule."""
        if isinstance(other, Tensor):
            return other
        if np.ndim(other) == 0:
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    @staticmethod
    def zeros(shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def ones(shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def randn(*shape, dtype=None, requires_grad: bool = False, rng=None) -> "Tensor":
        rng = rng or np.random.default_rng()
        data = rng.standard_normal(shape).astype(dtype or _DEFAULT_DTYPE)
        return Tensor(data, requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return self._unary(lambda x: x.astype(dtype), lambda g, x: g.astype(x.dtype))

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or not grad.flags.owndata else grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Only leaves (tensors without a backward closure: parameters and
        inputs) keep their ``.grad``, accumulated onto what they held before.
        An interior node's gradient is freed once its closure has pushed it
        to the node's parents, so it costs no memory for the rest of the pass
        and a later ``backward`` through the same node does not propagate it
        again.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._unary(np.negative, lambda g, x: -g)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def _unary(self, fn, grad_fn) -> "Tensor":
        out_data = fn(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad_fn(grad, self.data))

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        return self._unary(np.log, lambda g, x: g / x)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _special.expit(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def erf(self) -> "Tensor":
        return self._unary(
            _special.erf,
            lambda g, x: g * _TWO_OVER_SQRT_PI * np.exp(-(x ** 2)),
        )

    def abs(self) -> "Tensor":
        return self._unary(np.abs, lambda g, x: g * np.sign(x))

    def relu(self) -> "Tensor":
        return self._unary(
            lambda x: np.maximum(x, 0.0), lambda g, x: g * (x > 0.0).astype(x.dtype)
        )

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = np.maximum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            mask = (self.data >= other.data).astype(grad.dtype)
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * mask, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * (1.0 - mask), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def clip(self, low: Number, high: Number) -> "Tensor":
        return self._unary(
            lambda x: np.clip(x, low, high),
            lambda g, x: g * ((x >= low) & (x <= high)).astype(x.dtype),
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def std(self, axis=None, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split the gradient between ties so the op stays a subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    permute = transpose

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original = self.shape
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        original = self.shape
        out_data = np.expand_dims(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def broadcast_to(self, shape) -> "Tensor":
        original = self.shape
        out_data = np.broadcast_to(self.data, shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, original))

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward)

    def pad(self, pad_width, constant_value: Number = 0.0) -> "Tensor":
        """Constant-pad the tensor.  ``pad_width`` follows ``np.pad`` syntax."""
        out_data = np.pad(self.data, pad_width, constant_values=constant_value)
        slices = tuple(
            slice(before, before + size)
            for (before, _after), size in zip(_normalize_pad(pad_width, self.ndim), self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    @staticmethod
    def cat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        return Tensor.cat([t.unsqueeze(axis) for t in tensors], axis=axis)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if self.data.ndim == 2 else grad[..., None] * other.data
                    if self.data.ndim == 1:
                        grad_self = grad * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(np.asarray(grad_self), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if other.data.ndim == 2 else self.data * grad
                    if other.data.ndim == 1:
                        grad_other = self.data * grad
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(np.asarray(grad_other), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def dot(self, other: ArrayLike) -> "Tensor":
        return self @ other


def _normalize_pad(pad_width, ndim: int):
    """Expand ``np.pad``-style pad_width into a per-axis list of pairs."""
    if isinstance(pad_width, int):
        return [(pad_width, pad_width)] * ndim
    pad_width = list(pad_width)
    if len(pad_width) == 2 and all(isinstance(p, int) for p in pad_width):
        return [tuple(pad_width)] * ndim
    normalized = []
    for item in pad_width:
        if isinstance(item, int):
            normalized.append((item, item))
        else:
            normalized.append(tuple(item))
    return normalized


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
