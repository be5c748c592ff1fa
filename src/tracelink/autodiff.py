"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers the operation that produced
it.  Calling ``backward()`` on a scalar result walks the recorded tape in
reverse topological order and accumulates exact gradients into every
reachable tensor built with ``requires_grad=True``.

The op set is deliberately small: elementwise arithmetic with broadcasting,
matrix products, row gather/scatter (the message-passing primitives), concat,
reshape, reductions, and the handful of nonlinearities an attention network
with a logistic loss needs.  Everything stays vectorized; no per-element
Python loops appear on either the forward or backward pass.  A composite op
whose backward is written by hand joins the tape through `fused`.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Array-valued node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(grad, self.data.shape)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf."""
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar tensors")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # Operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the requires_grad subgraph (leaves first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


def fused(
    out: Array, parents: Sequence[Tensor], backward: Callable[[Array], Sequence[Array]]
) -> Tensor:
    """Tape node for a composite op whose backward is written by hand.

    `backward(g)` returns one gradient per parent, in `parents` order; it runs
    only when some parent requires grad, and constant parents ignore theirs.
    """
    parents = tuple(parents)

    def apply(g: Array) -> None:
        for parent, grad in zip(parents, backward(g)):
            if parent.requires_grad:
                parent._accumulate(grad)

    return _make(out, parents, apply)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g: Array) -> None:
        a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g / b.data)
        if b.requires_grad:
            b._accumulate(-g * out / b.data)

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product for 2D@2D, 2D@1D, and 1D@2D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data @ b.data

    def backward(g: Array) -> None:
        if a.data.ndim == 2 and b.data.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        elif a.data.ndim == 2 and b.data.ndim == 1:
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        elif a.data.ndim == 1 and b.data.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g))
        else:  # pragma: no cover - unsupported by construction
            raise ValueError("matmul supports 2D@2D, 2D@1D, and 1D@2D only")

    return _make(out, (a, b), backward)


# ---------------------------------------------------------------------------
# indexing and shape

def gather(a: Tensor, index) -> Tensor:
    """Select rows (axis 0) of `a` by an integer index array."""
    index = np.asarray(index, dtype=np.intp)
    out = a.data[index]

    def backward(g: Array) -> None:
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, index, g)

    return _make(out, (a,), backward)


def scatter_add(a: Tensor, index, n_rows: int) -> Tensor:
    """Sum rows of `a` into an (n_rows, ...) output grouped by `index`."""
    index = np.asarray(index, dtype=np.intp)
    out = np.zeros((n_rows,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, index, a.data)

    def backward(g: Array) -> None:
        a._accumulate(g[index])

    return _make(out, (a,), backward)


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-D tensor."""
    out = a.data[start:stop]

    def backward(g: Array) -> None:
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += g

    return _make(out, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                part._accumulate(g[tuple(sl)])

    return _make(out, tuple(parts), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g: Array) -> None:
        a._accumulate(g.reshape(a.data.shape))

    return _make(out, (a,), backward)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or one axis (keepdims dropped)."""
    out = a.data.sum(axis=axis)

    def backward(g: Array) -> None:
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _make(np.asarray(out), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g: Array) -> None:
        a._accumulate(g * out)

    return _make(out, (a,), backward)


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    x = a.data
    out = np.where(x > 0, x, slope * x)

    def backward(g: Array) -> None:
        a._accumulate(g * np.where(x > 0, 1.0, slope))

    return _make(out, (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """x where x > 0, else alpha * (e^x - 1); alpha must be positive.

    Both passes select with max/min and a 0/1 blend rather than np.where,
    which is several times slower on an array of mixed signs.
    """
    x = a.data
    out = np.maximum(x, 0.0) + np.minimum(alpha * np.expm1(x), 0.0)

    def backward(g: Array) -> None:
        above = x > 0
        # 1 where x > 0, else out + alpha (= alpha * e^x).
        a._accumulate(g * (above + (np.minimum(out, 0.0) + alpha) * ~above))

    return _make(out, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) without overflow; the gradient is sigmoid(x)."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g: Array) -> None:
        a._accumulate(g * sigmoid(x))

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# non-differentiable helpers

def sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x) on an ndarray, never exponentiating a positive number."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def segment_max(values: Array, index, n_segments: int) -> Array:
    """Per-segment max of `values` grouped by `index` (plain ndarray).

    Used as the stabilizing shift inside a segmented softmax; subtracting a
    per-segment constant leaves the softmax value and its derivative exact,
    so this helper intentionally lives outside the tape.
    """
    index = np.asarray(index, dtype=np.intp)
    out = np.full(n_segments, -np.inf, dtype=np.float64)
    np.maximum.at(out, index, values)
    return out


def segment_sum(values: Array, index: Array, n_rows: int) -> Array:
    """Rows of `values` summed into n_rows rows grouped by `index` (plain ndarray).

    One `np.bincount` over flattened (row, column) codes.  bincount adds the
    weights in input order starting from zero, exactly as `np.add.at` into
    zeros does, so the result is bit-for-bit the same, at a fraction of the
    cost for 2-D values.  Indices must lie in [0, n_rows).
    """
    width = math.prod(values.shape[1:])
    if values.ndim == 1:
        codes = index
    else:
        codes = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(codes, weights=values.ravel(), minlength=n_rows * width)
    if out.size != n_rows * width:
        raise IndexError(f"segment index out of range for {n_rows} rows")
    # With no rows at all, bincount returns integer zeros.
    return out.astype(np.float64, copy=False).reshape((n_rows,) + values.shape[1:])
