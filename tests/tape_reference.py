"""Single-array tape ops that compose the model one operation at a time.

`test_gat.composed_gradients` builds the heads, layer 2's input and the loss
from them as the bitwise reference for `gat`'s fused nodes, and
`test_autodiff` checks each against finite differences.  Each op is a node
of the production tape: a `fused` node, except `gather` and `narrow`, which
add into the gradient their parent already holds, the summation order the
fused nodes reproduce.  Arithmetic broadcasts like numpy; scalars and
ndarrays become constants.
"""
from __future__ import annotations

import numpy as np

from tracelink import autodiff as ad
from tracelink.autodiff import Tensor


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _binary(forward, grads):
    """A broadcasting op; grads(g, a, b, out) gives both gradients at out's shape."""

    def op(a, b) -> Tensor:
        a, b = _as_tensor(a), _as_tensor(b)
        out = forward(a.data, b.data)
        return ad.fused(out, (a, b), lambda g: [
            _unbroadcast(grad, t.data.shape) for grad, t in zip(grads(g, a.data, b.data, out), (a, b))
        ])

    return op


add = _binary(np.add, lambda g, a, b, out: (g, g))
mul = _binary(np.multiply, lambda g, a, b, out: (g * b, g * a))
div = _binary(np.divide, lambda g, a, b, out: (g / b, -g * out / b))


def neg(a: Tensor) -> Tensor:
    return ad.fused(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    return add(a, neg(_as_tensor(b)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-D operands, or one 2-D and one 1-D."""
    x, y = a.data, b.data
    if y.ndim == 1:
        return ad.fused(x @ y, (a, b), lambda g: (np.outer(g, y), x.T @ g))
    if x.ndim == 1:
        return ad.fused(x @ y, (a, b), lambda g: (g @ y.T, np.outer(x, g)))
    return ad.fused(x @ y, (a, b), lambda g: (g @ y.T, x.T @ g))


def concat(parts) -> Tensor:
    """2-D tensors side by side, column blocks in `parts` order."""
    cuts = np.cumsum([p.data.shape[1] for p in parts[:-1]])
    out = np.concatenate([p.data for p in parts], axis=1)
    return ad.fused(out, parts, lambda g: np.split(g, cuts, axis=1))


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """x where x > 0, else alpha * (e^x - 1); alpha must be positive."""
    x = a.data
    out = np.maximum(x, 0.0) + np.minimum(alpha * np.expm1(x), 0.0)

    def backward(g):
        above = x > 0
        # 1 where x > 0, else out + alpha (= alpha * e^x).
        return (g * (above + (np.minimum(out, 0.0) + alpha) * ~above),)

    return ad.fused(out, (a,), backward)


def _adding_into(a: Tensor, out: np.ndarray, add_into) -> Tensor:
    """Node whose backward runs add_into(grad, g) on a copy of a's gradient,
    since `_accumulate` may have stored an array another node also holds."""

    def backward(g):
        a.grad = np.zeros_like(a.data) if a.grad is None else a.grad.copy()
        add_into(a.grad, g)

    return Tensor(out, a.requires_grad, (a,), backward)


def gather(a: Tensor, index) -> Tensor:
    """Rows (axis 0) of `a` picked by an integer index array."""
    index = np.asarray(index, dtype=np.intp)
    return _adding_into(a, a.data[index], lambda grad, g: np.add.at(grad, index, g))


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-D tensor."""
    return _adding_into(a, a.data[start:stop], lambda grad, g: np.add.at(grad, slice(start, stop), g))


def scatter_add(a: Tensor, index, n_rows: int) -> Tensor:
    """Rows of `a` summed into an (n_rows, ...) output grouped by `index`."""
    index = np.asarray(index, dtype=np.intp)
    out = np.zeros((n_rows,) + a.data.shape[1:])
    np.add.at(out, index, a.data)
    return ad.fused(out, (a,), lambda g: (g[index],))


def reshape(a: Tensor, shape) -> Tensor:
    return ad.fused(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or one axis (keepdims dropped)."""
    expand = (lambda g: g) if axis is None else (lambda g: np.expand_dims(g, axis))
    return ad.fused(a.data.sum(axis=axis), (a,), lambda g: (np.broadcast_to(expand(g), a.data.shape).copy(),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return ad.fused(out, (a,), lambda g: (g * out,))


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    x = a.data
    return ad.fused(np.where(x > 0, x, slope * x), (a,), lambda g: (g * np.where(x > 0, 1.0, slope),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) without overflow; the gradient is sigmoid(x)."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return ad.fused(out, (a,), lambda g: (g * ad.sigmoid(x),))
