"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers the operation that produced
it.  Calling ``backward()`` on a scalar result walks the recorded tape in
reverse topological order and accumulates exact gradients into every
reachable tensor built with ``requires_grad=True``.

The op set is the one the model runs.  `fused` makes a tape node of an op
whose backward is written by hand: `gat`'s attention heads, layer 2's
input (head concat, ELU and matmul) and link loss.  `sigmoid`,
`segment_max` and `segment_sum` work on plain ndarrays inside those nodes.
The single-array ops that compose the same model one operation at a time
live in ``tests/tape_reference.py``, the bitwise reference for the fused
nodes.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """Array-valued node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents: tuple["Tensor", ...] = (),
                 backward: Callable[[Array], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    def _accumulate(self, grad: Array) -> None:
        # The first gradient is kept as it comes and a later one is added out
        # of place: a stored array may be a view of another node's gradient.
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf."""
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar tensors")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the requires_grad subgraph (leaves first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if parent.requires_grad)
    return order


def fused(out: Array, parents: Sequence[Tensor], backward: Callable[[Array], Sequence[Array]]) -> Tensor:
    """Tape node for a composite op whose backward is written by hand.

    `backward(g)` returns one gradient per parent, in `parents` order, each
    shaped like its parent; it runs only when some parent requires grad, and
    constant parents ignore theirs.
    """
    parents = tuple(parents)
    if not any(p.requires_grad for p in parents):
        return Tensor(out)

    def apply(g: Array) -> None:
        for parent, grad in zip(parents, backward(g)):
            if parent.requires_grad:
                parent._accumulate(grad)

    return Tensor(out, True, parents, apply)


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
    """Per-segment max of `values` grouped by `index` (plain ndarray): the
    shift of a segmented softmax, which leaves its value and derivative exact."""
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
    codes = index if values.ndim == 1 else (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(codes, weights=values.ravel(), minlength=n_rows * width)
    if out.size != n_rows * width:
        raise IndexError(f"segment index out of range for {n_rows} rows")
    # With no rows at all, bincount returns integer zeros.
    return out.astype(np.float64, copy=False).reshape((n_rows,) + values.shape[1:])
