"""Rank-4 tensors with reverse-mode differentiation.

Every tensor is a dense (batch, channel, height, width) float array. Tensors
produced by an operation remember their inputs, forming a DAG; ``backward``
walks it once in reverse topological order and accumulates gradients on every
reachable leaf that requires them. The walk releases the graph as it goes, so
a graph can be walked only once. Arithmetic lives here; the spatial and
nonlinear kernels live in ``kernels``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError, UsageError

_state = threading.local()

SCALAR_SHAPE = (1, 1, 1, 1)


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph recording on this thread."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple = (),
        backward: Optional[Callable] = None,
    ):
        data = np.asarray(data)
        if data.ndim != 4:
            raise ShapeError(f"tensors are rank-4, got shape {data.shape}")
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Leaf tensor sharing this tensor's values, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_scalar(self, other)

    def __radd__(self, other):
        return add_scalar(self, other)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else add_scalar(self, -other)

    def __rsub__(self, other):
        return add_scalar(mul_scalar(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else mul_scalar(self, other)

    def __rmul__(self, other):
        return mul_scalar(self, other)

    def __truediv__(self, other):
        return div(self, other) if isinstance(other, Tensor) else mul_scalar(self, 1.0 / other)

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        return _reduce(self, axis, how="mean")

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return _reduce(self, axis, how="sum")


def result(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    """Wrap a kernel output, recording the graph edge only when grads are live."""
    if grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


# -- elementwise arithmetic ---------------------------------------------------

def _binary_shapes(a: Tensor, b: Tensor):
    if a.shape == b.shape:
        return a.shape
    # singleton axes broadcast; anything else is a caller bug
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return tuple(max(da, db) for da, db in zip(a.shape, b.shape))


def _shrink(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True, dtype=grad.dtype)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return result(a.data + b.data, (a, b),
                  lambda g: (_shrink(g, a.shape), _shrink(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return result(a.data - b.data, (a, b),
                  lambda g: (_shrink(g, a.shape), _shrink(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return result(a.data * b.data, (a, b),
                  lambda g: (_shrink(g * b.data, a.shape), _shrink(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    return result(a.data / b.data, (a, b),
                  lambda g: (_shrink(g / b.data, a.shape),
                             _shrink(-g * a.data / (b.data * b.data), b.shape)))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return result(a.data * np.asarray(c, dtype=a.dtype), (a,), lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return result(a.data + np.asarray(c, dtype=a.dtype), (a,), lambda g: (g,))


def _reduce(a: Tensor, axis: Optional[int], how: str) -> Tensor:
    if axis is not None and axis not in (0, 1, 2, 3):
        raise UsageError(f"axis must be None or 0..3, got {axis}")
    if how == "mean":
        out = a.data.mean(axis=axis, keepdims=True)
        scale = 1.0 / (a.data.size if axis is None else a.shape[axis])
    else:
        out = a.data.sum(axis=axis, keepdims=True)
        scale = 1.0
    return result(out, (a,),
                  lambda g: (np.broadcast_to(g * np.asarray(scale, a.dtype.type), a.shape).copy(),))


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not tensors:
        raise UsageError("concat of an empty list")
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if [s for i, s in enumerate(other) if i != axis] != [s for i, s in enumerate(base) if i != axis]:
            raise ShapeError(f"concat shape mismatch {tensors[0].shape} vs {t.shape}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return result(data, tuple(tensors), backward)


def split(t: Tensor, parts: int) -> list[Tensor]:
    """Cut ``t`` into ``parts`` equal pieces along the batch axis; undoes ``concat(axis=0)``."""
    if parts < 1 or t.shape[0] % parts:
        raise ShapeError(f"cannot split batch {t.shape[0]} into {parts} equal parts")
    n = t.shape[0] // parts

    def piece(sl):
        def backward(g):
            full = np.zeros(t.shape, dtype=g.dtype)
            full[sl] = g
            return (full,)

        return result(t.data[sl], (t,), backward)

    return [piece(slice(k * n, (k + 1) * n)) for k in range(parts)]


# -- backward pass ------------------------------------------------------------

def topo_order(root: Tensor) -> list:
    """Interior nodes reachable from root, parents before children.

    Traversal follows parent declaration order, so the schedule is fixed by
    graph construction order. Each node appears exactly once. Reaching a node
    that ``backward`` has already walked raises UsageError.
    """
    order = []
    state: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            if node._parents is _WALKED:
                raise UsageError("backward reached a graph that was already walked; "
                                 "a graph can be walked only once")
            state[id(node)] = 1
            for p in reversed(node._parents):
                if p._parents and state.get(id(p), 0) == 0:
                    stack.append(p)
        elif st == 1:
            state[id(node)] = 2
            stack.pop()
            if node._parents:
                order.append(node)
        else:
            stack.pop()
    return order


# ``_parents`` of a node that ``backward`` has walked. It is truthy, so
# ``topo_order`` still treats the node as interior and refuses it.
_WALKED = (None,)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf that requires it; the walked
    graph is released and cannot be walked again."""
    if loss.shape != SCALAR_SHAPE:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = topo_order(loss)
    loss.grad = np.ones(SCALAR_SHAPE, dtype=loss.dtype)
    # children come off the end before their parents, and each node drops its
    # gradient, closure and parent links once read, so an interior activation
    # that only the graph holds dies when its last child has been walked
    while order:
        node = order.pop()
        g, fn, parents = node.grad, node._backward, node._parents
        node.grad = node._backward = None
        node._parents = _WALKED
        if g is None or fn is None:
            continue
        for parent, pg in zip(parents, fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(pg, dtype=parent.dtype, copy=True)
            else:
                parent.grad += pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients,
    over every element; the function is re-evaluated in 64-bit arithmetic."""
    if step <= 0:
        raise UsageError("step must be positive")
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    y = f(x64)
    if y.shape != SCALAR_SHAPE:
        raise UsageError("grad_check needs a tensor-to-scalar function")
    backward(y)
    analytic = np.zeros_like(x64.data) if x64.grad is None else x64.grad
    flat = x64.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = f(x64).item()
            flat[i] = keep - step
            down = f(x64).item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(aflat[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
