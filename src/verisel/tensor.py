"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D matrix (scalars are 1x1, vectors are 1xN). Primitives
record their inputs and a local-gradient closure on the output tensor; a
call to :func:`backward` linearizes the recorded applications in topological
order and accumulates gradients into the ``grad`` field of every leaf that
requires them. Gradients accumulate across repeated backward calls until
reset via :meth:`Tensor.zero_grad`.

Summation is delegated to numpy, whose reduction order is fixed for a given
shape, so identical inputs produce bit-identical outputs.

A fused node (:func:`linear` here, ``model.gat_layer`` for attention) puts
one tensor on the tape where a chain of primitives put several, because on
small graphs a training step costs more bookkeeping than arithmetic. Its
forward and backward run the numpy operations of the chain it replaces, in
the same order, and a fused node lists an input once per path that reads it,
so :func:`backward` adds the contributions to that input in the chain's
order. Values and gradients are therefore bit-identical to the chain's.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(Exception):
    """Raised when a primitive receives incompatible operand shapes."""


class NotScalar(Exception):
    """Raised when backward() is asked to differentiate a non-1x1 tensor."""


# a context variable, so a no_grad block in one thread leaves others recording
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable recording inside the block (inference fast path)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
    return arr


class Tensor:
    """A dense float64 matrix, optionally tracked for differentiation."""

    __slots__ = ("values", "requires_grad", "grad", "_inputs", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._inputs: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise NotScalar(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def record(values: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """The result of a primitive: ``values``, recorded with ``inputs`` and
    ``backward`` (output gradient -> one gradient or None per input) when
    gradients are enabled and an input requires them."""
    out = Tensor(values)
    if _grad_enabled.get() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def bwd(g: np.ndarray):
        # no gradient for a constant operand: backward skips a None
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return record(av @ bv, (a, b), bwd)


def linear(z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``z @ w.T + b`` (``w`` is out x in, ``b`` a 1 x out row).

    One node for ``add(matmul(z, transpose(w)), b)``, with that chain's
    operations.
    """
    if z.shape[1] != w.shape[1] or b.shape != (1, w.shape[0]):
        raise ShapeError(f"linear: {z.shape} @ {w.shape}.T + {b.shape}")
    zv = z.values
    wt = w.values.T.copy()

    def bwd(g: np.ndarray):
        # a one-row z passes g on to b as add does; a sum would make -0.0 +0.0
        return (g @ wt.T if z.requires_grad else None,
                (zv.T @ g).T if w.requires_grad else None,
                (g if len(g) == 1 else g.sum(axis=0, keepdims=True))
                if b.requires_grad else None)

    return record(zv @ wt + b.values, (z, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a 1xC row vector or a 1x1 scalar."""
    if b.shape == a.shape:
        def bwd(g: np.ndarray):
            return g, g
    elif b.shape == (1, a.shape[1]):
        def bwd(g: np.ndarray):
            return g, g.sum(axis=0, keepdims=True)
    elif b.shape == (1, 1):
        def bwd(g: np.ndarray):
            return g, g.sum().reshape(1, 1)
    else:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    return record(a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scalar_mul(b, -1.0))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g: np.ndarray):
        return (g * c,)

    return record(a.values * c, (a,), bwd)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may also be an Rx1 column scaling each row."""
    av, bv = a.values, b.values
    if b.shape == a.shape:
        def bwd(g: np.ndarray):
            return (g * bv if a.requires_grad else None,
                    g * av if b.requires_grad else None)
    elif b.shape == (a.shape[0], 1):
        def bwd(g: np.ndarray):
            return (g * bv if a.requires_grad else None,
                    (g * av).sum(axis=1, keepdims=True) if b.requires_grad else None)
    else:
        raise ShapeError(f"elementwise_mul: {a.shape} * {b.shape}")
    return record(av * bv, (a, b), bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = np.where(a.values >= 0.0, 1.0, float(slope))

    def bwd(g: np.ndarray):
        return (g * mask,)

    return record(a.values * mask, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    return leaky_relu(a, 0.0)


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g: np.ndarray):
        return (g * out * (1.0 - out),)

    return record(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    av = a.values

    def bwd(g: np.ndarray):
        return (g / av,)

    return record(np.log(av), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)

    def bwd(g: np.ndarray):
        return (g * out,)

    return record(out, (a,), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax; each output row sums to 1."""
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return record(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    return record(a.values.sum().reshape(1, 1), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    return scalar_mul(sum_all(a), 1.0 / (a.shape[0] * a.shape[1]))


def transpose(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray):
        return (g.T,)

    return record(a.values.T.copy(), (a,), bwd)


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeError("concat_cols: empty input list")
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise ShapeError(
            f"concat_cols: row mismatch {[t.shape for t in tensors]}"
        )
    widths = [t.shape[1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def bwd(g: np.ndarray):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(widths)))

    return record(
        np.concatenate([t.values for t in tensors], axis=1), tuple(tensors), bwd
    )


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] of {a.shape}")
    shape = a.shape

    def bwd(g: np.ndarray):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return record(a.values[start:stop, :].copy(), (a,), bwd)


def scatter(values: Tensor, rows: Sequence[int], cols: Sequence[int],
            shape: tuple[int, int]) -> Tensor:
    """Place a 1xK vector into a zero matrix, summing duplicate positions."""
    if values.shape[0] != 1 or values.shape[1] != len(rows) or len(rows) != len(cols):
        raise ShapeError(
            f"scatter: values {values.shape} vs {len(rows)}/{len(cols)} positions"
        )
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    out = np.zeros(shape)
    np.add.at(out, (r, c), values.values[0])

    def bwd(g: np.ndarray):
        return (g[r, c].reshape(1, -1),)

    return record(out, (values,), bwd)


class Segments:
    """Rows grouped by ``ids`` into segments 0..count-1, none of them empty."""

    def __init__(self, ids, count: int):
        self.ids = np.asarray(ids, dtype=np.intp)
        sizes = np.bincount(self.ids, minlength=count)
        # reductions reduceat each segment's run of sorted rows: none may be empty
        if len(sizes) != count or not sizes.all():
            raise ShapeError(f"segments: ids must cover each of 0..{count - 1}")
        self.sorted = bool((self.ids[1:] >= self.ids[:-1]).all())
        self.order = np.argsort(self.ids, kind="stable")
        self.starts = np.cumsum(sizes) - sizes

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """Per-segment reduction of the rows of ``values``: (E, C) -> (count, C).

        Rows already in segment order are reduced in place of a permuted copy.
        """
        if len(values) != len(self.ids):
            raise ShapeError(f"segments: {values.shape} vs {len(self.ids)} ids")
        rows = values if self.sorted else values[self.order]
        return ufunc.reduceat(rows, self.starts, axis=0)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(loss: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Repeated calls without :meth:`Tensor.zero_grad` accumulate.
    """
    if loss.shape != (1, 1):
        raise NotScalar(f"backward needs a 1x1 loss, got {loss.shape}")
    flow: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(_toposort(loss)):
        g = flow.get(id(node))
        if g is None:
            continue
        if node._backward is None:
            # flow entries may alias each other (they are never written in
            # place); a leaf's grad gets its own copy
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._inputs, node._backward(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = flow.get(id(parent))
            flow[id(parent)] = pg if acc is None else acc + pg
