"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D matrix (scalars are 1x1, vectors are 1xN). Primitives
record their inputs and a local-gradient closure on the output tensor; a
call to :func:`backward` linearizes the recorded applications in topological
order and accumulates gradients into the ``grad`` field of every leaf that
requires them. Gradients accumulate across repeated backward calls until
reset via :meth:`Tensor.zero_grad`.

Summation is delegated to numpy, whose reduction order is fixed for a given
shape, so identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
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


def _result(values: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
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

    return _result(av @ bv, (a, b), bwd)


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
    return _result(a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scalar_mul(b, -1.0))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g: np.ndarray):
        return (g * c,)

    return _result(a.values * c, (a,), bwd)


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
    return _result(av * bv, (a, b), bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = np.where(a.values >= 0.0, 1.0, float(slope))

    def bwd(g: np.ndarray):
        return (g * mask,)

    return _result(a.values * mask, (a,), bwd)


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

    return _result(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    av = a.values

    def bwd(g: np.ndarray):
        return (g / av,)

    return _result(np.log(av), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)

    def bwd(g: np.ndarray):
        return (g * out,)

    return _result(out, (a,), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax; each output row sums to 1."""
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    return _result(a.values.sum().reshape(1, 1), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    return scalar_mul(sum_all(a), 1.0 / (a.shape[0] * a.shape[1]))


def transpose(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray):
        return (g.T,)

    return _result(a.values.T.copy(), (a,), bwd)


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

    return _result(
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

    return _result(a.values[start:stop, :].copy(), (a,), bwd)


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

    return _result(out, (values,), bwd)


class Segments:
    """Rows grouped by ``ids`` into segments 0..count-1, none of them empty."""

    def __init__(self, ids, count: int):
        self.ids = np.asarray(ids, dtype=np.intp)
        sizes = np.bincount(self.ids, minlength=count)
        # reductions reduceat each segment's run of sorted rows: none may be empty
        if len(sizes) != count or not sizes.all():
            raise ShapeError(f"segments: ids must cover each of 0..{count - 1}")
        self.order = np.argsort(self.ids, kind="stable")
        self.starts = np.cumsum(sizes) - sizes

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """Per-segment reduction of the rows of ``values``: (E, C) -> (count, C)."""
        if len(values) != len(self.ids):
            raise ShapeError(f"segments: {values.shape} vs {len(self.ids)} ids")
        return ufunc.reduceat(values[self.order], self.starts, axis=0)


def gather_rows(a: Tensor, rows: Segments) -> Tensor:
    """Row ``rows.ids[e]`` of ``a`` as row e: (count, C) -> (E, C)."""
    if a.shape[0] != len(rows.starts):
        raise ShapeError(f"gather_rows: {a.shape} vs {len(rows.starts)} segments")

    def bwd(g: np.ndarray):
        return (rows.reduce(np.add, g),)

    return _result(a.values[rows.ids], (a,), bwd)


def segment_sum(a: Tensor, segments: Segments) -> Tensor:
    """Sum the rows of each segment: (E, C) -> (count, C)."""

    def bwd(g: np.ndarray):
        return (g[segments.ids],)

    return _result(segments.reduce(np.add, a.values), (a,), bwd)


def segment_softmax(a: Tensor, segments: Segments) -> Tensor:
    """Softmax over the rows of each segment, column by column."""
    ids = segments.ids
    e = np.exp(a.values - segments.reduce(np.maximum, a.values)[ids])
    out = e / segments.reduce(np.add, e)[ids]

    def bwd(g: np.ndarray):
        return (out * (g - segments.reduce(np.add, g * out)[ids]),)

    return _result(out, (a,), bwd)


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


# ---------------------------------------------------------------------------
# finite-difference checking


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_input: int
    worst_component: tuple[int, int]


def grad_check(f, x, step: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare backward gradients of ``f`` against central differences.

    ``x`` is a tensor or a sequence of tensors passed positionally to ``f``,
    which must return a scalar tensor. Relative error per component is
    ``|a - n| / max(1, |a|, |n|)``; the report passes iff the worst one is
    below ``tolerance``.
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    for t in xs:
        t.requires_grad = True
        t.zero_grad()
    loss = f(*xs)
    backward(loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros(t.shape) for t in xs
    ]

    worst = 0.0
    worst_input = 0
    worst_component = (0, 0)
    with no_grad():
        for idx, t in enumerate(xs):
            base = t.values
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    orig = base[i, j]
                    base[i, j] = orig + step
                    hi = f(*xs).item()
                    base[i, j] = orig - step
                    lo = f(*xs).item()
                    base[i, j] = orig
                    numeric = (hi - lo) / (2.0 * step)
                    a = analytic[idx][i, j]
                    err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                    if err > worst:
                        worst = err
                        worst_input = idx
                        worst_component = (i, j)
    return GradCheckReport(
        max_rel_error=worst,
        tolerance=tolerance,
        passed=worst < tolerance,
        worst_input=worst_input,
        worst_component=worst_component,
    )
