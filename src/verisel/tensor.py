"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D matrix (scalars are 1x1, vectors are 1xN). Primitives
record their inputs and a local-gradient closure on the output tensor; a
call to :func:`backward` linearizes the recorded applications in topological
order and adds gradients, in place, into the ``grad`` array of every leaf
that requires them. Gradients accumulate across repeated backward calls
until reset via :meth:`Tensor.zero_grad`. A primitive records only when an
input requires gradients, so a pass over frozen parameters builds no tape.

Summation is delegated to numpy, whose reduction order is fixed for a given
shape, so identical inputs produce bit-identical outputs. On large graphs,
:meth:`Segments.reduce` sums wide rows (the GAT layer's messages) by a plan
of gathers and in-place adds that follows numpy's order, so it matches
``reduceat`` bit for bit.

The model and the explainer build their layers and objectives as fused
nodes through :func:`record` (``model.gat_layer``, ``model.attention_pool``,
``explain._penalty`` and others), because on small graphs a training step
costs more bookkeeping than arithmetic; the only primitives left here are
the ones they still chain (:func:`sigmoid`, :func:`concat_cols`). A fused
node's forward and backward run the numpy operations of the primitive chain
it replaces, in the same order and on contiguous operands (the model holds
each weight as the ``W.T`` the chain copies), and a fused node lists an
input once per path that reads it, so :func:`backward` adds the
contributions to that input in the chain's order. Values and gradients are
bit-identical to the chain's, which the tests keep as the oracle.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class ShapeError(Exception):
    """Raised when a primitive receives incompatible operand shapes."""


class NotScalar(Exception):
    """Raised when backward() is asked to differentiate a non-1x1 tensor."""


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
        """Fill ``grad`` with -0.0 (``-0.0 + x`` is ``x``), keeping the array."""
        if self.grad is not None:
            self.grad.fill(-0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def record(values: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """The result of a primitive: ``values``, recorded with ``inputs`` and
    ``backward`` (output gradient -> one gradient or None per input) when an
    input requires gradients."""
    out = Tensor(values)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# primitives


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


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeError("concat_cols: empty input list")
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise ShapeError(
            f"concat_cols: row mismatch {[t.shape for t in tensors]}"
        )
    bounds = list(accumulate((t.shape[1] for t in tensors), initial=0))

    def bwd(g: np.ndarray):
        return tuple(g[:, start:stop] for start, stop in zip(bounds, bounds[1:]))

    return record(
        np.concatenate([t.values for t in tensors], axis=1), tuple(tensors), bwd
    )


# The most rows in a segment that numpy's add.reduceat sums one by one
SEQUENTIAL_ROWS = 8

# The fewest rows a sum of more than one column needs to go by the rank-step
# plan; the crossover it was taken from is in the Segments docstring
PLAN_MIN_ROWS = 200


class Segments:
    """Rows grouped by ``ids`` into segments 0..count-1, none of them empty.

    :meth:`reduce` applies ``ufunc.reduceat`` to each segment's rows in
    their order in ``values``. Along axis 0, ``reduceat`` makes one
    inner-loop call per segment per column, so a sum of more than one column
    over at least :data:`PLAN_MIN_ROWS` rows goes by a rank-step plan
    instead, built on the first such sum. The plan lists the segments of at
    most :data:`SEQUENTIAL_ROWS` rows longest first; step k gathers row k of
    each of them that has more than k rows, a prefix of that list, so every
    step is one gather and one in-place add over all those segments at once.

    The plan sums in numpy's order, so its results are bit-identical. numpy
    adds a segment's first row to the pairwise sum of its other rows, and
    for a segment of at most 8 rows that sum adds the rows one by one,
    starting from -0.0 (and -0.0 + x is x, signed zeros included). So the
    plan adds rows 2, 3, ... into row 1 and then adds the result to row 0.
    Longer segments sum in 8 interleaved accumulators; the plan hands them
    to ``reduceat`` on a copy of their rows alone.

    The threshold is the measured crossover for 32-wide sums over program
    graphs' attention edges, one core: the plan is faster from about 100
    rows for receivers (reduceat 22 us against 11 at 133 rows, 192 against
    53 at 1,333) and from about 200 for senders, which have more long runs
    (18 against 23 us at 133 rows, 28 against 26 at 215, 129 against 60 at
    1,333). Building the plan takes 20-45 us, so a plan built for one
    2-layer prediction pays from about 150 rows. Single-column sums and
    maxima stay on ``reduceat``, which is faster for them.
    """

    def __init__(self, ids, count: int):
        self.ids = np.asarray(ids, dtype=np.intp)
        self.sizes = np.bincount(self.ids, minlength=count)
        # reductions reduceat each segment's run of sorted rows: none may be empty
        if len(self.sizes) != count or not self.sizes.all():
            raise ShapeError(f"segments: ids must cover each of 0..{count - 1}")
        self.sorted = bool((self.ids[1:] >= self.ids[:-1]).all())
        self.order = np.argsort(self.ids, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self._plan: tuple | None = None

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """Per-segment reduction of the rows of ``values``: (E, C) -> (count, C).

        Rows already in segment order are reduced in place of a permuted copy.
        """
        if len(values) != len(self.ids):
            raise ShapeError(f"segments: {values.shape} vs {len(self.ids)} ids")
        if ufunc is np.add and len(values) >= PLAN_MIN_ROWS and values.shape[1] > 1:
            return self._planned_sum(values)
        rows = values if self.sorted else values[self.order]
        return ufunc.reduceat(rows, self.starts, axis=0)

    def _rank_plan(self) -> tuple:
        """The short segments longest first and the rows of each rank step
        among them; the long segments, their rows in segment order and the
        start of each one's run in those rows."""
        long = self.sizes > SEQUENTIAL_ROWS
        short = np.flatnonzero(~long)
        short = short[np.argsort(-self.sizes[short], kind="stable")]
        firsts, sizes = self.starts[short], self.sizes[short]
        steps = [self.order[firsts[:np.count_nonzero(sizes > k)] + k]
                 for k in range(sizes.max(initial=0))]
        long_sizes = self.sizes[long]
        return (short, steps, np.flatnonzero(long), self.order[np.repeat(long, self.sizes)],
                np.cumsum(long_sizes) - long_sizes)

    def _planned_sum(self, values: np.ndarray) -> np.ndarray:
        if self._plan is None:
            self._plan = self._rank_plan()
        short, steps, long, long_rows, long_starts = self._plan
        out = np.empty((len(self.sizes), values.shape[1]), dtype=values.dtype)
        if steps:
            head = values[steps[0]]
            if len(steps) > 1:
                rest = values[steps[1]]
                for step in steps[2:]:
                    rest[:len(step)] += values[step]
                head[:len(rest)] += rest
            out[short] = head
        if len(long):
            out[long] = np.add.reduceat(values[long_rows], long_starts, axis=0)
        return out


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
    """Add the gradient of ``loss`` into ``grad`` on every requires_grad leaf it reaches.

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
            # place); a leaf without a grad array gets its own copy
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else np.add(node.grad, g, out=node.grad)
            continue
        for parent, pg in zip(node._inputs, node._backward(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = flow.get(id(parent))
            flow[id(parent)] = pg if acc is None else acc + pg
