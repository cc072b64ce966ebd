"""Graph attention ranker: GAT layers, jumping knowledge, attention pooling,
and the verifier-scoring head.

Message passing runs over an edge list: the enabled edge sets plus one
self-loop per node, each pair once. For an edge (j -> i) the unnormalized
attention score is ``leaky_relu(attn . [W_in h_i || W_out h_j])``; scores are
softmax-normalized over each node's incoming edges and weight the messages
``W_out h_j``. One forward pass serves inference, training, and the
edge-mask explainer (which supplies a multiplier per edge for the normalized
attention weights).

Each GAT layer (:func:`gat_layer`), the attention pooling with its MLP
(:func:`attention_pool`), the head MLP, the message mask
(:meth:`EdgeIndex.message_mask`) and the ranking loss
(:func:`margin_rank_loss_t`) is one node on the autodiff tape, because on
small graphs a training step costs more bookkeeping than arithmetic. A fused
node runs the same operations as the primitive chain it replaced, in the
same order, and its gradients reach ``tz.backward`` in the chain's
accumulation order, so scores, gradients and saved models are bit-identical
to the chain's (kept as the test oracle).

A graph reaches the model as a :class:`ModelInput`: its one-hot node states,
the (src, dst) pairs of the enabled edge sets and their :class:`EdgeIndex`,
built once by :func:`prepare_input` and reused by every pass over that graph
(training steps, validation, explainer iterations). The trainable parameters
are views into one float64 vector (:attr:`ModelParameters.vector`), their
gradients into another (``grad``), so an optimizer updates them all at once
and a snapshot is one array copy. Each layer is a named tuple of its views,
grouped by position in the layout. Inference, validation and the explainer
read them through views that record nothing (:attr:`ModelParameters.frozen`).

Each weight matrix ``W`` (out x in) is held as ``W.T`` (in x out), the
operand ``h @ W.T`` reads: a contiguous view multiplies exactly like the
chain's contiguous copy of ``W.T``, where a transposed view can round
differently. Model files keep ``(out, in)`` blocks; :func:`save_model` and
:func:`load_model` transpose the blocks :func:`_parameter_layout` marks.

A GAT layer is a mask-independent step (:func:`_gat_attention`: projections,
edge scores, softmax) followed by the tape node that applies the message
mask and aggregates (:func:`_gat_node`). Between the two only node-sized
arrays and one column per edge are kept: the tape node gathers, scales and
sums the senders' features in blocks of whole segments of at most
:data:`BLOCK_ROWS` edges (:class:`EdgeBlock`), so a layer's memory grows
linearly with its edges, and a graph within the bound runs one block. One
sequence, :func:`_scores`, runs the layers, jumping knowledge, pooling and
head for :func:`forward_scores` and for :class:`MaskScorer`, which hands it
layer 0's attention (with its gathered sender rows) and the property row
computed once per ``explain`` call; that call's target is the scorer's pass
with no mask, so layer 0's attention runs once per call. An input may be
the disjoint union of several graphs (:func:`union_input`): the layers run
once over it, each graph is pooled alone, and the head scores one row per
graph. :func:`predict_many` ranks graphs that way, and :func:`predict` is
its batch of one.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tensor as tz
from .graphio import (
    EDGE_SET_NAMES,
    NUM_PROPERTIES,
    ConfigKey,
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    at_least,
    config_value,
    ordering_from_scores,
    read_config,
)
from .tensor import Tensor

MODEL_FORMAT_VERSION = 1
DEFAULT_MARGIN = 1.0  # margin_rank_loss_t's and trainer.TrainConfig's


class VocabMismatch(Exception):
    """Graph and model disagree about the token vocabulary."""


class EmptyGraph(Exception):
    """The model needs at least one node."""


class LengthMismatch(Exception):
    """Paired vectors have different lengths (or are too short)."""


class ModelFormatError(Exception):
    """A model container could not be decoded."""


@dataclass(frozen=True)
class ModelConfig:
    """The ``model`` section of a run config; ``graphio.CONFIG_KEYS`` has its rules."""

    num_gat_layers: int = 1
    edge_sets: tuple[str, ...] = EDGE_SET_NAMES
    jumping_knowledge: bool = True
    gat_width: int = 32
    pool_hidden: tuple[int, ...] = (64, 12)
    head_hidden: tuple[int, ...] | None = None  # None: (d_in, d_in // 2)
    property_encoding: str = "scalar"  # scalar | onehot
    leaky_slope: float = 0.2

    @property
    def property_dim(self) -> int:
        return 1 if self.property_encoding == "scalar" else NUM_PROPERTIES

    def node_dim(self, vocab_size: int) -> int:
        """Width of the pooled node states (after jumping knowledge)."""
        if self.num_gat_layers == 0:
            return vocab_size
        if self.jumping_knowledge:
            return vocab_size + self.num_gat_layers * self.gat_width
        return self.gat_width


class GatLayerParams(NamedTuple):
    w_in: Tensor   # (d_in, d_out), transposed attention transform of the receiver
    w_out: Tensor  # (d_in, d_out), transposed sender transform carried by messages
    attn: Tensor   # (2 * d_out, 1)


class AffineParams(NamedTuple):
    w: Tensor  # (in, out), the transposed weight
    b: Tensor  # (1, out)


@dataclass(eq=False)
class ModelParameters:
    """Model metadata plus every trainable as a view into ``vector``.

    The views are reshaped slices of the one float64 ``vector``, in the order
    of :func:`_parameter_layout`; writing to a view's ``values`` writes the
    vector. Each ``grad`` is the same slice of ``grad``, which Adam reads whole.
    """

    config: ModelConfig
    portfolio: tuple[str, ...]
    vocab_fingerprint: str
    vocab_size: int
    vector: np.ndarray
    grad: np.ndarray = field(init=False)
    gat: list[GatLayerParams] = field(init=False)
    pool: list[AffineParams] = field(init=False)
    head: list[AffineParams] = field(init=False)

    def __post_init__(self):
        self.grad = np.full(self.vector.shape, -0.0)
        tensors, offset = [], 0
        for _, shape, _, transposed in self._layout():
            rows, cols = shape[::-1] if transposed else shape
            span = slice(offset, offset + rows * cols)
            tensors.append(Tensor(self.vector[span].reshape(rows, cols), requires_grad=True))
            tensors[-1].grad = self.grad[span].reshape(rows, cols)
            offset += rows * cols
        if self.vector.shape != (offset,) or self.vector.dtype != np.float64:
            raise ValueError(f"parameters need a float64 vector of {offset} values")
        self._bind(tensors)

    def _layout(self) -> list[tuple[str, tuple[int, int], int, bool]]:
        return _parameter_layout(self.config, self.vocab_size, len(self.portfolio))

    def _bind(self, tensors: list[Tensor]) -> None:
        """Group the trainables, in ``vector`` order, into layers: 3 per GAT
        layer, then 2 per pool layer, then 2 per head layer."""
        pool_at = 3 * self.config.num_gat_layers
        head_at = pool_at + 2 * (len(self.config.pool_hidden) + 1)
        self.gat = [GatLayerParams(*tensors[i:i + 3]) for i in range(0, pool_at, 3)]
        self.pool = [AffineParams(*tensors[i:i + 2]) for i in range(pool_at, head_at, 2)]
        self.head = [AffineParams(*tensors[i:i + 2]) for i in range(head_at, len(tensors), 2)]

    def trainables(self) -> list[Tensor]:
        return list(chain(*self.gat, *self.pool, *self.head))

    def zero_grad(self) -> None:
        self.grad.fill(-0.0)  # -0.0 + x is x, as in Tensor.zero_grad

    def copy(self) -> "ModelParameters":
        return replace(self, vector=self.vector.copy())

    @cached_property
    def frozen(self) -> "ModelParameters":
        """Views over the same ``vector`` that require no gradients, built once,
        over these views' arrays (the layout is not derived again)."""
        view = copy.copy(self)
        view._bind([Tensor(t.values) for t in self.trainables()])
        return view


def _parameter_layout(config: ModelConfig, vocab_size: int, portfolio_size: int
                      ) -> list[tuple[str, tuple[int, int], int, bool]]:
    """(name, file shape, fan-in, held transposed) of every trainable, in the
    order of ``vector``; a weight's file shape is ``(out, in)``.

    A name is ``<layer>.<parameter>``, and each layer lists its parameters in
    the field order of :class:`GatLayerParams` or :class:`AffineParams`, the
    order :meth:`ModelParameters._bind` groups them in.
    """
    layout = []
    d_in = vocab_size
    for i in range(config.num_gat_layers):
        d_out = config.gat_width
        layout += [(f"gat{i}.w_in", (d_out, d_in), d_in, True),
                   (f"gat{i}.w_out", (d_out, d_in), d_in, True),
                   (f"gat{i}.attn", (2 * d_out, 1), 2 * d_out, False)]
        d_in = d_out

    def affine(prefix: str, dims: Sequence[int]) -> None:
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            layout.extend([(f"{prefix}{i}.w", (b, a), a, True),
                           (f"{prefix}{i}.b", (1, b), a, False)])

    node_dim = config.node_dim(vocab_size)
    affine("pool", [node_dim, *config.pool_hidden, 1])
    head_in = node_dim + config.property_dim
    hidden = config.head_hidden or (head_in, max(1, head_in // 2))
    affine("head", [head_in, *hidden, portfolio_size])
    return layout


def _from_blocks(config: ModelConfig, portfolio: tuple[str, ...], vocab_fingerprint: str,
                 vocab_size: int, block: Callable[..., np.ndarray]) -> ModelParameters:
    """Parameters from the blocks ``block(name, file shape, fan-in)`` gives in layout order."""
    parts = []
    for name, shape, fan_in, transposed in _parameter_layout(config, vocab_size, len(portfolio)):
        values = block(name, shape, fan_in)
        parts.append((values.T if transposed else values).ravel())
    return ModelParameters(config, portfolio, vocab_fingerprint, vocab_size,
                           np.concatenate(parts).astype(np.float64, copy=False))


@dataclass(frozen=True)
class RankingResult:
    """Per-verifier scores and the induced ordering for one instance."""

    graph_id: str
    scores: tuple[float, ...]
    ordering: tuple[int, ...]  # verifier indices, best first


def init_parameters(
    config: ModelConfig,
    vocab: TokenVocabulary,
    portfolio: Sequence[str],
    seed: int = 0,
) -> ModelParameters:
    """Fresh parameters, uniform in +-1/sqrt(fan_in) from a seeded generator,
    drawn block by block in the ``(out, in)`` order of the model file."""
    config = ModelConfig(**read_config({"model": asdict(config)})["model"])
    portfolio = config_value("portfolio", portfolio)
    rng = np.random.default_rng(seed)

    def draw(_: str, shape: tuple[int, int], fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return _from_blocks(config, portfolio, vocab.fingerprint(), len(vocab), draw)


# ---------------------------------------------------------------------------
# forward pass


def edge_pairs(graph: ProgramGraph, edge_sets: Sequence[str]) -> np.ndarray:
    """The (src, dst) pairs of the enabled edge sets as rows, repeats kept."""
    pairs = chain.from_iterable(graph.edge_sets.get(name, ()) for name in edge_sets)
    return np.fromiter(chain.from_iterable(pairs), dtype=np.intp).reshape(-1, 2)


# The most attention rows a GAT layer holds as (rows x width) arrays at once;
# the measured peaks behind it are in the README's model section.
BLOCK_ROWS = 4096


class EdgeBlock(NamedTuple):
    """Whole consecutive segments of an :class:`EdgeIndex`, one step of a
    walk over its attention rows."""

    rows: slice | np.ndarray  # the block's rows, in the order its segments read them
    segments: tz.Segments     # those rows by segment, numbered from the first one
    nodes: slice              # the segments it holds


def _edge_blocks(segments: tz.Segments, order: np.ndarray | None) -> list[EdgeBlock]:
    """``segments`` in blocks of whole segments of at most :data:`BLOCK_ROWS`
    rows each, a longer segment a block of its own; ``order`` lists the rows
    in segment order, or is None where ``segments`` are sorted. Rows that fit
    in one block are that block, with ``segments`` themselves."""
    if len(segments.ids) <= BLOCK_ROWS:
        return [EdgeBlock(slice(None), segments, slice(None))]
    ends = np.cumsum(segments.sizes)
    blocks: list[EdgeBlock] = []
    first = 0
    while first < len(ends):
        start = int(segments.starts[first])
        end = max(first + 1, int(np.searchsorted(ends, start + BLOCK_ROWS, side="right")))
        rows = slice(start, int(ends[end - 1]))
        if order is not None:
            rows = order[rows]
        blocks.append(EdgeBlock(rows, tz.Segments(segments.ids[rows] - first, end - first),
                                slice(first, end)))
        first = end
    return blocks


class EdgeIndex:
    """The edges attention runs over, as sorted keys ``dst * n + src``.

    Each (src, dst) pair is listed once, plus one self-loop per node (a
    graph's own (i, i) edge merges into it). Sorting by receiver gives every
    node a non-empty run both as a receiver and as a sender. :meth:`slots`
    maps (src, dst) rows to their positions in ``keys`` once, and
    :meth:`message_mask` turns per-row keep scores at those slots into
    per-edge attention multipliers. :attr:`receiver_blocks` and
    :attr:`sender_blocks` cut the rows into blocks (:class:`EdgeBlock`), each
    built on first use.
    """

    def __init__(self, num_nodes: int, pairs: np.ndarray):
        self.num_nodes = num_nodes
        loops = np.arange(num_nodes, dtype=np.intp) * (num_nodes + 1)
        # not np.unique: numpy 2.4 finds these keys by hashing, 3-16x slower
        keys = np.sort(np.concatenate([loops, self._keys(pairs)]))
        self.keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        dst, src = np.divmod(self.keys, num_nodes)
        self.senders = tz.Segments(src, num_nodes)
        self.receivers = tz.Segments(dst, num_nodes)

    @cached_property
    def receiver_blocks(self) -> list[EdgeBlock]:
        """Blocks of whole receiver segments: contiguous row ranges."""
        return _edge_blocks(self.receivers, None)

    @cached_property
    def sender_blocks(self) -> list[EdgeBlock]:
        """Blocks of whole sender segments: row lists in ``senders.order``."""
        return _edge_blocks(self.senders, self.senders.order)

    def _keys(self, pairs: np.ndarray) -> np.ndarray:
        """Keys of (src, dst) rows; every endpoint must lie in 0..n-1."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if pairs.size and not (0 <= pairs.min() and pairs.max() < self.num_nodes):
            raise ValueError(f"edge endpoint out of range for {self.num_nodes} nodes")
        return pairs[:, 1] * self.num_nodes + pairs[:, 0]

    def slots(self, pairs: np.ndarray) -> np.ndarray:
        """Position in ``keys`` of each (src, dst) row, or E for an edge
        attention does not run over."""
        e = len(self.keys)
        keys = self._keys(pairs)
        pos = np.minimum(np.searchsorted(self.keys, keys), e - 1)
        return np.where(self.keys[pos] == keys, pos, e)

    def message_mask(self, keep: Tensor, slots: np.ndarray) -> Tensor:
        """Attention multipliers (E x 1) from 1xK keep scores at K :meth:`slots`.

        Keeps sharing a slot multiply; keeps at slot E are ignored. One tape
        node for the chain log, scatter-add into E + 1 rows, exp, first E rows.
        """
        e = len(self.keys)
        kv = keep.values
        summed = np.zeros((e + 1, 1))
        np.add.at(summed[:, 0], slots, np.log(kv[0]))
        product = np.exp(summed)

        def bwd(g: np.ndarray):
            full = np.zeros((e + 1, 1))
            full[:e] = g
            return ((full * product)[slots, 0].reshape(1, -1) / kv,)

        return tz.record(product[:e].copy(), (keep,), bwd)


def gat_layer(
    states: Tensor,
    edges: np.ndarray,
    params: GatLayerParams,
    *,
    slope: float,
    message_mask: Tensor | None,
    allowed_mask: EdgeIndex,
) -> Tensor:
    """One attention layer over ``allowed_mask``, the :class:`EdgeIndex` of
    the (src, dst) rows ``edges`` plus a self-loop per node.

    ``message_mask`` (E x 1, aligned with that index) scales the attention
    weights, or is None.
    """
    # edges goes unread; perfbench/tracing.py wraps this by parameter name and counts them
    attention = _gat_attention(states.values, allowed_mask, params, slope)
    return _gat_node(states, allowed_mask, params, attention, message_mask)


class Attention(NamedTuple):
    """The mask-independent step of a GAT layer (:func:`_gat_attention`)."""

    xin: np.ndarray      # receiver features, n x d
    xout: np.ndarray     # sender features, n x d
    slopes: np.ndarray   # the leaky-ReLU slope of each edge score, E x 1
    weights: np.ndarray  # the softmax of the scores over each receiver, E x 1
    gathered: np.ndarray | None = None  # xout[senders.ids], where a caller keeps it


def _gat_attention(h: np.ndarray, index: EdgeIndex, params: GatLayerParams,
                   slope: float) -> Attention:
    """The mask-independent step of a GAT layer over node states ``h``: the
    receiver and sender features, the leaky-ReLU slope of each edge score
    and the softmax of the scores over each receiver."""
    w_in, w_out, attn = params.w_in.values, params.w_out.values, params.attn.values
    if h.shape[1] != w_in.shape[0]:
        raise tz.ShapeError(f"gat_layer: states {h.shape} vs w_in {w_in.T.shape}")
    d_out = w_in.shape[1]
    recv, send = index.receivers, index.senders
    xin = h @ w_in
    xout = h @ w_out
    # score of the edge (j -> i) is leaky_relu(s_in[i] + s_out[j])
    # take copies rows as indexing does, two to three times faster
    raw = ((xin @ attn[:d_out]).take(recv.ids, axis=0)
           + (xout @ attn[d_out:]).take(send.ids, axis=0))
    slopes = np.where(raw >= 0.0, 1.0, float(slope))
    scores = raw * slopes
    e = np.exp(scores - recv.reduce(np.maximum, scores).take(recv.ids, axis=0))
    weights = e / recv.reduce(np.add, e).take(recv.ids, axis=0)
    return Attention(xin, xout, slopes, weights)


def _gat_node(states: Tensor, index: EdgeIndex, params: GatLayerParams,
              attention: Attention, message_mask: Tensor | None) -> Tensor:
    """The tape node of a GAT layer: the weights of :func:`_gat_attention`,
    scaled by ``message_mask``, sum the gathered messages into each receiver.

    Its (rows x width) arrays exist one :class:`EdgeBlock` at a time, apart
    from sender rows a caller keeps in ``attention.gathered``: the forward
    walks the receiver blocks, and the backward walks the sender blocks,
    taking the senders' sum where it is needed and the row dot products.
    Every product is row-local and each segment is summed over the same
    rows in the same order, so the blocks do not change the bits.

    ``states`` is listed twice among the node's inputs, for the receiver and
    the sender path, so that ``tz.backward`` adds those two gradients to the
    other contributions as the primitive chain did.
    """
    recv, send = index.receivers, index.senders
    w_in, w_out, attn = params.w_in, params.w_out, params.attn
    xin, xout, slopes, weights, gathered = attention
    d_out = w_in.shape[1]
    h = states.values
    mask = None if message_mask is None else message_mask.values
    if mask is not None and mask.shape != weights.shape:
        raise tz.ShapeError(f"gat_layer: a mask of shape {mask.shape}, "
                            f"not one column of {len(weights)} rows")
    scaled = weights if mask is None else weights * mask

    def senders_of(rows):
        return xout.take(send.ids[rows], axis=0) if gathered is None else gathered[rows]

    def bwd(g: np.ndarray):
        need_h = states.requires_grad
        need_xin = need_h or w_in.requires_grad
        need_xout = need_h or w_out.requires_grad
        need_scores = need_xin or need_xout or attn.requires_grad
        need_mask = message_mask is not None and message_mask.requires_grad
        # the node is recorded only when need_scores or need_mask holds
        g_scaled = np.empty(weights.shape)
        g_sent = np.empty(xout.shape) if need_xout else None
        for rows, segments, nodes in index.sender_blocks:
            g_msg = g.take(recv.ids[rows], axis=0)
            if need_xout:
                g_sent[nodes] = segments.reduce(np.add, g_msg * scaled[rows])
            dots = g_msg * senders_of(rows)
            # a one-wide product is its own row sum
            g_scaled[rows] = dots if dots.shape[1] == 1 else dots.sum(axis=1, keepdims=True)
        g_mask = g_scaled * weights if need_mask else None
        if not need_scores:
            return None, None, None, None, None, g_mask
        g_weights = g_scaled if mask is None else g_scaled * mask
        g_scores = weights * (g_weights - recv.reduce(np.add, g_weights * weights)
                              .take(recv.ids, axis=0))
        g_raw = g_scores * slopes
        g_s_in = recv.reduce(np.add, g_raw)
        g_s_out = send.reduce(np.add, g_raw)
        a = attn.values
        g_xin = g_s_in @ a[:d_out].T if need_xin else None
        g_xout = g_sent + g_s_out @ a[d_out:].T if need_xout else None
        g_attn = None
        if attn.requires_grad:  # the sum of the two halves, each zero-padded
            top, bottom = np.zeros(attn.shape), np.zeros(attn.shape)
            top[:d_out] = xin.T @ g_s_in
            bottom[d_out:] = xout.T @ g_s_out
            g_attn = top + bottom
        return (g_xin @ w_in.values.T if need_h else None,
                g_xout @ w_out.values.T if need_h else None,
                h.T @ g_xin if w_in.requires_grad else None,
                h.T @ g_xout if w_out.requires_grad else None,
                g_attn, g_mask)

    out = np.empty(xout.shape)
    for rows, segments, nodes in index.receiver_blocks:
        out[nodes] = segments.reduce(np.add, senders_of(rows) * scaled[rows])
    inputs = (states, states, w_in, w_out, attn)
    if message_mask is not None:
        inputs += (message_mask,)
    return tz.record(out, inputs, bwd)


def jumping_knowledge(layer_outputs: Sequence[Tensor], enabled: bool) -> Tensor:
    """Concatenate per-layer node states column-wise (``tz.concat_cols``
    checks that their node counts agree), or keep the last."""
    if not enabled or len(layer_outputs) == 1:
        return layer_outputs[-1]
    return tz.concat_cols(list(layer_outputs))


def _mlp_forward(z: np.ndarray, layers: Sequence[AffineParams], slope: float):
    """Values of the affine layers ``z @ w + b`` (``w`` held transposed) with
    a leaky ReLU between consecutive ones, and each layer's (input, ReLU
    slopes or None) for :func:`_mlp_backward`."""
    steps = []
    for i, layer in enumerate(layers):
        w = layer.w.values
        if z.shape[1] != w.shape[0] or layer.b.shape != (1, w.shape[1]):
            raise tz.ShapeError(f"mlp layer {i}: {z.shape} @ {w.shape} + {layer.b.shape}")
        out = z @ w + layer.b.values
        slopes = None
        if i + 1 < len(layers):
            slopes = np.where(out >= 0.0, 1.0, float(slope))
            out = out * slopes
        steps.append((z, slopes))
        z = out
    return z, steps


def _mlp_backward(g: np.ndarray, z: Tensor, layers: Sequence[AffineParams],
                  steps) -> list:
    """Gradients for ``z, w0, b0, w1, b1, ...`` from the output gradient."""
    # a layer's input needs a gradient if z or an earlier parameter does
    need = [z.requires_grad]
    for layer in layers[:-1]:
        need.append(need[-1] or layer.w.requires_grad or layer.b.requires_grad)
    grads: list = [None] * (1 + 2 * len(layers))
    for i in reversed(range(len(layers))):
        layer = layers[i]
        x, slopes = steps[i]
        if slopes is not None:
            g = g * slopes
        if layer.w.requires_grad:
            grads[1 + 2 * i] = x.T @ g
        if layer.b.requires_grad:
            # a one-row g goes to b as it is: a sum would make -0.0 +0.0
            grads[2 + 2 * i] = g if len(g) == 1 else g.sum(axis=0, keepdims=True)
        if not need[i]:
            break
        g = g @ layer.w.values.T
        if i == 0:
            grads[0] = g
    return grads


def _mlp(z: Tensor, layers: Sequence[AffineParams], slope: float) -> Tensor:
    """Affine layers in order, with a leaky ReLU between consecutive ones."""
    out, steps = _mlp_forward(z.values, layers, slope)

    def bwd(g: np.ndarray):
        return _mlp_backward(g, z, layers, steps)

    return tz.record(out, (z, *chain(*layers)), bwd)


def attention_pool(states: Tensor, pool: Sequence[AffineParams], slope: float) -> Tensor:
    """Collapse node states into one graph vector via learned softmax weights.

    The pool MLP scores each node, a softmax over the nodes turns the scores
    into weights, and the result is the weighted sum of the rows of
    ``states``. ``states`` is listed twice among the node's inputs, for the
    sum and for the MLP path.
    """
    h = states.values
    z, steps = _mlp_forward(h, pool, slope)
    t = z.T.copy()
    e = np.exp(t - t.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)  # (1, n)

    def bwd(g: np.ndarray):
        g_weights = g @ h.T
        g_t = weights * (g_weights - (g_weights * weights).sum(axis=1, keepdims=True))
        return (weights.T @ g if states.requires_grad else None,
                *_mlp_backward(g_t.T, states, pool, steps))

    return tz.record(weights @ h, (states, states, *chain(*pool)), bwd)


def _encode_properties(props: Sequence[PropertyKind], config: ModelConfig) -> Tensor:
    """One row per property kind: its code, or its one-hot row."""
    codes = [prop.encode() for prop in props]
    if config.property_encoding == "scalar":
        return tz.constant([[float(code)] for code in codes])
    rows = np.zeros((len(codes), NUM_PROPERTIES))
    rows[np.arange(len(codes)), codes] = 1.0
    return tz.constant(rows)


@dataclass(frozen=True, eq=False)
class ModelInput:
    """One graph, or the disjoint union of several, as the model reads it;
    built by :func:`prepare_input` or :func:`union_input`.

    It serves every forward pass of a model with the same edge sets and
    vocabulary size, whatever its parameter values. Graph k owns the node
    rows ``bounds[k]:bounds[k + 1]``.
    """

    graphs: tuple[ProgramGraph, ...]
    states: Tensor                # constant one-hot node kinds, n x |T|
    edges: np.ndarray             # (src, dst) rows of the enabled edge sets
    index: EdgeIndex              # those edges plus one self-loop per node
    edge_sets: tuple[str, ...]    # the enabled edge sets
    bounds: tuple[int, ...]       # first node of each graph, then n


def prepare_input(graph: ProgramGraph, params: ModelParameters) -> ModelInput:
    """The model input for ``graph`` under ``params``' edge sets and vocabulary."""
    return union_input([graph], params)


def union_input(graphs: Sequence[ProgramGraph], params: ModelParameters) -> ModelInput:
    """The model input for the disjoint union of ``graphs``, in order: each
    graph's nodes follow the earlier graphs' nodes, and its edges are offset
    by its first node.

    The index's keys ``dst * n + src`` sort each graph's edges as its own
    index does, so every receiver has the same senders in the same order.
    """
    kinds, edges, bounds = [], [], [0]
    edge_sets = params.config.edge_sets
    for graph in graphs:
        if graph.num_nodes == 0:
            raise EmptyGraph(f"graph {graph.id} has no nodes")
        kinds.append(np.asarray(graph.node_kinds, dtype=np.intp))
        if kinds[-1].min() < 0 or kinds[-1].max() >= params.vocab_size:
            raise VocabMismatch(
                f"graph {graph.id} has kind indices outside |T|={params.vocab_size}"
            )
        edges.append(edge_pairs(graph, edge_sets) + bounds[-1])
        bounds.append(bounds[-1] + graph.num_nodes)
    n = bounds[-1]
    onehot = np.zeros((n, params.vocab_size))
    onehot[np.arange(n), np.concatenate(kinds)] = 1.0
    edges = np.concatenate(edges)
    return ModelInput(tuple(graphs), tz.constant(onehot), edges, EdgeIndex(n, edges),
                      edge_sets, tuple(bounds))


def _checked_input(graph: ProgramGraph | ModelInput, params: ModelParameters) -> ModelInput:
    """``graph`` if it is an input prepared for ``params``' edge sets and
    vocabulary size, else a new input for it."""
    inp = graph if isinstance(graph, ModelInput) else prepare_input(graph, params)
    config = params.config
    if inp.edge_sets != config.edge_sets or inp.states.shape[1] != params.vocab_size:
        raise ValueError(
            f"input for graph {inp.graphs[0].id} was prepared for edge sets "
            f"{inp.edge_sets} and |T|={inp.states.shape[1]}, the model reads "
            f"{config.edge_sets} and |T|={params.vocab_size}"
        )
    return inp


def _pool(states: Tensor, bounds: tuple[int, ...], pool: Sequence[AffineParams],
          slope: float) -> Tensor:
    """One pooled row per graph: :func:`attention_pool` over each graph's rows.

    A union's rows are read as constants, so its pass must record nothing.
    """
    if len(bounds) == 2:
        return attention_pool(states, pool, slope)
    if states.requires_grad or any(t.requires_grad for t in chain(*pool)):
        raise ValueError("a union of graphs runs on parameters that record nothing")
    return tz.constant(np.concatenate([
        attention_pool(tz.constant(states.values[a:b]), pool, slope).values
        for a, b in zip(bounds, bounds[1:])]))


def _scores(inp: ModelInput, params: ModelParameters, prop_rows: Tensor,
            message_mask: Tensor | None, first: Attention | None = None) -> Tensor:
    """GAT layers, jumping knowledge, pooling of each graph, and the head over
    the pooled rows and ``prop_rows``; ``first`` is layer 0's
    :func:`_gat_attention` when the caller holds it."""
    slope = params.config.leaky_slope
    outputs = [inp.states]
    for i, layer in enumerate(params.gat):
        if i == 0 and first is not None:
            outputs.append(_gat_node(outputs[-1], inp.index, layer, first, message_mask))
        else:
            outputs.append(gat_layer(outputs[-1], inp.edges, layer, slope=slope,
                                     message_mask=message_mask, allowed_mask=inp.index))
    collected = jumping_knowledge(outputs, params.config.jumping_knowledge)
    pooled = _pool(collected, inp.bounds, params.pool, slope)
    return _mlp(tz.concat_cols([pooled, prop_rows]), params.head, slope)


def forward_scores(
    graph: ProgramGraph | ModelInput,
    params: ModelParameters,
    *,
    prop: PropertyKind | None = None,
    message_mask: Tensor | None = None,
) -> Tensor:
    """Score rows (one per graph, portfolio size wide) as a differentiable tensor.

    ``graph`` is a prepared :class:`ModelInput`, or a bare graph that is
    prepared here; ``prop``, when given, stands for every graph's property.
    """
    inp = _checked_input(graph, params)
    props = _encode_properties([prop or g.property for g in inp.graphs], params.config)
    return _scores(inp, params, props, message_mask)


class MaskScorer:
    """``forward_scores(inp, params, message_mask=mask)`` per mask (or None),
    with the work no mask can change done once, when it is built.

    That work is layer 0's attention (its input, the one-hot node kinds, is
    constant) and the property row. The attention keeps that layer's sender
    features gathered per edge (E x width), which every call reads, forward
    and backward, where a layer would gather them block by block. Layers 1
    and up run through :func:`gat_layer`. The explainer builds one per
    ``explain`` call over the frozen view and takes its target from the
    unmasked call; the scores are valid while the parameter values stay as
    they were when it was built.
    """

    def __init__(self, inp: ModelInput, params: ModelParameters):
        self.inp = inp = _checked_input(inp, params)
        self.params = params
        self.first = None
        if params.gat:
            first = _gat_attention(inp.states.values, inp.index, params.gat[0],
                                   params.config.leaky_slope)
            self.first = first._replace(gathered=first.xout.take(inp.index.senders.ids, axis=0))
        self.prop = _encode_properties([g.property for g in inp.graphs], params.config)

    def __call__(self, message_mask: Tensor | None) -> Tensor:
        return _scores(self.inp, self.params, self.prop, message_mask, self.first)


# The most nodes predict_many puts in one union of graphs; a larger graph
# runs alone. The measured crossover is in predict_many's docstring.
BATCH_MAX_NODES = 1024


def _batches(graphs: Sequence[ProgramGraph]) -> list[list[ProgramGraph]]:
    """``graphs`` in order, cut into runs of at most :data:`BATCH_MAX_NODES`
    nodes; a larger graph is a run of its own."""
    batches: list[list[ProgramGraph]] = []
    nodes = 0
    for graph in graphs:
        if not batches or nodes + graph.num_nodes > BATCH_MAX_NODES:
            batches.append([])
            nodes = 0
        batches[-1].append(graph)
        nodes += graph.num_nodes
    return batches


def predict_many(
    graphs: Sequence[ProgramGraph],
    params: ModelParameters,
    *,
    prop: PropertyKind | None = None,
    vocab: TokenVocabulary | None = None,
) -> list[RankingResult]:
    """Rank the portfolio for each graph, in order, on ``params.frozen``
    (nothing is recorded), with one forward per union of graphs.

    The graphs are packed in order into disjoint unions of at most
    :data:`BATCH_MAX_NODES` nodes (:func:`union_input`). A union runs the GAT
    layers and jumping knowledge once, pools each graph's rows with
    :func:`attention_pool`, and runs the head once over the stacked rows.
    Batched scores agree with one-graph passes to within rounding (a product
    over more rows can round differently in the last bit); a batch of one
    runs the operations of a one-graph pass, bit for bit.

    The budget is the measured crossover, README example model, one core of a
    shared 2-vCPU virtual machine, medians of 15-30 calls. On small graphs a
    forward's ~85 numpy calls cost more than their arithmetic, and a union
    shares them: 160 graphs of 20-300 nodes took 93 ms one by one, 65 ms in
    unions of at most 512 nodes, 57 ms at 1,024, and 57-59 ms at 1,536 to
    8,192. Wide arrays lose to cache misses instead: one union of 5 graphs
    of 478-1,102 nodes took 13.2 ms against 12.8 ms one by one. So 12
    graphs of 64-206 nodes take 4.5 ms in 2 unions against 7.0-7.4 ms, and
    a graph of more than 1,024 nodes runs alone.
    """
    if vocab is not None and vocab.fingerprint() != params.vocab_fingerprint:
        raise VocabMismatch("vocabulary fingerprint differs from the model's")
    frozen = params.frozen
    results = []
    for batch in _batches(graphs):
        scores = forward_scores(union_input(batch, frozen), frozen, prop=prop)
        for graph, row in zip(batch, scores.values):
            flat = tuple(float(v) for v in row)
            results.append(RankingResult(graph.id, flat, ordering_from_scores(flat)))
    return results


def predict(
    graph: ProgramGraph,
    params: ModelParameters,
    *,
    prop: PropertyKind | None = None,
    vocab: TokenVocabulary | None = None,
) -> RankingResult:
    """Rank the portfolio for one graph: :func:`predict_many`'s batch of one."""
    return predict_many([graph], params, prop=prop, vocab=vocab)[0]


# ---------------------------------------------------------------------------
# pairwise margin ranking loss


def _ranking_pairs(labels: Sequence[float]) -> list[tuple[int, int]]:
    k = len(labels)
    return [(a, b) for a in range(k) for b in range(k) if labels[a] > labels[b]]


def margin_rank_loss_t(scores: Tensor, labels: Sequence[float],
                       margin: float = DEFAULT_MARGIN) -> Tensor:
    """Mean hinge over ordered pairs; differentiable in ``scores``, as one
    tape node (a constant zero when no label beats another)."""
    k = scores.shape[1]
    if scores.shape[0] != 1 or k != len(labels) or k < 2:
        raise LengthMismatch(
            f"scores {scores.shape} vs {len(labels)} labels (need >= 2)"
        )
    pairs = _ranking_pairs(labels)
    if not pairs:
        return tz.constant([[0.0]])
    diff = np.zeros((k, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        diff[a, col] = 1.0
        diff[b, col] = -1.0
    shortfall = (scores.values @ diff) * -1.0 + float(margin)
    active = np.where(shortfall >= 0.0, 1.0, 0.0)
    scale = 1.0 / len(pairs)

    def bwd(g: np.ndarray):
        g_hinge = np.full(shortfall.shape, (g * scale)[0, 0]) * active
        return ((g_hinge * -1.0) @ diff.T,)

    return tz.record((shortfall * active).sum().reshape(1, 1) * scale, (scores,), bwd)


# ---------------------------------------------------------------------------
# model container (binary, versioned)


def _check_finite(params: ModelParameters, error: type[Exception]) -> None:
    """Raise ``error`` naming the first block that holds a NaN or an infinity."""
    if not np.isfinite(params.vector).all():
        name = next(name for (name, *_), t in zip(params._layout(), params.trainables())
                    if not np.isfinite(t.values).all())
        raise error(f"parameter block {name}: non-finite value")


def save_model(params: ModelParameters, path: str | Path) -> None:
    _check_finite(params, ValueError)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(params.config),
        "portfolio": list(params.portfolio),
        "vocab_fingerprint": params.vocab_fingerprint,
        "vocab_size": params.vocab_size,
    }
    chunks = [json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
    for (name, _, _, transposed), t in zip(params._layout(), params.trainables()):
        blob = name.encode("utf-8")
        values = t.values.T if transposed else t.values
        chunks += [struct.pack("<I", len(blob)), blob, struct.pack("<II", *values.shape),
                   np.ascontiguousarray(values, dtype="<f8").tobytes()]
    Path(path).write_bytes(b"".join(chunks))


# TokenVocabulary.fingerprint: a sha256 hex digest
_FINGERPRINT = ConfigKey("a string", lambda v: type(v) is str, "64 lowercase hex digits",
                         lambda v: len(v) == 64 and set(v) <= set("0123456789abcdef"))


def load_model(path: str | Path) -> ModelParameters:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise ModelFormatError("missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ModelFormatError(f"bad header: {err}") from err
    if not isinstance(header, dict):
        raise ModelFormatError("bad header: not a JSON object")
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version: {version!r}")
    try:
        config = ModelConfig(**read_config({"model": header["config"]})["model"])
        portfolio = config_value("portfolio", header["portfolio"])
        fingerprint = config_value("vocab_fingerprint", header["vocab_fingerprint"],
                                   _FINGERPRINT)
        vocab_size = config_value("vocab_size", header["vocab_size"], at_least(1))
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"bad header: {err}") from err

    offset = newline + 1

    def take(name: str, shape: tuple[int, int], _: int) -> np.ndarray:
        nonlocal offset  # the next block must be the layout's ``name`` of ``shape``
        where = f"parameter block {name}"
        try:
            (size,) = struct.unpack_from("<I", data, offset)
            found = data[offset + 4:offset + 4 + size].decode("utf-8")
            rows, cols = struct.unpack_from("<II", data, offset + 4 + size)
            values = np.frombuffer(data, "<f8", rows * cols, offset + 12 + size)
        except (struct.error, ValueError, OverflowError) as err:
            problem = "missing" if offset == len(data) else f"corrupt or truncated: {err}"
            raise ModelFormatError(f"{where}: {problem}") from err
        if found != name:
            raise ModelFormatError(f"{where}: found {found}")
        if (rows, cols) != shape:
            raise ModelFormatError(f"{where}: shape {(rows, cols)}, config needs {shape}")
        offset += 12 + size + values.nbytes
        return values.reshape(shape)

    params = _from_blocks(config, portfolio, fingerprint, vocab_size, take)
    if offset != len(data):
        raise ModelFormatError(f"{len(data) - offset} bytes after the last parameter block")
    _check_finite(params, ModelFormatError)
    return params
