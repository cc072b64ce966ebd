"""Graph attention ranker: GAT layers, jumping knowledge, attention pooling,
and the verifier-scoring head.

Message passing runs over an edge list: the enabled edge sets plus one
self-loop per node, each pair once. For an edge (j -> i) the unnormalized
attention score is ``leaky_relu(attn . [W_in h_i || W_out h_j])``; scores are
softmax-normalized over each node's incoming edges and weight the messages
``W_out h_j``. One forward pass serves inference, training, and the
edge-mask explainer (which supplies a multiplier per edge for the normalized
attention weights).

Each GAT layer (:func:`gat_layer`) and each affine layer (``tz.linear``) is
one node on the autodiff tape, because on small graphs a training step costs
more bookkeeping than arithmetic. A fused node runs the same operations as
the primitive chain it replaced, in the same order, and its gradients reach
``tz.backward`` in the chain's accumulation order, so scores, gradients and
saved models are bit-identical to the chain's (kept as the test oracle).

A graph reaches the model as a :class:`ModelInput`: its one-hot node states,
the (src, dst) pairs of the enabled edge sets and their :class:`EdgeIndex`,
built once by :func:`prepare_input` and reused by every pass over that graph
(training steps, validation, explainer iterations). The trainable parameters
are views into one float64 vector (:attr:`ModelParameters.vector`), so an
optimizer updates them all at once and a snapshot is one array copy.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as tz
from .graphio import (
    EDGE_SET_NAMES,
    NUM_PROPERTIES,
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    ordering_from_scores,
    portfolio_names,
)
from .tensor import Tensor

MODEL_FORMAT_VERSION = 1


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
    num_gat_layers: int = 1
    edge_sets: tuple[str, ...] = EDGE_SET_NAMES
    jumping_knowledge: bool = True
    gat_width: int = 32
    pool_hidden: tuple[int, ...] = (64, 12)
    head_hidden: tuple[int, ...] | None = None  # None: (d_in, d_in // 2)
    property_encoding: str = "scalar"  # scalar | onehot
    leaky_slope: float = 0.2

    def __post_init__(self):
        if not self.head_hidden:  # no hidden widths given: the default shape
            object.__setattr__(self, "head_hidden", None)
        if not 0 <= self.num_gat_layers <= 5:
            raise ValueError("num_gat_layers must be in 0..5")
        bad = set(self.edge_sets) - set(EDGE_SET_NAMES)
        if bad:
            raise ValueError(f"unknown edge sets: {sorted(bad)}")
        if len(set(self.edge_sets)) != len(self.edge_sets):
            raise ValueError("edge_sets must not repeat")
        if self.property_encoding not in ("scalar", "onehot"):
            raise ValueError("property_encoding must be 'scalar' or 'onehot'")
        if any(w < 1 for w in (self.gat_width, *self.pool_hidden, *(self.head_hidden or ()))):
            raise ValueError("widths must be positive")
        if type(self.leaky_slope) not in (int, float):
            raise ValueError(f"leaky_slope must be a number, got {self.leaky_slope!r}")

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

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        kwargs = dict(data)
        for key in ("edge_sets", "pool_hidden", "head_hidden"):
            if isinstance(kwargs.get(key), str):
                raise ValueError(f"{key} must be a list, not a string")
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class GatLayerParams:
    w_in: Tensor   # (d_out, d_in), attention transform of the receiver
    w_out: Tensor  # (d_out, d_in), sender transform carried by messages
    attn: Tensor   # (2 * d_out, 1)


@dataclass
class AffineParams:
    w: Tensor  # (out, in)
    b: Tensor  # (1, out)


@dataclass(eq=False)
class ModelParameters:
    """Model metadata plus every trainable as a view into ``vector``.

    The views are reshaped slices of the one float64 ``vector``, laid out in
    :meth:`named` order; writing to a view's ``values`` writes the vector.
    """

    config: ModelConfig
    portfolio: tuple[str, ...]
    vocab_fingerprint: str
    vocab_size: int
    vector: np.ndarray
    gat: list[GatLayerParams] = field(init=False)
    pool: list[AffineParams] = field(init=False)
    head: list[AffineParams] = field(init=False)
    _views: dict[str, Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        self._views = {}
        offset = 0
        for name, (rows, cols), _ in _parameter_layout(
                self.config, self.vocab_size, len(self.portfolio)):
            block = self.vector[offset:offset + rows * cols].reshape(rows, cols)
            self._views[name] = Tensor(block, requires_grad=True)
            offset += rows * cols
        if self.vector.shape != (offset,) or self.vector.dtype != np.float64:
            raise ValueError(f"parameters need a float64 vector of {offset} values")
        layers: dict[str, list[list[Tensor]]] = {"gat": [], "pool": [], "head": []}
        for layer, group in groupby(self._views.items(), key=lambda kv: kv[0].split(".")[0]):
            layers[layer.rstrip("0123456789")].append([t for _, t in group])
        self.gat = [GatLayerParams(*tensors) for tensors in layers["gat"]]
        self.pool = [AffineParams(*tensors) for tensors in layers["pool"]]
        self.head = [AffineParams(*tensors) for tensors in layers["head"]]

    def named(self) -> list[tuple[str, Tensor]]:
        return list(self._views.items())

    def trainables(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def zero_grad(self) -> None:
        for t in self.trainables():
            t.zero_grad()

    def copy(self) -> "ModelParameters":
        return replace(self, vector=self.vector.copy())


def _parameter_layout(config: ModelConfig, vocab_size: int, portfolio_size: int
                      ) -> list[tuple[str, tuple[int, int], int]]:
    """(name, shape, fan-in) of every trainable, in the order of ``vector``.

    A name is ``<layer>.<parameter>``, and each layer lists its parameters in
    the field order of :class:`GatLayerParams` or :class:`AffineParams`.
    """
    layout = []
    d_in = vocab_size
    for i in range(config.num_gat_layers):
        d_out = config.gat_width
        layout += [(f"gat{i}.w_in", (d_out, d_in), d_in),
                   (f"gat{i}.w_out", (d_out, d_in), d_in),
                   (f"gat{i}.attn", (2 * d_out, 1), 2 * d_out)]
        d_in = d_out

    def affine(prefix: str, dims: Sequence[int]) -> None:
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            layout.extend([(f"{prefix}{i}.w", (b, a), a), (f"{prefix}{i}.b", (1, b), a)])

    node_dim = config.node_dim(vocab_size)
    affine("pool", [node_dim, *config.pool_hidden, 1])
    head_in = node_dim + config.property_dim
    hidden = config.head_hidden or (head_in, max(1, head_in // 2))
    affine("head", [head_in, *hidden, portfolio_size])
    return layout


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
    """Fresh parameters, uniform in +-1/sqrt(fan_in) from a seeded generator."""
    portfolio = portfolio_names(portfolio)
    rng = np.random.default_rng(seed)
    parts = []
    for _, shape, fan_in in _parameter_layout(config, len(vocab), len(portfolio)):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=shape).ravel())
    return ModelParameters(
        config=config,
        portfolio=portfolio,
        vocab_fingerprint=vocab.fingerprint(),
        vocab_size=len(vocab),
        vector=np.concatenate(parts),
    )


# ---------------------------------------------------------------------------
# forward pass


def edge_pairs(graph: ProgramGraph, edge_sets: Sequence[str]) -> np.ndarray:
    """The (src, dst) pairs of the enabled edge sets as rows, repeats kept."""
    pairs = chain.from_iterable(graph.edge_sets.get(name, ()) for name in edge_sets)
    return np.fromiter(chain.from_iterable(pairs), dtype=np.intp).reshape(-1, 2)


class EdgeIndex:
    """The edges attention runs over, as sorted keys ``dst * n + src``.

    Each (src, dst) pair is listed once, plus one self-loop per node (a
    graph's own (i, i) edge merges into it). Sorting by receiver gives every
    node a non-empty run both as a receiver and as a sender. :meth:`slots`
    maps (src, dst) rows to their positions in ``keys`` once, and
    :meth:`message_mask` turns per-row keep scores at those slots into
    per-edge attention multipliers.
    """

    def __init__(self, num_nodes: int, pairs: np.ndarray):
        self.num_nodes = num_nodes
        loops = np.arange(num_nodes, dtype=np.intp) * (num_nodes + 1)
        keys = np.sort(np.concatenate([loops, self._keys(pairs)]))
        self.keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        dst, src = np.divmod(self.keys, num_nodes)
        self.senders = tz.Segments(src, num_nodes)
        self.receivers = tz.Segments(dst, num_nodes)

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

        Keeps sharing a slot multiply; keeps at slot E are ignored.
        """
        e = len(self.keys)
        summed = tz.scatter(tz.log(keep), slots, np.zeros_like(slots), (e + 1, 1))
        return tz.slice_rows(tz.exp(summed), 0, e)


def gat_layer(
    states: Tensor,
    edges: np.ndarray | Sequence[tuple[int, int]],
    params: GatLayerParams,
    *,
    slope: float = 0.2,
    message_mask: Tensor | None = None,
    allowed_mask: EdgeIndex | None = None,
) -> Tensor:
    """One attention layer over ``edges`` (src, dst) plus a self-loop per node.

    ``allowed_mask`` is the :class:`EdgeIndex` of those edges, the pairs that
    attention may use; it is built here when the caller has none, and
    ``forward_scores`` builds it once for all layers. ``message_mask`` (E x 1,
    aligned with that index) scales the attention weights.

    The layer is one tape node. Forward and backward run the operations of
    the primitive chain it replaced (kept as ``tape_gat_layer`` in the test
    helpers) in the same order. ``states`` is listed twice among the node's
    inputs, for the receiver and the sender path, so that ``tz.backward``
    adds those two gradients to the other contributions as the chain did.
    """
    index = EdgeIndex(states.shape[0], edges) if allowed_mask is None else allowed_mask
    recv, send = index.receivers, index.senders
    w_in, w_out, attn = params.w_in, params.w_out, params.attn
    d_out = w_in.shape[0]
    h = states.values
    if h.shape[1] != w_in.shape[1] or (message_mask is not None
                                       and message_mask.shape != (len(index.keys), 1)):
        raise tz.ShapeError(f"gat_layer: states {h.shape} vs w_in {w_in.shape}, "
                            f"or a mask that is not one column of {len(index.keys)} rows")
    wt_in = w_in.values.T.copy()
    wt_out = w_out.values.T.copy()
    xin = h @ wt_in    # receiver features
    xout = h @ wt_out  # sender features
    a_in = attn.values[:d_out].copy()
    a_out = attn.values[d_out:].copy()
    # score of the edge (j -> i) is leaky_relu(s_in[i] + s_out[j])
    raw = (xin @ a_in)[recv.ids] + (xout @ a_out)[send.ids]
    slopes = np.where(raw >= 0.0, 1.0, float(slope))
    scores = raw * slopes
    e = np.exp(scores - recv.reduce(np.maximum, scores)[recv.ids])
    weights = e / recv.reduce(np.add, e)[recv.ids]  # softmax over each receiver
    mask = None if message_mask is None else message_mask.values
    scaled = weights if mask is None else weights * mask
    gathered = xout[send.ids]

    def bwd(g: np.ndarray):
        need_h = states.requires_grad
        need_xin = need_h or w_in.requires_grad
        need_xout = need_h or w_out.requires_grad
        need_scores = need_xin or need_xout or attn.requires_grad
        need_mask = message_mask is not None and message_mask.requires_grad
        g_msg = g[recv.ids]
        g_gathered = g_msg * scaled if need_xout else None
        g_scaled = None
        if need_scores or need_mask:
            g_scaled = g_msg * gathered
            if g_scaled.shape[1] > 1:  # a one-wide product is its own row sum
                g_scaled = g_scaled.sum(axis=1, keepdims=True)
        g_mask = g_scaled * weights if need_mask else None
        if not need_scores:
            return None, None, None, None, None, g_mask
        g_weights = g_scaled if mask is None else g_scaled * mask
        g_scores = weights * (g_weights - recv.reduce(np.add, g_weights * weights)[recv.ids])
        g_raw = g_scores * slopes
        g_s_in = recv.reduce(np.add, g_raw)
        g_s_out = send.reduce(np.add, g_raw)
        g_xin = g_s_in @ a_in.T if need_xin else None
        g_xout = send.reduce(np.add, g_gathered) + g_s_out @ a_out.T if need_xout else None
        g_attn = None
        if attn.requires_grad:  # the sum of the two halves, each zero-padded
            top, bottom = np.zeros(attn.shape), np.zeros(attn.shape)
            top[:d_out] = xin.T @ g_s_in
            bottom[d_out:] = xout.T @ g_s_out
            g_attn = top + bottom
        return (g_xin @ wt_in.T if need_h else None,
                g_xout @ wt_out.T if need_h else None,
                (h.T @ g_xin).T if w_in.requires_grad else None,
                (h.T @ g_xout).T if w_out.requires_grad else None,
                g_attn, g_mask)

    inputs = (states, states, w_in, w_out, attn)
    if message_mask is not None:
        inputs += (message_mask,)
    return tz.record(recv.reduce(np.add, gathered * scaled), inputs, bwd)


def jumping_knowledge(layer_outputs: Sequence[Tensor], enabled: bool = True) -> Tensor:
    """Concatenate per-layer node states column-wise (or keep the last)."""
    if not layer_outputs:
        raise tz.ShapeError("jumping_knowledge: no layer outputs")
    rows = layer_outputs[0].shape[0]
    if any(t.shape[0] != rows for t in layer_outputs):
        raise tz.ShapeError(
            f"jumping_knowledge: node counts differ "
            f"{[t.shape for t in layer_outputs]}"
        )
    if not enabled or len(layer_outputs) == 1:
        return layer_outputs[-1]
    return tz.concat_cols(list(layer_outputs))


def _mlp(z: Tensor, layers: Sequence[AffineParams], slope: float) -> Tensor:
    """Affine layers in order, with a leaky ReLU between consecutive ones."""
    for i, layer in enumerate(layers):
        z = tz.linear(z, layer.w, layer.b)
        if i + 1 < len(layers):
            z = tz.leaky_relu(z, slope)
    return z


def pool_weights(states: Tensor, pool: Sequence[AffineParams],
                 slope: float = 0.2) -> Tensor:
    """Softmax-normalized per-node pooling weights, shape (1, n)."""
    if states.shape[0] < 1:
        raise EmptyGraph("attention pooling needs at least one node")
    return tz.softmax_rows(tz.transpose(_mlp(states, pool, slope)))


def attention_pool(states: Tensor, pool: Sequence[AffineParams],
                   slope: float = 0.2) -> Tensor:
    """Collapse node states into one graph vector via learned softmax weights."""
    return tz.matmul(pool_weights(states, pool, slope), states)


def _encode_property(prop: PropertyKind, config: ModelConfig) -> Tensor:
    if config.property_encoding == "scalar":
        return tz.constant([[float(prop.encode())]])
    row = np.zeros((1, NUM_PROPERTIES))
    row[0, prop.encode()] = 1.0
    return tz.constant(row)


@dataclass(frozen=True, eq=False)
class ModelInput:
    """One graph as the model reads it; built by :func:`prepare_input`.

    It serves every forward pass of a model with the same edge sets and
    vocabulary size, whatever its parameter values.
    """

    graph: ProgramGraph
    states: Tensor                # constant one-hot node kinds, n x |T|
    edges: np.ndarray             # (src, dst) rows of the enabled edge sets
    index: EdgeIndex              # those edges plus one self-loop per node
    edge_sets: tuple[str, ...]    # the enabled edge sets


def prepare_input(graph: ProgramGraph, params: ModelParameters) -> ModelInput:
    """The model input for ``graph`` under ``params``' edge sets and vocabulary."""
    n = graph.num_nodes
    if n == 0:
        raise EmptyGraph(f"graph {graph.id} has no nodes")
    kinds = np.asarray(graph.node_kinds, dtype=np.intp)
    if kinds.min() < 0 or kinds.max() >= params.vocab_size:
        raise VocabMismatch(
            f"graph {graph.id} has kind indices outside |T|={params.vocab_size}"
        )
    onehot = np.zeros((n, params.vocab_size))
    onehot[np.arange(n), kinds] = 1.0
    edge_sets = params.config.edge_sets
    edges = edge_pairs(graph, edge_sets)
    return ModelInput(graph, tz.constant(onehot), edges, EdgeIndex(n, edges), edge_sets)


def forward_scores(
    graph: ProgramGraph | ModelInput,
    params: ModelParameters,
    *,
    prop: PropertyKind | None = None,
    message_mask: Tensor | None = None,
) -> Tensor:
    """Score vector (1, portfolio size) as a differentiable tensor.

    ``graph`` is a prepared :class:`ModelInput`, or a bare graph that is
    prepared here.
    """
    inp = graph if isinstance(graph, ModelInput) else prepare_input(graph, params)
    config = params.config
    if inp.edge_sets != config.edge_sets or inp.states.shape[1] != params.vocab_size:
        raise ValueError(
            f"input for graph {inp.graph.id} was prepared for edge sets "
            f"{inp.edge_sets} and |T|={inp.states.shape[1]}, the model reads "
            f"{config.edge_sets} and |T|={params.vocab_size}"
        )
    outputs = [inp.states]
    for layer in params.gat:
        outputs.append(gat_layer(
            outputs[-1], inp.edges, layer,
            slope=config.leaky_slope,
            message_mask=message_mask,
            allowed_mask=inp.index,
        ))
    collected = jumping_knowledge(outputs, config.jumping_knowledge)
    graph_vec = attention_pool(collected, params.pool, config.leaky_slope)
    prop_vec = _encode_property(prop or inp.graph.property, config)
    return _mlp(tz.concat_cols([graph_vec, prop_vec]), params.head, config.leaky_slope)


def predict(
    graph: ProgramGraph,
    params: ModelParameters,
    *,
    prop: PropertyKind | None = None,
    vocab: TokenVocabulary | None = None,
) -> RankingResult:
    """Rank the portfolio for one graph (inference only, no gradients)."""
    if vocab is not None and vocab.fingerprint() != params.vocab_fingerprint:
        raise VocabMismatch("vocabulary fingerprint differs from the model's")
    with tz.no_grad():
        scores = forward_scores(graph, params, prop=prop)
    flat = tuple(float(v) for v in scores.values[0])
    return RankingResult(graph.id, flat, ordering_from_scores(flat))


# ---------------------------------------------------------------------------
# pairwise margin ranking loss


def _ranking_pairs(labels: Sequence[float]) -> list[tuple[int, int]]:
    k = len(labels)
    return [(a, b) for a in range(k) for b in range(k) if labels[a] > labels[b]]


def margin_rank_loss_t(scores: Tensor, labels: Sequence[float],
                       margin: float = 1.0) -> Tensor:
    """Mean hinge over ordered pairs; differentiable in ``scores``."""
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
    separations = tz.matmul(scores, tz.constant(diff))
    hinge = tz.relu(tz.add(tz.scalar_mul(separations, -1.0),
                           tz.constant([[float(margin)]])))
    return tz.mean_all(hinge)


# ---------------------------------------------------------------------------
# model container (binary, versioned)


def save_model(params: ModelParameters, path: str | Path) -> None:
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(params.config),
        "portfolio": list(params.portfolio),
        "vocab_fingerprint": params.vocab_fingerprint,
        "vocab_size": params.vocab_size,
    }
    chunks = [json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
    for name, t in params.named():
        blob = name.encode("utf-8")
        rows, cols = t.shape
        chunks.append(struct.pack("<I", len(blob)))
        chunks.append(blob)
        chunks.append(struct.pack("<II", rows, cols))
        chunks.append(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_model(path: str | Path) -> ModelParameters:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise ModelFormatError("missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelFormatError(f"bad header: {err}") from err
    if not isinstance(header, dict):
        raise ModelFormatError("bad header: not a JSON object")
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version: {version!r}")
    try:
        config = ModelConfig.from_dict(header["config"])
        portfolio = portfolio_names(header["portfolio"])
        fingerprint = header["vocab_fingerprint"]
        vocab_size = int(header["vocab_size"])
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"bad header: {err}") from err

    blocks: dict[str, np.ndarray] = {}
    offset = newline + 1
    while offset < len(data):
        try:
            (name_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            name = data[offset:offset + name_len].decode("utf-8")
            offset += name_len
            rows, cols = struct.unpack_from("<II", data, offset)
            offset += 8
            count = rows * cols
            values = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            offset += count * 8
        except (struct.error, ValueError, UnicodeDecodeError) as err:
            raise ModelFormatError(f"corrupt parameter block: {err}") from err
        blocks[name] = values.reshape(rows, cols)

    parts = []
    for name, shape, _ in _parameter_layout(config, vocab_size, len(portfolio)):
        if name not in blocks:
            raise ModelFormatError(f"missing parameter block: {name}")
        block = blocks.pop(name)
        if block.shape != shape:
            raise ModelFormatError(
                f"parameter block {name}: shape {block.shape}, config needs {shape}")
        parts.append(block.ravel())
    if blocks:
        raise ModelFormatError(f"unexpected parameter blocks: {sorted(blocks)}")
    return ModelParameters(
        config=config,
        portfolio=portfolio,
        vocab_fingerprint=fingerprint,
        vocab_size=vocab_size,
        vector=np.concatenate(parts).astype(np.float64, copy=False),
    )
