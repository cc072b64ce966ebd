"""Shared builders for randomized test inputs and independent oracles."""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict, deque
from typing import NamedTuple, Sequence

import numpy as np

from verisel import tensor as tz
from verisel.explain import maskable_edges
from verisel.frontend import cfg as cfg_module
from verisel.frontend.cfg import (
    ControlEdges,
    _callee_name,
    _FunctionWiring,
    function_definitions,
    owned_expr_roots,
)
from verisel.frontend.lexer import KEYWORDS, OPERATORS, PUNCTUATION, LexError, Token
from verisel.frontend.parser import (
    _BINARY_LEVEL,
    _BINARY_TIERS,
    ASSIGN_OPS,
    QUALIFIERS,
    TYPE_KEYWORDS,
    UNARY_OPS,
    UNSUPPORTED_KEYWORDS,
    Ast,
    AstNode,
    ParseError,
    UnsupportedConstruct,
    _N,
    _Parser,
)
from verisel.graphio import EDGE_SET_NAMES, ProgramGraph, PropertyKind, SchemaError
from verisel.model import (
    LengthMismatch,
    ModelInput,
    _encode_property,
    jumping_knowledge,
    margin_rank_loss_t,
    prepare_input,
)
from verisel.trainer import PlateauSchedule


def random_graph(rng: np.random.Generator, *, max_nodes: int = 12,
                 vocab_size: int = 8, graph_id: str = "g") -> ProgramGraph:
    """A random valid ProgramGraph (no structural meaning, invariants hold)."""
    n = int(rng.integers(1, max_nodes + 1))
    kinds = [int(rng.integers(0, vocab_size)) for _ in range(n)]
    edge_sets = {}
    for name in EDGE_SET_NAMES:
        count = int(rng.integers(0, 2 * n))
        pairs = {
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(count)
        }
        edge_sets[name] = sorted(pairs)
    prop = list(PropertyKind)[int(rng.integers(0, 4))]
    return ProgramGraph(graph_id, prop, kinds, edge_sets)


def awkward_graph(rng: np.random.Generator, n: int, *,
                  vocab_size: int = 8) -> ProgramGraph:
    """A random graph with the cases edge lists must merge or keep apart.

    Every set holds the self-edge (0, 0), AST and DFG also share an edge
    leaving node 0, and when n > 1 the last node has no edge at all.
    """
    linked = max(1, n - 1)

    def pairs() -> set[tuple[int, int]]:
        count = int(rng.integers(0, 2 * linked))
        return {(int(rng.integers(0, linked)), int(rng.integers(0, linked)))
                for _ in range(count)}

    shared = (0, linked - 1)
    kinds = [int(rng.integers(0, vocab_size)) for _ in range(n)]
    return ProgramGraph("awkward", PropertyKind.TERMINATION, kinds, {
        "AST": sorted(pairs() | {shared, (0, 0)}),
        "ICFG": sorted(pairs() | {(0, 0)}),
        "DFG": sorted(pairs() | {shared, (0, 0)}),
    })


def random_permutation(rng: np.random.Generator, n: int) -> list[int]:
    perm = list(range(n))
    shuffled = rng.permutation(n)
    return [int(shuffled[i]) for i in perm]


# ---------------------------------------------------------------------------
# Character-at-a-time lexer oracle: the scanner that the single-pattern
# ``lexer.tokenize`` replaced. It steps one character at a time to track line
# and column and tries the operator spellings one ``startswith`` at a time.
# Only characters that are numeric but neither decimal digits nor letters
# (such as "²" or "½") lex differently: this scanner takes ``str.isdigit``
# characters as digits, the pattern takes all of them as identifier
# characters.


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.i = 0
        self.line = 1
        self.col = 1

    def peek(self, offset: int = 0) -> str:
        # NUL sentinel at EOF so membership tests on character sets stay false
        j = self.i + offset
        return self.src[j] if j < len(self.src) else "\0"

    def startswith(self, text: str) -> bool:
        return self.src.startswith(text, self.i)

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.src[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def run(self) -> list[Token]:
        tokens: list[Token] = []
        while self.i < len(self.src):
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "#" and self.col == 1:
                self.skip_line()
            elif self.startswith("//"):
                self.skip_line()
            elif self.startswith("/*"):
                self.skip_block_comment()
            elif _is_ident_start(ch):
                tokens.append(self.identifier())
            elif ch.isdigit() or (ch == "." and self.peek(1).isdigit()):
                tokens.append(self.number())
            elif ch == "'":
                tokens.append(self.quoted("'", "char"))
            elif ch == '"':
                tokens.append(self.quoted('"', "string"))
            else:
                tokens.append(self.operator_or_punct())
        return tokens

    def skip_line(self) -> None:
        while self.i < len(self.src) and self.peek() != "\n":
            self.advance()

    def skip_block_comment(self) -> None:
        line, col = self.line, self.col
        self.advance(2)
        while self.i < len(self.src) and not self.startswith("*/"):
            self.advance()
        if self.i >= len(self.src):
            raise LexError("unterminated comment", line, col)
        self.advance(2)

    def identifier(self) -> Token:
        start, line, col = self.i, self.line, self.col
        while self.i < len(self.src) and _is_ident(self.peek()):
            self.advance()
        text = self.src[start:self.i]
        return Token("kw" if text in KEYWORDS else "ident", text, line, col)

    def number(self) -> Token:
        start, line, col = self.i, self.line, self.col
        is_float = False
        if self.startswith("0x") or self.startswith("0X"):
            self.advance(2)
            while self.peek().lower() in "0123456789abcdef":
                self.advance()
        else:
            while self.peek().isdigit():
                self.advance()
            if self.peek() == ".":
                is_float = True
                self.advance()
                while self.peek().isdigit():
                    self.advance()
            if self.peek() in "eE":
                offset = 2 if self.peek(1) in "+-" else 1
                if self.peek(offset).isdigit():
                    is_float = True
                    self.advance(offset)
                    while self.peek().isdigit():
                        self.advance()
        while self.peek() in "uUlLfF":
            self.advance()
        return Token("float" if is_float else "int", self.src[start:self.i], line, col)

    def quoted(self, quote: str, kind: str) -> Token:
        start, line, col = self.i, self.line, self.col
        self.advance()
        while self.i < len(self.src) and self.peek() != quote:
            if self.peek() == "\\" and self.i + 1 < len(self.src):
                self.advance(2)
            else:
                self.advance()
        if self.i >= len(self.src):
            raise LexError(f"unterminated {kind} literal", line, col)
        self.advance()
        return Token(kind, self.src[start:self.i], line, col)

    def operator_or_punct(self) -> Token:
        for op in OPERATORS:
            if self.startswith(op):
                token = Token("op", op, self.line, self.col)
                self.advance(len(op))
                return token
        ch = self.peek()
        if ch in PUNCTUATION:
            token = Token("punct", ch, self.line, self.col)
            self.advance()
            return token
        raise LexError(f"illegal character {ch!r}", self.line, self.col)


def scan_tokenize(source: str) -> list[Token]:
    """``lexer.tokenize`` as the character-at-a-time scanner computes it."""
    return _Scanner(source).run()


# ---------------------------------------------------------------------------
# Tape primitives that ``src`` no longer calls: the model and the explainer
# replaced each chain of them with one fused node, and the chains, built in
# the tape oracle below, are what those nodes are checked against.


def matmul(a: tz.Tensor, b: tz.Tensor) -> tz.Tensor:
    if a.shape[1] != b.shape[0]:
        raise tz.ShapeError(f"matmul: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def bwd(g: np.ndarray):
        # no gradient for a constant operand: backward skips a None
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return tz.record(av @ bv, (a, b), bwd)


def add(a: tz.Tensor, b: tz.Tensor) -> tz.Tensor:
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
        raise tz.ShapeError(f"add: {a.shape} + {b.shape}")
    return tz.record(a.values + b.values, (a, b), bwd)


def sub(a: tz.Tensor, b: tz.Tensor) -> tz.Tensor:
    return add(a, scalar_mul(b, -1.0))


def scalar_mul(a: tz.Tensor, c: float) -> tz.Tensor:
    c = float(c)

    def bwd(g: np.ndarray):
        return (g * c,)

    return tz.record(a.values * c, (a,), bwd)


def elementwise_mul(a: tz.Tensor, b: tz.Tensor) -> tz.Tensor:
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
        raise tz.ShapeError(f"elementwise_mul: {a.shape} * {b.shape}")
    return tz.record(av * bv, (a, b), bwd)


def leaky_relu(a: tz.Tensor, slope: float = 0.2) -> tz.Tensor:
    mask = np.where(a.values >= 0.0, 1.0, float(slope))

    def bwd(g: np.ndarray):
        return (g * mask,)

    return tz.record(a.values * mask, (a,), bwd)


def relu(a: tz.Tensor) -> tz.Tensor:
    return leaky_relu(a, 0.0)


def log(a: tz.Tensor) -> tz.Tensor:
    av = a.values

    def bwd(g: np.ndarray):
        return (g / av,)

    return tz.record(np.log(av), (a,), bwd)


def exp(a: tz.Tensor) -> tz.Tensor:
    out = np.exp(a.values)

    def bwd(g: np.ndarray):
        return (g * out,)

    return tz.record(out, (a,), bwd)


def softmax_rows(a: tz.Tensor) -> tz.Tensor:
    """Row-wise softmax; each output row sums to 1."""
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return tz.record(out, (a,), bwd)


def sum_all(a: tz.Tensor) -> tz.Tensor:
    shape = a.shape

    def bwd(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    return tz.record(a.values.sum().reshape(1, 1), (a,), bwd)


def mean_all(a: tz.Tensor) -> tz.Tensor:
    return scalar_mul(sum_all(a), 1.0 / (a.shape[0] * a.shape[1]))


def transpose(a: tz.Tensor) -> tz.Tensor:
    def bwd(g: np.ndarray):
        return (g.T,)

    return tz.record(a.values.T.copy(), (a,), bwd)


def out_in(w: tz.Tensor) -> tz.Tensor:
    """The ``(out, in)`` weight of a model file, as a tape node over the
    ``(in, out)`` transpose the model holds.

    The oracles below multiply by ``transpose(out_in(w))``: a contiguous copy
    of ``W.T`` taken from the ``(out, in)`` weight, as the model did before
    it held ``W.T``, while the model multiplies by its view into the
    parameter vector. Their gradients reach ``w`` through this transpose,
    so the two sides are compared on the same leaves.
    """
    return transpose(w)


def slice_rows(a: tz.Tensor, start: int, stop: int) -> tz.Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise tz.ShapeError(f"slice_rows: [{start}:{stop}] of {a.shape}")
    shape = a.shape

    def bwd(g: np.ndarray):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return tz.record(a.values[start:stop, :].copy(), (a,), bwd)


def scatter(values: tz.Tensor, rows: Sequence[int], cols: Sequence[int],
            shape: tuple[int, int]) -> tz.Tensor:
    """Place a 1xK vector into a zero matrix, summing duplicate positions."""
    if values.shape[0] != 1 or values.shape[1] != len(rows) or len(rows) != len(cols):
        raise tz.ShapeError(
            f"scatter: values {values.shape} vs {len(rows)}/{len(cols)} positions"
        )
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    out = np.zeros(shape)
    np.add.at(out, (r, c), values.values[0])

    def bwd(g: np.ndarray):
        return (g[r, c].reshape(1, -1),)

    return tz.record(out, (values,), bwd)



# ---------------------------------------------------------------------------
# Dense attention oracle: the n x n formulation that the edge-list GAT layer
# replaced. Non-edges get a -1e30 additive mask before a row softmax, so
# their weight is exactly zero; rows are receivers, columns senders.

_MASKED = -1e30


def dense_allowed_mask(n: int, edges) -> np.ndarray:
    """Additive softmax mask: 0 on self-loops and edges (row=dst), else -inf-ish."""
    mask = np.full((n, n), _MASKED)
    np.fill_diagonal(mask, 0.0)
    for src, dst in edges:
        mask[dst, src] = 0.0
    return mask


def dense_gat_layer(states, edges, params, *, slope=0.2, message_mask=None,
                    allowed_mask=None):
    """One attention layer over the given edges plus implicit self-loops."""
    n = states.shape[0]
    d_out = params.w_in.shape[1]
    xin = matmul(states, transpose(out_in(params.w_in)))    # receiver features
    xout = matmul(states, transpose(out_in(params.w_out)))  # sender features
    a_in = slice_rows(params.attn, 0, d_out)
    a_out = slice_rows(params.attn, d_out, 2 * d_out)
    s_in = matmul(xin, a_in)    # (n, 1)
    s_out = matmul(xout, a_out)  # (n, 1)
    ones_row = tz.constant(np.ones((1, n)))
    ones_col = tz.constant(np.ones((n, 1)))
    # score[i, j] = s_in[i] + s_out[j] for the edge (j -> i)
    raw = add(matmul(s_in, ones_row), matmul(ones_col, transpose(s_out)))
    raw = leaky_relu(raw, slope)
    if allowed_mask is None:
        allowed_mask = dense_allowed_mask(n, edges)
    attn = softmax_rows(add(raw, tz.constant(allowed_mask)))
    if message_mask is not None:
        attn = elementwise_mul(attn, message_mask)
    return matmul(attn, xout)


def dense_forward_scores(graph, params, *, message_mask=None):
    """``model.forward_scores`` over dense layers; ``message_mask`` is n x n."""
    config = params.config
    n = graph.num_nodes
    onehot = np.zeros((n, params.vocab_size))
    onehot[np.arange(n), graph.node_kinds] = 1.0
    edges = [pair for name in config.edge_sets for pair in graph.edge_sets[name]]
    allowed = dense_allowed_mask(n, edges)
    outputs = [tz.constant(onehot)]
    for layer in params.gat:
        outputs.append(dense_gat_layer(
            outputs[-1], edges, layer, slope=config.leaky_slope,
            message_mask=message_mask, allowed_mask=allowed,
        ))
    collected = jumping_knowledge(outputs, config.jumping_knowledge)
    graph_vec = tape_attention_pool(collected, params.pool, config.leaky_slope)
    z = tz.concat_cols([graph_vec, _encode_property(graph.property, config)])
    return tape_mlp(z, params.head, config.leaky_slope)


# ---------------------------------------------------------------------------
# Tape oracle: the GAT layer, attention pooling, MLPs, ranking loss, message
# mask and explainer objective as chains of the primitives above, one tape
# node per operation, and the per-edge primitives only the layer uses.
# ``model`` and ``explain`` replaced each chain with one node that runs the
# same operations, so scores, gradients and loss traces must be bit-identical.
# The per-edge primitives reduce through ``segment_reduce``, the
# ``reduceat`` path that ``tz.Segments.reduce`` replaced for wide sums over
# many rows, so these comparisons also check its rank-step plan.


def segment_reduce(segments, ufunc, values):
    """``tz.Segments.reduce`` as ``ufunc.reduceat`` over the rows of each
    segment in segment order, whatever the width and row count."""
    if len(values) != len(segments.ids):
        raise tz.ShapeError(f"segments: {values.shape} vs {len(segments.ids)} ids")
    rows = values if segments.sorted else values[segments.order]
    return ufunc.reduceat(rows, segments.starts, axis=0)


def gather_rows(a, rows):
    """Row ``rows.ids[e]`` of ``a`` as row e: (count, C) -> (E, C)."""
    if a.shape[0] != len(rows.starts):
        raise tz.ShapeError(f"gather_rows: {a.shape} vs {len(rows.starts)} segments")

    def bwd(g):
        return (segment_reduce(rows, np.add, g),)

    return tz.record(a.values[rows.ids], (a,), bwd)


def segment_sum(a, segments):
    """Sum the rows of each segment: (E, C) -> (count, C)."""

    def bwd(g):
        return (g[segments.ids],)

    return tz.record(segment_reduce(segments, np.add, a.values), (a,), bwd)


def segment_softmax(a, segments):
    """Softmax over the rows of each segment, column by column."""
    ids = segments.ids
    e = np.exp(a.values - segment_reduce(segments, np.maximum, a.values)[ids])
    out = e / segment_reduce(segments, np.add, e)[ids]

    def bwd(g):
        return (out * (g - segment_reduce(segments, np.add, g * out)[ids]),)

    return tz.record(out, (a,), bwd)


def tape_gat_layer(states, index, params, *, slope=0.2, message_mask=None):
    """``model.gat_layer`` over an ``EdgeIndex``, 16 or 17 tape nodes."""
    d_out = params.w_in.shape[1]
    xin = matmul(states, transpose(out_in(params.w_in)))    # receiver features
    xout = matmul(states, transpose(out_in(params.w_out)))  # sender features
    a_in = slice_rows(params.attn, 0, d_out)
    a_out = slice_rows(params.attn, d_out, 2 * d_out)
    s_in = matmul(xin, a_in)    # (n, 1)
    s_out = matmul(xout, a_out)  # (n, 1)
    # score of the edge (j -> i) is s_in[i] + s_out[j]
    raw = add(gather_rows(s_in, index.receivers), gather_rows(s_out, index.senders))
    attn = segment_softmax(leaky_relu(raw, slope), index.receivers)
    if message_mask is not None:
        attn = elementwise_mul(attn, message_mask)
    messages = elementwise_mul(gather_rows(xout, index.senders), attn)
    return segment_sum(messages, index.receivers)


def tape_mlp(z, layers, slope):
    """``model._mlp`` with each affine layer as transpose, matmul and add."""
    for i, layer in enumerate(layers):
        z = add(matmul(z, transpose(out_in(layer.w))), layer.b)
        if i + 1 < len(layers):
            z = leaky_relu(z, slope)
    return z


def tape_attention_pool(states, pool, slope=0.2):
    """``model.attention_pool`` as the pool MLP, transpose, softmax and matmul."""
    weights = softmax_rows(transpose(tape_mlp(states, pool, slope)))
    return matmul(weights, states)


def tape_margin_rank_loss(scores, labels, margin=1.0):
    """``model.margin_rank_loss_t`` as six primitives."""
    k = scores.shape[1]
    if scores.shape[0] != 1 or k != len(labels) or k < 2:
        raise LengthMismatch(f"scores {scores.shape} vs {len(labels)} labels (need >= 2)")
    pairs = [(a, b) for a in range(k) for b in range(k) if labels[a] > labels[b]]
    if not pairs:
        return tz.constant([[0.0]])
    diff = np.zeros((k, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        diff[a, col] = 1.0
        diff[b, col] = -1.0
    separations = matmul(scores, tz.constant(diff))
    return mean_all(relu(add(scalar_mul(separations, -1.0), tz.constant([[float(margin)]]))))


def tape_message_mask(index, keep, slots):
    """``EdgeIndex.message_mask`` as log, scatter, exp and slice."""
    e = len(index.keys)
    summed = scatter(log(keep), slots, np.zeros_like(slots), (e + 1, 1))
    return slice_rows(exp(summed), 0, e)


def tape_forward_scores(graph, params, *, prop=None, message_mask=None):
    """``model.forward_scores`` over the tape oracle's layers."""
    inp = graph if isinstance(graph, ModelInput) else prepare_input(graph, params)
    config = params.config
    outputs = [inp.states]
    for layer in params.gat:
        outputs.append(tape_gat_layer(outputs[-1], inp.index, layer,
                                      slope=config.leaky_slope, message_mask=message_mask))
    collected = jumping_knowledge(outputs, config.jumping_knowledge)
    graph_vec = tape_attention_pool(collected, params.pool, config.leaky_slope)
    prop_vec = _encode_property(prop or inp.graph.property, config)
    return tape_mlp(tz.concat_cols([graph_vec, prop_vec]), params.head, config.leaky_slope)


def tape_explain(params, graph, *, iters=100, lr=0.01, size_weight=0.05,
                 entropy_weight=0.1, seed=0, init_noise=0.0, edge_sets=None):
    """``explain.explain`` over the tape oracle, with its objective as 16
    primitives; returns the keep scores and the loss trace as lists."""
    edges = maskable_edges(graph, params.config.edge_sets if edge_sets is None else edge_sets)
    frozen = params.copy()
    for t in frozen.trainables():
        t.requires_grad = False
    inp = prepare_input(graph, frozen)
    target = tz.constant(tape_forward_scores(inp, frozen).values.copy())
    init = np.zeros((1, len(edges)))
    if init_noise > 0.0:
        init += init_noise * np.random.default_rng(seed).standard_normal(init.shape)
    logits = tz.Tensor(init, requires_grad=True)
    slots = inp.index.slots(np.array([(e.src, e.dst) for e in edges], dtype=np.intp))
    ones = tz.constant(np.ones((1, len(edges))))
    trace = []
    for _ in range(iters):
        logits.zero_grad()
        keep = tz.sigmoid(logits)
        mask = tape_message_mask(inp.index, keep, slots)
        diff = sub(tape_forward_scores(inp, frozen, message_mask=mask), target)
        fidelity = sum_all(elementwise_mul(diff, diff))
        size = scalar_mul(mean_all(keep), size_weight)
        complement = sub(ones, keep)
        entropy = scalar_mul(sum_all(add(elementwise_mul(keep, log(keep)),
                                         elementwise_mul(complement, log(complement)))),
                             -entropy_weight)
        loss = add(add(fidelity, size), entropy)
        tz.backward(loss)
        trace.append(loss.item())
        logits.values -= lr * logits.grad
    return [float(s) for s in tz.sigmoid(logits).values[0]], trace


# ---------------------------------------------------------------------------
# Training oracles: Adam with one moment array per parameter tensor, updating
# each tensor in turn, and the training loop that prepares nothing and feeds
# each bare graph to the tape oracle's forward pass on every step. ``trainer``
# replaced them with one update over the flat parameter vector and model
# inputs prepared once per call.


class PerTensorAdam:
    """Per-parameter first/second moment estimates (beta 0.9/0.999)."""

    def __init__(self, tensors, beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors = tensors
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(t.shape) for t in tensors]
        self.v = [np.zeros(t.shape) for t in tensors]

    def step(self, lr: float) -> None:
        self.step_count += 1
        correct1 = 1.0 - self.beta1 ** self.step_count
        correct2 = 1.0 - self.beta2 ** self.step_count
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * t.grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * t.grad ** 2
            t.values -= lr * (self.m[i] / correct1) / (
                np.sqrt(self.v[i] / correct2) + self.eps
            )


def reference_train(train_set, val_set, init, cfg):
    """``trainer.train`` with per-tensor Adam, unprepared graphs and the tape
    oracle's forward pass and loss.

    Returns the best-validation parameters and the per-epoch
    (train loss, validation loss, lr) triples.
    """
    def loss_of(inst, params):
        return tape_margin_rank_loss(tape_forward_scores(inst.graph, params), inst.labels,
                                     cfg.margin)

    params = init.copy()
    optimizer = PerTensorAdam(params.trainables())
    schedule = PlateauSchedule(lr=cfg.initial_lr, patience=cfg.plateau_patience,
                               factor=cfg.lr_decay_factor, min_lr=cfg.min_lr)
    rng = random.Random(cfg.seed)
    best = params.copy()
    history = []
    order = list(range(len(train_set)))
    for _ in range(cfg.epochs):
        lr = schedule.lr
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            params.zero_grad()
            loss = loss_of(train_set[idx], params)
            total += loss.item()
            if loss.requires_grad:
                tz.backward(loss)
                optimizer.step(lr)
        val = float(np.mean([loss_of(inst, params).item() for inst in val_set]))
        history.append((total / len(train_set), val, lr))
        decision = schedule.observe(val)
        if decision.improved:
            best = params.copy()
        if decision.stop:
            break
    return best, history


# ---------------------------------------------------------------------------
# Graph file oracles: the json-module writer and the item-by-item reader that
# ``graphio`` replaced with a direct writer for the fixed schema and bulk
# checks. They keep their own per-edge validation.


def oracle_validate_graph(graph) -> None:
    n = graph.num_nodes
    for name in EDGE_SET_NAMES:
        if name not in graph.edge_sets:
            raise SchemaError(f"edges.{name}: missing edge set")
    for name, edges in graph.edge_sets.items():
        if name not in EDGE_SET_NAMES:
            raise SchemaError(f"edges.{name}: unknown edge set")
        if len(set(edges)) != len(edges):
            raise SchemaError(f"edges.{name}: duplicate edges")
        for src, dst in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise SchemaError(
                    f"edges.{name}: edge endpoint out of range ({src}, {dst})"
                )
    for idx in graph.node_kinds:
        if idx < 0:
            raise SchemaError(f"node_kinds: index {idx} out of range")


def oracle_serialize_graph(graph) -> str:
    oracle_validate_graph(graph)
    payload = {
        "id": graph.id,
        "property": graph.property.value,
        "num_nodes": graph.num_nodes,
        "node_kinds": list(graph.node_kinds),
        "edges": {
            name: sorted([s, d] for s, d in graph.edge_sets.get(name, []))
            for name in EDGE_SET_NAMES
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _oracle_expect(obj: dict, key: str, types) -> object:
    if key not in obj:
        raise SchemaError(f"{key}: missing field")
    value = obj[key]
    if not isinstance(value, types):
        raise SchemaError(f"{key}: expected {types}, got {type(value).__name__}")
    return value


def oracle_deserialize_graph(text: str):
    """The item-by-item reader; unlike ``graphio``'s, it accepts a bool num_nodes."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"document: not valid JSON ({err})") from err
    if not isinstance(obj, dict):
        raise SchemaError("document: expected a JSON object")
    graph_id = _oracle_expect(obj, "id", str)
    prop_name = _oracle_expect(obj, "property", str)
    try:
        prop = PropertyKind.from_name(prop_name)
    except ValueError as err:
        raise SchemaError(f"property: {err}") from err
    num_nodes = _oracle_expect(obj, "num_nodes", int)
    node_kinds = _oracle_expect(obj, "node_kinds", list)
    if len(node_kinds) != num_nodes:
        raise SchemaError("num_nodes: does not match len(node_kinds)")
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in node_kinds):
        raise SchemaError("node_kinds: entries must be integers")
    edges_obj = _oracle_expect(obj, "edges", dict)
    edge_sets = {}
    for name in EDGE_SET_NAMES:
        raw = _oracle_expect(edges_obj, name, list)
        pairs = []
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                raise SchemaError(f"edges.{name}: edges must be [src, dst] int pairs")
            pairs.append((item[0], item[1]))
        edge_sets[name] = pairs
    graph = ProgramGraph(graph_id, prop, list(node_kinds), edge_sets)
    oracle_validate_graph(graph)
    return graph


# ---------------------------------------------------------------------------
# Brute-force reaching-definitions oracle.
#
# Fully independent of the dataflow module: its own statement walk, its own
# def/use collection with two-level (function/global) scoping, and path
# enumeration (all acyclic paths plus single loop unrolls, i.e. each node may
# appear at most twice on a path) instead of a worklist fixpoint. Assumes the
# program under test does not shadow names in nested blocks.


def _oracle_functions(ast):
    out = []
    for i, node in enumerate(ast.nodes):
        if node.kind == "FunctionDecl" and node.children and \
                ast.kind(node.children[-1]) == "CompoundStmt":
            out.append(i)
    return out


def _oracle_spine(ast, stmt, out):
    kind = ast.kind(stmt)
    if kind == "CompoundStmt":
        for child in ast.children(stmt):
            _oracle_spine(ast, child, out)
        return
    out.append(stmt)
    if kind == "IfStmt":
        for arm in ast.children(stmt)[1:]:
            _oracle_spine(ast, arm, out)
    elif kind in ("WhileStmt", "ForStmt", "SwitchStmt"):
        _oracle_spine(ast, ast.children(stmt)[-1], out)
    elif kind in ("LabelStmt", "DefaultStmt"):
        for child in ast.children(stmt):
            _oracle_spine(ast, child, out)
    elif kind == "CaseStmt":
        for child in ast.children(stmt)[1:]:
            _oracle_spine(ast, child, out)


def _oracle_owned(ast, node):
    kind = ast.kind(node)
    children = ast.children(node)
    if kind in ("IfStmt", "WhileStmt", "SwitchStmt", "CaseStmt"):
        return (children[0],)
    if kind == "ForStmt":
        return children[:-1]
    if kind in ("LabelStmt", "DefaultStmt", "FunctionDecl",
                "BreakStmt", "ContinueStmt"):
        return ()
    if kind == "ReturnStmt":
        return children
    return (node,)


def _oracle_scopes(ast):
    """qualified name tables: '::x' for globals, 'fn::x' for locals/params."""
    global_names = set()
    for child in ast.children(ast.root):
        if ast.kind(child) == "DeclStmt":
            for var in ast.children(child):
                global_names.add(ast.text(var))
    local_names = {}
    for fn in _oracle_functions(ast):
        names = set()
        for node in ast.walk(fn):
            if ast.kind(node) in ("VarDecl", "ParmVarDecl") and ast.text(node):
                names.add(ast.text(node))
        local_names[fn] = names
    return global_names, local_names


def _oracle_qualify(name, fn_name, global_names, local):
    if name in local:
        return f"{fn_name}::{name}"
    if name in global_names:
        return f"::{name}"
    return None


def _oracle_collect(ast, root, qualify, writes, reads):
    kind = ast.kind(root)
    children = ast.children(root)
    text = ast.text(root)
    if kind == "DeclStmt":
        for var in children:
            _oracle_collect(ast, var, qualify, writes, reads)
        return
    if kind == "VarDecl":
        q = qualify(text)
        if q:
            writes.add(q)
        for init in children:
            _oracle_collect(ast, init, qualify, writes, reads)
        return
    if kind == "BinaryOperator" and text == "=":
        lhs, rhs = children
        if ast.kind(lhs) == "DeclRefExpr":
            q = qualify(ast.text(lhs))
            if q:
                writes.add(q)
        else:
            _oracle_collect(ast, lhs, qualify, writes, reads)
        _oracle_collect(ast, rhs, qualify, writes, reads)
        return
    if kind == "CompoundAssignOperator" or (
        kind == "UnaryOperator" and text in ("++", "--")
    ):
        target = children[0]
        if ast.kind(target) == "DeclRefExpr":
            q = qualify(ast.text(target))
            if q:
                writes.add(q)
                reads.append((q, target))
        else:
            _oracle_collect(ast, target, qualify, writes, reads)
        for extra in children[1:]:
            _oracle_collect(ast, extra, qualify, writes, reads)
        return
    if kind == "CallExpr":
        for arg in children[1:]:
            _oracle_collect(ast, arg, qualify, writes, reads)
        return
    if kind == "DeclRefExpr":
        q = qualify(text)
        if q:
            reads.append((q, root))
        return
    for child in children:
        _oracle_collect(ast, child, qualify, writes, reads)


def oracle_reaching_edges(ast, icfg) -> set[tuple[int, int, str]]:
    """(def node, use ref node, plain name) triples by path enumeration."""
    global_names, local_names = _oracle_scopes(ast)
    defs = defaultdict(set)
    uses = defaultdict(list)
    nodes = []
    for fn in _oracle_functions(ast):
        fn_name = ast.text(fn)
        local = local_names[fn]

        def qualify(name, _fn=fn_name, _local=local):
            return _oracle_qualify(name, _fn, global_names, _local)

        spine = []
        _oracle_spine(ast, ast.children(fn)[-1], spine)
        nodes.append(fn)
        nodes.extend(spine)
        for param in ast.children(fn)[:-1]:
            q = qualify(ast.text(param))
            if q:
                defs[fn].add(q)
        for stmt in spine:
            writes, reads = set(), []
            for root in _oracle_owned(ast, stmt):
                _oracle_collect(ast, root, qualify, writes, reads)
            defs[stmt] = writes
            uses[stmt] = reads

    succs = defaultdict(list)
    node_set = set(nodes)
    for src, dst in {(e.src, e.dst) for e in icfg.edges}:
        if src in node_set and dst in node_set:
            succs[src].append(dst)

    edges = set()
    for origin in nodes:
        for var in defs[origin]:
            plain = var.split("::")[-1]
            stack = [(origin, {origin: 1})]
            while stack:
                here, counts = stack.pop()
                for nxt in succs[here]:
                    if counts.get(nxt, 0) >= 2:
                        continue
                    for q, ref in uses[nxt]:
                        if q == var:
                            edges.add((origin, ref, plain))
                    if var in defs[nxt]:
                        continue  # killed (or regenerated at the origin)
                    bumped = dict(counts)
                    bumped[nxt] = bumped.get(nxt, 0) + 1
                    stack.append((nxt, bumped))
    return edges


# ---------------------------------------------------------------------------
# Two-pass def/use oracle: the passes that the single scoped walk of the
# ICFG wiring in verisel.frontend.cfg replaced. ``resolve_variables`` first maps every
# DeclRefExpr of every function body to its declaration; ``node_defs_uses``
# then walks one CFG node's expressions again and looks each name up in that
# table.


class _Resolution:
    def __init__(self):
        # DeclRefExpr id -> declaring node id (VarDecl or ParmVarDecl)
        self.var_of_ref: dict[int, int] = {}
        self.name_of_var: dict[int, str] = {}


def resolve_variables(ast) -> _Resolution:
    res = _Resolution()
    global_scope: dict[str, int] = {}
    functions = set(function_definitions(ast))

    def declare(scopes, var_node: int, name: str) -> None:
        scopes[-1][name] = var_node
        res.name_of_var[var_node] = name

    def lookup(scopes, name: str) -> int | None:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def resolve_expr(scopes, node: int, *, skip: frozenset[int] = frozenset()) -> None:
        for current in ast.walk(node):
            if current in skip:
                continue
            kind = ast.kind(current)
            if kind == "CallExpr":
                callee = ast.children(current)[0]
                skip = skip | {callee}
            elif kind == "DeclRefExpr" and current not in skip:
                target = lookup(scopes, ast.text(current) or "")
                if target is not None:
                    res.var_of_ref[current] = target

    def resolve_stmt(scopes, stmt: int) -> None:
        kind = ast.kind(stmt)
        if kind == "CompoundStmt":
            scopes.append({})
            for child in ast.children(stmt):
                resolve_stmt(scopes, child)
            scopes.pop()
        elif kind == "DeclStmt":
            for var in ast.children(stmt):
                declare(scopes, var, ast.text(var) or "")
                for init in ast.children(var):
                    resolve_expr(scopes, init)
        elif kind == "ForStmt":
            scopes.append({})
            for child in ast.children(stmt):
                resolve_stmt(scopes, child)
            scopes.pop()
        elif kind in ("IfStmt", "WhileStmt", "SwitchStmt"):
            children = ast.children(stmt)
            resolve_expr(scopes, children[0])
            for child in children[1:]:
                resolve_stmt(scopes, child)
        elif kind in ("LabelStmt", "DefaultStmt"):
            for child in ast.children(stmt):
                resolve_stmt(scopes, child)
        elif kind == "CaseStmt":
            children = ast.children(stmt)
            resolve_expr(scopes, children[0])
            for child in children[1:]:
                resolve_stmt(scopes, child)
        elif kind == "ReturnStmt":
            for child in ast.children(stmt):
                resolve_expr(scopes, child)
        elif kind in ("BreakStmt", "ContinueStmt", "NullStmt", "TypedefDecl"):
            pass
        else:
            resolve_expr(scopes, stmt)

    # pass 1: globals and function names
    for child in ast.children(ast.root):
        if ast.kind(child) == "DeclStmt":
            for var in ast.children(child):
                global_scope[ast.text(var) or ""] = var
                res.name_of_var[var] = ast.text(var) or ""

    # pass 2: function bodies
    for child in ast.children(ast.root):
        if child not in functions:
            continue
        scopes = [global_scope, {}]
        *params, body = ast.children(child)
        for param in params:
            name = ast.text(param)
            if name:
                declare(scopes, param, name)
        resolve_stmt(scopes, body)
    return res


def _gather_expr(ast, res: _Resolution, root: int, writes: set[int],
                 reads: list[int]) -> None:
    """Collect written variables and reading DeclRefExpr nodes under root."""
    kind = ast.kind(root)
    children = ast.children(root)
    if kind == "VarDecl":
        writes.add(root)
        for init in children:
            _gather_expr(ast, res, init, writes, reads)
        return
    if kind == "DeclStmt":
        for var in children:
            _gather_expr(ast, res, var, writes, reads)
        return
    if kind == "BinaryOperator" and ast.text(root) == "=":
        lhs, rhs = children
        if ast.kind(lhs) == "DeclRefExpr":
            target = res.var_of_ref.get(lhs)
            if target is not None:
                writes.add(target)
        else:
            _gather_expr(ast, res, lhs, writes, reads)  # *p / a[i]: reads only
        _gather_expr(ast, res, rhs, writes, reads)
        return
    if kind == "CompoundAssignOperator":
        lhs, rhs = children
        if ast.kind(lhs) == "DeclRefExpr":
            target = res.var_of_ref.get(lhs)
            if target is not None:
                writes.add(target)
            reads.append(lhs)
        else:
            _gather_expr(ast, res, lhs, writes, reads)
        _gather_expr(ast, res, rhs, writes, reads)
        return
    if kind == "UnaryOperator" and ast.text(root) in ("++", "--"):
        operand = children[0]
        if ast.kind(operand) == "DeclRefExpr":
            target = res.var_of_ref.get(operand)
            if target is not None:
                writes.add(target)
            reads.append(operand)
        else:
            _gather_expr(ast, res, operand, writes, reads)
        return
    if kind == "CallExpr":
        for arg in children[1:]:  # the callee name is not a variable use
            _gather_expr(ast, res, arg, writes, reads)
        return
    if kind == "DeclRefExpr":
        reads.append(root)
        return
    for child in children:
        _gather_expr(ast, res, child, writes, reads)


def node_defs_uses(ast, res: _Resolution, cfg_node: int):
    """(defined var ids, {var id: [reading DeclRefExpr ids]}) for one node."""
    writes: set[int] = set()
    reads: list[int] = []
    if ast.kind(cfg_node) == "FunctionDecl":
        for child in ast.children(cfg_node):
            if ast.kind(child) == "ParmVarDecl" and ast.text(child):
                writes.add(child)
                res.name_of_var.setdefault(child, ast.text(child) or "")
    for root in owned_expr_roots(ast, cfg_node):
        _gather_expr(ast, res, root, writes, reads)
    uses: dict[int, list[int]] = {}
    for ref in reads:
        var = res.var_of_ref.get(ref)
        if var is not None:
            uses.setdefault(var, []).append(ref)
    return writes, uses


def oracle_call_sites(ast, cfg_node: int) -> list[str]:
    """Callee names invoked by the expressions owned by one CFG node, in
    pre-order; "" for a computed callee. A separate scan of every owned
    expression, the one the ICFG wiring walk replaced."""
    names = []
    for root in owned_expr_roots(ast, cfg_node):
        for node in ast.walk(root):
            if ast.kind(node) != "CallExpr":
                continue
            callee = ast.children(node)[0]
            if ast.kind(callee) == "DeclRefExpr":
                names.append(ast.text(callee) or "")
            else:
                names.append("")
    return names


def oracle_cfg_nodes(ast) -> list[int]:
    """Every CFG node, sorted: function decls plus each body's statement spine."""
    nodes = []
    for fn in _oracle_functions(ast):
        nodes.append(fn)
        _oracle_spine(ast, ast.children(fn)[-1], nodes)
    return sorted(nodes)


def named_edges(ast, pairs) -> list[tuple[int, int, str]]:
    """(def node, use node, variable name) triples for def-use pairs, sorted;
    a use node is the identifier that reads the variable, so its text names it."""
    return sorted((src, dst, ast.text(dst)) for src, dst in pairs)


# ---------------------------------------------------------------------------
# Set-based reaching definitions: the fixpoint that the bit-vector pass in
# verisel.frontend.dataflow replaced. IN and OUT are sets of (def node, var
# id) pairs, rebuilt on every worklist visit.


def set_reaching_definitions(ast, icfg) -> list[tuple[int, int, str]]:
    """Sorted (def node, use node, variable name) triples for every definition
    that reaches a use along the ICFG."""
    res = resolve_variables(ast)
    nodes = oracle_cfg_nodes(ast)
    node_set = set(nodes)

    defs: dict[int, set[int]] = {}
    uses: dict[int, dict[int, list[int]]] = {}
    for n in nodes:
        defs[n], uses[n] = node_defs_uses(ast, res, n)

    preds: dict[int, list[int]] = {n: [] for n in nodes}
    succs: dict[int, list[int]] = {n: [] for n in nodes}
    for edge in icfg.edges:
        if edge.src in node_set and edge.dst in node_set:
            preds[edge.dst].append(edge.src)
            succs[edge.src].append(edge.dst)

    in_sets: dict[int, set[tuple[int, int]]] = {n: set() for n in nodes}
    out_sets: dict[int, set[tuple[int, int]]] = {n: set() for n in nodes}

    worklist = deque(nodes)
    queued = set(nodes)
    while worklist:
        n = worklist.popleft()
        queued.discard(n)
        incoming: set[tuple[int, int]] = set()
        for p in preds[n]:
            incoming |= out_sets[p]
        in_sets[n] = incoming
        killed = defs[n]
        out = {(n, v) for v in defs[n]}
        out |= {(d, v) for (d, v) in incoming if v not in killed}
        if out != out_sets[n]:
            out_sets[n] = out
            for s in succs[n]:
                if s not in queued:
                    queued.add(s)
                    worklist.append(s)

    edges: set[tuple[int, int, str]] = set()
    for n in nodes:
        if not uses[n]:
            continue
        for def_node, var in in_sets[n]:
            refs = uses[n].get(var)
            if refs:
                name = res.name_of_var.get(var, "")
                for ref in refs:
                    edges.add((def_node, ref, name))
    return sorted(edges)


# ---------------------------------------------------------------------------
# FIFO-worklist reaching definitions: the bit-vector fixpoint that the
# round-robin sweeps in reverse postorder replaced. Every CFG node is queued
# once in id order; a node whose OUT changes re-queues its successors.


def fifo_reaching_definitions(ast, icfg) -> list[tuple[int, int, str]]:
    """Sorted (def node, use node, variable name) triples for every definition
    that reaches a use along the ICFG."""
    writes = {n: node_writes for n, (node_writes, _) in icfg.accesses.items()}
    uses = {n: node_uses for n, (_, node_uses) in icfg.accesses.items()}
    nodes = sorted(writes)
    node_set = set(nodes)

    def_nodes: list[int] = []  # bit i -> defining node
    gen: dict[int, int] = {}
    var_bits: dict[int, int] = {}
    for n in nodes:
        bits = 0
        for var in writes[n]:
            bit = 1 << len(def_nodes)
            def_nodes.append(n)
            var_bits[var] = var_bits.get(var, 0) | bit
            bits |= bit
        gen[n] = bits
    kill: dict[int, int] = {}
    for n in nodes:
        bits = 0
        for var in writes[n]:
            bits |= var_bits[var]
        kill[n] = bits

    preds: dict[int, list[int]] = {n: [] for n in nodes}
    succs: dict[int, list[int]] = {n: [] for n in nodes}
    for edge in icfg.edges:
        if edge.src in node_set and edge.dst in node_set:
            preds[edge.dst].append(edge.src)
            succs[edge.src].append(edge.dst)

    in_bits: dict[int, int] = dict.fromkeys(nodes, 0)
    out_bits: dict[int, int] = dict.fromkeys(nodes, 0)
    worklist = deque(nodes)
    queued = set(nodes)
    while worklist:
        n = worklist.popleft()
        queued.discard(n)
        incoming = 0
        for p in preds[n]:
            incoming |= out_bits[p]
        in_bits[n] = incoming
        out = gen[n] | (incoming & ~kill[n])
        if out != out_bits[n]:
            out_bits[n] = out
            for s in succs[n]:
                if s not in queued:
                    queued.add(s)
                    worklist.append(s)

    edges: list[tuple[int, int, str]] = []
    for n in nodes:
        for var, refs in uses[n].items():
            reaching = in_bits[n] & var_bits.get(var, 0)
            name = ast.text(var) or ""
            while reaching:
                low = reaching & -reaching
                reaching ^= low
                def_node = def_nodes[low.bit_length() - 1]
                edges.extend((def_node, ref, name) for ref in refs)
    return sorted(edges)


# ---------------------------------------------------------------------------
# Generated C programs for reaching-definitions property tests: globals,
# helpers that call earlier helpers, nested if/while/for/switch, compound
# assignments, increments, stores through a pointer and into an array, and
# a block local that shadows an outer name.


class GeneratedProgram(NamedTuple):
    """One generated program in two spellings with the same AST shape.

    In ``source`` each block local shadows an outer name. In ``unshadowed``
    every block local has a fresh name, which suits ``oracle_reaching_edges``
    (it assumes no shadowing); ``renamed`` maps each fresh name back.
    """

    source: str
    unshadowed: str
    renamed: dict[str, str]


def c_programs():
    """A hypothesis strategy of GeneratedPrograms, small enough for the
    path-enumeration oracle.

    A program has up to two helpers, and at most five statements that hold
    nested ones (if, loops, switch, shadowing blocks), at most two deep: the
    oracle's running time grows with the number of paths.
    """
    # Imported here, not at module level: the benchmark's output check loads
    # this module for the oracle, and importing hypothesis there would raise
    # its peak memory.
    from hypothesis import strategies as st

    @st.composite
    def programs(draw) -> GeneratedProgram:
        # placeholder such as "${v3}" -> (name in source, name in unshadowed)
        spellings: dict[str, tuple[str, str]] = {}
        nested_left = 5

        def variable(name: str, fresh: str | None = None) -> str:
            placeholder = f"${{v{len(spellings)}}}"
            spellings[placeholder] = (name, fresh or name)
            return placeholder

        def expr(scope: list[str]) -> str:
            atoms = st.sampled_from(scope) | st.integers(0, 3).map(str)
            left = draw(atoms)
            if draw(st.booleans()):
                return left
            return f"{left} {draw(st.sampled_from('+-*'))} {draw(atoms)}"

        def block(frame: dict, scope: list[str], depth: int) -> list[str]:
            lines = []
            for _ in range(draw(st.integers(1, 2))):
                lines += statement(frame, scope, depth)
            return lines

        def statement(frame: dict, scope: list[str], depth: int) -> list[str]:
            nonlocal nested_left
            kinds = ["assign", "compound", "step", "store"]
            if frame["callees"]:
                kinds.append("call")
            if depth < 2 and nested_left:
                kinds += ["if", "while", "for", "switch", "shadow"]
            kind = draw(st.sampled_from(kinds))
            target = draw(st.sampled_from(scope))
            if kind == "assign":
                return [f"{target} = {expr(scope)};"]
            if kind == "compound":
                return [f"{target} {draw(st.sampled_from(['+=', '-=']))} {expr(scope)};"]
            if kind == "step":
                return [draw(st.sampled_from([f"{target}++;", f"--{target};"]))]
            if kind == "store":
                return [draw(st.sampled_from([f"*{frame['ptr']} = {expr(scope)};",
                                              f"{frame['buf']}[{target}] = {expr(scope)};"]))]
            if kind == "call":
                call = f"{draw(st.sampled_from(frame['callees']))}({expr(scope)})"
                return [draw(st.sampled_from([f"{target} = {call};", f"{call};"]))]
            inner = depth + 1
            nested_left -= 1
            if kind == "if":
                lines = [f"if ({target} < {expr(scope)}) {{", *block(frame, scope, inner)]
                if draw(st.booleans()):
                    lines += ["} else {", *block(frame, scope, inner)]
                return lines + ["}"]
            if kind == "while":
                return [f"while ({target} != {expr(scope)}) {{", *block(frame, scope, inner), "}"]
            if kind == "for":
                return [f"for ({target} = 0; {target} < {expr(scope)}; {target}++) {{",
                        *block(frame, scope, inner), "}"]
            if kind == "switch":
                return [f"switch ({target}) {{",
                        "case 0:", *statement(frame, scope, inner), "break;",
                        "case 1:", *statement(frame, scope, inner),
                        "default:", *statement(frame, scope, inner), "}"]
            # shadow: a block local named like the outer variable `target`
            outer = [v for v in scope if v != target]
            local = variable(spellings[target][0], fresh=f"s{len(spellings)}")
            inside = outer + [local]
            return ["{", f"int {local} = {expr(outer)};", *block(frame, inside, inner), "}"]

        def function(header: str, params: list[str], globals_: list[str],
                     callees: list[str]) -> list[str]:
            first, second = variable("x"), variable("y")
            frame = {"callees": callees, "ptr": variable("p"), "buf": variable("buf")}
            scope = globals_ + params + [first, second]
            return [f"{header} {{",
                    f"int {first} = {expr(globals_ + params)};",
                    f"int {second};",
                    f"int *{frame['ptr']};",
                    f"int {frame['buf']}[4];",
                    f"{frame['ptr']} = &{draw(st.sampled_from(scope))};",
                    *block(frame, scope, 0),
                    f"return {first};", "}"]

        globals_ = [variable(f"g{i}") for i in range(draw(st.integers(1, 2)))]
        lines = [f"int {g};" for g in globals_]
        helpers: list[str] = []
        for j in range(draw(st.integers(0, 2))):
            param = variable("n")
            lines += function(f"int h{j}(int {param})", [param], globals_, list(helpers))
            helpers.append(f"h{j}")
        lines += function("int main()", [], globals_, helpers)

        text = "\n".join(lines) + "\n"

        def spell(which: int) -> str:
            return re.sub(r"\$\{v\d+\}", lambda m: spellings[m[0]][which], text)

        renamed = {fresh: name for name, fresh in spellings.values() if fresh != name}
        return GeneratedProgram(spell(0), spell(1), renamed)

    return programs()


def call_heavy_program(helpers: int = 28) -> str:
    """C source of a deterministic call-heavy program, about 5k AST nodes.

    Helper ``h{k}`` calls every earlier helper inside a loop, and ``main``
    calls them all. Return edges then lead back into every loop, so nearly
    all CFG nodes form one strongly connected component of the ICFG.
    Operands come from a seeded generator, so the text never changes.
    """
    rng = random.Random(helpers)
    lines = ["int g0;", "int g1;"]
    for k in range(helpers + 1):
        names = ["a", "b", "c", "g0", "g1"] + (["n"] if k < helpers else [])

        def operand() -> str:
            return rng.choice(names + ["1", "2"])

        lines += [f"int h{k}(int n) {{" if k < helpers else "int main() {",
                  f"int a = {operand()};", "int b = 0;", "int c;", "int i;",
                  f"for (i = 0; i < {operand()}; i++) {{"]
        for j in range(k):
            target = rng.choice(names[:5])
            lines.append(f"{target} {rng.choice(['=', '+=', '-='])} "
                         f"h{j}({operand()} {rng.choice('+-*')} {operand()});")
            if rng.random() < 0.3:
                lines.append(f"if ({operand()} < {operand()}) {{ {target}++; }} "
                             f"else {{ g1 = {operand()}; }}")
        lines += ["}", f"while ({operand()} != {operand()}) {{ b = b - 1; }}",
                  f"return {operand()};", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tier-per-level binary parsing: the recursion that precedence climbing in
# verisel.frontend.parser replaced. Every operand descends through one call
# per precedence tier, and the flattening builds each AST node twice.


class TierParser(_Parser):
    def parse_binary(self, tier: int):
        if tier >= len(_BINARY_TIERS):
            return self.parse_unary()
        ops = _BINARY_TIERS[tier]
        node = self.parse_binary(tier + 1)
        while True:
            token = self.peek()
            if token is None or token.kind != "op" or token.text not in ops:
                return node
            self.take()
            right = self.parse_binary(tier + 1)
            node = _N("BinaryOperator", [node, right], text=token.text)


def _preorder_ast(root) -> Ast:
    nodes: list[AstNode] = []

    def visit(node) -> int:
        node_id = len(nodes)
        nodes.append(AstNode(node.kind, (), node.text))  # placeholder
        child_ids = tuple(visit(child) for child in node.children)
        nodes[node_id] = AstNode(node.kind, child_ids, node.text)
        return node_id

    visit(root)
    return Ast(tuple(nodes))


def tier_parse(tokens) -> Ast:
    """Parse with ``TierParser`` and flatten into a pre-order ``Ast``."""
    return _preorder_ast(TierParser(tokens).parse_translation_unit())


# ---------------------------------------------------------------------------
# Token plumbing that calls itself: the parser before its token list ended in
# end markers and before its token methods each read ``tokens[j]`` after one
# bounds check. ``peek`` returns None past the last token, and every grammar
# rule that reads a token tests it for None. The statement-keyword table, the
# literal kinds and the type-start keywords are built again on every call,
# and assignments and postfix operators are found by one ``at`` call per
# candidate operator.


class PlumbingParser(_Parser):
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.typedefs = set()

    def peek(self, offset: int = 0):
        j = self.pos + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def at(self, kind: str, text: str | None = None, offset: int = 0) -> bool:
        token = self.peek(offset)
        return (
            token is not None
            and token.kind == kind
            and (text is None or token.text == text)
        )

    def take(self):
        token = self.peek()
        if token is None:
            raise ParseError("more input", None)
        self.pos += 1
        return token

    def expect(self, kind: str, text: str | None = None):
        if not self.at(kind, text):
            raise ParseError(text or kind, self.peek())
        return self.take()

    def reject_unsupported(self) -> None:
        token = self.peek()
        if token is not None and token.kind == "kw" and token.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(token.text, token)

    def parse_decl_specs(self) -> None:
        saw_type = False
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "kw" and token.text in QUALIFIERS:
                self.take()
            elif token.kind == "kw" and token.text in TYPE_KEYWORDS:
                saw_type = True
                self.take()
            elif (
                not saw_type
                and token.kind == "ident"
                and token.text in self.typedefs
            ):
                saw_type = True
                self.take()
            else:
                break
        if not saw_type:
            raise ParseError("type specifier", self.peek())

    def parse_translation_unit(self):
        root = _N("TranslationUnit")
        while self.peek() is not None:
            root.children.append(self.parse_external_decl())
        return root

    def parse_compound(self):
        self.expect("punct", "{")
        block = _N("CompoundStmt")
        while not self.at("punct", "}"):
            if self.peek() is None:
                raise ParseError("'}'", None)
            block.children.append(self.parse_statement())
        self.expect("punct", "}")
        return block

    def at_type_start(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        if token is None:
            return False
        if token.kind == "kw" and token.text in (TYPE_KEYWORDS | QUALIFIERS):
            return True
        return token.kind == "ident" and token.text in self.typedefs

    def parse_statement(self):
        self.reject_unsupported()
        token = self.peek()
        if token is None:
            raise ParseError("statement", None)
        if token.kind == "punct" and token.text == "{":
            return self.parse_compound()
        if token.kind == "punct" and token.text == ";":
            self.take()
            return _N("NullStmt")
        if token.kind == "kw":
            handler = {
                "if": self.parse_guarded,
                "while": self.parse_guarded,
                "for": self.parse_for,
                "switch": self.parse_guarded,
                "return": self.parse_return,
                "break": self.parse_jump,
                "continue": self.parse_jump,
                "case": self.parse_case,
                "default": self.parse_default,
                "typedef": self.parse_typedef,
            }.get(token.text)
            if handler is not None:
                return handler()
        if self.at_type_start():
            self.parse_decl_specs()
            return self.parse_declstmt_rest(self.parse_declarator())
        if token.kind == "ident" and self.at("op", ":", offset=1):
            label = self.take().text
            self.take()
            return _N("LabelStmt", [self.parse_statement()], text=label)
        expr = self.parse_expression()
        self.expect("punct", ";")
        return expr

    def parse_assignment(self):
        left = self.parse_binary(0)
        if self.at("op", "="):
            self.take()
            return _N("BinaryOperator", [left, self.parse_assignment()], text="=")
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in ASSIGN_OPS:
            self.take()
            return _N(
                "CompoundAssignOperator",
                [left, self.parse_assignment()],
                text=token.text,
            )
        if self.at("op", "?"):
            raise UnsupportedConstruct("conditional operator", self.peek())
        return left

    def parse_binary(self, level: int):
        node = self.parse_unary()
        while True:
            token = self.peek()
            if token is None or token.kind != "op":
                return node
            op_level = _BINARY_LEVEL.get(token.text, -1)
            if op_level < level:
                return node
            self.take()
            right = self.parse_binary(op_level + 1)
            node = _N("BinaryOperator", [node, right], text=token.text)

    def parse_unary(self):
        self.reject_unsupported()
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in UNARY_OPS:
            self.take()
            return _N("UnaryOperator", [self.parse_unary()], text=token.text)
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            if self.at("punct", "("):
                self.take()
                call = _N("CallExpr", [node])
                if not self.at("punct", ")"):
                    while True:
                        call.children.append(self.parse_assignment())
                        if self.at("punct", ","):
                            self.take()
                            continue
                        break
                self.expect("punct", ")")
                node = call
            elif self.at("punct", "["):
                self.take()
                index = self.parse_expression()
                self.expect("punct", "]")
                node = _N("ArraySubscriptExpr", [node, index])
            elif self.at("op", "++") or self.at("op", "--"):
                node = _N("UnaryOperator", [node], text=self.take().text)
            else:
                return node

    def parse_primary(self):
        self.reject_unsupported()
        token = self.peek()
        if token is None:
            raise ParseError("expression", None)
        if token.kind == "ident":
            return _N("DeclRefExpr", text=self.take().text)
        literal_kinds = {
            "int": "IntegerLiteral",
            "float": "FloatingLiteral",
            "char": "CharacterLiteral",
            "string": "StringLiteral",
        }
        if token.kind in literal_kinds:
            return _N(literal_kinds[token.kind], text=self.take().text)
        if token.kind == "punct" and token.text == "(":
            if self.at_type_start(offset=1):
                raise UnsupportedConstruct("cast", token)
            self.take()
            inner = self.parse_expression()
            self.expect("punct", ")")
            return inner  # parentheses are structural, no node
        raise ParseError("expression", token)


def plumbing_parse(tokens) -> Ast:
    """Parse with ``PlumbingParser`` and flatten into a pre-order ``Ast``."""
    return _preorder_ast(PlumbingParser(tokens).parse_translation_unit())


# ---------------------------------------------------------------------------
# Recursive tree walks: the AST numbering and the ICFG wiring's expression
# walk before each kept its own stack. Both recurse once per tree level, so a
# long operator chain (a left-deep tree) exhausts the interpreter's stack.


def recursive_parse(tokens) -> Ast:
    """``parse`` with the recursive pre-order numbering (``_preorder_ast``)."""
    return _preorder_ast(_Parser(tokens).parse_translation_unit())


class RecursiveWiring(_FunctionWiring):
    def gather(self, stmt, root, writes, uses):
        ast = self.ast
        kind = ast.kind(root)
        children = ast.children(root)
        if kind == "VarDecl":
            self.scopes[-1][ast.text(root) or ""] = root  # before its initializer
            writes.add(root)
        elif kind == "DeclRefExpr":
            var = self.lookup(root)
            if var is not None:
                uses.setdefault(var, []).append(root)
            return
        elif kind == "CallExpr":
            callee, *children = children  # the callee name is not a variable use
            self.calls.append((stmt, _callee_name(ast, root)))
            if ast.kind(callee) != "DeclRefExpr":
                self.calls.extend((stmt, _callee_name(ast, node))
                                  for node in ast.walk(callee)
                                  if ast.kind(node) == "CallExpr")
        elif (kind == "CompoundAssignOperator" or (
                kind == "BinaryOperator" and ast.text(root) == "=") or (
                kind == "UnaryOperator" and ast.text(root) in ("++", "--"))):
            target = children[0]
            if ast.kind(target) == "DeclRefExpr":
                var = self.lookup(target)
                if var is not None:
                    writes.add(var)
                if kind == "BinaryOperator":  # plain store: no read
                    children = children[1:]
        for child in children:
            self.gather(stmt, child, writes, uses)


def wired(ast, wiring=_FunctionWiring) -> tuple[ControlEdges, list[list[tuple[int, str]]]]:
    """``build_icfg(ast)`` run with the given wiring class, and the calls
    each function's wiring recorded, in wiring order."""
    wirings = []

    class Recording(wiring):
        def __init__(self, *args):
            super().__init__(*args)
            wirings.append(self)

    # not unittest.mock: perfbench loads this file, and that import adds
    # about 10 MiB to the benchmark's peak RSS
    cfg_module._FunctionWiring = Recording
    try:
        icfg = cfg_module.build_icfg(ast)
    finally:
        cfg_module._FunctionWiring = _FunctionWiring
    return icfg, [w.calls for w in wirings]


def expression_sources():
    """A hypothesis strategy of C sources around one generated expression.

    Expressions mix every binary, unary and assignment operator with
    parentheses, calls, subscripts, ``?:`` and casts (the last two are
    unsupported). Half the sources are cut after a random token, so parsing
    may also stop at the end of the input.
    """
    from hypothesis import strategies as st

    binary = [op for tier in _BINARY_TIERS for op in tier]
    assign = ["=", *sorted(ASSIGN_OPS)]
    atoms = st.sampled_from(["a", "b", "n", "0", "7", "1.5", "'c'", '"s"'])

    def same_tier_chain(ops, i: int, j: int, a: str, b: str, c: str) -> str:
        return f"{a} {ops[i % len(ops)]} {b} {ops[j % len(ops)]} {c}"

    def compound(inner):
        return st.one_of(
            st.builds("{} {} {}".format, inner, st.sampled_from(binary), inner),
            st.builds(same_tier_chain, st.sampled_from(_BINARY_TIERS), st.integers(0, 3),
                      st.integers(0, 3), inner, inner, inner),
            st.builds("{} {}".format, st.sampled_from(sorted(UNARY_OPS)), inner),
            st.builds("{} {}".format, inner, st.sampled_from(["++", "--"])),
            st.builds("( {} )".format, inner),
            st.builds("f ( {} , {} )".format, inner, inner),
            st.builds("{} [ {} ]".format, inner, inner),
            st.builds("{} {} {}".format, inner, st.sampled_from(assign), inner),
            st.builds("{} ? {} : {}".format, inner, inner, inner),
            st.builds("( int ) {}".format, inner),
        )

    expressions = st.recursive(atoms, compound, max_leaves=12)

    @st.composite
    def sources(draw) -> str:
        expr = draw(expressions)
        pieces = f"int f ( int n ) ; int main ( ) {{ int a , b ; {expr} ; }}".split(" ")
        cut = draw(st.just(len(pieces)) | st.integers(0, len(pieces)))
        return " ".join(pieces[:cut])

    return sources()


# ---------------------------------------------------------------------------
# Conveniences that only tests use: finite-difference gradient checks, the
# float form of the ranking loss, node relabelling, edges of one ICFG tag,
# and the vocabulary manifest text.


class GradCheck(NamedTuple):
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_input: int
    worst_component: tuple[int, int]


def grad_check(f, x, step: float = 1e-5, tolerance: float = 1e-4) -> GradCheck:
    """Compare backward gradients of ``f`` against central differences.

    ``x`` is a tensor or a sequence of tensors passed positionally to ``f``,
    which must return a scalar tensor. Relative error per component is
    ``|a - n| / max(1, |a|, |n|)``; the check passes iff the worst one is
    below ``tolerance``.
    """
    xs = [x] if isinstance(x, tz.Tensor) else list(x)
    for t in xs:
        t.requires_grad = True
        t.zero_grad()
    tz.backward(f(*xs))
    analytic = [t.grad.copy() if t.grad is not None else np.zeros(t.shape) for t in xs]

    worst = 0.0
    worst_input = 0
    worst_component = (0, 0)
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
                    worst, worst_input, worst_component = err, idx, (i, j)
    return GradCheck(worst, tolerance, worst < tolerance, worst_input, worst_component)


def margin_rank_loss(scores, labels, margin: float = 1.0) -> float:
    """``margin_rank_loss_t`` on plain floats."""
    if len(scores) != len(labels) or len(scores) < 2:
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels (need >= 2)")
    return margin_rank_loss_t(tz.constant(list(scores)), labels, margin).item()


def permuted_graph(graph: ProgramGraph, perm) -> ProgramGraph:
    """Relabel nodes: node i becomes perm[i]."""
    kinds = [0] * graph.num_nodes
    for old, new in enumerate(perm):
        kinds[new] = graph.node_kinds[old]
    edge_sets = {name: sorted((perm[s], perm[d]) for s, d in edges)
                 for name, edges in graph.edge_sets.items()}
    return ProgramGraph(graph.id, graph.property, kinds, edge_sets)


def tagged_edges(icfg, tag: str) -> list:
    """The ICFG edges with one tag: flow, call, return or loop-back."""
    return [e for e in icfg.edges if e.tag == tag]


def vocabulary_manifest(vocab) -> str:
    """The manifest text that ``TokenVocabulary.from_manifest`` reads."""
    return "\n".join(vocab.kinds) + "\n"
