"""Edge-mask explanations: which edges drive the model's verifier ranking.

Each edge across the masked edge sets gets a logit; its sigmoid multiplies
the model's attention weight on that edge (self-loops stay unmasked unless
the graph has an (i, i) edge; duplicates across edge sets multiply). Gradient
descent minimizes the squared distance between the masked and original score
vectors plus a size penalty (mean mask) and a binary-entropy penalty, so edges
the prediction does not need drift toward zero while load-bearing edges stay
high. Scores are sigmoids of finite logits, but a large step can round one
to exactly 0 or 1, where the entropy penalty's log is undefined: an iteration
whose keep scores leave (0, 1) raises :class:`MaskSaturated` before any log
is taken. The scores returned after the last step are not checked.

The mask runs over the parameters' frozen view (``params.frozen``), so the
tape reaches the mask logits alone and the caller's values, flags and grads
are never written. What no mask can change is done once per call: a
``model.MaskScorer`` computes layer 0's attention and the property row, the
target scores are its pass with no mask, and the masked edges are resolved
to attention-edge slots. Each iteration then runs only the rest of the
forward sequence of ``model.forward_scores``, bit for bit.

Like the model's layers, the objective is fused into few tape nodes: the
size and entropy penalty is one node and the total loss another, each
running the operations of the primitive chain it replaced in the same order
(kept as the test oracle), so scores and loss traces are bit-identical to
the chain's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .graphio import (
    CONFIG_KEYS,
    EDGE_SET_NAMES,
    FINITE,
    ProgramGraph,
    TokenVocabulary,
    at_least,
    config_value,
    ordering_from_scores,
)
# forward_scores goes uncalled; perfbench/tracing.py wraps this module's name
from .model import MaskScorer, ModelParameters, forward_scores, prepare_input
from .tensor import Tensor


class MaskSaturated(Exception):
    """A keep score rounded to exactly 0 or 1: the step size is too large."""


# the rule of each of explain()'s optimisation settings, checked as a config
# key's is: config_value(name, value, SETTINGS[name])
SETTINGS = {"iters": at_least(0), "lr": FINITE, "size_weight": FINITE, "entropy_weight": FINITE}


@dataclass(frozen=True)
class MaskedEdge:
    edge_set: str
    src: int
    dst: int


@dataclass
class EdgeMask:
    """Per-edge keep scores (sigmoids of the final logits) plus the loss trace."""

    graph_id: str
    edges: list[MaskedEdge]
    scores: list[float]
    trace: list[float]


@dataclass(frozen=True)
class ReportEntry:
    rank: int
    edge_set: str
    src: int
    dst: int
    src_kind: str
    dst_kind: str
    score: float


@dataclass
class ExplanationReport:
    graph_id: str
    m: int
    entries: list[ReportEntry]

    def to_dict(self) -> dict:
        return {"graph_id": self.graph_id, "m": self.m,
                "edges": [dict(vars(e)) for e in self.entries]}


def report_size(num_edges: int) -> int:
    """How many top edges a report shows: 5 below 50 edges, else n // 10."""
    return 5 if num_edges < 50 else num_edges // 10


def maskable_edges(graph: ProgramGraph,
                   edge_sets: Sequence[str]) -> list[MaskedEdge]:
    """All edges of the chosen sets in stable (set, stored-order) order."""
    out = []
    for name in EDGE_SET_NAMES:
        if name not in edge_sets:
            continue
        for src, dst in graph.edge_sets.get(name, []):
            out.append(MaskedEdge(name, src, dst))
    return out


def _penalty(keep: Tensor, size_weight: float, entropy_weight: float) -> Tensor:
    """The size and entropy terms (1 x 2) as one tape node: ``size_weight``
    times the mean keep, and ``entropy_weight`` times the summed binary
    entropy of the keeps.

    ``keep`` is listed once per path that reads it, in the order the
    primitive chain added their gradients: the mean, the keep factor of
    keep * log(keep), that log, then the complement 1 - keep.
    """
    kv = keep.values
    scale = 1.0 / (kv.shape[0] * kv.shape[1])
    complement = np.ones(kv.shape) + kv * -1.0
    log_keep, log_complement = np.log(kv), np.log(complement)
    size = (kv.sum().reshape(1, 1) * scale) * float(size_weight)
    entropy = ((kv * log_keep + complement * log_complement).sum().reshape(1, 1)
               * float(-entropy_weight))

    def bwd(g: np.ndarray):
        g_size = np.full(kv.shape, ((g[:, :1] * float(size_weight)) * scale)[0, 0])
        g_terms = np.full(kv.shape, (g[:, 1:] * float(-entropy_weight))[0, 0])
        g_complement = g_terms * log_complement + (g_terms * complement) / complement
        return (g_size, g_terms * log_keep, (g_terms * kv) / kv, g_complement * -1.0)

    return tz.record(np.concatenate([size, entropy], axis=1), (keep,) * 4, bwd)


def _objective(masked: Tensor, target: np.ndarray, penalty: Tensor) -> Tensor:
    """The explainer loss ``(fidelity + size) + entropy`` as one tape node,
    where fidelity is the squared distance between ``masked`` and ``target``
    and ``penalty`` holds the size and entropy terms."""
    diff = masked.values + target * -1.0
    terms = penalty.values

    def bwd(g: np.ndarray):
        g_terms = np.full(terms.shape, g[0, 0])
        if not masked.requires_grad:  # a model without attention ignores the mask
            return None, g_terms
        g_diff = np.full(diff.shape, g[0, 0]) * diff
        return g_diff + g_diff, g_terms  # one term per factor of diff * diff

    fidelity = (diff * diff).sum().reshape(1, 1)
    return tz.record((fidelity + terms[:, :1]) + terms[:, 1:], (masked, penalty), bwd)


def explain(
    params: ModelParameters,
    graph: ProgramGraph,
    *,
    iters: int = 100,
    lr: float = 0.01,
    size_weight: float = 0.05,
    entropy_weight: float = 0.1,
    seed: int = 0,
    init_noise: float = 0.0,
    edge_sets: Sequence[str] | None = None,
) -> EdgeMask:
    """Optimize per-edge keep scores against the model's original prediction.

    A setting that breaks its rule in ``SETTINGS`` raises
    :class:`graphio.ConfigError` before any work; the defaults are the CLI's.
    ``edge_sets`` restricts masking to a subset (default: every edge set the
    model is configured to read), by the rule of ``model.edge_sets``. An
    iteration whose keep scores reach 0 or 1 raises :class:`MaskSaturated`.
    Deterministic for fixed inputs; ``seed`` only matters when ``init_noise``
    jitters the initial logits.
    """
    for name, value in zip(SETTINGS, (iters, lr, size_weight, entropy_weight)):
        config_value(name, value, SETTINGS[name])
    if edge_sets is not None:
        edge_sets = config_value("edge_sets", edge_sets, CONFIG_KEYS["model.edge_sets"])
    frozen = params.frozen
    inp = prepare_input(graph, frozen)
    edges = maskable_edges(graph, params.config.edge_sets if edge_sets is None else edge_sets)
    if not edges:
        return EdgeMask(graph.id, [], [], [])

    score = MaskScorer(inp, frozen)
    target = score(None).values

    init = np.zeros((1, len(edges)))
    if init_noise > 0.0:
        init += init_noise * np.random.default_rng(seed).standard_normal(init.shape)
    logits = Tensor(init, requires_grad=True)
    slots = inp.index.slots(np.array([(e.src, e.dst) for e in edges], dtype=np.intp))

    trace: list[float] = []
    for it in range(1, iters + 1):
        logits.zero_grad()
        keep = tz.sigmoid(logits)
        if not (0.0 < keep.values.min() and keep.values.max() < 1.0):
            raise MaskSaturated(f"iteration {it}: a keep score reached 0 or 1; "
                                f"lower lr (now {lr!r})")
        masked = score(inp.index.message_mask(keep, slots))
        loss = _objective(masked, target, _penalty(keep, size_weight, entropy_weight))
        tz.backward(loss)
        trace.append(loss.item())
        logits.values -= lr * logits.grad

    scores = tz.sigmoid(tz.constant(logits.values)).values[0]
    return EdgeMask(graph.id, edges, [float(s) for s in scores], trace)


def top_m_edges(mask: EdgeMask, graph: ProgramGraph,
                vocab: TokenVocabulary) -> ExplanationReport:
    """The m highest-scoring edges (m from :func:`report_size`), best first."""
    n = len(mask.edges)
    m = min(report_size(n), n)
    entries = []
    for rank, idx in enumerate(ordering_from_scores(mask.scores)[:m], start=1):
        edge = mask.edges[idx]
        entries.append(ReportEntry(
            rank=rank,
            edge_set=edge.edge_set,
            src=edge.src,
            dst=edge.dst,
            src_kind=vocab.kinds[graph.node_kinds[edge.src]],
            dst_kind=vocab.kinds[graph.node_kinds[edge.dst]],
            score=mask.scores[idx],
        ))
    return ExplanationReport(graph.id, m, entries)


_DOT_STYLE = {"AST": "solid", "ICFG": "dashed", "DFG": "dotted"}


def to_dot(graph: ProgramGraph, vocab: TokenVocabulary,
           report: ExplanationReport) -> str:
    """Graphviz rendering with the report's top edges emphasized."""
    top = {(e.edge_set, e.src, e.dst): e.rank for e in report.entries}
    lines = [f'digraph "{graph.id}" {{', "  node [shape=box fontsize=10];"]
    for i, kind_index in enumerate(graph.node_kinds):
        lines.append(f'  n{i} [label="{i}: {vocab.kinds[kind_index]}"];')
    for name in EDGE_SET_NAMES:
        style = _DOT_STYLE[name]
        for src, dst in graph.edge_sets.get(name, []):
            rank = top.get((name, src, dst))
            if rank is not None:
                lines.append(
                    f'  n{src} -> n{dst} [style={style} penwidth=3 '
                    f'color=black label="{rank}"];'
                )
            else:
                lines.append(
                    f"  n{src} -> n{dst} [style={style} color=gray70 "
                    f"arrowhead=empty];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
