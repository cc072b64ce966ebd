"""Edge-mask explanations: which edges drive the model's verifier ranking.

Each edge across the masked edge sets gets a logit; its sigmoid multiplies
the model's attention weight on that edge (self-loops stay unmasked unless
the graph has an (i, i) edge; duplicates across edge sets multiply). Gradient
descent minimizes the squared distance between the masked and original score
vectors plus a size penalty (mean mask) and a binary-entropy penalty, so edges
the prediction does not need drift toward zero while load-bearing edges stay
high. Scores are sigmoids, hence always strictly inside (0, 1).

The mask runs over a frozen copy of the caller's parameters, so the caller's
values and ``requires_grad`` flags are never written, and the masked edges
are resolved to attention-edge slots once, before the first iteration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .graphio import EDGE_SET_NAMES, ProgramGraph, TokenVocabulary
from .model import EmptyGraph, ModelParameters, forward_scores, prepare_input
from .tensor import Tensor


class UnknownEdgeSets(ValueError):
    """Edge-set names other than those of ``graphio.EDGE_SET_NAMES``."""


@dataclass(frozen=True)
class MaskedEdge:
    edge_set: str
    src: int
    dst: int


@dataclass
class EdgeMask:
    """Per-edge keep scores in (0, 1) plus the optimization loss trace."""

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
                "edges": [asdict(e) for e in self.entries]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


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

    ``edge_sets`` restricts masking to a subset (default: every edge set the
    model is configured to read); an unknown name raises
    :class:`UnknownEdgeSets`. Deterministic for fixed inputs; ``seed`` only
    matters when ``init_noise`` jitters the initial logits.
    """
    if graph.num_nodes == 0:
        raise EmptyGraph(f"graph {graph.id} has no nodes")
    sets = tuple(edge_sets) if edge_sets is not None else params.config.edge_sets
    unknown = sorted(set(sets) - set(EDGE_SET_NAMES))
    if unknown:
        raise UnknownEdgeSets(f"unknown edge sets: {', '.join(unknown)}")
    edges = maskable_edges(graph, sets)
    if not edges:
        return EdgeMask(graph.id, [], [], [])

    frozen = params.copy()
    for t in frozen.trainables():
        t.requires_grad = False
    inp = prepare_input(graph, frozen)
    with tz.no_grad():
        original = forward_scores(inp, frozen)
    target = tz.constant(original.values.copy())

    init = np.zeros((1, len(edges)))
    if init_noise > 0.0:
        init += init_noise * np.random.default_rng(seed).standard_normal(init.shape)
    logits = Tensor(init, requires_grad=True)
    slots = inp.index.slots(np.array([(e.src, e.dst) for e in edges], dtype=np.intp))
    ones = tz.constant(np.ones((1, len(edges))))

    trace: list[float] = []
    for _ in range(iters):
        logits.zero_grad()
        keep = tz.sigmoid(logits)
        mask = inp.index.message_mask(keep, slots)
        masked = forward_scores(inp, frozen, message_mask=mask)
        diff = tz.sub(masked, target)
        fidelity = tz.sum_all(tz.elementwise_mul(diff, diff))
        size = tz.scalar_mul(tz.mean_all(keep), size_weight)
        complement = tz.sub(ones, keep)
        entropy = tz.scalar_mul(
            tz.sum_all(tz.add(
                tz.elementwise_mul(keep, tz.log(keep)),
                tz.elementwise_mul(complement, tz.log(complement)),
            )),
            -entropy_weight,
        )
        loss = tz.add(tz.add(fidelity, size), entropy)
        tz.backward(loss)
        trace.append(loss.item())
        logits.values -= lr * logits.grad

    with tz.no_grad():
        scores = tz.sigmoid(logits).values[0]
    return EdgeMask(graph.id, edges, [float(s) for s in scores], trace)


def top_m_edges(mask: EdgeMask, graph: ProgramGraph,
                vocab: TokenVocabulary) -> ExplanationReport:
    """The m highest-scoring edges (m from :func:`report_size`), best first."""
    n = len(mask.edges)
    m = min(report_size(n), n)
    order = sorted(range(n), key=lambda i: (-mask.scores[i], i))[:m]
    entries = []
    for rank, idx in enumerate(order, start=1):
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
