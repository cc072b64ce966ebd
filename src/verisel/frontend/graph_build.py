"""Assemble AST, control-flow, and data-flow edges into a ProgramGraph."""

from __future__ import annotations

from ..graphio import (
    DEFAULT_MAX_NODES,
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    at_least,
    config_value,
)
from .cfg import ControlEdges, build_icfg
from .dataflow import DataEdges, reaching_definitions
from .lexer import FrontendError, tokenize
from .parser import Ast, parse


class GraphTooLarge(FrontendError):
    def __init__(self, num_nodes: int, max_nodes: int):
        super().__init__(f"graph has {num_nodes} nodes, cap is {max_nodes}")
        self.num_nodes = num_nodes
        self.max_nodes = max_nodes


_MAX_NODES = at_least(1)._replace(bound=f"in 1..{DEFAULT_MAX_NODES}",
                                  in_bound=lambda v: 1 <= v <= DEFAULT_MAX_NODES)


def check_max_nodes(max_nodes: int) -> int:
    """``max_nodes`` if it is in 1..``DEFAULT_MAX_NODES`` (a larger cap would let
    through a graph no graph file reader accepts), else ConfigError."""
    return config_value("max_nodes", max_nodes, _MAX_NODES)


def assemble_graph(
    ast: Ast,
    icfg: ControlEdges,
    dfg: DataEdges,
    vocab: TokenVocabulary,
    *,
    graph_id: str,
    property: PropertyKind,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ProgramGraph:
    """Merge the three edge sets over the AST's nodes.

    Edge set 0 holds parent->child AST edges, set 1 the ICFG with flow, call,
    return, and loop-back edges merged, set 2 the def-use edges. Node features
    are vocabulary indices; kinds outside the vocabulary map to Unknown.
    """
    check_max_nodes(max_nodes)
    n = len(ast)
    if n > max_nodes:
        raise GraphTooLarge(n, max_nodes)
    node_kinds = [vocab.index_of(node.kind) for node in ast.nodes]
    # pre-order ids: parents in increasing order, each with increasing child
    # ids, so the pairs come out sorted
    ast_edges = [(parent, child)
                 for parent, node in enumerate(ast.nodes)
                 for child in node.children]
    return ProgramGraph(
        id=graph_id,
        property=property,
        node_kinds=node_kinds,
        edge_sets={
            "AST": ast_edges,
            "ICFG": icfg.pairs(),
            "DFG": dfg.edges,
        },
    )


def extract_graph(
    source: str,
    vocab: TokenVocabulary,
    *,
    graph_id: str,
    property: PropertyKind,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[ProgramGraph, list[str]]:
    """Full pipeline from C source to graph; returns (graph, diagnostics)."""
    check_max_nodes(max_nodes)
    ast = parse(tokenize(source))
    if len(ast) > max_nodes:  # before the analyses, which grow superlinearly
        raise GraphTooLarge(len(ast), max_nodes)
    icfg = build_icfg(ast)  # never deeper than the parse that just succeeded
    dfg = reaching_definitions(ast, icfg)
    graph = assemble_graph(
        ast, icfg, dfg, vocab,
        graph_id=graph_id, property=property, max_nodes=max_nodes,
    )
    return graph, list(icfg.diagnostics)
