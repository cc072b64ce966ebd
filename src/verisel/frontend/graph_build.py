"""Assemble AST, control-flow, and data-flow edges into a ProgramGraph."""

from __future__ import annotations

from ..graphio import DEFAULT_MAX_NODES, ProgramGraph, PropertyKind, TokenVocabulary
from .cfg import ControlEdges, build_icfg
from .dataflow import DataEdges, reaching_definitions
from .lexer import FrontendError, tokenize
from .parser import Ast, parse


class GraphTooLarge(FrontendError):
    def __init__(self, num_nodes: int, max_nodes: int):
        super().__init__(f"graph has {num_nodes} nodes, cap is {max_nodes}")
        self.num_nodes = num_nodes
        self.max_nodes = max_nodes


class NestingTooDeep(FrontendError):
    """Nesting deeper than the recursive parser and ICFG walk can follow."""


def _check_cap(max_nodes: int) -> None:
    if max_nodes > DEFAULT_MAX_NODES:  # a graph no graph file reader accepts
        raise ValueError(f"max_nodes is {max_nodes}, graph files hold at most "
                         f"{DEFAULT_MAX_NODES} nodes")


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
    _check_cap(max_nodes)
    n = len(ast)
    if n > max_nodes:
        raise GraphTooLarge(n, max_nodes)
    node_kinds = [vocab.index_of(node.kind) for node in ast.nodes]
    ast_edges = sorted(
        (parent, child)
        for parent, node in enumerate(ast.nodes)
        for child in node.children
    )
    graph = ProgramGraph(
        id=graph_id,
        property=property,
        node_kinds=node_kinds,
        edge_sets={
            "AST": ast_edges,
            "ICFG": icfg.pairs(),
            "DFG": dfg.edges,
        },
    )
    graph.validate(vocab_size=len(vocab))
    return graph


def extract_graph(
    source: str,
    vocab: TokenVocabulary,
    *,
    graph_id: str,
    property: PropertyKind,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[ProgramGraph, list[str]]:
    """Full pipeline from C source to graph; returns (graph, diagnostics)."""
    _check_cap(max_nodes)
    try:  # the parser and the ICFG walk recurse once per level of nesting
        ast = parse(tokenize(source))
        if len(ast) > max_nodes:  # before the analyses, which grow superlinearly
            raise GraphTooLarge(len(ast), max_nodes)
        icfg = build_icfg(ast)
    except RecursionError as err:
        raise NestingTooDeep("source nests too deeply to extract") from err
    dfg = reaching_definitions(ast, icfg)
    graph = assemble_graph(
        ast, icfg, dfg, vocab,
        graph_id=graph_id, property=property, max_nodes=max_nodes,
    )
    return graph, list(icfg.diagnostics)
