"""C-subset frontend: lexing, parsing, control flow, data flow, graphs."""

from .cfg import ControlEdge, ControlEdges, build_icfg
from .dataflow import DataEdges, reaching_definitions
from .graph_build import (
    DEFAULT_MAX_NODES,
    GraphTooLarge,
    NestingTooDeep,
    assemble_graph,
    extract_graph,
)
from .lexer import FrontendError, LexError, Token, tokenize
from .parser import Ast, AstNode, ParseError, UnsupportedConstruct, parse, parse_source

__all__ = [
    "Ast",
    "AstNode",
    "ControlEdge",
    "ControlEdges",
    "DataEdges",
    "DEFAULT_MAX_NODES",
    "FrontendError",
    "GraphTooLarge",
    "LexError",
    "NestingTooDeep",
    "ParseError",
    "Token",
    "UnsupportedConstruct",
    "assemble_graph",
    "build_icfg",
    "extract_graph",
    "parse",
    "parse_source",
    "reaching_definitions",
    "tokenize",
]
