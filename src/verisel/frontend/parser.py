"""Recursive-descent parser for the supported C subset.

Produces a flat AST with pre-order node numbering. Structural punctuation
(parentheses, braces, semicolons) is consumed but never materialized as
nodes; declarations, statements, and expressions become nodes whose kind
names follow the usual C AST vocabulary. ``if``, ``while`` and ``switch``
share one rule, ``keyword ( expression ) statement``. Binary operators are
parsed by precedence climbing: one loop per operand looks each operator's
tier up in ``_BINARY_TIERS``, and every binary operator associates to the
left.

The parser does little Python work per token. The token list ends in two
end markers, so the token methods index it with no bounds check, and a rule
reads the end of input as a token whose kind matches nothing; only where
the end has its own message or ends a loop is the marker tested. The hot
rules read the next token once and compare its kind and text in place, and
the keyword, literal-kind and type-start tables are built at import. Tokens
and AST nodes are named tuples, and the tree under construction is made of
``__slots__`` objects.

Supported: declarations (with pointers and array suffixes), typedefs,
function definitions and prototypes, if/else, while, for, switch,
return/break/continue, labeled statements, compound statements, and
expressions including calls, unary * and &, assignment, comparison,
arithmetic, logical, and bitwise operators. Everything else raises
:class:`UnsupportedConstruct` so callers may fall back to graph import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .lexer import FrontendError, Token, tokenize

TYPE_KEYWORDS = frozenset({
    "int", "char", "long", "short", "unsigned", "signed", "void",
    "float", "double",
})
QUALIFIERS = frozenset({"const", "volatile", "static", "extern"})
_TYPE_START_KEYWORDS = TYPE_KEYWORDS | QUALIFIERS
UNSUPPORTED_KEYWORDS = frozenset({"goto", "do", "struct", "union", "enum", "sizeof"})

ASSIGN_OPS = frozenset({"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

# binary operator precedence tiers, loosest first
_BINARY_TIERS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_TIERS) for op in ops}

UNARY_OPS = frozenset({"*", "&", "+", "-", "!", "~", "++", "--"})

_LITERAL_KINDS = {
    "int": "IntegerLiteral",
    "float": "FloatingLiteral",
    "char": "CharacterLiteral",
    "string": "StringLiteral",
}

# the node kind of each keyword that shares its rule with another
_KEYWORD_KINDS = {"if": "IfStmt", "while": "WhileStmt", "switch": "SwitchStmt",
                  "break": "BreakStmt", "continue": "ContinueStmt"}

_END = Token("end", "", 0, 0)  # read past the last token; ParseError shows None


class ParseError(FrontendError):
    def __init__(self, expected: str, found: Token | None):
        found = None if found is _END else found
        where = f"{found.line}:{found.col}" if found else "end of input"
        shown = found.text if found else "<eof>"
        super().__init__(f"{where}: expected {expected}, found {shown!r}")
        self.expected = expected
        self.found = found


class NestingTooDeep(FrontendError):
    """Nesting deeper than the recursive parser and ICFG walk can follow."""

    def __init__(self):
        super().__init__("source nests too deeply to extract")


class UnsupportedConstruct(FrontendError):
    def __init__(self, construct: str, token: Token | None = None):
        where = f"{token.line}:{token.col}: " if token else ""
        super().__init__(f"{where}unsupported construct: {construct}")
        self.construct = construct


class AstNode(NamedTuple):
    kind: str
    children: tuple[int, ...]
    text: str | None = None


@dataclass(frozen=True)
class Ast:
    """Flat AST; ids are pre-order, node 0 is the TranslationUnit root."""

    nodes: tuple[AstNode, ...]
    root: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def kind(self, node_id: int) -> str:
        return self.nodes[node_id].kind

    def children(self, node_id: int) -> tuple[int, ...]:
        return self.nodes[node_id].children

    def text(self, node_id: int) -> str | None:
        return self.nodes[node_id].text

    def find(self, kind: str, text: str | None = None) -> list[int]:
        """All node ids with the given kind (and lexeme, when provided)."""
        return [
            i for i, node in enumerate(self.nodes)
            if node.kind == kind and (text is None or node.text == text)
        ]

    def walk(self, node_id: int):
        """Yield node_id and every descendant in pre-order."""
        stack = [node_id]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.nodes[current].children))


class _N:
    __slots__ = ("kind", "children", "text")

    def __init__(self, kind: str, children: list[_N] | None = None, text: str | None = None):
        self.kind = kind
        self.children = [] if children is None else children
        self.text = text


def _flatten(root: _N) -> Ast:
    """Number the tree in pre-order, on an explicit stack: a long operator
    chain is a left-deep tree too deep for the interpreter's own."""
    order = []  # (node, its child ids), in pre-order
    stack = [(root, None)]  # (node, its parent's child ids)
    push = stack.append
    while stack:
        node, siblings = stack.pop()
        if siblings is not None:
            siblings.append(len(order))
        children = node.children
        if children:
            child_ids = []
            order.append((node, child_ids))
            for child in reversed(children):
                push((child, child_ids))
        else:
            order.append((node, ()))
    return Ast(tuple([AstNode(node.kind, tuple(ids), node.text) for node, ids in order]))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [*tokens, _END, _END]  # pos stops at the first; peek(1) reads on
        self.pos = 0
        self.typedefs: set[str] = set()

    # -- token plumbing ----------------------------------------------------
    # These run several times per token, so each reads the token itself.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, kind: str, text: str | None = None, offset: int = 0) -> bool:
        token = self.tokens[self.pos + offset]
        return token.kind == kind and (text is None or token.text == text)

    def take(self) -> Token:
        token = self.tokens[self.pos]
        if token is _END:
            raise ParseError("more input", None)
        self.pos += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError(text or kind, token)
        self.pos += 1
        return token

    def reject_unsupported(self) -> None:
        token = self.tokens[self.pos]
        if token.kind == "kw" and token.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(token.text, token)

    # -- type machinery ----------------------------------------------------

    def at_type_start(self, offset: int = 0) -> bool:
        token = self.tokens[self.pos + offset]
        if token.kind == "kw":
            return token.text in _TYPE_START_KEYWORDS
        return token.kind == "ident" and token.text in self.typedefs

    def parse_decl_specs(self) -> None:
        """Consume qualifiers plus one type spec; types are not materialized."""
        saw_type = False
        while True:
            token = self.peek()
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

    def parse_declarator(self, named: bool = True) -> str | None:
        """Pointers, a name and array suffixes; with ``named=False`` (a
        parameter) the name may be left out, and then None is returned."""
        while self.at("op", "*"):
            self.take()
            while self.at("kw", "const") or self.at("kw", "volatile"):
                self.take()
        if self.at("punct", "("):
            raise UnsupportedConstruct("function pointer declarator", self.peek())
        if not named and not self.at("ident"):
            return None
        name = self.expect("ident").text
        while self.at("punct", "["):
            self.take()
            if not self.at("punct", "]"):
                self.expect("int")
            self.expect("punct", "]")
        return name

    # -- top level ---------------------------------------------------------

    def parse_translation_unit(self) -> _N:
        root = _N("TranslationUnit")
        while self.peek() is not _END:
            root.children.append(self.parse_external_decl())
        return root

    def parse_external_decl(self) -> _N:
        self.reject_unsupported()
        if self.at("kw", "typedef"):
            return self.parse_typedef()
        if not self.at_type_start():
            raise ParseError("declaration or function definition", self.peek())
        self.parse_decl_specs()
        name = self.parse_declarator()
        if self.at("punct", "("):
            return self.parse_function_rest(name)
        return self.parse_declstmt_rest(name)

    def parse_typedef(self) -> _N:
        self.expect("kw", "typedef")
        self.reject_unsupported()
        self.parse_decl_specs()
        name = self.parse_declarator()
        self.expect("punct", ";")
        self.typedefs.add(name)
        return _N("TypedefDecl", text=name)

    def parse_function_rest(self, name: str) -> _N:
        self.expect("punct", "(")
        params: list[_N] = []
        if self.at("kw", "void") and self.at("punct", ")", offset=1):
            self.take()
        elif not self.at("punct", ")"):
            while True:
                self.reject_unsupported()
                self.parse_decl_specs()
                params.append(_N("ParmVarDecl", text=self.parse_declarator(named=False)))
                if self.at("punct", ","):
                    self.take()
                    continue
                break
        self.expect("punct", ")")
        decl = _N("FunctionDecl", params, text=name)
        if self.at("punct", ";"):
            self.take()  # prototype: no body child
            return decl
        decl.children.append(self.parse_compound())
        return decl

    def parse_declstmt_rest(self, first_name: str) -> _N:
        decl = _N("DeclStmt", [self.parse_init_declarator(first_name)])
        while self.at("punct", ","):
            self.take()
            decl.children.append(self.parse_init_declarator(self.parse_declarator()))
        self.expect("punct", ";")
        return decl

    def parse_init_declarator(self, name: str) -> _N:
        var = _N("VarDecl", text=name)
        if self.at("op", "="):
            self.take()
            if self.at("punct", "{"):
                raise UnsupportedConstruct("brace initializer", self.peek())
            var.children.append(self.parse_assignment())
        return var

    # -- statements ----------------------------------------------------------

    def parse_compound(self) -> _N:
        self.expect("punct", "{")
        block = _N("CompoundStmt")
        while not self.at("punct", "}"):
            if self.peek() is _END:
                raise ParseError("'}'", None)
            block.children.append(self.parse_statement())
        self.expect("punct", "}")
        return block

    def parse_statement(self) -> _N:
        token = self.peek()
        if token is _END:
            raise ParseError("statement", None)
        if token.kind == "punct" and token.text == "{":
            return self.parse_compound()
        if token.kind == "punct" and token.text == ";":
            self.take()
            return _N("NullStmt")
        if token.kind == "kw":
            handler = _STATEMENT_KEYWORDS.get(token.text)
            if handler is not None:
                return handler(self)
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

    def parse_guarded(self) -> _N:
        """``keyword ( expression ) statement`` (if, while, switch), then an if's else."""
        kind = _KEYWORD_KINDS[self.take().text]
        self.expect("punct", "(")
        cond = self.parse_expression()
        self.expect("punct", ")")
        node = _N(kind, [cond, self.parse_statement()])
        if kind == "IfStmt" and self.at("kw", "else"):
            self.take()
            node.children.append(self.parse_statement())
        return node

    def parse_for(self) -> _N:
        self.expect("kw", "for")
        self.expect("punct", "(")
        parts: list[_N] = []
        if self.at("punct", ";"):
            self.take()
        elif self.at_type_start():
            self.parse_decl_specs()
            parts.append(self.parse_declstmt_rest(self.parse_declarator()))
        else:
            parts.append(self.parse_expression())
            self.expect("punct", ";")
        if not self.at("punct", ";"):
            parts.append(self.parse_expression())
        self.expect("punct", ";")
        if not self.at("punct", ")"):
            parts.append(self.parse_expression())
        self.expect("punct", ")")
        parts.append(self.parse_statement())
        return _N("ForStmt", parts)

    def parse_case(self) -> _N:
        self.expect("kw", "case")
        value = self.parse_expression()
        self.expect("op", ":")
        return _N("CaseStmt", [value, self.parse_statement()])

    def parse_default(self) -> _N:
        self.expect("kw", "default")
        self.expect("op", ":")
        return _N("DefaultStmt", [self.parse_statement()])

    def parse_return(self) -> _N:
        self.expect("kw", "return")
        node = _N("ReturnStmt")
        if not self.at("punct", ";"):
            node.children.append(self.parse_expression())
        self.expect("punct", ";")
        return node

    def parse_jump(self) -> _N:
        kind = _KEYWORD_KINDS[self.take().text]
        self.expect("punct", ";")
        return _N(kind)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> _N:
        return self.parse_assignment()

    def parse_assignment(self) -> _N:
        left = self.parse_binary(0)
        token = self.peek()
        if token.kind != "op":
            return left
        if token.text == "=":
            self.take()
            return _N("BinaryOperator", [left, self.parse_assignment()], text="=")
        if token.text in ASSIGN_OPS:
            self.take()
            return _N(
                "CompoundAssignOperator",
                [left, self.parse_assignment()],
                text=token.text,
            )
        if token.text == "?":
            raise UnsupportedConstruct("conditional operator", token)
        return left

    def parse_binary(self, level: int) -> _N:
        """Operators of tier ``level`` or tighter, all left-associative."""
        node = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return node
            # '=' handled by parse_assignment; '&&'/'&' etc. disambiguated by text
            op_level = _BINARY_LEVEL.get(token.text, -1)
            if op_level < level:
                return node
            self.take()
            right = self.parse_binary(op_level + 1)
            node = _N("BinaryOperator", [node, right], text=token.text)

    def parse_unary(self) -> _N:
        self.reject_unsupported()  # statements and operands are checked here alone
        token = self.peek()
        if token.kind == "op" and token.text in UNARY_OPS:
            self.take()
            return _N("UnaryOperator", [self.parse_unary()], text=token.text)
        return self.parse_postfix()

    def parse_postfix(self) -> _N:
        node = self.parse_primary()
        while True:
            token = self.peek()
            if token.kind == "punct" and token.text == "(":
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
            elif token.kind == "punct" and token.text == "[":
                self.take()
                index = self.parse_expression()
                self.expect("punct", "]")
                node = _N("ArraySubscriptExpr", [node, index])
            elif token.kind == "op" and (token.text == "++" or token.text == "--"):
                self.take()
                node = _N("UnaryOperator", [node], text=token.text)
            else:
                return node

    def parse_primary(self) -> _N:
        token = self.peek()
        if token.kind == "ident":
            return _N("DeclRefExpr", text=self.take().text)
        literal = _LITERAL_KINDS.get(token.kind)
        if literal is not None:
            return _N(literal, text=self.take().text)
        if token.kind == "punct" and token.text == "(":
            if self.at_type_start(offset=1):
                raise UnsupportedConstruct("cast", token)
            self.take()
            inner = self.parse_expression()
            self.expect("punct", ")")
            return inner  # parentheses are structural, no node
        raise ParseError("expression", token)


# statement keyword -> the _Parser method that parses the statement
_STATEMENT_KEYWORDS = {
    "if": _Parser.parse_guarded,
    "while": _Parser.parse_guarded,
    "for": _Parser.parse_for,
    "switch": _Parser.parse_guarded,
    "return": _Parser.parse_return,
    "break": _Parser.parse_jump,
    "continue": _Parser.parse_jump,
    "case": _Parser.parse_case,
    "default": _Parser.parse_default,
    "typedef": _Parser.parse_typedef,
}


def parse(tokens: list[Token]) -> Ast:
    """Parse a token stream into a flat, pre-order-numbered AST."""
    try:  # the parser recurses once per level of nesting
        root = _Parser(tokens).parse_translation_unit()
    except RecursionError as err:
        raise NestingTooDeep() from err
    return _flatten(root)


def parse_source(source: str) -> Ast:
    return parse(tokenize(source))
