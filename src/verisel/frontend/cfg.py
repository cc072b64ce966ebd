"""Statement-level interprocedural control flow graph construction.

CFG nodes are statement-level AST nodes plus FunctionDecl nodes. Compound
statements are transparent; label/case wrappers are pass-through nodes that
flow into their inner statement. ``STATEMENT_SHAPES`` states once, per
statement kind, which children are expressions the node evaluates itself
(``owned_expr_roots``) and which are the statements nested directly in it
(``sub_statements``); any other kind, such as an expression statement, a
declaration or a jump, evaluates its own subtree. Wiring a function body
walks it once. At each statement-level node the walk resolves names
lexically (globals, then parameters, then a scope per ``CompoundStmt`` and
per ``ForStmt``) and records in ``ControlEdges.accesses`` the variables the
node writes and the identifier nodes that read each variable. Stores
through pointers or array elements write nothing (no alias analysis). The
same walk records the callee names in pre-order, and call/return wiring
loops over them.

Interprocedural wiring, per call site ``cs`` of a function ``f`` defined in
the same translation unit:

* a ``call`` edge ``cs -> FunctionDecl(f)``,
* a ``flow`` edge ``FunctionDecl(f) -> first statement of f`` (so a
  function's entry edge exists exactly when the function is called),
* a ``return`` edge from every exit point of ``f`` back to ``cs``, where the
  exit points are the return statements, or the lexically last statement when
  ``f`` has none.

A function with no return statement additionally gets a self-style ``return``
edge from its last statement to its own FunctionDecl node, so running off the
end of an uncalled function (typically ``main``) is still visible in the
graph. Calls to functions without a body in the unit (externals, intrinsics
such as ``__VERIFIER_nondet_int``) produce no edges and are reported in the
diagnostics list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .parser import Ast

_NONE, _ALL, _HEAD, _REST = slice(0), slice(None), slice(1), slice(1, None)

# statement kind -> (the expressions it evaluates, the statements nested in
# it), each a slice of its children; any other kind evaluates its own subtree
STATEMENT_SHAPES = {
    "CompoundStmt": (_NONE, _ALL),
    "LabelStmt": (_NONE, _ALL),
    "DefaultStmt": (_NONE, _ALL),
    "CaseStmt": (_HEAD, _REST),
    "IfStmt": (_HEAD, _REST),
    "WhileStmt": (_HEAD, _REST),
    "SwitchStmt": (_HEAD, _REST),
    "ForStmt": (slice(-1), slice(-1, None)),  # up to three header parts, then the body
    "FunctionDecl": (_NONE, _NONE),  # build_icfg writes its parameters
}

WRAPPER_KINDS = frozenset({"LabelStmt", "CaseStmt", "DefaultStmt"})


class ControlEdge(NamedTuple):
    src: int
    dst: int
    tag: str  # flow | call | return | loop-back


@dataclass
class ControlEdges:
    edges: list[ControlEdge]
    # CFG node -> (written var ids, {var id: [reading DeclRefExpr ids]}); a
    # FunctionDecl writes its named parameters
    accesses: dict[int, tuple[set[int], dict[int, list[int]]]]
    diagnostics: list[str] = field(default_factory=list)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(src, dst) for src, dst, _ in self.edges})


def function_definitions(ast: Ast) -> list[int]:
    """FunctionDecl ids that carry a body, in pre-order."""
    out = []
    for fn in ast.find("FunctionDecl"):
        children = ast.children(fn)
        if children and ast.kind(children[-1]) == "CompoundStmt":
            out.append(fn)
    return out


def statement_parts(ast: Ast, node: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(``owned_expr_roots``, ``sub_statements``) of a node, by one lookup."""
    kind, children, _ = ast.nodes[node]
    shape = STATEMENT_SHAPES.get(kind)
    return (children[shape[0]], children[shape[1]]) if shape else ((node,), ())


def sub_statements(ast: Ast, node: int) -> tuple[int, ...]:
    """Statements nested directly in a node, in source order."""
    return statement_parts(ast, node)[1]


def owned_expr_roots(ast: Ast, node: int) -> tuple[int, ...]:
    """Expression subtrees evaluated *at* this CFG node (no nested statements)."""
    return statement_parts(ast, node)[0]


def last_statement(ast: Ast, body: int) -> int | None:
    """Lexically last statement-level node of a compound body."""
    children = ast.children(body)
    for child in reversed(children):
        if ast.kind(child) == "CompoundStmt":
            found = last_statement(ast, child)
            if found is not None:
                return found
            continue
        return child
    return None


class _FunctionWiring:
    def __init__(self, ast: Ast, add_edge, diagnostics: list[str],
                 accesses: dict, scopes: list[dict[str, int]]):
        self.ast = ast
        self.add_edge = add_edge
        self.diagnostics = diagnostics
        self.accesses = accesses
        self.scopes = scopes  # innermost last
        self.entry: int | None = None  # first statement-level node
        self.calls: list[tuple[int, str]] = []  # (node, callee name), pre-order
        self.returns: list[int] = []
        self.loop_stack: list[int] = []
        self.break_stack: list[list[int]] = []

    def wire(self, stmt: int, preds: list[int]) -> list[int]:
        """Wire ``preds -> stmt`` and internals; return fallthrough exits."""
        ast = self.ast
        kind = ast.kind(stmt)
        exprs, nested = statement_parts(ast, stmt)

        if kind == "CompoundStmt":
            self.scopes.append({})
            for child in nested:
                preds = self.wire(child, preds)
            self.scopes.pop()
            return preds
        if kind == "ForStmt":
            self.scopes.append({})  # a declaration in the header ends with the body
        if self.entry is None:
            self.entry = stmt
        writes: set[int] = set()
        uses: dict[int, list[int]] = {}
        for root in exprs:
            self.gather(stmt, root, writes, uses)
        self.accesses[stmt] = (writes, uses)
        for p in preds:
            self.add_edge(p, stmt, "flow")
        if kind in WRAPPER_KINDS:
            (inner,) = nested
            return self.wire(inner, [stmt])

        if kind == "ReturnStmt":
            self.returns.append(stmt)
            return []
        if kind == "BreakStmt":
            if self.break_stack:
                self.break_stack[-1].append(stmt)
            else:
                self.diagnostics.append(f"node {stmt}: break outside loop/switch")
            return []
        if kind == "ContinueStmt":
            if self.loop_stack:
                self.add_edge(stmt, self.loop_stack[-1], "loop-back")
            else:
                self.diagnostics.append(f"node {stmt}: continue outside loop")
            return []
        if kind == "IfStmt":
            exits = []
            for arm in nested:
                exits.extend(self.wire(arm, [stmt]))
            if len(nested) < 2:
                exits.append(stmt)  # false branch falls to the successor
            return list(dict.fromkeys(exits))
        if kind in ("WhileStmt", "ForStmt"):
            (body,) = nested
            self.loop_stack.append(stmt)
            self.break_stack.append([])
            body_exits = self.wire(body, [stmt])
            if kind == "ForStmt":
                self.scopes.pop()
            self.loop_stack.pop()
            breaks = self.break_stack.pop()
            for x in body_exits:
                if x != stmt:
                    self.add_edge(x, stmt, "loop-back")
            return list(dict.fromkeys([stmt] + breaks))
        if kind == "SwitchStmt":
            (body,) = nested
            case_nodes = _collect_cases(ast, body)
            for case in case_nodes:
                self.add_edge(stmt, case, "flow")
            self.break_stack.append([])
            exits = self.wire(body, []) + self.break_stack.pop()
            if not any(ast.kind(c) == "DefaultStmt" for c in case_nodes):
                exits.append(stmt)  # no default: the switch may be skipped
            return list(dict.fromkeys(exits))
        # simple statement
        return [stmt]

    def gather(self, stmt: int, root: int, writes: set[int],
               uses: dict[int, list[int]]) -> None:
        """Record the writes, reads and calls of one expression of ``stmt``."""
        ast = self.ast
        nodes = ast.nodes
        stack = [root]  # pre-order; a long operator chain is too deep to recurse
        while stack:
            node = stack.pop()
            kind, children, text = nodes[node]
            if kind == "VarDecl":
                self.scopes[-1][text or ""] = node  # before its initializer
                writes.add(node)
            elif kind == "DeclRefExpr":
                var = self.lookup(node)
                if var is not None:
                    uses.setdefault(var, []).append(node)
                continue
            elif kind == "CallExpr":
                callee, *children = children  # the callee name is not a variable use
                self.calls.append((stmt, _callee_name(ast, node)))
                if nodes[callee].kind != "DeclRefExpr":
                    # f(x)(2), (*p)(x): reads in the callee go unrecorded, but
                    # the calls it makes still run
                    self.calls.extend((stmt, _callee_name(ast, inner))
                                      for inner in ast.walk(callee)
                                      if nodes[inner].kind == "CallExpr")
            elif (kind == "CompoundAssignOperator" or (
                    kind == "BinaryOperator" and text == "=") or (
                    kind == "UnaryOperator" and text in ("++", "--"))):
                # a store through *p or a[i] writes nothing; its operands are reads
                target = children[0]
                if nodes[target].kind == "DeclRefExpr":
                    var = self.lookup(target)
                    if var is not None:
                        writes.add(var)
                    if kind == "BinaryOperator":  # plain store: no read
                        children = children[1:]
            stack.extend(reversed(children))

    def lookup(self, ref: int) -> int | None:
        name = self.ast.text(ref) or ""
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


def _collect_cases(ast: Ast, body: int) -> list[int]:
    out: list[int] = []

    def visit(stmt: int) -> None:
        kind = ast.kind(stmt)
        if kind in ("CaseStmt", "DefaultStmt"):
            out.append(stmt)
        if kind in ("CompoundStmt", "CaseStmt", "DefaultStmt"):
            for child in sub_statements(ast, stmt):
                visit(child)

    visit(body)
    return out


def _callee_name(ast: Ast, call: int) -> str:
    """The function a CallExpr names, or "" when its callee is computed."""
    callee = ast.children(call)[0]
    return (ast.text(callee) or "") if ast.kind(callee) == "DeclRefExpr" else ""


def build_icfg(ast: Ast) -> ControlEdges:
    """Derive flow, loop-back, call, and return edges for the whole unit."""
    edges: set[tuple[int, int, str]] = set()
    accesses: dict[int, tuple[set[int], dict[int, list[int]]]] = {}
    diagnostics: list[str] = []

    def add_edge(src: int, dst: int, tag: str) -> None:
        edges.add((src, dst, tag))

    functions = function_definitions(ast)
    fn_by_name: dict[str, int] = {}
    for fn in functions:
        name = ast.text(fn) or ""
        if name in fn_by_name:
            diagnostics.append(f"node {fn}: redefinition of {name}")
            continue
        fn_by_name[name] = fn
    global_scope: dict[str, int] = {}
    for child in ast.children(ast.root):
        if ast.kind(child) == "DeclStmt":
            for var in ast.children(child):
                global_scope[ast.text(var) or ""] = var

    wirings: dict[int, _FunctionWiring] = {}
    exits: dict[int, list[int]] = {}
    for fn in functions:
        *params, body = ast.children(fn)
        named = [p for p in params if ast.text(p)]
        accesses[fn] = (set(named), {})
        scopes = [global_scope, {ast.text(p): p for p in named}]
        wiring = wirings[fn] = _FunctionWiring(ast, add_edge, diagnostics, accesses, scopes)
        wiring.wire(body, [])
        last = last_statement(ast, body)
        if wiring.returns:
            exits[fn] = wiring.returns
        elif last is not None:
            exits[fn] = [last]
            add_edge(last, fn, "return")  # main-return style self edge
        else:
            exits[fn] = [fn]

    # call/return wiring
    for fn in functions:
        for cfg_node, name in wirings[fn].calls:
            callee = fn_by_name.get(name)
            if callee is None:
                diagnostics.append(
                    f"node {cfg_node}: unresolved call to {name or '<indirect>'}"
                )
                continue
            add_edge(cfg_node, callee, "call")
            entry = wirings[callee].entry
            if entry is not None:
                add_edge(callee, entry, "flow")
            for ep in exits[callee]:
                add_edge(ep, cfg_node, "return")

    ordered = list(map(ControlEdge._make, sorted(edges)))
    return ControlEdges(ordered, accesses, diagnostics)
