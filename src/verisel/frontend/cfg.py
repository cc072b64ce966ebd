"""Statement-level interprocedural control flow graph construction.

CFG nodes are statement-level AST nodes plus FunctionDecl nodes. Compound
statements are transparent; label/case wrappers are pass-through nodes that
flow into their inner statement. ``sub_statements`` names the statements
nested directly in a node; ``owned_expr_roots`` names the expressions a node
evaluates itself. Wiring a function body walks it once and records its
statement-level nodes in pre-order, and call/return wiring loops over those
lists.

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

from .parser import Ast

SIMPLE_STMT_KINDS = frozenset({
    "BinaryOperator", "CompoundAssignOperator", "UnaryOperator", "CallExpr",
    "DeclRefExpr", "ArraySubscriptExpr", "IntegerLiteral", "FloatingLiteral",
    "CharacterLiteral", "StringLiteral", "DeclStmt", "NullStmt", "TypedefDecl",
})

WRAPPER_KINDS = frozenset({"LabelStmt", "CaseStmt", "DefaultStmt"})


@dataclass(frozen=True)
class ControlEdge:
    src: int
    dst: int
    tag: str  # flow | call | return | loop-back


@dataclass
class ControlEdges:
    edges: list[ControlEdge]
    diagnostics: list[str] = field(default_factory=list)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(e.src, e.dst) for e in self.edges})


def function_definitions(ast: Ast) -> list[int]:
    """FunctionDecl ids that carry a body, in pre-order."""
    out = []
    for fn in ast.find("FunctionDecl"):
        children = ast.children(fn)
        if children and ast.kind(children[-1]) == "CompoundStmt":
            out.append(fn)
    return out


def sub_statements(ast: Ast, node: int) -> tuple[int, ...]:
    """Statements nested directly in a node, in source order."""
    kind = ast.kind(node)
    children = ast.children(node)
    if kind in ("CompoundStmt", "LabelStmt", "DefaultStmt"):
        return children
    if kind in ("IfStmt", "CaseStmt"):
        return children[1:]
    if kind in ("WhileStmt", "ForStmt", "SwitchStmt"):
        return children[-1:]
    return ()


def owned_expr_roots(ast: Ast, node: int) -> tuple[int, ...]:
    """Expression subtrees evaluated *at* this CFG node (no nested statements)."""
    kind = ast.kind(node)
    children = ast.children(node)
    if kind in ("IfStmt", "WhileStmt", "SwitchStmt"):
        return (children[0],)
    if kind == "ForStmt":
        return children[:-1]
    if kind == "CaseStmt":
        return (children[0],)
    if kind in ("LabelStmt", "DefaultStmt", "FunctionDecl"):
        return ()
    if kind == "ReturnStmt":
        return children
    if kind in SIMPLE_STMT_KINDS:
        return (node,)
    return ()


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
    def __init__(self, ast: Ast, add_edge, diagnostics: list[str]):
        self.ast = ast
        self.add_edge = add_edge
        self.diagnostics = diagnostics
        self.nodes: list[int] = []  # statement-level nodes, pre-order
        self.returns: list[int] = []
        self.loop_stack: list[int] = []
        self.break_stack: list[list[int]] = []

    def wire(self, stmt: int, preds: list[int]) -> list[int]:
        """Wire ``preds -> stmt`` and internals; return fallthrough exits."""
        ast = self.ast
        kind = ast.kind(stmt)

        if kind != "CompoundStmt":
            self.nodes.append(stmt)
            for p in preds:
                self.add_edge(p, stmt, "flow")
            preds = [stmt]
        if kind == "CompoundStmt" or kind in WRAPPER_KINDS:
            for child in sub_statements(ast, stmt):
                preds = self.wire(child, preds)
            return preds

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
            arms = ast.children(stmt)[1:]
            exits = []
            for arm in arms:
                exits.extend(self.wire(arm, [stmt]))
            if len(arms) < 2:
                exits.append(stmt)  # false branch falls to the successor
            return _dedupe(exits)
        if kind in ("WhileStmt", "ForStmt"):
            body = ast.children(stmt)[-1]
            self.loop_stack.append(stmt)
            self.break_stack.append([])
            body_exits = self.wire(body, [stmt])
            self.loop_stack.pop()
            breaks = self.break_stack.pop()
            for x in body_exits:
                if x != stmt:
                    self.add_edge(x, stmt, "loop-back")
            return _dedupe([stmt] + breaks)
        if kind == "SwitchStmt":
            body = ast.children(stmt)[-1]
            case_nodes = _collect_cases(ast, body)
            for case in case_nodes:
                self.add_edge(stmt, case, "flow")
            self.break_stack.append([])
            fallthrough = self.wire(body, [])
            breaks = self.break_stack.pop()
            exits = list(fallthrough) + breaks
            if not any(ast.kind(c) == "DefaultStmt" for c in case_nodes):
                exits.append(stmt)  # no default: the switch may be skipped
            return _dedupe(exits)
        # simple statement
        return [stmt]


def _dedupe(items: list[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


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


def _call_sites(ast: Ast, cfg_node: int) -> list[str]:
    """Callee names invoked by the expressions owned by one CFG node."""
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


def build_icfg(ast: Ast) -> ControlEdges:
    """Derive flow, loop-back, call, and return edges for the whole unit."""
    edges: set[ControlEdge] = set()
    diagnostics: list[str] = []

    def add_edge(src: int, dst: int, tag: str) -> None:
        edges.add(ControlEdge(src, dst, tag))

    functions = function_definitions(ast)
    fn_by_name: dict[str, int] = {}
    for fn in functions:
        name = ast.text(fn) or ""
        if name in fn_by_name:
            diagnostics.append(f"node {fn}: redefinition of {name}")
            continue
        fn_by_name[name] = fn

    wirings: dict[int, _FunctionWiring] = {}
    exits: dict[int, list[int]] = {}
    for fn in functions:
        body = ast.children(fn)[-1]
        wiring = wirings[fn] = _FunctionWiring(ast, add_edge, diagnostics)
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
        for cfg_node in wirings[fn].nodes:
            for name in _call_sites(ast, cfg_node):
                callee = fn_by_name.get(name)
                if callee is None:
                    diagnostics.append(
                        f"node {cfg_node}: unresolved call to {name or '<indirect>'}"
                    )
                    continue
                add_edge(cfg_node, callee, "call")
                if wirings[callee].nodes:
                    add_edge(callee, wirings[callee].nodes[0], "flow")
                for ep in exits[callee]:
                    add_edge(ep, cfg_node, "return")

    ordered = sorted(edges, key=lambda e: (e.src, e.dst, e.tag))
    return ControlEdges(ordered, diagnostics)
