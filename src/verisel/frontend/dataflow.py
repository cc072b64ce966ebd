"""Reaching definitions over the ICFG as a bit-vector worklist fixpoint.

A definition is a (CFG node, variable) pair created by a declaration, an
assignment, a compound assignment, or an increment/decrement. Def-use edges
connect the defining statement node to the *identifier* node that reads the
variable. Variables are resolved lexically (globals, parameters, block
locals), so same-named locals in different scopes never interfere. Stores
through pointers or array elements kill nothing (no alias analysis).

Definitions are numbered once, in CFG-node order, and IN/OUT sets are
Python-int bitmasks over those numbers (Kildall 1973; Aho et al.,
*Compilers*, 9.2). Each variable has a mask of all its definitions; a node
generates its own definitions and kills every definition of the variables
it writes, so ``out = gen | (in & ~kill)``. A FIFO worklist, seeded with
every node in order, runs to the fixpoint; the definitions reaching a use
of ``v`` are the set bits of ``in & var_bits[v]``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .cfg import ControlEdges, function_definitions, owned_expr_roots, statement_nodes
from .parser import Ast


@dataclass(frozen=True)
class DataEdge:
    src: int  # defining statement-level node
    dst: int  # using DeclRefExpr node
    var: str


@dataclass
class DataEdges:
    edges: list[DataEdge]

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(e.src, e.dst) for e in self.edges})


# ---------------------------------------------------------------------------
# name resolution


@dataclass
class _Resolution:
    # DeclRefExpr id -> declaring node id (VarDecl or ParmVarDecl)
    var_of_ref: dict[int, int] = field(default_factory=dict)
    name_of_var: dict[int, str] = field(default_factory=dict)


def resolve_variables(ast: Ast) -> _Resolution:
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


# ---------------------------------------------------------------------------
# def/use extraction


def _gather_expr(ast: Ast, res: _Resolution, root: int, writes: set[int],
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


def node_defs_uses(ast: Ast, res: _Resolution, cfg_node: int):
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


# ---------------------------------------------------------------------------
# fixpoint


def reaching_definitions(ast: Ast, icfg: ControlEdges) -> DataEdges:
    """Def-use edges for every definition that reaches a use along the ICFG."""
    res = resolve_variables(ast)
    nodes = statement_nodes(ast)
    node_set = set(nodes)

    def_nodes: list[int] = []  # bit i -> defining node
    writes: dict[int, set[int]] = {}
    uses: dict[int, dict[int, list[int]]] = {}
    gen: dict[int, int] = {}
    var_bits: dict[int, int] = {}
    for n in nodes:
        writes[n], uses[n] = node_defs_uses(ast, res, n)
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
            name = res.name_of_var.get(var, "")
            while reaching:
                low = reaching & -reaching
                reaching ^= low
                def_node = def_nodes[low.bit_length() - 1]
                edges.extend((def_node, ref, name) for ref in refs)
    return DataEdges([DataEdge(*edge) for edge in sorted(edges)])
