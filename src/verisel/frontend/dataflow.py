"""Reaching definitions over the ICFG as a bit-vector worklist fixpoint.

A definition is a (CFG node, variable) pair created by a declaration, an
assignment, a compound assignment, or an increment/decrement. Def-use edges
connect the defining statement node to the *identifier* node that reads the
variable. One walk over each function body visits the CFG nodes in
pre-order, resolves names lexically as it goes (globals, parameters, block
locals), so same-named locals in different scopes never interfere, and
collects each node's writes and reads. Stores through pointers or array
elements kill nothing (no alias analysis).

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
from dataclasses import dataclass

from .cfg import ControlEdges, function_definitions, owned_expr_roots, sub_statements
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
# def/use walk


def _walk_defs_uses(ast: Ast):
    """Yield (CFG node, written var ids, {var id: [reading DeclRefExpr ids]}).

    One pass over each function body. Names resolve against the scopes as
    they stand when the walk reaches them: globals, then parameters, then a
    scope per ``CompoundStmt`` and per ``ForStmt``. A ``VarDecl`` is declared
    before its initializer is read.
    """
    global_scope: dict[str, int] = {}
    for child in ast.children(ast.root):
        if ast.kind(child) == "DeclStmt":
            for var in ast.children(child):
                global_scope[ast.text(var) or ""] = var
    scopes = [global_scope]

    def lookup(ref: int) -> int | None:
        name = ast.text(ref) or ""
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def gather(root: int, writes: set[int], uses: dict[int, list[int]]) -> None:
        kind = ast.kind(root)
        children = ast.children(root)
        if kind == "VarDecl":
            scopes[-1][ast.text(root) or ""] = root
            writes.add(root)
        elif kind == "DeclRefExpr":
            var = lookup(root)
            if var is not None:
                uses.setdefault(var, []).append(root)
            return
        elif kind == "CallExpr":
            children = children[1:]  # the callee name is not a variable use
        elif (kind == "CompoundAssignOperator" or (
                kind == "BinaryOperator" and ast.text(root) == "=") or (
                kind == "UnaryOperator" and ast.text(root) in ("++", "--"))):
            # a store through *p or a[i] writes nothing; its operands are reads
            target = children[0]
            if ast.kind(target) == "DeclRefExpr":
                var = lookup(target)
                if var is not None:
                    writes.add(var)
                if kind == "BinaryOperator":  # plain store: no read
                    children = children[1:]
        for child in children:
            gather(child, writes, uses)

    def walk(stmt: int):
        kind = ast.kind(stmt)
        scoped = kind in ("CompoundStmt", "ForStmt")
        if scoped:
            scopes.append({})
        if kind != "CompoundStmt":
            writes: set[int] = set()
            uses: dict[int, list[int]] = {}
            for root in owned_expr_roots(ast, stmt):
                gather(root, writes, uses)
            yield stmt, writes, uses
        for child in sub_statements(ast, stmt):
            yield from walk(child)
        if scoped:
            scopes.pop()

    for fn in function_definitions(ast):
        *params, body = ast.children(fn)
        named = [p for p in params if ast.text(p)]
        yield fn, set(named), {}
        scopes.append({ast.text(p): p for p in named})
        yield from walk(body)
        scopes.pop()


# ---------------------------------------------------------------------------
# fixpoint


def reaching_definitions(ast: Ast, icfg: ControlEdges) -> DataEdges:
    """Def-use edges for every definition that reaches a use along the ICFG."""
    writes: dict[int, set[int]] = {}
    uses: dict[int, dict[int, list[int]]] = {}
    for n, node_writes, node_uses in _walk_defs_uses(ast):
        writes[n], uses[n] = node_writes, node_uses
    nodes = sorted(writes)  # the walk visits exactly the CFG nodes
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
    return DataEdges([DataEdge(*edge) for edge in sorted(edges)])
