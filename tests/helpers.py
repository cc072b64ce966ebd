"""Shared builders for randomized test inputs and independent oracles."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from verisel import tensor as tz
from verisel.graphio import EDGE_SET_NAMES, ProgramGraph, PropertyKind
from verisel.model import _encode_property, attention_pool, jumping_knowledge


def random_graph(rng: np.random.Generator, *, max_nodes: int = 12,
                 vocab_size: int = 8, graph_id: str = "g") -> ProgramGraph:
    """A random valid ProgramGraph (no structural meaning, invariants hold)."""
    n = int(rng.integers(1, max_nodes + 1))
    kinds = [int(rng.integers(0, vocab_size)) for _ in range(n)]
    edge_sets = {}
    for name in EDGE_SET_NAMES:
        count = int(rng.integers(0, 2 * n))
        pairs = {
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(count)
        }
        edge_sets[name] = sorted(pairs)
    prop = list(PropertyKind)[int(rng.integers(0, 4))]
    return ProgramGraph(graph_id, prop, kinds, edge_sets)


def awkward_graph(rng: np.random.Generator, n: int, *,
                  vocab_size: int = 8) -> ProgramGraph:
    """A random graph with the cases edge lists must merge or keep apart.

    Every set holds the self-edge (0, 0), AST and DFG also share an edge
    leaving node 0, and when n > 1 the last node has no edge at all.
    """
    linked = max(1, n - 1)

    def pairs() -> set[tuple[int, int]]:
        count = int(rng.integers(0, 2 * linked))
        return {(int(rng.integers(0, linked)), int(rng.integers(0, linked)))
                for _ in range(count)}

    shared = (0, linked - 1)
    kinds = [int(rng.integers(0, vocab_size)) for _ in range(n)]
    return ProgramGraph("awkward", PropertyKind.TERMINATION, kinds, {
        "AST": sorted(pairs() | {shared, (0, 0)}),
        "ICFG": sorted(pairs() | {(0, 0)}),
        "DFG": sorted(pairs() | {shared, (0, 0)}),
    })


def random_permutation(rng: np.random.Generator, n: int) -> list[int]:
    perm = list(range(n))
    shuffled = rng.permutation(n)
    return [int(shuffled[i]) for i in perm]


# ---------------------------------------------------------------------------
# Dense attention oracle: the n x n formulation that the edge-list GAT layer
# replaced. Non-edges get a -1e30 additive mask before a row softmax, so
# their weight is exactly zero; rows are receivers, columns senders.

_MASKED = -1e30


def dense_allowed_mask(n: int, edges) -> np.ndarray:
    """Additive softmax mask: 0 on self-loops and edges (row=dst), else -inf-ish."""
    mask = np.full((n, n), _MASKED)
    np.fill_diagonal(mask, 0.0)
    for src, dst in edges:
        mask[dst, src] = 0.0
    return mask


def dense_gat_layer(states, edges, params, *, slope=0.2, message_mask=None,
                    allowed_mask=None):
    """One attention layer over the given edges plus implicit self-loops."""
    n = states.shape[0]
    d_out = params.w_in.shape[0]
    xin = tz.matmul(states, tz.transpose(params.w_in))    # receiver features
    xout = tz.matmul(states, tz.transpose(params.w_out))  # sender features
    a_in = tz.slice_rows(params.attn, 0, d_out)
    a_out = tz.slice_rows(params.attn, d_out, 2 * d_out)
    s_in = tz.matmul(xin, a_in)    # (n, 1)
    s_out = tz.matmul(xout, a_out)  # (n, 1)
    ones_row = tz.constant(np.ones((1, n)))
    ones_col = tz.constant(np.ones((n, 1)))
    # score[i, j] = s_in[i] + s_out[j] for the edge (j -> i)
    raw = tz.add(tz.matmul(s_in, ones_row), tz.matmul(ones_col, tz.transpose(s_out)))
    raw = tz.leaky_relu(raw, slope)
    if allowed_mask is None:
        allowed_mask = dense_allowed_mask(n, edges)
    attn = tz.softmax_rows(tz.add(raw, tz.constant(allowed_mask)))
    if message_mask is not None:
        attn = tz.elementwise_mul(attn, message_mask)
    return tz.matmul(attn, xout)


def dense_forward_scores(graph, params, *, message_mask=None):
    """``model.forward_scores`` over dense layers; ``message_mask`` is n x n."""
    config = params.config
    n = graph.num_nodes
    onehot = np.zeros((n, params.vocab_size))
    onehot[np.arange(n), graph.node_kinds] = 1.0
    edges = [pair for name in config.edge_sets for pair in graph.edge_sets[name]]
    allowed = dense_allowed_mask(n, edges)
    outputs = [tz.constant(onehot)]
    for layer in params.gat:
        outputs.append(dense_gat_layer(
            outputs[-1], edges, layer, slope=config.leaky_slope,
            message_mask=message_mask, allowed_mask=allowed,
        ))
    collected = jumping_knowledge(outputs, config.jumping_knowledge)
    graph_vec = attention_pool(collected, params.pool, config.leaky_slope)
    z = tz.concat_cols([graph_vec, _encode_property(graph.property, config)])
    for i, layer in enumerate(params.head):
        z = tz.add(tz.matmul(z, tz.transpose(layer.w)), layer.b)
        if i + 1 < len(params.head):
            z = tz.leaky_relu(z, config.leaky_slope)
    return z


# ---------------------------------------------------------------------------
# Brute-force reaching-definitions oracle.
#
# Fully independent of the dataflow module: its own statement walk, its own
# def/use collection with two-level (function/global) scoping, and path
# enumeration (all acyclic paths plus single loop unrolls, i.e. each node may
# appear at most twice on a path) instead of a worklist fixpoint. Assumes the
# program under test does not shadow names in nested blocks.


def _oracle_functions(ast):
    out = []
    for i, node in enumerate(ast.nodes):
        if node.kind == "FunctionDecl" and node.children and \
                ast.kind(node.children[-1]) == "CompoundStmt":
            out.append(i)
    return out


def _oracle_spine(ast, stmt, out):
    kind = ast.kind(stmt)
    if kind == "CompoundStmt":
        for child in ast.children(stmt):
            _oracle_spine(ast, child, out)
        return
    out.append(stmt)
    if kind == "IfStmt":
        for arm in ast.children(stmt)[1:]:
            _oracle_spine(ast, arm, out)
    elif kind in ("WhileStmt", "ForStmt", "SwitchStmt"):
        _oracle_spine(ast, ast.children(stmt)[-1], out)
    elif kind in ("LabelStmt", "DefaultStmt"):
        for child in ast.children(stmt):
            _oracle_spine(ast, child, out)
    elif kind == "CaseStmt":
        for child in ast.children(stmt)[1:]:
            _oracle_spine(ast, child, out)


def _oracle_owned(ast, node):
    kind = ast.kind(node)
    children = ast.children(node)
    if kind in ("IfStmt", "WhileStmt", "SwitchStmt", "CaseStmt"):
        return (children[0],)
    if kind == "ForStmt":
        return children[:-1]
    if kind in ("LabelStmt", "DefaultStmt", "FunctionDecl",
                "BreakStmt", "ContinueStmt"):
        return ()
    if kind == "ReturnStmt":
        return children
    return (node,)


def _oracle_scopes(ast):
    """qualified name tables: '::x' for globals, 'fn::x' for locals/params."""
    global_names = set()
    for child in ast.children(ast.root):
        if ast.kind(child) == "DeclStmt":
            for var in ast.children(child):
                global_names.add(ast.text(var))
    local_names = {}
    for fn in _oracle_functions(ast):
        names = set()
        for node in ast.walk(fn):
            if ast.kind(node) in ("VarDecl", "ParmVarDecl") and ast.text(node):
                names.add(ast.text(node))
        local_names[fn] = names
    return global_names, local_names


def _oracle_qualify(name, fn_name, global_names, local):
    if name in local:
        return f"{fn_name}::{name}"
    if name in global_names:
        return f"::{name}"
    return None


def _oracle_collect(ast, root, qualify, writes, reads):
    kind = ast.kind(root)
    children = ast.children(root)
    text = ast.text(root)
    if kind == "DeclStmt":
        for var in children:
            _oracle_collect(ast, var, qualify, writes, reads)
        return
    if kind == "VarDecl":
        q = qualify(text)
        if q:
            writes.add(q)
        for init in children:
            _oracle_collect(ast, init, qualify, writes, reads)
        return
    if kind == "BinaryOperator" and text == "=":
        lhs, rhs = children
        if ast.kind(lhs) == "DeclRefExpr":
            q = qualify(ast.text(lhs))
            if q:
                writes.add(q)
        else:
            _oracle_collect(ast, lhs, qualify, writes, reads)
        _oracle_collect(ast, rhs, qualify, writes, reads)
        return
    if kind == "CompoundAssignOperator" or (
        kind == "UnaryOperator" and text in ("++", "--")
    ):
        target = children[0]
        if ast.kind(target) == "DeclRefExpr":
            q = qualify(ast.text(target))
            if q:
                writes.add(q)
                reads.append((q, target))
        else:
            _oracle_collect(ast, target, qualify, writes, reads)
        for extra in children[1:]:
            _oracle_collect(ast, extra, qualify, writes, reads)
        return
    if kind == "CallExpr":
        for arg in children[1:]:
            _oracle_collect(ast, arg, qualify, writes, reads)
        return
    if kind == "DeclRefExpr":
        q = qualify(text)
        if q:
            reads.append((q, root))
        return
    for child in children:
        _oracle_collect(ast, child, qualify, writes, reads)


def oracle_reaching_edges(ast, icfg) -> set[tuple[int, int, str]]:
    """(def node, use ref node, plain name) triples by path enumeration."""
    global_names, local_names = _oracle_scopes(ast)
    defs = defaultdict(set)
    uses = defaultdict(list)
    nodes = []
    for fn in _oracle_functions(ast):
        fn_name = ast.text(fn)
        local = local_names[fn]

        def qualify(name, _fn=fn_name, _local=local):
            return _oracle_qualify(name, _fn, global_names, _local)

        spine = []
        _oracle_spine(ast, ast.children(fn)[-1], spine)
        nodes.append(fn)
        nodes.extend(spine)
        for param in ast.children(fn)[:-1]:
            q = qualify(ast.text(param))
            if q:
                defs[fn].add(q)
        for stmt in spine:
            writes, reads = set(), []
            for root in _oracle_owned(ast, stmt):
                _oracle_collect(ast, root, qualify, writes, reads)
            defs[stmt] = writes
            uses[stmt] = reads

    succs = defaultdict(list)
    node_set = set(nodes)
    for src, dst in {(e.src, e.dst) for e in icfg.edges}:
        if src in node_set and dst in node_set:
            succs[src].append(dst)

    edges = set()
    for origin in nodes:
        for var in defs[origin]:
            plain = var.split("::")[-1]
            stack = [(origin, {origin: 1})]
            while stack:
                here, counts = stack.pop()
                for nxt in succs[here]:
                    if counts.get(nxt, 0) >= 2:
                        continue
                    for q, ref in uses[nxt]:
                        if q == var:
                            edges.add((origin, ref, plain))
                    if var in defs[nxt]:
                        continue  # killed (or regenerated at the origin)
                    bumped = dict(counts)
                    bumped[nxt] = bumped.get(nxt, 0) + 1
                    stack.append((nxt, bumped))
    return edges
