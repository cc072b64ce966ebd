"""Reaching definitions over the ICFG as a round-robin bit-vector fixpoint.

A definition is a (CFG node, variable) pair created by a declaration, an
assignment, a compound assignment, or an increment/decrement. A def-use edge
is a (definition, use) pair of node ids: the defining statement node and the
*identifier* node that reads the variable, so the variable is the use's
identifier text. The pass reads each CFG node's writes and reads from
``icfg.accesses``, which the ICFG wiring records as it walks each function
body with names already resolved lexically, so same-named locals in
different scopes never interfere.

Definitions are numbered once, in CFG-node order, and IN/OUT sets are
Python-int bitmasks over those numbers (Kildall 1973; Aho et al.,
*Compilers*, 9.2). Each variable has a mask of all its definitions; a node
generates its own definitions and kills every definition of the variables
it writes, so ``out = gen | (in & ~kill)``. The nodes are swept in node-id
order, repeating the sweep until no OUT set changes. AST ids are pre-order,
so id order is source order within each function. The supported C subset
has no ``goto``, so every intraprocedural edge except a loop's back edge
points forward in that order, as it would in a reverse postorder (Kam &
Ullman 1976; Cooper, Harvey & Kennedy, "Iterative data-flow analysis,
revisited", 2004). Any sweep order reaches the same fixpoint, so the order
changes only the number of sweeps. Each IN set is the union of its
predecessors' OUT sets, as the last sweep saw them; the definitions
reaching a use of ``v`` are the set bits of ``in & var_bits[v]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import ControlEdges
from .parser import Ast


@dataclass
class DataEdges:
    edges: list[tuple[int, int]]  # sorted, distinct (def node, use node) pairs


def reaching_definitions(ast: Ast, icfg: ControlEdges) -> DataEdges:
    """Def-use pairs for every definition that reaches a use along the ICFG."""
    # ast goes unread; perfbench/tracing.py wraps this function by parameter name
    accesses = icfg.accesses
    nodes = sorted(accesses)
    position = {n: i for i, n in enumerate(nodes)}

    def_nodes: list[int] = []  # bit i -> defining node
    gen: list[int] = []
    var_bits: dict[int, int] = {}
    for n in nodes:
        bits = 0
        for var in accesses[n][0]:
            bit = 1 << len(def_nodes)
            def_nodes.append(n)
            var_bits[var] = var_bits.get(var, 0) | bit
            bits |= bit
        gen.append(bits)
    keep: list[int] = []  # ~kill
    for n in nodes:
        bits = 0
        for var in accesses[n][0]:
            bits |= var_bits[var]
        keep.append(~bits)

    preds: list[list[int]] = [[] for _ in nodes]  # positions in nodes
    for src, dst, _ in icfg.edges:
        preds[position[dst]].append(position[src])

    # round-robin sweeps in node-id order until no OUT changes; the last
    # sweep changes no OUT set, so the IN sets it stores are final
    out_bits = [0] * len(nodes)
    in_bits = [0] * len(nodes)
    changed = True
    while changed:
        changed = False
        for i, (node_gen, node_keep, node_preds) in enumerate(zip(gen, keep, preds)):
            incoming = 0
            for p in node_preds:
                incoming |= out_bits[p]
            in_bits[i] = incoming
            out = node_gen | (incoming & node_keep)
            if out != out_bits[i]:
                out_bits[i] = out
                changed = True

    edges: list[tuple[int, int]] = []
    for n, incoming in zip(nodes, in_bits):
        for var, refs in accesses[n][1].items():
            reaching = incoming & var_bits.get(var, 0)
            while reaching:
                low = reaching & -reaching
                reaching ^= low
                def_node = def_nodes[low.bit_length() - 1]
                for ref in refs:
                    edges.append((def_node, ref))
    edges.sort()
    return DataEdges(edges)
