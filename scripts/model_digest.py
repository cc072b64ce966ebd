#!/usr/bin/env python3
"""Digests of what four seeded models compute on the shipped C corpus.

Trains three models on the 20 corpus graphs, each seeded and for a few
epochs: the README default (2 GAT layers of width 32, jumping knowledge),
3 layers without jumping knowledge with a one-hot property and head widths
(5, 4), and a model without GAT layers. A fourth, the README default again,
trains on four larger graphs, each the disjoint union of five corpus
graphs (about 150 nodes and 400 attention edges), so that its GAT layers
sum messages by ``tensor.Segments``' rank-step plan, which the corpus
graphs are too small for. For each model it prints the sha256 of the saved
model bytes, of the epoch losses, of the ``predict`` scores of every graph
it trained or validated on, and of the ``explain`` keep scores and loss
traces of those graphs. Two trees that compute the same bits print the
same lines, so a change that claims byte identity can be checked with
``diff``.

Run it as ``PYTHONPATH=src python scripts/model_digest.py``. To digest
another checkout with this script, point ``PYTHONPATH`` at that checkout's
``src``; the script reads the corpus next to itself.
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from verisel.explain import explain
from verisel.frontend import extract_graph
from verisel.graphio import (EDGE_SET_NAMES, LabeledInstance, ProgramGraph, PropertyKind,
                              TokenVocabulary)
from verisel.model import ModelConfig, init_parameters, predict, save_model
from verisel.trainer import TrainConfig, train

REPO = Path(__file__).resolve().parent.parent
PORTFOLIO = ("bmc-style", "cegar-style", "symexec-style")
CONFIGS = {
    "readme": ModelConfig(num_gat_layers=2, gat_width=32, jumping_knowledge=True,
                          pool_hidden=(64, 12)),
    "deep": ModelConfig(num_gat_layers=3, gat_width=8, jumping_knowledge=False,
                        pool_hidden=(6,), head_hidden=(5, 4), property_encoding="onehot"),
    "flat": ModelConfig(num_gat_layers=0, pool_hidden=(8,)),
}
TRAIN_GRAPHS = 14  # the rest validate
UNIONS = 4  # corpus graphs i, i + 4, i + 8, ... make union i; the last validates
EXPLAIN_ITERS = 8


def corpus_instances(seed: int) -> list[LabeledInstance]:
    """The corpus graphs, properties taken in turn, with seeded labels that
    favour the first verifier on looping programs."""
    vocab = TokenVocabulary.default()
    properties = list(PropertyKind)
    rng = np.random.default_rng(seed)
    instances = []
    for i, path in enumerate(sorted((REPO / "corpus").glob("*.c"))):
        graph, _ = extract_graph(path.read_text(encoding="utf-8"), vocab, graph_id=path.stem,
                                 property=properties[i % len(properties)])
        loops = any(src >= dst for src, dst in graph.edge_sets["ICFG"])
        base = np.array([2.0, 1.0, 0.5] if loops else [0.5, 1.0, 2.0])
        instances.append(LabeledInstance(graph, list(base + rng.uniform(0.0, 0.4, 3))))
    return instances


def disjoint_union(instances, graph_id: str) -> LabeledInstance:
    """One graph holding each instance's graph, node ids shifted past the
    ones before it, labelled with the mean of their labels."""
    kinds: list[int] = []
    edge_sets: dict[str, list[tuple[int, int]]] = {name: [] for name in EDGE_SET_NAMES}
    for inst in instances:
        offset = len(kinds)
        kinds += inst.graph.node_kinds
        for name, pairs in inst.graph.edge_sets.items():
            edge_sets[name] += [(src + offset, dst + offset) for src, dst in pairs]
    graph = ProgramGraph(graph_id, instances[0].graph.property, kinds, edge_sets)
    return LabeledInstance(graph, list(np.mean([inst.labels for inst in instances], axis=0)))


def sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def digests(config: ModelConfig, instances, train_graphs: int, seed: int,
            epochs: int) -> dict[str, str]:
    vocab = TokenVocabulary.default()
    init = init_parameters(config, vocab, PORTFOLIO, seed=seed)
    cfg = TrainConfig(epochs=epochs, initial_lr=2e-3, seed=seed)
    params, history = train(instances[:train_graphs], instances[train_graphs:], init, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(params, path)
        model = hashlib.sha256(path.read_bytes()).hexdigest()
    graphs = [inst.graph for inst in instances]
    masks = [explain(params, graph, iters=EXPLAIN_ITERS, lr=0.05) for graph in graphs]
    return {
        "model": model,
        "losses": sha([(e.train_loss, e.val_loss, e.lr) for e in history.epochs]),
        "predict": sha([predict(graph, params).scores for graph in graphs]),
        "explain": sha([s for mask in masks for s in mask.scores + mask.trace]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=4)
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")

    instances = corpus_instances(args.seed)
    unions = [disjoint_union(instances[i::UNIONS], f"union-{i}") for i in range(UNIONS)]
    runs = [(name, config, instances, TRAIN_GRAPHS) for name, config in CONFIGS.items()]
    runs.append(("large", CONFIGS["readme"], unions, UNIONS - 1))
    for name, config, graphs, train_graphs in runs:
        for what, digest in digests(config, graphs, train_graphs, args.seed,
                                    args.epochs).items():
            print(f"{name:<6} {what:<8} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
