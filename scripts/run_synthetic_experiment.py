#!/usr/bin/env python3
"""Planted-signal experiment: train the ranker and compare it to baselines.

Generates graphs whose best verifier is decided by the presence of one
loop-back control edge, trains on 30 of them, then reports success accuracy,
mean Spearman correlation, and the top-K error curve for the trained model,
the ideal static selectors, and a random selector on the held-out split.
The dataset generator and the selectors live beside the tests, in
``tests/planted.py``. Run it as
``PYTHONPATH=src python scripts/run_synthetic_experiment.py``.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from planted import (  # noqa: E402
    PORTFOLIO,
    baselines,
    experiment_config,
    instances_of,
    planted_dataset,
    random_orderings,
    results_from_orderings,
    synthetic_vocabulary,
)
from verisel.explain import explain, top_m_edges  # noqa: E402
from verisel.model import init_parameters, predict  # noqa: E402
from verisel.trainer import TrainConfig, evaluate_rankings, train  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphs", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--init-seed", type=int, default=1)
    parser.add_argument("--train-seed", type=int, default=0)
    parser.add_argument("--explain-top", type=int, default=3,
                        help="explain this many held-out positives")
    args = parser.parse_args()

    vocab = synthetic_vocabulary()
    data = planted_dataset(args.graphs, seed=args.data_seed)
    split = max(30, args.graphs // 2)
    val_split = split + max(5, args.graphs // 6)
    train_set = instances_of(data[:split])
    val_set = instances_of(data[split:val_split])
    held = instances_of(data[val_split:])
    if not held:
        print("need more graphs for a held-out split", file=sys.stderr)
        return 2

    init = init_parameters(experiment_config(), vocab, PORTFOLIO,
                           seed=args.init_seed)
    cfg = TrainConfig(epochs=args.epochs, initial_lr=1e-3, margin=1.0,
                      seed=args.train_seed)
    params, history = train(train_set, val_set, init, cfg)
    print(f"trained {len(history.epochs)} epochs "
          f"(stop: {history.stop_reason}, "
          f"best val {min(e.val_loss for e in history.epochs):.4f})")

    selectors = {
        "model": [predict(inst.graph, params) for inst in held],
    }
    static = baselines(train_set)
    selectors["iss-rank"] = results_from_orderings([static.iss_rank] * len(held), held)
    selectors["iss-topk"] = results_from_orderings([static.iss_topk] * len(held), held)
    selectors["random"] = results_from_orderings(
        random_orderings(len(held), len(PORTFOLIO), seed=0), held
    )

    print(f"\nheld-out split: {len(held)} instances")
    header = f"{'selector':10s} {'success':>8s} {'spearman':>9s} " + " ".join(
        f"top{k}err" for k in range(1, len(PORTFOLIO) + 1)
    )
    print(header)
    for name, results in selectors.items():
        rep = evaluate_rankings(results, held).overall
        success = "n/a" if rep.success_accuracy is None else f"{rep.success_accuracy:8.3f}"
        topks = " ".join(
            f"{rep.topk_error[k]:7.3f}" for k in sorted(rep.topk_error)
        )
        print(f"{name:10s} {success} {rep.spearman_mean:9.3f} {topks}")

    positives = [g for g in data[val_split:] if g.positive][:args.explain_top]
    if positives:
        print("\nexplanations (planted edge marked *):")
        for g in positives:
            mask = explain(params, g.instance.graph)
            top = top_m_edges(mask, g.instance.graph, vocab)
            parts = []
            for e in top.entries:
                marker = "*" if (e.edge_set, e.src, e.dst) == g.planted else ""
                parts.append(f"{e.edge_set}({e.src}->{e.dst}){marker}:{e.score:.2f}")
            print(f"  {g.instance.graph.id}: {'  '.join(parts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
