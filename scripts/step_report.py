#!/usr/bin/env python3
"""Cost of one training step on the shipped C corpus, phase by phase.

Trains the README default model (2 GAT layers of width 32, jumping
knowledge) on the 20 corpus graphs, one Adam step per graph as ``train``
does, and prints the tensors one step puts on the autodiff tape, the median
microseconds per forward, backward and Adam step, and the minor page faults
per step. Run it as ``PYTHONPATH=src python scripts/step_report.py``.
"""

import argparse
import resource
import statistics
import time
from pathlib import Path

from verisel import tensor as tz
from verisel.frontend import extract_graph
from verisel.graphio import PropertyKind, TokenVocabulary
from verisel.model import (
    ModelConfig,
    forward_scores,
    init_parameters,
    margin_rank_loss_t,
    prepare_input,
)
from verisel.trainer import _AdamState

REPO = Path(__file__).resolve().parent.parent
CONFIG = ModelConfig(num_gat_layers=2, gat_width=32, jumping_knowledge=True,
                     pool_hidden=(64, 12))
PORTFOLIO = ("bmc-style", "cegar-style", "symexec-style")
LABELS = (2.0, 1.0, 0.5)
LEARNING_RATE = 0.002


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=20,
                        help="passes over the corpus; the first one is not timed")
    args = parser.parse_args()
    if args.epochs < 2:
        parser.error("--epochs must be at least 2")

    vocab = TokenVocabulary.default()
    params = init_parameters(CONFIG, vocab, PORTFOLIO, seed=0)
    inputs = [prepare_input(extract_graph(path.read_text(encoding="utf-8"), vocab,
                                          graph_id=path.stem,
                                          property=PropertyKind.REACH_SAFETY)[0], params)
              for path in sorted((REPO / "corpus").glob("*.c"))]
    optimizer = _AdamState(params)
    phases: dict[str, list[float]] = {"forward": [], "backward": [], "adam": []}
    tape = steps = faults = 0
    for epoch in range(args.epochs):
        start_faults = minor_faults()
        for inp in inputs:
            params.zero_grad()
            t0 = time.perf_counter()
            loss = margin_rank_loss_t(forward_scores(inp, params), LABELS)
            t1 = time.perf_counter()
            tz.backward(loss)
            t2 = time.perf_counter()
            optimizer.step(LEARNING_RATE)
            t3 = time.perf_counter()
            if epoch == 0:  # warm-up pass
                tape = len(tz._toposort(loss))
                continue
            for name, seconds in zip(phases, (t1 - t0, t2 - t1, t3 - t2)):
                phases[name].append(seconds)
        if epoch:
            faults += minor_faults() - start_faults
            steps += len(inputs)

    print(f"training step on {len(inputs)} corpus graphs, {steps} timed steps")
    print(f"tape tensors per step: {tape}")
    for name, seconds in phases.items():
        print(f"{name} us per step (median): {statistics.median(seconds) * 1e6:.0f}")
    print(f"minor page faults per step: {faults / steps:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
