#!/usr/bin/env python3
"""Cost of one training step and one explainer iteration on the shipped C corpus.

Trains the README default model (2 GAT layers of width 32, jumping
knowledge) on the 20 corpus graphs, one Adam step per graph as ``train``
does, and prints the tensors one step puts on the autodiff tape, the median
microseconds per forward, backward and Adam step, and the minor page faults
per step. Then it takes training steps on one larger graph, the disjoint
union of three copies of the corpus graphs (about 1.9k nodes), and prints
the median milliseconds and minor page faults per step there, after two
untimed steps, and the most faults one step took. The script first
applies the CLI's allocator setting (``cli.pin_malloc_thresholds``), so
both fault counts are the ones a ``verisel`` command sees. It then
explains each corpus graph with the trained model and prints the tensors
one explainer iteration puts on the tape, the median microseconds per
iteration (the time of a longer ``explain`` call minus a
one-iteration call, so the set-up is not counted) and the median
microseconds of that one-iteration call, which holds the set-up that runs
once per ``explain`` call. Last it prints the median
microseconds per ``predict``, on a freshly loaded model (the call that builds
the model's frozen parameter view) and on the same model again. Run it as
``PYTHONPATH=src python scripts/step_report.py``.
"""

import argparse
import contextlib
import resource
import statistics
import tempfile
import time
from pathlib import Path

from model_digest import disjoint_union
from verisel import tensor as tz
from verisel.cli import pin_malloc_thresholds
from verisel.explain import explain
from verisel.frontend import extract_graph
from verisel.graphio import LabeledInstance, PropertyKind, TokenVocabulary
from verisel.model import (
    ModelConfig,
    forward_scores,
    init_parameters,
    load_model,
    margin_rank_loss_t,
    predict,
    prepare_input,
    save_model,
)
from verisel.trainer import _AdamState

REPO = Path(__file__).resolve().parent.parent
CONFIG = ModelConfig(num_gat_layers=2, gat_width=32, jumping_knowledge=True,
                     pool_hidden=(64, 12))
PORTFOLIO = ("bmc-style", "cegar-style", "symexec-style")
LABELS = (2.0, 1.0, 0.5)
LEARNING_RATE = 0.002
EXPLAIN_ITERS = 20
EXPLAIN_ROUNDS = 3
PREDICT_ROUNDS = 3
UNION_COPIES = 3
UNION_STEPS = 20


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def tape_sizes():
    """Collect the tensors on the tape at each ``tz.backward`` call in the block."""
    sizes: list[int] = []
    backward = tz.backward
    tz.backward = lambda loss: (sizes.append(len(tz._toposort(loss))), backward(loss))
    try:
        yield sizes
    finally:
        tz.backward = backward


def train_step(inp, params, optimizer) -> tuple[tz.Tensor, tuple[float, float, float]]:
    """One Adam step on one graph: the loss and the seconds of the forward
    (with the loss), the backward and the Adam step."""
    params.zero_grad()
    t0 = time.perf_counter()
    loss = margin_rank_loss_t(forward_scores(inp, params), LABELS)
    t1 = time.perf_counter()
    tz.backward(loss)
    t2 = time.perf_counter()
    optimizer.step(LEARNING_RATE)
    t3 = time.perf_counter()
    return loss, (t1 - t0, t2 - t1, t3 - t2)


def union_steps(graphs, params, optimizer) -> tuple[int, float, float, int]:
    """Nodes of the union of ``UNION_COPIES`` copies of ``graphs``, the median
    seconds and minor page faults per training step on it, and the most
    faults one step took, after two untimed steps. The heap grows to the
    union's arrays over the first steps there, and where the last growth
    lands depends on the allocation pattern, so a timed step can still
    fault some pages in: the median reads a steady step, the maximum shows
    that growth."""
    union = disjoint_union([LabeledInstance(g, list(LABELS)) for g in graphs] * UNION_COPIES,
                           "union").graph
    inp = prepare_input(union, params)
    for _ in range(2):
        train_step(inp, params, optimizer)
    seconds, faults = [], []
    for _ in range(UNION_STEPS):
        start = minor_faults()
        seconds.append(sum(train_step(inp, params, optimizer)[1]))
        faults.append(minor_faults() - start)
    return (union.num_nodes, statistics.median(seconds), statistics.median(faults),
            max(faults))


def explain_iteration(params, graphs) -> tuple[int, float, float]:
    """Tape tensors per explainer iteration, median seconds per iteration and
    median seconds of a one-iteration ``explain`` call."""
    with tape_sizes() as sizes:
        explain(params, graphs[0], iters=1)
    seconds, single = [], []
    for _ in range(EXPLAIN_ROUNDS):
        for graph in graphs:
            t0 = time.perf_counter()
            explain(params, graph, iters=1)
            t1 = time.perf_counter()
            explain(params, graph, iters=1 + EXPLAIN_ITERS)
            t2 = time.perf_counter()
            seconds.append(((t2 - t1) - (t1 - t0)) / EXPLAIN_ITERS)
            single.append(t1 - t0)
    return sizes[0], statistics.median(seconds), statistics.median(single)


def predict_calls(params, graphs) -> tuple[float, float]:
    """Median seconds of the first ``predict`` on a freshly loaded copy of
    ``params`` and of a second one on that copy."""
    first, again = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(params, path)
        for _ in range(PREDICT_ROUNDS):
            for graph in graphs:
                loaded = load_model(path)
                for seconds in (first, again):
                    t0 = time.perf_counter()
                    predict(graph, loaded)
                    seconds.append(time.perf_counter() - t0)
    return statistics.median(first), statistics.median(again)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=20,
                        help="passes over the corpus; the first one is not timed")
    args = parser.parse_args()
    if args.epochs < 2:
        parser.error("--epochs must be at least 2")
    pinned = pin_malloc_thresholds()

    vocab = TokenVocabulary.default()
    params = init_parameters(CONFIG, vocab, PORTFOLIO, seed=0)
    graphs = [extract_graph(path.read_text(encoding="utf-8"), vocab, graph_id=path.stem,
                            property=PropertyKind.REACH_SAFETY)[0]
              for path in sorted((REPO / "corpus").glob("*.c"))]
    inputs = [prepare_input(graph, params) for graph in graphs]
    optimizer = _AdamState(params)
    phases: dict[str, list[float]] = {"forward": [], "backward": [], "adam": []}
    tape = steps = faults = 0
    for epoch in range(args.epochs):
        start_faults = minor_faults()
        for inp in inputs:
            loss, times = train_step(inp, params, optimizer)
            if epoch == 0:  # warm-up pass
                tape = len(tz._toposort(loss))
                continue
            for name, seconds in zip(phases, times):
                phases[name].append(seconds)
        if epoch:
            faults += minor_faults() - start_faults
            steps += len(inputs)

    print(f"training step on {len(inputs)} corpus graphs, {steps} timed steps")
    print(f"tape tensors per step: {tape}")
    for name, seconds in phases.items():
        print(f"{name} us per step (median): {statistics.median(seconds) * 1e6:.0f}")
    print(f"minor page faults per step: {faults / steps:.1f}")
    nodes, seconds, faults, most = union_steps(graphs, params, optimizer)
    print(f"training step on a {nodes}-node union of {UNION_COPIES} copies of the corpus "
          f"(malloc thresholds {'pinned' if pinned else 'not pinned'}): "
          f"{seconds * 1e3:.1f} ms and {faults:.0f} minor page faults per step "
          f"(medians of {UNION_STEPS}), at most {most} faults in one step")
    tape, seconds, single = explain_iteration(params, graphs)
    print(f"explainer iteration on {len(graphs)} corpus graphs, "
          f"{EXPLAIN_ROUNDS} x {EXPLAIN_ITERS} timed iterations each")
    print(f"tape tensors per explainer iteration: {tape}")
    print(f"us per explainer iteration (median): {seconds * 1e6:.0f}")
    print(f"us per 1-iteration explain call (median): {single * 1e6:.0f}")
    first, again = predict_calls(params, graphs)
    print(f"us per predict on a freshly loaded model (median): {first * 1e6:.0f}")
    print(f"us per predict on a model already used (median): {again * 1e6:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
