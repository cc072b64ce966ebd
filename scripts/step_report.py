#!/usr/bin/env python3
"""Cost of one training step and one explainer iteration on the shipped C corpus.

Trains the README example model (2 GAT layers of width 32, jumping
knowledge) on the 20 corpus graphs, one Adam step per graph as ``train``
does, and prints the tensors one step puts on the autodiff tape, the median
microseconds per forward, backward and Adam step, and the minor page faults
per step. Then it takes training steps on one larger graph, the disjoint
union of three copies of the corpus graphs (about 1.9k nodes), and prints
the median milliseconds and minor page faults per step there, after two
untimed steps, and the most faults one step took. A scaling probe follows:
one forward and backward (no Adam step) of the default 1-layer model on a
generated call-heavy program of 200 helper functions (the benchmark's
generator, ``Shape(200, 25, 6, 3, 3)``), about 31k nodes and 291k attention
rows, with the median milliseconds and minor page faults per step and the
tracemalloc peak of one step. On such code the attention rows outgrow the
nodes, so a GAT layer's (rows x width) arrays, not the node states, set
the peak. The script first
applies the CLI's allocator setting (``cli.pin_malloc_thresholds``), so
both fault counts are the ones a ``verisel`` command sees. It then
explains each corpus graph with the trained model and prints the tensors
one explainer iteration puts on the tape, the median microseconds per
iteration (the time of a longer ``explain`` call minus a
one-iteration call, so the set-up is not counted) and the median
microseconds of that one-iteration call, which holds the set-up that runs
once per ``explain`` call. Then it prints the median
microseconds per ``predict``, on a freshly loaded model (the call that builds
the model's frozen parameter view) and on the same model again. Last it
prints the median microseconds per graph of one ``predict_many`` call over
the corpus graphs, which packs them into unions of graphs, next to one
``predict`` per graph. Run it as
``PYTHONPATH=src python scripts/step_report.py``.
"""

import argparse
import contextlib
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from model_digest import disjoint_union
from verisel import tensor as tz
from verisel.cli import pin_malloc_thresholds
from verisel.explain import explain
from verisel.frontend import extract_graph
from verisel.graphio import LabeledInstance, PropertyKind, TokenVocabulary
from verisel.model import (
    ModelConfig,
    _batches,
    forward_scores,
    init_parameters,
    load_model,
    margin_rank_loss_t,
    predict,
    predict_many,
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
BATCH_ROUNDS = 10
UNION_COPIES = 3
UNION_STEPS = 20
# perfbench's generator.Shape(functions, statements, variables, fan_in, loop_depth)
PROBE_SHAPE = (200, 25, 6, 3, 3)
PROBE_STEPS = 5


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


def scaling_probe(vocab) -> tuple[int, int, float, float, float]:
    """Nodes and attention rows of the ``PROBE_SHAPE`` program, and for one
    forward and backward of the default 1-layer model on it: the median seconds and
    minor page faults per step after one untimed step, and the tracemalloc
    peak in MiB of one more step."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from generator import Shape, generate_program

    params = init_parameters(ModelConfig(), vocab, PORTFOLIO, seed=0)
    source = generate_program(Shape(*PROBE_SHAPE), "layout-0", "seed-0")
    graph = extract_graph(source, vocab, graph_id="probe",
                          property=PropertyKind.REACH_SAFETY)[0]
    inp = prepare_input(graph, params)

    def step() -> None:
        params.zero_grad()
        tz.backward(margin_rank_loss_t(forward_scores(inp, params), LABELS))

    step()
    seconds, faults = [], []
    for _ in range(PROBE_STEPS):
        start, t0 = minor_faults(), time.perf_counter()
        step()
        seconds.append(time.perf_counter() - t0)
        faults.append(minor_faults() - start)
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return (graph.num_nodes, len(inp.index.keys), statistics.median(seconds),
            statistics.median(faults), peak)


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


def batched_predict(params, graphs) -> tuple[float, float]:
    """Median seconds per graph of one ``predict_many`` call over ``graphs``
    and of one ``predict`` per graph, on the same model."""
    batched, single = [], []
    predict_many(graphs, params)  # builds the frozen view
    for _ in range(BATCH_ROUNDS):
        t0 = time.perf_counter()
        predict_many(graphs, params)
        t1 = time.perf_counter()
        for graph in graphs:
            predict(graph, params)
        t2 = time.perf_counter()
        batched.append((t1 - t0) / len(graphs))
        single.append((t2 - t1) / len(graphs))
    return statistics.median(batched), statistics.median(single)


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
    nodes, rows, seconds, faults, peak = scaling_probe(vocab)
    print(f"scaling probe, default 1-layer model on a {nodes}-node call-heavy program "
          f"({rows} attention rows): {seconds * 1e3:.0f} ms and "
          f"{faults:.0f} minor page faults per forward and backward (medians of "
          f"{PROBE_STEPS}), tracemalloc peak {peak:.1f} MiB")
    tape, seconds, single = explain_iteration(params, graphs)
    print(f"explainer iteration on {len(graphs)} corpus graphs, "
          f"{EXPLAIN_ROUNDS} x {EXPLAIN_ITERS} timed iterations each")
    print(f"tape tensors per explainer iteration: {tape}")
    print(f"us per explainer iteration (median): {seconds * 1e6:.0f}")
    print(f"us per 1-iteration explain call (median): {single * 1e6:.0f}")
    first, again = predict_calls(params, graphs)
    print(f"us per predict on a freshly loaded model (median): {first * 1e6:.0f}")
    print(f"us per predict on a model already used (median): {again * 1e6:.0f}")
    batched, single = batched_predict(params, graphs)
    print(f"us per graph, predict_many over {len(graphs)} corpus graphs as "
          f"{len(_batches(graphs))} union(s) (median of {BATCH_ROUNDS}): {batched * 1e6:.0f}; "
          f"one predict per graph: {single * 1e6:.0f} ({single / batched:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
