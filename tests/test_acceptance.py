"""Acceptance suite: ten go/no-go checks, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    elementwise_mul,
    grad_check,
    named_edges,
    oracle_reaching_edges,
    permuted_graph,
    random_graph,
    random_permutation,
    sum_all,
)
from planted import (
    PORTFOLIO,
    average_ranks,
    mean_spearman,
    pearson,
    random_orderings,
    results_from_orderings,
    synthetic_vocabulary,
)
from verisel import tensor as T
from verisel.explain import explain, report_size, top_m_edges
from verisel.frontend import build_icfg, parse_source, reaching_definitions
from verisel.graphio import (
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    deserialize_graph,
    serialize_graph,
)
from verisel.model import (
    ModelConfig,
    forward_scores,
    init_parameters,
    load_model,
    predict,
    save_model,
)
from verisel.trainer import (
    PlateauSchedule,
    evaluate_rankings,
    spearman,
    topk_error,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def report(criterion: int, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {criterion} overran {budget}s budget"


# -- 1. metric oracles -------------------------------------------------------


def test_criterion_1_spearman_oracle():
    started = time.perf_counter()
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]) == pytest.approx(
        0.8, abs=1e-15
    )
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        x = list(rng.standard_normal(n))
        y = list(rng.standard_normal(n))
        delta = abs(spearman(x, y) - pearson(average_ranks(x), average_ranks(y)))
        worst = max(worst, delta)
    assert worst < 1e-9
    report(1, f"spearman = pearson-of-ranks on 1000 pairs, max delta {worst:.2e}",
           started, budget=1.0)


# -- 2. borda optimality -----------------------------------------------------


def test_criterion_2_borda_optimality():
    from planted import borda_ordering

    started = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    for k in (3, 4, 5):
        for _ in range(20):
            rankings = [
                [int(r) for r in rng.permutation(k) + 1]
                for _ in range(int(rng.integers(2, 8)))
            ]
            ours = mean_spearman(borda_ordering(rankings, k), rankings, k)
            best = max(
                mean_spearman(list(p), rankings, k)
                for p in itertools.permutations(range(k))
            )
            assert ours == pytest.approx(best, abs=1e-12)
            checked += 1
    report(2, f"borda attains max mean spearman on {checked} tables (k=3,4,5)",
           started, budget=10.0)


# -- 3. gradient soundness ---------------------------------------------------


GRAD_VOCAB = TokenVocabulary(("Unknown",) + tuple(f"K{i}" for i in range(1, 6)))


def grad_check_graphs():
    prop = PropertyKind.TERMINATION
    g1 = ProgramGraph("line", prop, [1, 2, 3, 4], {
        "AST": [(0, 1), (1, 2), (2, 3)],
        "ICFG": [(1, 2), (2, 3)],
        "DFG": [(1, 3)],
    })
    g2 = ProgramGraph("loop", prop, [1, 2, 3, 4, 5, 2, 4, 3], {
        "AST": [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7)],
        "ICFG": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 4)],  # loop-back + self
        "DFG": [(2, 5), (5, 7)],
    })
    g3 = ProgramGraph("dup", prop, [1, 3, 5], {
        "AST": [(0, 1), (0, 2)],
        "ICFG": [(0, 1), (1, 2)],  # (0, 1) repeats across sets
        "DFG": [(1, 2)],
    })
    return [g1, g2, g3]


def test_criterion_3_end_to_end_gradients():
    started = time.perf_counter()
    graphs = grad_check_graphs()
    rng = np.random.default_rng(3)
    worst = 0.0
    configs = 0
    for layers in (0, 1, 2):
        for jk in (True, False):
            for edge_set in ("AST", "ICFG", "DFG"):
                config = ModelConfig(
                    num_gat_layers=layers, edge_sets=(edge_set,),
                    jumping_knowledge=jk, gat_width=4, pool_hidden=(4, 2),
                    head_hidden=(6, 4),
                )
                params = init_parameters(config, GRAD_VOCAB, PORTFOLIO,
                                         seed=configs)
                configs += 1
                for graph in graphs:
                    mix = T.constant(rng.standard_normal((1, len(PORTFOLIO))))

                    def loss_fn(*_):
                        scores = forward_scores(graph, params)
                        return sum_all(elementwise_mul(scores, mix))

                    check = grad_check(loss_fn, params.trainables(),
                                         step=1e-5, tolerance=1e-4)
                    assert check.passed, (layers, jk, edge_set, graph.id, check)
                    worst = max(worst, check.max_rel_error)
    report(3, f"{configs} configs x 3 graphs, max rel error {worst:.2e}",
           started, budget=120.0)


# -- 4. permutation invariance ----------------------------------------------


def test_criterion_4_permutation_invariance():
    started = time.perf_counter()
    vocab = synthetic_vocabulary()
    config = ModelConfig(num_gat_layers=2, gat_width=6, pool_hidden=(6, 3))
    params = init_parameters(config, vocab, PORTFOLIO, seed=4)
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        graph = random_graph(rng, max_nodes=12, vocab_size=len(vocab),
                             graph_id=f"perm{i}")
        perm = random_permutation(rng, graph.num_nodes)
        base = predict(graph, params).scores
        shuffled = predict(permuted_graph(graph, perm), params).scores
        worst = max(worst, max(abs(a - b) for a, b in zip(base, shuffled)))
    assert worst < 1e-9
    report(4, f"100 permuted graphs, max score delta {worst:.2e}",
           started, budget=60.0)


# -- 5. dataflow oracle ------------------------------------------------------


def test_criterion_5_reaching_definitions_oracle():
    started = time.perf_counter()
    paths = sorted(CORPUS.glob("*.c"))
    assert len(paths) == 20
    for path in paths:
        ast = parse_source(path.read_text(encoding="utf-8"))
        icfg = build_icfg(ast)
        got = set(named_edges(ast, reaching_definitions(ast, icfg).edges))
        want = oracle_reaching_edges(ast, icfg)
        assert got == want, path.name
    report(5, "worklist = path-enumeration oracle on all 20 corpus programs",
           started, budget=60.0)


# -- 6. synthetic overfit ----------------------------------------------------


def test_criterion_6_synthetic_overfit(synthetic_run):
    started = time.perf_counter()
    params = synthetic_run.params
    assert synthetic_run.config.initial_lr == 1e-3
    assert synthetic_run.config.margin == 1.0
    assert synthetic_run.config.epochs <= 200
    assert len(synthetic_run.train_set) == 30

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rhos = [
            spearman(inst.labels, list(predict(inst.graph, params).scores))
            for inst in synthetic_run.train_set
        ]
    train_rho = float(np.mean(rhos))
    assert train_rho >= 0.9

    held = synthetic_run.held_out
    held_results = [predict(inst.graph, params) for inst in held]
    model_success = evaluate_rankings(held_results, held).overall.success_accuracy
    random_success = [
        evaluate_rankings(
            results_from_orderings(
                random_orderings(len(held), len(PORTFOLIO), seed=s), held
            ),
            held,
        ).overall.success_accuracy
        for s in range(10)
    ]
    random_mean = float(np.mean(random_success))
    assert model_success > random_mean
    report(
        6,
        f"train spearman {train_rho:.3f} >= 0.9; held-out success "
        f"{model_success:.3f} > random mean {random_mean:.3f}",
        started, budget=300.0,
    )


# -- 7. scheduler law --------------------------------------------------------


def test_criterion_7_scheduler_law():
    started = time.perf_counter()
    schedule = PlateauSchedule(lr=1e-3)
    decisions = [schedule.observe(5.0) for _ in range(4)]
    assert [d.decayed for d in decisions] == [False, False, False, True]
    assert schedule.lr == pytest.approx(1e-4)

    schedule = PlateauSchedule(lr=1e-3)
    schedule.observe(1.0)
    decays = 0
    stopped = False
    for _ in range(50):
        decision = schedule.observe(1.0)
        decays += decision.decayed
        if decision.stop:
            stopped = True
            break
    assert decays == 5 and stopped
    assert schedule.lr == pytest.approx(1e-8)

    # improvement anywhere in the window resets the plateau counter
    schedule = PlateauSchedule(lr=1e-3)
    for val in (3.0, 3.0, 3.0, 2.0, 2.0, 2.0):
        assert not schedule.observe(val).decayed
    assert schedule.observe(2.0).decayed
    report(7, "decay after exactly 3 flat epochs; 6th plateau stops below 1e-8",
           started, budget=5.0)


# -- 8. explainer faithfulness ------------------------------------------------


def test_criterion_8_explainer_faithfulness(synthetic_run):
    started = time.perf_counter()
    for n in range(1, 1001):
        assert report_size(n) == (5 if n < 50 else n // 10)

    from planted import planted_graph

    vocab = synthetic_vocabulary()
    rng = np.random.default_rng(88)
    hits = 0
    trials = 50
    for t in range(trials):
        g = planted_graph(rng, positive=True, graph_id=f"faith{t}")
        mask = explain(synthetic_run.params, g.instance.graph)
        top = top_m_edges(mask, g.instance.graph, vocab)
        hits += any(
            (e.edge_set, e.src, e.dst) == g.planted for e in top.entries
        )
    assert hits >= 0.8 * trials
    report(8, f"planted loop-back edge in top-m for {hits}/{trials} runs; "
              "m-law exact on 1..1000", started, budget=300.0)


# -- 9. top-K laws -------------------------------------------------------------


def test_criterion_9_topk_laws():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    orderings = [[int(v) for v in rng.permutation(7)] for _ in range(200)]
    best = [int(rng.integers(0, 7)) for _ in range(200)]
    curve = [topk_error(orderings, best, k) for k in range(1, 8)]
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 0.0

    trials = 10_000
    random_orders = random_orderings(trials, 10, seed=9)
    targets = [int(v) for v in np.random.default_rng(10).integers(0, 10, trials)]
    rate = topk_error(random_orders, targets, 5)
    assert abs(rate - 0.5) <= 0.02
    report(9, f"error non-increasing; zero at K=k; random K=5 of 10 rate "
              f"{rate:.4f} within 0.5 +/- 0.02", started, budget=60.0)


# -- 10. round trips -----------------------------------------------------------


def test_criterion_10_round_trips(tmp_path, synthetic_run):
    started = time.perf_counter()
    vocab = TokenVocabulary.default()
    config = ModelConfig(num_gat_layers=1, gat_width=6, pool_hidden=(6, 3))
    params = init_parameters(config, vocab, ("a", "b", "c"), seed=10)
    from verisel.frontend import extract_graph

    count = 0
    for path in sorted(CORPUS.glob("*.c")):
        graph, _ = extract_graph(
            path.read_text(encoding="utf-8"), vocab,
            graph_id=path.stem, property=PropertyKind.REACH_SAFETY,
        )
        text = serialize_graph(graph)
        revived = deserialize_graph(text)
        assert serialize_graph(revived) == text
        assert predict(revived, params).scores == predict(graph, params).scores
        count += 1

    model_path = tmp_path / "model.bin"
    save_model(synthetic_run.params, model_path)
    reloaded = load_model(model_path)
    for inst in synthetic_run.train_set[:5] + synthetic_run.held_out[:5]:
        assert predict(inst.graph, reloaded).scores == \
            predict(inst.graph, synthetic_run.params).scores
    report(10, f"{count} graphs and the trained model reload bit-identically",
           started, budget=120.0)
