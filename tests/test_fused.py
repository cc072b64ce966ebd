"""Fused tape nodes (``model.gat_layer``, ``tensor.linear``) against the tape
oracle in ``helpers``: the same operations in the same order, so scores and
gradients must match bit for bit, not within a tolerance."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import verisel.explain
import verisel.trainer
from helpers import grad_check, random_graph, tape_forward_scores
from verisel import tensor as T
from verisel.explain import explain
from verisel.frontend import extract_graph
from verisel.graphio import EDGE_SET_NAMES, LabeledInstance, PropertyKind, TokenVocabulary
from verisel.model import (
    EdgeIndex,
    GatLayerParams,
    ModelConfig,
    edge_pairs,
    forward_scores,
    gat_layer,
    init_parameters,
    margin_rank_loss_t,
    prepare_input,
)
from verisel.trainer import TrainConfig, train

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PORTFOLIO = ("alpha", "beta", "gamma")
LABELS = (2.0, 1.0, 0.5)


@lru_cache(maxsize=None)
def corpus_graphs():
    vocab = TokenVocabulary.default()
    return vocab, tuple(
        extract_graph(path.read_text(encoding="utf-8"), vocab, graph_id=path.stem,
                      property=PropertyKind.REACH_SAFETY)[0]
        for path in sorted(CORPUS.glob("*.c")))


def corpus_params(seed=0, **config):
    vocab, _ = corpus_graphs()
    return init_parameters(ModelConfig(**config), vocab, PORTFOLIO, seed=seed)


def step(forward, inp, params, mask_logits=None):
    """Scores and every leaf gradient of one loss, as raw bytes."""
    params.zero_grad()
    leaves = [t for t in params.trainables() if t.requires_grad]
    mask = None
    if mask_logits is not None:
        mask_logits.zero_grad()
        leaves.append(mask_logits)
        mask = T.sigmoid(mask_logits)
    scores = forward(inp, params, message_mask=mask)
    T.backward(margin_rank_loss_t(scores, LABELS))
    return [scores.values.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
@pytest.mark.parametrize("jk", [True, False])
def test_scores_and_gradients_equal_the_tape_oracle_on_the_corpus(layers, jk):
    params = corpus_params(seed=layers, num_gat_layers=layers, jumping_knowledge=jk)
    frozen = params.copy()
    for t in frozen.trainables():
        t.requires_grad = False
    for graph in corpus_graphs()[1]:
        inp = prepare_input(graph, params)
        logits = T.Tensor(np.linspace(-2.0, 2.0, len(inp.index.keys)).reshape(-1, 1),
                          requires_grad=True)
        # trainable parameters without and with a mask, and the explain path:
        # frozen parameters, gradients for the mask alone
        for p, mask in ((params, None), (params, logits), (frozen, logits)):
            if layers == 0 and mask is not None:
                continue  # no attention to mask
            assert step(forward_scores, inp, p, mask) == step(tape_forward_scores, inp, p, mask)


def test_explain_equals_the_tape_oracle(monkeypatch):
    params = corpus_params(seed=5, num_gat_layers=2)
    graphs = corpus_graphs()[1][::4]
    fused = [explain(params, g, iters=20, init_noise=0.1) for g in graphs]
    monkeypatch.setattr(verisel.explain, "forward_scores", tape_forward_scores)
    oracle = [explain(params, g, iters=20, init_noise=0.1) for g in graphs]
    assert [(m.scores, m.trace) for m in fused] == [(m.scores, m.trace) for m in oracle]


def test_training_equals_the_tape_oracle(monkeypatch):
    _, graphs = corpus_graphs()
    rng = np.random.default_rng(3)
    instances = [LabeledInstance(g, list(rng.permutation(LABELS))) for g in graphs]
    init = corpus_params(seed=1, num_gat_layers=2)
    cfg = TrainConfig(epochs=5, initial_lr=2e-3, seed=0)
    fused, fused_history = train(instances[:14], instances[14:], init, cfg)
    monkeypatch.setattr(verisel.trainer, "forward_scores", tape_forward_scores)
    oracle, oracle_history = train(instances[:14], instances[14:], init, cfg)
    assert fused.vector.tobytes() == oracle.vector.tobytes()
    assert fused_history == oracle_history


def test_one_training_step_puts_41_tensors_on_the_tape():
    # the benchmark's model: 2 GAT layers of width 32, jumping knowledge
    params = corpus_params(num_gat_layers=2, gat_width=32, pool_hidden=(64, 12))
    inp = prepare_input(corpus_graphs()[1][0], params)
    loss = margin_rank_loss_t(forward_scores(inp, params), LABELS)
    assert len(T._toposort(loss)) == 41


@pytest.mark.parametrize("masked", [False, True])
def test_gat_layer_gradients_match_central_differences(masked):
    rng = np.random.default_rng(3)
    graph = random_graph(rng, max_nodes=7)  # 6 nodes, 19 attention edges
    n = graph.num_nodes
    edges = edge_pairs(graph, EDGE_SET_NAMES)
    index = EdgeIndex(n, edges)
    states = T.Tensor(rng.standard_normal((n, 3)))
    w_in, w_out = (T.Tensor(rng.standard_normal((4, 3))) for _ in range(2))
    attn = T.Tensor(rng.standard_normal((8, 1)))
    logits = T.Tensor(rng.standard_normal((len(index.keys), 1)))
    mix = T.constant(rng.standard_normal((n, 4)))

    def f(h, wi, wo, a, m):
        out = gat_layer(h, edges, GatLayerParams(wi, wo, a), slope=0.2,
                        message_mask=T.sigmoid(m) if masked else None,
                        allowed_mask=index)
        return T.sum_all(T.elementwise_mul(out, mix))

    report = grad_check(f, [states, w_in, w_out, attn, logits])
    assert report.passed, report


def test_sorted_segments_reduce_like_the_permuted_copy():
    rng = np.random.default_rng(2)
    ids = np.sort(np.concatenate([np.arange(6), rng.integers(0, 6, 20)]))
    values = rng.standard_normal((len(ids), 40))[:, ::2]  # a strided view too
    segments = T.Segments(ids, 6)
    assert segments.sorted
    assert not T.Segments(ids[::-1], 6).sorted
    for ufunc in (np.add, np.maximum):
        got = segments.reduce(ufunc, values)
        want = ufunc.reduceat(values[segments.order], segments.starts, axis=0)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 4])
def test_linear_equals_the_tape_chain(rows):
    rng = np.random.default_rng(rows)
    z, w, b = (T.Tensor(rng.standard_normal(shape), requires_grad=True)
               for shape in ((rows, 3), (2, 3), (1, 2)))
    mix = T.constant(np.where(rng.random((rows, 2)) < 0.5, -0.0, 1.5))  # signed zeros

    def grads(affine):
        for t in (z, w, b):
            t.zero_grad()
        out = affine(z, w, b)
        T.backward(T.sum_all(T.elementwise_mul(out, mix)))
        return [out.values.tobytes()] + [t.grad.tobytes() for t in (z, w, b)]

    assert grads(T.linear) == grads(lambda z, w, b: T.add(T.matmul(z, T.transpose(w)), b))
