"""Fused tape nodes (the GAT layer, attention pooling, MLP head, ranking loss,
message mask and explainer objective) against the tape oracle in
``helpers``: the same operations in the same order, so scores, gradients and
loss traces must match bit for bit, not within a tolerance. The oracle
multiplies by contiguous copies of ``W.T`` taken from the ``(out, in)``
weights (``helpers.out_in``) and the model by its views of the ``W.T`` it
holds, so these tests also check that the two round alike on the platform
they run on."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verisel.model
import verisel.trainer
from helpers import (
    call_heavy_program,
    elementwise_mul,
    grad_check,
    random_graph,
    sum_all,
    tape_attention_pool,
    tape_explain,
    tape_forward_scores,
    tape_gat_layer,
    tape_margin_rank_loss,
    tape_message_mask,
    tape_mlp,
)
from verisel import tensor as T
from verisel.explain import _objective, _penalty, explain
from verisel.frontend import extract_graph
from verisel.graphio import EDGE_SET_NAMES, LabeledInstance, PropertyKind, TokenVocabulary
from verisel.model import (
    AffineParams,
    EdgeIndex,
    GatLayerParams,
    ModelConfig,
    _gat_attention,
    _gat_node,
    _mlp,
    attention_pool,
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


@lru_cache(maxsize=None)
def large_graph():
    """A 473-node call-heavy program: 1,609 attention rows, so its wide
    segment sums go by the rank-step plan (the corpus graphs have at most
    130), with runs of more than 8 rows among both receivers and senders."""
    vocab, _ = corpus_graphs()
    return extract_graph(call_heavy_program(6), vocab, graph_id="call_heavy",
                         property=PropertyKind.REACH_SAFETY)[0]


def corpus_params(seed=0, **config):
    vocab, _ = corpus_graphs()
    return init_parameters(ModelConfig(**config), vocab, PORTFOLIO, seed=seed)


def step(forward, loss, inp, params, mask_logits=None):
    """Scores and every leaf gradient of one loss, as raw bytes."""
    params.zero_grad()
    leaves = [t for t in params.trainables() if t.requires_grad]
    mask = None
    if mask_logits is not None:
        mask_logits.zero_grad()
        leaves.append(mask_logits)
        mask = T.sigmoid(mask_logits)
    scores = forward(inp, params, message_mask=mask)
    T.backward(loss(scores, LABELS))
    return [scores.values.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
@pytest.mark.parametrize("jk", [True, False])
def test_scores_and_gradients_equal_the_tape_oracle_on_the_corpus(layers, jk):
    params = corpus_params(seed=layers, num_gat_layers=layers, jumping_knowledge=jk)
    frozen = params.copy()
    for t in frozen.trainables():
        t.requires_grad = False
    for graph in corpus_graphs()[1] + (large_graph(),):
        inp = prepare_input(graph, params)
        logits = T.Tensor(np.linspace(-2.0, 2.0, len(inp.index.keys)).reshape(-1, 1),
                          requires_grad=True)
        # trainable parameters without and with a mask, and the explain path:
        # frozen parameters, gradients for the mask alone
        for p, mask in ((params, None), (params, logits), (frozen, logits)):
            if layers == 0 and mask is not None:
                continue  # no attention to mask
            assert (step(forward_scores, margin_rank_loss_t, inp, p, mask)
                    == step(tape_forward_scores, tape_margin_rank_loss, inp, p, mask))


def test_explain_equals_the_tape_oracle():
    # 0-3 layers, jumping knowledge on and off, with and without noise on
    # the initial logits, every edge set or a subset of them; every corpus
    # graph for the README model (2 layers, jumping knowledge), every fifth
    # for the others; and the large graph for each
    _, corpus = corpus_graphs()
    for layers in range(4):
        for jk in (True, False):
            params = corpus_params(seed=5 + layers, num_gat_layers=layers,
                                   jumping_knowledge=jk)
            graphs = (corpus if (layers, jk) == (2, True) else corpus[::5]) + (large_graph(),)
            for i, graph in enumerate(graphs):
                kwargs = dict(iters=12, lr=0.05, seed=i, init_noise=0.1 * (i % 2),
                              edge_sets=("AST", "DFG") if i % 3 == 2 else None)
                mask = explain(params, graph, **kwargs)
                scores, trace = tape_explain(params, graph, **kwargs)
                assert np.array(mask.scores).tobytes() == np.array(scores).tobytes()
                assert np.array(mask.trace).tobytes() == np.array(trace).tobytes()


def test_training_equals_the_tape_oracle(monkeypatch):
    _, graphs = corpus_graphs()
    rng = np.random.default_rng(3)
    instances = [LabeledInstance(g, list(rng.permutation(LABELS)))
                 for g in graphs + (large_graph(),)]
    # the large graph trains, the last six corpus graphs validate
    train_set, val_set = instances[:14] + instances[-1:], instances[14:-1]
    init = corpus_params(seed=1, num_gat_layers=2)
    cfg = TrainConfig(epochs=5, initial_lr=2e-3, seed=0)
    fused, fused_history = train(train_set, val_set, init, cfg)
    monkeypatch.setattr(verisel.trainer, "forward_scores", tape_forward_scores)
    monkeypatch.setattr(verisel.trainer, "margin_rank_loss_t", tape_margin_rank_loss)
    oracle, oracle_history = train(train_set, val_set, init, cfg)
    assert fused.vector.tobytes() == oracle.vector.tobytes()
    assert fused_history == oracle_history


def test_one_training_step_puts_25_tensors_on_the_tape():
    # the benchmark's model: 2 GAT layers of width 32, jumping knowledge;
    # 18 parameters, 2 layers, 2 concatenations, pool, head and loss
    params = corpus_params(num_gat_layers=2, gat_width=32, pool_hidden=(64, 12))
    inp = prepare_input(corpus_graphs()[1][0], params)
    loss = margin_rank_loss_t(forward_scores(inp, params), LABELS)
    assert len(T._toposort(loss)) == 25


def test_one_explain_iteration_puts_11_tensors_on_the_tape(monkeypatch):
    # logits, keep, message mask, 2 layers, 2 concatenations, pool, head,
    # penalty and loss
    params = corpus_params(num_gat_layers=2, gat_width=32, pool_hidden=(64, 12))
    sizes = []
    backward = T.backward
    monkeypatch.setattr(T, "backward",
                        lambda loss: (sizes.append(len(T._toposort(loss))), backward(loss)))
    explain(params, corpus_graphs()[1][0], iters=2)
    assert sizes == [11, 11]


@pytest.mark.parametrize("masked", [False, True])
def test_gat_layer_gradients_match_central_differences(masked):
    rng = np.random.default_rng(3)
    graph = random_graph(rng, max_nodes=7)  # 6 nodes, 19 attention edges
    n = graph.num_nodes
    edges = edge_pairs(graph, EDGE_SET_NAMES)
    index = EdgeIndex(n, edges)
    states = T.Tensor(rng.standard_normal((n, 3)))
    w_in, w_out = (T.Tensor(rng.standard_normal((3, 4))) for _ in range(2))
    attn = T.Tensor(rng.standard_normal((8, 1)))
    logits = T.Tensor(rng.standard_normal((len(index.keys), 1)))
    mix = T.constant(rng.standard_normal((n, 4)))

    def f(h, wi, wo, a, m):
        out = gat_layer(h, edges, GatLayerParams(wi, wo, a), slope=0.2,
                        message_mask=T.sigmoid(m) if masked else None,
                        allowed_mask=index)
        return sum_all(elementwise_mul(out, mix))

    report = grad_check(f, [states, w_in, w_out, attn, logits])
    assert report.passed, report


def test_16_row_blocks_keep_scores_gradients_models_and_explanations(monkeypatch):
    # every test graph spans several receiver and sender blocks, and the
    # large graph's longest sender segment (26 rows) is a block of its own
    monkeypatch.setattr(verisel.model, "BLOCK_ROWS", 16)
    params = corpus_params()
    for graph in corpus_graphs()[1] + (large_graph(),):
        index = prepare_input(graph, params).index
        assert min(len(index.receiver_blocks), len(index.sender_blocks)) > 1
    assert index.senders.sizes.max() > 16
    for layers in range(4):
        for jk in (True, False):
            test_scores_and_gradients_equal_the_tape_oracle_on_the_corpus(layers, jk)
    test_explain_equals_the_tape_oracle()
    test_training_equals_the_tape_oracle(monkeypatch)


@st.composite
def blocked_layers(draw):
    """Pairs over 1-12 nodes, maybe with a hub (node 0 sends to and receives
    from every node, one long segment each way), a block bound from 1 to
    E + 1 rows, which leaves require gradients, and a seed for the values."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        pairs += [(0, i) for i in range(n)] + [(i, 0) for i in range(n)]
    edges = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    e = len(EdgeIndex(n, edges).keys)
    return (n, edges, draw(st.integers(1, e + 1)),
            draw(st.sampled_from(["train", "train-masked", "mask", "scorer"])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(blocked_layers())
def test_gat_layer_in_blocks_of_any_bound_equals_the_tape_oracle(case):
    # "train" walks the sender blocks in the backward; "mask" (the gradient
    # reaches the mask alone) stays on the receiver blocks, and "scorer" does
    # so on sender rows gathered once, as MaskScorer keeps them
    n, edges, bound, path, seed = case
    rng = np.random.default_rng(seed)
    train = path.startswith("train")
    states = T.Tensor(rng.standard_normal((n, 3)), requires_grad=train)
    params = GatLayerParams(*(T.Tensor(rng.standard_normal(shape), requires_grad=train)
                              for shape in ((3, 4), (3, 4), (8, 1))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verisel.model, "BLOCK_ROWS", bound)
        index = EdgeIndex(n, edges)
        e = len(index.keys)
        for blocks, order in ((index.receiver_blocks, np.arange(e)),
                              (index.sender_blocks, index.senders.order)):
            # whole segments in order, at most `bound` rows unless one segment
            rows = np.concatenate([np.arange(e)[b.rows] for b in blocks])
            assert np.array_equal(np.sort(rows), np.arange(e))
            assert len(blocks) == 1 or np.array_equal(rows, order)
            assert all(len(b.segments.ids) <= bound or len(b.segments.sizes) == 1
                       for b in blocks)
        logits = T.Tensor(rng.standard_normal((e, 1)), requires_grad=path != "train")
        mask = None if path == "train" else T.sigmoid(logits)
        leaves = [t for t in (states, *params, logits) if t.requires_grad]
        mix = T.constant(rng.standard_normal((n, 4)))
        attention = _gat_attention(states.values, index, params, 0.2)
        if path == "scorer":
            attention = attention._replace(gathered=attention.xout[index.senders.ids])
        fused = leaf_bytes(_gat_node(states, index, params, attention, mask), leaves, mix)
    oracle = tape_gat_layer(states, index, params, slope=0.2, message_mask=mask)
    assert fused == leaf_bytes(oracle, leaves, mix)


def test_sorted_segments_reduce_like_the_permuted_copy():
    # 26 rows sum by reduceat, 340 (above T.PLAN_MIN_ROWS) by the rank-step plan
    rng = np.random.default_rng(2)
    for count, extra in ((6, 20), (40, 300)):
        ids = np.sort(np.concatenate([np.arange(count), rng.integers(0, count, extra)]))
        values = rng.standard_normal((len(ids), 40))[:, ::2]  # a strided view too
        segments = T.Segments(ids, count)
        assert segments.sorted
        assert not T.Segments(ids[::-1], count).sorted
        for ufunc in (np.add, np.maximum):
            got = segments.reduce(ufunc, values)
            want = ufunc.reduceat(values[segments.order], segments.starts, axis=0)
            assert got.tobytes() == want.tobytes()


def affine_layers(rng, widths):
    """Affine layers between consecutive ``widths``, each weight held (in, out)."""
    return [AffineParams(T.Tensor(rng.standard_normal((a, b)), requires_grad=True),
                         T.Tensor(rng.standard_normal((1, b)), requires_grad=True))
            for a, b in zip(widths, widths[1:])]


def leaf_bytes(out, leaves, mix):
    """The output and the gradient of each leaf for sum(out * mix), as bytes."""
    for t in leaves:
        t.zero_grad()
    T.backward(sum_all(elementwise_mul(out, mix)))
    return [out.values.tobytes()] + [t.grad.tobytes() for t in leaves]


def signed_zeros(shape):
    """Mixing weights -0.0, 1.5, -0.0, ...: a gradient that numpy's sum would
    turn from -0.0 into +0.0 shows in the bytes."""
    return T.constant(np.where(np.arange(np.prod(shape)).reshape(shape) % 2, 1.5, -0.0))


@pytest.mark.parametrize("rows", [1, 4])
def test_mlp_equals_the_tape_chain(rows):
    # a one-row z hands b the output gradient unsummed, keeping its -0.0
    rng = np.random.default_rng(rows)
    z = T.Tensor(rng.standard_normal((rows, 3)), requires_grad=True)
    layers = affine_layers(rng, (3, 4, 5, 2))
    leaves = [z] + [t for layer in layers for t in (layer.w, layer.b)]
    mix = signed_zeros((rows, 2))
    assert (leaf_bytes(_mlp(z, layers, 0.2), leaves, mix)
            == leaf_bytes(tape_mlp(z, layers, 0.2), leaves, mix))


@pytest.mark.parametrize("rows", [1, 5])
def test_attention_pool_equals_the_tape_chain(rows):
    rng = np.random.default_rng(10 + rows)
    states = T.Tensor(rng.standard_normal((rows, 3)), requires_grad=True)
    pool = affine_layers(rng, (3, 4, 2, 1))
    leaves = [states] + [t for layer in pool for t in (layer.w, layer.b)]
    mix = signed_zeros((1, 3))
    assert (leaf_bytes(attention_pool(states, pool, 0.2), leaves, mix)
            == leaf_bytes(tape_attention_pool(states, pool, 0.2), leaves, mix))
    # frozen pool parameters: the gradient reaches the states alone
    for t in leaves[1:]:
        t.requires_grad = False
    assert (leaf_bytes(attention_pool(states, pool, 0.2), [states], mix)
            == leaf_bytes(tape_attention_pool(states, pool, 0.2), [states], mix))


def test_attention_pool_gradients_match_central_differences():
    rng = np.random.default_rng(4)
    pool = affine_layers(rng, (3, 4, 1))
    mix = T.constant(rng.standard_normal((1, 3)))

    def f(h, *params):
        layers = [AffineParams(w, b) for w, b in zip(params[::2], params[1::2])]
        return sum_all(elementwise_mul(attention_pool(h, layers, 0.2), mix))

    states = T.Tensor(rng.standard_normal((5, 3)))
    report = grad_check(f, [states] + [t for layer in pool for t in (layer.w, layer.b)])
    assert report.passed, report


LABEL_SETS = [(2.0, 1.0, 0.5), (1.0, 1.0, 0.0), (0.0, 3.0, 3.0, -1.0), (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("labels", LABEL_SETS)
@pytest.mark.parametrize("margin", [1.0, 0.25])
def test_margin_rank_loss_equals_the_tape_chain(labels, margin):
    # scores 1 apart sit on the hinge's kink at margin 1; equal labels give
    # no pairs, a constant zero loss on both sides
    rng = np.random.default_rng(len(labels))
    for values in (rng.standard_normal((1, len(labels))), np.arange(len(labels))[None] * 1.0):
        scores = T.Tensor(values, requires_grad=True)
        fused = margin_rank_loss_t(scores, labels, margin)
        chain = tape_margin_rank_loss(scores, labels, margin)
        assert fused.values.tobytes() == chain.values.tobytes()
        assert fused.requires_grad == chain.requires_grad == (len(set(labels)) > 1)
        if fused.requires_grad:
            grads = []
            for loss in (fused, chain):
                scores.zero_grad()
                T.backward(loss)
                grads.append(scores.grad.tobytes())
            assert grads[0] == grads[1]


def test_margin_rank_loss_gradients_match_central_differences():
    # scores far from every kink: separations of 0.3 and more from the margin
    scores = T.Tensor([[0.1, 2.4, -1.3, 0.75]])
    report = grad_check(lambda s: margin_rank_loss_t(s, [0.5, 2.0, 0.0, 1.0], 1.0), scores)
    assert report.passed, report


def test_message_mask_equals_the_tape_chain():
    # repeated slots multiply their keeps, slot E (no attention edge) is dropped
    rng = np.random.default_rng(6)
    graph = random_graph(rng, max_nodes=7)
    index = EdgeIndex(graph.num_nodes, edge_pairs(graph, ("AST", "ICFG")))
    e = len(index.keys)
    slots = np.concatenate([rng.integers(0, e, 9), [e, 0, e]])
    keep = T.Tensor(rng.uniform(0.05, 0.95, (1, len(slots))), requires_grad=True)
    mix = signed_zeros((e, 1))
    assert (leaf_bytes(index.message_mask(keep, slots), [keep], mix)
            == leaf_bytes(tape_message_mask(index, keep, slots), [keep], mix))
    report = grad_check(
        lambda k: sum_all(elementwise_mul(index.message_mask(k, slots), mix)), keep)
    assert report.passed, report


def test_explain_objective_gradients_match_central_differences():
    rng = np.random.default_rng(8)
    target = rng.standard_normal((1, 3))

    def f(logits, masked):
        return _objective(masked, target, _penalty(T.sigmoid(logits), 0.3, 0.2))

    report = grad_check(f, [T.Tensor(rng.standard_normal((1, 6))),
                            T.Tensor(rng.standard_normal((1, 3)))])
    assert report.passed, report
