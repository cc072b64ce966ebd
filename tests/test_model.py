import dataclasses
import functools
import json
import re
import struct
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    awkward_graph,
    dense_forward_scores,
    elementwise_mul,
    grad_check,
    margin_rank_loss,
    named,
    per_graph_predict,
    permuted_graph,
    random_graph,
    random_permutation,
    sum_all,
)
import verisel.model
from verisel import tensor as T
from verisel.graphio import ProgramGraph, PropertyKind, TokenVocabulary
from verisel.model import (
    AffineParams,
    EdgeIndex,
    EmptyGraph,
    GatLayerParams,
    LengthMismatch,
    ModelConfig,
    ModelFormatError,
    VocabMismatch,
    _parameter_layout,
    attention_pool,
    forward_scores,
    gat_layer,
    init_parameters,
    jumping_knowledge,
    load_model,
    margin_rank_loss_t,
    predict,
    predict_many,
    prepare_input,
    save_model,
    union_input,
)

VOCAB8 = TokenVocabulary(("Unknown",) + tuple(f"K{i}" for i in range(1, 8)))
PORTFOLIO = ("alpha", "beta", "gamma")


def tiny_params(seed=0, **config_kwargs):
    defaults = dict(num_gat_layers=1, gat_width=4, pool_hidden=(5, 3))
    defaults.update(config_kwargs)
    return init_parameters(ModelConfig(**defaults), VOCAB8, PORTFOLIO, seed=seed)


def graph_of(kinds, ast=(), icfg=(), dfg=(), prop=PropertyKind.REACH_SAFETY):
    return ProgramGraph("g", prop, list(kinds), {
        "AST": sorted(ast), "ICFG": sorted(icfg), "DFG": sorted(dfg),
    })


# ---------------------------------------------------------------------------
# gat_layer


def identity_layer(d):
    attn = np.zeros((2 * d, 1))
    attn[0, 0] = 0.3  # arbitrary, irrelevant over a lone self-loop
    return GatLayerParams(
        w_in=T.Tensor(np.eye(d), requires_grad=True),
        w_out=T.Tensor(np.eye(d), requires_grad=True),
        attn=T.Tensor(attn, requires_grad=True),
    )


def unmasked_layer(h, edges, params):
    """``gat_layer`` over ``edges`` and their index, unmasked, slope 0.2."""
    return gat_layer(h, edges, params, slope=0.2, message_mask=None,
                     allowed_mask=EdgeIndex(h.shape[0], edges))


def test_gat_single_node_identity():
    h = T.constant([[1.0, -2.0, 0.5]])
    out = unmasked_layer(h, [], identity_layer(3))
    np.testing.assert_allclose(out.values, h.values, atol=1e-12)


def test_gat_disconnected_nodes_independent_and_equivariant():
    rng = np.random.default_rng(0)
    params = GatLayerParams(
        w_in=T.Tensor(rng.standard_normal((3, 4))),
        w_out=T.Tensor(rng.standard_normal((3, 4))),
        attn=T.Tensor(rng.standard_normal((8, 1))),
    )
    h = T.constant(rng.standard_normal((2, 3)))
    out = unmasked_layer(h, [], params)
    swapped = unmasked_layer(T.constant(h.values[::-1].copy()), [], params)
    np.testing.assert_allclose(out.values, swapped.values[::-1], atol=1e-12)


def dense_gat_oracle(h, edges, params, slope=0.2):
    """Per-node recomputation with explicit neighbor lists."""
    n, _ = h.shape
    w_in, w_out, attn = params.w_in.values, params.w_out.values, params.attn.values
    d = w_in.shape[1]
    a_in, a_out = attn[:d, 0], attn[d:, 0]
    xin = h @ w_in
    xout = h @ w_out
    out = np.zeros((n, d))
    for i in range(n):
        senders = sorted({j for (j, dst) in edges if dst == i} | {i})
        raw = np.array([a_in @ xin[i] + a_out @ xout[j] for j in senders])
        raw = np.where(raw >= 0, raw, slope * raw)
        weights = np.exp(raw - raw.max())
        weights /= weights.sum()
        for weight, j in zip(weights, senders):
            out[i] += weight * xout[j]
    return out


def test_gat_path_graph_matches_dense_oracle():
    rng = np.random.default_rng(7)
    params = GatLayerParams(
        w_in=T.Tensor(rng.standard_normal((5, 4))),
        w_out=T.Tensor(rng.standard_normal((5, 4))),
        attn=T.Tensor(rng.standard_normal((8, 1))),
    )
    h = rng.standard_normal((3, 5))
    edges = [(0, 1), (1, 2)]
    got = unmasked_layer(T.constant(h), edges, params).values
    np.testing.assert_allclose(got, dense_gat_oracle(h, edges, params), atol=1e-10)


def test_gat_random_graphs_match_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        params = GatLayerParams(
            w_in=T.Tensor(rng.standard_normal((d_in, d_out))),
            w_out=T.Tensor(rng.standard_normal((d_in, d_out))),
            attn=T.Tensor(rng.standard_normal((2 * d_out, 1))),
        )
        edges = sorted({
            (int(rng.integers(0, n)), int(rng.integers(0, n)))
            for _ in range(int(rng.integers(0, 2 * n)))
        })
        h = rng.standard_normal((n, d_in))
        got = unmasked_layer(T.constant(h), edges, params).values
        np.testing.assert_allclose(
            got, dense_gat_oracle(h, edges, params), atol=1e-10
        )


def test_out_of_range_edge_endpoint_is_rejected():
    graph = graph_of([0, 0], ast=[(0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        forward_scores(graph, tiny_params())


def scores_and_gradients(forward, graph, params, mix):
    params.zero_grad()
    scores = forward(graph, params)
    T.backward(sum_all(elementwise_mul(scores, mix)))
    return scores.values, [t.grad.copy() for t in params.trainables()]  # the next call refills


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9),
       layers=st.integers(0, 2), jk=st.booleans())
def test_edge_list_attention_matches_dense_oracle(seed, n, layers, jk):
    rng = np.random.default_rng(seed)
    graph = awkward_graph(rng, n, vocab_size=len(VOCAB8))
    params = tiny_params(seed=seed, num_gat_layers=layers, jumping_knowledge=jk)
    mix = T.constant(rng.standard_normal((1, len(PORTFOLIO))))
    got, got_grads = scores_and_gradients(forward_scores, graph, params, mix)
    want, want_grads = scores_and_gradients(dense_forward_scores, graph, params, mix)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name, a, b in zip([k for k, _ in named(params)], got_grads, want_grads):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9), layers=st.integers(0, 2))
def test_prepared_input_scores_equal_bare_graph(seed, n, layers):
    rng = np.random.default_rng(seed)
    graph = awkward_graph(rng, n, vocab_size=len(VOCAB8))
    params = tiny_params(seed=seed, num_gat_layers=layers)
    inp = prepare_input(graph, params)
    mix = T.constant(rng.standard_normal((1, len(PORTFOLIO))))
    got, got_grads = scores_and_gradients(forward_scores, inp, params, mix)
    want, want_grads = scores_and_gradients(forward_scores, graph, params, mix)
    assert np.array_equal(got, want)
    for a, b in zip(got_grads, want_grads):
        assert np.array_equal(a, b)
    mask = T.constant(rng.uniform(0.1, 1.0, (len(inp.index.keys), 1)))
    assert np.array_equal(forward_scores(inp, params, message_mask=mask).values,
                          forward_scores(graph, params, message_mask=mask).values)


def test_prepared_input_for_another_model_is_rejected():
    graph = graph_of([1, 2, 3], ast=[(0, 1)], dfg=[(1, 2)])
    inp = prepare_input(graph, tiny_params())
    with pytest.raises(ValueError, match="edge sets"):
        forward_scores(inp, tiny_params(edge_sets=("AST", "ICFG")))
    wider = TokenVocabulary(VOCAB8.kinds + ("K8",))
    other = init_parameters(ModelConfig(num_gat_layers=1, gat_width=4, pool_hidden=(5, 3)),
                            wider, PORTFOLIO)
    with pytest.raises(ValueError, match=r"\|T\|=8, the model reads .* \|T\|=9"):
        forward_scores(inp, other)
    assert forward_scores(prepare_input(graph, other), other).shape == (1, len(PORTFOLIO))


def test_forward_backward_memory_is_linear_in_edges():
    # dense n x n attention peaks near 840 MiB here; per-edge stays near 40
    rng = np.random.default_rng(0)
    n = 2000
    vocab = TokenVocabulary.default()
    kinds = [int(k) for k in rng.integers(0, len(vocab), n)]
    edge_sets = {name: sorted({(int(a), int(b)) for a, b in rng.integers(0, n, (2000, 2))})
                 for name in ("AST", "ICFG", "DFG")}
    graph = ProgramGraph("big", PropertyKind.REACH_SAFETY, kinds, edge_sets)
    params = init_parameters(ModelConfig(num_gat_layers=2), vocab, PORTFOLIO)
    tracemalloc.start()
    try:
        T.backward(sum_all(forward_scores(graph, params)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"


# ---------------------------------------------------------------------------
# jumping knowledge


def test_jumping_knowledge_single_matrix_identity():
    a = T.constant(np.arange(6.0).reshape(3, 2))
    out = jumping_knowledge([a], True)
    np.testing.assert_array_equal(out.values, a.values)


def test_jumping_knowledge_concat_order():
    a = T.constant(np.ones((2, 2)))
    b = T.constant(2.0 * np.ones((2, 3)))
    out = jumping_knowledge([a, b], True)
    assert out.shape == (2, 5)
    np.testing.assert_array_equal(out.values[:, :2], a.values)
    np.testing.assert_array_equal(out.values[:, 2:], b.values)


def test_jumping_knowledge_disabled_returns_last():
    a = T.constant(np.ones((2, 2)))
    b = T.constant(2.0 * np.ones((2, 3)))
    out = jumping_knowledge([a, b], enabled=False)
    np.testing.assert_array_equal(out.values, b.values)


def test_jumping_knowledge_rejects_differing_node_counts():
    with pytest.raises(T.ShapeError, match="row mismatch"):
        jumping_knowledge([T.constant(np.ones((2, 2))), T.constant(np.ones((3, 2)))], True)


def test_zero_gat_layers_pool_over_onehot():
    params = tiny_params(num_gat_layers=0)
    kinds = [1, 3, 5]
    graph = graph_of(kinds, ast=[(0, 1), (0, 2)])
    scores = forward_scores(graph, params.frozen)
    assert scores.shape == (1, len(PORTFOLIO))


# ---------------------------------------------------------------------------
# attention pooling


def test_pool_single_node_identity():
    rng = np.random.default_rng(3)
    params = tiny_params()
    v = rng.standard_normal((1, 5))
    states = T.constant(v)
    pool = [
        AffineParams(T.Tensor(rng.standard_normal((5, 4))), T.Tensor(np.zeros((1, 4)))),
        AffineParams(T.Tensor(rng.standard_normal((4, 2))), T.Tensor(np.zeros((1, 2)))),
        AffineParams(T.Tensor(rng.standard_normal((2, 1))), T.Tensor(np.zeros((1, 1)))),
    ]
    out = attention_pool(states, pool, 0.2)
    np.testing.assert_allclose(out.values, v, atol=1e-12)


def test_pool_two_identical_nodes():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(5)
    states = T.constant(np.stack([v, v]))
    pool = [
        AffineParams(T.Tensor(rng.standard_normal((5, 3))), T.Tensor(np.zeros((1, 3)))),
        AffineParams(T.Tensor(rng.standard_normal((3, 2))), T.Tensor(np.zeros((1, 2)))),
        AffineParams(T.Tensor(rng.standard_normal((2, 1))), T.Tensor(np.zeros((1, 1)))),
    ]
    out = attention_pool(states, pool, 0.2)
    np.testing.assert_allclose(out.values[0], v, atol=1e-12)


def test_pool_weights_are_probabilities():
    # the last 6 columns of the states are the identity, so those columns of
    # the pooled vector are the pooling weights themselves
    rng = np.random.default_rng(5)
    pool = [
        AffineParams(T.Tensor(rng.standard_normal((10, 3))), T.Tensor(rng.standard_normal((1, 3)))),
        AffineParams(T.Tensor(rng.standard_normal((3, 2))), T.Tensor(rng.standard_normal((1, 2)))),
        AffineParams(T.Tensor(rng.standard_normal((2, 1))), T.Tensor(rng.standard_normal((1, 1)))),
    ]
    states = T.constant(np.hstack([rng.standard_normal((6, 4)), np.eye(6)]))
    weights = attention_pool(states, pool, 0.2).values[0, 4:]
    assert weights.min() >= 0.0
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)


def test_pool_permutation_invariance():
    rng = np.random.default_rng(6)
    pool = [
        AffineParams(T.Tensor(rng.standard_normal((4, 3))), T.Tensor(rng.standard_normal((1, 3)))),
        AffineParams(T.Tensor(rng.standard_normal((3, 2))), T.Tensor(rng.standard_normal((1, 2)))),
        AffineParams(T.Tensor(rng.standard_normal((2, 1))), T.Tensor(rng.standard_normal((1, 1)))),
    ]
    states = rng.standard_normal((6, 4))
    base = attention_pool(T.constant(states), pool, 0.2).values
    shuffled = attention_pool(T.constant(states[rng.permutation(6)]), pool, 0.2).values
    np.testing.assert_allclose(base, shuffled, atol=1e-9)


# ---------------------------------------------------------------------------
# predict


def test_predict_zero_head_gives_portfolio_order():
    params = tiny_params()
    for layer in params.head:
        layer.w.values[:] = 0.0
        layer.b.values[:] = 0.0
    graph = graph_of([1, 2, 3], ast=[(0, 1), (0, 2)])
    result = predict(graph, params)
    assert result.scores == (0.0, 0.0, 0.0)
    assert result.ordering == (0, 1, 2)


def test_predict_depends_on_property():
    params = tiny_params(seed=11)
    graph = graph_of([1, 2, 3, 4], ast=[(0, 1), (1, 2), (1, 3)])
    one = predict(graph, params, prop=PropertyKind.REACH_SAFETY)
    two = predict(graph, params, prop=PropertyKind.TERMINATION)
    assert one.scores != two.scores


def test_predict_permutation_invariance():
    rng = np.random.default_rng(13)
    params = tiny_params(seed=5, num_gat_layers=2)
    for _ in range(10):
        graph = random_graph(rng, max_nodes=9, vocab_size=len(VOCAB8))
        perm = random_permutation(rng, graph.num_nodes)
        base = predict(graph, params)
        shuffled = predict(permuted_graph(graph, perm), params)
        np.testing.assert_allclose(base.scores, shuffled.scores, atol=1e-9)


def test_threaded_predict_leaves_gradients_recorded():
    rng = np.random.default_rng(37)
    params = tiny_params(seed=7, num_gat_layers=2)
    graphs = [random_graph(rng, vocab_size=len(VOCAB8)) for _ in range(50)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda g: predict(g, params), graphs))
            x = T.Tensor(np.ones((1, 2)), requires_grad=True)
            assert sum_all(x).requires_grad
            assert all(t.requires_grad for t in params.trainables())
    finally:
        sys.setswitchinterval(interval)


def test_threaded_predict_many_matches_one_thread():
    rng = np.random.default_rng(41)
    params = tiny_params(seed=7, num_gat_layers=2)
    lists = [[random_graph(rng, vocab_size=len(VOCAB8), graph_id=f"g{i}.{j}")
              for j in range(int(rng.integers(1, 9)))] for i in range(16)]
    flags = [t.requires_grad for t in params.trainables()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(verisel.model, "BATCH_MAX_NODES", 20):
            expected = [bit_pattern(predict_many(graphs, params)) for graphs in lists]
            for _ in range(5):
                shared = params.copy()  # its frozen view is built by the threads
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(lambda graphs: predict_many(graphs, shared), lists))
                assert [bit_pattern(results) for results in got] == expected
                assert [t.requires_grad for t in shared.trainables()] == flags
        assert [t.requires_grad for t in params.trainables()] == flags
    finally:
        sys.setswitchinterval(interval)


def bit_pattern(results):
    return [(r.graph_id, np.array(r.scores).tobytes(), r.ordering) for r in results]


def sized_graph(rng, n, graph_id, prop=PropertyKind.REACH_SAFETY):
    graph = awkward_graph(rng, n, vocab_size=len(VOCAB8))
    return dataclasses.replace(graph, id=graph_id, property=prop)


def assert_agrees_with_per_graph_loop(got, want):
    assert [r.graph_id for r in got] == [r.graph_id for r in want]
    for a, b in zip(got, want):
        np.testing.assert_allclose(a.scores, b.scores, rtol=0, atol=1e-12)
        place = {v: i for i, v in enumerate(a.ordering)}
        for i, u in enumerate(b.ordering):
            for v in b.ordering[i + 1:]:
                if b.scores[u] - b.scores[v] > 1e-9:
                    assert place[u] < place[v]


PROPERTY_PARAMS = (tiny_params(seed=5, num_gat_layers=2),
                   tiny_params(seed=6, num_gat_layers=0, property_encoding="onehot"),
                   tiny_params(seed=8, num_gat_layers=1, jumping_knowledge=False,
                               edge_sets=("ICFG",)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_predict_many_matches_the_per_graph_loop(data):
    params = data.draw(st.sampled_from(PROPERTY_PARAMS))
    budget = data.draw(st.integers(1, 40))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
    graphs = [random_graph(np.random.default_rng(seed), max_nodes=24,
                           vocab_size=len(VOCAB8), graph_id=f"g{i}")
              for i, seed in enumerate(seeds)]
    prop = data.draw(st.none() | st.sampled_from(list(PropertyKind)))
    with mock.patch.object(verisel.model, "BATCH_MAX_NODES", budget):
        got = predict_many(graphs, params, prop=prop)
    assert_agrees_with_per_graph_loop(got, per_graph_predict(graphs, params, prop=prop))


def test_predict_many_straddles_the_budget():
    rng = np.random.default_rng(43)
    params = tiny_params(seed=9, num_gat_layers=2)
    props = list(PropertyKind)
    sizes = (600, 424, 1, 1100, 30, 1024, 7)
    graphs = [sized_graph(rng, n, f"s{i}", props[i % len(props)]) for i, n in enumerate(sizes)]
    batches = verisel.model._batches(graphs)
    assert [[g.num_nodes for g in batch] for batch in batches] == [
        [600, 424], [1], [1100], [30], [1024], [7]]
    assert_agrees_with_per_graph_loop(predict_many(graphs, params),
                                      per_graph_predict(graphs, params))


def test_predict_is_predict_many_of_one_graph():
    rng = np.random.default_rng(47)
    params = tiny_params(seed=3, num_gat_layers=2)
    for n in (1, 5, 300):
        graph = sized_graph(rng, n, f"one{n}")
        assert bit_pattern([predict(graph, params)]) == bit_pattern(
            predict_many([graph], params)) == bit_pattern(per_graph_predict([graph], params))


def test_forward_scores_of_a_union_gives_one_row_per_graph_and_records_nothing():
    rng = np.random.default_rng(53)
    params = tiny_params(seed=4, num_gat_layers=2)
    graphs = [random_graph(rng, vocab_size=len(VOCAB8), graph_id=f"u{i}") for i in range(3)]
    union = union_input(graphs, params)
    assert union.bounds == tuple(np.cumsum([0] + [g.num_nodes for g in graphs]))
    rows = forward_scores(union, params.frozen, prop=PropertyKind.OVERFLOW)
    assert rows.shape == (3, len(PORTFOLIO)) and not rows.requires_grad
    for graph, row in zip(graphs, rows.values):
        one = forward_scores(graph, params.frozen, prop=PropertyKind.OVERFLOW).values[0]
        np.testing.assert_allclose(row, one, rtol=0, atol=1e-12)
    # pooling a union reads its rows as constants: a taped pass would lose gradients
    with pytest.raises(ValueError, match="record nothing"):
        forward_scores(union, params)


def test_predict_many_names_the_graph_it_cannot_read():
    params = tiny_params()
    good = graph_of([1, 2], ast=[(0, 1)])
    empty = dataclasses.replace(graph_of([]), id="empty-one")
    alien = dataclasses.replace(graph_of([1, len(VOCAB8)]), id="alien-kinds")
    with pytest.raises(EmptyGraph, match="graph empty-one has no nodes"):
        predict_many([good, empty], params)
    with pytest.raises(VocabMismatch, match="graph alien-kinds has kind indices"):
        predict_many([good, alien, good], params)
    assert predict_many([], params) == []


def test_predict_vocab_mismatch():
    params = tiny_params()
    graph = graph_of([len(VOCAB8)])  # kind index out of range
    with pytest.raises(VocabMismatch):
        predict(graph, params)
    other_vocab = TokenVocabulary(("Unknown", "Different"))
    with pytest.raises(VocabMismatch):
        predict(graph_of([1]), params, vocab=other_vocab)


def test_predict_without_edges_sees_only_kind_multiset():
    params = tiny_params(seed=3, edge_sets=())
    chain = graph_of([1, 2, 3, 4], icfg=[(0, 1), (1, 2), (2, 3)])
    star = graph_of([4, 2, 1, 3], ast=[(0, 1), (0, 2), (0, 3)])
    np.testing.assert_allclose(
        predict(chain, params).scores, predict(star, params).scores, atol=1e-9
    )


def test_predict_tie_break_by_index():
    params = tiny_params()
    for layer in params.head:
        layer.w.values[:] = 0.0
        layer.b.values[:] = 0.0
    params.head[-1].b.values[0] = [1.0, 5.0, 5.0]
    result = predict(graph_of([1, 2]), params)
    assert result.ordering == (1, 2, 0)


# ---------------------------------------------------------------------------
# margin ranking loss


def test_margin_loss_separated_pair_is_zero():
    assert margin_rank_loss([10.0, 0.0], [1.0, 0.0], margin=1.0) == 0.0


def test_margin_loss_tied_scores_pay_the_margin():
    assert margin_rank_loss([0.0, 0.0], [1.0, 0.0], margin=1.0) == 1.0


def test_margin_loss_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(50):
        scores = rng.standard_normal(5)
        labels = rng.standard_normal(5)
        margin = float(rng.uniform(0.1, 2.0))
        expected_terms = [
            max(0.0, margin - (scores[a] - scores[b]))
            for a in range(5) for b in range(5) if labels[a] > labels[b]
        ]
        expected = float(np.mean(expected_terms)) if expected_terms else 0.0
        got = margin_rank_loss(list(scores), list(labels), margin)
        assert abs(got - expected) < 1e-12


def test_margin_loss_length_mismatch():
    with pytest.raises(LengthMismatch):
        margin_rank_loss([1.0, 2.0], [1.0], margin=1.0)
    with pytest.raises(LengthMismatch):
        margin_rank_loss([1.0], [1.0], margin=1.0)


def test_margin_loss_gradient_direction():
    scores = T.Tensor([[0.0, 0.0]], requires_grad=True)
    loss = margin_rank_loss_t(scores, [1.0, 0.0], margin=1.0)
    T.backward(loss)
    # pushing score 0 up and score 1 down reduces the loss
    assert scores.grad[0, 0] < 0 < scores.grad[0, 1]


# ---------------------------------------------------------------------------
# end-to-end gradients (small spot check; the full grid runs in acceptance)


def test_forward_scores_gradcheck_one_config():
    params = tiny_params(seed=23, num_gat_layers=1, jumping_knowledge=True)
    graph = graph_of([1, 2, 3, 4],
                     ast=[(0, 1), (0, 2), (2, 3)],
                     icfg=[(1, 2), (2, 1)],
                     dfg=[(1, 3)])
    rng = np.random.default_rng(0)
    mix = T.constant(rng.standard_normal((1, len(PORTFOLIO))))

    def loss_fn(*_):
        scores = forward_scores(graph, params)
        return sum_all(elementwise_mul(scores, mix))

    report = grad_check(loss_fn, params.trainables(), step=1e-5, tolerance=1e-4)
    assert report.passed, report


# ---------------------------------------------------------------------------
# serialization


def test_model_container_round_trip_bit_identical(tmp_path):
    params = tiny_params(seed=29, num_gat_layers=2)
    path = tmp_path / "model.bin"
    save_model(params, path)
    again = load_model(path)
    assert again.portfolio == params.portfolio
    assert again.config == params.config
    assert again.vocab_fingerprint == params.vocab_fingerprint
    rng = np.random.default_rng(31)
    for _ in range(5):
        graph = random_graph(rng, max_nodes=8, vocab_size=len(VOCAB8))
        assert predict(graph, params).scores == predict(graph, again).scores


def test_model_container_rejects_unknown_version(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.bin"
    save_model(params, path)
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    doctored = header.replace(b'"format_version": 1', b'"format_version": 99')
    path.write_bytes(doctored + b"\n" + rest)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), layers=st.integers(0, 3),
       pool=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       head=st.none() | st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_model_container_round_trip_over_config_space(seed, layers, pool, head):
    params = tiny_params(seed=seed, num_gat_layers=layers, pool_hidden=tuple(pool),
                         head_hidden=tuple(head) if head else None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(params, path)
        again = load_model(path)
    graph = random_graph(np.random.default_rng(seed), vocab_size=len(VOCAB8))
    assert predict(graph, params).scores == predict(graph, again).scores


@pytest.mark.parametrize("header", [b"[]", b"1", b'"model"'])
def test_model_container_rejects_a_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    path.write_bytes(header + b"\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(ModelFormatError, match="not a JSON object"):
        load_model(path)


def test_model_container_rejects_a_header_nested_too_deeply_to_decode(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    deep = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(header.replace(b"{", b'{"deep": ' + deep + b", ", 1) + b"\n" + rest)
    with pytest.raises(ModelFormatError, match="bad header: maximum recursion depth"):
        load_model(path)


@pytest.mark.parametrize("portfolio", [b'"abc"', b"[]", b'["alpha", 2, "gamma"]', b"null",
                                       b'["alpha", "alpha", "gamma"]', b'["only"]'])
def test_model_container_rejects_a_portfolio_that_is_not_a_list_of_names(
        tmp_path, portfolio):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    doctored = header.replace(b'["alpha", "beta", "gamma"]', portfolio)
    assert doctored != header
    path.write_bytes(doctored + b"\n" + rest)
    with pytest.raises(ModelFormatError, match="portfolio"):
        load_model(path)


@pytest.mark.parametrize("field, value, message", [
    (b'"edge_sets": ["AST", "ICFG", "DFG"]', b'"edge_sets": ""',
     "model.edge_sets must be a list"),
    (b'"pool_hidden": [5, 3]', b'"pool_hidden": "53"', "model.pool_hidden must be a list"),
    (b'"head_hidden": null', b'"head_hidden": "8"', "model.head_hidden must be a list"),
    (b'"head_hidden": null', b'"head_hidden": [4, 0]',
     "model.head_hidden must be a list of integers >= 1, or null"),
    (b'"leaky_slope": 0.2', b'"leaky_slope": "x"', "model.leaky_slope must be a number"),
    (b'"leaky_slope": 0.2', b'"leaky_slope": true', "model.leaky_slope must be a number"),
    (b'"leaky_slope": 0.2', b'"leaky_slope": NaN', "model.leaky_slope must be finite"),
    (b'"leaky_slope": 0.2', b'"leaky_slope": -Infinity', "model.leaky_slope must be finite"),
    (b'"num_gat_layers": 1', b'"num_gat_layers": 1.5',
     "model.num_gat_layers must be an integer, got 1.5"),
    (b'"gat_width": 4', b'"gat_width": 4.0',
     "model.gat_width must be an integer, got 4.0"),
    (b'"pool_hidden": [5, 3]', b'"pool_hidden": [5, true]',
     "model.pool_hidden must be a list of integers >= 1"),
    (b'"jumping_knowledge": true', b'"jumping_knowledge": "no"',
     "model.jumping_knowledge must be true or false"),
])
def test_model_container_rejects_a_config_with_a_bad_list(tmp_path, field, value, message):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    doctored = header.replace(field, value)
    assert doctored != header
    path.write_bytes(doctored + b"\n" + rest)
    with pytest.raises(ModelFormatError, match=f"bad header: {message}"):
        load_model(path)


VOCAB_HEADER_CASES = [
    ("vocab_size", 8.5, "vocab_size must be an integer, got 8.5"),
    ("vocab_size", 8.0, "vocab_size must be an integer, got 8.0"),
    ("vocab_size", "8", 'vocab_size must be an integer, got "8"'),
    ("vocab_size", True, "vocab_size must be an integer, got true"),
    ("vocab_size", None, "vocab_size must be an integer, got null"),
    ("vocab_size", 0, "vocab_size must be >= 1, got 0"),
    ("vocab_fingerprint", 5, "vocab_fingerprint must be a string, got 5"),
    ("vocab_fingerprint", None, "vocab_fingerprint must be a string, got null"),
    ("vocab_fingerprint", VOCAB8.fingerprint().upper(),
     "vocab_fingerprint must be 64 lowercase hex digits"),
    ("vocab_fingerprint", VOCAB8.fingerprint()[:-1],
     "vocab_fingerprint must be 64 lowercase hex digits"),
    ("vocab_fingerprint", "g" * 64, "vocab_fingerprint must be 64 lowercase hex digits"),
]


@pytest.mark.parametrize("key, value, message", VOCAB_HEADER_CASES,
                         ids=[f"{key}={json.dumps(value)[:12]}"
                              for key, value, _ in VOCAB_HEADER_CASES])
def test_model_container_reads_only_vocabulary_fields_it_could_have_written(
        tmp_path, key, value, message):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields[key] = value
    path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + rest)
    with pytest.raises(ModelFormatError, match=re.escape(f"bad header: {message}")):
        load_model(path)


def test_init_parameters_rejects_a_repeated_verifier():
    with pytest.raises(ValueError, match="distinct names"):
        init_parameters(ModelConfig(), VOCAB8, ["alpha", "beta", "alpha"])


def test_an_empty_head_hidden_is_saved_as_the_default_shape(tmp_path):
    params = tiny_params(head_hidden=())
    assert params.config == tiny_params().config
    save_model(params, tmp_path / "model.bin")
    assert b'"head_hidden": null' in (tmp_path / "model.bin").read_bytes().split(b"\n")[0]


SAVED_VOCAB_FINGERPRINT = "d5d7a87817352ecfc35567c73340fc3b719b439b563b90a13f28e464faec56d9"


@pytest.mark.parametrize("config, header, blocks", [
    (ModelConfig(),
     '{"config": {"edge_sets": ["AST", "ICFG", "DFG"], "gat_width": 32, '
     '"head_hidden": null, "jumping_knowledge": true, "leaky_slope": 0.2, '
     '"num_gat_layers": 1, "pool_hidden": [64, 12], "property_encoding": "scalar"}, '
     '"format_version": 1, "portfolio": ["bmc", "cegar", "symexec"], '
     f'"vocab_fingerprint": "{SAVED_VOCAB_FINGERPRINT}", "vocab_size": 29}}',
     [("gat0.w_in", 32, 29), ("gat0.w_out", 32, 29), ("gat0.attn", 64, 1),
      ("pool0.w", 64, 61), ("pool0.b", 1, 64), ("pool1.w", 12, 64), ("pool1.b", 1, 12),
      ("pool2.w", 1, 12), ("pool2.b", 1, 1), ("head0.w", 62, 62), ("head0.b", 1, 62),
      ("head1.w", 31, 62), ("head1.b", 1, 31), ("head2.w", 3, 31), ("head2.b", 1, 3)]),
    (ModelConfig(num_gat_layers=2, property_encoding="onehot", head_hidden=(16,)),
     '{"config": {"edge_sets": ["AST", "ICFG", "DFG"], "gat_width": 32, '
     '"head_hidden": [16], "jumping_knowledge": true, "leaky_slope": 0.2, '
     '"num_gat_layers": 2, "pool_hidden": [64, 12], "property_encoding": "onehot"}, '
     '"format_version": 1, "portfolio": ["bmc", "cegar", "symexec"], '
     f'"vocab_fingerprint": "{SAVED_VOCAB_FINGERPRINT}", "vocab_size": 29}}',
     [("gat0.w_in", 32, 29), ("gat0.w_out", 32, 29), ("gat0.attn", 64, 1),
      ("gat1.w_in", 32, 32), ("gat1.w_out", 32, 32), ("gat1.attn", 64, 1),
      ("pool0.w", 64, 93), ("pool0.b", 1, 64), ("pool1.w", 12, 64), ("pool1.b", 1, 12),
      ("pool2.w", 1, 12), ("pool2.b", 1, 1), ("head0.w", 16, 97), ("head0.b", 1, 16),
      ("head1.w", 3, 16), ("head1.b", 1, 3)]),
])
def test_saved_container_header_and_block_layout_are_pinned(tmp_path, config, header,
                                                            blocks):
    params = init_parameters(config, TokenVocabulary.default(),
                             ("bmc", "cegar", "symexec"), seed=0)
    path = tmp_path / "model.bin"
    save_model(params, path)
    data = path.read_bytes()
    newline = data.find(b"\n")
    assert data[:newline].decode() == header
    got, offset = [], newline + 1
    while offset < len(data):
        (name_len,) = struct.unpack_from("<I", data, offset)
        name = data[offset + 4:offset + 4 + name_len].decode()
        rows, cols = struct.unpack_from("<II", data, offset + 4 + name_len)
        got.append((name, rows, cols))
        offset += 4 + name_len + 8 + 8 * rows * cols
    assert got == blocks
    # the parameter vector holds each weight transposed, (in, out)
    assert [(name, *t.shape) for name, t in named(params)] == [
        (name, cols, rows) if name.split(".")[1].startswith("w") else (name, rows, cols)
        for name, rows, cols in blocks]


def assert_backed_by_vector(params):
    """Every trainable is a view into ``params.vector``, in layout order, and
    its gradient the same view into ``params.grad``."""
    offset = 0
    params.grad[:] = np.arange(params.grad.size)
    for name, t in named(params):
        assert np.shares_memory(t.values, params.vector), name
        size = t.values.size
        assert np.array_equal(t.values.ravel(), params.vector[offset:offset + size]), name
        assert np.shares_memory(t.grad, params.grad), name
        assert np.array_equal(t.grad.ravel(), np.arange(offset, offset + size)), name
        offset += size
    assert offset == params.vector.size == params.grad.size
    params.vector[:] = np.arange(params.vector.size)
    assert params.trainables()[0].values[0, 0] == 0.0
    assert params.trainables()[-1].values[0, -1] == params.vector.size - 1


def test_trainables_are_views_into_one_vector(tmp_path):
    params = tiny_params(seed=3, num_gat_layers=2, head_hidden=(4,))
    save_model(params, tmp_path / "model.bin")
    for candidate in (params.copy(), load_model(tmp_path / "model.bin"), params):
        assert_backed_by_vector(candidate)


def test_frozen_view_shares_the_vector_and_records_nothing():
    params = tiny_params(seed=4, num_gat_layers=2)
    graph = graph_of([1, 2, 3], ast=[(0, 1), (0, 2)], icfg=[(1, 2)])
    frozen = params.frozen
    assert params.frozen is frozen
    assert frozen.vector is params.vector
    assert all(np.shares_memory(a.values, b.values)
               for a, b in zip(frozen.trainables(), params.trainables()))
    assert not any(t.requires_grad for t in frozen.trainables())
    assert all(t.requires_grad for t in params.trainables())
    params.vector *= 0.5  # an in-place update, as Adam's, reaches the view
    scores = forward_scores(graph, frozen)
    assert not scores.requires_grad and scores._inputs == ()
    assert np.array_equal(scores.values, forward_scores(graph, params).values)
    assert params.copy().frozen.vector is not params.vector


def assert_layers_bind_the_named_views(params):
    """``named`` gives the layout's names in order, each layer field is the
    view of that name, and the frozen view has the same layers over new
    tensors on the same arrays."""
    layout = _parameter_layout(params.config, params.vocab_size, len(params.portfolio))
    frozen = params.frozen
    for view in (params, frozen):
        assert [name for name, _ in named(view)] == [name for name, *_ in layout]
        views = dict(named(view))
        for kind in ("gat", "pool", "head"):
            for i, layer in enumerate(getattr(view, kind)):
                for name, t in layer._asdict().items():
                    assert t is views[f"{kind}{i}.{name}"]
    for (_, a), (_, b) in zip(named(frozen), named(params)):
        assert a is not b and a.values is b.values and a.shape == b.shape
    for kind in ("gat", "pool", "head"):
        layers, originals = getattr(frozen, kind), getattr(params, kind)
        assert [type(layer) for layer in layers] == [type(layer) for layer in originals]


def test_frozen_view_shares_every_array_and_keeps_the_layers():
    assert_layers_bind_the_named_views(tiny_params(seed=4, num_gat_layers=2))


@pytest.mark.parametrize("config", [
    dict(num_gat_layers=0),
    dict(num_gat_layers=3, jumping_knowledge=False, property_encoding="onehot",
         head_hidden=(5, 4)),
    dict(pool_hidden=(6,)),
])
def test_layers_bind_the_views_the_layout_names(config):
    assert_layers_bind_the_named_views(tiny_params(seed=6, **config))


def test_zero_grad_on_one_trainable_keeps_its_view():
    params = tiny_params(seed=2)
    params.grad.fill(3.0)
    t = params.trainables()[1]
    view = t.grad
    t.zero_grad()
    assert t.grad is view and np.shares_memory(view, params.grad)
    assert np.count_nonzero(params.grad == 3.0) == params.grad.size - view.size
    params.zero_grad()
    assert np.signbit(params.grad).all() and not params.grad.any()


def test_copy_is_independent_of_the_original():
    params = tiny_params(seed=5)
    before = params.vector.copy()
    clone = params.copy()
    assert not np.shares_memory(clone.vector, params.vector)
    assert not np.shares_memory(clone.grad, params.grad)
    clone.vector += 1.0
    clone.trainables()[0].values[0, 0] = 42.0
    assert np.array_equal(params.vector, before)
    assert clone.vector[0] == 42.0


@pytest.mark.parametrize("layers, head", [(0, None), (2, (5, 4)), (3, ())])
def test_load_reproduces_vector_bytes_from_out_in_file_blocks(tmp_path, layers, head):
    # the vector holds each weight transposed, (in, out); the file holds the
    # (out, in) matrix, and a load transposes it back, bit for bit
    params = tiny_params(seed=11, num_gat_layers=layers, head_hidden=head)
    path = tmp_path / "model.bin"
    save_model(params, path)
    data = path.read_bytes()
    blocks, offset = {}, data.find(b"\n") + 1
    while offset < len(data):
        (name_len,) = struct.unpack_from("<I", data, offset)
        name = data[offset + 4:offset + 4 + name_len].decode()
        rows, cols = struct.unpack_from("<II", data, offset + 4 + name_len)
        offset += 4 + name_len + 8
        blocks[name] = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += 8 * rows * cols
    for name, t in named(params):
        weight = name.split(".")[1].startswith("w")
        assert np.array_equal(blocks[name], t.values.T if weight else t.values), name
    assert load_model(path).vector.tobytes() == params.vector.tobytes()


def test_save_load_save_is_byte_stable(tmp_path):
    params = tiny_params(seed=7, num_gat_layers=2)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(params, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_model_container_rejects_a_block_of_the_wrong_shape(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    doctored = header.replace(b'"vocab_size": 8', b'"vocab_size": 9')
    assert doctored != header
    path.write_bytes(doctored + b"\n" + rest)
    with pytest.raises(ModelFormatError, match="gat0.w_in: shape"):
        load_model(path)


def saved_blocks(data):
    """The header line of a saved model's bytes and its raw parameter blocks,
    in file order, as ``{name: bytes}``."""
    offset = data.find(b"\n") + 1
    header, blocks = data[:offset], {}
    while offset < len(data):
        (size,) = struct.unpack_from("<I", data, offset)
        rows, cols = struct.unpack_from("<II", data, offset + 4 + size)
        end = offset + 12 + size + 8 * rows * cols
        blocks[data[offset + 4:offset + 4 + size].decode()] = data[offset:end]
        offset = end
    return header, blocks


def raw_block(name, rows, cols, value=0.0):
    blob = name.encode()
    return (struct.pack("<I", len(blob)) + blob + struct.pack("<II", rows, cols)
            + np.full(rows * cols, value, dtype="<f8").tobytes())


def test_model_container_rejects_a_repeated_parameter_block(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, blocks = saved_blocks(path.read_bytes())
    copy = raw_block("gat0.w_in", 4, 8, 9.0)
    # in place of the next block, the copy is found where gat0.w_out belongs
    path.write_bytes(header + blocks["gat0.w_in"] + copy + b"".join(list(blocks.values())[1:]))
    with pytest.raises(ModelFormatError, match="^parameter block gat0.w_out: found gat0.w_in$"):
        load_model(path)
    # after the last block, the copy is bytes no block of the layout reads
    path.write_bytes(header + b"".join(blocks.values()) + copy)
    with pytest.raises(ModelFormatError,
                       match=f"^{len(copy)} bytes after the last parameter block$"):
        load_model(path)


def test_model_container_names_a_missing_block_before_an_unexpected_one(tmp_path):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    extra = raw_block("extra.w", 1, 2)
    path.write_bytes(header + b"\n" + rest + extra)
    with pytest.raises(ModelFormatError,
                       match="^35 bytes after the last parameter block$"):
        load_model(path)
    path.write_bytes(header + b"\n" + rest.replace(b"gat0.w_in", b"gat9.w_in", 1) + extra)
    with pytest.raises(ModelFormatError, match="^parameter block gat0.w_in: found gat9.w_in$"):
        load_model(path)


def reorder(blocks, edit, name):
    """The block list with ``edit`` applied at block ``name``."""
    names = list(blocks)
    i = names.index(name)
    if edit == "swap":  # with the next block
        names[i:i + 2] = names[i + 1], names[i]
    elif edit == "drop":
        del names[i]
    else:  # "extra", an unknown block before this one
        names.insert(i, "extra.w")
    return b"".join(blocks.get(n, raw_block("extra.w", 1, 2)) for n in names)


OUT_OF_PLACE_CASES = [
    ("swap", "gat0.w_in", "parameter block gat0.w_in: found gat0.w_out"),
    ("swap", "pool1.b", "parameter block pool1.b: found pool2.w"),
    ("swap", "head2.w", "parameter block head2.w: found head2.b"),
    ("drop", "gat0.attn", "parameter block gat0.attn: found pool0.w"),
    ("drop", "head2.b", "parameter block head2.b: missing"),
    ("extra", "pool0.b", "parameter block pool0.b: found extra.w"),
]


@pytest.mark.parametrize("edit, name, message", OUT_OF_PLACE_CASES,
                         ids=[f"{edit}-{name}" for edit, name, _ in OUT_OF_PLACE_CASES])
def test_model_container_finds_a_block_out_of_place_by_its_position(tmp_path, edit, name,
                                                                    message):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    header, blocks = saved_blocks(path.read_bytes())
    path.write_bytes(header + reorder(blocks, edit, name))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


def set_shape(data, name, shape=None):
    """``data`` with block ``name``'s (rows, cols) written as ``shape``, by
    default as (cols, rows)."""
    at = data.index(name.encode()) + len(name)
    shape = shape or struct.unpack_from("<II", data, at)[::-1]
    return data[:at] + struct.pack("<II", *shape) + data[at + 8:]


BYTE_CASES = [
    ("flip-shape-gat0.attn", lambda data: set_shape(data, "gat0.attn"),
     r"parameter block gat0.attn: shape \(1, 8\), config needs \(8, 1\)"),
    # rows x cols beyond what numpy can count
    ("max-shape-gat0.attn", lambda data: set_shape(data, "gat0.attn", (2**32 - 1,) * 2),
     "parameter block gat0.attn: corrupt or truncated: "),
    ("cut-1-byte", lambda data: data[:-1],
     "parameter block head2.b: corrupt or truncated: "),
    ("cut-in-name-pool0.w", lambda data: data[:data.index(b"pool0.w") + 3],
     "parameter block pool0.w: corrupt or truncated: "),
    ("pad-1-byte", lambda data: data + b"\0", "1 bytes after the last parameter block"),
]


@pytest.mark.parametrize("doctor, message", [case[1:] for case in BYTE_CASES],
                         ids=[case[0] for case in BYTE_CASES])
def test_model_container_rejects_a_misshapen_cut_or_padded_file(tmp_path, doctor, message):
    path = tmp_path / "model.bin"
    save_model(tiny_params(), path)
    path.write_bytes(doctor(path.read_bytes()))
    with pytest.raises(ModelFormatError, match=f"^{message}"):
        load_model(path)


def with_value(params, name, value):
    """A copy of ``params`` with the last value of block ``name`` set to ``value``."""
    params = params.copy()
    dict(named(params))[name].values.flat[-1] = value
    return params


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", ["gat0.w_in", "pool1.w", "head2.b"])
def test_model_container_names_the_block_that_holds_a_non_finite_value(tmp_path, name,
                                                                       value):
    path = tmp_path / "model.bin"
    save_model(with_value(tiny_params(), name, 1.5), path)  # every other |value| is <= 1
    data = path.read_bytes()
    at = data.index(struct.pack("<d", 1.5))
    path.write_bytes(data[:at] + struct.pack("<d", value) + data[at + 8:])
    with pytest.raises(ModelFormatError, match=f"^parameter block {name}: non-finite value$"):
        load_model(path)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_save_model_refuses_a_non_finite_parameter_and_writes_nothing(tmp_path, value):
    params = with_value(tiny_params(), "pool1.w", value)
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match="^parameter block pool1.w: non-finite value$"):
        save_model(params, path)
    assert not path.exists()
    save_model(tiny_params(), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="pool1.w"):
        save_model(params, path)
    assert path.read_bytes() == before


@functools.cache
def saved_floats():
    """A saved 2-layer model's bytes and the file offset of each of its floats."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(tiny_params(seed=8, num_gat_layers=2), path)
        data = path.read_bytes()
    header, blocks = saved_blocks(data)
    offsets, start = [], len(header)
    for name, raw in blocks.items():
        offsets += range(start + 12 + len(name), start + len(raw), 8)
        start += len(raw)
    return data, offsets


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_prefix_byte_change_or_non_finite_float_loads_or_is_a_format_error(data):
    saved, offsets = saved_floats()
    edit = data.draw(st.sampled_from(["prefix", "byte", "float"]))
    if edit == "prefix":
        doctored = saved[:data.draw(st.integers(0, len(saved) - 1))]
    elif edit == "byte":
        at = data.draw(st.integers(0, len(saved) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != saved[at]))
        doctored = saved[:at] + bytes([byte]) + saved[at + 1:]
    else:
        at = data.draw(st.sampled_from(offsets))
        value = data.draw(st.sampled_from(NON_FINITE))
        doctored = saved[:at] + struct.pack("<d", value) + saved[at + 8:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(doctored)
        try:
            load_model(path)
        except ModelFormatError as err:
            assert edit != "float" or str(err).endswith(": non-finite value")
        else:
            assert edit == "byte"
