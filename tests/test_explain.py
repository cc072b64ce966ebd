import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verisel.explain
import verisel.model
from helpers import awkward_graph, dense_forward_scores, exp, log, scatter, sum_all
from planted import PORTFOLIO, planted_graph, synthetic_vocabulary
from verisel import tensor as T
from verisel.explain import (
    EdgeMask,
    MaskedEdge,
    MaskSaturated,
    explain,
    maskable_edges,
    report_size,
    to_dot,
    top_m_edges,
)
from verisel.graphio import (
    EDGE_SET_NAMES,
    ConfigError,
    ProgramGraph,
    PropertyKind,
    canonical_json,
)
from verisel.model import (
    EdgeIndex,
    EmptyGraph,
    MaskScorer,
    ModelConfig,
    VocabMismatch,
    edge_pairs,
    forward_scores,
    init_parameters,
    predict,
)

VOCAB = synthetic_vocabulary()


def simple_graph():
    return ProgramGraph("g", PropertyKind.REACH_SAFETY, [1, 4, 5, 2], {
        "AST": [(0, 1), (0, 2), (2, 3)],
        "ICFG": [(1, 2), (2, 3), (3, 1)],
        "DFG": [(1, 3)],
    })


def fresh_params(seed=0, **kwargs):
    defaults = dict(num_gat_layers=1, gat_width=6, pool_hidden=(6, 3))
    defaults.update(kwargs)
    return init_parameters(ModelConfig(**defaults), VOCAB, PORTFOLIO, seed=seed)


# ---------------------------------------------------------------------------
# report size law


def test_report_size_examples():
    assert report_size(40) == 5
    assert report_size(50) == 5
    assert report_size(137) == 13


def test_report_size_law_full_range():
    for n in range(1, 1001):
        expected = 5 if n < 50 else n // 10
        assert report_size(n) == expected


# ---------------------------------------------------------------------------
# mask optimization


def test_explain_zero_iters_gives_exact_half():
    params = fresh_params()
    mask = explain(params, simple_graph(), iters=0)
    assert len(mask.edges) == 7
    assert all(score == 0.5 for score in mask.scores)
    assert mask.trace == []


def test_explain_deterministic_per_seed():
    params = fresh_params()
    one = explain(params, simple_graph(), iters=20, seed=3)
    two = explain(params, simple_graph(), iters=20, seed=3)
    assert one.scores == two.scores
    assert one.trace == two.trace


def test_explain_seed_matters_only_with_noise():
    params = fresh_params()
    base_a = explain(params, simple_graph(), iters=5, seed=1)
    base_b = explain(params, simple_graph(), iters=5, seed=2)
    assert base_a.scores == base_b.scores  # init 0 exactly: seed is inert
    noisy_a = explain(params, simple_graph(), iters=5, seed=1, init_noise=0.1)
    noisy_b = explain(params, simple_graph(), iters=5, seed=2, init_noise=0.1)
    assert noisy_a.scores != noisy_b.scores


def test_explain_scores_stay_inside_unit_interval():
    params = fresh_params(seed=5)
    mask = explain(params, simple_graph(), iters=60)
    assert all(0.0 < s < 1.0 for s in mask.scores)


def test_explain_unused_edges_sink_toward_penalty_floor():
    # model reads no edge sets: masking cannot change the prediction, so the
    # size and entropy penalties alone drive every score below 1/2
    params = fresh_params(edge_sets=())
    mask = explain(params, simple_graph(), iters=50,
                   edge_sets=("AST", "ICFG", "DFG"))
    assert len(mask.edges) == 7
    assert all(score < 0.5 for score in mask.scores)
    assert mask.trace[-1] < mask.trace[0]


def test_explain_empty_graph_raises():
    params = fresh_params()
    empty = ProgramGraph("e", PropertyKind.REACH_SAFETY, [],
                         {"AST": [], "ICFG": [], "DFG": []})
    with pytest.raises(EmptyGraph, match="^graph e has no nodes$"):
        explain(params, empty)


def test_explain_no_edges_yields_empty_mask():
    params = fresh_params()
    bare = ProgramGraph("b", PropertyKind.REACH_SAFETY, [1, 2],
                        {"AST": [], "ICFG": [], "DFG": []})
    mask = explain(params, bare)
    assert mask.edges == [] and mask.scores == []


def test_explain_checks_the_vocabulary_before_it_looks_for_edges():
    params = fresh_params()
    bare = ProgramGraph("b", PropertyKind.REACH_SAFETY, [1, len(VOCAB)],
                        {"AST": [], "ICFG": [], "DFG": []})
    with pytest.raises(VocabMismatch, match="^graph b has kind indices outside"):
        explain(params, bare)


def test_explain_restricted_edge_sets():
    params = fresh_params()
    mask = explain(params, simple_graph(), iters=0, edge_sets=("DFG",))
    assert [e.edge_set for e in mask.edges] == ["DFG"]


def test_explain_rejects_unknown_edge_sets():
    # the rule of model.edge_sets: a repeated name, and a bare string rather
    # than a list of names, break it too
    params = fresh_params()
    for sets, shown in [(("AST", "DFX"), '["AST", "DFX"]'), (("DFX",), '["DFX"]'),
                        (("XYZ", "DFX", "DFG"), '["XYZ", "DFX", "DFG"]'),
                        (("AST", "AST"), '["AST", "AST"]'), ("AST", '"AST"')]:
        with pytest.raises(ConfigError) as excinfo:
            explain(params, simple_graph(), iters=0, edge_sets=sets)
        assert str(excinfo.value) == \
            f"edge_sets must be a list of distinct names from AST/ICFG/DFG, got {shown}"


@pytest.mark.filterwarnings("error")
def test_explain_stops_at_the_first_saturated_iteration():
    # a step this large rounds keep scores to exactly 0 or 1, where the entropy
    # penalty's log is undefined: that iteration raises before numpy warns,
    # and the iterations before it run as usual
    params = fresh_params(seed=5)
    with pytest.raises(MaskSaturated, match=r"lr \(now 10000000.0\)$") as excinfo:
        explain(params, simple_graph(), iters=100, lr=1e7)
    first = int(re.fullmatch(r"iteration (\d+): .*", str(excinfo.value)).group(1))
    assert first > 1
    mask = explain(params, simple_graph(), iters=first - 1, lr=1e7)
    assert len(mask.trace) == first - 1 and all(map(math.isfinite, mask.trace))


@pytest.mark.parametrize("setting, value, message", [
    pytest.param(*row, id=f"{row[0]}={row[1]!r}") for row in [
    ("iters", -1, "iters must be >= 0, got -1"),
    ("iters", 2.0, "iters must be an integer, got 2.0"),
    ("iters", True, "iters must be an integer, got true"),
    ("lr", float("nan"), "lr must be finite, got NaN"),
    ("lr", "0.1", 'lr must be a number, got "0.1"'),
    ("size_weight", float("inf"), "size_weight must be finite, got Infinity"),
    ("entropy_weight", float("-inf"), "entropy_weight must be finite, got -Infinity"),
    ("entropy_weight", None, "entropy_weight must be a number, got null"),
]])
def test_explain_refuses_a_bad_setting_before_any_work(monkeypatch, setting, value, message):
    # checked first: even a graph with no nodes gets the setting's error
    monkeypatch.setattr(verisel.explain, "MaskScorer", None)
    empty = ProgramGraph("e", PropertyKind.REACH_SAFETY, [], {"AST": [], "ICFG": [], "DFG": []})
    for graph in (simple_graph(), empty):
        with pytest.raises(ConfigError) as excinfo:
            explain(fresh_params(), graph, **{setting: value})
        assert str(excinfo.value) == message


def masked_scores_and_keep_gradient(forward, graph, params, keep, mask):
    keep.zero_grad()
    scores = forward(graph, params, message_mask=mask)
    T.backward(sum_all(scores))
    return scores.values, keep.grad


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9), layers=st.integers(1, 2),
       read=st.sampled_from([("AST", "ICFG", "DFG"), ("AST", "ICFG"), ("DFG",)]))
def test_message_mask_matches_dense_mask(seed, n, layers, read):
    # every set is masked, the model reads only `read`: shared edges and the
    # (0, 0) self-edge multiply several keeps, unread edges change nothing
    rng = np.random.default_rng(seed)
    graph = awkward_graph(rng, n, vocab_size=len(VOCAB))
    params = fresh_params(seed=seed, num_gat_layers=layers, edge_sets=read)
    for t in params.trainables():
        t.requires_grad = False
    edges = maskable_edges(graph, ("AST", "ICFG", "DFG"))
    pairs = np.array([(e.src, e.dst) for e in edges]).reshape(-1, 2)
    keep = T.Tensor(rng.uniform(0.05, 0.95, (1, len(edges))), requires_grad=True)
    index = EdgeIndex(n, edge_pairs(graph, read))
    got = masked_scores_and_keep_gradient(
        forward_scores, graph, params, keep,
        index.message_mask(keep, index.slots(pairs)))
    dense = exp(scatter(log(keep), pairs[:, 1], pairs[:, 0], (n, n)))
    want = masked_scores_and_keep_gradient(
        dense_forward_scores, graph, params, keep, dense)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_edge_index_slots_resolve_each_masked_edge():
    # the index covers AST and ICFG: both list (2, 3), which gets one slot,
    # and the DFG edge (1, 3) is no attention edge, so it lands at E
    graph = simple_graph()
    index = EdgeIndex(4, edge_pairs(graph, ("AST", "ICFG")))
    pairs = np.array([(e.src, e.dst) for e in maskable_edges(graph, EDGE_SET_NAMES)])
    slots = index.slots(pairs)
    e = len(index.keys)
    assert slots[2] == slots[4] < e
    assert slots[6] == e
    assert len(set(slots[:6].tolist())) == 5
    assert index.keys[slots[:6]].tolist() == (pairs[:6, 1] * 4 + pairs[:6, 0]).tolist()
    for bad in ([(4, 0)], [(0, -1)]):
        with pytest.raises(ValueError, match="out of range"):
            index.slots(np.array(bad))


def test_explain_never_writes_the_callers_parameters(monkeypatch):
    params = fresh_params(seed=2, edge_sets=("AST",))
    params.trainables()[0].requires_grad = False  # frozen by the caller
    flags = [t.requires_grad for t in params.trainables()]
    before, grads = params.vector.tobytes(), params.grad.tobytes()
    seen = []

    def watch(forward):
        def watched(*args, **kwargs):
            seen.append([t.requires_grad for t in params.trainables()])
            return forward(*args, **kwargs)
        return watched

    # the target and each iteration go through the scorer
    monkeypatch.setattr(MaskScorer, "__call__", watch(MaskScorer.__call__))
    explain(params, simple_graph(), iters=3)
    graph = simple_graph()
    graph.edge_sets["DFG"] = [(4, 0)]
    with pytest.raises(ValueError, match="out of range"):
        explain(params, graph, iters=3, edge_sets=("AST", "DFG"))
    assert len(seen) == 5 and all(s == flags for s in seen)
    assert [t.requires_grad for t in params.trainables()] == flags
    assert params.grad.tobytes() == grads
    assert params.vector.tobytes() == before


def test_mask_independent_work_runs_once_per_call(monkeypatch):
    # layer 0's attention is made once, when the scorer is built, however
    # many iterations follow; layer 1's attention depends on the mask and is
    # made again for the target and in every iteration
    params = fresh_params(seed=3, num_gat_layers=2)
    assert params.vocab_size != params.config.gat_width
    calls = Counter()

    def counted(name, key):
        target = getattr(verisel.model, name)

        def wrapper(*args):
            calls[key(*args)] += 1
            return target(*args)
        monkeypatch.setattr(verisel.model, name, wrapper)

    counted("_gat_attention",
            lambda h, *rest: "layer 0" if h.shape[1] == params.vocab_size else "layer 1")
    for iters in (1, 6):
        calls.clear()
        explain(params, simple_graph(), iters=iters)
        assert calls == {"layer 0": 1, "layer 1": 1 + iters}


def test_out_of_range_edge_in_an_unread_set_is_rejected():
    # the model reads only AST; the DFG edge (4, 0) has the key of the AST
    # edge (0, 1), so an unchecked lookup would scale that edge's attention
    graph = simple_graph()
    graph.edge_sets["DFG"] = [(4, 0)]
    params = fresh_params(edge_sets=("AST",))
    with pytest.raises(ValueError, match="out of range"):
        explain(params, graph, iters=1, edge_sets=("AST", "DFG"))


# ---------------------------------------------------------------------------
# faithfulness against a hard-deletion oracle


def single_deletion_flips(params, graph, edges):
    """Indices of maskable edges whose hard removal changes the top-1 pick."""
    base = predict(graph, params).ordering[0]
    flips = []
    for i, edge in enumerate(edges):
        trimmed = {
            name: [p for p in pairs
                   if not (name == edge.edge_set and p == (edge.src, edge.dst))]
            for name, pairs in graph.edge_sets.items()
        }
        variant = ProgramGraph(graph.id, graph.property,
                               list(graph.node_kinds), trimmed)
        if predict(variant, params).ordering[0] != base:
            flips.append(i)
    return flips


def test_explain_top_edge_matches_deletion_oracle(synthetic_model):
    rng = np.random.default_rng(123)
    checked = 0
    for trial in range(10):
        g = planted_graph(rng, positive=True, graph_id=f"oracle{trial}")
        graph = g.instance.graph
        edges = maskable_edges(graph, synthetic_model.config.edge_sets)
        flips = single_deletion_flips(synthetic_model, graph, edges)
        if len(flips) != 1:
            continue  # oracle must single out one edge for a clean comparison
        checked += 1
        mask = explain(synthetic_model, graph)
        top = max(range(len(mask.scores)), key=lambda i: mask.scores[i])
        assert top == flips[0]
        want = g.planted
        assert (edges[top].edge_set, edges[top].src, edges[top].dst) == want
    assert checked >= 5


def test_explain_finds_planted_edge_in_top_m(synthetic_model):
    rng = np.random.default_rng(7)
    hits = 0
    trials = 10
    for trial in range(trials):
        g = planted_graph(rng, positive=True, graph_id=f"faith{trial}")
        mask = explain(synthetic_model, g.instance.graph)
        report = top_m_edges(mask, g.instance.graph, VOCAB)
        hits += any(
            (e.edge_set, e.src, e.dst) == g.planted for e in report.entries
        )
    assert hits >= 8


# ---------------------------------------------------------------------------
# report and DOT output


def test_top_m_edges_ordering_and_clamp():
    graph = simple_graph()
    edges = maskable_edges(graph, ("AST", "ICFG", "DFG"))
    scores = [0.1, 0.9, 0.9, 0.2, 0.8, 0.3, 0.4]
    mask = EdgeMask(graph.id, edges, scores, [])
    report = top_m_edges(mask, graph, VOCAB)
    assert report.m == 5
    assert [e.rank for e in report.entries] == [1, 2, 3, 4, 5]
    assert [round(e.score, 1) for e in report.entries] == [0.9, 0.9, 0.8, 0.4, 0.3]
    # tie at 0.9 broken by edge index: AST edge (0,2) before ICFG (1,2)
    assert report.entries[0].edge_set == "AST"
    tiny = EdgeMask(graph.id, edges[:2], [0.5, 0.4], [])
    assert top_m_edges(tiny, graph, VOCAB).m == 2  # clamped to edge count


def test_report_order_goes_by_edge_index_when_scores_tie():
    # a model that reads no edge set ignores the mask on every edge that is
    # not a self-loop, so those keep scores take the same steps and the
    # report lists the first m edges in order
    params = fresh_params(seed=2, edge_sets=())
    n = 30
    chain = ProgramGraph("chain", PropertyKind.TERMINATION, [i % len(VOCAB) for i in range(n)], {
        "AST": [(i, i + 1) for i in range(n - 1)],
        "ICFG": [(i + 1, i) for i in range(n - 1)],
        "DFG": [(i, i + 2) for i in range(n - 2)],
    })
    for graph in (simple_graph(), chain):
        mask = explain(params, graph, iters=5, edge_sets=EDGE_SET_NAMES)
        assert len(mask.edges) > report_size(len(mask.edges)) and len(set(mask.scores)) == 1
        report = top_m_edges(mask, graph, VOCAB)
        assert [(e.edge_set, e.src, e.dst) for e in report.entries] == [
            (e.edge_set, e.src, e.dst) for e in mask.edges[:report.m]]
        assert [e.rank for e in report.entries] == list(range(1, report.m + 1))


def test_report_carries_kind_names():
    graph = simple_graph()
    edges = maskable_edges(graph, ("AST",))
    mask = EdgeMask(graph.id, edges, [0.9, 0.8, 0.7], [])
    report = top_m_edges(mask, graph, VOCAB)
    assert report.entries[0].src_kind == "K1"
    assert canonical_json(report.to_dict()).startswith("{")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_with_a_non_finite_score_is_not_written(bad):
    # JSON has no nan or inf: such a report could not be read back
    graph = simple_graph()
    mask = EdgeMask(graph.id, maskable_edges(graph, ("AST",)), [0.9, bad, 0.7], [])
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json(top_m_edges(mask, graph, VOCAB).to_dict())


def test_to_dot_highlights_top_edges():
    graph = simple_graph()
    edges = maskable_edges(graph, ("AST", "ICFG", "DFG"))
    mask = EdgeMask(graph.id, edges, [0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1], [])
    report = top_m_edges(mask, graph, VOCAB)
    dot = to_dot(graph, VOCAB, report)
    assert dot.startswith('digraph "g"')
    assert 'penwidth=3' in dot
    assert "gray70" in dot
    assert dot.count("->") == 7


def test_masked_edge_order_is_stable():
    graph = simple_graph()
    edges = maskable_edges(graph, ("AST", "ICFG", "DFG"))
    assert edges[0] == MaskedEdge("AST", 0, 1)
    assert edges[3] == MaskedEdge("ICFG", 1, 2)
    assert edges[-1] == MaskedEdge("DFG", 1, 3)
