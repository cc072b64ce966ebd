import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import PerTensorAdam, named, reference_train
from planted import (
    InvalidRanking,
    average_ranks,
    baselines,
    borda_ordering,
    mean_spearman,
    ordinal_ranking,
    pearson,
    random_orderings,
    results_from_orderings,
)
from verisel import tensor as tz
from verisel.explain import explain
from verisel.graphio import (
    LabeledInstance,
    ProgramGraph,
    PropertyKind,
    TokenVocabulary,
    _largest_remainder,
    canonical_json,
    ordering_from_scores,
)
from verisel.model import (
    LengthMismatch,
    ModelConfig,
    forward_scores,
    init_parameters,
    margin_rank_loss_t,
    predict,
    prepare_input,
)
from verisel.trainer import (
    BadK,
    EmptySplit,
    NoEligibleInstances,
    PlateauSchedule,
    TrainConfig,
    _AdamState,
    best_verifier,
    evaluate_rankings,
    spearman,
    success_accuracy,
    topk_error,
    train,
    validation_loss,
)

# ---------------------------------------------------------------------------
# spearman


def test_spearman_identical_order():
    assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0


def test_spearman_reversed_order():
    assert spearman([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]) == -1.0


def test_spearman_worked_case():
    # rank vectors [1,2,3,4] vs [1,2,4,3]: 1 - 6*2 / (4*15) = 0.8
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]) == pytest.approx(0.8, abs=1e-15)


def test_spearman_with_a_tie():
    # average ranks [2.5, 2.5, 1] vs [1, 3, 2], both of mean 2; the deviations
    # [0.5, 0.5, -1] and [-1, 1, 0] are orthogonal, so rho is 0
    assert spearman([-1.0, -1.0, 2.0], [0.3, 0.1, 0.2]) == 0.0


def test_spearman_with_two_tied_pairs():
    # average ranks [3.5, 3.5, 1.5, 1.5] vs [1, 2, 3, 4], both of mean 2.5;
    # deviations [1, 1, -1, -1] and [-1.5, -0.5, 0.5, 1.5]: -4 / sqrt(4 * 5)
    assert spearman([1.0, 1.0, 2.0, 2.0], [4.0, 3.0, 2.0, 1.0]) == pytest.approx(
        -2.0 / math.sqrt(5.0), abs=1e-15)


def test_spearman_degenerate_constant():
    # 0.0 and no warning, so no caller has to silence one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert spearman([3.0, 1.0, 2.0], [5.0, 5.0, 5.0]) == 0.0


def test_evaluate_rankings_leaves_the_warning_filters_alone():
    # "a" has constant labels, spearman's degenerate case; the filters stay the
    # caller's list with the caller's entries, also while a score is read
    filters, before, seen = warnings.filters, list(warnings.filters), []

    class Watched:
        def __init__(self, result):
            self.ordering, self._scores = result.ordering, result.scores

        @property
        def scores(self):
            seen.append(warnings.filters is filters and warnings.filters == before)
            return self._scores

    instances = [instance([1.0, 1.0, 1.0], [True, True, True], gid="a"),
                 instance([2.0, 1.0, 0.0], [True, False, False], gid="b")]
    results = results_from_orderings([[0, 1, 2], [0, 1, 2]], instances)
    report = evaluate_rankings([Watched(r) for r in results], instances)
    assert report.overall.spearman_mean == 0.5
    assert seen and all(seen)
    assert warnings.filters is filters and warnings.filters == before


@pytest.mark.parametrize("x, y", [([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
                                  ([1.0, 1.0, 1.0], [math.nan] * 3)])
def test_spearman_of_a_nan_is_nan(x, y):
    # a NaN has no rank; NaN, not a number computed from an arbitrary order
    assert math.isnan(spearman(x, y)) and math.isnan(spearman(y, x))


def test_spearman_length_mismatch():
    with pytest.raises(LengthMismatch):
        spearman([1.0], [1.0])
    with pytest.raises(LengthMismatch):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_equals_pearson_of_ranks():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        x = list(rng.standard_normal(n))
        y = list(rng.standard_normal(n))
        rho = spearman(x, y)
        assert abs(rho - pearson(average_ranks(x), average_ranks(y))) < 1e-9


def test_spearman_equals_pearson_of_ranks_on_tied_draws():
    rng = np.random.default_rng(3)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(2, 12))
        x = [float(v) for v in rng.integers(0, 4, n)]
        y = [float(v) for v in rng.integers(0, 4, n)]
        if min(x) == max(x) or min(y) == max(y):
            continue  # no defined correlation
        tied += len(set(x)) < n or len(set(y)) < n
        rho = spearman(x, y)
        assert abs(rho - pearson(average_ranks(x), average_ranks(y))) < 1e-12
    assert tied >= 200


# ---------------------------------------------------------------------------
# borda


def test_borda_single_instance_recovers_its_ranking():
    assert borda_ordering([[1, 2, 3]], 3) == [0, 1, 2]
    assert borda_ordering([[3, 1, 2]], 3) == [1, 2, 0]


def test_borda_tie_breaks_by_index():
    # counts: v0 = 2+1 = 3, v1 = 1+2 = 3, v2 = 0
    assert borda_ordering([[1, 2, 3], [2, 1, 3]], 3) == [0, 1, 2]


def test_borda_rejects_non_permutation():
    with pytest.raises(InvalidRanking):
        borda_ordering([[1, 1, 3]], 3)


def test_borda_maximizes_mean_spearman_exhaustively():
    rng = np.random.default_rng(11)
    for k in (3, 4):
        for _ in range(5):
            rankings = []
            for _ in range(int(rng.integers(1, 6))):
                perm = list(rng.permutation(k) + 1)
                rankings.append([int(r) for r in perm])
            ours = mean_spearman(borda_ordering(rankings, k), rankings, k)
            best = max(
                mean_spearman(list(candidate), rankings, k)
                for candidate in itertools.permutations(range(k))
            )
            assert ours == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# success accuracy and top-k


def test_success_accuracy_filters_and_counts():
    orderings = [
        [0, 1, 2],  # all succeed: filtered
        [1, 0, 2],  # none succeed: filtered
        [2, 0, 1],  # top pick succeeds
        [0, 2, 1],  # top pick fails
    ]
    successes = [
        [True, True, True],
        [False, False, False],
        [False, False, True],
        [False, True, True],
    ]
    assert success_accuracy(orderings, successes) == 0.5


def test_success_accuracy_unique_winner_counts():
    assert success_accuracy([[1, 0, 2]], [[False, True, False]]) == 1.0


def test_success_accuracy_no_eligible():
    with pytest.raises(NoEligibleInstances):
        success_accuracy([[0, 1]], [[True, True]])


def test_success_accuracy_mixed_table_matches_hand_filter():
    rng = np.random.default_rng(23)
    orderings, successes = [], []
    for _ in range(10):
        orderings.append([int(v) for v in rng.permutation(4)])
        successes.append([bool(rng.integers(0, 2)) for _ in range(4)])
    hits = eligible = 0
    for o, s in zip(orderings, successes):
        if 0 < sum(s) < 4:
            eligible += 1
            hits += bool(s[o[0]])
    if eligible:
        assert success_accuracy(orderings, successes) == hits / eligible


def test_topk_error_examples():
    assert topk_error([[0, 2, 1]], [2], 1) == 1.0
    assert topk_error([[0, 2, 1]], [2], 2) == 0.0
    assert topk_error([[0, 2, 1]], [2], 3) == 0.0  # K = portfolio size


def test_topk_error_rejects_bad_k():
    with pytest.raises(BadK):
        topk_error([[0, 1, 2]], [0], 0)
    with pytest.raises(BadK):
        topk_error([[0, 1, 2]], [0], 4)


def test_topk_error_non_increasing_in_k():
    rng = np.random.default_rng(5)
    orderings = [[int(v) for v in rng.permutation(6)] for _ in range(40)]
    best = [int(rng.integers(0, 6)) for _ in range(40)]
    errors = [topk_error(orderings, best, k) for k in range(1, 7)]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[-1] == 0.0


# ---------------------------------------------------------------------------
# baselines


def instance(labels, successes, prop=PropertyKind.REACH_SAFETY, gid="g"):
    graph = ProgramGraph(gid, prop, [1], {"AST": [], "ICFG": [], "DFG": []})
    return LabeledInstance(graph, list(labels), list(successes))


def test_baselines_success_picks_most_correct():
    train_set = [
        instance([1, 2, 0], [False, True, False]),
        instance([0, 2, 1], [True, True, False]),
        instance([2, 1, 0], [False, True, True]),
    ]
    assert baselines(train_set).iss_success == 1


def test_baselines_topk_frequency_of_best():
    train_set = [
        instance([3, 1, 0], [True, False, False]),  # best: v0
        instance([3, 2, 0], [True, False, False]),  # best: v0
        instance([0, 1, 2], [False, False, True]),  # best: v2
    ]
    assert baselines(train_set).iss_topk == (0, 2, 1)


def test_baselines_rank_is_borda():
    train_set = [
        instance([3, 2, 1], [True, False, False]),
        instance([1, 3, 2], [False, True, False]),
    ]
    expected = tuple(borda_ordering([[1, 2, 3], [3, 1, 2]], 3))
    assert baselines(train_set).iss_rank == expected


def test_random_orderings_reproducible():
    one = random_orderings(5, 4, seed=9)
    two = random_orderings(5, 4, seed=9)
    other = random_orderings(5, 4, seed=10)
    assert one == two
    assert one != other


def test_best_verifier_and_ordinal_ranking_tie_rules():
    assert best_verifier([1.0, 3.0, 3.0]) == 1
    assert ordinal_ranking([1.0, 3.0, 3.0]) == [3, 1, 2]


# few distinct values, so that ties are common; NaN included
TIED_SCORES = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan]),
                       min_size=1, max_size=8)


@given(TIED_SCORES)
@example([1.0, math.nan, 2.0])
def test_every_ranking_follows_the_one_ordering(scores):
    order = ordering_from_scores(scores)
    assert sorted(order) == list(range(len(scores)))
    assert best_verifier(scores) == order[0]
    assert ordinal_ranking(scores) == [order.index(i) + 1 for i in range(len(scores))]


def written_out_largest_remainder(total, ratios):
    """Largest-remainder sizes with the tie rule spelled out: the largest
    remainders get one more, ties going to the lower index."""
    quotas = [total * r for r in ratios]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


@given(st.integers(0, 60), st.lists(st.sampled_from([1, 2, 3]), min_size=3, max_size=3))
def test_largest_remainder_matches_the_written_out_rule(total, weights):
    ratios = [w / sum(weights) for w in weights]
    sizes = _largest_remainder(total, ratios)
    assert sizes == written_out_largest_remainder(total, ratios)
    assert sum(sizes) == total


# ---------------------------------------------------------------------------
# plateau schedule


def test_schedule_decays_after_exactly_three_flat_epochs():
    schedule = PlateauSchedule(lr=1e-3)
    decisions = [schedule.observe(5.0) for _ in range(4)]
    assert [d.decayed for d in decisions] == [False, False, False, True]
    assert schedule.lr == pytest.approx(1e-4)


def test_schedule_improvement_resets_counter():
    schedule = PlateauSchedule(lr=1e-3)
    for val in (5.0, 5.0, 5.0, 4.0, 4.0, 4.0):
        decision = schedule.observe(val)
        assert not decision.decayed
    assert schedule.observe(4.0).decayed  # third flat epoch after the reset


def test_schedule_five_decays_reach_floor_then_stop():
    schedule = PlateauSchedule(lr=1e-3)
    decays = 0
    stopped = False
    val = 5.0
    schedule.observe(val)  # first observation sets the best
    for _ in range(100):
        decision = schedule.observe(val)
        decays += decision.decayed
        if decision.stop:
            stopped = True
            break
    assert decays == 5           # 1e-3 -> 1e-8
    assert schedule.lr == pytest.approx(1e-8)
    assert stopped               # the sixth plateau would cross the floor


def test_schedule_strictly_lower_counts_as_improvement():
    schedule = PlateauSchedule(lr=1e-3)
    assert schedule.observe(5.0).improved
    assert not schedule.observe(5.0).improved
    assert schedule.observe(4.999).improved


# ---------------------------------------------------------------------------
# training loop


VOCAB = TokenVocabulary(("Unknown", "A", "B", "C"))


def training_data(num=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(num):
        kinds = [int(rng.integers(0, 4)) for _ in range(4)]
        graph = ProgramGraph(
            f"g{i}", PropertyKind.REACH_SAFETY, kinds,
            {"AST": [(0, 1), (0, 2)], "ICFG": [(1, 2), (2, 3)], "DFG": []},
        )
        labels = [float(v) for v in rng.standard_normal(3)]
        successes = [bool(v > 0) for v in labels]
        out.append(LabeledInstance(graph, labels, successes))
    return out


def small_model(seed=0):
    config = ModelConfig(num_gat_layers=1, gat_width=3, pool_hidden=(4, 2))
    return init_parameters(config, VOCAB, ("v0", "v1", "v2"), seed=seed)


def test_train_rejects_empty_split():
    with pytest.raises(EmptySplit):
        train([], training_data(2), small_model(), TrainConfig(epochs=1))


def test_train_reproducible_per_seed():
    data = training_data(6)
    cfg = TrainConfig(epochs=3, seed=7)
    params_a, hist_a = train(data[:4], data[4:], small_model(), cfg)
    params_b, hist_b = train(data[:4], data[4:], small_model(), cfg)
    assert hist_a.epochs == hist_b.epochs
    for (_, ta), (_, tb) in zip(named(params_a), named(params_b)):
        assert np.array_equal(ta.values, tb.values)


def test_train_history_invariants():
    data = training_data(8)
    cfg = TrainConfig(epochs=6, seed=1)
    _, history = train(data[:6], data[6:], small_model(), cfg)
    lrs = [e.lr for e in history.epochs]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # non-increasing
    for a, b in zip(lrs, lrs[1:]):
        assert b == a or b == pytest.approx(a * 0.1)  # only factor-10 moves
    assert history.stop_reason in ("epoch_cap", "lr_floor")
    assert len(history.epochs) <= cfg.epochs


def test_train_loss_decreases_on_tiny_overfit():
    data = training_data(4, seed=3)
    cfg = TrainConfig(epochs=30, seed=2)
    params, history = train(data, data, small_model(seed=1), cfg)
    assert history.epochs[-1].train_loss < history.epochs[0].train_loss
    result = predict(data[0].graph, params)
    assert len(result.scores) == 3


def test_flat_adam_equals_per_tensor_oracle():
    flat, oracle = small_model(seed=4), small_model(seed=4)
    adam, reference = _AdamState(flat), PerTensorAdam(oracle.trainables())
    rng = np.random.default_rng(8)
    for step in range(50):
        lr = float(10.0 ** rng.uniform(-4, -1))
        for a, b in zip(flat.trainables(), oracle.trainables()):
            a.grad[...] = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)
            b.grad[...] = a.grad
        adam.step(lr)
        reference.step(lr)
        for (name, a), b in zip(named(flat), oracle.trainables()):
            assert np.array_equal(a.values, b.values), (step, name)


def test_adam_step_leaves_a_zero_gradient_trainable_unchanged():
    params, oracle = small_model(seed=9), small_model(seed=9)
    adam, reference = _AdamState(params), PerTensorAdam(oracle.trainables())
    params.zero_grad()
    oracle.zero_grad()
    for a, b in zip(params.trainables()[:-1], oracle.trainables()[:-1]):
        a.grad[...] = b.grad[...] = 1.0
    untouched = params.head[-1].b.values.copy()  # as if no loss reached it
    adam.step(1e-3)
    reference.step(1e-3)
    assert params.head[-1].b.values.tobytes() == untouched.tobytes()
    assert params.vector.tobytes() == oracle.vector.tobytes()


def test_gradients_stay_views_into_the_flat_vector_through_a_training_step():
    params = small_model(seed=3)
    adam = _AdamState(params)
    inst = training_data(1, seed=4)[0]
    for _ in range(2):
        params.zero_grad()
        tz.backward(margin_rank_loss_t(forward_scores(inst.graph, params), inst.labels))
        adam.step(1e-3)
        assert all(np.shares_memory(t.grad, params.grad) for t in params.trainables())
        assert adam.grad is params.grad
    assert np.any(params.grad != 0.0)


def test_train_equals_unprepared_per_tensor_reference_loop():
    data = training_data(8, seed=5)
    cfg = TrainConfig(epochs=3, initial_lr=1e-2, seed=3)
    params, history = train(data[:6], data[6:], small_model(seed=2), cfg)
    want, want_history = reference_train(data[:6], data[6:], small_model(seed=2), cfg)
    assert [(e.train_loss, e.val_loss, e.lr) for e in history.epochs] == want_history
    for (name, a), b in zip(named(params), want.trainables()):
        assert np.array_equal(a.values, b.values), name


@pytest.mark.parametrize("run", [
    lambda params, inst: predict(inst.graph, params),
    lambda params, inst: validation_loss(
        [(prepare_input(inst.graph, params), inst.labels)], params, 1.0),
    lambda params, inst: explain(params, inst.graph, iters=3),
], ids=["predict", "validation_loss", "explain"])
def test_inference_leaves_the_callers_flags_and_grads(run):
    params = small_model(seed=6)
    params.trainables()[0].requires_grad = False  # frozen by the caller
    params.grad.fill(7.0)
    flags = [t.requires_grad for t in params.trainables()]
    grads = [t.grad for t in params.trainables()]
    before = params.vector.copy()
    inst = training_data(1, seed=2)[0]
    run(params, inst)
    run(params, inst)  # the second call reuses the view
    assert [t.requires_grad for t in params.trainables()] == flags
    assert all(t.grad is g for t, g in zip(params.trainables(), grads))
    assert (params.grad == 7.0).all()
    assert np.array_equal(params.vector, before)
    assert not any(t.requires_grad for t in params.frozen.trainables())


# ---------------------------------------------------------------------------
# evaluation report


def test_evaluate_rankings_cross_checks_metrics():
    instances = [
        instance([2.0, 1.0, 0.0], [True, False, False], gid="a"),
        instance([0.0, 1.0, 2.0], [False, True, True],
                 prop=PropertyKind.TERMINATION, gid="b"),
    ]
    results = results_from_orderings([[0, 1, 2], [2, 1, 0]], instances)
    report = evaluate_rankings(results, instances, ks=[1, 2, 3])
    assert report.overall.success_accuracy == 1.0
    assert report.overall.spearman_mean == pytest.approx(1.0)
    assert report.overall.topk_error == {1: 0.0, 2: 0.0, 3: 0.0}
    assert set(report.per_property) == {"ReachSafety", "Termination"}
    text = report.to_text()
    assert "overall" in text and "Termination" in text
    assert canonical_json(report.to_dict()).startswith("{")


def test_results_from_orderings_score_shape():
    instances = [instance([1.0, 0.0, 2.0], [True, False, True])]
    (result,) = results_from_orderings([[2, 0, 1]], instances)
    assert result.ordering == (2, 0, 1)
    assert result.scores == (2.0, 1.0, 3.0)
