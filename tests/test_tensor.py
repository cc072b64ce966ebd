import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add,
    elementwise_mul,
    exp,
    gather_rows,
    grad_check,
    leaky_relu,
    log,
    matmul,
    scalar_mul,
    scatter,
    segment_reduce,
    segment_softmax,
    segment_sum,
    slice_rows,
    softmax_rows,
    sub,
    sum_all,
    transpose,
)
from verisel import tensor as T


def rand(rng, r, c, grad=False):
    return T.Tensor(rng.standard_normal((r, c)), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward values


def test_softmax_symmetry():
    out = softmax_rows(T.constant([[0.0, 0.0]]))
    np.testing.assert_allclose(out.values, [[0.5, 0.5]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax_rows(rand(rng, 7, 5))
    np.testing.assert_allclose(out.values.sum(axis=1), np.ones(7), atol=1e-12)


def test_leaky_relu_values():
    out = leaky_relu(T.constant([[-1.0, 2.0]]), slope=0.2)
    np.testing.assert_allclose(out.values, [[-0.2, 2.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 1))
    expected = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    got = matmul(T.constant(a), T.constant(b)).values
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_shape_errors_name_the_primitive():
    with pytest.raises(T.ShapeError, match="matmul"):
        matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))
    with pytest.raises(T.ShapeError, match="add"):
        add(T.constant(np.zeros((2, 3))), T.constant(np.zeros((3, 2))))
    with pytest.raises(T.ShapeError, match="elementwise_mul"):
        elementwise_mul(T.constant(np.zeros((2, 2))), T.constant(np.zeros((1, 2))))
    with pytest.raises(T.ShapeError, match="segments"):
        T.Segments([0, 2, 2], 3)  # segment 1 is empty


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 12) | st.integers(1, 300), min_size=1, max_size=40),
       width=st.sampled_from([1, 2, 32, 64]), strided=st.booleans(),
       permuted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_segment_reduce_equals_the_reduceat_oracle(sizes, width, strided, permuted, seed):
    # segments of 1-300 rows cross numpy's 8-row and 128-row summation
    # blocks, and row counts fall on both sides of T.PLAN_MIN_ROWS
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(len(sizes)), sizes)
    if permuted:
        ids = rng.permutation(ids)
    step = 2 if strided else 1
    values = rng.standard_normal((len(ids), width * step))[:, ::step]
    values *= 10.0 ** rng.integers(-8, 9, values.shape)  # sums that round apart by order
    values[rng.random(values.shape) < 0.2] = -0.0
    values[rng.random(values.shape) < 0.1] = 0.0
    segments = T.Segments(ids, len(sizes))
    for ufunc in (np.add, np.maximum):
        got = segments.reduce(ufunc, values)
        assert got.tobytes() == segment_reduce(segments, ufunc, values).tobytes()


def test_scatter_accumulates_duplicates():
    v = T.constant([[1.0, 2.0, 4.0]])
    out = scatter(v, [0, 1, 0], [1, 0, 1], (2, 2))
    np.testing.assert_allclose(out.values, [[0.0, 5.0], [2.0, 0.0]])


def test_determinism_same_inputs_bit_identical():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    one = softmax_rows(matmul(T.constant(a), T.constant(b))).values
    two = softmax_rows(matmul(T.constant(a), T.constant(b))).values
    assert np.array_equal(one, two)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    T.backward(sum_all(x))
    np.testing.assert_allclose(x.grad, np.ones((2, 2)))


def test_backward_square_gives_2x():
    x = T.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    T.backward(sum_all(elementwise_mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.values)


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(T.NotScalar):
        T.backward(elementwise_mul(x, x))


def test_backward_accumulates_without_reset():
    x = T.Tensor(np.ones((1, 3)), requires_grad=True)
    T.backward(sum_all(x))
    T.backward(sum_all(x))
    np.testing.assert_allclose(x.grad, 2.0 * np.ones((1, 3)))
    x.zero_grad()
    T.backward(sum_all(x))
    np.testing.assert_allclose(x.grad, np.ones((1, 3)))


def test_backward_reused_leaf_sums_paths():
    x = T.Tensor([[3.0]], requires_grad=True)
    T.backward(add(x, x))  # d/dx (x + x) = 2
    np.testing.assert_allclose(x.grad, [[2.0]])


def test_backward_closures_skip_constant_operands():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    col = T.Tensor(np.ones((2, 1)), requires_grad=True)
    c = T.constant(np.full((2, 2), 2.0))
    g = np.ones((2, 2))
    for out, constant_side in (
        (matmul(x, c), 1), (matmul(c, x), 0),
        (elementwise_mul(x, c), 1), (elementwise_mul(c, x), 0),
        (elementwise_mul(x, T.constant(np.ones((2, 1)))), 1),
        (elementwise_mul(c, col), 0),
    ):
        grads = out._backward(g)
        assert grads[constant_side] is None
        assert grads[1 - constant_side] is not None


def test_record_needs_an_input_that_requires_grad():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    c = T.constant(np.ones((2, 2)))
    y = sum_all(c)
    assert not y.requires_grad and y._inputs == () and y._backward is None
    z = add(c, x)
    assert z.requires_grad and z._inputs == (c, x)


# ---------------------------------------------------------------------------
# grad_check on every primitive (randomized shapes)


def _check(op, xs, rng, seed):
    """Gradient-check a weighted sum of op's output with frozen weights."""
    out_shape = op(*xs).shape
    w = T.constant(rng.standard_normal(out_shape))

    def f(*args):
        return sum_all(elementwise_mul(op(*args), w))

    report = grad_check(f, xs, step=1e-5, tolerance=1e-4)
    assert report.passed, f"seed={seed}: {report}"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_grad_check_all_primitives(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 5))
    c = int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))
    a = rand(rng, r, c, grad=True)
    b = rand(rng, r, c, grad=True)
    m = rand(rng, c, k, grad=True)
    row = rand(rng, 1, c, grad=True)
    one = rand(rng, 1, 1, grad=True)
    w = T.constant(rng.standard_normal((r, c)))  # fixed mixing weights

    _check(matmul, [a, m], rng, seed)
    _check(add, [a, b], rng, seed)
    _check(add, [a, row], rng, seed)
    _check(add, [a, one], rng, seed)
    _check(sub, [a, b], rng, seed)
    _check(lambda x: scalar_mul(x, -1.7), [a], rng, seed)
    _check(elementwise_mul, [a, b], rng, seed)
    _check(T.sigmoid, [a], rng, seed)
    _check(lambda x: exp(scalar_mul(x, 0.5)), [a], rng, seed)
    _check(
        lambda x: log(add(elementwise_mul(x, x), T.constant(np.ones(x.shape)))),
        [a], rng, seed,
    )
    _check(softmax_rows, [a], rng, seed)
    _check(sum_all, [a], rng, seed)
    _check(transpose, [a], rng, seed)
    _check(lambda x, y: T.concat_cols([x, y]), [a, b], rng, seed)
    _check(lambda x: slice_rows(x, 0, max(1, r - 1)), [a], rng, seed)
    _check(lambda x: elementwise_mul(w, x), [a], rng, seed)
    _check(elementwise_mul, [a, rand(rng, r, 1, grad=True)], rng, seed)
    # segments of r ids, each present, plus repeats: one row per edge
    ids = np.concatenate([np.arange(r), rng.integers(0, r, int(rng.integers(0, 5)))])
    segments = T.Segments(rng.permutation(ids), r)
    per_edge = rand(rng, len(ids), c, grad=True)
    _check(lambda x: gather_rows(x, segments), [a], rng, seed)
    _check(lambda x: segment_sum(x, segments), [per_edge], rng, seed)
    _check(lambda x: segment_softmax(x, segments), [per_edge], rng, seed)
    # leaky_relu away from the kink
    shifted = T.Tensor(a.values + np.where(a.values >= 0, 0.5, -0.5), requires_grad=True)
    _check(lambda x: leaky_relu(x, 0.2), [shifted], rng, seed)
    # scatter with duplicate positions
    vals = rand(rng, 1, 4, grad=True)
    rows = [int(rng.integers(0, 3)) for _ in range(4)]
    cols = [int(rng.integers(0, 3)) for _ in range(4)]
    _check(lambda v: scatter(v, rows, cols, (3, 3)), [vals], rng, seed)


def test_grad_check_exact_for_sum():
    # a zero matrix keeps the central difference exact in floating point
    x = T.Tensor(np.zeros((3, 3)), requires_grad=True)
    report = grad_check(sum_all, x)
    assert report.max_rel_error == 0.0
    y = T.Tensor(np.random.default_rng(3).standard_normal((3, 3)), requires_grad=True)
    assert grad_check(sum_all, y).max_rel_error < 1e-9


def test_grad_check_constant_function():
    # softmax rows each sum to 1, so the summed output is constant
    x = T.Tensor(np.random.default_rng(4).standard_normal((3, 4)), requires_grad=True)
    report = grad_check(lambda t: sum_all(softmax_rows(t)), x)
    assert report.passed
