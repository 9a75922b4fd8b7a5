"""Gradient checks: every primitive's tape gradient against central finite
differences in float64."""

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.tensor import Tensor, Tape


def finite_diff_check(build, leaves, h=1e-6, tol=1e-7):
    """build(leaf tensors) -> scalar Tensor; compares tape gradients with
    central differences for every leaf element."""
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = build(*leaves)
        T.backward(loss, tape)
    grads = [leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
             for leaf in leaves]
    for leaf, grad in zip(leaves, grads):
        flat = leaf.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build(*leaves).item()
            flat[i] = orig - h
            down = build(*leaves).item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            assert abs(gflat[i] - fd) <= tol * max(1.0, abs(fd)), \
                f"grad {gflat[i]} vs fd {fd} at element {i}"


def leaf(shape, seed, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


def scalarize(t):
    return T.reduce_sum(T.mul(t, t)) if t.data.ndim else t


class TestPrimitiveGradients:
    def test_matmul(self):
        a, b = leaf((3, 4), 0), leaf((4, 2), 1)
        finite_diff_check(lambda a, b: scalarize(T.matmul(a, b)), [a, b])

    def test_add_bias(self):
        a, b = leaf((3, 4), 2), leaf((4,), 3)
        finite_diff_check(lambda a, b: scalarize(T.add(a, b)), [a, b])

    def test_sub_mul_div(self):
        a, b = leaf((2, 3), 4), leaf((2, 3), 5, positive=True)
        finite_diff_check(lambda a, b: scalarize(T.sub(a, b)), [a, b])
        finite_diff_check(lambda a, b: scalarize(T.mul(a, b)), [a, b])
        finite_diff_check(lambda a, b: scalarize(T.div(a, b)), [a, b])

    def test_scale_square_sqrt(self):
        a = leaf((2, 3), 6, positive=True)
        finite_diff_check(lambda a: scalarize(T.scale(a, -1.7)), [a])
        finite_diff_check(lambda a: scalarize(T.square(a)), [a])
        finite_diff_check(lambda a: scalarize(T.sqrt(a)), [a])

    def test_clamp_min_both_regions(self):
        a = Tensor(np.array([[2.0, -3.0, 0.5, -0.25]]), requires_grad=True)
        finite_diff_check(lambda a: scalarize(T.clamp_min(a, 0.1)), [a])

    def test_relu(self):
        a = Tensor(np.array([[1.5, -2.0], [0.3, -0.7]]), requires_grad=True)
        finite_diff_check(lambda a: scalarize(T.relu(a)), [a])

    def test_mlp_over_three_input_blocks(self):
        blocks = [leaf((5, w), 40 + k) for k, w in enumerate((3, 2, 4))]
        params = [leaf((9, 6), 43), leaf((6,), 44), leaf((6, 3), 45), leaf((3,), 46)]
        finite_diff_check(lambda a, b, c, *p: scalarize(T.mlp([a, b, c], *p)), blocks + params)

    def test_mlp_over_row_blocks(self):
        # a (4, 3) tensor read at receivers and senders with repeats, and one
        # plain block of the pair rows
        a, b = leaf((4, 3), 47), leaf((6, 2), 48)
        recv, send = np.array([0, 0, 2, 3, 3, 3]), np.array([1, 2, 0, 0, 2, 1])
        params = [leaf((8, 5), 49), leaf((5,), 50), leaf((5, 3), 51), leaf((3,), 52)]
        finite_diff_check(lambda a, b, *p: scalarize(T.mlp([(a, recv), (a, send), b], *p)),
                          [a, b] + params)

    def test_concat_rows_cols(self):
        a, b = leaf((2, 3), 7), leaf((2, 3), 8)
        finite_diff_check(lambda a, b: scalarize(T.concat([a, b], axis=1)), [a, b])
        finite_diff_check(lambda a, b: scalarize(T.rows(T.concat([a, b], axis=0), 1, 3)), [a, b])
        finite_diff_check(lambda a: scalarize(T.cols(a, 1, 3)), [a])

    def test_gather_rows_with_duplicates(self):
        a = leaf((4, 3), 9)
        idx = np.array([1, 1, 3, 0, 1])
        finite_diff_check(lambda a: scalarize(T.gather_rows(a, idx)), [a])

    def test_segment_sum(self):
        a = leaf((5, 2), 10)
        seg = np.array([0, 2, 2, 1, 0])
        finite_diff_check(lambda a: scalarize(T.segment_sum(a, seg, 3)), [a])

    def test_reductions(self):
        a = leaf((3, 4), 11)
        finite_diff_check(lambda a: T.reduce_sum(a), [a])
        finite_diff_check(lambda a: T.reduce_mean(a), [a])
        finite_diff_check(lambda a: scalarize(T.reduce_sum(a, axis=0)), [a])
        finite_diff_check(lambda a: scalarize(T.reduce_mean(a, axis=1)), [a])

    def test_row_col_scaling(self):
        m, v = leaf((3, 4), 12), leaf((3,), 13, positive=True)
        finite_diff_check(lambda m, v: scalarize(T.scale_rows(m, v)), [m, v])
        finite_diff_check(lambda m, v: scalarize(T.shift_rows(m, v)), [m, v])
        finite_diff_check(lambda m, v: scalarize(T.div_rows(m, v)), [m, v])
        c = leaf((4,), 14, positive=True)
        finite_diff_check(lambda m, c: scalarize(T.scale_cols(m, c)), [m, c])

    def test_softmax_masked(self):
        a = leaf((2, 4), 15)
        mask = np.array([[True, True, False, True], [True, True, True, True]])
        finite_diff_check(lambda a: scalarize(T.softmax_masked(a, mask)), [a])

    def test_segment_softmax(self):
        a = leaf((6,), 16)
        seg = np.array([0, 0, 1, 1, 1, 2])

        def build(a):
            y = T.segment_softmax(a, seg, 3)
            w = Tensor(np.arange(1.0, 7.0))
            return T.reduce_sum(T.mul(y, w))

        finite_diff_check(build, [a])

    PAIRS = T.PairIndex(np.array([0, 0, 0, 1, 3, 3]), np.array([1, 2, 3, 0, 0, 2]),
                        4)  # receiver 2 has no pairs

    def test_implicit_edge_attention(self):
        q, r, s = leaf((4, 6), 16), leaf((4, 6), 17), leaf((4, 6), 18)
        finite_diff_check(lambda q, r, s: scalarize(
            T.implicit_edge_attention(q, r, s, self.PAIRS, 2)), [q, r, s])

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    def test_pair_attention(self, shared):
        q, k, v = leaf((4, 6), 16), leaf((4, 6), 17), leaf((4, 6), 18)
        if shared:  # one tensor as k and v (plain TIE): it takes both roles' gradients
            finite_diff_check(lambda q, s: scalarize(
                T.pair_attention(q, s, s, self.PAIRS, 2)), [q, v])
        else:
            finite_diff_check(lambda q, k, v: scalarize(
                T.pair_attention(q, k, v, self.PAIRS, 2)), [q, k, v])

    def test_head_matmul(self):
        a, w = leaf((3, 6), 19), leaf((2, 6), 20)
        finite_diff_check(lambda a, w: scalarize(T.head_matmul(a, w, 3)), [a, w])

    def test_layer_norm(self):
        x, g, s = leaf((3, 5), 17), leaf((5,), 18), leaf((5,), 19)
        finite_diff_check(lambda x, g, s: scalarize(T.layer_norm(x, g, s)), [x, g, s],
                          tol=1e-6)


class TestGraphBehavior:
    def test_gradient_accumulates_over_reuse(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.add(T.mul(a, a), T.mul(a, a)))
            T.backward(loss, tape)
        assert np.allclose(a.grad, 8.0)  # d/da 2a^2 = 4a

    def test_no_grad_leaf_untouched(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=False)
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(a, b))
            T.backward(loss, tape)
        assert b.grad is None
        assert np.allclose(a.grad, 1.0)

    def test_chained_composition(self):
        # loss = sum(relu(x W + b) W2) — a small MLP fragment
        x = leaf((2, 3), 20)
        w = leaf((3, 4), 21)
        b = leaf((4,), 22)
        w2 = leaf((4, 1), 23)
        finite_diff_check(
            lambda x, w, b, w2: T.reduce_sum(T.matmul(T.relu(T.add(T.matmul(x, w), b)), w2)),
            [x, w, b, w2])
