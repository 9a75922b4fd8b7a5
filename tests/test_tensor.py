"""Forward-value oracles for the tensor primitives, tape accounting, and the
checkpoint format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from particlesim import tensor as T
from particlesim.tensor import (Tensor, Tape, ShapeError, ContractError, CheckpointError,
                                DegenerateRowError, save_checkpoint, load_checkpoint)
from particlesim import verify as V
from particlesim.attention import build_model
from particlesim.bench import synthesize_pairs
from particlesim.nn import Mlp, ModelConfig, ParamStore


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for q in range(k):
                acc += float(a[i, q]) * float(b[q, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_fixed_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity_and_annihilator(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((4, 4)))
        assert np.array_equal(T.matmul(a, Tensor(np.eye(4))).data, a.data)
        assert np.array_equal(T.matmul(a, Tensor(np.zeros((4, 4)))).data, np.zeros((4, 4)))

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 5), k=st.integers(1, 5), n=st.integers(1, 5),
           seed=st.integers(0, 10**6))
    def test_matches_triple_loop(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, matmul_triple_loop(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_mixed_precision_rejected(self):
        a = Tensor(np.ones((2, 2)), dtype="f32")
        b = Tensor(np.ones((2, 2)), dtype="f64")
        with pytest.raises(ShapeError):
            T.matmul(a, b)


class TestElementwise:
    def test_add_bias_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))

    def test_arith_values(self):
        a = Tensor([4.0, 9.0])
        b = Tensor([2.0, 3.0])
        assert np.array_equal(T.sub(a, b).data, [2.0, 6.0])
        assert np.array_equal(T.mul(a, b).data, [8.0, 27.0])
        assert np.array_equal(T.div(a, b).data, [2.0, 3.0])
        assert np.array_equal(T.scale(a, 0.5).data, [2.0, 4.5])
        assert np.array_equal(T.square(b).data, [4.0, 9.0])
        assert np.array_equal(T.sqrt(a).data, [2.0, 3.0])
        assert np.array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])
        assert np.array_equal(T.neg(a).data, [-4.0, -9.0])

    def test_clamp_min(self):
        a = Tensor([1e-20, 0.5, -3.0])
        assert np.array_equal(T.clamp_min(a, 1e-10).data, [1e-10, 0.5, 1e-10])


class TestShapes:
    def test_concat_rows_cols_gather(self):
        a = Tensor(np.arange(12.0).reshape(3, 4))
        b = Tensor(np.arange(8.0).reshape(2, 4))
        cat = T.concat([a, b], axis=0)
        assert cat.data.shape == (5, 4)
        assert np.array_equal(T.rows(cat, 3, 5).data, b.data)
        assert np.array_equal(T.cols(a, 1, 3).data, a.data[:, 1:3])
        idx = np.array([2, 0, 2])
        assert np.array_equal(T.gather_rows(a, idx).data, a.data[idx])

    def test_segment_sum(self):
        a = Tensor([[1.0], [2.0], [3.0], [4.0]])
        out = T.segment_sum(a, np.array([0, 0, 2, 2]), 3)
        assert np.array_equal(out.data, [[3.0], [0.0], [7.0]])

    def test_reduce(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert T.reduce_sum(a).item() == 10.0
        assert np.array_equal(T.reduce_sum(a, axis=1).data, [3.0, 7.0])
        assert np.array_equal(T.reduce_mean(a, axis=0).data, [2.0, 3.0])
        assert T.reduce_mean(a).item() == 2.5

    def test_row_col_scaling(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([2.0, 10.0])
        assert np.array_equal(T.scale_rows(m, v).data, [[2.0, 4.0], [30.0, 40.0]])
        assert np.array_equal(T.shift_rows(m, v).data, [[3.0, 4.0], [13.0, 14.0]])
        assert np.array_equal(T.div_rows(m, v).data, [[0.5, 1.0], [0.3, 0.4]])
        assert np.array_equal(T.scale_cols(m, v).data, [[2.0, 20.0], [6.0, 40.0]])

    def test_head_matmul_matches_per_head_product(self):
        rng = np.random.default_rng(3)
        a, w = rng.standard_normal((5, 6)), rng.standard_normal((2, 6))
        with Tape() as tape:
            out = T.head_matmul(Tensor(a), Tensor(w), 3)
        expect = np.concatenate([a[:, 2 * h:2 * h + 2] @ w[:, 2 * h:2 * h + 2]
                                 for h in range(3)], axis=1)
        assert np.array_equal(out.data, expect)
        assert sum(tape.macs_by_scope().values()) == 5 * 6 * 2
        with pytest.raises(ShapeError):
            T.head_matmul(Tensor(a), Tensor(w), 2)


def composed_mlp(xs, w1, b1, w2, b2):
    """The oracle of `T.mlp`: the same perceptron from concat, matmul, add and relu."""
    x = xs[0] if len(xs) == 1 else T.concat(xs, axis=1)
    return T.add(T.matmul(T.relu(T.add(T.matmul(x, w1), b1)), w2), b2)


def mlp_operands(widths, seed, precision="f64", m=9, hid=6, d_out=4, frozen=()):
    """Input blocks of `widths` (those in `frozen` without gradient) and the
    four layer parameters of one perceptron."""
    rng = np.random.default_rng(seed)
    xs = [Tensor(rng.standard_normal((m, w)), precision, requires_grad=k not in frozen)
          for k, w in enumerate(widths)]
    params = [Tensor(rng.standard_normal(shape), precision, requires_grad=True)
              for shape in ((sum(widths), hid), (hid,), (hid, d_out), (d_out,))]
    return xs, params


def run_mlp(fn, xs, params, upstream):
    """Output and the gradients of every input block and parameter (None
    where none flows) of fn(xs, *params), handed `upstream` as the output's
    gradient."""
    for t in xs + params:
        t.grad = None
    with Tape() as tape:
        out = fn(xs, *params)
    out.grad = upstream
    for entry in reversed(tape.entries):
        if entry.out.grad is not None and entry.out.requires_grad:
            entry.backward_fn(entry.out.grad)
    return [out.data] + [t.grad for t in xs + params]


class TestMlp:
    @pytest.mark.parametrize("widths,frozen", [([5], ()), ([3, 4, 2], ()), ([3, 4, 2], (1,))],
                             ids=["one block", "three blocks", "block without gradient"])
    def test_matches_composed_form(self, widths, frozen):
        xs, params = mlp_operands(widths, seed=len(widths) + len(frozen), frozen=frozen)
        # a read-only upstream gradient: no backward may write into it
        upstream = np.random.default_rng(7).standard_normal((9, 4))
        upstream.flags.writeable = False
        fused = run_mlp(T.mlp, xs, params, upstream)
        composed = run_mlp(composed_mlp, xs, params, upstream)
        for k in frozen:
            assert fused[1 + k] is None and composed[1 + k] is None
        for got, want in zip(fused, composed):
            if want is not None:
                assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_rows_with_negative_pre_activation(self):
        xs, params = mlp_operands([3, 4, 2], seed=11)
        params[1].data[:] = -0.5  # b1
        for x in xs:
            x.data[[0, 4]] = 0.0  # rows 0 and 4: every pre-activation is b1
        upstream = np.random.default_rng(12).standard_normal((9, 4))
        fused = run_mlp(T.mlp, xs, params, upstream)
        composed = run_mlp(composed_mlp, xs, params, upstream)
        for got, want in zip(fused, composed):
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
        assert np.array_equal(fused[0][[0, 4]], np.broadcast_to(params[3].data, (2, 4)))
        for gx in fused[1:4]:
            assert not gx[[0, 4]].any()

    def test_single_block_f32_mlp_is_bit_equal_to_the_composed_form(self):
        store = ParamStore("f32", seed=3)
        layer = Mlp(store, "mlp", 7, 32, 16)
        params = [layer.w1, layer.b1, layer.w2, layer.b2]
        x = Tensor(np.random.default_rng(4).standard_normal((50, 7)), "f32", requires_grad=True)
        upstream = np.random.default_rng(5).standard_normal((50, 16)).astype(np.float32)
        fused = run_mlp(lambda xs, *p: layer(xs[0]), [x], params, upstream)
        composed = run_mlp(composed_mlp, [x], params, upstream)
        assert all(got.dtype == np.float32 for got in fused)
        for got, want in zip(fused, composed):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_row_blocks_equal_gathered_blocks_bit_for_bit(self, precision):
        # x is read in three row blocks, y whole and in two: the row sums
        # reach each tensor in the order of gather_rows entries taped first
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((5, 3)), precision, requires_grad=True)
        y = Tensor(rng.standard_normal((9, 4)), precision, requires_grad=True)
        _, params = mlp_operands([3, 4, 3, 4, 3, 4], seed=22, precision=precision)
        recv, send = synthesize_pairs(5, 9, 23)
        idx = [recv, send, rng.integers(0, 5, 9), rng.permutation(9), rng.integers(0, 9, 9)]
        upstream = Tensor(rng.standard_normal((9, 4)), precision)

        def run(blocks):
            for t in [x, y] + params:
                t.grad = None
            with Tape() as tape:
                out = T.mlp(blocks(), *params)
                T.backward(T.reduce_sum(T.mul(out, upstream)), tape)
            return [out.data] + [t.grad for t in [x, y] + params]

        fused = run(lambda: [(x, idx[0]), y, (x, idx[1]), (y, idx[3]), (x, idx[2]),
                             (y, idx[4])])
        composed = run(lambda: [T.gather_rows(x, idx[0]), y, T.gather_rows(x, idx[1]),
                                T.gather_rows(y, idx[3]), T.gather_rows(x, idx[2]),
                                T.gather_rows(y, idx[4])])
        for got, want in zip(fused, composed):
            assert got.dtype == want.dtype == T.DTYPES[precision]
            assert np.array_equal(got, want)

    def test_one_tape_entry_with_the_macs_of_its_two_products(self):
        xs, params = mlp_operands([3, 4, 2], seed=13)
        with Tape() as tape:
            T.mlp(xs, *params)
        assert len(tape.entries) == 1
        assert sum(tape.macs_by_scope().values()) == 9 * 9 * 6 + 9 * 6 * 4

    def test_shape_and_precision_errors(self):
        xs, params = mlp_operands([3, 4], seed=14)
        with pytest.raises(ShapeError):  # blocks 3 + 3 wide against w1's 7 rows
            T.mlp([xs[0], xs[0]], *params)
        with pytest.raises(ShapeError):  # row counts differ
            T.mlp([xs[0], Tensor(np.ones((2, 4)))], *params)
        with pytest.raises(ShapeError):  # b1 of the output width
            T.mlp(xs, params[0], params[3], params[2], params[3])
        with pytest.raises(ShapeError):  # mixed precision
            T.mlp([xs[0], Tensor(xs[1].data, "f32")], *params)
        with pytest.raises(ShapeError):  # a row block of 8 rows beside 9
            T.mlp([xs[0], (xs[1], np.arange(8))], *params)


def add_at_f64(idx, values, n):
    ref = np.zeros((n,) + values.shape[1:])
    np.add.at(ref, idx, values.astype(np.float64))
    return ref


class TestRowSums:
    def test_wide_f32_rows_match_add_at(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 300, size=8000)
        values = rng.standard_normal((8000, 128)).astype(np.float32)
        got = T._row_sums(T._RowSums(idx, 300), values)
        assert got.dtype == np.float32
        # a sequential f32 sum of k terms is off by at most (k - 1) eps sum|v|
        bound = (np.bincount(idx).max() - 1) * np.finfo(np.float32).eps
        assert np.all(np.abs(got - add_at_f64(idx, values, 300))
                      <= bound * add_at_f64(idx, np.abs(values), 300))

    @pytest.mark.parametrize("shape", [(50,), (200,), (1, 4), (64, 3), (40, 2, 5)])
    def test_flat_short_and_3d_inputs_match_add_at(self, shape):
        rng = np.random.default_rng(shape[0])
        idx = rng.integers(0, 7, size=shape[0])
        values = rng.standard_normal(shape)
        got = T._row_sums(T._RowSums(idx, 7), values)
        assert got.shape == (7,) + shape[1:]
        assert np.abs(got - add_at_f64(idx, values, 7)).max() <= 1e-12

    def test_empty_index(self):
        got = T._row_sums(T._RowSums(np.zeros(0, np.int64), 5), np.zeros((0, 3)))
        assert got.shape == (5, 3) and not got.any()

    def test_rows_without_entries_get_zero(self):
        rng = np.random.default_rng(4)
        idx = rng.choice([1, 3, 7], size=40)
        values = rng.standard_normal((40, 6))
        got = T._row_sums(T._RowSums(idx, 10), values)
        assert not got[[0, 2, 4, 5, 6, 8, 9]].any()
        assert np.abs(got - add_at_f64(idx, values, 10)).max() <= 1e-12

    def test_cancelling_f32_sums_add_in_index_order(self):
        # 1e8 + 1 rounds back to 1e8 in f32, so a sequential sum of row 0 drops
        # every 1; a pairwise or blocked sum keeps some of them
        values = np.array([1e8] + [1.0] * 62 + [-1e8] + [3.0] * 20, dtype=np.float32)
        idx = np.r_[np.zeros(64, np.int64), np.full(20, 2)]
        order = np.random.default_rng(5).permutation(idx.size)
        idx, values = idx[order], values[order]
        expect = np.zeros(3, dtype=np.float32)
        for i in range(idx.size):
            expect[idx[i]] += values[i]
        got = T._row_sums(T._RowSums(idx, 3), values)
        assert got.tobytes() == expect.tobytes()


class TestSoftmax:
    def test_masked_vector_example(self):
        logits = Tensor([1.0, 2.0, 3.0])
        out = T.softmax_masked(logits, np.array([True, True, False]))
        e = np.exp([1.0 - 2.0, 0.0])
        expect = e / e.sum()
        assert np.allclose(out.data[:2], expect, atol=1e-15)
        assert out.data[2] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-15

    def test_masked_rowwise(self):
        logits = Tensor(np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 1.0]]))
        mask = np.array([[True, True, False], [True, True, True]])
        out = T.softmax_masked(logits, mask)
        assert np.allclose(out.data[0], [0.5, 0.5, 0.0])
        assert np.allclose(out.data[1], [1 / 3] * 3)

    def test_all_masked_raises(self):
        with pytest.raises(DegenerateRowError):
            T.softmax_masked(Tensor([1.0, 2.0]), np.array([False, False]))
        with pytest.raises(DegenerateRowError):
            T.softmax_masked(Tensor(np.ones((2, 2))),
                             np.array([[True, True], [False, False]]))

    def test_extreme_logits_stable(self):
        out = T.softmax_masked(Tensor([1000.0, 999.0]), np.array([True, True]))
        assert np.isfinite(out.data).all()
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_segment_matches_masked(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(10)
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
        got = T.segment_softmax(Tensor(logits), seg, 4).data
        for s in range(4):
            sel = seg == s
            expect = T.softmax_masked(Tensor(logits[sel]), np.ones(sel.sum(), bool)).data
            assert np.allclose(got[sel], expect, atol=1e-14)

    def test_segment_empty_segment_ok(self):
        out = T.segment_softmax(Tensor([1.0, 2.0]), np.array([0, 2]), 3)
        assert np.allclose(out.data, [1.0, 1.0])


class TestLayerNorm:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        gain = rng.standard_normal(6)
        shift = rng.standard_normal(6)
        got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(shift)).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expect = gain * (x - mu) / np.sqrt(var + T.LAYER_NORM_EPS) + shift
        assert np.allclose(got, expect, atol=1e-14)

    def test_constant_row_is_finite(self):
        out = T.layer_norm(Tensor(np.full((1, 4), 7.0)),
                           Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_single_feature_rejected(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    def test_vector_input_rejected(self):
        with pytest.raises(ShapeError, match="2-D"):
            T.layer_norm(Tensor(np.arange(4.0)), Tensor(np.ones(4)), Tensor(np.zeros(4)))


class TestTape:
    def test_macs_and_scopes(self):
        with Tape() as tape:
            a = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 4)))
            with tape.scope("mm"):
                c = T.matmul(a, b)
            with tape.scope("el"):
                T.mul(c, c)
        by_scope = tape.macs_by_scope()
        assert by_scope["mm"] == 2 * 3 * 4
        assert by_scope["el"] == 8
        assert sum(tape.macs_by_scope().values()) == 32

    def test_backward_ms_by_scope(self):
        with Tape() as tape:
            a = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 4)))
            with tape.scope("mm"):
                c = T.matmul(a, b)
            with tape.scope("el"):
                d = T.mul(c, c)
            loss = T.reduce_sum(d)
            assert set(tape.backward_ms_by_scope().values()) == {0.0}
            T.backward(loss, tape)
        by_scope = tape.backward_ms_by_scope()
        assert set(by_scope) == {"mm", "el", ""}
        assert all(ms > 0.0 for ms in by_scope.values())
        assert sum(by_scope.values()) == pytest.approx(sum(e.backward_ms for e in tape.entries))

    def test_zero_mac_ops(self):
        with Tape() as tape:
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            T.add(a, a)
            T.relu(a)
            T.reduce_sum(a)
            T.concat([a, a], axis=0)
        assert sum(tape.macs_by_scope().values()) == 0

    def test_backward_requires_scalar(self):
        with Tape() as tape:
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            out = T.mul(a, a)
        with pytest.raises(ContractError):
            T.backward(out, tape)

    def test_a_tape_replays_once(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(a, a))
        T.backward(loss, tape)
        with pytest.raises(ContractError, match="already replayed"):
            T.backward(loss, tape)
        assert np.array_equal(a.grad, np.full((2, 2), 2.0))

    def test_accumulating_into_a_shared_first_gradient_leaves_the_other_parent(self):
        # add hands the same upstream array to both parents, and the first
        # gradient of each is kept without a copy
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            T.backward(T.reduce_sum(T.add(a, b)), tape)
        a.accumulate_grad(np.full((2, 2), 2.0))
        assert np.array_equal(a.grad, np.full((2, 2), 3.0))
        assert np.array_equal(b.grad, np.ones((2, 2)))
        assert a.grad.dtype == b.grad.dtype == np.float64
        c = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        for _ in range(2):
            c.accumulate_grad(np.full(3, 0.5))  # f64 gradients into an f32 tensor
            assert c.grad.dtype == np.float32
        assert np.array_equal(c.grad, np.ones(3, dtype=np.float32))

    def test_no_tape_means_no_recording(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.mul(a, a)  # outside any Tape context
        assert out.requires_grad
        assert T.active_tape() is None


def _backbone_run(backbone, normalized=True, n_abstract=0, seed=0):
    """Outputs, parameter gradients and tape of one fwd+bwd of a small model."""
    cfg = ModelConfig(backbone=backbone, d_in=6, d=8, heads=2, blocks=2, mlp_hidden=8,
                      n_abstract=n_abstract, normalized_attention=normalized,
                      precision="f64")
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((12, cfg.d_in))
    recv, send = synthesize_pairs(12, 40, seed)
    ids = np.arange(12) % 2 if n_abstract else None
    with Tape() as tape:
        pred = model.forward(x, recv, send, ids)
        T.backward(T.reduce_sum(T.square(pred)), tape)
    return [pred.data] + [p.grad for p in model.params().values()], tape


def _oracle_run(oracle, seed=0):
    """Output, input gradients and tape of a composed attention oracle whose
    second input also reaches the loss directly, so that its first gradient
    is add's upstream array."""
    recv, send = synthesize_pairs(9, 30, seed)
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.standard_normal((9, 8)), requires_grad=True) for _ in range(3)]
    upstream = Tensor(rng.standard_normal((9, 8)))
    with Tape() as tape:
        out = oracle(*inputs, recv, send, 2)
        T.backward(T.reduce_sum(T.mul(T.add(out, inputs[1]), upstream)), tape)
    return [out.data] + [t.grad for t in inputs], tape


RUNS = {
    "normalized tie": lambda: _backbone_run("tie"),
    "plain tie, abstract rows": lambda: _backbone_run("tie", normalized=False, n_abstract=2),
    "vanilla": lambda: _backbone_run("vanilla"),
    "gnn": lambda: _backbone_run("gnn"),
    "implicit edge oracle": lambda: _oracle_run(V.composed_attention),
    "pair oracle": lambda: _oracle_run(V.composed_pair_attention),
}


class TestGradientOwnership:
    """The reverse pass keeps first gradients without a copy and frees each
    used gradient, so no backward may write into the gradient it is handed."""

    @pytest.mark.parametrize("case", list(RUNS))
    def test_backward_functions_never_write_their_upstream_gradient(self, monkeypatch, case):
        plain, _ = RUNS[case]()
        record = T._record

        def read_only_upstream(out, parents, backward_fn, macs=0):
            def bwd(g):
                view = g.view()
                view.flags.writeable = False
                backward_fn(view)
            return record(out, parents, bwd, macs)

        monkeypatch.setattr(T, "_record", read_only_upstream)
        guarded, _ = RUNS[case]()
        assert len(plain) == len(guarded)
        for x, y in zip(plain, guarded):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("case", ["normalized tie", "vanilla", "gnn"])
    def test_intermediate_gradients_are_freed(self, monkeypatch, case):
        # the replay drops each entry's output and backward function, so the
        # outputs are taken from the tape before it runs
        outs = []
        replay = T.backward

        def taking_outputs(loss, tape):
            outs.extend(entry.out for entry in tape.entries)
            replay(loss, tape)

        monkeypatch.setattr(T, "backward", taking_outputs)
        grads, tape = RUNS[case]()
        assert all(g is not None for g in grads)
        assert len(outs) == len(tape.entries) > 0
        assert all(out.grad is None for out in outs)
        assert all(entry.out is None and entry.backward_fn is None for entry in tape.entries)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "a.w": Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True),
            "b.v": Tensor(rng.standard_normal(7), requires_grad=True),
            "c": Tensor(np.float64(3.25).reshape(()), requires_grad=True),
        }
        man, blob = tmp_path / "m.json", tmp_path / "b.bin"
        save_checkpoint(params, man, blob)
        loaded = load_checkpoint(man, blob)
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].data.dtype == params[k].data.dtype
            assert np.array_equal(loaded[k].data, params[k].data)
            assert loaded[k].data.tobytes() == params[k].data.tobytes()

    def test_blob_size_mismatch(self, tmp_path):
        params = {"w": Tensor(np.ones((2, 2)))}
        man, blob = tmp_path / "m.json", tmp_path / "b.bin"
        save_checkpoint(params, man, blob)
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(IOError):
            load_checkpoint(man, blob)

    def test_flipped_blob_byte_fails_the_digest(self, tmp_path):
        man, blob = tmp_path / "m.json", tmp_path / "b.bin"
        save_checkpoint({"w": Tensor(np.ones((2, 2)))}, man, blob)
        raw = bytearray(blob.read_bytes())
        raw[3] ^= 0x01
        blob.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(man, blob)

    def test_malformed_manifest(self, tmp_path):
        man, blob = tmp_path / "m.json", tmp_path / "b.bin"
        save_checkpoint({"w": Tensor(np.ones((2, 2)))}, man, blob)
        good = man.read_text()
        man.write_text(good[:-5])
        with pytest.raises(CheckpointError, match="not JSON"):
            load_checkpoint(man, blob)
        man.write_text(good.replace('"offset"', '"start"'))
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(man, blob)

    @pytest.mark.parametrize("edit,message", [
        ({"precision": "f16"}, "unknown precision 'f16'"),
        ({"shape": [2, 3]}, "do not hold shape"),
        ({"shape": [3, 2], "nbytes": 48}, "runs past"),
        ({"offset": 40}, "runs past"),
        ({"offset": -8}, "runs past"),
    ])
    def test_manifest_entry_outside_the_blob_names_the_tensor(self, tmp_path, edit, message):
        # the SHA-256 covers the blob only, so a manifest entry can still be wrong
        man, blob = tmp_path / "m.json", tmp_path / "b.bin"
        save_checkpoint({"a": Tensor(np.ones(3)), "w": Tensor(np.ones((2, 2)))}, man, blob)
        manifest = json.loads(man.read_text())
        manifest["tensors"][1].update(edit)
        man.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"'w'.*{message}"):
            load_checkpoint(man, blob)



class TestParamStore:
    def test_head_blocks_are_the_per_head_draws(self):
        joined, separate = ParamStore("f64", seed=4), ParamStore("f64", seed=4)
        w = joined.weight("w", (5, 2), heads=3)
        blocks = [separate.weight(f"w.h{h}", (5, 2)).data for h in range(3)]
        assert w.data.shape == (5, 6)
        assert np.array_equal(w.data, np.concatenate(blocks, axis=1))

    def test_load_names_missing_and_misshapen_parameters(self):
        store = ParamStore("f64", seed=0)
        store.weight("a.w", (2, 3))
        store.weight("b.w", (3, 3))
        with pytest.raises(CheckpointError, match="b.w"):
            store.load({"a.w": Tensor(np.ones((2, 3)))})
        with pytest.raises(CheckpointError, match="a.w"):
            store.load({"a.w": Tensor(np.ones((3, 2))), "b.w": Tensor(np.ones((3, 3)))})
