"""Implicit-edge and vanilla attention backbones: token recursion oracles,
normalized-attention statistics, abstract-particle connectivity, and
equivariance."""

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.tensor import SIGMA_FLOOR, Tape
from particlesim.nn import ModelConfig
from particlesim.attention import (ImplicitEdgeModel, VanillaTransformer,
                                   attach_abstract_pairs, build_model)
from particlesim import worlds
from particlesim.particles import InputError, build_neighbor_graph
from particlesim.bench import synthesize_pairs
from particlesim import verify as V
from particlesim.verify import sigma_recovered


def relu(x):
    return np.maximum(x, 0.0)


def np_mlp(params, name, x):
    h = relu(x @ params[f"{name}.w1"].data + params[f"{name}.b1"].data)
    return h @ params[f"{name}.w2"].data + params[f"{name}.b2"].data


def np_layer_norm(x, gain, shift, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + shift


def practice_tie(d=4, heads=1, seed=0, normalized=True):
    cfg = ModelConfig(backbone="tie", d_in=d, d=d, heads=heads, blocks=1, mlp_hidden=2 * d,
                      normalized_attention=normalized, precision="f64")
    return ImplicitEdgeModel(cfg, seed=seed)


def softmax_by_receiver(logits, recv, n):
    alpha = np.zeros_like(logits)
    for i in range(n):
        sel = recv == i
        e = np.exp(logits[sel] - logits[sel].max())
        alpha[sel] = e / e.sum()
    return alpha


def np_tie_forward(model, x, recv, send):
    """A one-block TIE forward in numpy, head by head, for either attention
    variant."""
    p = model.params()
    n, dh, H = x.shape[0], model.cfg.d_head, model.cfg.heads

    def head(name, h):  # column block h of a parameter
        return p[name].data[..., h * dh:(h + 1) * dh]

    v = np_mlp(p, "enc", x)
    tokens = {}
    for name in ("r", "s"):
        init = [v @ head(f"init.w_{name}0", h) for h in range(H)]
        update = [v @ head(f"block0.w_{name}", h) + init[h] @ head("block0.w_m", h)
                  for h in range(H)]
        tokens[name] = np.concatenate(update, axis=1) @ p[f"block0.w_{name}p"].data
    heads = []
    for h in range(H):
        rh, sh = (tokens[name][:, h * dh:(h + 1) * dh] for name in ("r", "s"))
        q = v @ head("block0.w_q", h)
        if model.cfg.normalized_attention:
            mu_r, mu_s = rh.mean(1), sh.mean(1)
            rc = rh - mu_r[:, None]
            sc = sh - mu_s[:, None]
            var = ((rh ** 2).sum(1)[recv] / dh + (sh ** 2).sum(1)[send] / dh
                   + 2 * (rh[recv] * sh[send]).sum(1) / dh
                   - (mu_r[recv] + mu_s[send]) ** 2)
            sigma = np.sqrt(np.maximum(var, SIGMA_FLOOR))
            logits = (((q * rc).sum(1)[recv] + (q[recv] * sc[send]).sum(1)) / sigma
                      / np.sqrt(dh))
            value = (rc[recv] + sc[send]) / sigma[:, None]
        else:
            logits = ((q * rh).sum(1)[recv] + (q[recv] * sh[send]).sum(1)) / np.sqrt(dh)
            value = sh[send]
        agg = np.zeros((n, dh))
        np.add.at(agg, recv, softmax_by_receiver(logits, recv, n)[:, None] * value)
        if model.cfg.normalized_attention:
            heads.append(agg * head("block0.attn_ln.gain", h) + head("block0.attn_ln.shift", h))
        else:
            heads.append(rh + agg)
    hcat = np.concatenate(heads, axis=1) @ p["block0.w_o"].data
    v = np_layer_norm(v + np_mlp(p, "block0.mlp", hcat),
                      p["block0.ln.gain"].data, p["block0.ln.shift"].data)
    return np_mlp(p, "dec", v)


def check_forward_against_numpy(normalized, seed):
    cfg = ModelConfig(backbone="tie", d_in=4, d=6, heads=2, blocks=1, mlp_hidden=8,
                      normalized_attention=normalized, precision="f64")
    model = ImplicitEdgeModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((5, 4))
    recv, send = synthesize_pairs(5, 9, seed=seed + 2)
    out = model.forward(x, recv, send).data
    assert np.allclose(out, np_tie_forward(model, x, recv, send), atol=1e-11)


class TestAbstractPairs:
    def test_enumeration_two_materials(self):
        ids = np.array([0, 0, 1, 1])
        recv, send = attach_abstract_pairs(np.empty(0, np.int64), np.empty(0, np.int64),
                                           ids, 4, 2, bidirectional=True)
        got = set(zip(recv.tolist(), send.tolist()))
        assert got == {(4, 0), (4, 1), (0, 4), (1, 4), (5, 2), (5, 3), (2, 5), (3, 5)}

    def test_unidirectional(self):
        ids = np.array([0, 1])
        recv, send = attach_abstract_pairs(np.empty(0, np.int64), np.empty(0, np.int64),
                                           ids, 2, 2, bidirectional=False)
        assert set(zip(recv.tolist(), send.tolist())) == {(2, 0), (3, 1)}

    @pytest.mark.parametrize("samples", [1, 4])
    def test_unsorted_pairs_keep_the_slot_layout_of_their_sorted_form(self, samples):
        # a batch of samples of 12 rows, pairs sorted by (receiver, sender)
        # as `training.make_batch` stacks them
        m, n_abstract = 12, 2
        n = m * samples
        base = [synthesize_pairs(m, 40, seed=48 + b) for b in range(samples)]
        recv = np.concatenate([r + b * m for b, (r, _) in enumerate(base)])
        send = np.concatenate([s + b * m for b, (_, s) in enumerate(base)])
        r, s = attach_abstract_pairs(recv, send, np.arange(n) % n_abstract, n, n_abstract,
                                     samples=samples)
        rows = n + n_abstract * samples
        order = np.lexsort((s, r))
        assert not np.array_equal(order, np.arange(r.size))  # the output is unsorted
        assert _layout(T.PairIndex(r, s, rows)) == _layout(T.PairIndex(r[order], s[order], rows))
        sample = np.concatenate([np.arange(n) // m, np.repeat(np.arange(samples), n_abstract)])
        assert np.array_equal(sample[r], sample[s])  # no pair joins two samples

    def test_zero_abstract_is_identity(self):
        r = np.array([0, 1])
        s = np.array([1, 0])
        recv, send = attach_abstract_pairs(r, s, None, 2, 0)
        assert recv is r and send is s

    def test_bad_material_ids(self):
        with pytest.raises(InputError):
            attach_abstract_pairs(np.empty(0, np.int64), np.empty(0, np.int64),
                                  np.array([0, 5]), 2, 2)
        with pytest.raises(InputError):
            attach_abstract_pairs(np.empty(0, np.int64), np.empty(0, np.int64),
                                  np.array([0]), 2, 1)


class TestTokenRecursion:
    def test_init_tokens_linear(self):
        model = practice_tie(d=3, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        r, s = model.init_tokens(T.Tensor(x))
        assert np.allclose(r.data, x @ model.w_r0.data)
        assert np.allclose(s.data, x @ model.w_s0.data)

    def test_update_without_memory(self):
        model = practice_tie(d=3, seed=3)
        model.w_m[0].data[:] = 0.0
        rng = np.random.default_rng(4)
        v = T.Tensor(rng.standard_normal((4, 3)))
        prev = T.Tensor(rng.standard_normal((4, 3)))
        r, s = model.update_tokens(v, prev, prev, 0)
        assert np.allclose(r.data, v.data @ model.w_r[0].data @ model.w_rp[0].data)
        assert np.allclose(s.data, v.data @ model.w_s[0].data @ model.w_sp[0].data)

    def test_update_accumulates_memory(self):
        model = practice_tie(d=3, seed=5)
        rng = np.random.default_rng(6)
        v = T.Tensor(rng.standard_normal((4, 3)))
        rp = T.Tensor(rng.standard_normal((4, 3)))
        sp = T.Tensor(rng.standard_normal((4, 3)))
        r, s = model.update_tokens(v, rp, sp, 0)
        wm = model.w_m[0].data
        assert np.allclose(r.data, (v.data @ model.w_r[0].data + rp.data @ wm)
                           @ model.w_rp[0].data)
        assert np.allclose(s.data, (v.data @ model.w_s[0].data + sp.data @ wm)
                           @ model.w_sp[0].data)

    def test_update_applies_memory_per_head(self):
        # head h of the memory term is column block h of the previous token
        # times column block h of w_m, a (d_head, d_head) map
        cfg = ModelConfig(backbone="tie", d_in=6, d=6, heads=3, blocks=1,
                          mlp_hidden=8, precision="f64")
        model = ImplicitEdgeModel(cfg, seed=7)
        rng = np.random.default_rng(8)
        v, rp, sp = (T.Tensor(rng.standard_normal((4, 6))) for _ in range(3))
        r, s = model.update_tokens(v, rp, sp, 0)
        p = model.params()
        assert p["block0.w_m"].data.shape == (2, 6)
        for name, got, prev in (("r", r, rp), ("s", s, sp)):
            memory = np.concatenate([prev.data[:, 2 * h:2 * h + 2]
                                     @ p["block0.w_m"].data[:, 2 * h:2 * h + 2]
                                     for h in range(3)], axis=1)
            expect = (v.data @ p[f"block0.w_{name}"].data + memory) @ p[f"block0.w_{name}p"].data
            assert np.allclose(got.data, expect, atol=1e-13)


class TestPlainAttention:
    def test_single_block_closed_form(self):
        check_forward_against_numpy(normalized=False, seed=7)

    def test_single_neighbor_weight_is_one(self):
        # with one neighbor each, the attended update is exactly r_i + s_j
        model = practice_tie(d=6, heads=2, seed=10, normalized=False)
        rng = np.random.default_rng(11)
        v, r, s = (T.Tensor(rng.standard_normal((3, 6))) for _ in range(3))
        send = np.array([1, 2, 0])
        out = model._attend(v, r, s, T.PairIndex(np.arange(3), send, 3), 0)
        assert np.allclose(out.data, r.data + s.data[send], atol=1e-12)


class TestImplicitEdgeIdentity:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("n_abstract", [0, 2])
    def test_tied_tokens_reproduce_the_edge_recursion(self, heads, normalized, n_abstract):
        dev = V.implicit_edge_deviation(8, 3, 12, 50, heads, normalized, n_abstract)
        assert dev <= 1e-10

    @pytest.mark.parametrize("heads", [1, 4])
    def test_untied_sender_projection_breaks_it(self, heads):
        # negative control: the oracle can fail on the practice model
        for seed in range(3):
            dev = V.implicit_edge_deviation(8, 2, 12, seed, heads, tied=False)
            assert dev > 1e-3


class TestNormalizedAttention:
    def test_sigma_example_d2(self):
        assert sigma_recovered(np.array([1.0, -1.0]), np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_sigma_matches_direct_std(self):
        rng = np.random.default_rng(12)
        for d in (2, 8, 64):
            r, s = rng.standard_normal(d), rng.standard_normal(d)
            assert sigma_recovered(r, s) == pytest.approx(np.std(r + s), rel=1e-12)

    @pytest.mark.parametrize("offset", [1.0, 100.0, 1000.0])
    def test_sigma_f32_large_means(self, offset):
        # |mu| / sigma = offset; the raw-moment form is 13% off at 1000 in f32.
        # (d = 2 is left out: there r_c = -s_c happens often enough that any
        # recovery from per-token statistics cancels, whatever the means.)
        rng = np.random.default_rng(int(offset))
        for d in (8, 16, 64):
            for _ in range(100):
                r = (offset * rng.choice([-1, 1]) + rng.standard_normal(d)).astype(np.float32)
                s = (offset * rng.choice([-1, 1]) + rng.standard_normal(d)).astype(np.float32)
                direct = np.std(r.astype(np.float64) + s.astype(np.float64))
                assert abs(sigma_recovered(r, s) - direct) <= 1e-5 * direct

    @pytest.mark.parametrize("offset", [1.0, 100.0, 1000.0])
    def test_fused_sigma_f32_large_means(self, offset):
        # one pair per receiver: each head of the output is (r_c + s_c) / sigma,
        # whose RMS is 1 when sigma is the std of the values it divides
        rng = np.random.default_rng(int(offset) + 1)
        n, d, heads = 64, 16, 2
        r, s = (offset + rng.standard_normal((n, d)) for _ in range(2))
        r, s = r.astype(np.float32), s.astype(np.float32)
        send = np.roll(np.arange(n), 1)
        out = T.implicit_edge_attention(
            T.Tensor(np.ones((n, d), np.float32)), T.Tensor(r), T.Tensor(s),
            T.PairIndex(np.arange(n), send, n), heads).data
        rms = np.sqrt((out.astype(np.float64).reshape(n, heads, -1) ** 2).mean(axis=2))
        assert np.abs(rms - 1.0).max() <= 1e-5

    def test_constant_tokens_hit_clamp_and_stay_finite(self):
        cfg = ModelConfig(backbone="tie", d_in=4, d=4, heads=1, blocks=1,
                          mlp_hidden=8, normalized_attention=True, precision="f64")
        model = ImplicitEdgeModel(cfg, seed=13)
        x = np.ones((3, 4))  # identical inputs -> constant r + s per pair
        recv = np.array([0, 1, 2])
        send = np.array([1, 2, 0])
        out = model.forward(x, recv, send)
        assert np.isfinite(out.data).all()

    def test_variance_floor_constant(self):
        assert SIGMA_FLOOR == 1e-10

    def test_normalized_forward_matches_numpy_oracle(self):
        check_forward_against_numpy(normalized=True, seed=14)


class TestFusedAttention:
    def test_matches_composed_oracle(self):
        # n_abstract in {0, 2}, unidirectional abstract pairs, a receiver
        # without pairs, single-neighbour rows, constant tokens at the floor,
        # padded sender tables and a sender table wider than the slot space;
        # pair attention with distinct k and v, and with k = v = s
        assert V.run_attention_suite(["implicit edge"]) <= 1e-10
        assert V.run_attention_suite(["pair", "shared pair"]) <= 1e-10

    def test_suite_pads_every_wide_sender_bucket(self):
        # the suite's padded-sender case: the sender-major backward must zero
        # each table's invalid slots, since padding repeats a valid pair
        pairs = V.padded_sender_pairs()
        assert np.bincount(pairs[1]).tolist() == [1, 2, 3, 5, 8, 9, 16, 17, 25, 39]
        buckets = T.PairIndex(*pairs).send_buckets
        assert all(not b.valid.all() for b in buckets if b.valid.shape[1] > 2)

    def test_suite_pads_an_80_wide_sender_table(self):
        # the suite's second padded-sender case: a sender of degree 79 alone
        # in an 80-wide bucket, whose last column is padding
        pairs = V.padded_sender_pairs(n=80)
        b = T.PairIndex(*pairs).send_buckets[-1]
        assert b.at.shape == (1, 80) and not b.valid[:, -1].any()

    @pytest.mark.parametrize("trained", ["k", "v"])
    def test_pair_attention_with_only_k_or_only_v_trained(self, trained):
        # one sender sum yields dk and dv together; the constant one gets neither
        recv, send = synthesize_pairs(12, 50, seed=51)
        rng = np.random.default_rng(52)
        q, k, v, upstream = (rng.standard_normal((12, 8)) for _ in range(4))
        results = []
        for fused in (True, False):
            tq, tk, tv = (T.Tensor(x.copy(), requires_grad=name in ("q", trained))
                          for name, x in zip("qkv", (q, k, v)))
            with Tape() as tape:
                out = (T.pair_attention(tq, tk, tv, T.PairIndex(recv, send, 12), 2) if fused
                       else V.composed_pair_attention(tq, tk, tv, recv, send, 2))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(upstream))), tape)
            trained_t, constant = (tk, tv) if trained == "k" else (tv, tk)
            assert constant.grad is None
            results.append([out.data, tq.grad, trained_t.grad])
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-10)

    def test_unsorted_pairs_give_the_same_output(self):
        rng = np.random.default_rng(40)
        q, a, b = (T.Tensor(rng.standard_normal((6, 4))) for _ in range(3))
        recv, send = synthesize_pairs(6, 14, seed=41)
        perm = rng.permutation(recv.size)
        for kernel in (T.implicit_edge_attention, T.pair_attention):
            sorted_out = kernel(q, a, b, T.PairIndex(recv, send, 6), 2)
            shuffled = kernel(q, a, b, T.PairIndex(recv[perm], send[perm], 6), 2)
            assert np.allclose(sorted_out.data, shuffled.data, atol=1e-13), kernel.__name__

    def test_shape_errors(self):
        index = T.PairIndex(np.array([0, 1]), np.array([1, 0]), 3)
        q = T.Tensor(np.ones((3, 4)))
        with pytest.raises(T.ShapeError):  # k rows
            T.pair_attention(q, T.Tensor(np.ones((2, 4))), q, index, 2)
        with pytest.raises(T.ShapeError):  # v width
            T.pair_attention(q, q, T.Tensor(np.ones((3, 6))), index, 2)
        with pytest.raises(T.ShapeError):  # 3 heads do not divide d=4
            T.pair_attention(q, q, q, index, 3)
        with pytest.raises(T.ShapeError):  # 3 rows over an index of 4
            T.implicit_edge_attention(q, q, q, T.PairIndex(np.array([0]), np.array([3]), 4), 2)

    def test_tape_entries_per_forward(self):
        # the composed attention recorded 966 entries at this shape, the fused
        # one with per-head weight lists 230
        cfg = ModelConfig(backbone="tie", d_in=7, d=128, heads=4, blocks=4,
                          mlp_hidden=256, precision="f32")
        model = ImplicitEdgeModel(cfg, seed=0)
        recv, send = synthesize_pairs(512, 8000, seed=0)
        x = np.random.default_rng(42).standard_normal((512, 7))
        with Tape() as tape:
            model.forward(x, recv, send)
        assert len(tape.entries) <= 100


def _sides(index, recv, send):
    """(buckets, rows, others) of the receiver side and the sender side."""
    return [(index.recv_buckets, recv, send), (index.send_buckets, send, recv)]


def _slot_pairs(index):
    """(receiver, sender) of each padded slot, -1 on padding, read from the
    receiver buckets, whose runs tile the slot space."""
    ends = np.full((2, index.n_slots), -1)
    for b in index.recv_buckets:
        rows = np.broadcast_to(b.rows[:, None], b.valid.shape)
        ends[:, b.at] = np.where(b.valid, [rows, b.other], -1).reshape(2, -1)
    return ends


def _layout(index):
    """Every table of both sides of a PairIndex, as lists."""
    return [(b.rows.tolist(), b.valid.tolist(), b.other.tolist(),
             b.at.tolist() if isinstance(b.at, np.ndarray) else (b.at.start, b.at.stop))
            for b in index.recv_buckets + index.send_buckets]


class TestPairIndex:
    def test_every_row_once_per_side_with_its_degree(self):
        recv, send = synthesize_pairs(40, 300, seed=43)
        index = T.PairIndex(recv, send, 40)
        for buckets, rows, _ in _sides(index, recv, send):
            deg = np.full(40, -1)
            for b in buckets:
                assert np.all(deg[b.rows] == -1)  # each row in one bucket, once
                deg[b.rows] = b.valid.sum(axis=1)
            deg[deg == -1] = 0  # rows without pairs are left out
            assert np.array_equal(deg, np.bincount(rows, minlength=40))

    def test_every_pair_sits_in_exactly_one_slot(self):
        recv, send = synthesize_pairs(30, 200, seed=44)
        index = T.PairIndex(recv, send, 30)
        ends = _slot_pairs(index)
        want = sorted(zip(recv.tolist(), send.tolist()))
        assert sorted(zip(*ends[:, ends[0] >= 0].tolist())) == want
        # the sender tables name every valid slot once, and their rows and
        # `other` are its sender and receiver
        slots = np.concatenate([b.at[b.valid] for b in index.send_buckets])
        assert np.array_equal(np.sort(slots), np.flatnonzero(ends[0] >= 0))
        for b in index.send_buckets:
            assert np.array_equal(ends[1, b.at[b.valid]],
                                  np.broadcast_to(b.rows[:, None], b.valid.shape)[b.valid])
            assert np.array_equal(ends[0, b.at[b.valid]], b.other[b.valid])

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("abstract", [False, True])
    def test_pairs_keep_list_order_on_both_sides(self, abstract, permuted):
        n = 30
        recv, send = synthesize_pairs(n, 200, seed=46)
        if abstract:
            recv, send = attach_abstract_pairs(recv, send, np.zeros(n, np.int64), n, 1,
                                               bidirectional=True)
            n += 1
        if permuted:
            perm = np.random.default_rng(46).permutation(recv.size)
            recv, send = recv[perm], send[perm]
        index = T.PairIndex(recv, send, n)
        for buckets, rows, others in _sides(index, recv, send):
            for b in buckets:
                for row, other, valid in zip(b.rows, b.other, b.valid):
                    assert np.array_equal(other[valid], others[rows == row])
        ends = _slot_pairs(index)
        for b in index.send_buckets:  # the sender's slots, in the same order
            for row, at, valid in zip(b.rows, b.at, b.valid):
                assert np.array_equal(ends[0, at[valid]], recv[send == row])

    def test_padding_repeats_a_valid_pair(self):
        recv, send = synthesize_pairs(30, 200, seed=47)
        index = T.PairIndex(recv, send, 30)
        ends = _slot_pairs(index)
        for buckets, rows, others in _sides(index, recv, send):
            for b in buckets:
                # each row's pairs fill its first slots, rows in degree order
                deg = b.valid.sum(axis=1)
                assert np.all(np.diff(deg) <= 0)
                assert np.array_equal(b.valid, np.arange(b.valid.shape[1]) < deg[:, None])
                assert np.isin(b.other[~b.valid], others).all()
        for b in index.send_buckets:
            padding = b.at[~b.valid]
            assert np.all(ends[0, padding] >= 0)  # a slot that holds a pair
            assert np.array_equal(ends[0, padding], b.other[~b.valid])

    def test_degree_n_row_does_not_widen_the_others(self):
        n = 1024
        base_recv, base_send = synthesize_pairs(n, 8 * n, seed=45)
        recv, send = attach_abstract_pairs(base_recv, base_send, np.zeros(n, np.int64),
                                           n, 1, bidirectional=True)
        index = T.PairIndex(recv, send, n + 1)
        e = recv.size
        assert np.bincount(recv)[n] == n  # the abstract row hears every particle
        assert np.bincount(send)[n] == n  # and every particle hears it
        assert index.n_slots <= 2 * e + n
        assert sum(b.valid.size for b in index.send_buckets) <= 2 * e + n

    def test_bucket_widths(self):
        # powers of two up to 8, multiples of 8 above, on both sides; rows
        # of degree 0 are left out
        degrees = np.array([0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 24, 25, 40, 3])
        rows = np.repeat(np.arange(degrees.size), degrees)
        others = np.concatenate([np.arange(k) for k in degrees])  # rows 0..39
        for buckets in (T.PairIndex(rows, others, 40).recv_buckets,
                        T.PairIndex(others, rows, 40).send_buckets):
            widths = {}
            for b in buckets:
                assert np.array_equal(b.valid.sum(axis=1), degrees[b.rows])
                widths.update((int(deg), b.valid.shape[1]) for deg in degrees[b.rows])
            assert widths == {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16, 17: 24,
                              24: 24, 25: 32, 40: 40}

    def test_slots_per_pair_on_synthesized_pairs(self):
        recv, send = synthesize_pairs(512, 8000, seed=1)
        index = T.PairIndex(recv, send, 512)
        assert index.n_slots / index.e <= 1.25  # power-of-two buckets: 1.43

    def test_slots_per_pair_on_neighbor_graph(self):
        spec = worlds.WorldSpec(kind="box_splash", counts=(1024,), dt=0.01)
        graph = build_neighbor_graph(worlds.initial_state(spec, 0).positions, 0.1)
        index = T.PairIndex(graph.receivers, graph.senders, 1024)
        assert index.e > 10_000
        assert index.n_slots / index.e <= 1.30  # power-of-two buckets: 1.43


def _kernel_inputs(rng, rows, d, dt):
    return [T.Tensor(rng.standard_normal((rows, d)).astype(dt), requires_grad=True)
            for _ in range(3)]


def _run_kernel(kernel, inputs, index, heads):
    tape = Tape()
    with tape:
        out = kernel(*inputs, index, heads)
    return tape, out


class TestSlotWorkspace:
    """Both kernels share one slot workspace per PairIndex; interleaved calls
    on one index must equal the same calls on separate indexes, bit for bit.
    Beside the gather rows, pair attention keeps two scalars per slot and
    implicit-edge attention one (H, D + 1) to-sender row, whose sender sums
    are gathered into the gather rows."""

    @staticmethod
    def check_calls_on_one_index(kernels, precision, n_abstract):
        dt = T.DTYPES[precision]
        n, d, heads = 40, 8, 2
        recv, send = synthesize_pairs(n, 300, seed=47)
        recv, send = attach_abstract_pairs(recv, send, np.arange(n) % 2 if n_abstract else None,
                                           n, n_abstract)
        rows = n + n_abstract
        rng = np.random.default_rng(48)
        inputs = [_kernel_inputs(rng, rows, d, dt) for _ in range(2)]
        grads = [rng.standard_normal((rows, d)).astype(dt) for _ in range(2)]

        def run(indexes):
            tapes, outs = zip(*(_run_kernel(kernel, x, ix, heads)
                                for kernel, x, ix in zip(kernels, inputs, indexes)))
            for c in (1, 0):  # backwards in reverse order
                tapes[c].entries[-1].backward_fn(grads[c])
            found = [o.data.copy() for o in outs] + [t.grad for x in inputs for t in x]
            for x in inputs:
                for t in x:
                    t.grad = None
            return found

        shared = T.PairIndex(recv, send, rows)
        together = run([shared, shared])
        apart = run([T.PairIndex(recv, send, rows) for _ in range(2)])
        assert len(together) == 8
        for a, b in zip(together, apart):
            assert a.dtype == dt and np.array_equal(a, b)

    @pytest.mark.parametrize("kernel", [T.implicit_edge_attention, T.pair_attention])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("n_abstract", [0, 2])
    def test_calls_on_one_index_equal_calls_on_separate_indexes(self, kernel, precision,
                                                                n_abstract):
        self.check_calls_on_one_index((kernel, kernel), precision, n_abstract)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("n_abstract", [0, 2])
    def test_implicit_edge_and_pair_calls_on_one_index(self, precision, n_abstract):
        # the backwards keep different slot buffers beside the shared gather:
        # (H, D + 1) to-sender rows for implicit-edge, which its sender pass
        # gathers into the gather rows, and (2, H) scalars for pair
        self.check_calls_on_one_index((T.implicit_edge_attention, T.pair_attention),
                                      precision, n_abstract)

    def test_pair_attention_buffers_hold_gather_rows_and_two_scalars_per_slot(self):
        # a (2, H, D) to-sender vector per slot took another 10 MB here
        n, d, heads = 512, 128, 4
        recv, send = synthesize_pairs(n, 8000, seed=0)
        index = T.PairIndex(recv, send, n)
        rng = np.random.default_rng(53)
        tape, _ = _run_kernel(T.pair_attention, _kernel_inputs(rng, n, d, np.float32),
                              index, heads)
        tape.entries[-1].backward_fn(rng.standard_normal((n, d)).astype(np.float32))
        held = sum(buf.nbytes for buf in index._buffers.values())
        assert held <= index.n_slots * (d + 2 * heads) * 4

    def test_implicit_edge_buffers_hold_gather_and_to_sender_rows_only(self):
        # the sender pass gathers each bucket into the gather rows, so a third
        # slot-sized buffer for it would fail this bound
        n, d, heads = 512, 128, 4
        recv, send = synthesize_pairs(n, 8000, seed=0)
        index = T.PairIndex(recv, send, n)
        rng = np.random.default_rng(54)
        tape, _ = _run_kernel(T.implicit_edge_attention, _kernel_inputs(rng, n, d, np.float32),
                              index, heads)
        tape.entries[-1].backward_fn(rng.standard_normal((n, d)).astype(np.float32))
        held = sum(buf.nbytes for buf in index._buffers.values())
        assert held <= index.n_slots * 2 * (d + heads) * 4


class TestNoPairs:
    @pytest.mark.parametrize("backbone", ["tie", "vanilla", "gnn"])
    def test_forward_and_backward_without_pairs(self, backbone):
        cfg = ModelConfig(backbone=backbone, d_in=4, d=8, heads=2, blocks=2, mlp_hidden=8,
                          precision="f64")
        model = build_model(cfg, seed=49)
        empty = np.zeros(0, np.int64)
        with Tape() as tape:
            out = model.forward(np.random.default_rng(50).standard_normal((5, 4)), empty, empty)
            T.backward(T.reduce_sum(T.square(out)), tape)
        assert out.data.shape == (5, 3) and np.isfinite(out.data).all()
        grads = [p.grad for p in model.params().values() if p.grad is not None]
        assert grads and all(np.isfinite(g).all() for g in grads)


class TestVanillaTransformer:
    def test_forward_matches_numpy_oracle(self):
        cfg = ModelConfig(backbone="vanilla", d_in=4, d=6, heads=2, blocks=1,
                          mlp_hidden=8, precision="f64")
        model = VanillaTransformer(cfg, seed=17)
        rng = np.random.default_rng(18)
        n, dh = 5, cfg.d_head
        x = rng.standard_normal((n, 4))
        recv, send = synthesize_pairs(n, 9, seed=19)
        out = model.forward(x, recv, send).data

        p = model.params()
        v = np_mlp(p, "enc", x)
        heads = []
        for h in range(2):
            cols = slice(h * dh, (h + 1) * dh)  # column block h is head h
            q = v @ p["block0.w_q"].data[:, cols]
            k = v @ p["block0.w_k"].data[:, cols]
            val = v @ p["block0.w_v"].data[:, cols]
            logits = (q[recv] * k[send]).sum(1) / np.sqrt(dh)
            alpha = np.zeros_like(logits)
            for i in range(n):
                sel = recv == i
                e = np.exp(logits[sel] - logits[sel].max())
                alpha[sel] = e / e.sum()
            agg = np.zeros((n, dh))
            np.add.at(agg, recv, alpha[:, None] * val[send])
            heads.append(agg)
        hcat = np.concatenate(heads, axis=1) @ p["block0.w_o"].data
        v = np_layer_norm(v + np_mlp(p, "block0.mlp", hcat),
                          p["block0.ln.gain"].data, p["block0.ln.shift"].data)
        expect = np_mlp(p, "dec", v)
        assert np.allclose(out, expect, atol=1e-11)


    def test_tape_entries_per_forward(self):
        # three projections and one fused pair attention per block; the
        # per-head gathers, segment softmax and segment sums recorded 250
        cfg = ModelConfig(backbone="vanilla", d_in=7, d=128, heads=4, blocks=4,
                          mlp_hidden=256, precision="f32")
        model = VanillaTransformer(cfg, seed=0)
        recv, send = synthesize_pairs(512, 8000, seed=0)
        x = np.random.default_rng(42).standard_normal((512, 7))
        with Tape() as tape:
            model.forward(x, recv, send)
        assert len(tape.entries) <= 60


class TestEquivariance:
    @pytest.mark.parametrize("backbone,norm", [("tie", True), ("tie", False),
                                               ("vanilla", True)])
    def test_permutation(self, backbone, norm):
        cfg = ModelConfig(backbone=backbone, d_in=5, d=8, heads=2, blocks=2,
                          mlp_hidden=12, normalized_attention=norm, precision="f64")
        model = build_model(cfg, seed=20)
        rng = np.random.default_rng(21)
        n = 6
        x = rng.standard_normal((n, 5))
        recv, send = synthesize_pairs(n, 12, seed=22)
        out = model.forward(x, recv, send).data
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        out_p = model.forward(x[perm], inv[recv], inv[send]).data
        assert np.allclose(out_p[inv], out, atol=1e-10)


class TestAbstractParticles:
    def make(self, n_abstract, backbone="tie", seed=23):
        cfg = ModelConfig(backbone=backbone, d_in=5, d=8, heads=2, blocks=2,
                          mlp_hidden=12, n_abstract=n_abstract, precision="f64")
        return build_model(cfg, seed=seed)

    def test_output_shape_excludes_abstract_rows(self):
        model = self.make(2)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((6, 5))
        recv, send = synthesize_pairs(6, 10, seed=25)
        ids = np.array([0, 0, 0, 1, 1, 1])
        out = model.forward(x, recv, send, ids)
        assert out.data.shape == (6, 3)

    def test_bank_receives_gradient(self):
        model = self.make(2)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((4, 5))
        recv, send = synthesize_pairs(4, 6, seed=27)
        ids = np.array([0, 0, 1, 1])
        with Tape() as tape:
            out = model.forward(x, recv, send, ids)
            T.backward(T.reduce_sum(T.square(out)), tape)
        assert model.params()["abstract_bank"].grad is not None
        assert np.abs(model.params()["abstract_bank"].grad).max() > 0

    def test_zero_abstract_never_touches_abstract_machinery(self, monkeypatch):
        model = self.make(0)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((5, 5))
        recv, send = synthesize_pairs(5, 8, seed=29)
        baseline = model.forward(x, recv, send).data

        def boom(*a, **k):
            raise AssertionError("abstract path used with n_abstract=0")

        monkeypatch.setattr(type(model), "extend_pairs", boom)
        monkeypatch.setattr("particlesim.attention.attach_abstract_pairs", boom)
        again = model.forward(x, recv, send).data
        assert again.tobytes() == baseline.tobytes()
        assert "abstract_bank" not in model.params()

    @pytest.mark.parametrize("backbone", ["tie", "vanilla"])
    def test_abstract_rows_without_material_ids(self, backbone):
        model = self.make(2, backbone)
        recv, send = synthesize_pairs(4, 6, seed=33)
        with pytest.raises(InputError, match="material ids"):
            model.forward(np.zeros((4, 5)), recv, send)

    def test_abstract_changes_predictions(self):
        with_bank = self.make(2, seed=30)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 5))
        recv, send = synthesize_pairs(4, 6, seed=32)
        ids = np.array([0, 1, 0, 1])
        out_with = with_bank.forward(x, recv, send, ids).data
        with_bank.params()["abstract_bank"].data += 1.0
        out_shift = with_bank.forward(x, recv, send, ids).data
        assert not np.allclose(out_with, out_shift)


class TestConfigValidation:
    def test_heads_must_divide_d(self):
        with pytest.raises(ValueError):
            ModelConfig(backbone="tie", d=10, heads=3)

    @pytest.mark.parametrize("key,value", [("mlp_hidden", 0), ("mlp_hidden", -3),
                                           ("n_abstract", -1), ("radius", 0.0),
                                           ("radius", -0.1)])
    def test_size_out_of_range(self, key, value):
        with pytest.raises(ValueError, match=key):
            ModelConfig(backbone="tie", d=8, heads=2, **{key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_radius(self, value):
        with pytest.raises(ValueError, match="radius must be finite float"):
            ModelConfig(backbone="tie", d=8, heads=2, radius=value)

    def test_backbone_mismatch(self):
        with pytest.raises(ValueError):
            VanillaTransformer(ModelConfig(backbone="tie", d=8, heads=2), seed=0)
        with pytest.raises(ValueError):
            ImplicitEdgeModel(ModelConfig(backbone="vanilla", d=8, heads=2), seed=0)
