"""Implicit-edge and vanilla attention backbones: token recursion oracles,
normalized-attention statistics, abstract-particle connectivity, and
equivariance."""

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.tensor import Tape
from particlesim.nn import ModelConfig
from particlesim.attention import (ImplicitEdgeModel, VanillaTransformer,
                                   attach_abstract_pairs, build_model, SIGMA_FLOOR)
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

    def test_merges_with_base_pairs_sorted(self):
        ids = np.array([0, 0])
        recv, send = attach_abstract_pairs(np.array([0]), np.array([1]), ids, 2, 1)
        keys = list(zip(recv.tolist(), send.tolist()))
        assert keys == sorted(keys)
        assert (0, 1) in keys and (2, 0) in keys and (0, 2) in keys

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
        # without pairs, single-neighbour rows, constant tokens at the floor;
        # pair attention with distinct k and v, and with k = v = s
        assert V.run_attention_suite(["implicit edge"]) <= 1e-10
        assert V.run_attention_suite(["pair", "shared pair"]) <= 1e-10

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


class TestPairIndex:
    def test_receiver_csr(self):
        recv, send = synthesize_pairs(40, 300, seed=43)
        index = T.PairIndex(recv, send, 40)
        assert np.array_equal(np.diff(index.recv_starts), np.bincount(recv, minlength=40))

    def test_tables_cover_every_pair_once(self):
        recv, send = synthesize_pairs(30, 200, seed=44)
        index = T.PairIndex(recv, send, 30)
        got = []
        for b in index.recv_buckets:
            rows = np.broadcast_to(b.rows[:, None], b.valid.shape)
            got += list(zip(rows[b.valid].tolist(), b.senders[b.valid].tolist()))
        assert sorted(got) == sorted(zip(recv.tolist(), send.tolist()))

    @pytest.mark.parametrize("abstract", [False, True])
    def test_sender_plan_holds_each_pair_slot_once_in_pair_order(self, abstract):
        n = 30
        recv, send = synthesize_pairs(n, 200, seed=44)
        if abstract:
            recv, send = attach_abstract_pairs(recv, send, np.zeros(n, np.int64), n, 1,
                                               bidirectional=True)
            n += 1
        index = T.PairIndex(recv, send, n)
        # the pair (in receiver order) held by each padded slot, -1 on padding
        slot_pair = np.full(index.n_slots, -1)
        for b in index.recv_buckets:
            pairs = index.recv_starts[b.rows][:, None] + np.arange(b.valid.shape[1])
            slot_pair[b.lo:b.lo + b.valid.size] = np.where(b.valid, pairs, -1).ravel()
        send = send[np.argsort(recv, kind="stable")]
        seen = {}
        for rows, table, m in index.by_sender.buckets:
            for a, row in enumerate(rows):
                seen[int(row)] = slot_pair[table[a, :sum(mk > a for mk in m)]]
        for j in range(n):
            assert np.array_equal(seen.get(j, []), np.flatnonzero(send == j))

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
        assert sum(table.size for _, table, _ in index.by_sender.buckets) <= 2 * e + n

    def test_bucket_widths(self):
        # powers of two up to 8, multiples of 8 above
        degrees = np.array([0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 24, 25, 40])
        starts = np.concatenate(([0], np.cumsum(degrees)))
        widths = {}
        for rows, pos, valid in T._degree_buckets(starts):
            assert np.array_equal(valid.sum(axis=1), degrees[rows])
            widths.update((int(deg), pos.shape[1]) for deg in degrees[rows])
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
    on one index must equal the same calls on separate indexes, bit for bit."""

    @pytest.mark.parametrize("kernel", [T.implicit_edge_attention, T.pair_attention])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("n_abstract", [0, 2])
    def test_calls_on_one_index_equal_calls_on_separate_indexes(self, kernel, precision,
                                                                n_abstract):
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
                                for x, ix in zip(inputs, indexes)))
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

    def test_backbone_mismatch(self):
        with pytest.raises(ValueError):
            VanillaTransformer(ModelConfig(backbone="tie", d=8, heads=2), seed=0)
        with pytest.raises(ValueError):
            ImplicitEdgeModel(ModelConfig(backbone="vanilla", d=8, heads=2), seed=0)
