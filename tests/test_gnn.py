"""Explicit-edge message-passing baseline: layer-by-layer numpy oracle,
equivariance, and the linear edge recursion of the identity oracle."""

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.tensor import Tape
from particlesim.nn import ModelConfig
from particlesim.gnn import ExplicitEdgeGnn, expand_edge_linear
from particlesim.bench import synthesize_pairs


def relu(x):
    return np.maximum(x, 0.0)


def np_mlp(store, name, x):
    p = store.params()
    h = relu(x @ p[f"{name}.w1"].data + p[f"{name}.b1"].data)
    return h @ p[f"{name}.w2"].data + p[f"{name}.b2"].data


def np_layer_norm(x, gain, shift, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + shift


def practice_cfg(**kw):
    kw.setdefault("backbone", "gnn")
    kw.setdefault("d_in", 5)
    kw.setdefault("d", 8)
    kw.setdefault("heads", 1)
    kw.setdefault("blocks", 2)
    kw.setdefault("mlp_hidden", 12)
    kw.setdefault("precision", "f64")
    return ModelConfig(**kw)


class TestPracticeMode:
    def test_single_layer_numpy_oracle(self):
        cfg = practice_cfg(blocks=1)
        model = ExplicitEdgeGnn(cfg, seed=9)
        rng = np.random.default_rng(10)
        n = 6
        x = rng.standard_normal((n, cfg.d_in))
        recv, send = synthesize_pairs(n, 10, seed=11)
        out = model.forward(x, recv, send).data

        p = model.params()
        v = np_mlp(model.store, "enc_v", x)
        e = np_mlp(model.store, "enc_e", np.concatenate([x[recv], x[send]], axis=1))
        e = np_layer_norm(np_mlp(model.store, "block0.prop_e",
                                 np.concatenate([v[recv], v[send], e], axis=1)),
                          p["block0.ln_e.gain"].data, p["block0.ln_e.shift"].data)
        agg = np.zeros((n, cfg.d))
        np.add.at(agg, recv, e)
        v = np_layer_norm(np_mlp(model.store, "block0.prop_v",
                                 np.concatenate([v, agg], axis=1)),
                          p["block0.ln_v.gain"].data, p["block0.ln_v.shift"].data)
        expect = np_mlp(model.store, "dec", v)
        assert np.allclose(out, expect, atol=1e-12)

    def test_permutation_equivariance(self):
        cfg = practice_cfg()
        model = ExplicitEdgeGnn(cfg, seed=14)
        rng = np.random.default_rng(15)
        n = 7
        x = rng.standard_normal((n, cfg.d_in))
        recv, send = synthesize_pairs(n, 14, seed=16)
        out = model.forward(x, recv, send).data
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        out_p = model.forward(x[perm], inv[recv], inv[send]).data
        assert np.allclose(out_p[inv], out, atol=1e-10)

    def test_gradients_reach_all_parameters(self):
        cfg = practice_cfg(blocks=1)
        model = ExplicitEdgeGnn(cfg, seed=17)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, cfg.d_in))
        recv, send = synthesize_pairs(5, 10, seed=19)
        with Tape() as tape:
            out = model.forward(x, recv, send)
            loss = T.scale(T.reduce_sum(T.square(out)), 1.0)
            T.backward(loss, tape)
        for name, p in model.params().items():
            assert p.grad is not None, f"no gradient for {name}"

    def test_tape_entries_per_forward(self):
        # one fused MLP per encoder, edge and node update and decoder; the
        # edge MLPs take the node rows of each pair as row blocks, so no
        # gather_rows entry keeps an (E, d) copy until the backward
        cfg = ModelConfig(backbone="gnn", d_in=7, d=128, heads=4, blocks=4,
                          mlp_hidden=256, precision="f32")
        model = ExplicitEdgeGnn(cfg, seed=0)
        recv, send = synthesize_pairs(512, 8000, seed=0)
        x = np.random.default_rng(42).standard_normal((512, 7))
        with Tape() as tape:
            model.forward(x, recv, send)
        kinds = [entry.backward_fn.__qualname__.split(".")[0] for entry in tape.entries]
        assert "gather_rows" not in kinds
        per_block = ["mlp", "layer_norm", "segment_sum", "mlp", "layer_norm"]
        assert kinds == ["mlp", "mlp"] + per_block * cfg.blocks + ["mlp"]

    def test_backbone_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExplicitEdgeGnn(ModelConfig(backbone="tie", d=8, heads=1), seed=0)


class TestExpansionOracle:
    def test_zero_memory_keeps_only_current_nodes(self):
        d = 3
        rng = np.random.default_rng(20)
        w0_r, w0_s = rng.standard_normal((2, d, d))
        wr, ws = rng.standard_normal((2, d, d))
        wm = np.zeros((d, d))
        x = rng.standard_normal((4, d))
        v = rng.standard_normal((4, d))
        recv = np.array([0, 2])
        send = np.array([1, 3])
        edges = expand_edge_linear(w0_r, w0_s, [(wr, ws, wm)], x, [v], recv, send)
        assert np.allclose(edges[1], v[recv] @ wr + v[send] @ ws)

    def test_identity_memory_accumulates(self):
        d = 2
        rng = np.random.default_rng(21)
        w0_r, w0_s = rng.standard_normal((2, d, d))
        wr, ws = np.zeros((2, d, d))
        x = rng.standard_normal((3, d))
        recv, send = np.array([0]), np.array([1])
        edges = expand_edge_linear(w0_r, w0_s, [(wr, ws, np.eye(d))], x,
                                   [np.zeros((3, d))], recv, send)
        assert np.allclose(edges[1], edges[0])
