"""Explicit-edge message-passing baseline, and the linear edge recursion
that the implicit-edge identity oracle checks the TIE tokens against.

Each round updates edges from (receiver node, sender node, previous edge),
then nodes from the sum of their incoming edges.  `expand_edge_linear` is
the bias-free linear edge update e = v_i W_r + v_j W_s + e' W_m; the TIE
receiver/sender tokens reproduce it pair by pair as r_i + s_j
(`verify.implicit_edge_deviation`).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .nn import OUT_DIM, ModelConfig, ParamStore, Mlp
from .particles import sample_rows


class ExplicitEdgeGnn:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        if cfg.backbone != "gnn":
            raise ValueError(f"config backbone is {cfg.backbone!r}, expected 'gnn'")
        self.cfg = cfg
        self.store = ParamStore(cfg.precision, seed)
        d, din, hid = cfg.d, cfg.d_in, cfg.mlp_hidden
        self.enc_v = Mlp(self.store, "enc_v", din, hid, d)
        self.enc_e = Mlp(self.store, "enc_e", 2 * din, hid, d)
        self.prop_e = [Mlp(self.store, f"block{l}.prop_e", 3 * d, hid, d)
                       for l in range(cfg.blocks)]
        self.prop_v = [Mlp(self.store, f"block{l}.prop_v", 2 * d, hid, d)
                       for l in range(cfg.blocks)]
        self.ln_e_gain = [self.store.ones(f"block{l}.ln_e.gain", (d,)) for l in range(cfg.blocks)]
        self.ln_e_shift = [self.store.zeros(f"block{l}.ln_e.shift", (d,)) for l in range(cfg.blocks)]
        self.ln_v_gain = [self.store.ones(f"block{l}.ln_v.gain", (d,)) for l in range(cfg.blocks)]
        self.ln_v_shift = [self.store.zeros(f"block{l}.ln_v.shift", (d,)) for l in range(cfg.blocks)]
        self.dec = Mlp(self.store, "dec", d, hid, OUT_DIM)

    def params(self) -> dict[str, Tensor]:
        return self.store.params()

    def load_params(self, values):
        self.store.load(values)

    # -- forward -----------------------------------------------------------

    def encode(self, x: Tensor, recv: np.ndarray, send: np.ndarray):
        with T.scope("encode_node"):
            v = self.enc_v(x)
        with T.scope("encode_edge"):
            xi = T.gather_rows(x, recv)
            xj = T.gather_rows(x, send)
            e = self.enc_e([xi, xj])
        return v, e

    def propagate(self, v: Tensor, e: Tensor, recv: np.ndarray, send: np.ndarray,
                  layer: int) -> tuple[Tensor, Tensor]:
        n = v.data.shape[0]
        with T.scope("edge_update"):
            vi = T.gather_rows(v, recv)
            vj = T.gather_rows(v, send)
            e_new = T.layer_norm(self.prop_e[layer]([vi, vj, e]),
                                 self.ln_e_gain[layer], self.ln_e_shift[layer])
        with T.scope("node_update"):
            agg = T.segment_sum(e_new, recv, n)
            v_new = T.layer_norm(self.prop_v[layer]([v, agg]),
                                 self.ln_v_gain[layer], self.ln_v_shift[layer])
        return v_new, e_new

    def forward(self, x_np: np.ndarray, recv: np.ndarray, send: np.ndarray,
                material_ids=None, samples: int = 1) -> Tensor:
        """Predict per-particle velocities (normalized units).  A batch of
        `samples` systems is one disjoint graph, so only the row count and
        the pair list are checked."""
        sample_rows(len(x_np), samples)
        recv, send = T.check_pairs(recv, send, len(x_np))
        x = Tensor(np.asarray(x_np, dtype=T.DTYPES[self.cfg.precision]))
        v, e = self.encode(x, recv, send)
        for l in range(self.cfg.blocks):
            v, e = self.propagate(v, e, recv, send, l)
        with T.scope("decode"):
            return self.dec(v)


def expand_edge_linear(w0_r: np.ndarray, w0_s: np.ndarray,
                       block_weights: list, x: np.ndarray, v_trajectory: list,
                       recv: np.ndarray, send: np.ndarray) -> list:
    """Explicit linear edge recursion (the oracle side of the implicit-edge
    identity).

    block_weights: per layer (W_r, W_s, W_m) square blocks, maps applied on
    the right (row vectors).  x: the node features the first edge is encoded
    from.  v_trajectory: node features entering each layer.
    Returns edge features per depth: element 0 is the encoded edge, element
    l >= 1 the edge after layer l.
    """
    e = x[recv] @ w0_r + x[send] @ w0_s
    out = [e]
    for (wr, ws, wm), v in zip(block_weights, v_trajectory):
        e = v[recv] @ wr + v[send] @ ws + e @ wm
        out.append(e)
    return out
