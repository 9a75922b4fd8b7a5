"""Attention backbones over the neighbor pair list.

The implicit-edge model keeps three tokens per particle: a state token v, a
receiver token r, and a sender token s.  Each block first updates r and s
per particle (touching every particle exactly once, independent of the pair
count), then runs attention over the pair list where r_i + s_j stands in for
the explicit edge feature.  The normalized variant rescales the score and
value terms by the standard deviation of r_i + s_j, recovered per pair from
per-particle statistics.  Each block runs all heads in one fused tape
primitive over a `tensor.PairIndex` built once per forward:
`tensor.implicit_edge_attention` (normalized) or `r + tensor.pair_attention(q,
s, s)` (plain).

The vanilla backbone is standard masked multi-head attention over state
tokens only, one `tensor.pair_attention(q, k, v)` per block.  Both accept
abstract particles: learnable per-material state tokens appended as extra
rows that attend to every particle of their material.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .nn import OUT_DIM, ModelConfig, ParamStore, Mlp
from .particles import InputError, sample_rows


def attach_abstract_pairs(recv: np.ndarray, send: np.ndarray, material_ids: np.ndarray,
                          n: int, n_abstract: int, samples: int = 1):
    """Extend a pair list with abstract-particle connectivity.

    The n rows are `samples` equal blocks (one per sample of a batch), and
    each block has its own n_abstract abstract rows, all placed after the n
    rows: row r of material k receives from and sends to abstract row
    n + n_abstract * (r // (n / samples)) + k.  No abstract pair connects
    two abstract rows or two samples.  The abstract pairs follow
    the given ones, unsorted: an abstract row's senders ascend, and a
    particle's abstract row is above all n, so a list sorted by (receiver,
    sender) keeps the `tensor.PairIndex` slot layout of its sorted form.
    """
    if n_abstract == 0:
        return recv, send
    if material_ids is None:
        raise InputError("abstract particles need material ids")
    material_ids = np.asarray(material_ids, dtype=np.int64)
    if material_ids.shape[0] != n:
        raise InputError(f"got {material_ids.shape[0]} material ids for {n} particles")
    if material_ids.min() < 0 or material_ids.max() >= n_abstract:
        raise InputError(f"material id out of range [0, {n_abstract})")
    members = np.arange(n, dtype=np.int64)
    owner = n + n_abstract * (members // sample_rows(n, samples)) + material_ids
    return np.concatenate([recv, owner, members]), np.concatenate([send, members, owner])


class _AttentionBase:
    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.store = ParamStore(cfg.precision, seed)
        d, din, hid = cfg.d, cfg.d_in, cfg.mlp_hidden
        self.enc = Mlp(self.store, "enc", din, d, d)
        self.dec = Mlp(self.store, "dec", d, d, OUT_DIM)
        self.w_o = [self.store.weight(f"block{l}.w_o", (d, d)) for l in range(cfg.blocks)]
        self.mlp = [Mlp(self.store, f"block{l}.mlp", d, hid, d) for l in range(cfg.blocks)]
        self.ln_gain = [self.store.ones(f"block{l}.ln.gain", (d,)) for l in range(cfg.blocks)]
        self.ln_shift = [self.store.zeros(f"block{l}.ln.shift", (d,)) for l in range(cfg.blocks)]
        if cfg.n_abstract > 0:
            self.bank = self.store.weight("abstract_bank", (cfg.n_abstract, d))

    def params(self) -> dict[str, Tensor]:
        return self.store.params()

    def load_params(self, values):
        self.store.load(values)

    def _encode(self, x_np: np.ndarray, recv, send, material_ids, samples: int):
        """(v, index, n): the state tokens of the n particle rows (`samples`
        equal blocks, one per sample) with each sample's abstract rows
        appended after them, and the pair index with the abstract pairs
        attached."""
        cfg = self.cfg
        n = np.asarray(x_np).shape[0]
        sample_rows(n, samples)  # the samples must split the rows evenly
        if cfg.n_abstract > 0:
            recv, send = self.extend_pairs(recv, send, material_ids, n, samples)
        x = Tensor(np.asarray(x_np, dtype=T.DTYPES[cfg.precision]))
        with T.scope("encode"):
            v = self.enc(x)
            if cfg.n_abstract > 0:
                v = T.concat([v] + [self.bank] * samples, axis=0)
        return v, T.PairIndex(recv, send, n + cfg.n_abstract * samples), n

    def _post(self, v: Tensor, heads: Tensor, layer: int) -> Tensor:
        """heads: (N', d) attention output, heads as column blocks."""
        h = T.matmul(heads, self.w_o[layer])
        return T.layer_norm(T.add(v, self.mlp[layer](h)),
                            self.ln_gain[layer], self.ln_shift[layer])

    def _decode(self, v: Tensor, n: int) -> Tensor:
        return self.dec(T.rows(v, 0, n) if v.data.shape[0] != n else v)

    def extend_pairs(self, recv, send, material_ids, n, samples: int = 1):
        return attach_abstract_pairs(recv, send, material_ids, n, self.cfg.n_abstract,
                                     samples=samples)


class ImplicitEdgeModel(_AttentionBase):
    """State/receiver/sender token recursion with implicit-edge attention.
    Heads are column blocks of every per-head weight and of the (N', d)
    tokens; the (d_head, d) memory w_m is applied with `T.head_matmul`."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        if cfg.backbone != "tie":
            raise ValueError(f"config backbone is {cfg.backbone!r}, expected 'tie'")
        super().__init__(cfg, seed)
        d, dh, H, L = cfg.d, cfg.d_head, cfg.heads, cfg.blocks
        weight = self.store.weight
        self.w_r0 = weight("init.w_r0", (d, dh), heads=H)
        self.w_s0 = weight("init.w_s0", (d, dh), heads=H)
        self.w_q = [weight(f"block{l}.w_q", (d, dh), heads=H) for l in range(L)]
        self.w_r = [weight(f"block{l}.w_r", (d, dh), heads=H) for l in range(L)]
        self.w_s = [weight(f"block{l}.w_s", (d, dh), heads=H) for l in range(L)]
        self.w_m = [weight(f"block{l}.w_m", (dh, dh), heads=H) for l in range(L)]
        self.w_rp = [weight(f"block{l}.w_rp", (d, d)) for l in range(L)]
        self.w_sp = [weight(f"block{l}.w_sp", (d, d)) for l in range(L)]
        if cfg.normalized_attention:
            self.attn_gain = [self.store.ones(f"block{l}.attn_ln.gain", (d,)) for l in range(L)]
            self.attn_shift = [self.store.zeros(f"block{l}.attn_ln.shift", (d,))
                               for l in range(L)]

    def init_tokens(self, v0: Tensor):
        return T.matmul(v0, self.w_r0), T.matmul(v0, self.w_s0)

    def update_tokens(self, v: Tensor, r_prev: Tensor, s_prev: Tensor, layer: int):
        H = self.cfg.heads
        r = T.add(T.matmul(v, self.w_r[layer]), T.head_matmul(r_prev, self.w_m[layer], H))
        s = T.add(T.matmul(v, self.w_s[layer]), T.head_matmul(s_prev, self.w_m[layer], H))
        return T.matmul(r, self.w_rp[layer]), T.matmul(s, self.w_sp[layer])

    def _attend(self, v: Tensor, r: Tensor, s: Tensor, index: T.PairIndex, layer: int) -> Tensor:
        q = T.matmul(v, self.w_q[layer])
        if not self.cfg.normalized_attention:
            return T.add(r, T.pair_attention(q, s, s, index, self.cfg.heads))
        agg = T.implicit_edge_attention(q, r, s, index, self.cfg.heads)
        return T.add(T.scale_cols(agg, self.attn_gain[layer]), self.attn_shift[layer])

    def forward(self, x_np: np.ndarray, recv: np.ndarray, send: np.ndarray,
                material_ids=None, samples: int = 1, record=None) -> Tensor:
        cfg = self.cfg
        v, index, n = self._encode(x_np, recv, send, material_ids, samples)
        with T.scope("token_update"):
            r, s = self.init_tokens(v)
        if record is not None:  # the tokens entering each block, and the last ones
            record.update(v=[v.data.copy()], r=[r.data.copy()], s=[s.data.copy()])
        for l in range(cfg.blocks):
            with T.scope("token_update"):
                r, s = self.update_tokens(v, r, s, l)
            with T.scope("attention"):
                heads = self._attend(v, r, s, index, l)
            with T.scope("post"):
                v = self._post(v, heads, l)
            if record is not None:
                for name, t in (("v", v), ("r", r), ("s", s)):
                    record[name].append(t.data.copy())
        with T.scope("decode"):
            return self._decode(v, n)


class VanillaTransformer(_AttentionBase):
    """Standard masked multi-head attention over state tokens only; heads
    are column blocks of w_q, w_k and w_v, attended in one
    `T.pair_attention` per block."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        if cfg.backbone != "vanilla":
            raise ValueError(f"config backbone is {cfg.backbone!r}, expected 'vanilla'")
        super().__init__(cfg, seed)
        d, dh, H, L = cfg.d, cfg.d_head, cfg.heads, cfg.blocks
        weight = self.store.weight
        self.w_q = [weight(f"block{l}.w_q", (d, dh), heads=H) for l in range(L)]
        self.w_k = [weight(f"block{l}.w_k", (d, dh), heads=H) for l in range(L)]
        self.w_v = [weight(f"block{l}.w_v", (d, dh), heads=H) for l in range(L)]

    def _attend(self, v: Tensor, index: T.PairIndex, layer: int) -> Tensor:
        q, k, val = (T.matmul(v, w[layer]) for w in (self.w_q, self.w_k, self.w_v))
        return T.pair_attention(q, k, val, index, self.cfg.heads)

    def forward(self, x_np: np.ndarray, recv: np.ndarray, send: np.ndarray,
                material_ids=None, samples: int = 1) -> Tensor:
        cfg = self.cfg
        v, index, n = self._encode(x_np, recv, send, material_ids, samples)
        for l in range(cfg.blocks):
            with T.scope("attention"):
                heads = self._attend(v, index, l)
            with T.scope("post"):
                v = self._post(v, heads, l)
        with T.scope("decode"):
            return self._decode(v, n)


def build_model(cfg: ModelConfig, seed: int = 0):
    if cfg.backbone == "gnn":
        from .gnn import ExplicitEdgeGnn
        return ExplicitEdgeGnn(cfg, seed)
    if cfg.backbone == "vanilla":
        return VanillaTransformer(cfg, seed)
    return ImplicitEdgeModel(cfg, seed)
