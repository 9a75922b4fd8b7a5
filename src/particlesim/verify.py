"""Oracle suites: implicit-edge exactness, sigma recovery, the fused
implicit-edge and pair attention kernels against their composed forms,
gradient checks against central finite differences, and neighbor-graph
equivalence.

Each check returns its worst-case error so callers can assert their own
tolerances; the CLI `verify` subcommand prints one pass/fail line per suite.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor
from .nn import ModelConfig
from .attention import ImplicitEdgeModel, attach_abstract_pairs
from .gnn import expand_edge_linear
from . import particles as P
from .bench import synthesize_pairs
from .training import mse_loss


def implicit_edge_deviation(d: int, blocks: int, n: int, seed: int, heads: int = 1,
                            normalized: bool = False, n_abstract: int = 0,
                            tied: bool = True) -> float:
    """Max |e_ij - (r_i + s_j)| over all pairs, abstract ones included, and
    all depths of one random practice TIE model in f64.  With w_sp tied to
    w_rp = P, r = (v W_r + r' M) P gives r_i + s_j the recursion
    `expand_edge_linear` with blocks (W_r P, W_s P, M P), M the
    block-diagonal memory, from the encoded tokens.  Untied, it does not."""
    cfg = ModelConfig(backbone="tie", d_in=d, d=d, heads=heads, blocks=blocks, mlp_hidden=d,
                      n_abstract=n_abstract, normalized_attention=normalized, precision="f64")
    model = ImplicitEdgeModel(cfg, seed=seed)
    if tied:
        for w_rp, w_sp in zip(model.w_rp, model.w_sp):
            w_sp.data = w_rp.data.copy()
    rng = np.random.default_rng(seed + 7)
    x = rng.standard_normal((n, d))
    ids = rng.integers(0, n_abstract, size=n) if n_abstract else None
    recv, send = synthesize_pairs(n, min(max(2 * n, 4), n * (n - 1)), seed)
    record: dict = {}
    model.forward(x, recv, send, ids, record=record)
    if n_abstract:
        recv, send = model.extend_pairs(recv, send, ids, n)
    dh = cfg.d_head
    block_weights = []
    for l in range(blocks):
        p, wm = model.w_rp[l].data, model.w_m[l].data
        mp = np.concatenate([wm[:, h * dh:(h + 1) * dh] @ p[h * dh:(h + 1) * dh]
                             for h in range(heads)])  # row block h of M P
        block_weights.append((model.w_r[l].data @ p, model.w_s[l].data @ p, mp))
    edges = expand_edge_linear(model.w_r0.data, model.w_s0.data, block_weights,
                               record["v"][0], record["v"][:blocks], recv, send)
    worst = 0.0
    for level in range(blocks + 1):
        implicit = record["r"][level][recv] + record["s"][level][send]
        worst = max(worst, float(np.abs(edges[level] - implicit).max()))
    return worst


def run_implicit_edge_suite(n_configs: int = 100, seed: int = 0) -> float:
    """Worst `implicit_edge_deviation` over random depths, widths, head
    counts, attention variants and abstract rows."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_configs):
        d = int(rng.choice([4, 16]))
        heads = int(rng.choice([1, 2, 4]))
        blocks = int(rng.integers(1, 5))
        n = int(rng.integers(4, 33))
        normalized = bool(rng.integers(2))
        n_abstract = int(rng.choice([0, 2]))
        worst = max(worst, implicit_edge_deviation(d, blocks, n, 1000 + i, heads,
                                                   normalized, n_abstract))
    return worst


def sigma_recovered(r: np.ndarray, s: np.ndarray) -> float:
    """Pair standard deviation recovered from per-token statistics.

    Uses the centred form of `tensor.implicit_edge_attention`,
    (|r_c|^2 + |s_c|^2 + 2 r_c . s_c) / d, in the precision of the tokens.
    The raw-moment form E[r^2] + E[s^2] + 2 E[rs] - (mu_r + mu_s)^2 cancels
    catastrophically in f32 once the token means are large against sigma.
    """
    d = r.shape[0]
    rc = r - r.mean()
    sc = s - s.mean()
    var = (rc @ rc + sc @ sc + 2.0 * (rc @ sc)) / d
    return float(np.sqrt(max(var, 0.0)))


def run_sigma_recovery_suite(n_samples: int = 1000, dims=(2, 8, 64), seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_samples):
        d = int(dims[i % len(dims)])
        r = rng.standard_normal(d)
        s = rng.standard_normal(d)
        direct = float(np.std(r + s))
        rec = sigma_recovered(r, s)
        worst = max(worst, abs(rec - direct) / max(direct, 1e-300))
    return worst


def composed_attention(q: Tensor, r: Tensor, s: Tensor, recv: np.ndarray, send: np.ndarray,
                       heads: int) -> Tensor:
    """Normalized implicit-edge attention composed head by head from tape
    primitives: the oracle of `tensor.implicit_edge_attention` (same
    arguments, with the pair list in place of the index)."""
    n, d = r.data.shape
    dh = d // heads
    outs = []
    for h in range(heads):
        qh, rh, sh = (T.cols(t, h * dh, (h + 1) * dh) for t in (q, r, s))
        rh = T.shift_rows(rh, T.neg(T.reduce_mean(rh, axis=1)))
        sh = T.shift_rows(sh, T.neg(T.reduce_mean(sh, axis=1)))
        rr = T.scale(T.reduce_sum(T.square(rh), axis=1), 1.0 / dh)
        ss = T.scale(T.reduce_sum(T.square(sh), axis=1), 1.0 / dh)
        rs = T.scale(T.reduce_sum(
            T.mul(T.gather_rows(rh, recv), T.gather_rows(sh, send)), axis=1), 2.0 / dh)
        var = T.add(T.add(T.gather_rows(rr, recv), T.gather_rows(ss, send)), rs)
        sigma = T.sqrt(T.clamp_min(var, T.SIGMA_FLOOR))
        qr = T.reduce_sum(T.mul(qh, rh), axis=1)
        qs = T.reduce_sum(T.mul(T.gather_rows(qh, recv), T.gather_rows(sh, send)), axis=1)
        logits = T.div(T.add(T.gather_rows(qr, recv), qs), sigma)
        value = T.div_rows(T.add(T.gather_rows(rh, recv), T.gather_rows(sh, send)), sigma)
        alpha = T.segment_softmax(T.scale(logits, 1.0 / np.sqrt(dh)), recv, n)
        outs.append(T.segment_sum(T.scale_rows(value, alpha), recv, n))
    return T.concat(outs, axis=1)


def composed_pair_attention(q: Tensor, k: Tensor, v: Tensor, recv: np.ndarray,
                            send: np.ndarray, heads: int) -> Tensor:
    """Dot-product attention over a pair list composed head by head from tape
    primitives: the oracle of `tensor.pair_attention` (same arguments, with
    the pair list in place of the index)."""
    n, d = q.data.shape
    dh = d // heads
    outs = []
    for h in range(heads):
        qh, kh, vh = (T.cols(t, h * dh, (h + 1) * dh) for t in (q, k, v))
        logits = T.scale(T.reduce_sum(
            T.mul(T.gather_rows(qh, recv), T.gather_rows(kh, send)), axis=1), 1.0 / np.sqrt(dh))
        alpha = T.segment_softmax(logits, recv, n)
        outs.append(T.segment_sum(T.scale_rows(T.gather_rows(vh, send), alpha), recv, n))
    return T.concat(outs, axis=1)


def _attention_case_pairs(n: int, n_abstract: int, bidirectional: bool, seed: int):
    """A pair list with a receiver without pairs (particle 0 unless abstract
    pairs reach it, else abstract row n + 1), receivers with a single pair,
    and the pairs (2, 3) and (3, 2) between the rows made constant below."""
    recv, send = synthesize_pairs(n, 3 * n, seed)
    pairs = {(i, j) for i, j in zip(recv.tolist(), send.tolist()) if i not in (0, 1)}
    pairs |= {(1, 4), (2, 3), (3, 2)}
    recv, send = (np.array(c, dtype=np.int64) for c in zip(*sorted(pairs)))
    if n_abstract == 0:
        return recv, send, n
    # bidirectional: every particle is of material 0, so abstract row n + 1
    # has no pairs and particle 0 hears only its abstract row
    ids = np.zeros(n, dtype=np.int64) if bidirectional else np.arange(n) % n_abstract
    recv, send = attach_abstract_pairs(recv, send, ids, n, n_abstract, bidirectional)
    return recv, send, n + n_abstract


def attention_deviation(kernel: str, n_abstract: int, bidirectional: bool,
                        heads: int = 2, d: int = 8, n: int = 9, seed: int = 0) -> float:
    """Worst elementwise deviation, relative to max(1, |value|), between a
    fused attention kernel and its composed oracle over the output and the
    gradients of the inputs (q, a, b), in f64.  `kernel` is "implicit edge"
    (r = a, s = b), "pair" (k = a, v = b) or "shared pair" (k = v = b, one
    tensor).  Rows 2 and 3 of a and b hold constant tokens, so the variance
    of their mutual implicit-edge pairs sits at SIGMA_FLOOR."""
    recv, send, rows = _attention_case_pairs(n, n_abstract, bidirectional, seed)
    rng = np.random.default_rng(seed + 11)
    q, a, b = (rng.standard_normal((rows, d)) for _ in range(3))
    a[2:4] = np.repeat(a[2:4, ::d // heads], d // heads, axis=1)
    b[2:4] = np.repeat(b[2:4, ::d // heads], d // heads, axis=1)
    upstream = Tensor(rng.standard_normal((rows, d)))
    kernel_fn, oracle = ((T.implicit_edge_attention, composed_attention)
                         if kernel == "implicit edge" else (T.pair_attention, composed_pair_attention))
    results = []
    for fused in (True, False):
        inputs = [Tensor(x.copy(), requires_grad=True) for x in (q, a, b)]
        tq, ta, tb = inputs
        if kernel == "shared pair":
            ta = tb
        with Tape() as tape:
            out = (kernel_fn(tq, ta, tb, T.PairIndex(recv, send, rows), heads) if fused
                   else oracle(tq, ta, tb, recv, send, heads))
            T.backward(T.reduce_sum(T.mul(out, upstream)), tape)
        grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]
        results.append([out.data] + grads)
    worst = 0.0
    for x, y in zip(*results):
        worst = max(worst, float((np.abs(x - y) / np.maximum(1.0, np.maximum(
            np.abs(x), np.abs(y)))).max()))
    return worst


def run_attention_suite(kernels, seed: int = 0) -> float:
    """Worst `attention_deviation` of `kernels` over no abstract rows,
    bidirectional and unidirectional abstract pairs, and 1 and 2 heads."""
    worst = 0.0
    for i, (n_abstract, bidirectional) in enumerate([(0, True), (2, True), (2, False)]):
        for kernel in kernels:
            for heads in (1, 2):
                worst = max(worst, attention_deviation(
                    kernel, n_abstract, bidirectional, heads=heads, seed=seed + i))
    return worst


def gradient_check(model, x: np.ndarray, recv, send, material_ids,
                   target: np.ndarray, h: float = 1e-5) -> float:
    """Max relative deviation between tape gradients and central differences,
    over every scalar parameter."""
    def loss_value() -> float:
        return mse_loss(model.forward(x, recv, send, material_ids), target).item()

    with Tape() as tape:
        loss = mse_loss(model.forward(x, recv, send, material_ids), target)
        T.backward(loss, tape)
    worst = 0.0
    for name, p in model.params().items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def run_gradient_suite(blocks: int = 2, heads: int = 2, d: int = 16, n: int = 8,
                       n_abstract: int = 2, seed: int = 0) -> float:
    cfg = ModelConfig(backbone="tie", d_in=10, d=d, heads=heads, blocks=blocks,
                      mlp_hidden=2 * d, n_abstract=n_abstract,
                      normalized_attention=True, precision="f64")
    model = ImplicitEdgeModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal((n, cfg.d_in))
    recv, send = synthesize_pairs(n, 3 * n, seed)
    material_ids = rng.integers(0, n_abstract, size=n)
    material_ids[:n_abstract] = np.arange(n_abstract)  # every class non-empty
    target = rng.standard_normal((n, 3))
    return gradient_check(model, x, recv, send, material_ids, target)


def _neighbor_edge_cases(seed: int = 0) -> list[tuple[np.ndarray, float]]:
    """(positions, radius) cases that uniform draws in the unit cube miss."""
    rng = np.random.default_rng(seed)
    cluster = rng.uniform(0.0, 1.0, size=(64, 3))
    outliers = np.array([[1e11, 0.0, 0.0], [1e11, 0.05, 0.0], [-1e11, 1e11, -1e11]])
    return [
        (rng.uniform(-7.0, -5.0, size=(96, 3)) + [0.0, 3.0, -40.0], 0.3),  # negative, off-origin
        (np.repeat(cluster[:16], 4, axis=0), 0.2),  # coincident particles
        (rng.integers(-6, 7, size=(96, 3)) * 0.05, 0.1),  # on cell faces, pairs at exactly r
        (np.concatenate([cluster, outliers]), 0.1),  # 1e12 radii apart: int64 key range
        (np.empty((0, 3)), 0.1),
        (cluster[:1], 0.1),
    ]


def run_neighbor_suite(n_configs: int = 50, max_n: int = 1024, seed: int = 0) -> bool:
    """The cell list equals the O(N^2) scan, order included, on random
    configurations and on `_neighbor_edge_cases`."""
    rng = np.random.default_rng(seed)
    cases = _neighbor_edge_cases(seed)
    for _ in range(n_configs):
        n = int(rng.integers(2, max_n + 1))
        cases.append((rng.uniform(0.0, 1.0, size=(n, 3)), float(rng.uniform(0.02, np.sqrt(3.0)))))
    for p, radius in cases:
        fast = P.cell_list_neighbor_graph(p, radius)
        slow = P.brute_force_neighbor_graph(p, radius)
        if not (np.array_equal(fast.receivers, slow.receivers)
                and np.array_equal(fast.senders, slow.senders)):
            return False
    return True


def run_all(fast: bool = False) -> list[tuple[str, bool, str]]:
    """Run every suite; returns (name, passed, detail) rows."""
    results = []
    dev = run_implicit_edge_suite(n_configs=20 if fast else 100)
    results.append(("implicit-edge identity", dev <= 1e-10, f"max deviation {dev:.3e}"))
    err = run_sigma_recovery_suite(n_samples=300 if fast else 1000)
    results.append(("sigma recovery", err <= 1e-9, f"max relative error {err:.3e}"))
    ferr = run_attention_suite(["implicit edge"])
    results.append(("fused attention", ferr <= 1e-10, f"max relative deviation {ferr:.3e}"))
    perr = run_attention_suite(["pair", "shared pair"])
    results.append(("pair attention", perr <= 1e-10, f"max relative deviation {perr:.3e}"))
    gerr = run_gradient_suite(blocks=1 if fast else 2, d=8 if fast else 16,
                              n=6 if fast else 8)
    results.append(("gradient check", gerr <= 1e-4, f"max relative error {gerr:.3e}"))
    ok = run_neighbor_suite(n_configs=10 if fast else 50, max_n=256 if fast else 1024)
    results.append(("neighbor-graph equivalence", ok, "pair arrays equal" if ok else "mismatch"))
    return results
