"""The f32 contract: every backbone run in f32 stays within a stated relative
bound of the same weights run in f64, in its output and in the gradient of
every parameter; and each fused attention kernel, at the dense benchmark's
shape and on a desk training batch's neighbor graph, stays within a stated
norm-wise bound of its f64 call."""

import dataclasses

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim import training, worlds
from particlesim.tensor import Tape
from particlesim.nn import ModelConfig
from particlesim.attention import build_model
from particlesim.bench import synthesize_pairs
from particlesim.training import mse_loss

# Over these four cases and seeds 0-4 the worst deviation measured is 1.6e-6
# (a GNN gradient); the outputs stay within 6.4e-7.  The bound leaves 60x
# headroom over that.
F32_BOUND = 1e-4


def f32_deviations(backbone, normalized, seed, n=64, e=400, d=32, heads=4, blocks=2):
    """{array name: max |f32 - f64| / max |f64|} over the output and every
    parameter gradient of one fwd+bwd, the f64 model holding the f32 model's
    weights upcast.  Attention backbones carry two abstract rows."""
    n_abstract = 0 if backbone == "gnn" else 2
    cfg = ModelConfig(backbone=backbone, d_in=9, d=d, heads=heads, blocks=blocks,
                      mlp_hidden=2 * d, n_abstract=n_abstract,
                      normalized_attention=normalized, precision="f32")
    m32 = build_model(cfg, seed=seed)
    m64 = build_model(dataclasses.replace(cfg, precision="f64"), seed=seed)
    m64.load_params(m32.params())
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((n, 9)).astype(np.float32)
    target = rng.standard_normal((n, 3)).astype(np.float32)
    ids = rng.integers(0, n_abstract, size=n) if n_abstract else None
    recv, send = synthesize_pairs(n, e, seed)
    runs = []
    for model in (m32, m64):
        with Tape() as tape:
            out = model.forward(x, recv, send, ids)
            T.backward(mse_loss(out, target), tape)
        arrays = {name: p.grad for name, p in model.params().items()}
        arrays["output"] = out.data
        runs.append(arrays)
    low, high = runs
    return {name: float(np.abs(low[name] - high[name]).max() / np.abs(high[name]).max())
            for name in high}


@pytest.mark.parametrize("backbone,normalized", [("tie", True), ("tie", False),
                                                 ("vanilla", True), ("gnn", True)],
                         ids=["tie-normalized", "tie-plain", "vanilla", "gnn"])
@pytest.mark.parametrize("seed", [0, 1])
def test_f32_within_bound_of_f64(backbone, normalized, seed):
    dev = f32_deviations(backbone, normalized, seed)
    worst = max(dev, key=dev.get)
    print(f"\n{backbone} normalized={normalized} seed={seed}: worst {worst} {dev[worst]:.2e}")
    assert dev[worst] <= F32_BOUND, worst


# Kernel level at the dense benchmark's shape (synthesize_pairs(512, 8000),
# d=128, H=4).  The norm-wise f32-against-f64 deviation of the output and of
# each input gradient, over seeds 0-11, reads at most 1.5e-7 for
# pair_attention (2.5 u, u = 2^-24 the f32 unit roundoff; 1.5e-7 too with the
# receiver-major backward) and 2.6e-7 for implicit_edge_attention (4.4 u).
# Each bound is about twice its kernel's reading.
KERNEL_F32_BOUNDS = {"pair_attention": 3e-7, "implicit_edge_attention": 5e-7}


def kernel_f32_deviations(kernel, seed, n=512, e=8000, d=128, heads=4, pairs=None,
                          scale=1.0):
    """[output, grad q, grad k or r, grad v or s]: |f32 - f64| / |f64| in the
    Frobenius norm, the f64 call on the f32 inputs upcast.  The pairs are
    `synthesize_pairs(n, e, seed)` unless `pairs` = (receivers, senders, n)
    is given; the three operands are standard normal times `scale`."""
    recv, send, n = pairs if pairs is not None else (*synthesize_pairs(n, e, seed), n)
    rng = np.random.default_rng(seed + 200)
    inputs = [rng.standard_normal((n, d)).astype(np.float32) for _ in range(4)]
    inputs[:3] = [x * np.float32(scale) for x in inputs[:3]]
    runs = []
    for dt in (np.float32, np.float64):
        operands = [T.Tensor(x.astype(dt), requires_grad=True) for x in inputs[:3]]
        with Tape() as tape:
            out = kernel(*operands, T.PairIndex(recv, send, n), heads)
        tape.entries[-1].backward_fn(inputs[3].astype(dt))
        runs.append([out.data] + [t.grad for t in operands])
    return [float(np.linalg.norm(low - high) / np.linalg.norm(high)) for low, high in zip(*runs)]


@pytest.mark.parametrize("kernel", [T.pair_attention, T.implicit_edge_attention],
                         ids=lambda kernel: kernel.__name__)
@pytest.mark.parametrize("seed", range(6))
def test_kernel_f32_within_bound_at_benchmark_shape(kernel, seed):
    dev = kernel_f32_deviations(kernel, seed)
    print(f"\n{kernel.__name__} seed={seed}: output, dq, dk/dr, dv/ds "
          + " ".join(f"{x:.2e}" for x in dev))
    assert max(dev) <= KERNEL_F32_BOUNDS[kernel.__name__]


# Implicit-edge attention with its operands scaled, at the benchmark shape:
# sigma^2 adds |r_c|^2, |s_c|^2 and 2 r_c . s_c, which grow as the square of
# the scale, and the logit q . s_c, so a layout of the product that mixes
# terms of different magnitudes in one sum loses digits at some scale.  The
# worst deviation over seeds 0-2 read 2.4e-7, 2.5e-7, 8.0e-7 and 6.3e-6 at
# scales 0.01, 0.1, 10 and 100 with sigma^2 summed from separate per-particle
# terms; each bound is about twice its reading.
SCALED_F32_BOUNDS = {0.01: 5e-7, 0.1: 5e-7, 10: 1.6e-6, 100: 1.3e-5}


@pytest.mark.parametrize("scale", sorted(SCALED_F32_BOUNDS))
@pytest.mark.parametrize("seed", range(3))
def test_implicit_edge_f32_within_bound_across_token_scales(scale, seed):
    dev = kernel_f32_deviations(T.implicit_edge_attention, seed, scale=scale)
    print(f"\nimplicit_edge_attention scale={scale} seed={seed}: output, dq, dr, ds "
          + " ".join(f"{x:.2e}" for x in dev))
    assert max(dev) <= SCALED_F32_BOUNDS[scale]


@pytest.fixture(scope="module")
def desk_batch_pairs():
    """(receivers, senders, rows) of one desk-scale training batch: 4
    box_splash N=64 transitions late in their rollouts, where the particles
    have settled and the widest sender tables reach 64 entries."""
    ds = worlds.generate_dataset(worlds.WorldSpec(kind="box_splash", counts=(64,), dt=0.01),
                                 4, 1, 25, seed=1)
    stats = training.dataset_norm_stats(ds)
    x, recv, send, _ = training.make_batch(ds, ds.train, [(b, 20 + b) for b in range(4)],
                                           1, stats, 0.1)
    return recv, send, x.shape[0]


def test_desk_batch_has_wide_padded_sender_tables(desk_batch_pairs):
    buckets = T.PairIndex(*desk_batch_pairs).send_buckets
    assert max(b.valid.shape[1] for b in buckets) == 64
    assert any(not b.valid.all() for b in buckets)


# The desk batch's sender tables are up to 64 wide, against at most 32 on the
# synthesized graph above, so each sender sum adds up more terms
@pytest.mark.parametrize("kernel", [T.pair_attention, T.implicit_edge_attention],
                         ids=lambda kernel: kernel.__name__)
@pytest.mark.parametrize("seed", range(6))
def test_kernel_f32_within_bound_on_desk_batch(kernel, seed, desk_batch_pairs):
    dev = kernel_f32_deviations(kernel, seed, d=64, pairs=desk_batch_pairs)
    print(f"\n{kernel.__name__} desk seed={seed}: output, dq, dk/dr, dv/ds "
          + " ".join(f"{x:.2e}" for x in dev))
    assert max(dev) <= KERNEL_F32_BOUNDS[kernel.__name__]
