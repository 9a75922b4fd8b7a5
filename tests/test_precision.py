"""The f32 contract: every backbone run in f32 stays within a stated relative
bound of the same weights run in f64, in its output and in the gradient of
every parameter."""

import dataclasses

import numpy as np
import pytest

from particlesim import tensor as T
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
