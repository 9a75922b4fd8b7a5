"""Acceptance gate: the nine end-to-end criteria this package must satisfy.

Each test prints its measured quantity so a failing run shows how far off it
was.  These are intentionally heavier than the unit tests (several minutes
total on one CPU).
"""

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.tensor import Tape
from particlesim.nn import ModelConfig
from particlesim.attention import build_model, attach_abstract_pairs
from particlesim.bench import count_macs, synthesize_pairs, time_iteration
from particlesim.training import (TrainConfig, fit, one_step_eval,
                                  constant_velocity_eval, m3se, mse)
from particlesim.worlds import WorldSpec, generate_dataset
from particlesim import verify as V


def test_1_implicit_edge_exactness():
    """100 random practice TIE models with w_sp tied to w_rp (heads, attention
    variant and abstract rows drawn at random): the pairwise edge recovered
    as r_i + s_j must match the explicit linear edge recursion at every
    depth."""
    worst = V.run_implicit_edge_suite(n_configs=100, seed=0)
    print(f"\n[1] implicit-edge max deviation: {worst:.3e} (limit 1e-10)")
    assert worst <= 1e-10


def test_2_sigma_recovery():
    """1000 random (r, s) pairs, d in {2, 8, 64}: the standard deviation of
    r + s recovered from per-token statistics matches direct computation."""
    worst = V.run_sigma_recovery_suite(n_samples=1000, dims=(2, 8, 64), seed=0)
    print(f"\n[2] sigma recovery max relative error: {worst:.3e} (limit 1e-9)")
    assert worst <= 1e-9


def test_3_full_gradient_check():
    """Every parameter of a 2-block, 2-head, d=16 normalized-attention model
    with 2 abstract particles on 8 particles, against central differences."""
    worst = V.run_gradient_suite(blocks=2, heads=2, d=16, n=8, n_abstract=2, seed=0)
    print(f"\n[3] gradient max relative error: {worst:.3e} (limit 1e-4)")
    assert worst <= 1e-4


def test_4_material_metric():
    """Single-material metric reduces to plain MSE; the two-material hand
    example evaluates to exactly 1.5."""
    rng = np.random.default_rng(0)
    pred = rng.standard_normal((20, 3))
    target = rng.standard_normal((20, 3))
    single = m3se(pred, target, np.zeros(20, dtype=np.int64))
    assert single == pytest.approx(mse(pred, target), rel=1e-12)

    hand_pred = np.array([[1.0, 0.0, 0.0], [np.sqrt(2.0), 0.0, 0.0]])
    hand = m3se(hand_pred, np.zeros((2, 3)), np.array([0, 1]))
    print(f"\n[4] two-material hand example: {hand} (expected 1.5)")
    assert hand == pytest.approx(1.5, abs=1e-12)


def test_5_neighbor_search_equivalence():
    """The sorted cell list equals the O(N^2) scan, order included, on 50
    random configurations up to N=1024 and on the suite's edge cases."""
    ok = V.run_neighbor_suite(n_configs=50, max_n=1024, seed=0)
    print(f"\n[5] neighbor-graph equivalence over 50 configs: {ok}")
    assert ok


def test_6_cost_separation():
    """At N=512, d=128, L=4: token-update MACs identical across pair counts
    E in {2000, 4000, 8000, 16000} while the explicit edge-feature cost
    doubles with E.  Wall-clock ordering is reported but not asserted."""
    e_values = [2000, 4000, 8000, 16000]
    tie_cfg = ModelConfig(backbone="tie", d_in=9, d=128, heads=4, blocks=4,
                          normalized_attention=True, precision="f32")
    gnn_cfg = ModelConfig(backbone="gnn", d_in=9, d=128, heads=4, blocks=4,
                          precision="f32")

    token_update = [count_macs(tie_cfg, 512, e)["token_update"] for e in e_values]
    print(f"\n[6] token-update MACs across E: {token_update}")
    assert len(set(token_update)) == 1

    edge_mlp = [count_macs(gnn_cfg, 512, e)["edge_update"] for e in e_values]
    print(f"[6] explicit edge-update MACs across E: {edge_mlp}")
    for prev, cur in zip(edge_mlp, edge_mlp[1:]):
        assert cur == 2 * prev

    # the analytic counts are trusted because they equal instrumented tallies
    # (one taped forward per E; the forward records all its work inside scopes)
    x = np.random.default_rng(1).standard_normal((512, tie_cfg.d_in)).astype(np.float32)
    for e in (2000, 16000):
        with Tape() as tape:
            build_model(tie_cfg, seed=0).forward(x, *synthesize_pairs(512, e))
        macs = tape.macs_by_scope()
        macs.pop("", None)
        assert count_macs(tie_cfg, 512, e)["total"] == sum(macs.values())

    # soft wall-clock check: report timing growth, do not gate on it
    lo = time_iteration(tie_cfg, 512, 2000, trials=5, warmup=1)
    hi = time_iteration(tie_cfg, 512, 16000, trials=5, warmup=1)
    print(f"[6] tie median wall ms at E=2000: {lo.wall_ms_median:.1f}, "
          f"E=16000: {hi.wall_ms_median:.1f} (soft check)")


@pytest.mark.slow
def test_7_desk_scale_learning():
    """Splash-box world, N=64, T=50, 200 training rollouts: the implicit-edge
    model's one-step material metric must be at most half the
    constant-velocity baseline and no worse than the vanilla transformer
    under an identical budget."""
    from particlesim.training import dataset_norm_stats

    spec = WorldSpec(kind="box_splash", counts=(64,), dt=0.01)
    ds = generate_dataset(spec, 200, 20, 50, seed=0)
    baseline = constant_velocity_eval(ds, max_samples=200, seed=0).m3se_mean

    train_cfg = TrainConfig(lr=0.001, lr_decay=0.7, patience=1, epochs=10,
                            steps_per_epoch=120, batch_size=8, valid_samples=32,
                            seed=0)
    stats = dataset_norm_stats(ds)
    scores = {}
    for backbone in ("tie", "vanilla"):
        cfg = ModelConfig(backbone=backbone, d_in=7, d=64, heads=4, blocks=2,
                          mlp_hidden=128, radius=0.1, precision="f32")
        model = build_model(cfg, seed=0)
        fit(model, ds, train_cfg)
        scores[backbone] = one_step_eval(model, ds, stats, max_samples=200,
                                         seed=0).m3se_mean
    print(f"\n[7] one-step M3SE tie={scores['tie']:.5f} "
          f"vanilla={scores['vanilla']:.5f} baseline={baseline:.5f} "
          f"(tie/baseline={scores['tie'] / baseline:.3f})")
    assert scores["tie"] <= 0.5 * baseline
    assert scores["tie"] <= scores["vanilla"]


def test_8_abstract_particle_contract():
    """Abstract rows connect exactly to their material's particles, receive
    gradient, and the zero-abstract configuration is bit-identical to a model
    without the machinery."""
    ids = np.array([0, 0, 1, 1])
    recv, send = attach_abstract_pairs(np.empty(0, np.int64), np.empty(0, np.int64),
                                       ids, 4, 2)
    got = set(zip(recv.tolist(), send.tolist()))
    expected = {(4, 0), (4, 1), (0, 4), (1, 4), (5, 2), (5, 3), (2, 5), (3, 5)}
    print(f"\n[8] abstract pair set: {sorted(got)}")
    assert got == expected

    # property sweep: token count, pair structure, and N-row output shape
    rng = np.random.default_rng(1)
    for n in (3, 5, 8):
        for k in (1, 2, 3):
            sweep_ids = rng.integers(0, k, size=n)
            sweep_ids[:k] = np.arange(k)  # every material present
            r0, s0 = synthesize_pairs(n, min(2 * n, n * (n - 1)), seed=n * 7 + k)
            r1, s1 = attach_abstract_pairs(r0, s0, sweep_ids, n, k)
            extra = set(zip(r1.tolist(), s1.tolist())) - set(zip(r0.tolist(), s0.tolist()))
            expected_extra = set()
            for a in range(k):
                for i in np.nonzero(sweep_ids == a)[0]:
                    expected_extra.add((n + a, int(i)))
                    expected_extra.add((int(i), n + a))
            assert extra == expected_extra
            cfg = ModelConfig(backbone="tie", d_in=5, d=8, heads=2, blocks=1,
                              mlp_hidden=12, n_abstract=k, precision="f64")
            model = build_model(cfg, seed=k)
            x = rng.standard_normal((n, 5))
            record = {}
            out = model.forward(x, r0, s0, sweep_ids, record=record)
            assert record["v"][0].shape[0] == n + k  # N + N_a tokens
            assert out.data.shape == (n, 3)

    cfg = ModelConfig(backbone="tie", d_in=5, d=8, heads=2, blocks=2,
                      mlp_hidden=12, n_abstract=2, precision="f64")
    model = build_model(cfg, seed=0)
    x = rng.standard_normal((4, 5))
    base_recv, base_send = synthesize_pairs(4, 6, seed=2)
    with Tape() as tape:
        out = model.forward(x, base_recv, base_send, ids)
        T.backward(T.reduce_sum(T.square(out)), tape)
    assert out.data.shape == (4, 3)
    bank_grad = model.params()["abstract_bank"].grad
    assert bank_grad is not None and np.abs(bank_grad).max() > 0

    plain_cfg = ModelConfig(backbone="tie", d_in=5, d=8, heads=2, blocks=2,
                            mlp_hidden=12, n_abstract=0, precision="f64")
    plain = build_model(plain_cfg, seed=0)
    assert "abstract_bank" not in plain.params()
    a = plain.forward(x, base_recv, base_send).data
    b = plain.forward(x, base_recv, base_send, ids).data  # ids must be inert
    assert a.tobytes() == b.tobytes()


@pytest.mark.slow
def test_9_reproducible_training(tmp_path):
    """Two identical seeded double-precision training runs must produce
    byte-identical history files and parameters."""
    spec = WorldSpec(kind="box_splash", counts=(16,))
    ds = generate_dataset(spec, 4, 2, 12, seed=0)
    histories = []
    params = []
    for run in ("a", "b"):
        cfg = ModelConfig(backbone="tie", d_in=7, d=16, heads=2, blocks=1,
                          mlp_hidden=16, radius=0.1, precision="f64")
        model = build_model(cfg, seed=3)
        tc = TrainConfig(epochs=2, steps_per_epoch=8, batch_size=2,
                         valid_samples=4, seed=3)
        out = tmp_path / run
        fit(model, ds, tc, out_dir=out)
        histories.append((out / "history.csv").read_bytes())
        params.append((out / "final.blob.bin").read_bytes())
    same = histories[0] == histories[1] and params[0] == params[1]
    print(f"\n[9] reproducible training: history bytes equal={histories[0] == histories[1]}, "
          f"parameter bytes equal={params[0] == params[1]}")
    assert same
