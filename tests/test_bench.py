"""Cost model: analytic multiply-accumulate counts must equal the
instrumented tape tally, and the scaling structure must separate the
backbones (token updates independent of pair count; explicit edge features
linear in it)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim.attention import build_model
from particlesim.nn import ModelConfig
from particlesim.bench import count_macs, synthesize_pairs, time_iteration


def cfg_for(backbone, normalized=True, d=32, heads=4, blocks=2):
    return ModelConfig(backbone=backbone, d_in=9, d=d, heads=heads, blocks=blocks,
                       mlp_hidden=2 * d, normalized_attention=normalized,
                       precision="f32")


def taped_macs(cfg, n, e, seed=0) -> dict:
    """MACs per tape scope of one taped forward over `synthesize_pairs(n,
    e, seed)`, entries outside any scope left out, and their total."""
    x = np.random.default_rng(seed + 1).standard_normal((n, cfg.d_in))
    recv, send = synthesize_pairs(n, e, seed)
    with T.Tape() as tape:
        build_model(cfg, seed=seed).forward(x.astype(T.DTYPES[cfg.precision]), recv, send)
    phases = tape.macs_by_scope()
    phases.pop("", None)
    phases["total"] = sum(phases.values())
    return phases


class TestSynthesizePairs:
    def test_exact_count_distinct_sorted(self):
        recv, send = synthesize_pairs(10, 40, seed=0)
        assert recv.shape == (40,)
        pairs = list(zip(recv.tolist(), send.tolist()))
        assert len(set(pairs)) == 40
        assert all(i != j for i, j in pairs)
        assert pairs == sorted(pairs)
        assert recv.max() < 10 and send.max() < 10

    def test_full_graph(self):
        recv, send = synthesize_pairs(4, 12, seed=1)
        assert set(zip(recv.tolist(), send.tolist())) == \
               {(i, j) for i in range(4) for j in range(4) if i != j}

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pairs(3, 7, seed=0)


class TestAnalyticEqualsInstrumented:
    @pytest.mark.parametrize("backbone,normalized", [
        ("tie", True), ("tie", False), ("vanilla", True), ("gnn", True),
    ])
    @pytest.mark.parametrize("n,e", [(20, 60), (40, 200), (64, 500)])
    def test_exact_total(self, backbone, normalized, n, e):
        cfg = cfg_for(backbone, normalized)
        analytic = count_macs(cfg, n, e)
        measured = taped_macs(cfg, n, e)
        assert analytic["total"] == measured["total"], \
            f"{backbone}: analytic {analytic} != measured {measured}"

    def test_exact_per_phase(self):
        cfg = cfg_for("tie", True)
        analytic = count_macs(cfg, 30, 120)
        measured = taped_macs(cfg, 30, 120)
        for phase, macs in analytic.items():
            assert measured.get(phase, 0) == macs, f"phase {phase}"

    def test_vanilla_per_phase(self):
        cfg = cfg_for("vanilla")
        analytic = count_macs(cfg, 30, 120)
        measured = taped_macs(cfg, 30, 120)
        for phase, macs in analytic.items():
            assert measured.get(phase, 0) == macs, f"phase {phase}"

    def test_gnn_per_phase(self):
        cfg = cfg_for("gnn")
        analytic = count_macs(cfg, 30, 120)
        measured = taped_macs(cfg, 30, 120)
        for phase, macs in analytic.items():
            assert measured.get(phase, 0) == macs, f"phase {phase}"


class TestScalingStructure:
    def test_token_update_independent_of_pair_count(self):
        cfg = cfg_for("tie")
        counts = [count_macs(cfg, 100, e)["token_update"] for e in (200, 400, 800)]
        assert counts[0] == counts[1] == counts[2]

    def test_attention_linear_in_pair_count(self):
        cfg = cfg_for("tie")
        a = count_macs(cfg, 100, 200)["attention"]
        b = count_macs(cfg, 100, 400)["attention"]
        c = count_macs(cfg, 100, 600)["attention"]
        assert b - a == c - b  # equal increments: affine in e

    def test_gnn_edge_phases_double_with_pairs(self):
        cfg = cfg_for("gnn")
        a = count_macs(cfg, 100, 300)
        b = count_macs(cfg, 100, 600)
        assert b["edge_update"] == 2 * a["edge_update"]
        assert b["encode_edge"] == 2 * a["encode_edge"]
        assert b["node_update"] == a["node_update"]

    def test_tie_per_pair_coefficient_is_head_dim_scale(self):
        # the implicit-edge attention pays O(d) per pair, not O(d^2)
        cfg = cfg_for("tie")
        slope = (count_macs(cfg, 100, 400)["total"] - count_macs(cfg, 100, 200)["total"]) / 200
        assert slope <= cfg.blocks * (4 * cfg.d + 4 * cfg.heads)

    def test_gnn_per_pair_coefficient_is_mlp_scale(self):
        cfg = cfg_for("gnn")
        slope = (count_macs(cfg, 100, 400)["total"] - count_macs(cfg, 100, 200)["total"]) / 200
        assert slope >= cfg.blocks * cfg.d * cfg.mlp_hidden


class TestTiming:
    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            time_iteration(cfg_for("tie"), 10, 20, trials=2)

    def test_profile_fields(self):
        prof_cfg = cfg_for("tie", d=16, heads=2, blocks=1)
        prof = time_iteration(prof_cfg, 12, 30, trials=5, warmup=1)
        assert prof.analytic_macs == prof.measured_macs
        assert prof.wall_ms_median > 0 and prof.wall_ms_iqr >= 0
        assert prof.fwd_ms_median > 0  # of an untaped forward
        assert prof.phase_macs == taped_macs(prof_cfg, 12, 30)
        assert prof.backbone == "tie" and prof.n == 12 and prof.e == 30
        recv, send = synthesize_pairs(12, 30, seed=0)
        index = T.PairIndex(recv, send, 12)
        assert prof.slots_per_pair == index.n_slots / 30
        assert time_iteration(cfg_for("gnn", d=16, heads=2, blocks=1), 12, 30, trials=5,
                              warmup=0).slots_per_pair is None


class TestBenchmarkContract:
    """The traced benchmark run wraps tape primitives by name on the tensor
    module and each backbone's `forward` on its own class."""

    @pytest.fixture(scope="class")
    def tracing(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_primitives_exist(self, tracing):
        missing = [name for name in tracing.PRIMITIVES if not hasattr(T, name)]
        assert not missing

    def test_forwards_defined_on_their_classes(self, tracing):
        for name, cls in tracing.FORWARDS.items():
            assert "forward" in cls.__dict__, name
