"""Analytic multiply-accumulate cost model, instrumented counters, and
wall-clock timing.

Accounting convention: a MAC is one multiply inside a linear-algebra
primitive.  matmul (m,k)x(k,n) costs m*k*n; elementwise mul/div/scale/square
and row/column scaling cost one MAC per output element; layer_norm costs two
per element (inverse-std scaling plus gain); additions, gathers, reductions,
softmaxes, and sqrt cost zero; the fused MLP (`mlp`) counts its two
products, as two matmuls would; the fused attention kernels
(`pair_attention`, `implicit_edge_attention`) count the products their
docstrings list.  The tape tallies the same convention during
a real forward pass, so the analytic formulas must match the instrumented
counts exactly.
"""

from __future__ import annotations

import csv
import os
import resource
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tape
from .nn import OUT_DIM, ModelConfig
from .attention import build_model


@dataclass
class CostProfile:
    backbone: str
    n: int
    e: int
    analytic_macs: int
    measured_macs: int
    phase_macs: dict = field(default_factory=dict)
    wall_ms_median: float = 0.0
    wall_ms_iqr: float = 0.0
    fwd_ms_median: float = 0.0  # median wall time of one untaped forward
    minor_faults: int = 0  # median over trials of the minor page faults of one iteration
    peak_alloc_mb: float = 0.0  # tracemalloc peak of one more, untimed iteration
    # padded slots per pair of the forward's `tensor.PairIndex`; None for the
    # GNN, which builds none
    slots_per_pair: float | None = None


def count_macs(cfg: ModelConfig, n: int, e: int) -> dict:
    """Closed-form forward MAC counts per phase for one model iteration.

    n is the token count (particles plus abstract rows), e the pair count
    after any abstract extension.
    """
    d, dh, H, L, hid, din, out = (cfg.d, cfg.d_head, cfg.heads, cfg.blocks,
                                  cfg.mlp_hidden, cfg.d_in, OUT_DIM)
    phases: dict[str, int] = {}
    if cfg.backbone == "gnn":
        phases["encode_node"] = n * (din * hid + hid * d)
        phases["encode_edge"] = e * (2 * din * hid + hid * d)
        phases["edge_update"] = L * (e * (3 * d * hid + hid * d) + 2 * e * d)
        phases["node_update"] = L * (n * (2 * d * hid + hid * d) + 2 * n * d)
        phases["decode"] = n * (d * hid + hid * out)
    elif cfg.backbone == "vanilla":
        phases["encode"] = n * (din * d + d * d)
        # three projections, then tensor.pair_attention
        phases["attention"] = L * (3 * n * d * d + 2 * e * d + e * H)
        phases["post"] = L * (n * d * d + 2 * n * d * hid + 2 * n * d)
        phases["decode"] = n * (d * d + d * out)
    else:  # tie
        phases["encode"] = n * (din * d + d * d)
        phases["token_update"] = 2 * n * d * d + L * (4 * n * d * d + 2 * n * d * dh)
        # query projection, then tensor.implicit_edge_attention and its gain
        # (normalized) or tensor.pair_attention (plain)
        if cfg.normalized_attention:
            per_block = n * d * d + 5 * n * d + 3 * e * d + 5 * e * H
        else:
            per_block = n * d * d + 2 * e * d + e * H
        phases["attention"] = L * per_block
        phases["post"] = L * (n * d * d + 2 * n * d * hid + 2 * n * d)
        phases["decode"] = n * (d * d + d * out)
    phases["total"] = sum(phases.values())
    return phases


def synthesize_pairs(n: int, e: int, seed: int = 0):
    """Exactly e distinct directed pairs (i, j), i != j, sorted; decouples the
    interaction count from any radius."""
    if e > n * (n - 1):
        raise ValueError(f"cannot draw {e} distinct pairs from {n} particles")
    rng = np.random.default_rng(seed)
    codes = rng.choice(n * (n - 1), size=e, replace=False)
    recv = codes // (n - 1)
    rem = codes % (n - 1)
    send = np.where(rem >= recv, rem + 1, rem)
    order = np.lexsort((send, recv))
    return recv[order].astype(np.int64), send[order].astype(np.int64)


def _setup(cfg: ModelConfig, n: int, e: int, seed: int):
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, cfg.d_in)).astype(T.DTYPES[cfg.precision])
    return model, x, *synthesize_pairs(n, e, seed)


def _forward_phase_macs(tape: Tape) -> dict:
    """MACs per tape scope, leaving out entries recorded outside any scope
    (the forward records all its work inside scopes; a loss does not)."""
    phases = tape.macs_by_scope()
    phases.pop("", None)
    phases["total"] = sum(phases.values())
    return phases


def measure_macs(cfg: ModelConfig, n: int, e: int, seed: int = 0) -> dict:
    """Instrumented forward-pass MAC tally per tape scope."""
    model, x, recv, send = _setup(cfg, n, e, seed)
    with Tape() as tape:
        model.forward(x, recv, send)
    return _forward_phase_macs(tape)


def time_iteration(cfg: ModelConfig, n: int, e: int, trials: int = 5,
                   warmup: int = 2, seed: int = 0) -> CostProfile:
    """Median and interquartile range over trials of the wall time of one
    forward+backward iteration, the median wall time of one untaped forward
    (no tape, as in a rollout), the median of the iteration's minor page
    faults (`ru_minflt` of this process), and the `tracemalloc` allocation peak of
    one more iteration, run untimed after the trials; the forward MACs per
    phase come from the last timed tape.  The attention backbones also
    report the slots per pair of the pair index their forward builds over
    the same pairs."""
    if trials < 5:
        raise ValueError("need at least 5 trials")
    model, x, recv, send = _setup(cfg, n, e, seed)

    def iteration() -> Tape:
        with Tape() as tape:
            pred = model.forward(x, recv, send)
            loss = T.scale(T.reduce_sum(T.square(pred)), 1.0 / n)
            T.backward(loss, tape)
        return tape

    times, faults, fwd_times = [], [], []
    for i in range(warmup + trials):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        tape = iteration()
        if i >= warmup:
            times.append((time.perf_counter() - t0) * 1000.0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        for p in model.params().values():
            p.grad = None
        t0 = time.perf_counter()
        model.forward(x, recv, send)
        if i >= warmup:
            fwd_times.append((time.perf_counter() - t0) * 1000.0)
    phases = _forward_phase_macs(tape)
    tracing = tracemalloc.is_tracing()  # a caller's own tracing is left running
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        iteration()
        peak_alloc = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    slots_per_pair = None
    if cfg.backbone != "gnn":
        index = T.PairIndex(recv, send, n)
        slots_per_pair = index.n_slots / max(index.e, 1)
    return CostProfile(
        backbone=cfg.backbone, n=n, e=e, analytic_macs=count_macs(cfg, n, e)["total"],
        measured_macs=phases["total"],
        phase_macs=phases, wall_ms_median=float(median), wall_ms_iqr=float(q3 - q1),
        fwd_ms_median=float(np.median(fwd_times)),
        minor_faults=int(np.median(faults)), peak_alloc_mb=peak_alloc / 2**20,
        slots_per_pair=slots_per_pair,
    )


def write_bench_csv(profiles: list[CostProfile], path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["backbone", "n", "e", "macs", "wall_ms_median", "wall_ms_iqr",
                         "fwd_ms_median", "minor_faults", "peak_alloc_mb", "slots_per_pair"])
        for p in profiles:
            writer.writerow([p.backbone, p.n, p.e, p.measured_macs,
                             f"{p.wall_ms_median:.3f}", f"{p.wall_ms_iqr:.3f}",
                             f"{p.fwd_ms_median:.3f}", p.minor_faults,
                             f"{p.peak_alloc_mb:.3f}",
                             "" if p.slots_per_pair is None else f"{p.slots_per_pair:.4f}"])
