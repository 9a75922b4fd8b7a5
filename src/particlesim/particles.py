"""Particle system state, fixed-radius neighbor search (an O(N^2) scan for
small systems, a sorted cell list for large ones), velocity integration, and
dataset normalization statistics."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Non-finite or otherwise invalid domain input."""


def sample_rows(n: int, samples: int) -> int:
    """Rows per sample of a batch that stacks `samples` equal systems into n
    rows; InputError unless `samples` is positive and divides n."""
    if samples < 1 or n % samples:
        raise InputError(f"{samples} samples do not divide {n} particles")
    return n // samples


@dataclass
class SystemState:
    positions: np.ndarray  # (N, 3)
    velocities: np.ndarray  # (N, 3)
    attributes: np.ndarray  # (N, d_a)
    material_ids: np.ndarray  # (N,) ints in [0, K)
    time_step: int = 0

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass
class NeighborGraph:
    receivers: np.ndarray  # (E,) int64
    senders: np.ndarray  # (E,) int64
    radius: float

    @property
    def n_pairs(self) -> int:
        return self.receivers.shape[0]

    def pair_set(self) -> set:
        return set(zip(self.receivers.tolist(), self.senders.tolist()))


def _check_search_inputs(positions: np.ndarray, radius: float):
    if not 0 < radius < np.inf:
        raise InputError(f"radius must be positive and finite, got {radius}")
    if not np.isfinite(positions).all():
        raise InputError("non-finite positions in neighbor search")


# The largest system searched by the O(N^2) scan, at the measured crossover:
# on box_splash states (1 BLAS thread, 2-vCPU VM) the scan is the faster
# search up to N = 256 and the cell list from N = 288, at both radius 0.1 (the
# model's) and 0.09 (the worlds' springs); README, "Neighbor search".
SCAN_MAX_N = 256


def build_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """All directed pairs (i, j), i != j, with ||p_i - p_j|| < radius, as
    int64 arrays sorted by (receiver, sender): the one search of training,
    rollout and the reference worlds.  Systems of up to SCAN_MAX_N particles
    take `brute_force_neighbor_graph`, larger ones
    `cell_list_neighbor_graph`; both return the same arrays."""
    small = positions.shape[0] <= SCAN_MAX_N
    return (brute_force_neighbor_graph if small else cell_list_neighbor_graph)(positions, radius)


# (dx, dy) of the 9 cell columns around a cell; each column spans dz = -1..1
_COLUMNS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)


def cell_list_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """The pairs of `build_neighbor_graph` by a sorted cell list, its search
    for large systems.

    Cells have size = radius.  Particles are sorted by cell key; the 27
    cells around a particle are 9 runs of consecutive keys, found by
    `searchsorted`; the candidates in them are filtered by distance.  On each
    axis the cell index c = floor(p / radius) is replaced by its rank among
    the distinct values of {c - 1, c, c + 1}: adjacent cells keep ranks one
    apart, and every rank is below 3N, so the int64 key is exact however far
    apart the particles are (for N up to about 700k).  The result equals
    `brute_force_neighbor_graph` element for element.
    """
    _check_search_inputs(positions, radius)
    n = positions.shape[0]
    cells = np.floor(positions / radius)
    ranks, sizes = [], []
    for c in cells.T:
        axis = np.unique(np.concatenate([c - 1, c, c + 1]))
        ranks.append(np.searchsorted(axis, c))
        sizes.append(axis.size)
    strides = np.array([sizes[1] * sizes[2], sizes[2], 1], dtype=np.int64)
    keys = np.stack(ranks, axis=1) @ strides
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # row k: the keys of column k around each particle, in key order (sorted)
    column_keys = (_COLUMNS @ strides[:2])[:, None] + sorted_keys
    first = np.searchsorted(sorted_keys, column_keys - 1, "left").ravel()
    count = np.searchsorted(sorted_keys, column_keys + 1, "right").ravel() - first
    ends = np.cumsum(count)
    # candidates as positions in key order; particle ids only for kept pairs
    recv = np.repeat(np.tile(np.arange(n), len(_COLUMNS)), count)
    send = np.arange(ends[-1] if n else 0) + np.repeat(first - ends + count, count)
    sorted_positions = positions[order]
    d = sorted_positions[recv] - sorted_positions[send]
    close = (np.einsum("ij,ij->i", d, d) < radius * radius) & (recv != send)
    recv, send = order[recv[close]], order[send[close]]
    by_pair = np.argsort(recv * n + send)
    return NeighborGraph(recv[by_pair], send[by_pair], radius)


def brute_force_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """The pairs of `build_neighbor_graph` by an O(N^2) scan: its search
    for small systems, and the oracle for the cell list.  `np.nonzero`
    returns them in row-major, that is (receiver, sender), order."""
    _check_search_inputs(positions, radius)
    diff = positions[:, None, :] - positions[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    mask = dist2 < radius * radius
    np.fill_diagonal(mask, False)
    recv, send = np.nonzero(mask)
    return NeighborGraph(recv.astype(np.int64), send.astype(np.int64), radius)


def integrate_positions(p: np.ndarray, q_hat: np.ndarray, dt: float) -> np.ndarray:
    """Advance positions one step by the predicted velocities."""
    if p.shape != q_hat.shape:
        raise InputError(f"shape mismatch: positions {p.shape} vs velocities {q_hat.shape}")
    if dt <= 0:
        raise InputError(f"dt must be positive, got {dt}")
    return p + dt * q_hat


STD_FLOOR = 1e-8


@dataclass
class NormStats:
    """Per-channel mean/std of the raw model input channels.

    Channels are ordered [position(3), velocity(3), attributes(d_a)].
    Stats must be computed on the training split only.
    """
    mean: np.ndarray
    std: np.ndarray

    @property
    def pos(self):
        return self.mean[0:3], self.std[0:3]

    @property
    def vel(self):
        return self.mean[3:6], self.std[3:6]

    @property
    def attr(self):
        return self.mean[6:], self.std[6:]


def compute_norm_stats(frames: np.ndarray, attributes: np.ndarray) -> NormStats:
    """Stats over all training frames; `frames` is (num_samples, 6) flattened
    position+velocity rows, `attributes` is (num_particles, d_a)."""
    if frames.size == 0:
        raise InputError("cannot compute normalization stats from an empty dataset")
    pv_mean = frames.reshape(-1, 6).mean(axis=0)
    pv_std = frames.reshape(-1, 6).std(axis=0)
    a_mean = attributes.reshape(-1, attributes.shape[-1]).mean(axis=0)
    a_std = attributes.reshape(-1, attributes.shape[-1]).std(axis=0)
    mean = np.concatenate([pv_mean, a_mean])
    std = np.concatenate([pv_std, a_std])
    if (std < STD_FLOOR).any():
        warnings.warn("constant input channel: std clamped to 1e-8", stacklevel=2)
        std = np.maximum(std, STD_FLOOR)
    return NormStats(mean.astype(np.float64), std.astype(np.float64))


def save_norm_stats(stats: NormStats, path):
    with open(path, "w") as f:
        json.dump({"mean": stats.mean.tolist(), "std": stats.std.tolist()}, f)


def load_norm_stats(path) -> NormStats:
    """Stats written by save_norm_stats, bit-exact.  A malformed file, or one
    with a non-finite entry or a std below STD_FLOOR, raises OSError."""
    try:
        with open(path) as f:
            raw = json.load(f)
        stats = NormStats(np.asarray(raw["mean"], dtype=np.float64),
                          np.asarray(raw["std"], dtype=np.float64))
    except (ValueError, KeyError, TypeError) as e:
        raise OSError(f"malformed normalization stats {path}: {e}") from e
    if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
            and (stats.std >= STD_FLOOR).all()):
        raise OSError(f"normalization stats {path} hold a non-finite entry or a std "
                      f"below {STD_FLOOR}")
    return stats


def normalize_frame(positions, velocities, stats: NormStats):
    pm, ps = stats.pos
    vm, vs = stats.vel
    return (positions - pm) / ps, (velocities - vm) / vs


def normalize_attributes(attributes, stats: NormStats):
    am, asd = stats.attr
    return (attributes - am) / asd


def normalize_velocity(v, stats: NormStats):
    vm, vs = stats.vel
    return (v - vm) / vs


def denormalize_velocity(v_hat, stats: NormStats):
    vm, vs = stats.vel
    return v_hat * vs + vm


def assemble_inputs(position_history, velocity_history, attributes, stats: NormStats) -> np.ndarray:
    """Build the per-particle model input: H normalized (position, velocity)
    frames, newest first, followed by normalized attributes.

    position_history / velocity_history: lists of (N, 3) arrays ordered from
    newest (time t) to oldest (t - H + 1).
    """
    parts = []
    for p, q in zip(position_history, velocity_history):
        pn, qn = normalize_frame(p, q, stats)
        parts.extend([pn, qn])
    parts.append(normalize_attributes(attributes, stats))
    return np.concatenate(parts, axis=1)


def input_dim(history: int, d_a: int) -> int:
    return 6 * history + d_a
