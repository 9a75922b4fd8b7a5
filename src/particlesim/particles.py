"""Particle system state (positions, velocities and step; each particle's
material is its world's, `worlds.WorldSpec.material_ids()`), fixed-radius
neighbor search (an O(N^2) scan for small systems, a sorted cell list for
large ones), velocity integration, dataset normalization statistics, and
the model input: a window of frames and the attributes under one affine
map."""

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
    time_step: int = 0

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass
class NeighborGraph:
    receivers: np.ndarray  # (E,) int64
    senders: np.ndarray  # (E,) int64

    @property
    def n_pairs(self) -> int:
        return self.receivers.shape[0]


def _check_search_inputs(positions: np.ndarray, radius: float):
    if not 0 < radius < np.inf:
        raise InputError(f"radius must be positive and finite, got {radius}")
    if not np.isfinite(positions).all():
        raise InputError("non-finite positions in neighbor search")


# The largest system searched by the O(N^2) scan, at the measured crossover:
# on box_splash states (1 BLAS thread, 2-vCPU VM) the scan is the faster
# search up to N = 288 and the cell list from N = 320, at both radius 0.1 (the
# model's) and 0.09 (the worlds' springs); README, "Neighbor search".
SCAN_MAX_N = 288


def build_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """All directed pairs (i, j), i != j, with ||p_i - p_j|| < radius, as
    int64 arrays sorted by (receiver, sender): the one search of training,
    rollout and the reference worlds.  Systems of up to SCAN_MAX_N particles
    take `brute_force_neighbor_graph`, larger ones
    `cell_list_neighbor_graph`; both return the same arrays."""
    small = positions.shape[0] <= SCAN_MAX_N
    return (brute_force_neighbor_graph if small else cell_list_neighbor_graph)(positions, radius)


# Cells have side radius / _REACH, so on each axis a particle's neighbours lie
# within _REACH cells of its own: the 5 x 5 x 5 block around it, 25 columns
# (dx, dy) of 5 adjacent keys (dz = -2..2) each.
_REACH = 2
_OFFSETS = np.arange(-_REACH, _REACH + 1)
_COLUMNS = np.array([(dx, dy) for dx in _OFFSETS for dy in _OFFSETS], dtype=np.int64)
# Candidates per block of the distance filter: 256 KB per 8-byte array, so a
# block's working arrays stay in a core's L2 cache (README, "Neighbor search")
_BLOCK = 1 << 15


def _squared_lengths(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """dx² + dy² + dz², summed as (dx² + dz²) + dy² in place in dx: the one
    distance of both searches, so that they agree bit for bit.  numpy 2.4's
    einsum("ij,ij->i") sums three columns in the same order, so pair lists,
    and the seeded datasets built on them, match those of einsum distances."""
    dx *= dx
    dz *= dz
    dx += dz
    dy *= dy
    dx += dy
    return dx


def cell_list_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """The pairs of `build_neighbor_graph` by a sorted cell list, its search
    for large systems.

    Cells have side radius / 2.  Particles are sorted by cell key; the 125
    cells around a particle are 25 runs of 5 consecutive keys, found by
    `searchsorted`; the candidates in them are filtered by distance in
    blocks of _BLOCK, reading one contiguous coordinate array per axis.  On
    each axis the cell index c = floor(2 p / radius) is replaced by its rank
    among the distinct values of {c - 2, ..., c + 2}: adjacent cells keep
    ranks one apart however far apart the particles are, and every rank is
    below 5N.  The int64 key is exact while the product of the three axes'
    rank counts is below 2**63, which holds for any N up to 419,430; past
    it, InputError.  The result equals `brute_force_neighbor_graph` element
    for element.
    """
    _check_search_inputs(positions, radius)
    n = positions.shape[0]
    cells = np.floor(positions / (radius / _REACH))
    ranks, sizes = [], []
    for c in cells.T:
        axis = np.unique((np.unique(c)[:, None] + _OFFSETS).ravel())
        ranks.append(np.searchsorted(axis, c))
        sizes.append(axis.size)
    if sizes[0] * sizes[1] * sizes[2] >= 2**63:
        raise InputError(f"{n} particles span {sizes[0]} x {sizes[1]} x {sizes[2]} cell "
                         f"ranks; the int64 cell key needs their product below 2**63, "
                         f"which any system of up to 419,430 particles meets")
    strides = np.array([sizes[1] * sizes[2], sizes[2], 1], dtype=np.int64)
    keys = np.stack(ranks, axis=1) @ strides
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # row k: the middle keys of column k around each particle, in key order (sorted)
    column_keys = (_COLUMNS @ strides[:2])[:, None] + sorted_keys
    first = np.searchsorted(sorted_keys, column_keys - _REACH, "left").ravel()
    count = np.searchsorted(sorted_keys, column_keys + _REACH, "right").ravel() - first
    starts = np.concatenate([[0], np.cumsum(count)])
    receivers = np.tile(np.arange(n), len(_COLUMNS))
    x, y, z = np.ascontiguousarray(positions[order].T)
    # candidates as positions in key order, filtered in blocks of about
    # _BLOCK that stay in cache; particle ids only for kept pairs, as the
    # one key i * n + j that sorts them by (receiver, sender)
    bounds = [0, *np.searchsorted(starts, np.arange(_BLOCK, starts[-1], _BLOCK)), count.size]
    kept = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        recv = np.repeat(receivers[a:b], count[a:b])
        send = np.arange(starts[a], starts[b]) + np.repeat(first[a:b] - starts[a:b], count[a:b])
        dist2 = _squared_lengths(x.take(recv) - x.take(send), y.take(recv) - y.take(send),
                                 z.take(recv) - z.take(send))
        close = np.flatnonzero((dist2 < radius * radius) & (recv != send))
        kept.append(order.take(recv.take(close)) * n + order.take(send.take(close)))
    pair_keys = np.sort(np.concatenate(kept))
    # receiver i's pairs are the keys in [i * n, (i + 1) * n)
    degrees = np.diff(np.searchsorted(pair_keys, np.arange(n + 1) * n))
    recv = np.repeat(np.arange(n), degrees)
    return NeighborGraph(recv, pair_keys - recv * n)


def brute_force_neighbor_graph(positions: np.ndarray, radius: float) -> NeighborGraph:
    """The pairs of `build_neighbor_graph` by an O(N^2) scan: its search
    for small systems, and the oracle for the cell list.  `np.nonzero`
    returns them in row-major, that is (receiver, sender), order."""
    _check_search_inputs(positions, radius)
    x, y, z = positions.T
    dist2 = _squared_lengths(x[:, None] - x, y[:, None] - y, z[:, None] - z)
    mask = dist2 < radius * radius
    np.fill_diagonal(mask, False)
    recv, send = np.nonzero(mask)
    return NeighborGraph(recv.astype(np.int64), send.astype(np.int64))


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
    def vel(self):
        return self.mean[3:6], self.std[3:6]


def compute_norm_stats(frames: np.ndarray, attributes: np.ndarray) -> NormStats:
    """Stats over all training frames; `frames` is (num_samples, 6) flattened
    position+velocity rows, `attributes` is (num_particles, d_a).  A channel
    with a std below STD_FLOOR is clamped to it; only a constant position or
    velocity channel warns, as the one-hot attributes of a one-material world
    are constant by design."""
    if frames.size == 0:
        raise InputError("cannot compute normalization stats from an empty dataset")
    pv_mean = frames.reshape(-1, 6).mean(axis=0)
    pv_std = frames.reshape(-1, 6).std(axis=0)
    a_mean = attributes.reshape(-1, attributes.shape[-1]).mean(axis=0)
    a_std = attributes.reshape(-1, attributes.shape[-1]).std(axis=0)
    mean = np.concatenate([pv_mean, a_mean])
    std = np.concatenate([pv_std, a_std])
    if (pv_std < STD_FLOOR).any():
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


def normalize_velocity(v, stats: NormStats):
    vm, vs = stats.vel
    return (v - vm) / vs


def denormalize_velocity(v_hat, stats: NormStats):
    vm, vs = stats.vel
    return v_hat * vs + vm


def assemble_inputs(window: np.ndarray, attributes: np.ndarray, stats: NormStats) -> np.ndarray:
    """The per-particle model input: the H frames of `window` ((H, N, 6)
    [position, velocity] rows, newest first) side by side, then the
    attributes, under one affine map (x - mean) / std, the first 6 stats
    tiled H times (`input_dim(H, d_a)` channels)."""
    h, n, _ = window.shape
    x = np.concatenate([window.transpose(1, 0, 2).reshape(n, 6 * h), attributes], axis=1)
    mean = np.concatenate([np.tile(stats.mean[:6], h), stats.mean[6:]])
    std = np.concatenate([np.tile(stats.std[:6], h), stats.std[6:]])
    return (x - mean) / std


def input_dim(history: int, d_a: int) -> int:
    return 6 * history + d_a
