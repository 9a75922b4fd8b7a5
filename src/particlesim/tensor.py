"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

The primitive set is the minimal closure needed by the simulation models:
matrix products (also per head, over column blocks), elementwise arithmetic,
relu, concat/slice/gather, segment reductions, masked and segmented softmax,
layer norm, and two fused attention kernels over a per-graph `PairIndex`:
dot-product `pair_attention` and normalized `implicit_edge_attention`.
Everything is numpy-backed; two precision modes (f32, f64) are supported
and never mixed inside one graph.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class ContractError(ValueError):
    """A primitive was called outside its contract (e.g. non-scalar loss)."""


class DegenerateRowError(ValueError):
    """softmax_masked received a row with every entry masked."""


class CheckpointError(OSError):
    """A checkpoint is malformed or does not match the model loading it."""


# Lower clamp of the pair variance in normalized implicit-edge attention.
SIGMA_FLOOR = 1e-10


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype: str | None = None, requires_grad: bool = False):
        if dtype is not None:
            arr = np.asarray(data, dtype=DTYPES[dtype])
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def precision(self) -> str:
        return "f32" if self.data.dtype == np.float32 else "f64"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray):
        # The first gradient is kept as it arrives, and may be shared with other
        # parents: `.grad` is never written in place, later gradients add anew.
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class TapeEntry:
    out: Tensor
    backward_fn: Callable[[np.ndarray], None]
    macs: int
    scope: str
    backward_ms: float = 0.0  # wall time of backward_fn, set by `backward`


class Tape:
    """Ordered record of primitive applications.

    Replaying the entries in reverse propagates gradients to every
    requires_grad tensor reachable from the loss.  Entries also carry a
    multiply-accumulate count tagged with the active scope label, which
    the benchmark module reads back, and the wall time of their backward.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._scope = ""

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        assert _TAPE_STACK and _TAPE_STACK[-1] is self
        _TAPE_STACK.pop()
        return False

    @contextmanager
    def scope(self, label: str):
        prev = self._scope
        self._scope = label
        try:
            yield
        finally:
            self._scope = prev

    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)

    def macs_by_scope(self) -> dict:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.scope] = out.get(e.scope, 0) + e.macs
        return out

    def backward_ms_by_scope(self) -> dict:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.scope] = out.get(e.scope, 0.0) + e.backward_ms
        return out


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def scope(label: str):
    """Tag entries recorded inside the block with `label` on the active tape.

    Without an active tape nothing is recorded and the block just runs.
    """
    tape = active_tape()
    if tape is None:
        yield
        return
    with tape.scope(label):
        yield


def _record(out: Tensor, parents: tuple, backward_fn, macs: int = 0) -> Tensor:
    out.requires_grad = any(p.requires_grad for p in parents)
    tape = active_tape()
    if tape is not None:
        tape.entries.append(TapeEntry(out, backward_fn, macs, tape._scope))
    return out


def _check_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed precision operands: {dt} vs {t.data.dtype}")


def backward(loss: Tensor, tape: Tape):
    """Propagate gradients from a scalar loss through the tape, freeing each
    used gradient and timing each entry's backward."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        g = entry.out.grad
        if g is None or not entry.out.requires_grad:
            continue
        t0 = time.perf_counter()
        entry.backward_fn(g)
        entry.backward_ms = (time.perf_counter() - t0) * 1000.0
        entry.out.grad = None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)
    m, k = a.data.shape
    n = b.data.shape[1]

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _record(out, (a, b), bwd, macs=m * k * n)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b)
    bias_mode = a.data.ndim == 2 and b.data.shape == (a.data.shape[1],)
    if not bias_mode and a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0) if bias_mode else g)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _record(out, (a, b), bwd, macs=out.data.size)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"div shape mismatch: {a.data.shape} / {b.data.shape}")
    out = Tensor(a.data / b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g / b.data)
        if b.requires_grad:
            b.accumulate_grad(-g * a.data / (b.data * b.data))

    return _record(out, (a, b), bwd, macs=out.data.size)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * a.data.dtype.type(c))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * a.data.dtype.type(c))

    return _record(out, (a,), bwd, macs=out.data.size)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(2.0 * a.data * g)

    return _record(out, (a,), bwd, macs=out.data.size)


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * 0.5 / out.data)

    return _record(out, (a,), bwd)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    out = Tensor(np.maximum(a.data, a.data.dtype.type(floor)))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > floor))

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0))

    return _record(out, (a,), bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    _check_dtype(*tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _record(out, tuple(tensors), bwd)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[start:stop].copy())

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            a.accumulate_grad(full)

    return _record(out, (a,), bwd)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx])

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_row_sums(_RowSums(idx, a.data.shape[0]), g))

    return _record(out, (a,), bwd)


def segment_sum(a: Tensor, seg_ids: np.ndarray, num_segments: int) -> Tensor:
    """Scatter-add rows of `a` into `num_segments` output rows."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if a.data.shape[0] != seg_ids.shape[0]:
        raise ShapeError(f"segment_sum: {a.data.shape[0]} rows vs {seg_ids.shape[0]} ids")
    out = Tensor(_row_sums(_RowSums(seg_ids, num_segments), a.data))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g[seg_ids])

    return _record(out, (a,), bwd)


def reduce_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def bwd(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.full_like(a.data, 1.0) * g)
            else:
                a.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _record(out, (a,), bwd)


def reduce_mean(a: Tensor, axis: Optional[int] = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis))

    def bwd(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.full_like(a.data, 1.0 / n) * g)
            else:
                a.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), a.data.shape) / n)

    return _record(out, (a,), bwd)


def scale_rows(mat: Tensor, vec: Tensor) -> Tensor:
    """Multiply row i of `mat` by scalar vec[i]."""
    _check_dtype(mat, vec)
    if vec.data.shape != (mat.data.shape[0],):
        raise ShapeError(f"scale_rows: {mat.data.shape} rows vs {vec.data.shape}")
    out = Tensor(mat.data * vec.data[:, None])

    def bwd(g):
        if mat.requires_grad:
            mat.accumulate_grad(g * vec.data[:, None])
        if vec.requires_grad:
            vec.accumulate_grad((g * mat.data).sum(axis=1))

    return _record(out, (mat, vec), bwd, macs=mat.data.size)


def shift_rows(mat: Tensor, vec: Tensor) -> Tensor:
    """Add scalar vec[i] to every component of row i."""
    _check_dtype(mat, vec)
    if vec.data.shape != (mat.data.shape[0],):
        raise ShapeError(f"shift_rows: {mat.data.shape} rows vs {vec.data.shape}")
    out = Tensor(mat.data + vec.data[:, None])

    def bwd(g):
        if mat.requires_grad:
            mat.accumulate_grad(g)
        if vec.requires_grad:
            vec.accumulate_grad(g.sum(axis=1))

    return _record(out, (mat, vec), bwd)


def div_rows(mat: Tensor, vec: Tensor) -> Tensor:
    """Divide row i of `mat` by scalar vec[i]."""
    _check_dtype(mat, vec)
    if vec.data.shape != (mat.data.shape[0],):
        raise ShapeError(f"div_rows: {mat.data.shape} rows vs {vec.data.shape}")
    out = Tensor(mat.data / vec.data[:, None])

    def bwd(g):
        if mat.requires_grad:
            mat.accumulate_grad(g / vec.data[:, None])
        if vec.requires_grad:
            vec.accumulate_grad(-(g * out.data).sum(axis=1) / vec.data)

    return _record(out, (mat, vec), bwd, macs=mat.data.size)


def head_matmul(a: Tensor, w: Tensor, heads: int) -> Tensor:
    """Column block h of the output is block h of `a` (n, d) times block h of
    `w` (D, d), a (D, D) map per head, D = d / heads.  MACs: n * d * D."""
    _check_dtype(a, w)
    n, d = a.data.shape
    if d % heads or w.data.shape != (d // heads, d):
        raise ShapeError(f"head_matmul: {a.data.shape} x {w.data.shape} over {heads} heads")
    D = d // heads
    ah = _by_head(a.data, heads).transpose(1, 0, 2)  # (H, n, D)
    wh = _by_head(w.data, heads).transpose(1, 0, 2)  # (H, D, D)
    out = Tensor(_heads_as_cols(np.matmul(ah, wh)))

    def bwd(g):
        gh = _by_head(g, heads).transpose(1, 0, 2)
        if a.requires_grad:
            a.accumulate_grad(_heads_as_cols(np.matmul(gh, wh.transpose(0, 2, 1))))
        if w.requires_grad:
            w.accumulate_grad(_heads_as_cols(np.matmul(ah.transpose(0, 2, 1), gh)))

    return _record(out, (a, w), bwd, macs=n * d * D)


def cols(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop].copy())

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, start:stop] = g
            a.accumulate_grad(full)

    return _record(out, (a,), bwd)


def scale_cols(mat: Tensor, vec: Tensor) -> Tensor:
    """Multiply column j of `mat` by scalar vec[j]."""
    _check_dtype(mat, vec)
    if vec.data.shape != (mat.data.shape[1],):
        raise ShapeError(f"scale_cols: {mat.data.shape} cols vs {vec.data.shape}")
    out = Tensor(mat.data * vec.data[None, :])

    def bwd(g):
        if mat.requires_grad:
            mat.accumulate_grad(g * vec.data[None, :])
        if vec.requires_grad:
            vec.accumulate_grad((g * mat.data).sum(axis=0))

    return _record(out, (mat, vec), bwd, macs=mat.data.size)


def softmax_masked(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Stable softmax over unmasked entries; masked entries are exactly 0.

    Works on a vector or row-wise on a 2-D tensor (mask of the same shape).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {logits.data.shape}")
    if logits.data.ndim == 1:
        if not mask.any():
            raise DegenerateRowError("softmax_masked: all entries masked")
    else:
        if not mask.any(axis=-1).all():
            raise DegenerateRowError("softmax_masked: a row has all entries masked")
    neg = np.where(mask, logits.data, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - m)
    e = np.where(mask, e, 0.0)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y.astype(logits.data.dtype))

    def bwd(g):
        if logits.requires_grad:
            dot = (g * out.data).sum(axis=-1, keepdims=True)
            gl = out.data * (g - dot)
            logits.accumulate_grad(np.where(mask, gl, 0.0))

    return _record(out, (logits,), bwd)


def segment_softmax(logits: Tensor, seg_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax within each segment of a flat logit vector (stable, max-subtracted).

    Segments may be empty (they simply contribute no entries).  seg_ids need
    not be sorted but every id must be in [0, num_segments).
    """
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if logits.data.ndim != 1 or logits.data.shape != seg_ids.shape:
        raise ShapeError(f"segment_softmax: logits {logits.data.shape} vs ids {seg_ids.shape}")
    maxs = np.full(num_segments, -np.inf, dtype=logits.data.dtype)
    np.maximum.at(maxs, seg_ids, logits.data)
    e = np.exp(logits.data - maxs[seg_ids])
    denom = np.zeros(num_segments, dtype=logits.data.dtype)
    np.add.at(denom, seg_ids, e)
    y = e / denom[seg_ids]
    out = Tensor(y)

    def bwd(g):
        if logits.requires_grad:
            dot = np.zeros(num_segments, dtype=logits.data.dtype)
            np.add.at(dot, seg_ids, g * out.data)
            logits.accumulate_grad(out.data * (g - dot[seg_ids]))

    return _record(out, (logits,), bwd)


# Padded width of a row of degree 0..8: the power of two at or above it.
_SMALL_WIDTH = np.array([0, 1, 2, 4, 4, 8, 8, 8, 8])


def _degree_buckets(starts: np.ndarray):
    """Rows of a CSR layout grouped by padded width; rows of degree 0 are left out.

    A row of degree k pads to the power of two at or above k up to 8, and to
    the multiple of 8 at or above k beyond that.  Every row pads to less than
    twice its degree, so one row of degree N does not widen the others, and
    rows of degree above 8 pad by at most 7 slots: neighbor-search and
    `bench.synthesize_pairs` graphs of mean degree 15-20 take about 1.25 slots
    per pair.

    Yields (rows, pos, valid) with pos[a, k] = starts[rows[a]] + k and
    valid[a, k] = k < degree.
    """
    deg = np.diff(starts)
    width = np.where(deg > 8, (deg + 7) // 8 * 8, _SMALL_WIDTH[np.minimum(deg, 8)])
    for k in np.unique(width[deg > 0]):
        rows = np.flatnonzero(width == k)
        cols = np.arange(k)
        yield rows, starts[rows, None] + cols, cols < deg[rows, None]


class _RowSums:
    """Plan of the sums out[r] = sum of values[at[i]] over the i with idx[i] = r,
    r < n, added in index order (`at` defaults to the identity).  `buckets`
    holds per `_degree_buckets` bucket its rows (R,) in degree order,
    descending, the (R, K) table of their value positions, and the list m:
    column k holds entries for the first m[k] rows only."""

    def __init__(self, idx: np.ndarray, n: int, at: Optional[np.ndarray] = None):
        deg = np.bincount(idx, minlength=n)
        starts = np.concatenate(([0], np.cumsum(deg)))
        entries = np.argsort(idx, kind="stable")  # by row, in index order within a row
        if at is not None:
            entries = at[entries]
        by_degree = np.argsort(-deg, kind="stable")  # sorts the rows of every bucket
        self.n, self.buckets = n, []
        for ranks, _, valid in _degree_buckets(np.concatenate(([0], np.cumsum(deg[by_degree])))):
            rows = by_degree[ranks]
            pos = starts[rows, None] + np.arange(valid.shape[1])
            self.buckets.append((rows, entries.take(pos, mode="clip"), valid.sum(axis=0).tolist()))


def _row_sums(plan: _RowSums, values: np.ndarray) -> np.ndarray:
    """Per output row of `plan`, the sum of its rows of `values`, added in
    index order; rows without entries get zero."""
    out = np.zeros((plan.n,) + values.shape[1:], dtype=values.dtype)
    for rows, table, m in plan.buckets:
        # one (m[k], ...) gather per column keeps the temporaries small
        acc = values[table[:, 0]]
        for k in range(1, table.shape[1]):
            acc[:m[k]] += values[table[:m[k], k]]
        out[rows] = acc
    return out


@dataclass
class _RecvBucket:
    rows: np.ndarray    # (R,) receivers
    lo: int             # first padded slot of the bucket
    valid: np.ndarray   # (R, K) slot holds a pair
    senders: np.ndarray  # (R, K) sender of each slot (0 on padding)

    def slots(self, buf: np.ndarray) -> np.ndarray:
        """(R, K, ...) view of the bucket's slots in a slot buffer."""
        R, K = self.valid.shape
        return buf[self.lo:self.lo + R * K].reshape(R, K, *buf.shape[1:])


class PairIndex:
    """Receiver- and sender-side layouts of one pair list, built once per graph.

    Pairs are taken in receiver order (neighbor search and abstract pairs
    already come sorted; other lists are sorted stably), which makes the
    receiver CSR free.  Receivers are padded into tables (rows, K) per
    degree bucket (`_degree_buckets`); the slots of all buckets, row-major,
    form one padded slot space of size `n_slots`, with `slot_sender` the
    sender of each slot (n on padding).  The sender side, `by_sender`, is
    the `_RowSums` plan of each sender's slots in pair order.  Sums over a
    receiver's or a sender's pairs then become batched matmuls or row sums
    over these tables, with no sort and no unbuffered scatter per call.

    The index also owns the slot workspace of the attention kernels: one
    (n_slots, ...) buffer per role (`slot_buffer`), the sender gather
    buffer and the to-sender buffers, made on first use and reused by every
    bucket and block, forward and backward, for as long as the graph lives.
    A kernel call keeps nothing in them once it returns (a backward gathers
    its sender slots again and sums the to-sender buffers before it ends), so
    calls and backwards on one index may interleave in any order.
    """

    def __init__(self, recv: np.ndarray, send: np.ndarray, n: int):
        recv = np.asarray(recv, dtype=np.int64)
        send = np.asarray(send, dtype=np.int64)
        if recv.shape != send.shape or recv.ndim != 1:
            raise ShapeError(f"pair index: receivers {recv.shape} vs senders {send.shape}")
        if recv.size and (min(recv.min(), send.min()) < 0 or max(recv.max(), send.max()) >= n):
            raise ShapeError(f"pair index: particle index outside [0, {n})")
        if np.any(np.diff(recv) < 0):
            order = np.argsort(recv, kind="stable")
            recv, send = recv[order], send[order]
        self.n, self.e = n, recv.size
        self.recv_starts = np.concatenate(([0], np.cumsum(np.bincount(recv, minlength=n))))

        self.recv_buckets: list[_RecvBucket] = []
        pair_slot = np.empty(self.e, dtype=np.int64)
        slot_sender = []
        lo = 0
        for rows, pos, valid in _degree_buckets(self.recv_starts):
            pair_slot[pos[valid]] = lo + np.flatnonzero(valid)
            senders = send[np.where(valid, pos, 0)]
            slot_sender.append(np.where(valid, senders, n).ravel())
            self.recv_buckets.append(_RecvBucket(rows, lo, valid, np.where(valid, senders, 0)))
            lo += valid.size
        self.n_slots = lo
        # (n_slots,) sender of each padded slot, n on padding
        self.slot_sender = (np.concatenate(slot_sender) if slot_sender
                            else np.zeros(0, dtype=np.int64))
        self.by_sender = _RowSums(send, n, at=pair_slot)
        self._buffers: dict[str, np.ndarray] = {}

    def slot_buffer(self, role: str, tail: tuple, dt) -> np.ndarray:
        """The workspace buffer `role` of shape (n_slots, *tail), one entry per
        padded slot; its contents are left to the caller."""
        buf = self._buffers.get(role)
        if buf is None or buf.shape[1:] != tail or buf.dtype != dt:
            buf = np.empty((self.n_slots,) + tail, dtype=dt)
            self._buffers[role] = buf
        return buf


def _by_head(a: np.ndarray, heads: int) -> np.ndarray:
    return a.reshape(a.shape[0], heads, a.shape[1] // heads)


def _heads_as_cols(a: np.ndarray) -> np.ndarray:
    """(H, m, D) -> (m, H * D), head h as column block h."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _centred(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=-1, keepdims=True)


def _head_width(name: str, index: PairIndex, heads: int, *operands: Tensor) -> int:
    """Head width D of (N', d) operands over the N' rows of `index`."""
    _check_dtype(*operands)
    shapes = [t.data.shape for t in operands]
    d = shapes[0][-1]
    if any(shape != (index.n, d) for shape in shapes):
        raise ShapeError(f"{name}: operands {shapes} over {index.n} particles")
    if d % heads:
        raise ShapeError(f"{name}: {heads} heads do not divide d={d}")
    return d // heads


def _slot_softmax(z: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Softmax over the pair slots (axis 2) of (R, H, K) logits; padding gets 0."""
    alpha = np.where(valid[:, None, :], z, -np.inf)
    alpha -= alpha.max(axis=2, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=2, keepdims=True)
    return alpha


def _gather_slots(buf: np.ndarray, a: np.ndarray, b: _RecvBucket) -> np.ndarray:
    """Rows of the (N', H, D) array `a` at the bucket's senders, written into
    its slots of the slot buffer `buf`; returned as an (R, H, K, D) view."""
    out = b.slots(buf)
    np.take(a, b.senders, axis=0, out=out, mode="clip")
    return out.transpose(0, 2, 1, 3)


def pair_attention(q: Tensor, k: Tensor, v: Tensor, index: PairIndex, heads: int) -> Tensor:
    """Fused softmax-aggregate of dot-product attention over all heads.

    q, k and v are (N', d) with heads as column blocks of width D = d/heads.
    Per head and receiver i, over the pairs (i, j) of `index`:

        alpha_ij = softmax_j(q_i . k_j / sqrt(D)),   out_i = sum_j alpha_ij v_j.

    Receivers without pairs get zero.  MACs: the two D-length products per
    pair (q . k and the aggregate) and the logit scale per pair and head.
    """
    D = _head_width("pair_attention", index, heads, q, k, v)
    n, d = q.data.shape
    dt = q.data.dtype
    inv_root = dt.type(1.0 / dt.type(np.sqrt(D)))
    qh = _by_head(q.data, heads) * inv_root  # the logits are then q' . k
    kh, vh = _by_head(k.data, heads), _by_head(v.data, heads)
    gather = index.slot_buffer("gather", (heads, D), dt)
    out = np.zeros((n, heads, D), dtype=dt)
    alphas = []
    for b in index.recv_buckets:
        kb = _gather_slots(gather, kh, b)  # (R, H, K, D)
        logits = np.matmul(qh[b.rows][:, :, None], kb.transpose(0, 1, 3, 2))[:, :, 0]
        alpha = _slot_softmax(logits, b.valid)
        out[b.rows] = np.matmul(alpha[:, :, None], _gather_slots(gather, vh, b))[:, :, 0]
        alphas.append(alpha)
    result = Tensor(out.reshape(n, d))

    def bwd(g):
        gh = _by_head(g, heads)
        dq = np.zeros((n, heads, D), dtype=dt)
        # per padded slot: the vector each pair sends back to its sender, for
        # k in the first pass over the buckets and for v in the second; the
        # slots of k and v are gathered again rather than kept from the forward
        to_sender = index.slot_buffer("to_sender", (heads, D), dt)
        for b, alpha in zip(index.recv_buckets, alphas):
            vb = _gather_slots(gather, vh, b)
            dz = np.matmul(gh[b.rows][:, :, None], vb.transpose(0, 1, 3, 2))[:, :, 0]
            dz -= (alpha * dz).sum(axis=2, keepdims=True)
            dz *= alpha
            dq[b.rows] = np.matmul(dz[:, :, None], _gather_slots(gather, kh, b))[:, :, 0]
            np.multiply(dz[..., None], qh[b.rows][:, :, None],
                        out=b.slots(to_sender).transpose(0, 2, 1, 3))
        if k.requires_grad:
            k.accumulate_grad(_row_sums(index.by_sender, to_sender).reshape(n, d))
        if v.requires_grad:
            for b, alpha in zip(index.recv_buckets, alphas):
                np.multiply(alpha[..., None], gh[b.rows][:, :, None],
                            out=b.slots(to_sender).transpose(0, 2, 1, 3))
            v.accumulate_grad(_row_sums(index.by_sender, to_sender).reshape(n, d))
        if q.requires_grad:
            dq *= inv_root
            q.accumulate_grad(dq.reshape(n, d))

    return _record(result, (q, k, v), bwd, macs=2 * index.e * d + index.e * heads)


def implicit_edge_attention(q: Tensor, r: Tensor, s: Tensor, index: PairIndex,
                            heads: int) -> Tensor:
    """Fused normalized implicit-edge attention over all heads.

    q, r and s are (N', d) with heads as column blocks of width D = d/heads;
    pair (i, j) of `index` lets r_i + s_j stand in for its edge feature,
    which is never materialised.  Per head and receiver i, with centred
    tokens r_c, s_c and

        sigma_ij^2 = (|r_c,i|^2 + |s_c,j|^2 + 2 r_c,i . s_c,j) / D,

    the variance of r_i + s_j over its D components (clamped below at
    SIGMA_FLOOR):

        alpha_ij = softmax_j((q_i . r_c,i + q_i . s_c,j) / (sigma_ij sqrt(D))),
        out_i = r_c,i sum_j alpha_ij / sigma_ij + sum_j (alpha_ij / sigma_ij) s_c,j.

    The plain variant is `r + pair_attention(q, s, s)`: its logit term
    q_i . r_i is the same for every pair of i and cancels in the softmax.
    Receivers without pairs get zero.  MACs: the D-length products per
    particle (|r_c|^2, |s_c|^2, q . r_c and the r_c term of the output) and
    per pair (q . s, r_c . s_c, the aggregate), plus the scalar products per
    pair and head (2 for sigma^2, 2 for the logit, 1 for alpha / sigma).
    """
    D = _head_width("implicit_edge_attention", index, heads, q, r, s)
    n, d = s.data.shape
    dt = s.data.dtype
    inv_root = dt.type(1.0 / dt.type(np.sqrt(D)))
    qh = _by_head(q.data, heads) * inv_root  # q' = q / sqrt(D)
    rc = _centred(_by_head(r.data, heads))
    sc = _centred(_by_head(s.data, heads))
    rr = np.einsum("nhd,nhd->nh", rc, rc)
    ss = np.einsum("nhd,nhd->nh", sc, sc)
    qr = np.einsum("nhd,nhd->nh", qh, rc)
    q_rc = np.stack([qh, rc], axis=2)  # (N', H, 2, D)
    gather = index.slot_buffer("gather", (heads, D), dt)
    out = np.zeros((n, heads, D), dtype=dt)
    saved = []
    for b in index.recv_buckets:
        S = _gather_slots(gather, sc, b)  # (R, H, K, D)
        # (R, H, 2, K): q'_i . s_c,j becomes the logit z, r_c,i . s_c,j sigma
        dots = np.matmul(q_rc[b.rows], S.transpose(0, 1, 3, 2))
        z, sigma = dots[:, :, 0], dots[:, :, 1]
        sigma *= dt.type(2.0)
        sigma += rr[b.rows][:, :, None]
        sigma += ss[b.senders].transpose(0, 2, 1)
        sigma *= dt.type(1.0 / D)
        keep = sigma > SIGMA_FLOOR
        np.sqrt(np.maximum(sigma, dt.type(SIGMA_FLOOR), out=sigma), out=sigma)
        z += qr[b.rows][:, :, None]
        z /= sigma
        alpha = _slot_softmax(z, b.valid)
        w = alpha / sigma
        agg = np.matmul(w[:, :, None], S)[:, :, 0]
        agg += rc[b.rows] * w.sum(axis=2)[..., None]
        out[b.rows] = agg
        saved.append((dots, alpha, keep))
    result = Tensor(out.reshape(n, d))

    def bwd(g):
        gh = _by_head(g, heads)
        g_rc = np.einsum("nhd,nhd->nh", gh, rc)
        # what each pair sends back to its sender: w g_i + t q'_i + 2u r_c,i
        g_q_rc = np.stack([gh, qh, rc], axis=2)  # (N', H, 3, D)
        dq = np.zeros((n, heads, D), dtype=dt)
        drc = np.zeros((n, heads, D), dtype=dt)
        # per padded slot: the vector each pair sends back to its sender, and
        # 2u, the pair's share of d|s_c|^2 times 2
        to_sender = index.slot_buffer("to_sender", (heads, D), dt)
        to_ss = index.slot_buffer("to_ss", (heads,), dt)
        for b, (dots, alpha, keep) in zip(index.recv_buckets, saved):
            R, K = b.valid.shape
            z, sigma = dots[:, :, 0], dots[:, :, 1]
            # gathered again rather than kept: the forward's slots x d per
            # block would otherwise sit in memory until the reverse pass
            S = _gather_slots(gather, sc, b)
            gb, rcb = gh[b.rows], rc[b.rows]
            # the pair coefficients (w, t, 2u) of (g_i, q'_i, r_c,i)
            coef = np.empty((R, heads, 3, K), dtype=dt)
            w, t, u2 = coef[:, :, 0], coef[:, :, 1], coef[:, :, 2]
            np.divide(alpha, sigma, out=w)
            dw = np.matmul(gb[:, :, None], S.transpose(0, 1, 3, 2))[:, :, 0]
            dw += g_rc[b.rows][:, :, None]
            dz = dw / sigma
            dz -= (alpha * dz).sum(axis=2, keepdims=True)
            dz *= alpha
            np.divide(dz, sigma, out=t)
            # 2u = 2 dvar / D, with dvar = d sigma / (2 sigma) where the floor
            # does not hold and d sigma = -(dw w + dz z) / sigma
            np.divide(np.where(keep, dw * w + dz * z, dt.type(0.0)), sigma * sigma * dt.type(-D),
                      out=u2)
            # receiver side: sum_j t_ij s_c,j and sum_j 2u_ij s_c,j
            pair_sums = np.matmul(coef[:, :, 1:], S)  # (R, H, 2, D)
            t_sum = t.sum(axis=2)[..., None]
            dq[b.rows] = t_sum * rcb + pair_sums[:, :, 0]
            drc[b.rows] = (gb * w.sum(axis=2)[..., None] + t_sum * qh[b.rows]
                           + pair_sums[:, :, 1] + u2.sum(axis=2)[..., None] * rcb)
            # (R, H, K, D) products written straight into the slots (R, K) of (H, D)
            np.matmul(coef.transpose(0, 1, 3, 2), g_q_rc[b.rows],
                      out=b.slots(to_sender).transpose(0, 2, 1, 3))
            b.slots(to_ss)[...] = u2.transpose(0, 2, 1)
        if q.requires_grad:
            dq *= inv_root
            q.accumulate_grad(dq.reshape(n, d))
        if r.requires_grad:
            r.accumulate_grad(_centred(drc).reshape(n, d))
        if s.requires_grad:
            dsc = _row_sums(index.by_sender, to_sender)
            # bincount per head: 2-5x faster than the tables on (H,) rows (0.11-0.47 vs 0.30-1.0 ms)
            ss_sums = [np.bincount(index.slot_sender, weights=u, minlength=n + 1)[:n]
                       for u in to_ss.T]
            dsc += np.stack(ss_sums, axis=1).astype(dt)[..., None] * sc
            s.accumulate_grad(_centred(dsc).reshape(n, d))

    e = index.e
    return _record(result, (q, r, s), bwd, macs=4 * n * d + 3 * e * d + 5 * e * heads)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Row-wise layer normalization with elementwise gain and shift.

    Variance gets a fixed 1e-5 epsilon so constant rows normalize to zero
    instead of dividing by zero.
    """
    _check_dtype(x, gain, shift)
    if x.data.ndim != 2 or x.data.shape[1] < 2:
        raise ShapeError(f"layer_norm requires 2-D input with at least 2 features, "
                         f"got shape {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/shift must have shape ({d},)")
    mean = x.data.mean(axis=1, keepdims=True)
    xm = x.data - mean
    var = (xm * xm).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat = xm * inv
    out = Tensor(gain.data * xhat + shift.data)

    def bwd(g):
        if shift.requires_grad:
            shift.accumulate_grad(g.sum(axis=0))
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data
            gx = inv * (gh - gh.mean(axis=1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=1, keepdims=True))
            x.accumulate_grad(gx)

    return _record(out, (x, gain, shift), bwd, macs=2 * x.data.size)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


# ---------------------------------------------------------------------------
# checkpoint format: JSON manifest + one flat little-endian blob
# ---------------------------------------------------------------------------

def save_checkpoint(params: dict, manifest_path, blob_path):
    """Write named tensors as a JSON manifest plus one flat LE binary blob."""
    entries = []
    offset = 0
    chunks = []
    for name in sorted(params):
        t = params[name]
        raw = np.ascontiguousarray(t.data).astype(t.data.dtype.newbyteorder("<")).tobytes()
        entries.append({
            "name": name,
            "shape": list(t.data.shape),
            "precision": t.precision,
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    with open(manifest_path, "w") as f:
        json.dump({"tensors": entries, "total_bytes": offset,
                   "sha256": hashlib.sha256(blob).hexdigest()}, f, indent=2)
    with open(blob_path, "wb") as f:
        f.write(blob)


def load_checkpoint(manifest_path, blob_path) -> dict:
    """Read a checkpoint written by `save_checkpoint`.  CheckpointError names
    the missing key of a malformed manifest, the tensor of an entry with an
    unknown precision or a byte span that does not fit its shape or the
    blob, and the files of a blob whose SHA-256 differs from the manifest's."""
    with open(blob_path, "rb") as f:
        blob = f.read()
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        if len(blob) != manifest["total_bytes"]:
            raise CheckpointError(f"checkpoint blob is {len(blob)} bytes, "
                                  f"manifest says {manifest['total_bytes']}")
        if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
            raise CheckpointError(f"checkpoint blob {blob_path} fails the SHA-256 "
                                  f"of {manifest_path}")
        out = {}
        for e in manifest["tensors"]:
            if e["precision"] not in DTYPES:
                raise CheckpointError(f"checkpoint tensor {e['name']!r} has unknown "
                                      f"precision {e['precision']!r}")
            dt = np.dtype(DTYPES[e["precision"]]).newbyteorder("<")
            count = int(np.prod(e["shape"]))
            if e["nbytes"] != count * dt.itemsize:
                raise CheckpointError(f"checkpoint tensor {e['name']!r}: {e['nbytes']} bytes "
                                      f"do not hold shape {e['shape']}")
            if e["offset"] < 0 or e["offset"] + e["nbytes"] > manifest["total_bytes"]:
                raise CheckpointError(f"checkpoint tensor {e['name']!r} runs past the "
                                      f"{manifest['total_bytes']}-byte blob")
            arr = np.frombuffer(blob, dtype=dt, count=count,
                                offset=e["offset"]).reshape(e["shape"])
            out[e["name"]] = Tensor(arr.astype(DTYPES[e["precision"]]).copy(),
                                    requires_grad=True)
        return out
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint manifest {manifest_path} is not JSON: {e}") from e
    except KeyError as e:
        raise CheckpointError(f"checkpoint manifest {manifest_path} lacks key {e}") from e
