"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

The primitive set is the minimal closure needed by the simulation models:
matrix products (also per head, over column blocks), elementwise arithmetic,
relu, concat/slice/gather, segment reductions, masked and segmented softmax,
layer norm, the fused two-layer perceptron `mlp` over input column blocks
(whole tensors or rows of one), and two fused attention kernels over a
per-graph `PairIndex`: dot-product `pair_attention` and normalized
`implicit_edge_attention`.
Everything is numpy-backed; two precision modes (f32, f64) are supported
and never mixed inside one graph.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
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
    out: Optional[Tensor]  # None once `backward` has passed the entry
    backward_fn: Optional[Callable[[np.ndarray], None]]
    macs: int
    scope: str
    backward_ms: float = 0.0  # wall time of backward_fn, set by `backward`


class Tape:
    """Ordered record of primitive applications.

    Replaying the entries in reverse propagates gradients to every
    requires_grad tensor reachable from the loss.  Entries also carry a
    multiply-accumulate count tagged with the active scope label, which
    the benchmark module reads back, and the wall time of their backward.
    A tape replays once: the replay releases each entry's output and saved
    arrays as it passes, and keeps only the counts and times.
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
    """Propagate gradients from a scalar loss through the tape, timing each
    entry's backward and releasing, entry by entry, the used gradient, the
    output and the backward function with the arrays it saved."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if tape.entries and tape.entries[-1].backward_fn is None:
        raise ContractError("backward: the tape was already replayed")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        out, backward_fn = entry.out, entry.backward_fn
        entry.out = entry.backward_fn = None
        g = out.grad
        if g is None or not out.requires_grad:
            continue
        t0 = time.perf_counter()
        backward_fn(g)
        entry.backward_ms = (time.perf_counter() - t0) * 1000.0
        out.grad = None


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


def mlp(xs: list, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer perceptron relu(sum_k x_k W1_k + b1) W2 + b2 over the input
    column blocks xs, W1_k the row block of w1 facing x_k, so the inputs are
    never joined.  A block may be a pair (tensor, rows): x_k is then those
    rows of the tensor, gathered for its product and again in the backward,
    so the tape keeps no copy; the row sums of their gradient add into the
    tensor as `gather_rows` would.  Only the hidden h = relu(.) is kept for
    the backward; its relu mask is h > 0.  MACs: the two products,
    m * in * hid + m * hid * out."""
    blocks = [(x, None) if isinstance(x, Tensor) else (x[0], np.asarray(x[1], dtype=np.int64))
              for x in xs]
    srcs = [x for x, _ in blocks]
    _check_dtype(*srcs, w1, b1, w2, b2)
    heights = [x.data.shape[0] if idx is None else idx.shape[0] for x, idx in blocks]
    m = heights[0]
    offsets = np.cumsum([0] + [x.data.shape[-1] for x in srcs]).tolist()
    (n_in, hid), n_out = w1.data.shape, w2.data.shape[-1]
    if (any(x.data.ndim != 2 for x in srcs) or any(h != m for h in heights)
            or offsets[-1] != n_in or b1.data.shape != (hid,) or w2.data.shape != (hid, n_out)
            or b2.data.shape != (n_out,)):
        raise ShapeError(f"mlp: inputs {[x.data.shape for x in srcs]} of {heights} rows vs "
                         f"layers {w1.data.shape} {b1.data.shape} {w2.data.shape} {b2.data.shape}")
    rows_of = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]

    def block(k):
        x, idx = blocks[k]
        return x.data if idx is None else x.data[idx]

    h = block(0) @ w1.data[rows_of[0]]
    for k in range(1, len(blocks)):
        h += block(k) @ w1.data[rows_of[k]]
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = Tensor(h @ w2.data)
    out.data += b2.data

    def bwd(g):
        if b2.requires_grad:
            b2.accumulate_grad(g.sum(axis=0))
        if w2.requires_grad:
            w2.accumulate_grad(h.T @ g)
        gh = g @ w2.data.T
        np.multiply(gh, h > 0, out=gh)
        if b1.requires_grad:
            b1.accumulate_grad(gh.sum(axis=0))
        if w1.requires_grad:
            dw1 = np.empty_like(w1.data)
            for k, rows_k in enumerate(rows_of):
                np.matmul(block(k).T, gh, out=dw1[rows_k])
            w1.accumulate_grad(dw1)
        # plain blocks in order, then row blocks in reverse: the order in which
        # the gradients reach a tensor behind `gather_rows` entries taped
        # before this one
        plain = [k for k, (_, idx) in enumerate(blocks) if idx is None]
        gathered = [k for k, (_, idx) in enumerate(blocks) if idx is not None]
        for k in plain + gathered[::-1]:
            x, idx = blocks[k]
            if x.requires_grad:
                gx = gh @ w1.data[rows_of[k]].T
                x.accumulate_grad(gx if idx is None
                                  else _row_sums(_RowSums(idx, x.data.shape[0]), gx))

    return _record(out, (*srcs, w1, b1, w2, b2), bwd, macs=m * n_in * hid + m * hid * n_out)


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


class _RowSums:
    """Plan of the sums out[r] = sum of values[i] over the i with idx[i] = r,
    r < n, added in index order, and the one padded layout of a list of
    rows.  A row of degree k pads to the power of two at or above k up to 8,
    and to the multiple of 8 at or above k beyond that.  Every row pads to
    less than twice its degree, so one row of degree N does not widen the
    others, and rows of degree above 8 pad by at most 7 slots:
    neighbor-search and `bench.synthesize_pairs` graphs of mean degree 15-20
    take about 1.25 slots per entry.

    `buckets` holds per padded width K, ascending, its rows (R,) in degree
    order, descending (rows of degree 0 are left out), the (R, K) table of
    their value positions in index order, and the list m: column k holds
    entries for the first m[k] rows only.  Padding repeats a valid position."""

    def __init__(self, idx: np.ndarray, n: int):
        deg = np.bincount(idx, minlength=n)
        starts = np.concatenate(([0], np.cumsum(deg)))
        entries = np.argsort(idx, kind="stable")  # by row, in index order within a row
        width = np.where(deg > 8, (deg + 7) // 8 * 8, _SMALL_WIDTH[np.minimum(deg, 8)])
        by_degree = np.argsort(-deg, kind="stable")  # sorts the rows of every bucket
        self.n, self.buckets = n, []
        for k in np.unique(width[deg > 0]):
            rows = by_degree[width[by_degree] == k]
            cols = np.arange(k)
            m = (cols < deg[rows, None]).sum(axis=0).tolist()
            self.buckets.append((rows, entries.take(starts[rows, None] + cols, mode="clip"), m))


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


def check_pairs(recv, send, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair list (receivers, senders) over n rows as int64 arrays;
    ShapeError unless both are 1-D of one length with every index in
    [0, n)."""
    recv = np.asarray(recv, dtype=np.int64)
    send = np.asarray(send, dtype=np.int64)
    if recv.shape != send.shape or recv.ndim != 1:
        raise ShapeError(f"pair list: receivers {recv.shape} vs senders {send.shape}")
    if recv.size and (min(recv.min(), send.min()) < 0 or max(recv.max(), send.max()) >= n):
        raise ShapeError(f"pair list: particle index outside [0, {n})")
    return recv, send


# Slots per row tile of a `PairIndex` bucket: a kernel pass gathers at most
# 1.1 MB for a tile at d=128 in f32, which stays in a core's 2 MiB L2 until
# the multiply reads it back.
TILE_SLOTS = 2048


@dataclass
class _Bucket:
    """One row tile of a padded width K of one side of a `PairIndex`: its
    rows, receivers or senders, in degree order, descending, each with its
    pairs in pair-list order.  Padding repeats a valid pair."""
    rows: np.ndarray          # (R,)
    valid: np.ndarray         # (R, K) the slot holds a pair of its row
    other: np.ndarray         # (R, K) the other end of each slot's pair
    at: slice | np.ndarray    # its slots: a run of R * K, or an (R, K) table

    def slots(self, buf: np.ndarray) -> np.ndarray:
        """(R, K, ...) slots of the bucket in a slot buffer: a view of a run,
        a gathered copy of a table."""
        return buf[self.at].reshape(*self.valid.shape, *buf.shape[1:])

    def tiles(self) -> list["_Bucket"]:
        """The bucket cut into consecutive runs of rows, each of at most
        TILE_SLOTS slots or of one wider row."""
        R, K = self.valid.shape
        step = max(1, TILE_SLOTS // K)
        return [_Bucket(self.rows[r:r + step], self.valid[r:r + step], self.other[r:r + step],
                        self.at[r:r + step] if isinstance(self.at, np.ndarray)
                        else slice(self.at.start + r * K, self.at.start + min(r + step, R) * K))
                for r in range(0, R, step)]


class PairIndex:
    """Receiver- and sender-side layouts of one pair list.

    Each side is a list of `_Bucket`s, the row tiles of each padded width of
    the side's `_RowSums` plan, so one width rule pads both.  A tile holds at
    most TILE_SLOTS slots, or one wider row, so a kernel's pass over it
    works in cache.  The receiver buckets, `recv_buckets`, are runs of one
    padded slot space of size `n_slots`, bucket after bucket, row-major,
    each receiver's pairs in pair-list order (any order of the list works);
    `other` holds their senders.  The sender buckets, `send_buckets`, hold
    each sender's slots in pair-list order as a table into that space;
    `other` holds their receivers.  Sums over a receiver's or a sender's
    pairs then become batched matmuls over these tables, with no sort, mask
    or unbuffered scatter per call.  The receiver side is built with the
    index; the sender side, which only the kernels' backwards read, on its
    first read, so an untaped forward never builds it.

    The index also owns the slot workspace of the attention kernels: one
    buffer per role (`slot_buffer`), made on first use and reused by every
    bucket and block for as long as the graph lives, and made again when a
    call asks for another row shape.  "gather" holds one tile's gathered
    rows and is sized by the largest tile of the sides built so far;
    "scalars" `pair_attention`'s dz and alpha per slot, (2, H); "to_sender"
    `implicit_edge_attention`'s return of each pair to its sender, (H, D + 1).
    Both kernels sum their sender side from these slots with one masked
    batched matmul per sender bucket.  A kernel call keeps nothing in them
    once it returns, so calls and backwards on one index may interleave in
    any order.
    """

    def __init__(self, recv: np.ndarray, send: np.ndarray, n: int):
        recv, send = check_pairs(recv, send, n)
        self.n, self.e = n, recv.size
        self.recv_buckets: list[_Bucket] = []
        pair_slot = np.empty(self.e, dtype=np.int64)
        lo = 0
        for rows, table, m in _RowSums(recv, n).buckets:
            valid = np.arange(rows.size)[:, None] < m
            pair_slot[table[valid]] = lo + np.flatnonzero(valid)
            self.recv_buckets += _Bucket(rows, valid, send[table],
                                         slice(lo, lo + valid.size)).tiles()
            lo += valid.size
        self.n_slots = lo
        self._pairs = recv, send, pair_slot  # what `send_buckets` is built from
        self._buffers: dict[str, np.ndarray] = {}

    @functools.cached_property
    def send_buckets(self) -> list[_Bucket]:
        """The sender side, built on its first read."""
        recv, send, pair_slot = self._pairs
        return [tile for rows, table, m in _RowSums(send, self.n).buckets
                for tile in _Bucket(rows, np.arange(rows.size)[:, None] < m,
                                    recv[table], pair_slot[table]).tiles()]

    def slot_buffer(self, role: str, tail: tuple, dt) -> np.ndarray:
        """The workspace buffer `role` of shape (rows, *tail): one entry per
        slot of the largest tile built so far for "gather", per padded slot
        otherwise; its contents are left to the caller."""
        if role == "gather":
            built = self.recv_buckets + self.__dict__.get("send_buckets", [])
            rows = max((b.valid.size for b in built), default=0)
        else:
            rows = self.n_slots
        buf = self._buffers.get(role)
        if buf is None or buf.shape != (rows, *tail) or buf.dtype != dt:
            buf = np.empty((rows, *tail), dtype=dt)
            self._buffers[role] = buf
        return buf


def _by_head(a: np.ndarray, heads: int) -> np.ndarray:
    return a.reshape(a.shape[0], heads, a.shape[1] // heads)


def _heads_as_cols(a: np.ndarray) -> np.ndarray:
    """(H, m, D) -> (m, H * D), head h as column block h."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _centred(a: np.ndarray) -> np.ndarray:
    """`a` less its mean over the last axis, the means taken as one
    matrix-vector product over all rows rather than a reduction per row."""
    D = a.shape[-1]
    means = a.reshape(-1, D) @ np.full(D, 1.0 / D, dtype=a.dtype)
    return a - means.reshape(*a.shape[:-1], 1)


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
    # the max over a (K, R, H) copy is K - 1 elementwise maxima, not a
    # reduction along the short last axis; a max is exact either way
    alpha -= np.ascontiguousarray(alpha.transpose(2, 0, 1)).max(axis=0)[..., None]
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=2, keepdims=True)
    return alpha


def _gather(buf: np.ndarray, a: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows of the (N', H, D) array `a` at the (R, K) table `at`, written at
    the front of the contiguous slot buffer `buf`, whatever its row shape;
    returned as an (R, H, K, D) view."""
    out = buf.reshape(-1)[:at.size * a.shape[1] * a.shape[2]].reshape(*at.shape, *a.shape[1:])
    np.take(a, at, axis=0, out=out, mode="clip")
    return out.transpose(0, 2, 1, 3)


def pair_attention(q: Tensor, k: Tensor, v: Tensor, index: PairIndex, heads: int) -> Tensor:
    """Fused softmax-aggregate of dot-product attention over all heads.

    q, k and v are (N', d) with heads as column blocks of width D = d/heads.
    Per head and receiver i, over the pairs (i, j) of `index`:

        alpha_ij = softmax_j(q_i . k_j / sqrt(D)),   out_i = sum_j alpha_ij v_j.

    Receivers without pairs get zero.  MACs: the two D-length products per
    pair (q . k and the aggregate) and the logit scale per pair and head.

    The backward's pass over the receiver buckets gives dq and keeps each
    slot's dz and alpha; a pass over the sender buckets forms
    dk_j = sum_i dz_ij q'_i and dv_j = sum_i alpha_ij g_i, one batched
    matmul per role and bucket.  No vector is written per slot.
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
    for b in index.recv_buckets:  # b.other: the senders
        kb = _gather(gather, kh, b.other)  # (R, H, K, D)
        logits = np.matmul(qh[b.rows][:, :, None], kb.transpose(0, 1, 3, 2))[:, :, 0]
        alpha = _slot_softmax(logits, b.valid)
        out[b.rows] = np.matmul(alpha[:, :, None], _gather(gather, vh, b.other))[:, :, 0]
        alphas.append(alpha)
    result = Tensor(out.reshape(n, d))

    def bwd(g):
        send_buckets = index.send_buckets  # built on the first backward
        gather = index.slot_buffer("gather", (heads, D), dt)
        gh = _by_head(g, heads)
        dq = np.zeros((n, heads, D), dtype=dt)
        # per padded slot, dz (for k) in row 0 and alpha (for v) in row 1; k
        # and v are gathered again rather than kept from the forward
        scalars = index.slot_buffer("scalars", (2, heads), dt)
        for b, alpha in zip(index.recv_buckets, alphas):
            vb = _gather(gather, vh, b.other)
            dz = np.matmul(gh[b.rows][:, :, None], vb.transpose(0, 1, 3, 2))[:, :, 0]
            dz -= (alpha * dz).sum(axis=2, keepdims=True)
            dz *= alpha
            dq[b.rows] = np.matmul(dz[:, :, None], _gather(gather, kh, b.other))[:, :, 0]
            slots = b.slots(scalars).transpose(0, 2, 3, 1)  # (R, 2, H, K)
            slots[:, 0] = dz
            slots[:, 1] = alpha
        # fresh dk and dv: accumulate_grad keeps the first gradient as it arrives
        roles = [(row, x, t, np.zeros((n, heads, D), dtype=dt))
                 for row, (x, t) in enumerate(((qh, k), (gh, v))) if t.requires_grad]
        for b in send_buckets:  # b.other: the receivers
            # (R, 2, H, 1, K); padding repeats a valid pair, so it is zeroed
            coef = np.where(b.valid[:, None, None, None],
                            b.slots(scalars).transpose(0, 2, 3, 1)[:, :, :, None], dt.type(0))
            for row, x, _, grad in roles:
                grad[b.rows] = np.matmul(coef[:, row], _gather(gather, x, b.other))[:, :, 0]
        for _, _, t, grad in roles:
            t.accumulate_grad(grad.reshape(n, d))
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

    The forward gathers each tile's sender rows [s_c,j, |s_c,j|^2, 1] and
    multiplies them by the receiver rows [q'_i, 0, q'_i . r_c,i] and
    [2 r_c,i, 1, |r_c,i|^2] / D, q' = q / sqrt(D): one matmul per tile gives
    each pair's logit before its 1 / sigma and its sigma^2, and the
    aggregate's last column sum_j alpha_ij / sigma_ij.  The backward's pass
    over the receiver buckets gives dq and dr, and writes each slot's return
    to its sender, an (H, D + 1) row, with one matmul per bucket; a pass
    over the sender buckets gathers those rows and sums each sender's with
    one batched matmul per bucket against its validity mask.
    """
    D = _head_width("implicit_edge_attention", index, heads, q, r, s)
    n, d = s.data.shape
    dt = s.data.dtype
    inv_root = dt.type(1.0 / dt.type(np.sqrt(D)))
    qh = _by_head(q.data, heads) * inv_root  # q' = q / sqrt(D)
    rc = _centred(_by_head(r.data, heads))
    sc = _centred(_by_head(s.data, heads))
    senders = np.empty((n, heads, D + 2), dtype=dt)  # [s_c, |s_c|^2, 1]
    senders[..., :D] = sc
    np.einsum("nhd,nhd->nh", sc, sc, out=senders[..., D])
    senders[..., D + 1] = 1
    # [q', 0, q' . r_c] for the logit and [2 r_c, 1, |r_c|^2] / D for sigma^2
    receivers = np.empty((n, heads, 2, D + 2), dtype=dt)
    receivers[:, :, 0, :D] = qh
    receivers[:, :, 0, D] = 0
    np.einsum("nhd,nhd->nh", qh, rc, out=receivers[:, :, 0, D + 1])
    receivers[:, :, 1, :D] = rc * dt.type(2.0)
    receivers[:, :, 1, D] = 1
    np.einsum("nhd,nhd->nh", rc, rc, out=receivers[:, :, 1, D + 1])
    receivers[:, :, 1] *= dt.type(1.0 / D)
    gather = index.slot_buffer("gather", (heads, D + 2), dt)
    out = np.zeros((n, heads, D), dtype=dt)
    saved = []
    for b in index.recv_buckets:  # b.other: the senders
        S = _gather(gather, senders, b.other)  # (R, H, K, D + 2)
        # (R, H, 2, K): the logit z before its 1 / sigma, and sigma^2
        dots = np.matmul(receivers[b.rows], S.transpose(0, 1, 3, 2))
        z, sigma = dots[:, :, 0], dots[:, :, 1]
        keep = sigma > SIGMA_FLOOR
        np.sqrt(np.maximum(sigma, dt.type(SIGMA_FLOOR), out=sigma), out=sigma)
        z /= sigma
        alpha = _slot_softmax(z, b.valid)
        w = alpha / sigma
        # (R, H, D + 2): sum_j w_ij s_c,j in columns :D, sum_j w_ij in the last
        agg = np.matmul(w[:, :, None], S)[:, :, 0]
        out[b.rows] = agg[..., :D] + rc[b.rows] * agg[..., D + 1:]
        saved.append((dots, alpha, keep))
    result = Tensor(out.reshape(n, d))

    def bwd(g):
        send_buckets = index.send_buckets  # built on the first backward
        # (H, D + 1) rows: the sender pass gathers to-sender rows into them
        gather = index.slot_buffer("gather", (heads, D + 1), dt)
        gh = _by_head(g, heads)
        g_rc = np.einsum("nhd,nhd->nh", gh, rc)
        # what each pair sends back to its sender: w g_i + t q'_i + 2u r_c,i
        # in columns :D, and 2u, the pair's share of d|s_c|^2 times 2, in
        # column D, from the rows [g, 0], [q', 0] and [r_c, 1]
        g_q_rc = np.zeros((n, heads, 3, D + 1), dtype=dt)
        g_q_rc[..., :D] = np.stack([gh, qh, rc], axis=2)
        g_q_rc[:, :, 2, D] = 1
        dq = np.zeros((n, heads, D), dtype=dt)
        drc = np.zeros((n, heads, D), dtype=dt)
        to_sender = index.slot_buffer("to_sender", (heads, D + 1), dt)
        for b, (dots, alpha, keep) in zip(index.recv_buckets, saved):
            R, K = b.valid.shape
            z, sigma = dots[:, :, 0], dots[:, :, 1]
            # gathered again rather than kept: the forward's slots x d per
            # block would otherwise sit in memory until the reverse pass
            S = _gather(gather, sc, b.other)
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
            # (R, H, K, D + 1) products written straight into the slots
            np.matmul(coef.transpose(0, 1, 3, 2), g_q_rc[b.rows],
                      out=b.slots(to_sender).transpose(0, 2, 1, 3))
        if q.requires_grad:
            dq *= inv_root
            q.accumulate_grad(dq.reshape(n, d))
        if r.requires_grad:
            r.accumulate_grad(_centred(drc).reshape(n, d))
        if s.requires_grad:
            sent = to_sender.reshape(-1, heads * (D + 1))
            sums = np.zeros((n, heads * (D + 1)), dtype=dt)
            # the gather buffer holds the largest bucket of either side
            flat = gather.reshape(len(gather), heads * (D + 1))
            for b in send_buckets:
                # padding repeats a valid pair, so the (R, 1, K) validity mask sums it out
                rows_at = flat[:b.valid.size].reshape(*b.valid.shape, -1)
                np.take(sent, b.at, axis=0, out=rows_at, mode="clip")
                sums[b.rows] = np.matmul(b.valid[:, None], rows_at, dtype=dt)[:, 0]
            sums = sums.reshape(n, heads, D + 1)
            dsc = sums[..., :D] + sums[..., D:] * sc
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
    # one (n, d) temporary besides the output: xhat overwrites x - mean
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    out = Tensor(np.square(xhat))
    var = out.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    np.multiply(gain.data, xhat, out=out.data)
    out.data += shift.data

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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_checkpoint(manifest_path, blob_path) -> dict:
    """Read a checkpoint written by `save_checkpoint`.  CheckpointError names
    the manifest of one that is not a JSON object, lacks a key or whose
    `tensors` is not a list of objects; the tensor of an entry with a name
    that is not a string, an unknown precision, a shape that is not a list
    of non-negative ints, an offset or nbytes that is not an int, or a byte
    span that does not fit its shape or the blob; and the files of a blob
    whose SHA-256 differs from the manifest's."""
    with open(blob_path, "rb") as f:
        blob = f.read()
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        if not isinstance(manifest, dict):
            raise CheckpointError(f"checkpoint manifest {manifest_path} is not a JSON object")
        if len(blob) != manifest["total_bytes"]:
            raise CheckpointError(f"checkpoint blob is {len(blob)} bytes, "
                                  f"manifest says {manifest['total_bytes']}")
        if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
            raise CheckpointError(f"checkpoint blob {blob_path} fails the SHA-256 "
                                  f"of {manifest_path}")
        entries = manifest["tensors"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise CheckpointError(f"checkpoint manifest {manifest_path}: 'tensors' is not "
                                  "a list of objects")
        out = {}
        for e in entries:
            where = f"checkpoint tensor {e['name']!r} of {manifest_path}"
            if not isinstance(e["name"], str):
                raise CheckpointError(f"{where}: the name is not a string")
            if not isinstance(e["precision"], str) or e["precision"] not in DTYPES:
                raise CheckpointError(f"{where} has unknown precision {e['precision']!r}")
            if not (isinstance(e["shape"], list)
                    and all(_is_int(x) and x >= 0 for x in e["shape"])):
                raise CheckpointError(f"{where}: shape {e['shape']!r} is not a list of "
                                      "non-negative ints")
            if not (_is_int(e["offset"]) and _is_int(e["nbytes"])):
                raise CheckpointError(f"{where}: offset {e['offset']!r} and nbytes "
                                      f"{e['nbytes']!r} must be ints")
            dt = np.dtype(DTYPES[e["precision"]]).newbyteorder("<")
            count = int(np.prod(e["shape"]))
            if e["nbytes"] != count * dt.itemsize:
                raise CheckpointError(f"{where}: {e['nbytes']} bytes "
                                      f"do not hold shape {e['shape']}")
            if e["offset"] < 0 or e["offset"] + e["nbytes"] > manifest["total_bytes"]:
                raise CheckpointError(f"{where} runs past the "
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
