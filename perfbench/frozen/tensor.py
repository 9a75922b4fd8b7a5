"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

The primitive set is the minimal closure needed by the simulation models:
matrix products, elementwise arithmetic, relu, concat/slice/gather,
segment reductions, masked and segmented softmax, and layer norm.
Everything is numpy-backed; two precision modes (f32, f64) are supported
and never mixed inside one graph.
"""

from __future__ import annotations

import json
import struct
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class TapeEntry:
    out: Tensor
    parents: tuple
    backward_fn: Callable[[np.ndarray], None]
    macs: int
    scope: str


class Tape:
    """Ordered record of primitive applications.

    Replaying the entries in reverse propagates gradients to every
    requires_grad tensor reachable from the loss.  Entries also carry a
    multiply-accumulate count tagged with the active scope label, which
    the benchmark module reads back.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._scope = ""

    def __enter__(self):
        _push_tape(self)
        return self

    def __exit__(self, *exc):
        _pop_tape(self)
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

    def clear(self):
        self.entries.clear()


_TAPE_STACK: list[Tape] = []


def _push_tape(t: Tape):
    _TAPE_STACK.append(t)


def _pop_tape(t: Tape):
    assert _TAPE_STACK and _TAPE_STACK[-1] is t
    _TAPE_STACK.pop()


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, parents: tuple, backward_fn, macs: int = 0) -> Tensor:
    out.requires_grad = any(p.requires_grad for p in parents)
    tape = active_tape()
    if tape is not None:
        tape.entries.append(TapeEntry(out, parents, backward_fn, macs, tape._scope))
    return out


def _check_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed precision operands: {dt} vs {t.data.dtype}")


def backward(loss: Tensor, tape: Tape):
    """Propagate gradients from a scalar loss through the tape."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        g = entry.out.grad
        if g is None or not entry.out.requires_grad:
            continue
        entry.backward_fn(g)


def zero_grads(tape: Tape):
    for e in tape.entries:
        e.out.grad = None
        for p in e.parents:
            p.grad = None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _scatter_add_rows(acc: np.ndarray, idx: np.ndarray, values: np.ndarray):
    """acc[idx[i]] += values[i] for all i, with duplicate indices summed.

    For large row batches a stable sort + reduceat is far faster than
    np.add.at; both paths are deterministic.
    """
    if values.ndim == 1:
        acc += np.bincount(idx, weights=values, minlength=acc.shape[0]).astype(
            acc.dtype, copy=False)
        return
    if values.shape[0] > 64:
        order = np.argsort(idx, kind="stable")
        si = idx[order]
        sv = values[order]
        starts = np.flatnonzero(np.diff(si, prepend=si[0] - 1))
        acc[si[starts]] += np.add.reduceat(sv, starts, axis=0)
    else:
        np.add.at(acc, idx, values)


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
            full = np.zeros_like(a.data)
            if idx.size:
                _scatter_add_rows(full, idx, g)
            a.accumulate_grad(full)

    return _record(out, (a,), bwd)


def segment_sum(a: Tensor, seg_ids: np.ndarray, num_segments: int) -> Tensor:
    """Scatter-add rows of `a` into `num_segments` output rows."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if a.data.shape[0] != seg_ids.shape[0]:
        raise ShapeError(f"segment_sum: {a.data.shape[0]} rows vs {seg_ids.shape[0]} ids")
    shape = (num_segments,) + a.data.shape[1:]
    acc = np.zeros(shape, dtype=a.data.dtype)
    if seg_ids.size:
        _scatter_add_rows(acc, seg_ids, a.data)
    out = Tensor(acc)

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


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Row-wise layer normalization with elementwise gain and shift.

    Variance gets a fixed 1e-5 epsilon so constant rows normalize to zero
    instead of dividing by zero.
    """
    _check_dtype(x, gain, shift)
    data = x.data if x.data.ndim == 2 else x.data[None, :]
    d = data.shape[1]
    if d < 2:
        raise ShapeError("layer_norm requires at least 2 features")
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/shift must have shape ({d},)")
    mean = data.mean(axis=1, keepdims=True)
    xm = data - mean
    var = (xm * xm).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + data.dtype.type(LAYER_NORM_EPS))
    xhat = xm * inv
    y = gain.data * xhat + shift.data
    out = Tensor(y if x.data.ndim == 2 else y[0])

    def bwd(g):
        g2 = g if g.ndim == 2 else g[None, :]
        if shift.requires_grad:
            shift.accumulate_grad(g2.sum(axis=0))
        if gain.requires_grad:
            gain.accumulate_grad((g2 * xhat).sum(axis=0))
        if x.requires_grad:
            gh = g2 * gain.data
            gx = inv * (gh - gh.mean(axis=1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=1, keepdims=True))
            x.accumulate_grad(gx if x.data.ndim == 2 else gx[0])

    return _record(out, (x, gain, shift), bwd, macs=2 * data.size)


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
    with open(manifest_path, "w") as f:
        json.dump({"tensors": entries, "total_bytes": offset}, f, indent=2)
    with open(blob_path, "wb") as f:
        f.write(b"".join(chunks))


def load_checkpoint(manifest_path, blob_path) -> dict:
    with open(manifest_path) as f:
        manifest = json.load(f)
    with open(blob_path, "rb") as f:
        blob = f.read()
    if len(blob) != manifest["total_bytes"]:
        raise IOError(f"checkpoint blob is {len(blob)} bytes, manifest says {manifest['total_bytes']}")
    out = {}
    for e in manifest["tensors"]:
        dt = np.dtype(DTYPES[e["precision"]]).newbyteorder("<")
        arr = np.frombuffer(blob, dtype=dt, count=int(np.prod(e["shape"])) if e["shape"] else 1,
                            offset=e["offset"]).reshape(e["shape"])
        out[e["name"]] = Tensor(arr.astype(DTYPES[e["precision"]]).copy(), requires_grad=True)
    return out
