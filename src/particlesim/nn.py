"""Shared model plumbing: configuration, parameter registry, MLP blocks."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

BACKBONES = ("gnn", "vanilla", "tie")
OUT_DIM = 3  # the decoder predicts one velocity per particle

_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _fits(value, annotation: str) -> bool:
    if annotation.startswith("tuple["):  # tuple[<item>, ...]; JSON gives lists
        item = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    kind = _FIELD_TYPES[annotation]
    # JSON reads NaN and Infinity, so a float must also be finite
    return (isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
            and (annotation != "float" or abs(value) < math.inf))


def check_field_types(fields, values: dict) -> None:
    """Raise ValueError naming the first key of `values` whose value does not
    fit its annotation (config files and --set overrides arrive as untyped
    JSON).  `fields` is a dataclass or a {name: annotation} map; keys it does
    not name are skipped.  Annotations are int, float, bool, str or
    tuple[<one of those>, ...].  A bool is not a number here, and a float
    must be finite."""
    if not isinstance(fields, dict):
        fields = {f.name: f.type for f in dataclasses.fields(fields)}
    for name, value in values.items():
        if name in fields and not _fits(value, fields[name]):
            kind = fields[name].replace("float", "finite float")
            raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass
class ModelConfig:
    backbone: str = "tie"
    d_in: int = 7
    d: int = 128
    heads: int = 4
    blocks: int = 4
    mlp_hidden: int = 256
    n_abstract: int = 0
    normalized_attention: bool = True
    radius: float = 0.08
    history: int = 1
    precision: str = "f32"

    def __post_init__(self):
        check_field_types(ModelConfig, vars(self))
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.precision not in T.DTYPES:
            raise ValueError(f"precision must be one of {', '.join(T.DTYPES)}, "
                             f"got {self.precision!r}")
        for name in ("d", "heads", "blocks", "history", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.n_abstract < 0:
            raise ValueError(f"n_abstract must not be negative, got {self.n_abstract}")
        if self.d % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d ({self.d})")

    @property
    def d_head(self) -> int:
        return self.d // self.heads


def glorot(rng: np.random.Generator, shape, dtype: str) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(T.DTYPES[dtype])


class ParamStore:
    """Named trainable tensors, created deterministically from one seed."""

    def __init__(self, precision: str, seed: int):
        self.precision = precision
        self.rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}

    def weight(self, name: str, shape, heads: int = 1) -> Tensor:
        """Glorot-initialised weight; with heads > 1, one block of `shape` per
        head, drawn in head order and joined as columns (block h is head h)."""
        blocks = [glorot(self.rng, shape, self.precision) for _ in range(heads)]
        t = Tensor(np.concatenate(blocks, axis=1), requires_grad=True)
        self._params[name] = t
        return t

    def zeros(self, name: str, shape) -> Tensor:
        t = Tensor(np.zeros(shape, dtype=T.DTYPES[self.precision]), requires_grad=True)
        self._params[name] = t
        return t

    def ones(self, name: str, shape) -> Tensor:
        t = Tensor(np.ones(shape, dtype=T.DTYPES[self.precision]), requires_grad=True)
        self._params[name] = t
        return t

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def load(self, values: dict[str, Tensor]):
        missing = [name for name in self._params if name not in values]
        if missing:
            raise T.CheckpointError(f"checkpoint missing parameters: {', '.join(missing)}")
        for name, t in self._params.items():
            if tuple(values[name].data.shape) != tuple(t.data.shape):
                raise T.CheckpointError(f"checkpoint parameter {name}: shape "
                                        f"{values[name].data.shape} != expected {t.data.shape}")
            t.data = values[name].data.astype(t.data.dtype).copy()


class Mlp:
    """Two-layer perceptron with relu, y = relu(x W1 + b1) W2 + b2, one
    `tensor.mlp` call.  x may be a list of column blocks, which face the row
    blocks of W1 in order, so a caller need not join its inputs; a block may
    be a pair (tensor, rows), the rows `rows` of the tensor."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_hidden: int, d_out: int):
        self.w1 = store.weight(f"{name}.w1", (d_in, d_hidden))
        self.b1 = store.zeros(f"{name}.b1", (d_hidden,))
        self.w2 = store.weight(f"{name}.w2", (d_hidden, d_out))
        self.b2 = store.zeros(f"{name}.b2", (d_out,))

    def __call__(self, x: Tensor | list) -> Tensor:
        xs = [x] if isinstance(x, Tensor) else x
        return T.mlp(xs, self.w1, self.b1, self.w2, self.b2)

