"""Reference integrator for small multi-material particle worlds, rollout
generation, and binary dataset serialization.

The worlds are spring-damper systems stepped with semi-implicit Euler:
pairwise short-range spring-damper forces, gravity, and wall impulses.
They stand in for the simulation engine that produced the learning targets;
any deterministic local-interaction integrator exercises the same model
pathways (multi-material systems, moving boundaries, stiff clusters).

The springs are the pairs within force_radius that
`particles.build_neighbor_graph` finds, the search the model uses: an
O(N^2) scan for small worlds, a cell list for large ones.  Each particle's
spring force is the sum of its pairs' forces in sender order, the order in
which the dense (N, N) sum, kept in tests/test_worlds.py as the oracle, adds
them; both give the same bits.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .nn import check_field_types
from .particles import SystemState, InputError, build_neighbor_graph

WORLD_KINDS = ("drop_merge", "box_splash", "grip_block", "box_wash")


class BlowUpError(RuntimeError):
    """A particle escaped the domain box by more than 10x the box size."""


class MetadataError(ValueError):
    """Dataset metadata file missing, malformed, or inconsistent."""


class TruncationError(IOError):
    """A rollout payload file is shorter or longer than the metadata implies."""


class ChecksumError(IOError):
    """A rollout payload failed its trailing checksum."""


@dataclass
class WorldSpec:
    kind: str = "box_splash"
    counts: tuple[int, ...] = (64,)  # particles per material
    dt: float = 0.005
    gravity: tuple[float, ...] = (0.0, -9.8, 0.0)
    stiffness: float = 300.0
    damping: float = 4.0
    rest_length: float = 0.06
    force_radius: float = 0.09
    box_lo: tuple[float, ...] = (0.0, 0.0, 0.0)
    box_hi: tuple[float, ...] = (1.0, 1.0, 1.0)
    restitution: float = 0.4
    wall_amplitude: float = 0.15   # box_splash: x-min wall oscillation
    wall_period: float = 1.0
    plate_speed: float = 0.25      # grip_block: kinematic plate speed
    plate_reverse_step: int = 25
    rigid_stiffness_factor: float = 12.0  # box_wash: stiff intra-cluster springs
    spacing: float = 0.055

    def __post_init__(self):
        check_field_types(WorldSpec, vars(self))
        for name in ("counts", "gravity", "box_lo", "box_hi"):  # JSON gives lists
            setattr(self, name, tuple(getattr(self, name)))
        if self.kind not in WORLD_KINDS:
            raise InputError(f"unknown world kind {self.kind!r}")
        if not self.counts or any(c < 1 for c in self.counts):
            raise InputError(f"counts must name at least one material, each of >= 1 "
                             f"particles, got {list(self.counts)}")
        if self.kind in ("grip_block", "box_wash") and len(self.counts) != 2:
            raise InputError(f"counts of a {self.kind} world must name exactly 2 materials, "
                             f"got {list(self.counts)}")
        for name in ("gravity", "box_lo", "box_hi"):
            if len(getattr(self, name)) != 3:
                raise InputError(f"{name} must have 3 components, got {list(getattr(self, name))}")
        if any(lo >= hi for lo, hi in zip(self.box_lo, self.box_hi)):
            raise InputError(f"box_lo must be below box_hi on every axis, got "
                             f"{list(self.box_lo)} and {list(self.box_hi)}")
        for name in ("dt", "stiffness", "rest_length", "force_radius", "spacing",
                     "wall_period"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.damping < 0 or self.restitution < 0:
            raise InputError("damping and restitution must be non-negative")

    @property
    def n(self) -> int:
        return int(sum(self.counts))

    @property
    def k(self) -> int:
        return len(self.counts)

    def material_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.k), self.counts).astype(np.int64)


def _kinematic_mask(spec: WorldSpec) -> np.ndarray:
    ids = spec.material_ids()
    if spec.kind == "grip_block":
        return ids == 1  # plates are scripted
    return np.zeros(spec.n, dtype=bool)


def _springs(spec: WorldSpec, p: np.ndarray, ids: np.ndarray):
    """The springs: the pairs (i, j) of `build_neighbor_graph` at
    force_radius, in its (receiver, sender) order, with p_i - p_j, its
    length and the pair's stiffness.  The name is bound at import, so a
    wrapper installed on `particles.build_neighbor_graph` sees the model's
    searches only."""
    graph = build_neighbor_graph(p, spec.force_radius)
    i, j = graph.receivers, graph.senders
    # `take` gathers (N, 3) rows about 2.7x faster than fancy indexing
    diff = p.take(i, axis=0) - p.take(j, axis=0)
    dist = np.sqrt(np.einsum("ek,ek->e", diff, diff))
    k = np.full(dist.shape, spec.stiffness)
    if spec.kind == "box_wash":
        k[(ids[i] == 1) & (ids[j] == 1)] *= spec.rigid_stiffness_factor
    return i, j, diff, dist, k


def _spring_forces(spec: WorldSpec, p: np.ndarray, v: np.ndarray, ids: np.ndarray) -> np.ndarray:
    i, j, diff, dist, k = _springs(spec, p, ids)
    dirs = diff / dist[:, None]
    f_spring = -(k * (dist - spec.rest_length))[:, None] * dirs
    vrel = np.einsum("ek,ek->e", v.take(i, axis=0) - v.take(j, axis=0), dirs)
    f = f_spring - spec.damping * vrel[:, None] * dirs
    # each particle's pair forces, added in sender order
    return np.stack([np.bincount(i, f[:, ax], len(p)) for ax in range(3)], axis=1)


def _wall_position(spec: WorldSpec, step: int) -> float:
    # x-min wall of the box_splash domain; amplitude 0 keeps it static
    t = step * spec.dt
    return spec.box_lo[0] + spec.wall_amplitude * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / spec.wall_period))


def _wall_velocity(spec: WorldSpec, step: int) -> float:
    t = step * spec.dt
    return spec.wall_amplitude * np.pi / spec.wall_period * np.sin(2.0 * np.pi * t / spec.wall_period)


def step_oracle(spec: WorldSpec, state: SystemState) -> SystemState:
    """One semi-implicit Euler step of the reference world (unit masses)."""
    if state.n != spec.n:
        raise InputError(f"state has {state.n} particles, spec expects {spec.n}")
    p = state.positions.astype(np.float64)
    v = state.velocities.astype(np.float64)
    ids = state.material_ids
    kin = _kinematic_mask(spec)
    g = np.asarray(spec.gravity)

    v_new = v + spec.dt * (_spring_forces(spec, p, v, ids) + g)

    if spec.kind == "grip_block":
        # plates move inward along x, then reverse
        direction = -1.0 if state.time_step < spec.plate_reverse_step else 1.0
        sides = np.sign(p[:, 0] - 0.5 * (spec.box_lo[0] + spec.box_hi[0]))
        v_new[kin] = 0.0
        v_new[kin, 0] = direction * spec.plate_speed * sides[kin]

    if spec.kind in ("box_splash", "box_wash", "grip_block"):
        lo = np.asarray(spec.box_lo, dtype=np.float64).copy()
        hi = np.asarray(spec.box_hi, dtype=np.float64)
        wall_v = 0.0
        if spec.kind == "box_splash":
            lo[0] = _wall_position(spec, state.time_step)
            wall_v = _wall_velocity(spec, state.time_step)
        p_pred = p + spec.dt * v_new
        for ax in range(3):
            wv = wall_v if ax == 0 else 0.0
            low_hit = (~kin) & (p_pred[:, ax] < lo[ax]) & (v_new[:, ax] < wv)
            v_new[low_hit, ax] = wv - spec.restitution * (v_new[low_hit, ax] - wv)
            high_hit = (~kin) & (p_pred[:, ax] > hi[ax]) & (v_new[:, ax] > 0)
            v_new[high_hit, ax] = -spec.restitution * v_new[high_hit, ax]
    elif spec.kind == "drop_merge":
        # free space above a floor plane at y = box_lo[1]
        p_pred = p + spec.dt * v_new
        floor = spec.box_lo[1]
        hit = (p_pred[:, 1] < floor) & (v_new[:, 1] < 0)
        v_new[hit, 1] = -spec.restitution * v_new[hit, 1]

    p_new = p + spec.dt * v_new

    box_scale = max(np.asarray(spec.box_hi) - np.asarray(spec.box_lo))
    if np.abs(p_new - 0.5 * (np.asarray(spec.box_lo) + np.asarray(spec.box_hi))).max() > 10.0 * box_scale:
        raise BlowUpError(f"particle escaped the domain at step {state.time_step}")
    if not np.isfinite(p_new).all() or not np.isfinite(v_new).all():
        raise BlowUpError(f"non-finite state at step {state.time_step}")

    return SystemState(p_new, v_new, state.attributes, ids, state.time_step + 1)


def _lattice(count: int, spacing: float, center: np.ndarray, rng) -> np.ndarray:
    side = int(np.ceil(count ** (1.0 / 3.0)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = grid[:count].astype(np.float64) * spacing
    pts -= pts.mean(axis=0)
    jitter = rng.uniform(-0.05 * spacing, 0.05 * spacing, size=pts.shape)
    return pts + center + jitter


def one_hot_attributes(material_ids: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k, dtype=np.float64)[material_ids]


def initial_state(spec: WorldSpec, seed: int) -> SystemState:
    rng = np.random.default_rng(seed)
    ids = spec.material_ids()
    attrs = one_hot_attributes(ids, spec.k)
    lo = np.asarray(spec.box_lo)
    hi = np.asarray(spec.box_hi)
    mid = 0.5 * (lo + hi)
    if spec.kind == "drop_merge":
        n1 = spec.counts[0] // 2 if spec.k == 1 else spec.counts[0]
        c1 = mid + np.array([rng.uniform(-0.1, 0.0), 0.25, rng.uniform(-0.05, 0.05)])
        c2 = mid + np.array([rng.uniform(0.0, 0.1), -0.05, rng.uniform(-0.05, 0.05)])
        p = np.vstack([_lattice(n1, spec.spacing, c1, rng),
                       _lattice(spec.n - n1, spec.spacing, c2, rng)])
        v = np.zeros_like(p)
    elif spec.kind == "box_splash":
        c = lo + np.array([rng.uniform(0.3, 0.5), 0.35, rng.uniform(0.35, 0.65)]) * (hi - lo)
        p = _lattice(spec.n, spec.spacing, c, rng)
        v = np.tile(rng.uniform(-0.3, 0.3, size=3), (spec.n, 1))
    elif spec.kind == "grip_block":
        n_blob = spec.counts[0]
        blob = _lattice(n_blob, spec.spacing, mid, rng)
        n_plate = spec.n - n_blob
        half = n_plate // 2
        extent = spec.spacing * max(2, int(np.sqrt(half)))
        gap = rng.uniform(0.18, 0.24)
        plates = []
        for side, cnt in ((-1.0, half), (1.0, n_plate - half)):
            rows = int(np.ceil(np.sqrt(cnt)))
            yz = np.stack(np.meshgrid(np.arange(rows), np.arange(rows), indexing="ij"),
                          axis=-1).reshape(-1, 2)[:cnt] * (extent / max(rows - 1, 1))
            plate = np.zeros((cnt, 3))
            plate[:, 0] = mid[0] + side * gap
            plate[:, 1:] = mid[1:] - extent / 2 + yz
            plates.append(plate)
        p = np.vstack([blob] + plates)
        v = np.zeros_like(p)
    else:  # box_wash
        c_fluid = lo + np.array([0.25, 0.3, 0.5]) * (hi - lo)
        c_rigid = lo + np.array([rng.uniform(0.6, 0.75), 0.25, rng.uniform(0.4, 0.6)]) * (hi - lo)
        p = np.vstack([_lattice(spec.counts[0], spec.spacing, c_fluid, rng),
                       _lattice(spec.counts[1], spec.spacing, c_rigid, rng)])
        v = np.zeros_like(p)
        v[:spec.counts[0]] += rng.uniform(-0.2, 0.2, size=3)
    if spec.kind != "drop_merge" and ((p < lo + 1e-3) | (p > hi - 1e-3)).any():
        raise InputError(f"{spec.kind} counts {list(spec.counts)} at spacing {spec.spacing} "
                         f"do not fit in the box; lower spacing or counts")
    return SystemState(p, v, attrs, ids, 0)


def generate_rollout(spec: WorldSpec, seed: int, n_steps: int) -> np.ndarray:
    """Simulate n_steps frames; returns (T, N, 6) float32 [px,py,pz,qx,qy,qz]."""
    if n_steps < 2:
        raise InputError("a rollout needs at least 2 frames")
    state = initial_state(spec, seed)
    frames = np.empty((n_steps, spec.n, 6), dtype=np.float32)
    for t in range(n_steps):
        frames[t, :, 0:3] = state.positions
        frames[t, :, 3:6] = state.velocities
        if t + 1 < n_steps:
            state = step_oracle(spec, state)
    return frames


# ---------------------------------------------------------------------------
# dataset container + serialization
# ---------------------------------------------------------------------------

@dataclass
class RolloutDataset:
    name: str
    spec: WorldSpec
    n_frames: int
    material_ids: np.ndarray
    train: list = field(default_factory=list)  # (T, N, 6) float32 each
    valid: list = field(default_factory=list)

    @property
    def d_a(self) -> int:
        return self.spec.k

    @property
    def attributes(self) -> np.ndarray:
        return one_hot_attributes(self.material_ids, self.spec.k)


def generate_dataset(spec: WorldSpec, n_train: int, n_valid: int, n_frames: int,
                     seed: int = 0, name: str = "") -> RolloutDataset:
    for split, count in (("train", n_train), ("valid", n_valid)):
        if count < 0:
            raise InputError(f"{split} rollout count must be >= 0, got {count}")
    ds = RolloutDataset(name or spec.kind, spec, n_frames, spec.material_ids())
    for i in range(n_train):
        ds.train.append(generate_rollout(spec, seed * 100003 + i, n_frames))
    for i in range(n_valid):
        ds.valid.append(generate_rollout(spec, seed * 100003 + 70001 + i, n_frames))
    return ds


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:8]


def write_rollout_file(frames: np.ndarray, path):
    payload = np.ascontiguousarray(frames, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(payload)
        f.write(_payload_checksum(payload))


def read_rollout_file(path, n_frames: int, n: int) -> np.ndarray:
    expected = n_frames * n * 6 * 4
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) != expected + 8:
        raise TruncationError(f"{path}: expected {expected + 8} bytes, found {len(raw)}")
    payload, tail = raw[:expected], raw[expected:]
    if _payload_checksum(payload) != tail:
        raise ChecksumError(f"{path}: checksum mismatch")
    return np.frombuffer(payload, dtype="<f4").reshape(n_frames, n, 6).astype(np.float32)


def write_dataset(ds: RolloutDataset, path):
    os.makedirs(path, exist_ok=True)
    meta = {
        "name": ds.name,
        "kind": ds.spec.kind,
        "n": ds.spec.n,
        "k": ds.spec.k,
        "d_a": ds.d_a,
        "dt": ds.spec.dt,
        "n_frames": ds.n_frames,
        "counts": {"train": len(ds.train), "valid": len(ds.valid)},
        "material_ids": ds.material_ids.tolist(),
        "world_spec": asdict(ds.spec),
    }
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    for split, rollouts in (("train", ds.train), ("valid", ds.valid)):
        os.makedirs(os.path.join(path, split), exist_ok=True)
        for i, frames in enumerate(rollouts):
            write_rollout_file(frames, os.path.join(path, split, f"rollout_{i:05d}.bin"))


def read_dataset(path) -> RolloutDataset:
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    except FileNotFoundError as e:
        raise MetadataError(f"missing {meta_path}") from e
    except json.JSONDecodeError as e:
        raise MetadataError(f"malformed {meta_path}: {e}") from e
    if not isinstance(meta, dict):
        raise MetadataError(f"{meta_path} is not a JSON object")
    required = {"name", "kind", "n", "k", "dt", "n_frames", "counts", "material_ids", "world_spec"}
    missing = required - meta.keys()
    if missing:
        raise MetadataError(f"{meta_path} missing keys: {sorted(missing)}")
    try:
        spec = WorldSpec(**meta["world_spec"])
    except (TypeError, ValueError) as e:
        raise MetadataError(f"{meta_path}: bad world_spec: {e}") from e
    counts = meta["counts"] if isinstance(meta["counts"], dict) else {}
    for split in ("train", "valid"):
        c = counts.get(split)
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise MetadataError(f"{meta_path}: counts.{split} must be a non-negative int, "
                                f"got {c!r}")
    n_frames = meta["n_frames"]
    if not isinstance(n_frames, int) or isinstance(n_frames, bool) or n_frames < 2:
        raise MetadataError(f"{meta_path}: n_frames must be an int >= 2, got {n_frames!r}")
    try:
        ids = np.asarray(meta["material_ids"], dtype=np.int64)
    except (TypeError, ValueError) as e:
        raise MetadataError(f"{meta_path}: bad material_ids: {e}") from e
    if ids.shape != (spec.n,):
        raise MetadataError(f"dataset {path}: {ids.size} material_ids for the {spec.n} "
                            f"particles of its world_spec")
    if ids.min() < 0 or ids.max() >= spec.k:
        raise MetadataError(f"dataset {path}: material_ids {ids.min()}..{ids.max()} fall "
                            f"outside the {spec.k} materials [0, {spec.k}) of its world_spec")
    ds = RolloutDataset(meta["name"], spec, n_frames, ids)
    for split in ("train", "valid"):
        for i in range(counts[split]):
            fp = os.path.join(path, split, f"rollout_{i:05d}.bin")
            frames = read_rollout_file(fp, ds.n_frames, spec.n)
            getattr(ds, split).append(frames)
    return ds

