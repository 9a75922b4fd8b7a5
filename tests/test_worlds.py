"""Reference integrator invariants and dataset serialization."""

import hashlib
import json

import numpy as np
import pytest

from particlesim import worlds as W
from particlesim.particles import SystemState, InputError, SCAN_MAX_N
from particlesim.worlds import (WorldSpec, BlowUpError, MetadataError, TruncationError,
                                ChecksumError, step_oracle, initial_state,
                                generate_rollout, generate_dataset, write_dataset,
                                read_dataset, write_rollout_file, read_rollout_file,
                                one_hot_attributes)


def lone_particle_spec(**kw):
    kw.setdefault("kind", "drop_merge")
    kw.setdefault("counts", (1,))
    return WorldSpec(**kw)


def spring_potential_energy(spec, p, ids) -> float:
    """Total pair potential of the springs of `worlds._springs`."""
    _, _, _, dist, k = W._springs(spec, p, ids)
    stretch = dist - spec.rest_length
    # ordered pairs double-count each spring; 1/2 k s^2 per undirected pair
    return float(0.25 * (k * stretch * stretch).sum())


def state_of(p, v, t=0):
    return SystemState(np.asarray(p, float), np.asarray(v, float), t)


class TestStepOracle:
    def test_fixed_point_without_forces(self):
        spec = lone_particle_spec(gravity=(0.0, 0.0, 0.0))
        s0 = state_of([[0.5, 0.5, 0.5]], [[0.0, 0.0, 0.0]])
        s1 = step_oracle(spec, s0)
        assert np.array_equal(s1.positions, s0.positions)
        assert np.array_equal(s1.velocities, s0.velocities)
        assert s1.time_step == 1

    def test_free_fall_one_step(self):
        spec = lone_particle_spec()
        s0 = state_of([[0.5, 0.8, 0.5]], [[0.0, 0.0, 0.0]])
        s1 = step_oracle(spec, s0)
        # semi-implicit Euler: v1 = dt * g, p1 = p0 + dt * v1
        assert np.allclose(s1.velocities, [[0.0, -9.8 * 0.005, 0.0]], atol=1e-15)
        assert np.allclose(s1.positions, [[0.5, 0.8 - 0.005 * 9.8 * 0.005, 0.5]], atol=1e-15)

    def test_spring_forces_newton_third_law(self):
        spec = WorldSpec(kind="drop_merge", counts=(8,), gravity=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        p = 0.5 + 0.04 * rng.standard_normal((8, 3))
        v = 0.1 * rng.standard_normal((8, 3))
        f = W._spring_forces(spec, p, v, spec.material_ids())
        assert np.abs(f).max() > 0.1  # the springs act
        assert np.abs(f.sum(axis=0)).max() <= 1e-9

    def test_momentum_bookkeeping(self):
        # far above the floor, a step's momentum change is dt (sum F + N g)
        spec = WorldSpec(kind="drop_merge", counts=(6,))
        rng = np.random.default_rng(1)
        p = np.array([0.5, 0.6, 0.5]) + 0.03 * rng.standard_normal((6, 3))
        v = 0.05 * rng.standard_normal((6, 3))
        s0 = state_of(p, v)
        s1 = step_oracle(spec, s0)
        forces = W._spring_forces(spec, p, v, spec.material_ids()).sum(axis=0)
        dmom = s1.velocities.sum(axis=0) - s0.velocities.sum(axis=0)
        assert np.allclose(dmom, spec.dt * (forces + 6 * np.asarray(spec.gravity)), atol=1e-9)

    def test_damped_energy_non_increasing(self):
        spec = WorldSpec(kind="drop_merge", counts=(8,), gravity=(0.0, 0.0, 0.0),
                         damping=6.0, stiffness=100.0)
        rng = np.random.default_rng(2)
        p = 0.5 + 0.035 * rng.standard_normal((8, 3))
        state = state_of(p, np.zeros((8, 3)))

        def total_energy(s):
            return (0.5 * (s.velocities ** 2).sum()
                    + spring_potential_energy(spec, s.positions, spec.material_ids()))

        def topology(s):
            d = s.positions[:, None, :] - s.positions[None, :, :]
            dist = np.sqrt((d ** 2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            return frozenset(zip(*np.nonzero(dist < spec.force_radius)))

        # the potential jumps when a pair crosses the force radius, so only
        # steps with an unchanged active-spring set must dissipate
        checked = 0
        for _ in range(40):
            e0, top0 = total_energy(state), topology(state)
            state = step_oracle(spec, state)
            if topology(state) == top0:
                assert total_energy(state) - e0 <= 1e-6
                checked += 1
        assert checked >= 20

    def test_floor_bounce_reverses_velocity(self):
        spec = lone_particle_spec(gravity=(0.0, 0.0, 0.0), restitution=0.5)
        s0 = state_of([[0.5, 0.001, 0.5]], [[0.0, -1.0, 0.0]])
        s1 = step_oracle(spec, s0)
        assert s1.velocities[0, 1] == pytest.approx(0.5)

    def test_grip_block_plates_are_scripted(self):
        spec = WorldSpec(kind="grip_block", counts=(8, 8))
        state = initial_state(spec, seed=0)
        s1 = step_oracle(spec, state)
        plate = spec.material_ids() == 1
        assert np.allclose(np.abs(s1.velocities[plate, 0]), spec.plate_speed)
        assert np.allclose(s1.velocities[plate, 1:], 0.0)

    def test_box_wash_rigid_cluster_stiffer(self):
        spec = WorldSpec(kind="box_wash", counts=(4, 4), gravity=(0.0, 0.0, 0.0))
        # two particle pairs at identical stretch, one soft and one rigid
        p = np.zeros((8, 3))
        p[:, 1] = 0.5
        p[0, 0], p[1, 0] = 0.2, 0.28
        p[4, 0], p[5, 0] = 0.6, 0.68
        p[2, 0], p[3, 0], p[6, 0], p[7, 0] = 0.05, 0.1, 0.9, 0.95
        p[2, 1], p[3, 1], p[6, 1], p[7, 1] = 0.9, 0.8, 0.9, 0.8
        ids = spec.material_ids()
        f = W._spring_forces(spec, p, np.zeros((8, 3)), ids)
        assert abs(f[4, 0]) == pytest.approx(abs(f[0, 0]) * spec.rigid_stiffness_factor)

    def test_blow_up_detection(self):
        spec = lone_particle_spec()
        s0 = state_of([[0.5, 0.5, 0.5]], [[1e6, 0.0, 0.0]])
        with pytest.raises(BlowUpError):
            step_oracle(spec, s0)

    def test_non_finite_state_fails_in_the_spring_search(self):
        spec = lone_particle_spec()
        s0 = state_of([[np.nan, 0.5, 0.5]], [[0.0, 0.0, 0.0]])
        with pytest.raises(InputError, match="non-finite positions"):
            step_oracle(spec, s0)

    def test_count_mismatch(self):
        spec = lone_particle_spec()
        bad = state_of(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(InputError):
            step_oracle(spec, bad)


def dense_springs(spec, p, ids):
    """The dense spring geometry the pair list replaced: (diff, dist with an
    infinite diagonal, the pairs within force_radius, per-pair stiffness)."""
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    within = dist < spec.force_radius
    k = np.full(dist.shape, spec.stiffness)
    if spec.kind == "box_wash":
        rigid_pair = (ids[:, None] == 1) & (ids[None, :] == 1)
        k = np.where(rigid_pair, spec.stiffness * spec.rigid_stiffness_factor, k)
    return diff, dist, within, k


def dense_spring_forces(spec, p, v, ids):
    diff, dist, within, k = dense_springs(spec, p, ids)
    if not within.any():
        return np.zeros_like(p)
    safe = np.where(within, dist, 1.0)
    dirs = diff / safe[:, :, None]
    stretch = np.where(within, dist - spec.rest_length, 0.0)
    f_spring = -(k * stretch)[:, :, None] * dirs
    vrel = np.einsum("ijk,ijk->ij", v[:, None, :] - v[None, :, :], dirs)
    f_damp = -spec.damping * np.where(within, vrel, 0.0)[:, :, None] * dirs
    return (np.where(within[:, :, None], f_spring + f_damp, 0.0)).sum(axis=1)


def dense_potential_energy(spec, p, ids):
    _, dist, within, k = dense_springs(spec, p, ids)
    stretch = np.where(within, dist - spec.rest_length, 0.0)
    return float(0.25 * (k * stretch * stretch)[within].sum())


class TestDenseSpringOracle:
    """The pair-list springs equal the dense (N, N) form bit for bit, so the
    generated datasets do not depend on which one ran."""

    def assert_matches_dense(self, spec, seed, n_frames):
        state = initial_state(spec, seed)
        ids = spec.material_ids()
        for _ in range(n_frames):
            p, v = state.positions, state.velocities
            got = W._spring_forces(spec, p, v, ids)
            want = dense_spring_forces(spec, p, v, ids)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert spring_potential_energy(spec, p, ids) == dense_potential_energy(spec, p, ids)
            state = step_oracle(spec, state)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind, counts", [
        ("drop_merge", (64,)), ("box_splash", (64,)), ("grip_block", (48, 32)),
        ("box_wash", (48, 24))])
    def test_four_worlds(self, kind, counts, seed):
        self.assert_matches_dense(WorldSpec(kind=kind, counts=counts), seed, 25)

    # the scan's largest system, and one whose springs come from the cell list
    @pytest.mark.parametrize("n", [SCAN_MAX_N, 2 * SCAN_MAX_N])
    def test_box_splash(self, n):
        self.assert_matches_dense(WorldSpec(kind="box_splash", counts=(n,)), 0, 25)


class TestWorldSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            WorldSpec(kind="nonexistent")
        with pytest.raises(InputError):
            WorldSpec(counts=(0,))
        with pytest.raises(InputError):
            WorldSpec(dt=-0.1)

    @pytest.mark.parametrize("kw, key", [
        (dict(counts=()), "counts"),
        (dict(kind="box_wash", counts=(8,)), "counts"),
        (dict(kind="box_wash", counts=(4, 4, 4)), "counts"),
        (dict(kind="grip_block", counts=(8,)), "counts"),
        (dict(gravity=(0.0, -9.8)), "gravity"),
        (dict(box_lo=(0.0, 0.0)), "box_lo"),
        (dict(box_hi=(1.0, 1.0, 1.0, 1.0)), "box_hi"),
        (dict(box_lo=(0.0, 1.0, 0.0)), "box_lo"),
        (dict(box_hi=(1.0, 1.0, -1.0)), "box_hi"),
        (dict(wall_period=0.0), "wall_period"),
    ])
    def test_malformed_world_names_the_key(self, kw, key):
        with pytest.raises(InputError, match=key):
            WorldSpec(**kw)

    @pytest.mark.parametrize("kw, key", [
        (dict(dt=float("nan")), "dt"), (dict(force_radius=float("inf")), "force_radius"),
        (dict(gravity=(0.0, float("nan"), 0.0)), "gravity"),
    ])
    def test_non_finite_number_names_the_key(self, kw, key):
        with pytest.raises(ValueError, match=f"{key} must be"):
            WorldSpec(**kw)

    def test_material_ids(self):
        spec = WorldSpec(kind="box_wash", counts=(3, 2))
        assert spec.material_ids().tolist() == [0, 0, 0, 1, 1]
        assert spec.n == 5 and spec.k == 2

    def test_json_lists_become_tuples(self):
        spec = WorldSpec(counts=[3, 2], gravity=[0.0, -1.0, 0.0], box_lo=[0, 0, 0],
                         box_hi=[1, 1, 1])
        assert spec == WorldSpec(counts=(3, 2), gravity=(0.0, -1.0, 0.0),
                                 box_lo=(0, 0, 0), box_hi=(1, 1, 1))
        assert all(isinstance(getattr(spec, k), tuple)
                   for k in ("counts", "gravity", "box_lo", "box_hi"))

    def test_one_hot(self):
        got = one_hot_attributes(np.array([0, 1, 1]), 2)
        assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestRollouts:
    def test_deterministic_generation(self):
        spec = WorldSpec(kind="box_splash", counts=(16,))
        a = generate_rollout(spec, seed=7, n_steps=10)
        b = generate_rollout(spec, seed=7, n_steps=10)
        assert a.dtype == np.float32 and a.shape == (10, 16, 6)
        assert a.tobytes() == b.tobytes()

    def test_seeds_differ(self):
        spec = WorldSpec(kind="box_splash", counts=(16,))
        a = generate_rollout(spec, seed=1, n_steps=5)
        b = generate_rollout(spec, seed=2, n_steps=5)
        assert not np.array_equal(a, b)

    def test_every_world_kind_runs(self):
        for kind in W.WORLD_KINDS:
            counts = (12,) if kind in ("drop_merge", "box_splash") else (12, 8)
            spec = WorldSpec(kind=kind, counts=counts)
            frames = generate_rollout(spec, seed=0, n_steps=8)
            assert np.isfinite(frames).all()

    def test_min_length(self):
        with pytest.raises(InputError):
            generate_rollout(WorldSpec(counts=(4,)), seed=0, n_steps=1)

    @pytest.mark.parametrize("n_train, n_valid", [(-3, 1), (1, -1)])
    def test_negative_rollout_count_rejected(self, n_train, n_valid):
        with pytest.raises(InputError, match=f"got {min(n_train, n_valid)}"):
            generate_dataset(WorldSpec(counts=(4,)), n_train, n_valid, 5)

    def test_lattice_that_does_not_fit_the_box_rejected(self):
        # 16 x 16 x 16 particles at spacing 0.055 span 0.825, more than the box
        # leaves around the lattice centre; no point is clipped onto a wall
        spec = WorldSpec(kind="box_splash", counts=(4096,))
        for seed in (0, 1, 2):
            with pytest.raises(InputError, match=r"counts \[4096\] at spacing 0.055"):
                initial_state(spec, seed)
        p = initial_state(WorldSpec(kind="box_splash", counts=(4096,), spacing=0.04), 0).positions
        assert ((p > 1e-3) & (p < 1 - 1e-3)).all()


class TestSerialization:
    def test_payload_layout_48_bytes(self, tmp_path):
        frames = np.arange(12, dtype=np.float32).reshape(2, 1, 6)
        path = tmp_path / "r.bin"
        write_rollout_file(frames, path)
        raw = path.read_bytes()
        assert len(raw) == 48 + 8
        payload = raw[:48]
        assert np.array_equal(np.frombuffer(payload, dtype="<f4"), np.arange(12, dtype=np.float32))
        assert raw[48:] == hashlib.sha256(payload).digest()[:8]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = rng.standard_normal((5, 3, 6)).astype(np.float32)
        path = tmp_path / "r.bin"
        write_rollout_file(frames, path)
        back = read_rollout_file(path, 5, 3)
        assert back.tobytes() == frames.tobytes()

    def test_truncation_detected(self, tmp_path):
        frames = np.zeros((2, 2, 6), dtype=np.float32)
        path = tmp_path / "r.bin"
        write_rollout_file(frames, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncationError):
            read_rollout_file(path, 2, 2)

    def test_corruption_detected(self, tmp_path):
        frames = np.ones((2, 2, 6), dtype=np.float32)
        path = tmp_path / "r.bin"
        write_rollout_file(frames, path)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_rollout_file(path, 2, 2)

    def test_dataset_round_trip(self, tmp_path):
        spec = WorldSpec(kind="box_wash", counts=(6, 4))
        ds = generate_dataset(spec, 2, 1, 6, seed=0)
        out = tmp_path / "ds"
        write_dataset(ds, out)
        back = read_dataset(out)
        assert back.spec == spec
        assert np.array_equal(back.material_ids, spec.material_ids())
        assert len(back.train) == 2 and len(back.valid) == 1
        for a, b in zip(ds.train + ds.valid, back.train + back.valid):
            assert a.tobytes() == b.tobytes()

    def test_metadata_holds_each_fact_once(self, tmp_path):
        ds = generate_dataset(WorldSpec(kind="box_wash", counts=(6, 4)), 1, 1, 4)
        write_dataset(ds, tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        assert set(meta) == {"n_frames", "counts", "world_spec"}
        for key in meta:  # the reader needs every one of them
            (tmp_path / "ds" / "meta.json").write_text(
                json.dumps({k: v for k, v in meta.items() if k != key}))
            with pytest.raises(MetadataError, match=key):
                read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("contradictory", [False, True],
                             ids=["consistent", "contradictory"])
    def test_metadata_with_the_world_repeated_beside_world_spec_reads(self, tmp_path,
                                                                      contradictory):
        # datasets written before meta.json dropped these copies still read;
        # world_spec alone says what the world is and which material each
        # particle is
        spec = WorldSpec(kind="box_wash", counts=(6, 4))
        extra = ({"kind": "grip_block", "n": 999, "k": 7, "d_a": 7, "dt": 0.5, "name": 3,
                  "material_ids": [9, -1, "a"]} if contradictory
                 else {"kind": spec.kind, "n": spec.n, "k": spec.k, "d_a": spec.k,
                       "dt": spec.dt, "name": spec.kind,
                       "material_ids": spec.material_ids().tolist()})
        ds = generate_dataset(spec, 2, 1, 4)
        write_dataset(ds, tmp_path / "ds")
        meta_path = tmp_path / "ds" / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **extra}))
        back = read_dataset(tmp_path / "ds")
        assert (back.spec, back.n_frames) == (ds.spec, 4)
        assert back.material_ids.tolist() == [0] * 6 + [1] * 4
        for a, b in zip(ds.train + ds.valid, back.train + back.valid, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(MetadataError):
            read_dataset(tmp_path / "nope")

    def test_malformed_metadata(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "meta.json").write_text("{ not json")
        with pytest.raises(MetadataError):
            read_dataset(d)

    def test_metadata_missing_keys(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "meta.json").write_text(json.dumps({"name": "x"}))
        with pytest.raises(MetadataError):
            read_dataset(d)
