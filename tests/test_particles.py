"""Neighbor search (the selection by N, the sorted cell list against the O(N^2)
scan) and input normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from particlesim import particles as P, worlds
from particlesim.particles import (InputError, SCAN_MAX_N, build_neighbor_graph,
                                   brute_force_neighbor_graph, cell_list_neighbor_graph)
from particlesim.verify import _neighbor_edge_cases


SEARCHES = [cell_list_neighbor_graph, brute_force_neighbor_graph]
SEARCH_IDS = ["cell_list", "brute_force"]


def pair_set(g) -> set:
    return set(zip(g.receivers.tolist(), g.senders.tolist()))


def assert_same_graph(p, radius):
    fast = cell_list_neighbor_graph(p, radius)
    slow = brute_force_neighbor_graph(p, radius)
    assert fast.receivers.dtype == fast.senders.dtype == np.int64
    assert np.array_equal(fast.receivers, slow.receivers)
    assert np.array_equal(fast.senders, slow.senders)
    return fast


class TestNeighborGraph:
    def test_collinear_chain(self):
        p = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.10, 0, 0]])
        g = cell_list_neighbor_graph(p, 0.08)
        assert pair_set(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    @pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
    def test_boundary_is_strict(self, search):
        # exactly one radius apart: no pair
        assert search(np.array([[0.0, 0, 0], [0.08, 0, 0]]), 0.08).n_pairs == 0

    def test_sorted_by_receiver_then_sender(self):
        rng = np.random.default_rng(0)
        g = cell_list_neighbor_graph(rng.uniform(0, 0.3, size=(40, 3)), 0.1)
        keys = list(zip(g.receivers.tolist(), g.senders.tolist()))
        assert keys == sorted(keys)

    def test_no_self_pairs_and_symmetry(self):
        rng = np.random.default_rng(1)
        g = cell_list_neighbor_graph(rng.uniform(0, 0.5, size=(60, 3)), 0.15)
        pairs = pair_set(g)
        assert all(i != j for i, j in pairs)
        assert all((j, i) in pairs for i, j in pairs)

    def test_matches_brute_force_256(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, size=(256, 3))
        for radius in (0.05, 0.12, 0.3):
            assert_same_graph(p, radius)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 80), seed=st.integers(0, 10**6),
           radius=st.floats(0.02, 0.8))
    def test_matches_brute_force_property(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        assert_same_graph(rng.uniform(0, 1, size=(n, 3)), radius)

    def test_negative_off_origin_coordinates(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(-0.6, 0.6, size=(120, 3)) + [-35.0, 0.0, 12.5]
        assert (p[:, 0] < 0).all() and (p[:, 1] < 0).any()
        assert assert_same_graph(p, 0.15).n_pairs > 0

    def test_coincident_particles(self):
        p = np.repeat(np.array([[0.2, 0.2, 0.2], [0.25, 0.2, 0.2], [0.9, 0.9, 0.9]]), 3, axis=0)
        g = assert_same_graph(p, 0.1)
        # each of the first six sees the other five; the last three see each other
        assert g.n_pairs == 6 * 5 + 3 * 2

    @pytest.mark.parametrize("radius", [0.1, 0.25])
    def test_particles_on_cell_faces(self, radius):
        # coordinates k * radius / 2: every other one is an integer multiple
        # of the radius, and axis neighbours two steps apart are exactly r away
        rng = np.random.default_rng(9)
        p = rng.integers(-5, 6, size=(150, 3)) * (radius / 2)
        assert assert_same_graph(p, radius).n_pairs > 0

    def test_far_outliers_do_not_overflow_the_key(self):
        # cells 1e12 apart on every axis: a raw cx*Dy*Dz key exceeds int64;
        # the last two sit at cell 1e19, past any int64 cell index
        rng = np.random.default_rng(10)
        outliers = np.array([[1e11, 1e11, -1e11], [1e11, 1e11 + 0.05, -1e11],
                             [-1e11, -1e11, 1e11], [1e18, 0.0, 0.0], [1e18, 0.0, 0.0]])
        p = np.concatenate([rng.uniform(0, 0.5, size=(40, 3)), outliers])
        g = assert_same_graph(p, 0.1)
        assert {(40, 41), (41, 40), (43, 44), (44, 43)} <= pair_set(g)
        assert not any(42 in pair for pair in pair_set(g))

    @pytest.mark.parametrize("case", range(len(_neighbor_edge_cases())))
    def test_verify_edge_cases(self, case):
        # the cases of `particlesim verify`: off-origin, coincident, on cell
        # and half-cell faces, pairs at r (1 + k eps), far outliers, tiny
        p, radius = _neighbor_edge_cases()[case]
        assert_same_graph(p, radius)

    def test_key_range_fails_loudly(self):
        # 420k particles in distinct cells on every axis: 5 ranks each, so
        # (5 * 420k)^3 > 2**63 cell keys; the search refuses before it
        # builds any candidate
        p = np.repeat(np.arange(420_000, dtype=np.float64)[:, None], 3, axis=1)
        with pytest.raises(InputError, match=r"2\*\*63"):
            cell_list_neighbor_graph(p, 0.1)

    @pytest.mark.slow
    @pytest.mark.parametrize("frame", [0, 25])
    def test_matches_brute_force_at_box_splash_density(self, frame):
        # ROADMAP item 4's density: box_splash N=2048 at spacing 0.04
        spec = worlds.WorldSpec(kind="box_splash", counts=(2048,), dt=0.01, spacing=0.04)
        state = worlds.initial_state(spec, 1)
        for _ in range(frame):
            state = worlds.step_oracle(spec, state)
        for radius in (0.09, 0.1):
            assert assert_same_graph(state.positions, radius).n_pairs > 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_systems_have_no_pairs(self, n):
        g = assert_same_graph(np.full((n, 3), 0.5), 0.1)
        assert g.n_pairs == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_permutation_consistency(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 0.4, size=(30, 3))
        perm = rng.permutation(30)
        g = cell_list_neighbor_graph(pos, 0.1)
        gp = cell_list_neighbor_graph(pos[perm], 0.1)
        inv = np.argsort(perm)
        expected = {(inv[i], inv[j]) for i, j in pair_set(g)}
        assert pair_set(gp) == expected

    def test_empty_graph(self):
        g = cell_list_neighbor_graph(np.array([[0.0, 0, 0], [10.0, 0, 0]]), 0.1)
        assert g.n_pairs == 0
        assert g.receivers.dtype == np.int64

    @pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
    def test_invalid_inputs(self, search):
        with pytest.raises(InputError):
            search(np.zeros((1, 3)), -1.0)
        for radius in (0.0, np.nan, np.inf):
            with pytest.raises(InputError, match="radius"):
                search(np.zeros((1, 3)), radius)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(InputError):
                search(np.array([[bad, 0, 0], [0, 0, 0]]), 0.1)


class TestSearchSelection:
    @pytest.mark.parametrize("n", [SCAN_MAX_N, SCAN_MAX_N + 1])
    def test_scan_up_to_scan_max_n_then_the_cell_list(self, monkeypatch, n):
        p = np.random.default_rng(11).uniform(0, 0.6, size=(n, 3))
        graph = build_neighbor_graph(p, 0.1)
        assert graph.n_pairs > 0
        for search in SEARCHES:
            other = search(p, 0.1)
            assert np.array_equal(graph.receivers, other.receivers)
            assert np.array_equal(graph.senders, other.senders)
        calls = []
        for search in SEARCHES:
            def traced(positions, radius, search=search):
                calls.append(search.__name__)
                return search(positions, radius)
            monkeypatch.setattr(P, search.__name__, traced)
        build_neighbor_graph(p, 0.1)
        chosen = brute_force_neighbor_graph if n <= SCAN_MAX_N else cell_list_neighbor_graph
        assert calls == [chosen.__name__]


class TestIntegration:
    def test_explicit_step(self):
        p = np.array([[1.0, 2.0, 3.0]])
        q = np.array([[10.0, 0.0, -10.0]])
        assert np.allclose(P.integrate_positions(p, q, 0.1), [[2.0, 2.0, 2.0]])

    def test_invalid(self):
        with pytest.raises(InputError):
            P.integrate_positions(np.zeros((2, 3)), np.zeros((3, 3)), 0.1)
        with pytest.raises(InputError):
            P.integrate_positions(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)


class TestNormalization:
    def test_stats_match_direct_mean_std(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((100, 6))
        attrs = rng.uniform(0.1, 2.0, size=(10, 2))
        stats = P.compute_norm_stats(frames, attrs)
        assert np.allclose(stats.mean[:6], frames.mean(axis=0))
        assert np.allclose(stats.std[:6], frames.std(axis=0))
        assert np.allclose(stats.mean[6:], attrs.mean(axis=0))

    def test_constant_channel_clamped_with_warning(self):
        frames = np.zeros((50, 6))
        frames[:, 0] = 1.0  # constant channel
        frames[:, 1:] = np.random.default_rng(4).standard_normal((50, 5))
        with pytest.warns(UserWarning):
            stats = P.compute_norm_stats(frames, np.ones((5, 1)))
        assert stats.std[0] == P.STD_FLOOR
        assert stats.std[6] == P.STD_FLOOR

    def test_velocity_round_trip(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((60, 6))
        stats = P.compute_norm_stats(frames, rng.standard_normal((4, 1)))
        v = rng.standard_normal((7, 3))
        assert np.allclose(P.denormalize_velocity(P.normalize_velocity(v, stats), stats),
                           v, atol=1e-12)

    def test_normalized_train_data_is_standard(self):
        rng = np.random.default_rng(6)
        frames = 3.0 + 2.0 * rng.standard_normal((500, 6))
        stats = P.compute_norm_stats(frames, rng.standard_normal((4, 1)))
        both = P.assemble_inputs(frames[None], np.zeros((500, 1)), stats)[:, :6]
        assert np.allclose(both.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(both.std(axis=0), 1.0, atol=1e-10)

    def test_assemble_inputs_layout(self):
        # H = 3 frames of 4 particles of two materials; each of the 6 H + 2
        # columns is (x - mean) / std of its own channel, in the order
        # [p_t, q_t, p_t-1, q_t-1, p_t-2, q_t-2, attributes]
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((40, 6))
        attrs = np.eye(2)[[0, 0, 1, 1]]
        stats = P.compute_norm_stats(frames, attrs)
        window = rng.standard_normal((3, 4, 6))  # newest first
        x = P.assemble_inputs(window, attrs, stats)
        assert x.shape == (4, P.input_dim(3, 2))
        for h in range(3):
            for c in range(6):
                want = (window[h, :, c] - frames[:, c].mean()) / frames[:, c].std()
                assert np.allclose(x[:, 6 * h + c], want, rtol=1e-12, atol=1e-12)
        for c in range(2):
            want = (attrs[:, c] - attrs[:, c].mean()) / attrs[:, c].std()
            assert np.allclose(x[:, 18 + c], want, rtol=1e-12, atol=1e-12)

    def test_malformed_norm_stats_file_raises_os_error(self, tmp_path):
        path = tmp_path / "norm_stats.json"
        for text in ("not json", '{"mean": [0.0]}'):
            path.write_text(text)
            with pytest.raises(OSError, match="norm_stats.json"):
                P.load_norm_stats(path)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            P.compute_norm_stats(np.empty((0, 6)), np.ones((1, 1)))
