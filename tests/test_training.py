"""Losses, optimizer, learning-rate schedule, and the training loop."""

import json
import warnings

import numpy as np
import pytest

from particlesim import tensor as T
from particlesim import particles as P
from particlesim.tensor import Tensor, Tape
from particlesim.nn import ModelConfig
from particlesim.attention import build_model
from particlesim.worlds import WorldSpec, generate_dataset
from particlesim.bench import synthesize_pairs
from particlesim.training import (mse, mse_loss, m3se, Adam, PlateauScheduler,
                                  TrainConfig, EvalReport, fit, one_step_eval,
                                  constant_velocity_eval, rollout,
                                  dataset_norm_stats, DivergenceError,
                                  make_sample, make_batch, evaluate_loss,
                                  _transitions)


class TestLosses:
    def test_mse_hand_example(self):
        # one particle, error vector (1, 2, 2): squared norm 9
        assert mse(np.array([[1.0, 2.0, 2.0]]), np.zeros((1, 3))) == 9.0

    def test_mse_loss_tensor_matches(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 3))
        loss = mse_loss(Tensor(pred), target)
        assert loss.item() == pytest.approx(mse(pred, target), rel=1e-12)

    def test_mse_loss_gradient(self):
        pred = Tensor(np.array([[2.0, 0.0, 0.0]]), requires_grad=True)
        with Tape() as tape:
            loss = mse_loss(pred, np.zeros((1, 3)))
            T.backward(loss, tape)
        assert np.allclose(pred.grad, [[4.0, 0.0, 0.0]])

    def test_m3se_single_material_equals_mse(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((10, 3))
        target = rng.standard_normal((10, 3))
        ids = np.zeros(10, dtype=np.int64)
        assert m3se(pred, target, ids) == pytest.approx(mse(pred, target), rel=1e-12)

    def test_m3se_two_material_hand_example(self):
        # material 0: one particle with squared error 1
        # material 1: one particle with squared error 2 -> mean of means = 1.5
        pred = np.array([[1.0, 0.0, 0.0], [np.sqrt(2.0), 0.0, 0.0]])
        target = np.zeros((2, 3))
        ids = np.array([0, 1])
        assert m3se(pred, target, ids) == pytest.approx(1.5, abs=1e-12)

    def test_m3se_unbalanced_classes(self):
        # material 0: errors 1 and 3 (mean 2); material 1: error 8 -> (2+8)/2
        pred = np.array([[1.0, 0, 0], [np.sqrt(3.0), 0, 0], [np.sqrt(8.0), 0, 0]])
        ids = np.array([0, 0, 1])
        assert m3se(pred, np.zeros((3, 3)), ids) == pytest.approx(5.0, abs=1e-12)


class TestAdam:
    def test_five_step_hand_oracle(self):
        # independent scalar implementation of the bias-corrected update
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        ref = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        rng = np.random.default_rng(2)
        for t in range(1, 6):
            g = rng.standard_normal(2)
            w.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref = ref - 0.1 * mh / (np.sqrt(vh) + 1e-8)
            assert np.allclose(w.data, ref, atol=1e-12)

    def test_skips_parameters_without_gradients(self):
        w = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        opt.step()
        assert np.array_equal(w.data, np.ones(3))

    def test_zero_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        w.grad = np.ones(2)
        Adam({"w": w}, lr=0.1).zero_grad()
        assert w.grad is None

    def test_converges_on_quadratic(self):
        w = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.2)
        for _ in range(200):
            w.grad = 2.0 * (w.data - 3.0)
            opt.step()
        assert abs(w.data[0] - 3.0) < 1e-3


class TestPlateauScheduler:
    def test_decay_after_patience_epochs(self):
        sched = PlateauScheduler(lr=0.0008, decay=0.8, patience=3)
        assert sched.update(1.0) == 0.0008  # improvement
        assert sched.update(1.1) == 0.0008  # bad 1
        assert sched.update(1.2) == 0.0008  # bad 2
        assert sched.update(1.3) == pytest.approx(0.00064)  # bad 3 -> decay

    def test_counter_resets_after_decay(self):
        sched = PlateauScheduler(lr=1.0, decay=0.5, patience=2)
        sched.update(1.0)
        sched.update(2.0)
        assert sched.update(2.0) == 0.5
        assert sched.update(2.0) == 0.5  # fresh counter: only one bad epoch
        assert sched.update(2.0) == 0.25

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(lr=1.0, decay=0.5, patience=2)
        sched.update(1.0)
        sched.update(1.5)
        sched.update(0.5)  # improvement
        assert sched.update(0.9) == 1.0  # only one bad epoch since

    def test_tolerance(self):
        sched = PlateauScheduler(lr=1.0, decay=0.5, patience=1, tol=1e-3)
        sched.update(1.0)
        assert sched.update(1.0 - 1e-6) == 0.5  # within tol: not an improvement


def tiny_dataset(seed=0, kind="box_splash", counts=(12,)):
    spec = WorldSpec(kind=kind, counts=counts)
    return generate_dataset(spec, 4, 2, 10, seed=seed)


def tiny_config(**kw):
    kw.setdefault("backbone", "tie")
    kw.setdefault("d_in", 7)
    kw.setdefault("d", 16)
    kw.setdefault("heads", 2)
    kw.setdefault("blocks", 1)
    kw.setdefault("mlp_hidden", 16)
    kw.setdefault("radius", 0.1)
    kw.setdefault("precision", "f64")
    return ModelConfig(**kw)


@pytest.fixture(scope="module")
def shared_dataset():
    return tiny_dataset()


def test_one_material_world_stats_do_not_warn():
    # the one-hot attribute column of a one-material world is constant by
    # design: its std is clamped without a warning
    ds = generate_dataset(WorldSpec(kind="box_splash", counts=(12,)), 2, 0, 6, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = dataset_norm_stats(ds)
    assert stats.std[6] == P.STD_FLOOR


class TestFit:
    def test_zero_epochs_is_noop(self, shared_dataset):
        model = build_model(tiny_config(), seed=0)
        before = {k: t.data.copy() for k, t in model.params().items()}
        cfg = TrainConfig(epochs=0, steps_per_epoch=5, batch_size=2)
        history, _ = fit(model, shared_dataset, cfg)
        assert history == []
        for k, t in model.params().items():
            assert np.array_equal(t.data, before[k])

    def test_history_as_long_as_the_rollouts_is_a_value_error(self, shared_dataset, tmp_path):
        # 10 frames give no transition to a history of 10
        model = build_model(tiny_config(history=10, d_in=P.input_dim(10, shared_dataset.d_a)))
        with pytest.raises(ValueError, match="model.history 10 .* n_frames 10"):
            fit(model, shared_dataset, TrainConfig(epochs=1, batch_size=2), out_dir=tmp_path / "m")
        assert not (tmp_path / "m").exists()

    def test_loss_decreases(self, shared_dataset):
        model = build_model(tiny_config(), seed=0)
        cfg = TrainConfig(lr=0.003, epochs=3, steps_per_epoch=20, batch_size=2,
                          valid_samples=4, seed=0)
        history, _ = fit(model, shared_dataset, cfg)
        assert history[-1]["train_loss"] < 0.5 * history[0]["train_loss"]

    def test_deterministic_given_seed(self, shared_dataset, tmp_path):
        outs = []
        for run in ("a", "b"):
            model = build_model(tiny_config(), seed=0)
            cfg = TrainConfig(epochs=2, steps_per_epoch=5, batch_size=2,
                              valid_samples=4, seed=0)
            out = tmp_path / run
            history, _ = fit(model, shared_dataset, cfg, out_dir=out)
            outs.append((history, {k: t.data.copy() for k, t in model.params().items()}))
        ha, hb = outs[0][0], outs[1][0]
        assert ha == hb
        for k in outs[0][1]:
            assert np.array_equal(outs[0][1][k], outs[1][1][k])
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
               (tmp_path / "b" / "history.csv").read_bytes()

    def test_writes_checkpoint_and_history(self, shared_dataset, tmp_path):
        model = build_model(tiny_config(), seed=0)
        cfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=2, valid_samples=2)
        fit(model, shared_dataset, cfg, out_dir=tmp_path)
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "final.manifest.json").exists()
        assert (tmp_path / "final.blob.bin").exists()

    def test_step_log_has_one_finite_line_per_step(self, shared_dataset, tmp_path):
        model = build_model(tiny_config(), seed=0)
        cfg = TrainConfig(epochs=2, steps_per_epoch=3, batch_size=2, valid_samples=2)
        history, _ = fit(model, shared_dataset, cfg, out_dir=tmp_path)
        lines = (tmp_path / "steps.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == cfg.epochs * cfg.steps_per_epoch
        keys = {"epoch", "step", "loss", "grad_norm", "lr", "step_ms", "pairs_per_sample"}
        assert all(set(row) == keys for row in rows)
        assert [row["step"] for row in rows] == list(range(6))
        assert [row["epoch"] for row in rows] == [0, 0, 0, 1, 1, 1]
        assert all(np.isfinite(row[k]) for row in rows for k in keys)
        assert all(row["grad_norm"] > 0 and row["step_ms"] > 0 and row["pairs_per_sample"] > 0
                   for row in rows)
        assert [row["lr"] for row in rows[:3]] == [cfg.lr] * 3
        assert rows[3]["lr"] == history[0]["lr"]
        epoch_loss = sum(row["loss"] for row in rows[:3]) / 3
        assert epoch_loss == pytest.approx(history[0]["train_loss"], rel=1e-12)

    def test_no_step_log_without_out_dir(self, shared_dataset, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fit(build_model(tiny_config(), seed=0), shared_dataset,
            TrainConfig(epochs=1, steps_per_epoch=2, batch_size=2, valid_samples=2))
        assert not any(tmp_path.iterdir())

    def test_norm_stats_file_round_trips_bit_exactly(self, shared_dataset, tmp_path):
        model = build_model(tiny_config(), seed=0)
        _, stats = fit(model, shared_dataset, TrainConfig(epochs=0), out_dir=tmp_path)
        loaded = P.load_norm_stats(tmp_path / "norm_stats.json")
        assert loaded.mean.tobytes() == stats.mean.tobytes()
        assert loaded.std.tobytes() == stats.std.tobytes()

    def test_divergence_raises_and_saves_last_good(self, shared_dataset, tmp_path):
        class ExplodingModel:
            def __init__(self, inner):
                self.inner = inner
                self.cfg = inner.cfg
                self.calls = 0

            def params(self):
                return self.inner.params()

            def forward(self, x, recv, send, ids=None, samples=1):
                self.calls += 1
                out = self.inner.forward(x, recv, send, ids, samples)
                if self.calls > 3:
                    out.data = out.data * np.nan
                return out

        model = ExplodingModel(build_model(tiny_config(), seed=0))
        cfg = TrainConfig(epochs=2, steps_per_epoch=5, batch_size=2, valid_samples=2)
        with pytest.raises(DivergenceError):
            fit(model, shared_dataset, cfg, out_dir=tmp_path)
        assert (tmp_path / "last_good.manifest.json").exists()
        assert (tmp_path / "norm_stats.json").exists()


# (backbone, normalized attention, abstract rows): every model the batch serves
BATCH_MODELS = [("tie", True, 0), ("tie", True, 2), ("tie", False, 0), ("tie", False, 2),
                ("vanilla", True, 0), ("vanilla", True, 2), ("gnn", True, 0)]


def batch_case(backbone, normalized, n_abstract, samples, n=7, d_in=5, seed=0):
    """An f64 model and `samples` random systems of n particles: per sample
    (x, recv, send, material ids, target)."""
    cfg = ModelConfig(backbone=backbone, d_in=d_in, d=8, heads=2, blocks=2, mlp_hidden=8,
                      n_abstract=n_abstract, normalized_attention=normalized,
                      precision="f64")
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cases = []
    for b in range(samples):
        recv, send = synthesize_pairs(n, 12, seed=seed + 10 + b)
        ids = rng.integers(0, n_abstract, size=n) if n_abstract else None
        cases.append((rng.standard_normal((n, d_in)), recv, send, ids,
                      rng.standard_normal((n, 3))))
    return model, cases


def stack(cases):
    """The block-diagonal system of `cases`, pairs of sample b offset by b * n."""
    n = cases[0][0].shape[0]
    ids = None if cases[0][3] is None else np.concatenate([c[3] for c in cases])
    return (np.concatenate([c[0] for c in cases]),
            np.concatenate([c[1] + b * n for b, c in enumerate(cases)]),
            np.concatenate([c[2] + b * n for b, c in enumerate(cases)]),
            ids, np.concatenate([c[4] for c in cases]))


def param_grads(model, loss_fn) -> dict:
    for p in model.params().values():
        p.grad = None
    with Tape() as tape:
        T.backward(loss_fn(), tape)
    return {k: p.grad.copy() for k, p in model.params().items()}


class TestBatching:
    """One forward over a block-diagonal batch equals the per-sample forwards."""

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("backbone,normalized,n_abstract", BATCH_MODELS)
    def test_batched_rows_equal_separate_forwards(self, backbone, normalized, n_abstract,
                                                  samples):
        model, cases = batch_case(backbone, normalized, n_abstract, samples)
        x, recv, send, ids, _ = stack(cases)
        batched = model.forward(x, recv, send, ids, samples=samples).data
        separate = np.concatenate([model.forward(c[0], c[1], c[2], c[3]).data
                                   for c in cases])
        assert batched.shape == separate.shape
        assert np.abs(batched - separate).max() <= 1e-12

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("backbone,normalized,n_abstract", BATCH_MODELS)
    def test_batched_loss_gradients_equal_mean_of_sample_losses(self, backbone, normalized,
                                                                 n_abstract, samples):
        model, cases = batch_case(backbone, normalized, n_abstract, samples)
        x, recv, send, ids, target = stack(cases)

        def batched():
            return mse_loss(model.forward(x, recv, send, ids, samples=samples), target)

        def mean_of_samples():
            losses = [mse_loss(model.forward(c[0], c[1], c[2], c[3]), c[4]) for c in cases]
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            return T.scale(total, 1.0 / samples)

        got, want = param_grads(model, batched), param_grads(model, mean_of_samples)
        assert got.keys() == want.keys()
        for k in want:
            scale = max(np.abs(want[k]).max(), 1e-300)
            assert np.abs(got[k] - want[k]).max() / scale <= 1e-12, k

    def test_abstract_rows_follow_their_sample(self):
        model, cases = batch_case("tie", True, 2, 3)
        x, recv, send, ids, _ = stack(cases)
        r, s = model.extend_pairs(recv, send, ids, x.shape[0], 3)
        abstract = r >= x.shape[0]
        # abstract row 21 + 2b + k hears exactly the particles of sample b, material k
        owner = (r[abstract] - x.shape[0]) // 2
        assert np.array_equal(owner, s[abstract] // 7)
        assert np.array_equal((r[abstract] - x.shape[0]) % 2, ids[s[abstract]])

    @pytest.mark.parametrize("backbone", ["tie", "gnn"])
    def test_samples_must_divide_rows(self, backbone):
        model, cases = batch_case(backbone, True, 0, 2)
        x, recv, send, ids, _ = stack(cases)
        with pytest.raises(P.InputError, match="samples"):
            model.forward(x, recv, send, ids, samples=4)

    @pytest.mark.parametrize("backbone", ["tie", "vanilla", "gnn"])
    @pytest.mark.parametrize("case", ["sender -1", "sender n", "lengths"])
    def test_every_backbone_checks_its_pair_list(self, backbone, case):
        model, cases = batch_case(backbone, True, 0, 1)
        x, recv, send, ids, _ = stack(cases)
        if case == "lengths":
            send = send[:-1]
        else:
            send = send.copy()
            send[3] = -1 if case == "sender -1" else x.shape[0]
        with pytest.raises(T.ShapeError, match="pair list"):
            model.forward(x, recv, send, ids)

    def test_make_batch_stacks_make_sample(self, shared_dataset):
        stats = dataset_norm_stats(shared_dataset)
        trans = [(1, 3), (0, 5), (1, 3)]
        x, recv, send, target = make_batch(shared_dataset, shared_dataset.train, trans, 1,
                                           stats, 0.1)
        n = shared_dataset.material_ids.shape[0]
        for b, (ri, t) in enumerate(trans):
            xb, graph, tb = make_sample(shared_dataset, shared_dataset.train[ri], t, 1,
                                        stats, 0.1)
            rows = slice(b * n, (b + 1) * n)
            assert np.array_equal(x[rows], xb) and np.array_equal(target[rows], tb)
            mine = (recv >= b * n) & (recv < (b + 1) * n)
            assert np.array_equal(recv[mine] - b * n, graph.receivers)
            assert np.array_equal(send[mine] - b * n, graph.senders)
        assert recv.size == send.size and np.all(recv // n == send // n)

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_evaluate_loss_is_the_mean_of_sample_losses(self, shared_dataset, batch_size):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        trans = _transitions(shared_dataset, "valid", 1, 5, seed=1)
        want = np.mean([
            mse(model.forward(*_sample_inputs(shared_dataset, ri, t, stats)).data,
                make_sample(shared_dataset, shared_dataset.valid[ri], t, 1, stats, 0.1)[2])
            for ri, t in trans])
        got = evaluate_loss(model, shared_dataset, stats, trans, batch_size)
        assert got == pytest.approx(want, rel=1e-12)

    def test_fit_step_tapes_one_forward(self, shared_dataset, monkeypatch):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        with Tape() as tape:
            pred = model.forward(*_sample_inputs(shared_dataset, 0, 2, stats, "train"))
            mse_loss(pred, np.zeros((pred.data.shape[0], 3)))
        single = len(tape.entries)
        recorded = []
        backward = T.backward

        def counting_backward(loss, tape):
            recorded.append(len(tape.entries))
            return backward(loss, tape)

        monkeypatch.setattr(T, "backward", counting_backward)
        fit(model, shared_dataset, TrainConfig(epochs=1, steps_per_epoch=1, batch_size=4,
                                               valid_samples=1))
        assert len(recorded) == 1 and recorded[0] <= single


def _sample_inputs(ds, ri, t, stats, split="valid"):
    x, graph, _ = make_sample(ds, getattr(ds, split)[ri], t, 1, stats, 0.1)
    return x, graph.receivers, graph.senders, ds.material_ids


class TestEvaluation:
    def test_one_step_eval_finite(self, shared_dataset):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        rep = one_step_eval(model, shared_dataset, stats, max_samples=6)
        assert np.isfinite(rep.m3se_mean)
        assert set(rep.per_material) == {0}

    def test_constant_velocity_baseline_finite(self, shared_dataset):
        rep = constant_velocity_eval(shared_dataset, max_samples=6)
        assert np.isfinite(rep.m3se_mean) and rep.m3se_mean > 0

    def test_constant_velocity_baseline_per_material(self, two_material_dataset):
        ds = two_material_dataset
        rep = constant_velocity_eval(ds, history=2, max_samples=5, seed=3)
        per_mat = {0: [], 1: []}
        for ri, t in _transitions(ds, "valid", 2, 5, seed=3):
            frames = ds.valid[ri].astype(np.float64)
            err = ((frames[t, :, 3:6] - frames[t + 1, :, 3:6]) ** 2).sum(axis=-1)
            for k in per_mat:
                per_mat[k].append(err[ds.material_ids == k].mean())
        assert rep.per_material.keys() == per_mat.keys()
        for k, v in per_mat.items():
            assert rep.per_material[k] == pytest.approx(np.mean(v), rel=1e-12)
        assert rep.m3se_mean == pytest.approx(
            np.mean([(a + b) / 2 for a, b in zip(per_mat[0], per_mat[1])]), rel=1e-12)

    def test_perfect_predictions_score_zero(self, shared_dataset):
        frames = shared_dataset.valid[0]
        truth = frames[1, :, 3:6].astype(np.float64)
        assert m3se(truth, truth, shared_dataset.material_ids) == 0.0

    def test_rollout_shapes_and_report(self, shared_dataset, tmp_path):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        out = tmp_path / "ro.bin"
        frames, rep = rollout(model, shared_dataset, stats, 0, 5, out_path=out)
        assert frames.shape == (5, 12, 6)
        assert len(rep.per_step) == 5
        assert not rep.divergent
        assert out.exists()

    def test_rollout_too_long_rejected(self, shared_dataset):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        with pytest.raises(ValueError):
            rollout(model, shared_dataset, stats, 0, 100)

    def test_rollout_positions_integrate_predictions(self, shared_dataset):
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(shared_dataset)
        frames, _ = rollout(model, shared_dataset, stats, 0, 2)
        start = shared_dataset.valid[0][0, :, 0:3].astype(np.float64)
        expect = start + shared_dataset.spec.dt * frames[0, :, 3:6].astype(np.float64)
        assert np.allclose(frames[0, :, 0:3], expect, atol=1e-6)

    def test_rollout_is_unchanged_by_the_cell_list(self, monkeypatch):
        # the rollout searches through the module attribute, which at N=200
        # runs the O(N^2) scan; swapping in the cell list must leave every
        # frame and per-step M3SE byte-identical
        ds = generate_dataset(WorldSpec(kind="box_splash", counts=(200,)), 1, 1, 5, seed=3)
        model = build_model(tiny_config(), seed=0)
        stats = dataset_norm_stats(ds)
        frames, rep = rollout(model, ds, stats, 0, 4)
        pair_counts = []

        def cell_list(positions, radius):
            graph = P.cell_list_neighbor_graph(positions, radius)
            pair_counts.append(graph.n_pairs)
            return graph

        assert ds.spec.n <= P.SCAN_MAX_N
        monkeypatch.setattr(P, "build_neighbor_graph", cell_list)
        oracle_frames, oracle_rep = rollout(model, ds, stats, 0, 4)
        assert len(pair_counts) == 4 and min(pair_counts) > 0
        assert frames.tobytes() == oracle_frames.tobytes()
        assert np.array(rep.per_step).tobytes() == np.array(oracle_rep.per_step).tobytes()


def reference_one_step_eval(model, ds, stats, max_samples=200, seed=0):
    """The per-sample `one_step_eval` loop: one `make_sample` forward per
    transition."""
    trans = _transitions(ds, "valid", model.cfg.history, max_samples, seed)
    scores = []
    per_mat: dict[int, list] = {}
    for ri, t in trans:
        frames = ds.valid[ri]
        x, graph, _ = make_sample(ds, frames, t, model.cfg.history, stats, model.cfg.radius)
        pred_norm = model.forward(x, graph.receivers, graph.senders, ds.material_ids).data
        pred = P.denormalize_velocity(pred_norm, stats)
        truth = frames[t + 1, :, 3:6].astype(np.float64)
        scores.append(m3se(pred, truth, ds.material_ids))
        diff = ((pred - truth) ** 2).sum(axis=-1)
        for k in np.unique(ds.material_ids):
            per_mat.setdefault(int(k), []).append(float(diff[ds.material_ids == k].mean()))
    return EvalReport(per_material={k: float(np.mean(v)) for k, v in per_mat.items()},
                      m3se_mean=float(np.mean(scores)), m3se_std=float(np.std(scores)))


def reference_rollout(model, ds, stats, rollout_idx, n_steps, split="valid"):
    """The per-step rollout loop: its own position/velocity history lists,
    inputs and graph built directly from them."""
    frames = getattr(ds, split)[rollout_idx]
    H = model.cfg.history
    ph = [frames[H - 1 - i, :, 0:3].astype(np.float64) for i in range(H)]
    qh = [frames[H - 1 - i, :, 3:6].astype(np.float64) for i in range(H)]
    pred_frames = np.empty((n_steps, frames.shape[1], 6), dtype=np.float32)
    per_step = []
    divergent = False
    for step in range(n_steps):
        t = H - 1 + step
        x = P.assemble_inputs(np.stack([np.concatenate(f, axis=1) for f in zip(ph, qh)]),
                              ds.attributes, stats)
        graph = P.build_neighbor_graph(ph[0], model.cfg.radius)
        q_hat = P.denormalize_velocity(
            model.forward(x, graph.receivers, graph.senders, ds.material_ids).data, stats)
        if not np.isfinite(q_hat).all():
            divergent = True
            pred_frames = pred_frames[:step]
            break
        p_next = P.integrate_positions(ph[0], q_hat, ds.spec.dt)
        truth = frames[t + 1, :, 3:6].astype(np.float64)
        per_step.append(m3se(q_hat, truth, ds.material_ids))
        pred_frames[step, :, 0:3] = p_next
        pred_frames[step, :, 3:6] = q_hat
        ph = [p_next] + ph[:-1]
        qh = [q_hat] + qh[:-1]
    return pred_frames, per_step, divergent


@pytest.fixture(scope="module")
def two_material_dataset():
    return generate_dataset(WorldSpec(kind="box_wash", counts=(8, 6)), 3, 2, 9, seed=4)


# (backbone, abstract rows): the three backbones, and TIE with per-sample abstract rows
EVAL_MODELS = [("tie", 0), ("tie", 2), ("vanilla", 0), ("gnn", 0)]


def eval_model(backbone, n_abstract, history, ds):
    return build_model(tiny_config(backbone=backbone, n_abstract=n_abstract, history=history,
                                   d_in=P.input_dim(history, ds.d_a), radius=0.12,
                                   precision="f32"), seed=2)


class TestOnePathEqualsPerSampleLoops:
    """`one_step_eval` and `rollout` go through `make_batch`; their outputs
    equal the per-sample loops bit for bit."""

    @pytest.mark.parametrize("history", [1, 2])
    @pytest.mark.parametrize("backbone,n_abstract", EVAL_MODELS)
    def test_one_step_eval(self, two_material_dataset, backbone, n_abstract, history):
        ds = two_material_dataset
        model = eval_model(backbone, n_abstract, history, ds)
        stats = dataset_norm_stats(ds)
        got = one_step_eval(model, ds, stats, max_samples=6, seed=1).to_json()
        want = reference_one_step_eval(model, ds, stats, max_samples=6, seed=1).to_json()
        assert got == want
        assert set(got["per_material"]) == {0, 1}

    @pytest.mark.parametrize("history", [1, 2])
    @pytest.mark.parametrize("backbone,n_abstract", EVAL_MODELS)
    def test_rollout(self, two_material_dataset, backbone, n_abstract, history):
        ds = two_material_dataset
        model = eval_model(backbone, n_abstract, history, ds)
        stats = dataset_norm_stats(ds)
        n_steps = ds.n_frames - history
        frames, rep = rollout(model, ds, stats, 1, n_steps)
        want_frames, want_steps, want_divergent = reference_rollout(model, ds, stats, 1, n_steps)
        assert frames.dtype == want_frames.dtype and frames.tobytes() == want_frames.tobytes()
        assert np.array(rep.per_step).tobytes() == np.array(want_steps).tobytes()
        assert not rep.divergent and not want_divergent and len(rep.per_step) == n_steps

    def test_divergent_rollout_is_truncated_alike(self, two_material_dataset):
        class NanAfter:
            """Sets every weight to NaN before its third forward."""
            def __init__(self, inner):
                self.inner, self.cfg, self.calls = inner, inner.cfg, 0

            def forward(self, *args, **kw):
                self.calls += 1
                if self.calls == 3:
                    for p in self.inner.params().values():
                        p.data = np.full_like(p.data, np.nan)
                return self.inner.forward(*args, **kw)

        ds = two_material_dataset
        stats = dataset_norm_stats(ds)
        runs = []
        for run in (rollout, reference_rollout):
            model = NanAfter(eval_model("tie", 0, 2, ds))
            runs.append(run(model, ds, stats, 0, 5))
        (frames, rep), (want_frames, want_steps, want_divergent) = runs
        assert frames.shape == want_frames.shape == (2, 14, 6)
        assert frames.tobytes() == want_frames.tobytes()
        assert np.array(rep.per_step).tobytes() == np.array(want_steps).tobytes()
        assert rep.divergent and want_divergent


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [{"lr": "x"}, {"epochs": 2.5}, {"seed": True},
                                    {"lr_decay": None}])
    def test_wrong_type_names_the_key(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            TrainConfig(**kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("key", ["steps_per_epoch", "valid_samples"])
    def test_zero_steps_or_valid_samples_rejected(self, key):
        with pytest.raises(ValueError, match=f"train.{key} must be >= 1"):
            TrainConfig(**{key: 0})
