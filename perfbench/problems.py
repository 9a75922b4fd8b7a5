"""The three problems every benchmark run sets up and measures.

Each problem builds its inputs from the run's seed, owns one unit of work,
and checks the program's outputs while it runs.  ``unit()`` returns the wall
seconds of each timing it took, by name; a timing whose operation failed is
left out:

* ``DeskFit``      -- ``training.fit`` at desk scale (N=64); unit: one fit
                      call of ``work`` samples, timed as ``fit``.
* ``WideRollout``  -- ``training.rollout`` of seeded TIE weights at N=1024;
                      unit: one rollout call of ``work`` steps, timed as
                      ``rollout``.
* ``DenseFwdBwd``  -- forward + backward of tie, vanilla and gnn on
                      ``bench.synthesize_pairs`` (N=512, E=8000); unit: one
                      iteration of each backbone, timed under its name.

Model weights always come from seed 0; the run's seed only changes the
generated inputs (worlds, pair lists, features).
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from particlesim import bench, training, worlds
from particlesim import tensor as T
from particlesim.attention import build_model
from particlesim.nn import ModelConfig

from tracing import Tracer

MODEL_SEED = 0

# Shape of acceptance test 7 (desk-scale learning), with batch 4.
DESK_MODEL = ModelConfig(backbone="tie", d_in=7, d=64, heads=4, blocks=2, mlp_hidden=128,
                         radius=0.1, precision="f32")
DESK_WORLD = worlds.WorldSpec(kind="box_splash", counts=(64,), dt=0.01)
# 4 x 24 = 96 training transitions against 2 x 12 x 4 = 96 draws per fit, so
# about a third of the draws revisit a transition (as in test 7: 9,600 draws
# over 9,800 transitions); a graph cache would see its real hit rate.
DESK_DATA = dict(n_train=4, n_valid=1, n_frames=25)
DESK_TRAIN = training.TrainConfig(lr=0.001, lr_decay=0.7, patience=1, epochs=2,
                                  steps_per_epoch=12, batch_size=4, valid_samples=8, seed=0)

WIDE_WORLD = worlds.WorldSpec(kind="box_splash", counts=(1024,), dt=0.01)
# Ground truth costs ~0.24 s a frame at N=1024, so the horizon stays short.
WIDE_STEPS = 6

DENSE_N, DENSE_E = 512, 8000
DENSE_MODEL = ModelConfig(backbone="tie", d_in=7, d=128, heads=4, blocks=4, mlp_hidden=256,
                          precision="f32")
DENSE_BACKBONES = ("tie", "vanilla", "gnn")


class Outcome:
    """Operations attempted and failed, plus output checks that broke."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, n: int, why: str):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)


def roundtrip(ds: worlds.RolloutDataset, path, outcome: Outcome) -> worlds.RolloutDataset:
    """Write the dataset, read it back through the checksummed reader, and
    check that the frames read equal the frames generated."""
    worlds.write_dataset(ds, path)
    back = worlds.read_dataset(path)
    same = (len(back.train) == len(ds.train) and len(back.valid) == len(ds.valid)
            and np.array_equal(back.material_ids, ds.material_ids)
            and all(np.array_equal(a, b) for a, b in zip(back.train + back.valid,
                                                          ds.train + ds.valid)))
    if not same:
        outcome.errors.append(f"dataset read back from {path} differs from the generated frames")
    return back


class DeskFit:
    name = "desk_fit"
    steps = DESK_TRAIN.epochs * DESK_TRAIN.steps_per_epoch
    work = steps * DESK_TRAIN.batch_size  # samples trained per fit

    def __init__(self, seed: int, workdir, outcome: Outcome):
        self.outcome = outcome
        ds = worlds.generate_dataset(DESK_WORLD, DESK_DATA["n_train"], DESK_DATA["n_valid"],
                                     DESK_DATA["n_frames"], seed=seed)
        self.ds = roundtrip(ds, os.path.join(workdir, "desk"), outcome)
        warm = dataclasses.replace(DESK_TRAIN, epochs=1, steps_per_epoch=1, valid_samples=1)
        training.fit(build_model(DESK_MODEL, seed=MODEL_SEED), self.ds, warm)
        self.losses: list[float] = []
        self.model = None

    def unit(self) -> dict[str, float]:
        model = build_model(DESK_MODEL, seed=MODEL_SEED)
        self.outcome.attempted += self.steps
        t0 = time.perf_counter()
        try:
            history, _ = training.fit(model, self.ds, DESK_TRAIN)
        except training.DivergenceError as e:
            self.outcome.fail(self.steps, f"fit diverged: {e}")
            return {}
        dt = time.perf_counter() - t0
        if not all(np.isfinite(h["train_loss"]) and np.isfinite(h["valid_loss"])
                   for h in history):
            self.outcome.fail(self.steps, "fit reported a non-finite loss")
            return {}
        loss = history[-1]["train_loss"]
        if self.losses and loss != self.losses[0]:
            self.outcome.errors.append(
                f"seeded fit is not deterministic: final loss {loss!r} != {self.losses[0]!r}")
        self.losses.append(loss)
        self.model = model
        return {"fit": dt}

    def final_loss(self) -> tuple[float | None, float]:
        """One-step MSE of the last trained model over every training
        transition (normalized units), and the mean E/N of those samples.

        The loss of the last epoch alone averages over the 48 draws that epoch
        happened to make; every transition is a steadier figure."""
        stats = training.dataset_norm_stats(self.ds)
        losses, pairs = [], []
        for frames in self.ds.train:
            for t in range(DESK_MODEL.history - 1, frames.shape[0] - 1):
                x, graph, target = training.make_sample(self.ds, frames, t, DESK_MODEL.history,
                                                        stats, DESK_MODEL.radius)
                pairs.append(graph.n_pairs)
                if self.model is not None:
                    pred = self.model.forward(x, graph.receivers, graph.senders)
                    losses.append(training.mse(pred.data, target))
        loss = float(np.mean(losses)) if losses else None
        return loss, float(np.mean(pairs)) / DESK_WORLD.n


class WideRollout:
    name = "wide_rollout"
    steps = work = WIDE_STEPS

    def __init__(self, seed: int, workdir, outcome: Outcome):
        self.outcome = outcome
        ds = worlds.generate_dataset(WIDE_WORLD, 1, 0, WIDE_STEPS + DESK_MODEL.history,
                                     seed=seed)
        self.ds = roundtrip(ds, os.path.join(workdir, "wide"), outcome)
        self.stats = training.dataset_norm_stats(self.ds)
        self.model = build_model(DESK_MODEL, seed=MODEL_SEED)
        training.rollout(self.model, self.ds, self.stats, 0, 1, split="train")

    def unit(self) -> dict[str, float]:
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            frames, report = training.rollout(self.model, self.ds, self.stats, 0, WIDE_STEPS,
                                              split="train")
        except (ValueError, ArithmeticError) as e:
            self.outcome.fail(1, f"rollout raised {type(e).__name__}: {e}")
            return {}
        dt = time.perf_counter() - t0
        if report.divergent or len(frames) != WIDE_STEPS:
            self.outcome.fail(1, "rollout came back divergent")
            return {}
        return {"rollout": dt}

    def pair_counts(self) -> list[int]:
        """Pair count of the graph each rollout step builds.

        The graphs are rebuilt from predicted positions, so the count follows
        the model weights; it is recorded once per run, outside any timing."""
        with Tracer() as tracer:
            training.rollout(self.model, self.ds, self.stats, 0, WIDE_STEPS, split="train")
        return tracer.neighbor_pairs


class DenseFwdBwd:
    name = "dense_fwdbwd"

    def __init__(self, seed: int, workdir, outcome: Outcome):
        self.outcome = outcome
        self.recv, self.send = bench.synthesize_pairs(DENSE_N, DENSE_E, seed)
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal((DENSE_N, DENSE_MODEL.d_in)).astype(np.float32)
        self.models = {}
        self.analytic = {}
        for b in DENSE_BACKBONES:
            cfg = dataclasses.replace(DENSE_MODEL, backbone=b)
            self.models[b] = build_model(cfg, seed=MODEL_SEED)
            phases = bench.count_macs(cfg, DENSE_N, DENSE_E)
            phases.pop("total")
            self.analytic[b] = phases
        for b in DENSE_BACKBONES:
            self._iteration(b, record=False)

    def _iteration(self, backbone: str, record: bool = True) -> float | None:
        """Wall seconds of one fwd+bwd, or None if it failed its checks."""
        model = self.models[backbone]
        params = model.params().values()
        for p in params:
            p.grad = None
        t0 = time.perf_counter()
        with T.Tape() as tape:
            pred = model.forward(self.x, self.recv, self.send)
            loss = T.scale(T.reduce_sum(T.square(pred)), 1.0 / DENSE_N)
            T.backward(loss, tape)
        dt = time.perf_counter() - t0
        if not record:
            return None
        self.outcome.attempted += 1
        phases = tape.macs_by_scope()
        phases.pop("", None)  # the loss, outside the model's scopes
        if not np.isfinite(loss.item()):
            self.outcome.fail(1, f"{backbone}: non-finite loss")
        elif not all(p.grad is None or np.isfinite(p.grad).all() for p in params):
            self.outcome.fail(1, f"{backbone}: non-finite gradient")
        elif phases != self.analytic[backbone]:
            self.outcome.fail(1, f"{backbone}: instrumented MACs {phases} != "
                                 f"bench.count_macs {self.analytic[backbone]}")
        else:
            return dt
        return None

    def unit(self) -> dict[str, float]:
        times = {b: self._iteration(b) for b in DENSE_BACKBONES}
        return {b: dt for b, dt in times.items() if dt is not None}


PROBLEMS = {cls.name: cls for cls in (DeskFit, WideRollout, DenseFwdBwd)}
