"""Loss, material-wise metric, Adam with plateau learning-rate decay,
training loop, and recursive rollout evaluation."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor, Tape
from . import particles as P
from .nn import check_field_types
from .worlds import RolloutDataset, write_rollout_file


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over particles of the squared L2 velocity error (differentiable)."""
    tgt = Tensor(np.asarray(target, dtype=pred.data.dtype))
    if pred.data.shape != tgt.data.shape:
        raise T.ShapeError(f"mse shapes differ: {pred.data.shape} vs {tgt.data.shape}")
    n = pred.data.shape[0]
    return T.scale(T.reduce_sum(T.square(T.sub(pred, tgt))), 1.0 / n)


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float((diff * diff).sum(axis=-1).mean())


def m3se(pred: np.ndarray, target: np.ndarray, material_ids: np.ndarray) -> float:
    """Mean over materials of the per-material mean squared velocity error.

    Equals plain MSE when there is a single material.
    """
    material_ids = np.asarray(material_ids)
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    per_particle = (diff * diff).sum(axis=-1)
    ks = np.unique(material_ids)
    total = 0.0
    for k in ks:
        total += per_particle[material_ids == k].mean()
    return float(total / len(ks))


class Adam:
    """Standard Adam update; beta=(0.9, 0.999), eps=1e-8."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data, dtype=np.float64) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data, dtype=np.float64) for k, t in params.items()}
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / b1t
            v_hat = self.v[k] / b2t
            p.data = (p.data.astype(np.float64)
                      - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


@dataclass
class TrainConfig:
    lr: float = 0.0008
    lr_decay: float = 0.8
    patience: int = 3
    batch_size: int = 4
    epochs: int = 5
    steps_per_epoch: int = 100
    valid_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        check_field_types(TrainConfig, vars(self))
        if self.lr <= 0 or not (0 < self.lr_decay < 1) or self.patience <= 0:
            raise ValueError("invalid training hyperparameters")
        if self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("batch size must be positive, epochs non-negative")
        for name in ("steps_per_epoch", "valid_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be >= 1, got {getattr(self, name)}")


class PlateauScheduler:
    """Multiply lr by the decay factor after `patience` epochs without
    validation-loss improvement (strict, with a small tolerance)."""

    def __init__(self, lr: float, decay: float, patience: int, tol: float = 1e-6):
        self.lr = lr
        self.decay = decay
        self.patience = patience
        self.tol = tol
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, valid_loss: float) -> float:
        if valid_loss < self.best - self.tol:
            self.best = valid_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.decay
                self.bad_epochs = 0
        return self.lr


def dataset_norm_stats(ds: RolloutDataset) -> P.NormStats:
    frames = np.concatenate([r.reshape(-1, 6) for r in ds.train], axis=0).astype(np.float64)
    return P.compute_norm_stats(frames, ds.attributes)


def _transitions(ds: RolloutDataset, split: str, history: int, limit=None, seed: int = 0):
    """(rollout, t) of every transition of a split that has `history` frames;
    with `limit`, a sorted random subset of at most that many, drawn from
    `seed`."""
    out = [(ri, t) for ri, frames in enumerate(getattr(ds, split))
           for t in range(history - 1, frames.shape[0] - 1)]
    if limit is not None and len(out) > limit:
        pick = np.random.default_rng(seed).choice(len(out), size=limit, replace=False)
        out = [out[i] for i in sorted(pick)]
    return out


def make_sample(ds: RolloutDataset, frames: np.ndarray, t: int, history: int,
                stats: P.NormStats, radius: float):
    """Model input, neighbor pairs, and normalized target for one transition."""
    ph = [frames[t - i, :, 0:3].astype(np.float64) for i in range(history)]
    qh = [frames[t - i, :, 3:6].astype(np.float64) for i in range(history)]
    x = P.assemble_inputs(ph, qh, ds.attributes, stats)
    graph = P.build_neighbor_graph(ph[0], radius)
    target = P.normalize_velocity(frames[t + 1, :, 3:6].astype(np.float64), stats)
    return x, graph, target


def make_batch(ds: RolloutDataset, rollouts: list, trans, history: int,
               stats: P.NormStats, radius: float):
    """(x, receivers, senders, target) of the transitions `trans` ((rollout,
    t) pairs into `rollouts`) as one block-diagonal system: the samples'
    rows stacked in order, and the pairs of sample b offset by b * n, so no
    pair joins two samples.  Each sample comes from `make_sample`."""
    xs, recvs, sends, targets = [], [], [], []
    for b, (ri, t) in enumerate(trans):
        x, graph, target = make_sample(ds, rollouts[ri], t, history, stats, radius)
        offset = b * x.shape[0]
        xs.append(x)
        recvs.append(graph.receivers + offset)
        sends.append(graph.senders + offset)
        targets.append(target)
    return (np.concatenate(xs), np.concatenate(recvs), np.concatenate(sends),
            np.concatenate(targets))


def _forward(model, ds: RolloutDataset, rollouts: list, trans, stats: P.NormStats):
    """(prediction, normalized target, neighbor pair count) of one
    `make_batch` forward over `trans`."""
    x, recv, send, target = make_batch(ds, rollouts, trans, model.cfg.history, stats,
                                       model.cfg.radius)
    pred = model.forward(x, recv, send, np.tile(ds.material_ids, len(trans)),
                         samples=len(trans))
    return pred, target, len(recv)


def _valid_predictions(model, ds: RolloutDataset, stats: P.NormStats, trans, chunk: int):
    """(transition, normalized prediction, normalized target) of each
    validation transition in `trans`, `chunk` of them per forward."""
    for lo in range(0, len(trans), chunk):
        part = trans[lo:lo + chunk]
        pred, target, _ = _forward(model, ds, ds.valid, part, stats)
        yield from zip(part, np.split(pred.data, len(part)), np.split(target, len(part)))


def evaluate_loss(model, ds: RolloutDataset, stats, trans, batch_size: int) -> float:
    """Mean over the validation transitions `trans` of the per-sample MSE,
    one forward per `batch_size` of them."""
    return sum(mse(pred, target) for _, pred, target
               in _valid_predictions(model, ds, stats, trans, batch_size)) / len(trans)


def fit(model, ds: RolloutDataset, cfg: TrainConfig, out_dir=None):
    """Train a model; returns (history rows, NormStats).

    Deterministic given (seed, config, dataset).  On a non-finite loss the
    last good parameters are checkpointed (if out_dir is set) and a
    DivergenceError is raised.  With out_dir, the training NormStats go to
    norm_stats.json first, so every checkpoint of the run has them, and
    steps.jsonl gets one line per optimizer step (`_log_step`).
    """
    stats = dataset_norm_stats(ds)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        P.save_norm_stats(stats, os.path.join(out_dir, "norm_stats.json"))
    rng = np.random.default_rng(cfg.seed)
    train_trans = _transitions(ds, "train", model.cfg.history)
    valid_trans = _transitions(ds, "valid", model.cfg.history, cfg.valid_samples, cfg.seed + 1)
    sched = PlateauScheduler(cfg.lr, cfg.lr_decay, cfg.patience)
    optim = Adam(model.params(), cfg.lr)
    history = []
    last_good = {k: t.data.copy() for k, t in model.params().items()}
    with (open(os.path.join(out_dir, "steps.jsonl"), "w") if out_dir is not None
          else contextlib.nullcontext()) as step_log:
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            for step in range(cfg.steps_per_epoch):
                t0 = time.perf_counter()
                idxs = rng.integers(0, len(train_trans), size=cfg.batch_size)
                optim.zero_grad()
                with Tape() as tape:
                    # every sample has the same particle count, so the MSE over
                    # the stacked rows is the mean of the per-sample losses
                    pred, target, pairs = _forward(model, ds, ds.train,
                                                   [train_trans[i] for i in idxs], stats)
                    loss = mse_loss(pred, target)
                    if not np.isfinite(loss.item()):
                        if out_dir is not None:
                            _save_model(dict_to_tensors(last_good), out_dir, "last_good")
                        raise DivergenceError(f"non-finite loss at epoch {epoch}")
                    T.backward(loss, tape)
                epoch_loss += loss.item()
                optim.step()
                if step_log is not None:
                    _log_step(step_log, optim, epoch, epoch * cfg.steps_per_epoch + step,
                              loss.item(), pairs / cfg.batch_size, t0)
            last_good = {k: t.data.copy() for k, t in model.params().items()}
            valid_loss = (evaluate_loss(model, ds, stats, valid_trans, cfg.batch_size)
                          if valid_trans else np.nan)
            lr_next = sched.update(valid_loss)
            optim.lr = lr_next
            history.append({
                "epoch": epoch,
                "train_loss": epoch_loss / cfg.steps_per_epoch,
                "valid_loss": valid_loss,
                "lr": lr_next,
            })
    if out_dir is not None:
        write_history(history, os.path.join(out_dir, "history.csv"))
        _save_model(model.params(), out_dir, "final")
    return history, stats


def _log_step(f, optim: Adam, epoch: int, step: int, loss: float, pairs_per_sample: float,
              t0: float):
    """One steps.jsonl line, written after the Adam update: the step's epoch,
    its index over the run, its loss, the global L2 norm of the gradients
    the update used, its lr, the wall ms since `t0` (the step's start) and
    the neighbor pairs per sample."""
    grad_sq = sum(float(np.vdot(g, g)) for g in
                  (p.grad.astype(np.float64) for p in optim.params.values() if p.grad is not None))
    f.write(json.dumps({"epoch": epoch, "step": step, "loss": loss,
                        "grad_norm": float(np.sqrt(grad_sq)), "lr": optim.lr,
                        "step_ms": (time.perf_counter() - t0) * 1000.0,
                        "pairs_per_sample": pairs_per_sample}) + "\n")


def dict_to_tensors(arrays: dict) -> dict:
    return {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}


def _save_model(params: dict, out_dir, tag: str):
    T.save_checkpoint(params, os.path.join(out_dir, f"{tag}.manifest.json"),
                      os.path.join(out_dir, f"{tag}.blob.bin"))


def write_history(history, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["epoch", "train_loss", "valid_loss", "lr"])
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


@dataclass
class EvalReport:
    per_material: dict
    m3se_mean: float
    m3se_std: float
    per_step: list = field(default_factory=list)
    divergent: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def _one_step_report(ds: RolloutDataset, predictions) -> EvalReport:
    """Scores of (validation transition, predicted next velocity in world
    units) pairs against the ground truth."""
    scores = []
    per_mat: dict[int, list] = {}
    for (ri, t), pred in predictions:
        truth = ds.valid[ri][t + 1, :, 3:6].astype(np.float64)
        scores.append(m3se(pred, truth, ds.material_ids))
        diff = ((pred - truth) ** 2).sum(axis=-1)
        for k in np.unique(ds.material_ids):
            per_mat.setdefault(int(k), []).append(float(diff[ds.material_ids == k].mean()))
    return EvalReport(per_material={k: float(np.mean(v)) for k, v in per_mat.items()},
                      m3se_mean=float(np.mean(scores)), m3se_std=float(np.std(scores)))


def one_step_eval(model, ds: RolloutDataset, stats: P.NormStats,
                  max_samples: int = 200, seed: int = 0) -> EvalReport:
    """M3SE of single-step predictions on the validation split (world units)."""
    trans = _transitions(ds, "valid", model.cfg.history, max_samples, seed)
    preds = _valid_predictions(model, ds, stats, trans, 1)
    return _one_step_report(ds, ((tr, P.denormalize_velocity(p, stats)) for tr, p, _ in preds))


def constant_velocity_eval(ds: RolloutDataset, history: int = 1,
                           max_samples: int = 200, seed: int = 0) -> EvalReport:
    """Baseline that predicts the next velocity equals the current one."""
    trans = _transitions(ds, "valid", history, max_samples, seed)
    return _one_step_report(ds, (((ri, t), ds.valid[ri][t, :, 3:6].astype(np.float64))
                                 for ri, t in trans))


def rollout(model, ds: RolloutDataset, stats: P.NormStats, rollout_idx: int,
            n_steps: int, split: str = "valid", out_path=None):
    """Recursive rollout from a ground-truth prefix; graph rebuilt from the
    predicted positions each step.  Returns (predicted frames, EvalReport)."""
    frames = getattr(ds, split)[rollout_idx]
    H = model.cfg.history
    if n_steps > frames.shape[0] - H:
        raise ValueError(f"rollout of {n_steps} steps exceeds ground truth length")
    # each prediction overwrites its ground-truth frame, so `make_sample`
    # reads the next step's history from the predicted frames
    work = frames[:H + n_steps].astype(np.float64)
    per_step = []
    for t in range(H - 1, H - 1 + n_steps):
        pred, _, _ = _forward(model, ds, [work], [(0, t)], stats)
        q_hat = P.denormalize_velocity(pred.data, stats)
        if not np.isfinite(q_hat).all():
            break
        per_step.append(m3se(q_hat, frames[t + 1, :, 3:6].astype(np.float64), ds.material_ids))
        work[t + 1, :, 0:3] = P.integrate_positions(work[t, :, 0:3], q_hat, ds.spec.dt)
        work[t + 1, :, 3:6] = q_hat
    pred_frames = work[H:H + len(per_step)].astype(np.float32)
    report = EvalReport(per_material={}, m3se_mean=float(np.mean(per_step)) if per_step else np.nan,
                        m3se_std=float(np.std(per_step)) if per_step else np.nan,
                        per_step=per_step, divergent=len(per_step) < n_steps)
    if out_path is not None:
        write_rollout_file(pred_frames, out_path)
    return pred_frames, report
