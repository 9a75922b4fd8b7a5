"""Speed reference: fixed work on a frozen copy of the model code.

The machine this benchmark was built on is a VM on a shared host whose speed
drifts by 20 to 50% over seconds to minutes, with CPU time equal to wall
time: the cores run slower, nothing is stolen.  Within one run every timing drifts
together, so sets of runs of the same code differ by that much.  A
synthetic numpy loop does not follow the drift closely: it speeds up and
slows down by other ratios than the model code does.

``Reference`` is a problem like those of problems.py whose code never
changes: forward + backward of TIE and the GNN and an untaped TIE forward
with a neighbor search, all on frozen/ (the model code of 094bc2d) and on
fixed inputs.  run.py interleaves it with the problems and reports every
timing at reference speed: each unit's wall time scaled by ``REFERENCE_S``
over the mean time of the nearest reference unit before and after it.  A change to particlesim moves the
problems' timings but not the reference's; a spell of the machine moves
both.  The raw wall-clock figures stay in the run's detail line.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from frozen import tensor as T
from frozen.attention import build_model
from frozen.nn import ModelConfig
from frozen.particles import SystemState, build_neighbor_graph

# About the wall time of one reference unit on the machine of
# baseline/README.md (0.37 to 0.55 s there); it fixes the unit of the scaled
# timings and nothing else.
REFERENCE_S = 0.50

SMALL = ModelConfig(backbone="tie", d_in=7, d=64, heads=4, blocks=2, mlp_hidden=128,
                    radius=0.1, precision="f32")
WIDE = ModelConfig(backbone="tie", d_in=7, d=128, heads=4, blocks=2, mlp_hidden=256,
                   precision="f32")


def _state(rng, n: int, side: float) -> SystemState:
    return SystemState(positions=rng.uniform(0.0, side, (n, 3)), velocities=np.zeros((n, 3)),
                       attributes=np.zeros((n, 1)), material_ids=np.zeros(n, dtype=np.int64))


class Reference:
    name = "reference"

    def __init__(self):
        rng = np.random.default_rng(0)
        # N=64 at E/N of about 40, like the desk samples; N=256 at E of
        # about 4000 and d=128, like a smaller pairs_dense; N=1024 at E/N of
        # about 20, untaped, like the wide rollout.
        self.cases = []
        for n, side, cfg, backbones, taped in (
                (64, 0.145, SMALL, ("tie",), True),
                (256, 0.37, WIDE, ("tie", "gnn"), True),
                (1024, 0.56, SMALL, ("tie",), False)):
            state = _state(rng, n, side)
            x = rng.standard_normal((n, cfg.d_in)).astype(np.float32)
            models = [build_model(dataclasses.replace(cfg, backbone=b), seed=0)
                      for b in backbones]
            self.cases.append((state, x, models, taped))
        self.unit()

    def unit(self) -> dict[str, float]:
        t0 = time.perf_counter()
        for state, x, models, taped in self.cases:
            graph = build_neighbor_graph(state, 0.1)
            for model in models:
                if not taped:
                    model.forward(x, graph.receivers, graph.senders)
                    continue
                for p in model.params().values():
                    p.grad = None
                with T.Tape() as tape:
                    pred = model.forward(x, graph.receivers, graph.senders)
                    loss = T.scale(T.reduce_sum(T.square(pred)), 1.0 / state.n)
                    T.backward(loss, tape)
        return {"reference": time.perf_counter() - t0}
