"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the particlesim packages from the
outside (module attributes and class methods), records one span per call
(name, start, end, parent), and restores every original on exit.  Nothing
inside the packages changes; callers that look a function up through its
module at call time (``T.matmul``, ``P.build_neighbor_graph``,
``training.make_sample``) see the wrapper.

Span kinds, told apart by name prefix:

* ``tensor.<prim>``   a forward call of a tape primitive (leaf work);
* ``scope:<label>``   a ``Tape.scope`` block, so taped forwards only;
* everything else     a call into a layer's public function.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from particlesim import attention, bench, gnn, particles, training, worlds
from particlesim import tensor as T

# Public tape primitives; ``neg`` calls ``scale``, so it nests one span.
PRIMITIVES = (
    "matmul", "add", "sub", "mul", "div", "scale", "square", "sqrt", "clamp_min",
    "relu", "concat", "rows", "cols", "gather_rows", "segment_sum", "reduce_sum",
    "reduce_mean", "scale_rows", "shift_rows", "div_rows", "scale_cols",
    "softmax_masked", "segment_softmax", "layer_norm", "neg",
)

FORWARDS = {
    "attention.tie_forward": attention.ImplicitEdgeModel,
    "attention.vanilla_forward": attention.VanillaTransformer,
    "gnn.forward": gnn.ExplicitEdgeGnn,
}


class Tracer:
    """Spans kept in memory plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.prim_calls = 0
        self.gathered_bytes = 0
        self.forwards: list[dict] = []  # one record per model forward
        self.neighbor_pairs: list[int] = []  # pair count of every graph built
        self.samples = 0
        self.revisits = 0
        self._seen: set = set()
        self._restore: list = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        fn = owner.__dict__[attr]
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            i = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result, state, spans[i], *args)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def _wrap_scope(self):
        orig = T.Tape.scope
        spans, stack = self.spans, self.stack

        @contextmanager
        def scope(tape, label):
            i = len(spans)
            spans.append([f"scope:{label}", time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1])
            stack.append(i)
            try:
                with orig(tape, label):
                    yield
            finally:
                spans[i][2] = time.perf_counter_ns()
                stack.pop()

        T.Tape.scope = scope
        self._restore.append((T.Tape, "scope", orig))

    # -- counters -----------------------------------------------------------

    def _count_prim(self, *args):
        self.prim_calls += 1

    def _count_gather(self, *args):
        self.prim_calls += 1
        a, idx = args[0], args[1]
        row = a.data.itemsize * (a.data.size // max(a.data.shape[0], 1))
        self.gathered_bytes += len(idx) * row

    def _forward_before(self, model, x_np, recv, send, *rest):
        tape = T.active_tape()
        return (tape, len(tape.entries) if tape is not None else 0,
                self.prim_calls, self.gathered_bytes)

    def _forward_after(self, result, state, span, model, x_np, recv, send, *rest):
        tape, start, calls, gathered = state
        cfg = model.cfg
        n, e = len(x_np), len(recv)
        if cfg.n_abstract:
            material_ids = rest[0] if rest else None
            e = len(model.extend_pairs(recv, send, material_ids, n)[0])
            n += cfg.n_abstract
        rec = {"backbone": cfg.backbone, "taped": tape is not None, "n": n, "e": e,
               "ms": (span[2] - span[1]) / 1e6, "prim_calls": self.prim_calls - calls,
               "gathered_bytes": self.gathered_bytes - gathered,
               "entries": 0, "macs": 0, "analytic_macs": 0}
        if tape is not None:
            entries = tape.entries[start:]
            rec["entries"] = len(entries)
            rec["macs"] = sum(en.macs for en in entries)
            rec["analytic_macs"] = bench.count_macs(cfg, n, e)["total"]
        self.forwards.append(rec)

    def _fit_before(self, *args):
        self._seen = set()

    def _sample_before(self, ds, frames, t, *rest):
        key = (id(frames), t)
        self.samples += 1
        if key in self._seen:
            self.revisits += 1
        self._seen.add(key)

    def _graph_after(self, graph, state, span, *args):
        self.neighbor_pairs.append(graph.n_pairs)

    # -- install / restore --------------------------------------------------

    def install(self):
        for prim in PRIMITIVES:
            counter = self._count_gather if prim == "gather_rows" else self._count_prim
            self._wrap(T, prim, f"tensor.{prim}", before=counter)
        self._wrap(T, "backward", "tensor.backward")
        self._wrap_scope()
        for name, cls in FORWARDS.items():
            self._wrap(cls, "forward", name, before=self._forward_before,
                       after=self._forward_after)
        self._wrap(particles, "build_neighbor_graph", "particles.build_neighbor_graph",
                   after=self._graph_after)
        self._wrap(particles, "assemble_inputs", "particles.assemble_inputs")
        self._wrap(training, "fit", "training.fit", before=self._fit_before)
        self._wrap(training, "make_sample", "training.make_sample", before=self._sample_before)
        self._wrap(training, "evaluate_loss", "training.evaluate_loss")
        self._wrap(training, "rollout", "training.rollout")
        self._wrap(training.Adam, "step", "training.adam_step")
        for fn in ("generate_dataset", "write_dataset", "read_dataset"):
            self._wrap(worlds, fn, f"worlds.{fn}")

    def restore(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------------

    def mark(self) -> dict:
        """Snapshot of every counter, so a phase can be measured as a difference."""
        return {"span": len(self.spans), "forward": len(self.forwards),
                "pairs": len(self.neighbor_pairs), "samples": self.samples,
                "revisits": self.revisits}

    def totals(self, start: int, stop: int | None = None) -> dict:
        """Inclusive ms per span name over spans[start:stop]."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, _ in self.spans[start:stop]:
            out[name] += (t1 - t0) / 1e6
        return out

    def counts(self, start: int) -> dict:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans[start:]:
            out[span[0]] += 1
        return out

    def _owner(self, i: int, names) -> str | None:
        """Name of the nearest ancestor span of i whose name is in `names`."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return self.spans[p][0]
            p = self.spans[p][3]
        return None

    def scope_self_ms(self, start: int) -> dict:
        """Per (forward name, scope label): ms inside the scope, minus the
        part of it covered by nested scopes.  Primitive work inside a scope
        stays in that scope's figure."""
        spans = self.spans
        self_ms: dict[tuple, float] = defaultdict(float)
        for i in range(start, len(spans)):
            name, t0, t1, parent = spans[i]
            if not name.startswith("scope:"):
                continue
            owner = self._owner(i, FORWARDS)
            self_ms[(owner, name[6:])] += (t1 - t0) / 1e6
            p = parent
            while p >= 0 and not spans[p][0].startswith("scope:") and spans[p][0] not in FORWARDS:
                p = spans[p][3]
            if p >= 0 and spans[p][0].startswith("scope:"):
                self_ms[(owner, spans[p][0][6:])] -= (t1 - t0) / 1e6
        return self_ms

    def self_ms_by_name(self, start: int) -> dict:
        """Generic self time: each span's duration minus its direct children's."""
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        for i in range(start, len(spans)):
            name, t0, t1, parent = spans[i]
            out[name] += (t1 - t0) / 1e6
            if parent >= start:
                out[spans[parent][0]] -= (t1 - t0) / 1e6
        return out

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
