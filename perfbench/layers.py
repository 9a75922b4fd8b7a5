"""Per-layer metrics computed from a traced pass.

Every ``*_ms`` figure is milliseconds per unit of work of the traced
problem: one optimizer step (train_desk), or one round of tie + vanilla +
gnn forward and backward (pairs_dense).
Primitive, forward and layer-function figures are inclusive wall time of
the call; scope figures are self time (a nested scope's time is taken out
of its parent).  Times include the tracing overhead, which the run reports
as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import statistics

from tracing import FORWARDS

ATTENTION_SCOPES = ("encode", "token_update", "attention", "post", "decode")
GNN_SCOPES = ("encode_node", "encode_edge", "edge_update", "node_update")
TENSOR_PRIMS = ("matmul", "gather_rows", "segment_sum", "segment_softmax")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(tracer, setup_mark: dict, mark: dict, work_units: int):
    """Returns (metrics, absent): absent maps a metric to why it reads 0."""
    start = mark["span"]
    totals = tracer.totals(start)
    counts = tracer.counts(start)
    setup_totals = tracer.totals(setup_mark["span"], start)
    scopes = tracer.scope_self_ms(start)
    recs = tracer.forwards[mark["forward"]:]
    taped = [r for r in recs if r["taped"]]
    pairs = tracer.neighbor_pairs[mark["pairs"]:]
    samples = tracer.samples - mark["samples"]
    revisits = tracer.revisits - mark["revisits"]
    per_unit = lambda ms: ms / work_units
    mean = lambda xs: statistics.mean(xs) if xs else 0.0
    m, absent = {}, {}

    m["tensor.backward_ms"] = _metric(per_unit(totals["tensor.backward"]), "ms/unit")
    m["tensor.tape_entries_per_forward"] = _metric(mean([r["entries"] for r in taped]), "count")
    m["tensor.primitive_calls_per_forward"] = _metric(mean([r["prim_calls"] for r in recs]),
                                                      "count")
    for prim in TENSOR_PRIMS:
        m[f"tensor.{prim}_ms"] = _metric(per_unit(totals[f"tensor.{prim}"]), "ms/unit")
    m["tensor.gathered_mb"] = _metric(mean([r["gathered_bytes"] for r in recs]) / 1e6,
                                      "MB/forward")
    m["tensor.instrumented_macs"] = _metric(mean([r["macs"] for r in taped]), "MAC/forward")
    m["bench.analytic_macs"] = _metric(mean([r["analytic_macs"] for r in taped]), "MAC/forward")
    fwdbwd_s = (sum(r["ms"] for r in taped) + totals["tensor.backward"]) / 1e3
    m["tensor.gmacs_per_s"] = _metric(
        sum(r["macs"] for r in taped) / fwdbwd_s / 1e9 if fwdbwd_s else 0.0, "GMAC/s")
    if not taped:
        for k in ("tensor.backward_ms", "tensor.tape_entries_per_forward",
                  "tensor.instrumented_macs", "bench.analytic_macs", "tensor.gmacs_per_s"):
            absent[k] = "no taped forward: this workload runs the model untaped"

    for name in FORWARDS:
        m[f"{name}_ms"] = _metric(per_unit(totals[name]), "ms/unit")
        if not counts[name]:
            absent[f"{name}_ms"] = "this workload does not run this backbone"
    attention_owners = ("attention.tie_forward", "attention.vanilla_forward")
    for label in ATTENTION_SCOPES:
        key = f"attention.{label}_ms"
        m[key] = _metric(per_unit(sum(scopes[(o, label)] for o in attention_owners)), "ms/unit")
        if not any(counts[o] for o in attention_owners):
            absent[key] = "no attention backbone runs in this workload"
        elif not taped:
            absent[key] = "scopes exist only on taped forwards; this workload runs untaped"
    for label in GNN_SCOPES:
        key = f"gnn.{label}_ms"
        m[key] = _metric(per_unit(scopes[("gnn.forward", label)]), "ms/unit")
        if not counts["gnn.forward"]:
            absent[key] = "this workload does not run the gnn backbone"

    calls = counts["particles.build_neighbor_graph"]
    m["particles.build_neighbor_graph_ms"] = _metric(
        per_unit(totals["particles.build_neighbor_graph"]), "ms/unit")
    m["particles.neighbor_calls"] = _metric(calls / work_units, "count/unit")
    m["particles.pairs_per_call"] = _metric(mean(pairs), "count")
    m["particles.assemble_inputs_ms"] = _metric(per_unit(totals["particles.assemble_inputs"]),
                                                "ms/unit")
    if not calls:
        for k in ("particles.build_neighbor_graph_ms", "particles.neighbor_calls",
                  "particles.pairs_per_call", "particles.assemble_inputs_ms"):
            absent[k] = "fixed pair list: this workload runs no neighbor search"

    steps = counts["training.adam_step"]
    sample_graphs = sum(1 for name, _, _, parent in tracer.spans[start:]
                        if name == "particles.build_neighbor_graph" and parent >= 0
                        and tracer.spans[parent][0] == "training.make_sample")
    taped_in_fit = len(taped) if steps else 0
    for k in ("make_sample", "adam_step", "evaluate_loss"):
        m[f"training.{k}_ms"] = _metric(per_unit(totals[f"training.{k}"]), "ms/unit")
    m["training.forward_calls_per_step"] = _metric(taped_in_fit / steps if steps else 0.0,
                                                   "count")
    m["training.graph_builds_per_sample"] = _metric(
        sample_graphs / samples if samples else 0.0, "ratio")
    m["training.sample_revisit_ratio"] = _metric(revisits / samples if samples else 0.0, "ratio")
    if not steps:
        for k in ("training.make_sample_ms", "training.adam_step_ms", "training.evaluate_loss_ms",
                  "training.forward_calls_per_step", "training.graph_builds_per_sample",
                  "training.sample_revisit_ratio"):
            absent[k] = "this workload does not train"

    for k in ("generate_dataset", "write_dataset", "read_dataset"):
        key = f"worlds.{k.split('_')[0]}_dataset_s"
        m[key] = _metric(setup_totals[f"worlds.{k}"] / 1e3, "s")
        if not setup_totals["worlds.generate_dataset"]:
            absent[key] = "no dataset: this workload's pair list comes from bench.synthesize_pairs"
    return m, absent


def scope_table(tracer, mark: dict) -> dict:
    """Scope self time by backbone, ms summed over the traced pass."""
    out: dict[str, dict] = {}
    for (owner, label), ms in sorted(tracer.scope_self_ms(mark["span"]).items(),
                                     key=lambda kv: (str(kv[0][0]), kv[0][1])):
        out.setdefault(str(owner), {})[label] = round(ms, 3)
    return out


def self_table(tracer, mark: dict) -> dict:
    """Generic self time per span name (duration minus direct children), ms."""
    rows = tracer.self_ms_by_name(mark["span"])
    return {k: round(v, 3) for k, v in sorted(rows.items(), key=lambda kv: -kv[1])}
