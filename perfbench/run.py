#!/usr/bin/env python3
"""particlesim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every run reports every end-to-end metric, so every run sets up all three
problems of problems.py and measures each of them, interleaved over
``--seconds`` in fixed shares (SHARE) with the speed reference of
reference.py, and every timing is reported at reference speed.  The
workload names its own problem.  ``setup_s`` and ``peak_rss_mb`` belong to
it alone: it is set up and runs one untimed unit before anything else
exists.  A ``--trace 1`` run sets up only the own problem, alternates
untraced and traced units of it, and reports the per-layer metrics of
layers.py from the traced ones; its timings are wall-clock.

The last line of stdout is the result object; the line before it holds the
details (machine record, sample counts, tail percentiles, wall-clock
figures, every unit's timings in order, workload properties, errors).  Exit code 2 means nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# workload -> its own problem: the one set-up time, peak memory and trace describe
WORKLOADS = {"train_desk": "desk_fit", "pairs_dense": "dense_fwdbwd"}
# Share of the measuring time each problem, and the speed reference of
# reference.py, gets in every run.  A rollout gives a steady rate from few
# 0.8 s calls; fits (5 s) and fwd+bwd iterations (0.3 to 1 s, one metric
# each) need more.
SHARE = {"desk_fit": 0.35, "wide_rollout": 0.15, "dense_fwdbwd": 0.3, "reference": 0.2}
MIN_UNITS = 2
SETUP_REPEATS = 3    # set-ups of the own problem: at least this many,
SETUP_SECONDS = 3.0  # and at least this much set-up time in all
SETUP_REFERENCE_UNITS = 3
# One BLAS thread: on a shared 2-vCPU host a second thread ties each matmul
# to the slower of two cores, and every timing spread wider between runs.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def blas_record() -> dict:
    """Library, version and thread count of the BLAS numpy has loaded."""
    import ctypes
    rec = {"library": None, "config": None, "threads": None}
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        rec["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    rec["threads"] = threads()
                    rec["config"] = config().decode()
                    return rec
    return rec


def machine_record(blas_threads: int) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads_requested": blas_threads, "blas": blas_record(),
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def tail(values: list[float]) -> dict:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "tail_pct": None, "tail_value": None}
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        out["tail_pct"] = pct
        out["tail_value"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def interleave(probs: dict, seconds: float, order: list) -> dict:
    """Run units of every problem for `seconds` in all, each time picking the
    problem furthest behind its SHARE of the time, and append the timings of
    each unit to `order`.  Interleaving spreads each problem's samples over
    the whole run, so that slow and fast spells of a shared machine fall on
    every metric alike."""
    spent = {name: 0.0 for name in probs}
    units = {name: 0 for name in probs}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or min(units.values()) < MIN_UNITS:
        name = min(probs, key=lambda n: spent[n] / SHARE[n])
        t0 = time.perf_counter()
        order.append(probs[name].unit())
        spent[name] += time.perf_counter() - t0
        units[name] += 1
    return units


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, problems_mod, workdir) -> tuple[dict, dict, object]:
    from reference import REFERENCE_S, Reference

    outcome = problems_mod.Outcome()
    own = WORKLOADS[args.workload]
    # setup_s and peak_rss_mb are the own problem's: set it up alone, run one
    # untimed unit, and read the high-water mark before anything else exists.
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        own_prob = problems_mod.PROBLEMS[own](args.seed, str(workdir), outcome)
        setup_s.append(time.perf_counter() - t0)
    own_prob.unit()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The reference units right after the set-ups give set-up time its scale.
    reference = Reference()
    ref_s = [reference.unit()["reference"] for _ in range(SETUP_REFERENCE_UNITS)]
    probs = {name: own_prob if name == own else cls(args.seed, str(workdir), outcome)
             for name, cls in problems_mod.PROBLEMS.items()}
    probs["reference"] = reference
    order = [{"reference": dt} for dt in ref_s]  # every unit's timings, in the order run
    units = interleave(probs, args.seconds, order)

    desk, wide = probs["desk_fit"], probs["wide_rollout"]
    train_loss, desk_e_per_n = desk.final_loss()
    backbones = problems_mod.DENSE_BACKBONES
    # Timings at reference speed: each unit's wall time is scaled by
    # REFERENCE_S over the mean of the nearest reference unit before and after
    # it, set-up time by the reference units right after the set-ups.
    refs = [i for i, took in enumerate(order) if "reference" in took]
    wall: dict[str, list[float]] = {}    # timing name -> seconds of each sample
    at_ref: dict[str, list[float]] = {}  # the same at reference speed
    for i, took in enumerate(order):
        if "reference" in took:
            continue
        near = [j for j in refs if j < i][-1:] + [j for j in refs if j > i][:1]
        k = REFERENCE_S / statistics.mean(order[j]["reference"] for j in near)
        for name, dt in took.items():
            wall.setdefault(name, []).append(dt)
            at_ref.setdefault(name, []).append(dt * k)

    def figures(timings: dict, setup: float) -> dict:
        # Throughput is all the work over all its time; a median of per-call
        # rates would jump between the fast and slow spells of a shared machine.
        rate = lambda name, work: (work * len(timings[name]) / sum(timings[name])
                                   if timings.get(name) else None)
        p50 = lambda name: 1000.0 * statistics.median(timings[name]) if timings.get(name) else None
        return {"setup_s": setup,
                "train_samples_per_s": rate("fit", desk.work),
                "rollout_steps_per_s": rate("rollout", wide.work),
                **{f"{b}_fwdbwd_ms_p50": p50(b) for b in backbones}}

    setup_scale = REFERENCE_S / statistics.mean(ref_s)
    ref = figures(at_ref, statistics.median(setup_s) * setup_scale)
    metrics = {
        "setup_s": metric(ref["setup_s"], "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "train_samples_per_s": metric(ref["train_samples_per_s"], "1/s"),
        "train_loss_final": metric(train_loss, "mse"),
        "rollout_steps_per_s": metric(ref["rollout_steps_per_s"], "1/s"),
    }
    for b in backbones:
        metrics[f"{b}_fwdbwd_ms_p50"] = metric(ref[f"{b}_fwdbwd_ms_p50"], "ms")

    pair_counts = wide.pair_counts()
    ms = lambda name: [1000.0 * dt for dt in at_ref.get(name, [])]
    detail = {
        "units": units,
        "setup_s_all": setup_s,
        "samples": {  # per unit, at reference speed
            "train_samples_per_s": tail([desk.work / dt for dt in at_ref.get("fit", [])]),
            "rollout_steps_per_s": tail([wide.work / dt for dt in at_ref.get("rollout", [])]),
            **{f"{b}_fwdbwd_ms": tail(ms(b)) for b in backbones},
        },
        "wall_clock": figures(wall, statistics.median(setup_s)),
        "setup_reference_scale": setup_scale,
        "timings_s": order,
        "last_epoch_train_loss": desk.losses,
        "workload_properties": {
            "desk_e_per_n": desk_e_per_n,
            "wide_pairs_per_step": pair_counts,
            "wide_e_per_n": statistics.mean(pair_counts) / problems_mod.WIDE_WORLD.n,
            "dense_e_per_n": problems_mod.DENSE_E / problems_mod.DENSE_N,
        },
    }
    return metrics, detail, outcome


def traced_run(args, problems_mod, workdir):
    from tracing import Tracer
    import layers

    outcome = problems_mod.Outcome()
    tracer = Tracer()
    shutil.rmtree(workdir, ignore_errors=True)
    own = WORKLOADS[args.workload]
    with tracer:
        setup_mark = tracer.mark()
        problem = problems_mod.PROBLEMS[own](args.seed, str(workdir), outcome)
    # Alternate untraced and traced units of the same work, so that drift in
    # the machine's speed falls on both sides of the overhead ratio.
    mark = tracer.mark()
    untraced_s = traced_s = 0.0
    units = 0
    while units < 1 or untraced_s + traced_s < args.seconds:
        t0 = time.perf_counter()
        problem.unit()
        untraced_s += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            problem.unit()
            traced_s += time.perf_counter() - t0
        units += 1
    metrics, absent = layers.per_layer(tracer, setup_mark, mark,
                                       work_units=units * getattr(problem, "steps", 1))
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    if metrics["tensor.instrumented_macs"]["value"] != metrics["bench.analytic_macs"]["value"]:
        outcome.errors.append("instrumented tape MACs differ from bench.count_macs")
    detail = {"units": {problem.name: units}, "untraced_s": untraced_s, "traced_s": traced_s,
              "absent": absent, "trace_file": str(trace_path.relative_to(ROOT)),
              "spans": len(tracer.spans),
              "self_ms_by_scope": layers.scope_table(tracer, mark),
              "self_ms_by_name": layers.self_table(tracer, mark)}
    return metrics, detail, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "particlesim" / "__init__.py").is_file():
        print(f"run.py: no particlesim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Fix the BLAS pool of this process only, before numpy loads it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import particlesim
    if Path(particlesim.__file__).resolve().parent != SRC / "particlesim":
        print(f"run.py: imported particlesim from {particlesim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import problems

    workdir = WORK / f"run-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail, outcome = run(args, problems, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(BLAS_THREADS),
              "failure_ratio": outcome.failed / max(outcome.attempted, 1),
              "errors": outcome.errors, **detail}
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        outcome.errors.append(f"no successful sample for {missing}")
    result = {"correct": not outcome.errors and outcome.failed == 0,
              "attempted": max(outcome.attempted, 1), "failed": outcome.failed,
              "metrics": metrics}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
