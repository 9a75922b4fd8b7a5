#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/collect.py                       # every workload, seeds 1-10
    python3 perfbench/collect.py --trace --seeds 1,1   # per-layer metrics
    python3 perfbench/collect.py --out perfbench/baseline/new.json \\
        --compare perfbench/baseline/094bc2d.json

Runs ``run.py`` once per (workload, seed), one process at a time, from the
root of the checkout, on every workload of BENCHMARK.json and for its
``run_seconds``.  For each workload and end-to-end metric it prints the
median, the quartiles and the spread (interquartile distance over median,
from ``statistics.quantiles(values, n=4)``) next to the metric's bound, and
the workload's failure ratio.  With ``--compare`` it also prints the change of
each median against an earlier summary, as a share of the earlier median,
signed so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": wall_s, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    out = {"failure_ratio": sum(r["result"]["failed"] for r in runs)
           / sum(r["result"]["attempted"] for r in runs),
           "all_correct": all(r["result"]["correct"] for r in runs),
           "wall_s_max": max(r["wall_s"] for r in runs), "metrics": {}}
    for spec in specs:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out["metrics"][spec["name"]] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"),
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}
    return out


def worse_by(new: float, old: float, better: str) -> float:
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    p.add_argument("--out", help="write the summary and every run's output here")
    p.add_argument("--compare", help="an earlier --out file to compare medians against")
    args = p.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    before = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "trace": int(args.trace), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, int(args.trace))
                for seed in parse_seeds(args.seeds)]
        summary = summarise(runs, specs)
        report["workloads"][workload] = {**summary, "runs": runs}
        print(f"\n{workload}: {len(runs)} runs, failure ratio {summary['failure_ratio']:.4f}, "
              f"all correct: {summary['all_correct']}, longest run {summary['wall_s_max']:.1f} s")
        for name, m in summary["metrics"].items():
            line = (f"  {name:38s} {m['median']:14.4f} {m['unit']:12s} "
                    f"q1 {m['q1']:.4f} q3 {m['q3']:.4f}")
            if m["spread"] is not None:
                line += f"  spread {m['spread']:.3f}"
            if m["bound"] is not None:
                line += f" / bound {m['bound']}"
            old = before.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                line += f"  worse by {worse_by(m['median'], old['median'], m['better']):+.3f}"
            print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
