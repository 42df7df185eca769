#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

Runs the command in BENCHMARK.json once per seed for every chosen
workload, one run at a time, from the repository root, and prints for each
metric the median, the quartiles (statistics.quantiles(n=4)) and the
quartile spread as a share of the median, next to the metric's bound.

    python3 e2ebench/steadiness.py --runs 10 --seed-base 100 --out a.json
    python3 e2ebench/steadiness.py --runs 5 --workloads serve_mix --trace 1
    python3 e2ebench/steadiness.py --compare a.json b.json

A metric is "ok" when its spread is below a third of its bound and
"NOISY" otherwise; `setup_s` is judged like every other metric. With
--trace 1 it runs the traced variant and reports the per-layer metrics
instead (these have no bound; counters should not move at all). With
--compare it reads two sets written by --out and reports, per workload and
metric, how far the second set's median is from the first's, as a share of
the first, next to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output {result}")
    detail = json.loads(lines[-2]).get("detail") if len(lines) > 1 else None
    return result, detail, wall


def compare(path_a, path_b, bounds):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for w in a:
        if w not in b:
            continue
        print(f"{w}: median of {path_b} against {path_a}")
        for name, ra in a[w]["metrics"].items():
            rb = b[w]["metrics"].get(name)
            if rb is None:
                continue
            shift = (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if abs(shift) <= bound else "OUT")
            print(f"  {name:36s} {ra['median']:<14.6g} {rb['median']:<14.6g}"
                  f" shift {shift:+7.2%}" + (f"  bound {bound:.2f} {flag}" if bound else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare the medians of two sets written by --out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    report = {}
    for w in workloads:
        values, walls, details = {}, [], []
        for i in range(args.runs):
            result, detail, wall = run_once(bench, w, args.seed_base + i, args.trace)
            walls.append(wall)
            details.append(detail)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": xs}
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "NOISY"
            print(f"  {name:36s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:7.2%}" + (f"  bound {bound:.2f} {flag}" if bound else ""))
        report[w] = {"walls": walls, "metrics": rows, "details": details}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
