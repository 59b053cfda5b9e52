"""Run the benchmark on two checkouts and record the result as BENCH_<n>.json.

    python3 scripts/bench.py --number N --parent DIR [--seconds 30] \
        [--seed 31337 [--seed 7919 ...]] [--pairs WORKLOAD=K ...]

Each of the three workloads runs `perfbench/run.py` in this checkout (the
change) and in `--parent`, a checkout of the commit before it, one after the
other in pairs, ten by default (`--pairs spectrum=3` sets one workload's
count); the side that runs first alternates.  Every workload runs on every
`--seed`, except `tables`, whose fixed commands take nothing from it and run
on the first seed only.  One traced run per side, workload and seed then
gives the exact counters.  The file written to the root of this checkout
holds, per workload and seed ("tables/31337") and per side, every run's gated
metrics and the wall time of the whole run, their medians and quartiles, how
many pairs the change won on each metric, and the counter totals, with the
Python version, the CPU count and each side's commit.  Runs are sequential
and each uses one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
WORKLOADS = ("tables", "spectrum", "stheta")
SEEDLESS = ("tables",)  # fixed commands: the seed changes nothing, so one suffices


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the benchmark: its final result line, its provenance and the
    wall time of the whole run, checks included."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    prov = next(l for l in lines if l.startswith("provenance "))
    return {"result": json.loads(lines[-1]),
            "provenance": json.loads(prov[len("provenance "):]), "wall_s": wall}


def summary(runs: list[dict], names: list[str]) -> dict:
    values = {n: [r["result"]["metrics"][n]["value"] for r in runs] for n in names}
    return {"runs": values, "wall_s": [r["wall_s"] for r in runs],
            "median": {n: statistics.median(v) for n, v in values.items()},
            "quartiles": {n: statistics.quantiles(v, n=4, method="inclusive")[::2]
                          for n, v in values.items()},
            "correct": all(r["result"]["correct"] for r in runs)}


def counters(traced: dict) -> dict:
    out = {"total": {k: m["value"] for k, m in traced["result"]["metrics"].items()
                     if m["unit"] == "count"}}
    if "counts_by_command" in traced["provenance"]:
        out["by_command"] = traced["provenance"]["counts_by_command"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--number", type=int, required=True)
    p.add_argument("--parent", required=True,
                   help="root of a checkout of the parent commit")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, action="append",
                   help="repeat for more seeds (default 31337)")
    p.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=K",
                   help=f"pairs run on one workload (default {PAIRS})")
    args = p.parse_args(argv)
    seeds = args.seed or [31337]
    pairs = dict.fromkeys(WORKLOADS, PAIRS)
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in pairs or not count.isdigit() or int(count) < 2:
            # quartiles need two runs a side
            p.error(f"--pairs wants WORKLOAD=K with K >= 2, got {item!r}")
        pairs[workload] = int(count)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        gated = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"change": ROOT, "parent": os.path.abspath(args.parent)}

    report = {"number": args.number, "python": platform.python_version(),
              "cpus": os.cpu_count(), "seeds": seeds, "seconds": args.seconds,
              "pairs": pairs, "commits": {}, "workloads": {}}
    for workload in WORKLOADS:
        for seed in seeds[:1] if workload in SEEDLESS else seeds:
            name = f"{workload}/{seed}"
            runs = {side: [] for side in sides}
            for i in range(pairs[workload]):
                order = list(sides) if i % 2 else list(sides)[::-1]
                for side in order:
                    runs[side].append(run(sides[side], workload, seed,
                                          args.seconds, 0))
                    print(f"{name} pair {i + 1} {side}: "
                          f"{runs[side][-1]['result']['metrics']['pass_s']['value']:.3f} s"
                          f" (run {runs[side][-1]['wall_s']:.1f} s)", file=sys.stderr)
            entry = {}
            for side, checkout in sides.items():
                traced = run(checkout, workload, seed, args.seconds, 1)
                report["commits"][side] = traced["provenance"]["commit"]
                entry[side] = {**summary(runs[side], list(gated)),
                               "counters": counters(traced),
                               "traced_wall_s": traced["wall_s"]}
            entry["change_wins"] = {
                n: sum((c < q) if better == "lower" else (c > q)
                       for c, q in zip(entry["change"]["runs"][n],
                                       entry["parent"]["runs"][n]))
                for n, better in gated.items()}
            report["workloads"][name] = entry

    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
