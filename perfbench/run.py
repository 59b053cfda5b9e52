"""echkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {tables,spectrum,stheta} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `./src`.
One client in a closed loop drives the program from this single process
(`tables` starts one fresh interpreter per command, one after another).
Passes repeat while one more is expected to end within `--seconds` (there
is always one pass); every output is checked against an
independent reference outside the timed section.

A shared host's speed can change by up to 2x, for seconds or for minutes.
So the fixed probe in `calibrate.py` runs every 50 ms beside the timed work
(in the same process, from a timer signal; a child process runs it itself
through `timed_child.py`) and a few times around each child process, and
the gated times are rescaled to a host on which the probe takes
`calibrate.REFERENCE_S`.  The raw wall times and the probe times are
printed beside them.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` the run adds one traced pass and reports the per-layer metrics.
Earlier lines print every metric with its unit and the run's provenance, and
the same record is written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import batch
import calibrate
import tables
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_RUNS = 11  # timed fresh-interpreter set-ups per run, after one untimed
BRACKET_PROBES = 3  # probes before and after each child process
WORKLOADS = ("tables", "spectrum", "stheta")


def percentile(xs, p: int):
    """The p-th percentile, or None unless ten samples lie beyond it."""
    if len(xs) * (100 - p) < 10 * 100:
        return None
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def more_passes(measured: float, done: int, seconds: float) -> bool:
    """Start another pass while one more, at the mean pass time so far, ends
    within `seconds`; there is always a first pass."""
    return done == 0 or measured + measured / done <= seconds


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timed_child(argv: list[str], env: dict, times_file: str | None = None):
    """Run one fresh interpreter between probes; return
    (rescaled s, wall s, probe samples, exit code, stdout, peak RSS MB).

    A child run through `timed_child.py` rescales its own work and writes
    its times to `times_file`; the rest of the process (start, imports,
    exit) is rescaled by the probes around it.  Any other child is
    rescaled by those probes alone."""
    if times_file and os.path.exists(times_file):
        os.remove(times_file)
    before = calibrate.probes(BRACKET_PROBES)
    wall, code, out, peak = tables.run_child(argv, env)
    around = before + calibrate.probes(BRACKET_PROBES)
    scaled, samples = calibrate.to_reference(wall, around), list(around)
    if times_file and os.path.exists(times_file):
        with open(times_file) as fh:
            inner = json.load(fh)
        wall -= inner["probe_s"]
        scaled = inner["scaled"] + calibrate.to_reference(wall - inner["wall"], around)
        samples += inner["samples"]
    return scaled, wall, samples, code, out, peak


def timed_setups(workload: str, seed: int, env: dict) -> tuple[list[float], list[float]]:
    """Rescaled and wall times of fresh-interpreter set-ups; the first (it
    compiles) is dropped."""
    times_file = os.path.join(OUT_DIR, f"times-setup-{workload}.json")
    argv = [sys.executable, os.path.join(HERE, "timed_child.py"), times_file,
            "setup", workload, str(seed)]
    scaled, walls = [], []
    for _ in range(SETUP_RUNS + 1):
        t, wall, _, code, _, _ = timed_child(argv, env, times_file)
        if code != 0:
            raise RuntimeError(f"set-up failed: {argv}")
        scaled.append(t)
        walls.append(wall)
    return scaled[1:], walls[1:]


# -- tables -----------------------------------------------------------------------


def run_tables(args, src: str, run_id: str) -> dict:
    import echkit

    env = tables.child_env(src)
    setups, setup_walls = timed_setups("tables", 0, env)

    def one_pass(traced=False):
        times, walls, samples, outputs, rss = {}, {}, [], {}, 0.0
        for name in tables.COMMANDS:
            out_file = os.path.join(OUT_DIR, f"spans-tables-{name}.bin" if traced
                                    else f"times-tables-{name}.json")
            argv = tables.command_argv(name, out_file, run_id, traced)
            times[name], walls[name], around, code, out, peak = timed_child(
                argv, env, None if traced else out_file)
            samples += around
            # exit 1 reports a deviation from the transcribed tables: a result
            outputs[name] = out if code in (0, 1) else b""
            rss = max(rss, peak)
        return times, walls, samples, outputs, rss

    passes, attempted, failed, facts, samples = [], 0, 0, {}, []
    measured = 0.0
    while more_passes(measured, len(passes), args.seconds):
        times, walls, around, outputs, rss = one_pass()
        passes.append((times, walls, rss))
        samples += around
        measured += sum(walls.values())
        a, f, facts = tables.check_pass(outputs, echkit)
        attempted, failed = attempted + a, failed + f

    pass_s = [sum(t.values()) for t, _, _ in passes]
    pass_walls = [sum(w.values()) for _, w, _ in passes]
    result = {
        "attempted": attempted, "failed": failed,
        "e2e": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "pass_s": (statistics.median(pass_s), "s", len(pass_s)),
            "peak_rss_mb": (max(r for _, _, r in passes), "MB", len(passes)),
        },
        "extra": {
            **{f"{name}_s": (statistics.median([t[name] for t, _, _ in passes]),
                             "s", len(passes))
               for name in tables.COMMANDS},
            "pass_wall_s": (statistics.median(pass_walls), "s", len(passes)),
            "probe_ms": (statistics.median(samples) * 1e3, "ms", len(samples)),
        },
        "provenance": {"sha256": facts.get("sha256", {}), "pass_s": pass_s,
                       "pass_wall_s": pass_walls, "setup_s": setups,
                       "setup_wall_s": setup_walls},
    }
    if args.trace:
        times, walls, _, outputs, _ = one_pass(traced=True)
        a, f, traced_facts = tables.check_pass(outputs, echkit)
        result["attempted"] += a
        result["failed"] += f
        summaries = {n: tracing.Spans.read(os.path.join(OUT_DIR, f"spans-tables-{n}.bin"))
                     .summary() for n in tables.COMMANDS}
        extra = {"transitions.deviations": traced_facts["deviations"],
                 "trace.overhead_s": sum(times.values()) - statistics.median(pass_s)}
        result["per_layer"] = tracing.per_layer_metrics(
            tracing.combine(list(summaries.values())), extra)
        result["provenance"]["traced_pass_s"] = sum(times.values())
        result["provenance"]["traced_pass_wall_s"] = sum(walls.values())
        # the exact counts of each command on its own
        result["provenance"]["counts_by_command"] = {
            n: {k: v for k, v in tracing.per_layer_metrics(
                tracing.combine([s]), extra).items()
                if tracing.PER_LAYER[k] == "count"}
            for n, s in summaries.items()}
    return result


# -- spectrum and stheta -------------------------------------------------------------


_CRASHED = object()


def run_batch(args, src: str, run_id: str) -> dict:
    import echkit

    env = tables.child_env(src, HERE)
    setups, setup_walls = timed_setups(args.workload, args.seed, env)

    ops = batch.setup(args.workload, args.seed)
    modules = {op.module: getattr(echkit, op.module) for op in ops}
    counts = {"attempted": 0, "failed": 0}

    def one_pass(every=calibrate.PROBE_EVERY_S):
        """(rescaled s, wall s, op latencies ms, probe samples, results)."""
        latencies, results = [], []
        clock = time.perf_counter_ns
        with calibrate.Rescaler(every) as rescaler:
            for op in ops:
                fn = getattr(modules[op.module], op.func)
                s, probing = clock(), rescaler.probe_s
                try:
                    r = fn(*op.args)
                except Exception:  # a crash is a failed operation, not the end of the run
                    traceback.print_exc(file=sys.stderr)
                    r = _CRASHED
                probing = rescaler.probe_s - probing
                latencies.append((clock() - s) / 1e6 - probing * 1e3)
                results.append(r)
        return rescaler.scaled, rescaler.wall, latencies, rescaler.samples, results

    def check(results):
        for op, r in zip(ops, results):
            try:
                ok = r is not _CRASHED and bool(op.check(r))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print(f"check failed: {op.func}{op.args!r}"[:300], file=sys.stderr)
            counts["attempted"] += 1
            counts["failed"] += not ok

    pass_s, pass_walls, latencies, samples = [], [], [], []
    while more_passes(sum(pass_walls), len(pass_s), args.seconds):
        gc.collect()  # a pass does not pay for the garbage of the last check
        scaled, wall, lat, around, results = one_pass()
        pass_s.append(scaled)
        pass_walls.append(wall)
        latencies.extend(lat)
        samples.extend(around)
        check(results)
        del results
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "e2e": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "pass_s": (statistics.median(pass_s), "s", len(pass_s)),
            "peak_rss_mb": (peak, "MB", 1),
        },
        "extra": {
            "op_p50_ms": (percentile(latencies, 50), "ms", len(latencies)),
            "op_p90_ms": (percentile(latencies, 90), "ms", len(latencies)),
            "pass_wall_s": (statistics.median(pass_walls), "s", len(pass_walls)),
            "probe_ms": (statistics.median(samples) * 1e3, "ms", len(samples)),
        },
        "provenance": {"ops_per_pass": len(ops), "pass_s": pass_s,
                       "pass_wall_s": pass_walls, "setup_s": setups,
                       "setup_wall_s": setup_walls},
    }
    if args.trace:
        gc.collect()
        with tracing.Tracer(run_id) as tracer:  # no probes inside the spans
            scaled, wall, _, _, results = one_pass(every=None)
        check(results)
        spans = tracer.spans()
        spans.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
        result["per_layer"] = tracing.per_layer_metrics(
            tracing.combine([spans.summary()]),
            {"transitions.deviations": 0,
             "trace.overhead_s": scaled - statistics.median(pass_s)})
        result["provenance"]["traced_pass_s"] = scaled
        result["provenance"]["traced_pass_wall_s"] = wall
    result.update(counts)
    return result


# -- entry -------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "echkit", "__init__.py")):
        print("error: run from the root of an echkit checkout (no src/echkit here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time())}"
    runner = run_tables if args.workload == "tables" else run_batch
    result = runner(args, src, run_id)

    attempted, failed = result["attempted"], result["failed"]
    e2e = dict(result["e2e"])
    e2e["ok_share"] = ((attempted - failed) / attempted, "ratio", attempted)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_id": run_id,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), **result["provenance"],
    }
    for name, (value, unit, n) in {**e2e, **result["extra"]}.items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
        print(f"{args.workload:9s} {name:14s} {shown}  (n={n})")
    if args.trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": tracing.PER_LAYER[k]}
                   for k in tracing.RESULT}
        for k, v in result["per_layer"].items():
            print(f"{args.workload:9s} {k:40s} {v:.6g} {tracing.PER_LAYER[k]}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "result": final,
                   "extra": {k: v for k, (v, _, _) in result["extra"].items()},
                   "per_layer": result.get("per_layer")},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
