"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced runs take a few minutes: each workload runs in fresh processes,
as the benchmark does.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import calibrate
import refcheck
import tables
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(proc):
    line = next(l for l in proc.stdout.splitlines() if l.startswith("provenance "))
    return json.loads(line[len("provenance "):])


def exact_counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["spectrum", "stheta"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (last_json(bench(workload, 7, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(tracing.RESULT)
    assert exact_counts(first) == exact_counts(second)


def test_tables_counts_match_the_seed_state():
    proc = bench("tables", 0, 1)
    result = last_json(proc)
    assert result["correct"]
    counts = provenance(proc)["counts_by_command"]
    verify = counts["verify_all"]
    assert verify["transitions.pair_report.calls"] == 2
    assert verify["transitions.scenarios_built"] == 5480
    assert verify["transitions.chain_joint_solves"] == 0
    assert verify["feasibility.solve.calls"] == 5724
    assert verify["fixtures.run_fixture.calls"] == 12
    assert counts["pairs"]["feasibility.solve.calls"] == 2650
    assert counts["chains"]["feasibility.solve.calls"] == 2810


def test_end_to_end_metrics_are_reported():
    result = last_json(bench("stheta", 3, 0))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "pass_s", "peak_rss_mb", "ok_share"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_expression_parser_reads_expr_str():
    from echkit.linear import expr_str

    rng = random.Random(5)
    for _ in range(200):
        e = {s: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
             for s in rng.sample(["p1", "p1n", "q2", "Ek", "M2", "1"], 3)}
        e = {k: v for k, v in e.items() if v}
        assert tables.parse_expr(expr_str(e)) == e


def test_reference_floors_against_fractions():
    # sqrt(2) - 1 and (3 - sqrt(7))/2: f <= q theta < f + 1, decided on squares
    for theta in [(-1, 1, 1, 2), (3, -1, 2, 7)]:
        x, y, c, d = theta
        for q in range(1, 400):
            f = refcheck.floor_times(q, theta)
            lo = c * f - q * x
            hi = lo + c
            val2 = q * q * y * y * d
            if y > 0:
                assert lo <= 0 or lo * lo <= val2
                assert hi > 0 and hi * hi > val2
            else:
                assert lo < 0 and lo * lo >= val2
                assert hi >= 0 or hi * hi < val2
    assert refcheck.s_members((-1, 1, 1, 2), 12) == [1, 2, 7, 12]


def test_rescaler_takes_the_probes_out_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Rescaler(every=0.01) as r:
        sum(i * i for i in range(300000))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(r.samples) >= 3 and r.probe_s >= sum(r.samples)
    # each interval is rescaled by the probes at its two ends
    lo, hi = min(r.samples), max(r.samples)
    assert r.wall * calibrate.REFERENCE_S / hi <= r.scaled <= r.wall * calibrate.REFERENCE_S / lo


def test_to_reference_uses_the_median_probe():
    ref = calibrate.REFERENCE_S
    assert calibrate.to_reference(3.0, [ref, 2 * ref, ref / 4]) == 3.0
    assert calibrate.to_reference(3.0, [2 * ref, 2 * ref, ref, 9 * ref]) == 1.5
