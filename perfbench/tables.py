"""The `tables` workload: the paper's tables as a reader produces them.

One pass runs `echkit verify all --json`, `echkit transitions pairs --json`
and `echkit transitions chains --json`, each in a fresh interpreter, one
after another.  The checks parse each report, require the `echkit/1` schema
and canonical bytes, replay every non-empty certificate combination against
the scenario systems it came from, and substitute every Feasible solution
into its system's equations.  They never call the solver.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

COMMANDS = {
    "verify_all": ["verify", "all", "--json"],
    "pairs": ["transitions", "pairs", "--json"],
    "chains": ["transitions", "chains", "--json"],
}



def child_env(*paths: str) -> dict:
    """This environment with PYTHONPATH set to `paths` only."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(argv: list[str], env: dict) -> tuple[float, int, bytes, float]:
    """Run one fresh interpreter; return (wall s, exit code, stdout, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss / 1024


def command_argv(name: str, out_file: str, run_id: str, traced: bool) -> list[str]:
    """The command run through `timed_child.py` (it writes its times to
    `out_file`) or, when traced, through `traced_cli.py` (its spans)."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not traced:
        return [sys.executable, os.path.join(here, "timed_child.py"), out_file,
                "cli", *COMMANDS[name]]
    return [sys.executable, os.path.join(here, "traced_cli.py"), out_file,
            f"{run_id}:{name}", *COMMANDS[name]]


# -- checks -----------------------------------------------------------------------

# one term: [sign][coefficient*]symbol, or a signed constant
_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z_][\w']*(?:\[\d+\])?)"
                   r"|([+-]?\d+(?:/\d+)?)")


def parse_expr(text: str) -> dict:
    """Read an `expr_str` rendering ('3/2*q2-p1+1') back into {symbol: Fraction}."""
    out: dict = {}
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse expression {text!r}")
        sign, coeff, sym, const = m.groups()
        if sym is not None:
            v = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
            out[sym] = out.get(sym, 0) + v
        else:
            out["1"] = out.get("1", 0) + Fraction(const)
        pos = m.end()
    return {k: v for k, v in out.items() if v}


def _combine(terms) -> dict:
    out: dict = {}
    for coeffs, mult in terms:
        for k, v in coeffs.items():
            out[k] = out.get(k, 0) + mult * v
    return {k: v for k, v in out.items() if v}


def replays(verdict: dict, systems) -> bool:
    """The certificate's combination of some scenario's relations is its equation."""
    combo = {k: Fraction(v) for k, v in verdict["combo"].items()}
    equation = parse_expr(verdict["equation"])
    for system in systems:
        rel = {r.label: r.coeffs for r in system.relations}
        if set(combo) <= set(rel):
            if _combine((rel[k], c) for k, c in combo.items()) == equation:
                return True
    return False


def solves(verdict: dict, systems) -> bool:
    """Substituting the solution makes every equation of some scenario vanish."""
    solution = {k: parse_expr(v) for k, v in verdict["solution"].items()}
    for system in systems:
        if all(not _combine((solution.get(s, {s: Fraction(1)}) if s != "1"
                             else {"1": Fraction(1)}, c)
                            for s, c in r.coeffs.items())
               for r in system.relations):
            return True
    return False


def _verdict_ok(verdict: dict, systems) -> bool:
    """An empty combination has nothing to replay; it is counted by the tracer
    as a known defect, not failed here."""
    if verdict["feasible"]:
        return solves(verdict, systems)
    return not verdict["combo"] or replays(verdict, systems)


def check_pass(outputs: dict[str, bytes], echkit) -> tuple[int, int, dict]:
    """Check one pass; return (attempted, failed, facts for the per-layer report)."""
    transitions = echkit.transitions
    attempted = failed = 0
    facts = {"deviations": 0, "sha256": {}}
    reports = {}

    def record(ok: bool):
        nonlocal attempted, failed
        attempted += 1
        failed += not ok

    for name, raw in outputs.items():
        facts["sha256"][name] = hashlib.sha256(raw).hexdigest()
        try:
            rep = json.loads(raw)
            canonical = json.dumps(rep, sort_keys=True, indent=2) + "\n"
            ok = rep.get("schema") == "echkit/1" and canonical.encode() == raw
        except (ValueError, AttributeError):
            rep, ok = None, False
        record(ok)
        reports[name] = rep if ok else None

    pairs, chains, verify = reports["pairs"], reports["chains"], reports["verify_all"]
    if pairs is not None:
        facts["deviations"] = len(pairs["deviations"])
        record(len(pairs["verdicts"]) == 36)
        for key, verdict in sorted(pairs["verdicts"].items()):
            t1, t2 = key.split(",")
            full = (t1, t2) in transitions.EXCLUDED_PAIRS
            record(_verdict_ok(verdict, transitions.joint_scenarios(t1, t2, full)))
    if chains is not None:
        record(chains["triples_examined"] == len(chains["rows"]))
        for row in chains["rows"]:
            t1, t2, t3 = row["triple"]
            systems = {
                "middle1": lambda: transitions.joint_scenarios(t1, t2, True),
                "middle2": lambda: transitions.joint_scenarios(t2, t3, True),
                "joint": lambda: transitions._joint_chain_scenarios(t1, t2, t3),
            }[row["decided_by"]]()
            record(_verdict_ok(row["verdict"], systems)
                   and row["feasible"] == row["verdict"]["feasible"])
    if verify is not None and pairs is not None and chains is not None:
        record(verify["pairs"]["allowed"] == pairs["allowed"])
        record(verify["chains"]["examined"] == chains["triples_examined"]
               and verify["chains"]["feasible"] == chains["feasible_triples"])
    return attempted, failed, facts
