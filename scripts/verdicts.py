"""Print every verdict that the case and transition tables rest on, one a line.

    PYTHONPATH=src python3 scripts/verdicts.py > verdicts.txt

Run it on two checkouts and `diff` the two files: the engine is unchanged
for these tables exactly when the files are equal.  Each line starts with its
kind and a key:

  solve <key>    one scenario system solved alone: every pair scenario of the
                 36 pairs at both probe depths, and one system per fixture
                 case and disjunct;
  decide <key>   a decided verdict: the 72 pair probes, the joint systems of
                 the two digest chains and every fixture case;
  digest <name>  sha256 of the --json output of a tables command.

The fields of a verdict are its solution, free symbols, notes and sample
when it is feasible, and its rule, equation, combination, eps bound and text
when it is not, every dict in key order.  A scenario that exists at one
commit only shows as a line on one side of the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from echkit import fixtures, transitions
from echkit.cli import main
from echkit.feasibility import decide, solve

DIGEST_CHAINS = (("b", "a", "b'"), ("a", "b'", "a"))
TABLE_COMMANDS = {
    "verify_all": ("verify", "all"),
    "verify_cases": ("verify", "cases"),
    "pairs": ("transitions", "pairs"),
    "chains": ("transitions", "chains"),
}


def fields(v) -> str:
    if v.feasible:
        sample = None if v.sample is None else list(v.sample.items())
        return repr(("feasible", [(s, list(e.items())) for s, e in v.solution.items()],
                     v.free, v.notes, sample))
    c = v.certificate
    return repr((c.rule, list(c.equation.items()), list(c.combo.items()),
                 c.eps_bound, c.human))


def lines():
    for full in (False, True):
        depth = "full" if full else "skeleton"
        for t1 in transitions.TYPES:
            for t2 in transitions.TYPES:
                for s in transitions.joint_scenarios(t1, t2, full):
                    yield f"solve {depth} {s.label} {fields(solve(s))}"
    registry = fixtures.load_registry()
    for name in fixtures.fixture_names(registry):
        fx = registry["fixtures"][name]
        for case in fixtures.case_tuples(fx):
            for i, system in enumerate(fixtures.case_systems(fx, case), 1):
                d = i if "disjuncts" in fx else None
                yield f"solve fixture {name} {case} d{d} {fields(solve(system))}"
    for full in (False, True):
        depth = "full" if full else "skeleton"
        for t1 in transitions.TYPES:
            for t2 in transitions.TYPES:
                v = transitions.compatible(t1, t2, full=full)
                yield f"decide {depth} ({t1},{t2}) {fields(v)}"
    for triple in DIGEST_CHAINS:
        v = decide(transitions._joint_chain_scenarios(*triple))
        yield f"decide chain {'-'.join(triple)} {fields(v)}"
    for name in fixtures.fixture_names(registry):
        fx = registry["fixtures"][name]
        for case in fixtures.case_tuples(fx):
            v = decide(fixtures.case_systems(fx, case))
            yield f"decide fixture {name} {case} {fields(v)}"
    for name, argv in TABLE_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main([*argv, "--json"])
        yield f"digest {name} {hashlib.sha256(buf.getvalue().encode()).hexdigest()}"


if __name__ == "__main__":
    for line in lines():
        print(line)
