"""Registry of case-analysis fixtures and the runner that re-derives them.

Each fixture bundles a symbol table, base relations that always hold, and
one relation family per degeneration in `families`; a case tuple selects one
element of each.  A fixture with a `disjunction` family (kept in
`extra_families`) gives each case one system per disjunct, and the case
survives when at least one disjunct is consistent.  The runner decides every
case exactly with `feasibility.decide` and compares the result against the
expected survivor table (and, where recorded, the expected solved actions).
`invariant_suite` adds seeded spot checks of the structural laws of S(theta),
partitions, the grading step and the grid map.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import index, partitions
from .exactreal import ExactReal
from .feasibility import (
    Feasible,
    Relation,
    RelationSystem,
    Sym,
    Verdict,
    decide,
)
from .transitions import f_grid


def load_registry() -> dict:
    text = resources.files("echkit").joinpath("data/fixtures.json").read_text()
    return json.loads(text)


def fixture_names(registry: dict | None = None) -> list[str]:
    registry = registry or load_registry()
    return sorted(registry["fixtures"])


def _sym(name: str, d: dict) -> Sym:
    return Sym(name=name, kind=d["kind"], set_tag=d.get("set_tag"),
               base=d.get("base"))


def _relations(elements: list[dict], prefix: str) -> list[Relation]:
    return [Relation({k: Fraction(v) for k, v in r["coeffs"].items()},
                     prefix + r["label"])
            for r in elements]


def case_systems(fx: dict, case: tuple[int, ...]) -> list[RelationSystem]:
    """The systems of one case tuple (1-based indices into each family): one,
    or one per disjunct of the `disjunction` family.  They share the base and
    case Relation objects, so `decide` eliminates that prefix once."""
    symbols = {n: _sym(n, d) for n, d in fx["symbols"].items()}
    relations = _relations(fx.get("base_relations", ()), "")
    for fam_name, idx in zip(fx["case_families"], case):
        relations += _relations(fx["families"][fam_name]["elements"][idx - 1],
                                f"{fam_name}:")
    disjuncts = ([_relations(d, "disjunct:")
                  for d in fx["extra_families"][fx["disjunction"]]["elements"]]
                 if "disjunction" in fx else [[]])
    return [RelationSystem(symbols=symbols, relations=relations + d,
                           label=f"case {case}") for d in disjuncts]


def case_tuples(fx: dict) -> list[tuple[int, ...]]:
    sizes = [len(fx["families"][f]["elements"]) for f in fx["case_families"]]
    return list(itertools.product(*[range(1, n + 1) for n in sizes]))


def case_display(fx: dict, case: tuple[int, ...]) -> str:
    return "(" + ",".join(str(i) for i in case) + ")"


def case_labels(fx: dict, case: tuple[int, ...]) -> str:
    parts = []
    for fam_name, idx in zip(fx["case_families"], case):
        labels = fx["families"][fam_name].get("labels")
        parts.append(labels[idx - 1] if labels else str(idx))
    return "[" + ",".join(parts) + "]"


@dataclass
class CaseRow:
    case: tuple[int, ...]
    display: str
    labels: str
    expected_feasible: bool
    verdict: Verdict
    match: bool
    solution_ok: bool | None  # None when no expected solution is recorded


@dataclass
class FixtureResult:
    name: str
    title: str
    rows: list[CaseRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.match and r.solution_ok is not False for r in self.rows)

    @property
    def survivors(self) -> list[tuple[int, ...]]:
        return [r.case for r in self.rows if r.verdict.feasible]


def _expected_solution_matches(expected: dict, verdict: Feasible) -> bool:
    for sym, coeffs in expected.items():
        want = {k: Fraction(v) for k, v in coeffs.items() if Fraction(v)}
        got = verdict.solution.get(sym)
        if got is None:
            got = {sym: Fraction(1)}  # free symbol stands for itself
        got = {k: v for k, v in got.items() if v}
        if got != want:
            return False
    return True


def run_fixture(name: str, registry: dict | None = None) -> FixtureResult:
    registry = registry or load_registry()
    try:
        fx = registry["fixtures"][name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}") from None
    expected = fx["expected"]
    all_infeasible = expected.get("all_infeasible", False)
    survivors = {tuple(c) for c in expected.get("survivors", ())}
    solutions = expected.get("solutions", {})
    result = FixtureResult(name=name, title=fx.get("title", ""))
    for case in case_tuples(fx):
        verdict = decide(case_systems(fx, case))
        want_feasible = (not all_infeasible) and (case in survivors)
        sol_ok = None
        key = ",".join(str(i) for i in case)
        if verdict.feasible and key in solutions:
            sol_ok = _expected_solution_matches(solutions[key], verdict)
        result.rows.append(
            CaseRow(
                case=case,
                display=case_display(fx, case),
                labels=case_labels(fx, case),
                expected_feasible=want_feasible,
                verdict=verdict,
                match=verdict.feasible == want_feasible,
                solution_ok=sol_ok,
            )
        )
    return result


def run_all(registry: dict | None = None) -> dict[str, FixtureResult]:
    registry = registry or load_registry()
    return {name: run_fixture(name, registry) for name in fixture_names(registry)}


def invariant_suite() -> list[tuple[str, bool]]:
    """Fast deterministic spot checks of the structural laws.

    `s_theta`, `partition_in` and `floor_step` are looked up on their modules
    at call time, so a wrapper installed there (a tracer) sees these calls.
    """
    rng = random.Random(20260810)
    checks: list[tuple[str, bool]] = []

    def random_theta():
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        a = rng.randrange(-9, 10)
        c = rng.randrange(1, 7)
        x = ExactReal(a, b, c, d)
        return x - ExactReal(x.floor())

    ok_sets = True
    for _ in range(6):
        theta = random_theta()
        qmax = 240
        pos = partitions.s_theta(theta, qmax).members
        neg = set(partitions.s_theta(-theta, qmax).members)
        gaps = [b - a for a, b in zip(pos, pos[1:])]
        ok_sets &= all(x <= y for x, y in zip(gaps, gaps[1:]))
        ok_sets &= all(g in neg for g in gaps if g <= qmax)
        ok_sets &= (set(pos) & neg) == {1}
        ok_sets &= all(b - a != a for a, b in zip(pos, pos[1:]) if a > 1)
    checks.append(("gap/intersection/successor laws", ok_sets))

    ok_part = True
    for _ in range(4):
        theta = random_theta()
        members = set(partitions.s_theta(theta, 150).members)
        for m in range(0, 150, 7):
            part = partitions.partition_in(theta, m)
            ok_part &= part.total == m
            ok_part &= all(e in members for e in part.entries)
    checks.append(("partition totals and membership", ok_part))

    ok_step = True
    for _ in range(6):
        theta = random_theta()
        neg = partitions.s_theta(-theta, 300).members
        for p_i, p_next in zip(neg, neg[1:]):
            for n in range(p_i, p_next + 1):
                want = 1 if n == p_next else 0
                ok_step &= index.floor_step(theta, p_i, p_next, n) == want
    checks.append(("grading step law", ok_step))

    ok_grid = True
    r, eps = Fraction(1), Fraction(1, 100)
    for num in range(0, 30):
        x = Fraction(num, 24)
        g = f_grid(x, r, eps)
        if g is not None:
            ok_grid &= f_grid(g, r, eps) == g
    checks.append(("grid map idempotence", ok_grid))
    return checks
