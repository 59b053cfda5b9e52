"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here; nothing is calibrated at run time.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from echkit.ellipsoid import (
    Ellipsoid,
    capacities,
    density_report,
    lattice_count,
    two_elliptic_catalog,
)
from echkit.exactreal import ExactReal, parse_real
from echkit.fixtures import run_all
from echkit.index import (
    FiniteAbelianGroup,
    OrbitSet,
    RelData,
    SimpleOrbit,
    compose_rel,
    cz_power,
    ech_index,
    floor_step,
    j0_index,
    parity_check,
    topo_types,
)
from echkit.partitions import partition_in, partition_orbit, s_theta
from echkit.transitions import chain_check, mirror, pair_report
from oracles import random_surd, s_theta_bruteforce

REPORT: list[str] = []


def record(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print("\n" + "\n".join(REPORT))


def test_criterion_1_sset_structure():
    """30 random surds, qmax 1000: oracle match and all three set laws."""
    t0 = time.time()
    rng = random.Random(2026)
    qmax = 1000
    exceptions = 0
    for _ in range(30):
        theta = random_surd(rng)
        pos = s_theta(theta, qmax).members
        if list(pos) != s_theta_bruteforce(theta, qmax):
            exceptions += 1
        neg = s_theta(-theta, qmax).members
        gaps = [b - a for a, b in zip(pos, pos[1:])]
        if not all(x <= y for x, y in zip(gaps, gaps[1:])):
            exceptions += 1
        neg_set = set(neg)
        if not all(g in neg_set for g in gaps if g <= qmax):
            exceptions += 1
        if set(pos) & neg_set != {1}:
            exceptions += 1
        if any(b - a == a for a, b in zip(pos, pos[1:]) if a > 1):
            exceptions += 1
    elapsed = time.time() - t0
    record(
        1,
        exceptions == 0 and elapsed < 10.0,
        f"30 surds at qmax={qmax}: {exceptions} exceptions, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_partition_recursion():
    """Totals equal M and entries are members, for all M <= 500, 10 surds;
    hyperbolic partitions match the fixed patterns."""
    rng = random.Random(2027)
    bad = 0
    for _ in range(10):
        theta = random_surd(rng)
        members = set(s_theta(theta, 500).members)
        for m in range(0, 501):
            part = partition_in(theta, m)
            if part.total != m or not all(e in members for e in part.entries):
                bad += 1
    for m in range(1, 30):
        if partition_orbit("positive_hyperbolic", "in", m).entries != (1,) * m:
            bad += 1
        want = (2,) * (m // 2) + ((1,) if m % 2 else ())
        if partition_orbit("negative_hyperbolic", "out", m).entries != want:
            bad += 1
    record(2, bad == 0, f"10 surds, M <= 500 plus hyperbolic patterns: {bad} failures")


def test_criterion_3_floor_step_law():
    """The grading step is 0 on [p_i, p_next) and 1 at p_next; 20 surds."""
    rng = random.Random(2028)
    bad = 0
    for _ in range(20):
        theta = random_surd(rng)
        neg = s_theta(-theta, 1000).members
        for p_i, p_next in zip(neg, neg[1:]):
            for n in range(p_i, p_next + 1):
                want = 1 if n == p_next else 0
                if floor_step(theta, p_i, p_next, n) != want:
                    bad += 1
    record(3, bad == 0, f"20 surds, windows up to 1000: {bad} exceptions")


def test_criterion_4_topological_type_tables():
    expected = {
        -1: ({(0, 1, 0)}, set()),
        0: ({(0, 1, 1), (0, 2, 0)}, set()),
        1: ({(0, 3, 0), (0, 2, 1), (1, 1, 0)}, {(0, 1, 2)}),
        2: ({(0, 4, 0), (0, 3, 1), (0, 2, 2), (1, 1, 1), (1, 2, 0)},
            {(0, 1, 3)}),
    }
    ok = True
    for j0, (want_real, want_excl) in expected.items():
        types = topo_types(j0)
        got_real = {(t.g, t.k, t.l) for t in types if t.realizable}
        got_excl = {(t.g, t.k, t.l) for t in types if not t.realizable}
        ok &= got_real == want_real and got_excl == want_excl
    record(4, ok, "type tables for indices -1, 0, 1, 2 match exactly")


def test_criterion_5_case_analysis_reproduction():
    """Every registered case table re-derives exactly; tolerance zero."""
    t0 = time.time()
    results = run_all()
    elapsed = time.time() - t0
    expected_survivors = {
        "firstA1": {(1, 1), (2, 2), (3, 3)},
        "restA1": {(1, 1, 2), (2, 2, 3)},
        "abu": {(1, 2), (2, 1), (2, 3), (3, 2), (3, 3)},
        "adddv": {(3, 3, 1), (3, 3, 3)},
        "afo": {(3, 3, 1, 2), (3, 3, 1, 3), (3, 3, 3, 2)},
        "clB": {(1, 1), (1, 2), (1, 3), (3, 3)},
        "typB": {(1, 1, 3), (1, 2, 1), (1, 2, 3), (3, 3, 1), (3, 3, 3)},
        "typa2_filter": set(),
        "typa3": set(),
        "sec5_case3": set(),
        "exc_A": set(),
        "exc_B": set(),
    }
    ok = all(r.ok for r in results.values()) and elapsed < 5.0
    detail = []
    for name, want in expected_survivors.items():
        got = set(results[name].survivors)
        if got != want:
            ok = False
            detail.append(f"{name}: {got} != {want}")
    # the surviving double-drop solutions pin the two ratios
    typb = {tuple(r.case): r.verdict for r in results["typB"].rows
            if r.verdict.feasible}
    ratios = {v.solution["P_next"]["P"] for v in typb.values()}
    ok &= ratios == {Fraction(3, 2), Fraction(4, 3)}
    record(
        5,
        ok,
        f"12 fixtures exact in {elapsed:.2f}s (< 5s)"
        + ("; " + "; ".join(detail) if detail else ""),
    )


def test_criterion_6_transition_tables():
    rep = pair_report()
    ok = len(rep.excluded) == 24 and len(rep.allowed) == 12
    ok &= rep.deviations == []
    ok &= rep.mirror_symmetric()
    chains = chain_check(rep.allowed)
    n_feasible = len(chains.feasible_triples)
    finding = ""
    if n_feasible:
        finding = f"; OPEN FINDING: feasible triples {chains.triples}"
    ok &= n_feasible == 0
    record(
        6,
        ok,
        f"24 excluded / 12 allowed, mirror symmetry on all 36, "
        f"{len(chains.rows)} chains examined, {n_feasible} feasible{finding}",
    )


def test_criterion_7_volume_property():
    t0 = time.time()
    e = Ellipsoid(ExactReal(1), ExactReal.sqrt(2))
    caps = capacities(e, 200_000)
    target = math.sqrt(2)

    def deviation(k):
        r = float(caps[k]) ** 2 / (2 * k)
        return abs(r - target) / target

    d1, d2 = deviation(20_000), deviation(200_000)
    elapsed = time.time() - t0
    ok = d1 < 0.02 and d2 < d1 and elapsed < 30.0
    record(
        7,
        ok,
        f"deviation {d1:.4%} at k=2e4 (< 2%), {d2:.4%} at k=2e5 (smaller), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_counting_laws():
    s1, s2 = ExactReal(1), ExactReal.sqrt(2)
    area2 = 2 * float(s1) * float(s2)
    sweep = [100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000]
    per_t = []
    for t in sweep:
        err = abs(lattice_count(s1, s2, ExactReal(t)) - t * t / area2)
        per_t.append(err / t)
    c_low = max(per_t[: len(per_t) // 2])
    c_all = max(per_t)
    stable = c_all <= 1.5 * c_low
    ok = stable and all(e <= c_all for e in per_t)

    a, b = Fraction(1), Fraction(7, 5)
    cat = two_elliptic_catalog(a, b, parse_real("sqrt(2)-1"),
                               parse_real("sqrt(3)-1"))
    m = 170
    rep = density_report(cat, m, gamma_name="g1")
    ok &= rep.total >= 10_000
    law = m * m / rep.total
    target = float(2 * a * b)
    dev = abs(law - target) / target
    ok &= dev < 0.05
    record(
        8,
        ok,
        f"lattice err/T in [{min(per_t):.3f}, {c_all:.3f}] (stable x{c_all/c_low:.2f}); "
        f"density |sets|={rep.total}, M^2/|sets| within {dev:.2%} of 2ab (< 5%)",
    )


def test_criterion_9_index_laws():
    rng = random.Random(2029)
    group = FiniteAbelianGroup((6,))
    gamma = SimpleOrbit("gamma", "elliptic", Fraction(1),
                        rotation=parse_real("sqrt(2)-1"), homology=(6,))
    hyps = [
        SimpleOrbit(f"d{i}", "negative_hyperbolic",
                    Fraction(rng.randrange(1, 12), rng.randrange(1, 5)),
                    cz=2 * rng.randrange(-3, 4) - 1,
                    homology=(0,))
        for i in range(4)
    ]

    def rand_set():
        items = []
        m = rng.randrange(0, 6)
        if m:
            items.append((gamma, m))
        for o in hyps:
            if rng.random() < 0.5:
                items.append((o, 1))
        return OrbitSet(tuple(items), group)

    bad = 0
    for _ in range(1000):
        a, b, c = rand_set(), rand_set(), rand_set()
        r1 = RelData(rng.randrange(-6, 7), rng.randrange(-6, 7))
        r2 = RelData(rng.randrange(-6, 7), rng.randrange(-6, 7))
        cross = rng.randrange(-4, 5)
        if ech_index(a, b, r1) + ech_index(b, c, r2) != ech_index(a, c, r1 + r2):
            bad += 1
        if j0_index(a, b, r1) + j0_index(b, c, r2) != j0_index(a, c, r1 + r2):
            bad += 1
        composed = compose_rel(r1, r2, cross)
        if ech_index(a, c, composed) != (
            ech_index(a, b, r1) + ech_index(b, c, r2) + 2 * cross
        ):
            bad += 1

    # parity on model generator pairs: gradings differ by an even number and
    # the parity law holds (no positive hyperbolic orbits in the model)
    from echkit.ellipsoid import Generator, gen_index, generator_orbit_set

    e = Ellipsoid(ExactReal(1), ExactReal.sqrt(2))
    cat = two_elliptic_catalog(Fraction(1), Fraction(7, 5),
                               parse_real("sqrt(2)-1"), parse_real("sqrt(3)-1"))
    for _ in range(1000):
        g1 = Generator(rng.randrange(0, 14), rng.randrange(0, 10))
        g2 = Generator(rng.randrange(0, 14), rng.randrange(0, 10))
        idx = gen_index(e, g1) - gen_index(e, g2)
        s1_, s2_ = generator_orbit_set(e, cat, g1), generator_orbit_set(e, cat, g2)
        if not parity_check(s1_, s2_, idx):
            bad += 1
    record(9, bad == 0, f"additivity and parity over 2000 samples: {bad} failures")
