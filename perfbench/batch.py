"""The seeded in-process workloads: `spectrum` and `stheta`.

`build(workload, seed)` turns a seed into a list of operations.  Each
operation names an echkit function by module and attribute (looked up at
call time, so a tracer installed later sees the call), its arguments, and an
independent check of its result from `refcheck`, which never calls echkit.

Sizes sit on fixed log-spaced grids, jittered a little by the seed, so every
seed gets the same spread of sizes and a pass costs about the same whatever
the seed; the surds, ellipsoids and orbit sets come from the seed alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import refcheck as ref

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)

JITTER = 0.02  # largest share by which the seed shrinks each size

# spectrum: capacities(E(a, b), k) for k on a log grid from CAP_KMIN to CAP_KMAX.
# The largest calls take most of a pass, and their cost depends on the drawn
# ellipsoid by about 10%, so the grid is dense enough that several share it.
CAP_KMIN, CAP_KMAX, CAP_OPS = 23, 50000, 16
LATTICE_OPS = 16
GEN_INDEX_OPS = 16
DENSITY_OPS = 8

# stheta: s_theta(theta, q) for q in [1e3, 1e5], partitions, floor steps, indices
STHETA_QMIN, STHETA_QMAX, STHETA_OPS = 1000, 100000, 8
PARTITION_OPS, PARTITION_MMAX = 16, 10000
# floor_step over the windows of S(-theta) below FLOOR_STEP_BOUND, in order,
# until the calls have rescanned FLOOR_STEP_RESCAN values for each theta
FLOOR_STEP_THETAS, FLOOR_STEP_BOUND, FLOOR_STEP_RESCAN = 16, 1000, 20000
INDEX_OPS, INDEX_MMAX = 16, 3000


@dataclass
class Op:
    module: str
    func: str
    args: tuple
    check: Callable[[Any], bool]


def _grid(rng, lo: float, hi: float, n: int) -> list[int]:
    """n sizes log-evenly spaced from lo to hi, each shrunk by up to JITTER."""
    w = (math.log(hi) - math.log(lo)) / (n - 1)
    return [int(math.exp(math.log(lo) + i * w) * (1 - JITTER * rng.random()))
            for i in range(n)]


def _surd(er, rng, lo: int | float, hi: int | float, avoid_unit=False):
    """A random quadratic surd (a + b sqrt d)/c moved into (lo, hi)."""
    while True:
        x = er.ExactReal(rng.randrange(-9, 10), rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.randrange(1, 7), rng.choice(RADICANDS))
        x = x - math.floor(float(x) - lo) + rng.randrange(0, max(1, int(hi - lo)))
        if lo < float(x) < hi and not (avoid_unit and 0 < float(x) < 1):
            return x


def _spectrum(echkit, rng) -> list[Op]:
    er, ell = echkit.exactreal, echkit.ellipsoid
    ops: list[Op] = []

    def ellipsoid():
        a = Fraction(rng.randrange(2, 9), rng.randrange(2, 5))
        b = _surd(er, rng, 0.5, 2.5)
        return ell.Ellipsoid.of(a, b)

    for k in _grid(rng, CAP_KMIN, CAP_KMAX, CAP_OPS):
        e = ellipsoid()
        a, b = ref.qd(e.a), ref.qd(e.b)
        ops.append(Op("ellipsoid", "capacities", (e, k),
                      lambda r, a=a, b=b, k=k: len(r) == k + 1
                      and ref.capacities_ok(a, b, r)))

    for steps in _grid(rng, 8, 400, LATTICE_OPS):
        s1 = _surd(er, rng, 0.5, 2.0)
        s2 = er.ExactReal.from_fraction(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)))
        t = er.ExactReal.from_fraction(Fraction(int(steps * float(s1)) + 1))
        ops.append(Op("ellipsoid", "lattice_count", (s1, s2, t),
                      lambda r, s1=s1, s2=s2, t=t:
                      r == ref.count_below(ref.qd(t), ref.qd(s1), ref.qd(s2))))

    for size in _grid(rng, 4, 300, GEN_INDEX_OPS):
        e = ellipsoid()
        m = rng.randrange(0, size + 1)
        g = ell.Generator(m, size - m)
        ops.append(Op("ellipsoid", "gen_index", (e, g),
                      lambda r, a=ref.qd(e.a), b=ref.qd(e.b), g=g:
                      r == 2 * (ref.count_at_most(ref.add(ref.scale(a, g.m),
                                                          ref.scale(b, g.n)),
                                                  a, b) - 1)))

    for count in _grid(rng, 20, 2000, DENSITY_OPS):
        a1 = Fraction(rng.randrange(4, 9), 4)
        a2 = Fraction(rng.randrange(4, 13), 4)
        theta1 = _surd(er, rng, 0, 1)
        cat = ell.two_elliptic_catalog(a1, a2, theta1, _surd(er, rng, 0, 1))
        bound = Fraction(math.isqrt(int(2 * a1 * a2 * count * 16)), 4)
        ops.append(Op("ellipsoid", "density_report",
                      (cat, bound, None, "g1", (1, 2, 3), (0,)),
                      lambda r, a1=a1, a2=a2, t1=ref.qd(theta1), bound=bound:
                      (r.total, r.by_e, r.e_ratios, r.s_union_ratio)
                      == _density_reference(a1, a2, t1, bound)))
    return ops


def _density_reference(a1, a2, theta1, bound):
    """(total, by_e, e_ratios for e = 1..3, pooled ratio) over the orbit sets
    g1^e g2^n with e a1 + n a2 < bound."""
    by_e = {}
    e = 0
    while e * a1 < bound:
        by_e[e] = math.ceil((bound - e * a1) / a2)
        e += 1
    total = sum(by_e.values())
    members = set(ref.s_members(theta1, max(by_e))) if max(by_e) >= 1 else set()
    pooled = sum(c for e, c in by_e.items() if e in members)
    ratios = {n: Fraction(by_e.get(n, 0), total) for n in (1, 2, 3)}
    return total, by_e, ratios, Fraction(pooled, total)


def _floor_step_reference(t, p_i: int, p_next: int, n: int) -> int:
    """The 0/1 law (1 exactly at p_next), checked against the floors themselves."""
    direct = (ref.floor_times(n, t) - ref.floor_times(p_i, t)
              - (ref.floor_times(n - p_i, t) if n > p_i else 0))
    return direct if direct == (n == p_next) else -1


def _stheta(echkit, rng) -> list[Op]:
    er, idx = echkit.exactreal, echkit.index
    ops: list[Op] = []

    def theta(i):
        # alternate between the unit interval and rotation numbers outside it
        return _surd(er, rng, 0, 1) if i % 2 == 0 else _surd(er, rng, -3, 3, True)

    for i, q in enumerate(_grid(rng, STHETA_QMIN, STHETA_QMAX, STHETA_OPS)):
        th = theta(i)
        ops.append(Op("partitions", "s_theta", (th, q),
                      lambda r, t=ref.qd(th), q=q: r.bound == q
                      and list(r.members) == ref.s_members(t, q)))

    for i, m in enumerate(_grid(rng, 8, PARTITION_MMAX, PARTITION_OPS)):
        th = theta(i)
        side = ref.qd(th) if i % 4 < 2 else ref.neg(ref.qd(th))
        func = "partition_in" if i % 4 < 2 else "partition_out"
        ops.append(Op("partitions", func, (th, m),
                      lambda r, side=side, m=m: ref.greedy_ok(
                          r.entries, ref.s_members(side, m), m)))

    for i in range(FLOOR_STEP_THETAS):
        th = theta(i)
        t = ref.qd(th)
        opp = ref.s_members(ref.neg(t), FLOOR_STEP_BOUND)
        windows = [(p_i, p_next, n) for p_i, p_next in zip(opp, opp[1:])
                   for n in range(p_i, p_next + 1)]
        budget = FLOOR_STEP_RESCAN
        for p_i, p_next, n in windows:
            budget -= p_next
            if budget < 0:
                break
            ops.append(Op("index", "floor_step",
                          (th, p_i, p_next, n),
                          lambda r, t=t, p=p_i, p_next=p_next, n=n:
                          r == _floor_step_reference(t, p, p_next, n)))

    group = idx.FiniteAbelianGroup(())
    orbits = [idx.SimpleOrbit(f"e{j}", "elliptic", Fraction(j + 1), rotation=theta(j))
              for j in range(3)]
    orbits.append(idx.SimpleOrbit("h", "negative_hyperbolic", Fraction(5, 2), cz=-1))
    for i, size in enumerate(_grid(rng, 16, INDEX_MMAX, INDEX_OPS)):
        def orbit_set():
            items = [(o, rng.randrange(size // 2, size + 1)) for o in orbits[:3]]
            if rng.random() < 0.5:
                items.append((orbits[3], 1))
            return idx.OrbitSet(tuple(items), group)

        alpha, beta = orbit_set(), orbit_set()
        rel = idx.RelData(rng.randrange(-5, 6), rng.randrange(-5, 6))
        func = "ech_index" if i % 2 == 0 else "j0_index"
        full = func == "ech_index"
        sign = 1 if full else -1
        ops.append(Op("index", func, (alpha, beta, rel),
                      lambda r, a=alpha, b=beta, rel=rel, full=full, sign=sign:
                      r == sign * rel.c1 + rel.q + ref.cz_sum(a.items, full)
                      - ref.cz_sum(b.items, full)))
    return ops


WORKLOADS = {"spectrum": _spectrum, "stheta": _stheta}


def build(echkit, workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](echkit, random.Random(f"{workload}:{seed}"))


def warm_up(echkit, ops: list[Op]) -> None:
    """Call each function once, on its smallest input (the grids ascend)."""
    seen = set()
    for op in ops:
        if op.func not in seen:
            seen.add(op.func)
            getattr(getattr(echkit, op.module), op.func)(*op.args)


def setup(workload: str, seed: int) -> list[Op]:
    """Import, input generation and warm-up: what a fresh process pays first."""
    import echkit

    ops = build(echkit, workload, seed)
    warm_up(echkit, ops)
    return ops
