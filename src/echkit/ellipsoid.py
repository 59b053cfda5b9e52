"""Model geometry E(a, b): action spectrum, lattice-point grading, densities.

The two generators with actions a and b produce the multiset
{m*a + n*b : m, n >= 0}.  A heap keyed by an exact linear integer key sorts
it into the capacity sequence; counting lattice points below a value gives
the even grading; capacity(k)^2 / (2k) approaches a*b, the desk-scale shadow
of the volume law for the spectrum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .exactreal import ExactReal, _from_squarefree
from .index import OrbitCatalog, OrbitSet
from .partitions import s_theta


def _as_exact(x) -> ExactReal:
    if isinstance(x, ExactReal):
        return x
    return ExactReal.from_fraction(Fraction(x))


@dataclass(frozen=True)
class Ellipsoid:
    a: ExactReal
    b: ExactReal

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipsoid parameters must be positive")

    @staticmethod
    def of(a, b) -> "Ellipsoid":
        return Ellipsoid(_as_exact(a), _as_exact(b))

    @property
    def irrational_ratio(self) -> bool:
        return (self.b / self.a).is_irrational


@dataclass(frozen=True)
class Generator:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("generator exponents must be nonnegative")


def capacities(e: Ellipsoid, kmax: int) -> list[ExactReal]:
    """The first kmax+1 values of the sorted multiset {m*a + n*b}.

    Frontier heap: each (m, n) is pushed once ((m, n+1) always, (m+1, 0) only
    from n == 0).  Over one denominator den and radicand d, (m, n) has value
    (x + y*sqrt(d))/den, and the heap holds integer tuples (L, n, x, y) with
    the linear key L(x, y) = x*2^s + y*B, B = floor(2^s*sqrt(d)).  L is
    additive, so a push adds La = L(a) or Lb = L(b) to the popped key, and
    heapq compares integers only.  The keys order the points exactly and tie
    only on equal values, so rational-ratio ties keep their multiplicity:
    - (m, n) is popped after the (m+1)(n+1) - 1 >= m + n points below it, so
      heap points have m + n <= kmax + 1 and |x| + |y|*sqrt(d) <= bound.
    - For heap points P and Q let delta = (x_P - x_Q) + w*sqrt(d) with
      w = y_P - y_Q, and B = 2^s*sqrt(d) - eps with 0 <= eps < 1.  Then
      L_P - L_Q = 2^s*delta - w*eps, and |w| <= 2*bound (|y| <= bound).
    - If delta != 0 it has integer norm (x_P - x_Q)^2 - w^2*d != 0 (d
      squarefree) and conjugate size <= 2*bound, so |delta| >= 1/(2*bound).
      With s = 2*bit_length(bound) + 2, 2^s > 4*bound^2, so |2^s*delta| >
      2*bound >= |w*eps|: L_P - L_Q has the sign of delta and is not 0.
    - If delta == 0 then x and y are equal (sqrt(d) is irrational, or d = 1
      and every y is 0), and so are the keys.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    a, b = e.a, e.b
    d = a._common_d(b)
    den = lcm(a.c, b.c)
    ax, ay = a.a * (den // a.c), a.b * (den // a.c)
    bx, by = b.a * (den // b.c), b.b * (den // b.c)
    bound = (kmax + 1) * (max(abs(ax), abs(bx))
                          + max(abs(ay), abs(by)) * (isqrt(d) + 1))
    s = 2 * bound.bit_length() + 2
    root = isqrt(d << 2 * s)  # B = floor(2^s * sqrt(d)), exact
    la, lb = (ax << s) + ay * root, (bx << s) + by * root

    heap = [(0, 0, 0, 0)]
    out: list[ExactReal] = []
    for _ in range(kmax + 1):
        key, n, x, y = heap[0]
        out.append(_from_squarefree(x, y, den, d))
        heapq.heapreplace(heap, (key + lb, n + 1, x + bx, y + by))
        if n == 0:
            heapq.heappush(heap, (key + la, 0, x + ax, y + ay))
    return out


def capacity(e: Ellipsoid, k: int) -> ExactReal:
    """k-th smallest value (with multiplicity; index 0 is the value 0)."""
    return capacities(e, k)[k]


def gen_index(e: Ellipsoid, g: Generator) -> int:
    """2 * (number of lattice points with i*a + j*b <= m*a + n*b, minus one)."""
    if not e.irrational_ratio:
        raise ValueError("degenerate ellipsoid: rational action ratio has ties")
    # the ratio is irrational, so (m, n) is the only lattice point on the line
    return 2 * lattice_count(e.a, e.b, e.a * g.m + e.b * g.n)


def volume_ratio(e: Ellipsoid, k: int) -> float:
    """capacity(k)^2 / (2k); approaches a*b as k grows."""
    if k < 1:
        raise ValueError("k must be positive")
    c = float(capacity(e, k))
    return c * c / (2 * k)


def lattice_count(s1, s2, t) -> int:
    """#{(t1, t2) in Z>=0^2 : t1*s1 + t2*s2 < t}; 0 when t <= 0."""
    s1, s2, t = _as_exact(s1), _as_exact(s2), _as_exact(t)
    if s1 <= 0 or s2 <= 0:
        raise ValueError("steps must be positive")
    total = 0
    t1 = 0
    # column t1 holds ceil((t - t1*s1)/s2) points while that is positive
    while (rows := ((t - s1 * t1) / s2).ceil()) > 0:
        total += rows
        t1 += 1
    return total


# -- density of admissible orbit sets ----------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Counts over the admissible orbit sets with action below the bound.

    Ratios are None ("absent") when the underlying family is empty.
    """

    max_action: Fraction
    gamma_name: str | None
    total: int
    by_e: dict[int, int]
    by_h: dict[int, int]
    e_ratios: dict[int, Fraction | None]
    h_ratios: dict[int, Fraction | None]
    s_union_ratio: Fraction | None


def enumerate_admissible(
    catalog: OrbitCatalog, max_action: Fraction, gamma_class: tuple[int, ...]
):
    """All admissible orbit sets from the catalog with action < max_action
    and the given homology class (depth-first over the catalog orbits)."""
    if catalog.complete_below is not None and max_action > catalog.complete_below:
        raise ValueError(
            "catalog is only complete below action %s" % catalog.complete_below
        )
    if max_action <= 0:
        return []
    group = catalog.group
    orbits = catalog.orbits
    gamma_class = group.reduce(gamma_class)
    results: list[OrbitSet] = []

    def rec(i: int, budget: Fraction, cls, picked):
        if i == len(orbits):
            if cls == gamma_class:
                results.append(OrbitSet(tuple(picked), group))
            return
        o = orbits[i]
        rec(i + 1, budget, cls, picked)  # multiplicity 0
        top = int((budget / o.action).__floor__()) if o.is_elliptic else 1
        hom = group.reduce(o.homology)
        c = cls
        for m in range(1, top + 1):
            spent = m * o.action
            if spent >= budget:
                break
            c = group.add(c, hom)
            picked.append((o, m))
            rec(i + 1, budget - spent, c, picked)
            picked.pop()

    rec(0, Fraction(max_action), group.zero, [])
    return results


def density_report(
    catalog: OrbitCatalog,
    max_action,
    gamma_class=None,
    gamma_name: str | None = None,
    e_values: tuple[int, ...] = (),
    h_values: tuple[int, ...] = (),
) -> DensityReport:
    """Tabulate the admissible orbit sets with action below the bound.

    e-counts are taken at the designated elliptic orbit (inferred when the
    catalog has exactly one).  The final ratio pools the e-counts that land
    in the best-approximation set of that orbit's rotation number.
    """
    max_action = Fraction(max_action)
    group = catalog.group
    if gamma_class is None:
        gamma_class = group.zero
    gamma = None
    if gamma_name is not None:
        gamma = catalog.get(gamma_name)
    else:
        ell = catalog.elliptic_orbits()
        if len(ell) == 1:
            gamma = ell[0]
    sets = enumerate_admissible(catalog, max_action, gamma_class)
    by_e: dict[int, int] = {}
    by_h: dict[int, int] = {}
    for s in sets:
        e = s.multiplicity(gamma.name) if gamma is not None else 0
        h = sum(1 for o, _ in s.items if o.is_hyperbolic)
        by_e[e] = by_e.get(e, 0) + 1
        by_h[h] = by_h.get(h, 0) + 1
    total = len(sets)

    def ratio(cnt: int) -> Fraction | None:
        return Fraction(cnt, total) if total else None

    e_ratios = {n: ratio(by_e.get(n, 0)) for n in e_values}
    h_ratios = {m: ratio(by_h.get(m, 0)) for m in h_values}
    s_union = None
    if gamma is not None and gamma.is_elliptic and total:
        max_e = max(by_e) if by_e else 0
        members = (
            set(s_theta(gamma.rotation, max_e).members) if max_e >= 1 else set()
        )
        pooled = sum(c for e, c in by_e.items() if e in members)
        s_union = Fraction(pooled, total)
    return DensityReport(
        max_action=max_action,
        gamma_name=gamma.name if gamma is not None else None,
        total=total,
        by_e=by_e,
        by_h=by_h,
        e_ratios=e_ratios,
        h_ratios=h_ratios,
        s_union_ratio=s_union,
    )


def two_elliptic_catalog(a: Fraction, b: Fraction, theta1, theta2) -> OrbitCatalog:
    """Catalog with two elliptic orbits (trivial homology), actions a and b."""
    from .index import FiniteAbelianGroup, SimpleOrbit

    g = FiniteAbelianGroup(())
    return OrbitCatalog(
        g,
        (
            SimpleOrbit("g1", "elliptic", Fraction(a), rotation=theta1),
            SimpleOrbit("g2", "elliptic", Fraction(b), rotation=theta2),
        ),
        complete_below=None,
    )


def generator_orbit_set(e: Ellipsoid, cat: OrbitCatalog, g: Generator) -> OrbitSet:
    items = []
    if g.m:
        items.append((cat.get("g1"), g.m))
    if g.n:
        items.append((cat.get("g2"), g.n))
    return OrbitSet(tuple(items), cat.group)
