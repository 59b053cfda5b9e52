"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

from fractions import Fraction

import mpmath

from echkit.exactreal import ExactReal, ceil_mul


def scale_expr(a: dict, c) -> dict:
    """c * a for a linear expression; certificates are replayed with it."""
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def s_theta_bruteforce(theta: ExactReal, qmax: int) -> list[int]:
    """Literal definition: q belongs iff its ceiling fraction beats every
    smaller denominator.  Quadratic, with early exit on the first violation."""
    ceils = [None] + [ceil_mul(q, theta) for q in range(1, qmax + 1)]
    members = []
    for q in range(1, qmax + 1):
        ok = True
        for qp in range(1, q):
            # ceil(q theta)/q < ceil(qp theta)/qp by cross-multiplication
            if ceils[q] * qp >= ceils[qp] * q:
                ok = False
                break
        if ok:
            members.append(q)
    return members


def to_mpf(x: ExactReal) -> mpmath.mpf:
    return (mpmath.mpf(x.a) + mpmath.mpf(x.b) * mpmath.sqrt(x.d)) / x.c


def decimal_floor(q: int, theta: ExactReal, dps: int = 200) -> int:
    """floor(q*theta) via high-precision decimal arithmetic."""
    with mpmath.workdps(dps):
        return int(mpmath.floor(q * to_mpf(theta)))


def capacities_bruteforce(a: ExactReal, b: ExactReal, kmax: int) -> list[ExactReal]:
    """Materialize {m a + n b} below a safe bound and sort exactly.

    The k-th value is at most sqrt(2abk) + a + b: the triangle below that
    line already contains more than k lattice points.
    """
    import math

    fa, fb = float(a), float(b)
    bound = ExactReal(math.ceil(math.sqrt(2 * fa * fb * (kmax + 1))
                                + fa + fb) + 1)
    vals = []
    m = 0
    while a * m <= bound:
        n = 0
        while a * m + b * n <= bound:
            vals.append(a * m + b * n)
            n += 1
        m += 1
    vals.sort()
    return vals[: kmax + 1]


def lattice_bruteforce(s1, s2, t) -> int:
    count = 0
    t1 = 0
    while s1 * t1 < t:
        t2 = 0
        while s1 * t1 + s2 * t2 < t:
            count += 1
            t2 += 1
        t1 += 1
    return count


def gen_count_bruteforce(a, b, m: int, n: int) -> int:
    """#{(i, j) >= 0 : i*a + j*b <= m*a + n*b}, one point at a time."""
    v = a * m + b * n
    count = 0
    i = 0
    while a * i <= v:
        j = 0
        while a * i + b * j <= v:
            count += 1
            j += 1
        i += 1
    return count


def random_surd(rng, unit_interval: bool = True) -> ExactReal:
    """A random quadratic surd, reduced to (0, 1) when asked."""
    d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23])
    b = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    a = rng.randrange(-30, 31)
    c = rng.randrange(1, 13)
    x = ExactReal(a, b, c, d)
    if unit_interval:
        x = x - ExactReal(x.floor())
    return x
