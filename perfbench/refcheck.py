"""Integer-only reference evaluations that check echkit's outputs.

Nothing here imports echkit.  A value of Q(sqrt(d)) is a tuple (x, y, c, d)
meaning (x + y*sqrt(d))/c with c > 0 and d squarefree; echkit's `ExactReal`
stores the same four integers, so `qd(v)` just reads its fields.  Floors use
`math.isqrt`, signs compare squares, and every check restates a definition
rather than the algorithm under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def qd(v) -> tuple[int, int, int, int]:
    """The four integers of an ExactReal-like value, or of a rational."""
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return (v.numerator, 0, v.denominator, 1)
    return (v.a, v.b, v.c, v.d)


def _norm(x, y, c, d):
    if c < 0:
        x, y, c = -x, -y, -c
    g = gcd(gcd(x, y), c)
    if g > 1:
        x, y, c = x // g, y // g, c // g
    return (x, y, c, d if y else 1)


def _d(u, v):
    if u[1] and v[1] and u[3] != v[3]:
        raise ValueError("different radicands")
    return u[3] if u[1] else v[3]


def add(u, v):
    return _norm(u[0] * v[2] + v[0] * u[2], u[1] * v[2] + v[1] * u[2],
                 u[2] * v[2], _d(u, v))


def scale(u, k: int):
    return _norm(u[0] * k, u[1] * k, u[2], u[3])


def sub(u, v):
    return add(u, scale(v, -1))


def div(u, v):
    """u / v for v != 0, via the conjugate of v."""
    d = _d(u, v)
    x, y, c = u[0], u[1], u[2]
    p, q, r = v[0], v[1], v[2]
    den = p * p - q * q * d  # (p + q sqrt d)(p - q sqrt d)
    return _norm((x * p - y * q * d) * r, (y * p - x * q) * r, c * den, d)


def sign(u) -> int:
    x, y, _, d = u
    if y == 0 or x == 0 or (x > 0) == (y > 0):
        return (x + y > 0) - (x + y < 0)
    return (1 if x > 0 else -1) if x * x > y * y * d else (1 if y > 0 else -1)


def floor(u) -> int:
    x, y, c, d = u
    if y == 0:
        return x // c
    r = isqrt(y * y * d)
    return (x + (r if y > 0 else -r - 1)) // c


def is_integer(u) -> bool:
    return u[1] == 0 and u[0] % u[2] == 0


def floor_times(q: int, theta) -> int:
    """floor(q * theta)."""
    return floor((theta[0] * q, theta[1] * q, theta[2], theta[3]))


def neg(u):
    return (-u[0], -u[1], u[2], u[3])


# -- best approximations and partitions ----------------------------------------


def s_members(theta, qmax: int) -> list[int]:
    """S(theta) by its definition: q enters when ceil(q theta)/q is below
    every earlier ceiling fraction (theta irrational, so ceil = floor + 1)."""
    out = []
    best_num = best_den = None
    for q in range(1, qmax + 1):
        cq = floor_times(q, theta) + 1
        if best_num is None or cq * best_den < best_num * q:
            out.append(q)
            best_num, best_den = cq, q
    return out


def greedy_ok(entries, members: list[int], m: int) -> bool:
    """entries sum to m and each is the largest member at or below the rest."""
    rest = m
    for e in entries:
        below = [s for s in members if s <= rest]
        if not below or e != below[-1]:
            return False
        rest -= e
    return rest == 0


# -- index formulas ---------------------------------------------------------------


def cz_sum(items, upto_full: bool) -> int:
    """Sum of cover gradings: 2 floor(k theta) + 1 elliptic, k * cz hyperbolic."""
    total = 0
    for orbit, m in items:
        top = m if upto_full else m - 1
        for k in range(1, top + 1):
            if orbit.kind == "elliptic":
                total += 2 * floor_times(k, qd(orbit.rotation)) + 1
            else:
                total += k * orbit.cz
    return total


# -- lattice points ---------------------------------------------------------------


def count_at_most(v, a, b) -> int:
    """#{(i, j) >= 0 : i a + j b <= v} for positive a, b."""
    count = 0
    i = 0
    while True:
        rest = sub(v, scale(a, i))
        if sign(rest) < 0:
            return count
        count += floor(div(rest, b)) + 1
        i += 1


def count_below(t, s1, s2) -> int:
    """#{(i, j) >= 0 : i s1 + j s2 < t} for positive s1, s2."""
    count = 0
    i = 0
    while True:
        rest = sub(t, scale(s1, i))
        if sign(rest) <= 0:
            return count
        z = div(rest, s2)
        count += floor(z) + (0 if is_integer(z) else 1)
        i += 1


def capacities_ok(a, b, values) -> bool:
    """values is the sorted start of {m a + n b} for an irrational ratio b/a.

    All lattice values are distinct, so it suffices that the values strictly
    increase, that each is m a + n b with integers m, n >= 0 (Cramer's rule on
    the rational and surd parts), and that exactly len(values) lattice values
    lie at or below the last one.
    """
    a0, a1, ac, _ = a
    b0, b1, bc, _ = b
    det = ac * bc * (a0 * b1 - a1 * b0)
    if det == 0 or not values or sign(qd(values[0])) != 0:
        return False
    prev = None
    for v in values:
        x, y, c, _ = u = qd(v)
        if prev is not None and sign(sub(u, prev)) <= 0:
            return False
        big_x, big_y = x * ac * bc, y * ac * bc
        m_num, n_num = ac * (big_x * b1 - big_y * b0), bc * (a0 * big_y - a1 * big_x)
        den = c * det
        if m_num % den or n_num % den or m_num // den < 0 or n_num // den < 0:
            return False
        prev = u
    return count_at_most(prev, a, b) == len(values)
