"""Best-approximation sets and the partition conditions for curve ends.

S(theta) is the set of positive integers q whose ceiling fraction
ceil(q theta)/q is strictly smaller than every earlier one.  The incoming
partition of a multiplicity M strips off the largest member of
S(theta) at or below the remainder until nothing is left; the outgoing
partition is the incoming partition for -theta.  Hyperbolic orbits use the
fixed patterns (1,...,1) and (2,...,2[,1]).

Membership of one q is decided without the scan by Farey neighbours.  Let
c = ceil(q theta), so c/q > theta.  q is in S(theta) iff no fraction with a
denominator below q lies in (theta, c/q].  If gcd(c, q) = g > 1 then
(c/g)/(q/g) is such a fraction.  Otherwise c/q has a left Farey neighbour
a/b with c b - a q = 1 and b < q, namely b = c^-1 mod q; no fraction with a
denominator below q lies strictly between a/b and c/q, so q is a member iff
a/b < theta.  Two members p < p' with ceilings c, c' are consecutive iff
c p' - c' p = 1: a member between them would give a fraction strictly
between c'/p' and c/p with a denominator below p', and Farey neighbours
admit none below p + p'; conversely consecutive best upper approximations
are Farey neighbours (Khinchin, *Continued Fractions*, section 6).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from .exactreal import ExactReal, ceil_mul, floor_mul

ELLIPTIC = "elliptic"
POSITIVE_HYPERBOLIC = "positive_hyperbolic"
NEGATIVE_HYPERBOLIC = "negative_hyperbolic"

ORBIT_KINDS = (ELLIPTIC, POSITIVE_HYPERBOLIC, NEGATIVE_HYPERBOLIC)


@dataclass(frozen=True)
class SSet:
    """S(theta) truncated to [1, bound], members strictly increasing."""

    theta: ExactReal
    bound: int
    members: tuple[int, ...]

    def __contains__(self, q: int) -> bool:
        i = bisect_right(self.members, q)
        return i > 0 and self.members[i - 1] == q

    def max_at_most(self, m: int) -> int:
        """Largest member <= m (m >= 1)."""
        i = bisect_right(self.members, m)
        if i == 0:
            raise ValueError("no member at or below %d" % m)
        return self.members[i - 1]

    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.members, self.members[1:]))

    @property
    def largest_gap(self) -> int | None:
        """Largest successor gap seen within the bound.

        The gaps diverge in the limit, which a truncation cannot assert;
        this is reported, never asserted.
        """
        gaps = self.gaps()
        return max(gaps) if gaps else None


def s_theta(theta: ExactReal, qmax: int) -> SSet:
    """S(theta) ∩ [1, qmax] for irrational theta.

    Incremental scan: q enters exactly when ceil(q theta)/q is strictly below
    the running minimum, which is the minimum over all smaller denominators.
    """
    if not theta.is_irrational:
        raise ValueError("elliptic rotation number must be irrational")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    members = []
    best_num = best_den = None
    for q in range(1, qmax + 1):
        cq = ceil_mul(q, theta)
        if best_num is None or cq * best_den < best_num * q:
            members.append(q)
            best_num, best_den = cq, q
    return SSet(theta, qmax, tuple(members))


def in_s_theta(theta: ExactReal, q: int) -> bool:
    """q ∈ S(theta) for irrational theta, decided in O(log q) without a scan.

    The left Farey neighbour a/b of c/q = ceil(q theta)/q must lie below
    theta (see the module docstring); 1 is always a member.
    """
    if not theta.is_irrational:
        raise ValueError("elliptic rotation number must be irrational")
    if q <= 1:
        return q == 1
    c = ceil_mul(q, theta)
    if gcd(c, q) != 1:
        return False
    b = pow(c, -1, q)
    return (c * b - 1) // q <= floor_mul(b, theta)


@dataclass(frozen=True)
class Partition:
    """Multiplicities of the ends at one orbit, in nonincreasing order."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 1 for e in self.entries):
            raise ValueError("partition entries must be positive")
        if any(
            self.entries[i] < self.entries[i + 1]
            for i in range(len(self.entries) - 1)
        ):
            raise ValueError("partition entries must be nonincreasing")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def partition_in(theta: ExactReal, m: int) -> Partition:
    """Incoming partition of m: repeatedly strip max(S(theta) ∩ [1, rest])."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if m == 0:
        return Partition(())
    sset = s_theta(theta, m)
    entries = []
    rest = m
    while rest > 0:
        a = sset.max_at_most(rest)
        entries.append(a)
        rest -= a
    return Partition(tuple(entries))


def partition_out(theta: ExactReal, m: int) -> Partition:
    return partition_in(-theta, m)


def partition_orbit(
    kind: str, direction: str, m: int, theta: ExactReal | None = None
) -> Partition:
    """Incoming/outgoing end partition at an orbit of the given kind."""
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if kind == POSITIVE_HYPERBOLIC:
        return Partition((1,) * m)
    if kind == NEGATIVE_HYPERBOLIC:
        if m % 2 == 0:
            return Partition((2,) * (m // 2))
        return Partition((2,) * (m // 2) + (1,))
    if kind == ELLIPTIC:
        if theta is None:
            raise ValueError("elliptic partition needs a rotation number")
        return partition_in(theta, m) if direction == "in" else partition_out(theta, m)
    raise ValueError(f"unknown orbit kind {kind!r}")


def is_initial_segment(candidate: Partition, reference: Partition) -> bool:
    """True iff candidate's entries are a prefix of reference's entries."""
    n = len(candidate.entries)
    return candidate.entries == reference.entries[:n]
