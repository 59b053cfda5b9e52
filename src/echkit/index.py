"""Orbit sets, actions, and the integer gradings attached to pairs of them.

The grading of a pair (alpha, beta) needs two integers that come from the
ambient geometry, a relative Chern number and a self-intersection term; they
are inputs here (`RelData`), not computed.  With first Betti number zero the
relative class is unique, so one (c1, q) pair per orbit-set pair suffices.

Conventions:
  * an elliptic orbit carries an irrational rotation number theta and its
    k-fold cover grades as 2*floor(k*theta) + 1;
  * a hyperbolic orbit carries an integer grading cz (even for positive
    hyperbolic, odd for negative hyperbolic) and its k-fold cover grades as
    k*cz.  Admissible orbit sets only ever use hyperbolic multiplicity one,
    so nothing downstream depends on the k >= 2 hyperbolic rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactreal import ExactReal, ceil_mul, floor_mul, parse_real
from .partitions import (
    ELLIPTIC,
    NEGATIVE_HYPERBOLIC,
    ORBIT_KINDS,
    POSITIVE_HYPERBOLIC,
    in_s_theta,
)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group presented by invariant factors.

    A zero factor would be a free summand (positive first Betti number) and
    is rejected.  The empty presentation is the trivial group.
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if any(f <= 0 for f in self.factors):
            raise ValueError("invariant factors must be positive (finite group)")

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def reduce(self, vec) -> tuple[int, ...]:
        vec = tuple(vec)
        if len(vec) != len(self.factors):
            raise ValueError("class vector has wrong length")
        return tuple(v % f for v, f in zip(vec, self.factors))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % f for a, b, f in zip(x, y, self.factors))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % f for a, f in zip(x, self.factors))


@dataclass(frozen=True)
class SimpleOrbit:
    name: str
    kind: str
    action: Fraction
    rotation: ExactReal | None = None
    cz: int | None = None
    homology: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ORBIT_KINDS:
            raise ValueError(f"unknown orbit kind {self.kind!r}")
        if self.action <= 0:
            raise ValueError("orbit action must be positive")
        if self.kind == ELLIPTIC:
            if self.rotation is None or not self.rotation.is_irrational:
                raise ValueError("elliptic orbit needs an irrational rotation")
            if self.cz is not None:
                raise ValueError("elliptic orbit does not carry a fixed cz")
        else:
            if self.cz is None:
                raise ValueError("hyperbolic orbit needs an integer cz")
            if self.kind == POSITIVE_HYPERBOLIC and self.cz % 2 != 0:
                raise ValueError("positive hyperbolic cz must be even")
            if self.kind == NEGATIVE_HYPERBOLIC and self.cz % 2 == 0:
                raise ValueError("negative hyperbolic cz must be odd")

    @property
    def is_elliptic(self) -> bool:
        return self.kind == ELLIPTIC

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind != ELLIPTIC


@dataclass(frozen=True)
class OrbitSet:
    """Finite multiset of distinct simple orbits with positive multiplicities."""

    items: tuple[tuple[SimpleOrbit, int], ...]
    group: FiniteAbelianGroup = field(default_factory=FiniteAbelianGroup)

    def __post_init__(self):
        names = [o.name for o, _ in self.items]
        if len(set(names)) != len(names):
            raise ValueError("orbits in an orbit set must be distinct")
        if any(m < 1 for _, m in self.items):
            raise ValueError("multiplicities must be positive integers")
        for o, _ in self.items:
            if len(o.homology) != len(self.group.factors):
                raise ValueError(f"orbit {o.name}: homology vector length mismatch")

    def admissible(self) -> bool:
        return all(m == 1 for o, m in self.items if o.is_hyperbolic)

    def homology_class(self) -> tuple[int, ...]:
        cls = self.group.zero
        for o, m in self.items:
            cls = self.group.add(cls, self.group.scale(m, self.group.reduce(o.homology)))
        return cls

    def multiplicity(self, name: str) -> int:
        for o, m in self.items:
            if o.name == name:
                return m
        return 0


def action(alpha: OrbitSet) -> Fraction:
    return sum((m * o.action for o, m in alpha.items), Fraction(0))


def e_count(alpha: OrbitSet, gamma: SimpleOrbit) -> int:
    """Multiplicity of the elliptic orbit gamma in alpha."""
    if not gamma.is_elliptic:
        raise ValueError("e_count counts an elliptic orbit")
    return alpha.multiplicity(gamma.name)


def h_count(alpha: OrbitSet) -> int:
    """Number of (distinct) hyperbolic orbits in alpha."""
    return sum(1 for o, _ in alpha.items if o.is_hyperbolic)


def cz_power(orbit: SimpleOrbit, k: int) -> int:
    """Grading of the k-fold cover of a simple orbit."""
    if k < 1:
        raise ValueError("cover multiplicity must be >= 1")
    if orbit.is_elliptic:
        return 2 * floor_mul(k, orbit.rotation) + 1
    return k * orbit.cz


@dataclass(frozen=True)
class RelData:
    """Relative data of the (unique) class joining a pair of orbit sets."""

    c1: int
    q: int

    def __add__(self, other: "RelData") -> "RelData":
        return RelData(self.c1 + other.c1, self.q + other.q)


def compose_rel(r1: RelData, r2: RelData, cross: int = 0) -> RelData:
    """Relative data of a composed class; `cross` is the bilinear cross term
    (the composed self-intersection is q1 + 2*cross + q2)."""
    return RelData(r1.c1 + r2.c1, r1.q + 2 * cross + r2.q)


def _check_same_class(alpha: OrbitSet, beta: OrbitSet):
    if alpha.group != beta.group:
        raise ValueError("orbit sets live over different homology groups")
    if alpha.homology_class() != beta.homology_class():
        raise ValueError("no relative class: orbit sets are not homologous")


def _cz_sum(alpha: OrbitSet, upto_full: bool) -> int:
    """Sum of cover gradings; upto_full sums k = 1..m, else k = 1..m-1."""
    total = 0
    for o, m in alpha.items:
        top = m if upto_full else m - 1
        for k in range(1, top + 1):
            total += cz_power(o, k)
    return total


def ech_index(alpha: OrbitSet, beta: OrbitSet, rel: RelData) -> int:
    """c1 + q + sum of cover gradings of alpha minus those of beta."""
    _check_same_class(alpha, beta)
    return rel.c1 + rel.q + _cz_sum(alpha, True) - _cz_sum(beta, True)


def j0_index(alpha: OrbitSet, beta: OrbitSet, rel: RelData) -> int:
    """-c1 + q with cover gradings summed only up to multiplicity - 1."""
    _check_same_class(alpha, beta)
    return -rel.c1 + rel.q + _cz_sum(alpha, False) - _cz_sum(beta, False)


def positive_hyperbolic_count(alpha: OrbitSet) -> int:
    return sum(1 for o, _ in alpha.items if o.kind == POSITIVE_HYPERBOLIC)


def parity_check(alpha: OrbitSet, beta: OrbitSet, index: int) -> bool:
    """index must agree mod 2 with the difference of positive hyperbolic counts."""
    if not alpha.admissible() or not beta.admissible():
        raise ValueError("parity law applies to admissible orbit sets")
    eps = positive_hyperbolic_count(alpha) - positive_hyperbolic_count(beta)
    return (index - eps) % 2 == 0


# -- topological types -------------------------------------------------------


@dataclass(frozen=True)
class TopoType:
    """(genus, punctures, overlap count) of a curve's nontrivial part."""

    g: int
    k: int
    l: int
    realizable: bool


def topo_types(j0: int) -> list[TopoType]:
    """All (g, k, l) with j0 = -2 + 2g + k + l and k >= 1.

    A nontrivial part with a single puncture meets a single orbit, so it can
    contribute at most one overlap with the trivial cylinders: k == 1 forces
    l <= 1, and (g, 1, l) with l >= 2 is flagged unrealizable.
    """
    if j0 < -1:
        raise ValueError("the topological-complexity index is always >= -1")
    out = []
    for g in range(0, (j0 + 2) // 2 + 1):
        rest = j0 + 2 - 2 * g
        for k in range(1, rest + 1):
            l = rest - k
            out.append(TopoType(g, k, l, realizable=not (k == 1 and l >= 2)))
    return out


def floor_step(theta: ExactReal, p_i: int, p_next: int, n: int) -> int:
    """floor(n theta) - floor((n - p_i) theta) - floor(p_i theta).

    p_i and p_next must be consecutive members of S(-theta) and
    p_i <= n <= p_next.  The value is 0 on [p_i, p_next) and 1 at p_next:
    this is the step that keeps the grading constant across a window and
    makes it jump by 2 at the next best-approximation denominator.

    `in_s_theta` checks that p_next is a member, and the Farey determinant
    c p_next - c' p_i = 1 of the ceilings c, c' checks that no member lies
    between them (see `partitions`).  Together with 1 <= p_i < p_next they
    make p_i a member as well: a fraction in (-theta, c/p_i] with a
    denominator below p_i would, as p_next is a member, lie in
    (c'/p_next, c/p_i], between two Farey neighbours in lowest terms, and
    so have a denominator of at least p_i + p_next.  p_i's own membership
    is therefore tested only to choose the error message.
    The check costs O(log p_next) integer steps and enumerates no part of
    S(-theta).
    """
    opposite = -theta
    if not (
        1 <= p_i <= p_next
        and in_s_theta(opposite, p_next)
        and ceil_mul(p_i, opposite) * p_next - ceil_mul(p_next, opposite) * p_i == 1
    ):
        # p_i must lie in S(-theta) up to p_next, so a member above it is refused
        if not (in_s_theta(opposite, p_i) and p_i <= p_next):
            raise ValueError(f"{p_i} is not a member of the opposite set")
        raise ValueError(f"{p_i}, {p_next} are not consecutive members")
    if not p_i <= n <= p_next:
        raise ValueError("n out of range")
    mid = 0 if n == p_i else floor_mul(n - p_i, theta)
    return floor_mul(n, theta) - mid - floor_mul(p_i, theta)


# -- JSON catalog loading ----------------------------------------------------


@dataclass(frozen=True)
class OrbitCatalog:
    """A finite list of simple orbits, complete below a stated action bound."""

    group: FiniteAbelianGroup
    orbits: tuple[SimpleOrbit, ...]
    complete_below: Fraction | None = None

    def __post_init__(self):
        names = [o.name for o in self.orbits]
        if len(set(names)) != len(names):
            raise ValueError("catalog orbit names must be distinct")

    def get(self, name: str) -> SimpleOrbit:
        for o in self.orbits:
            if o.name == name:
                return o
        raise KeyError(name)

    def elliptic_orbits(self) -> list[SimpleOrbit]:
        return [o for o in self.orbits if o.is_elliptic]


def _exact(value, what: str) -> Fraction:
    """A value documented as exact: a JSON integer or a rational string, never
    a JSON float or boolean, which would be taken as a nearby binary value."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer or a rational string, "
                         f"not {value!r}")
    return Fraction(value)


def orbit_from_dict(d: dict, n_factors: int) -> SimpleOrbit:
    rotation = d.get("rotation")
    return SimpleOrbit(
        name=d["name"],
        kind=d["kind"],
        action=_exact(d["action"], f"action of {d['name']}"),
        rotation=parse_real(rotation) if rotation is not None else None,
        cz=d.get("cz"),
        homology=tuple(d.get("homology", (0,) * n_factors)),
    )


def catalog_from_dict(d: dict) -> OrbitCatalog:
    group = FiniteAbelianGroup(tuple(d.get("group", ())))
    orbits = tuple(
        orbit_from_dict(o, len(group.factors)) for o in d.get("orbits", ())
    )
    cb = d.get("complete_below")
    return OrbitCatalog(
        group, orbits, _exact(cb, "complete_below") if cb is not None else None
    )


def orbit_set_from_dict(d: dict) -> OrbitSet:
    """Build an orbit set from {"group":..., "orbits":..., "items": {...}},
    where `items` maps orbit names to JSON integer multiplicities."""
    catalog = catalog_from_dict(d)
    items = []
    for name, mult in sorted(d["items"].items()):
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise ValueError(f"multiplicity of {name} must be an integer, "
                             f"not {mult!r}")
        items.append((catalog.get(name), mult))
    return OrbitSet(tuple(items), catalog.group)
