"""Transition types of consecutive low-grading steps and their compatibility.

Each transition between consecutive generators drops the elliptic
multiplicity by a best-approximation denominator P (with successor P') and
pins the actions of the hyperbolic orbits it touches to small rational
multiples of P and P'.  Six types occur: (a), (b), (c) when the drop is
governed by the set tagged "p", and their mirror images (a'), (b'), (c') for
the set tagged "q".  Types b/b' force P' = 3P/2 and c/c' force P' = 4P/3.
`MODELS` is the single statement of the six types: the values each pins on
its upper and lower orbit set, its elliptic counts, its eta values and its
fixed ratio.  Every scenario system below is derived from it.

Two consecutive transitions share a middle orbit set, and both prescribe the
grid values of its hyperbolic actions.  `compatible` builds the joint system
for the shared middle set - window inequalities for the elliptic
multiplicities, the fixed-ratio equations, order coherence inside one
approximation set, and (for the pairs decided by value matching) the
assignment of each pinned orbit to a value slot of the other transition -
and hands the scenarios to the exact engine's `decide`.  Each member symbol
carries the set tag of its view, so the engine adds the rule that opposite
sets meet only at 1 itself.  A pair is Infeasible only when every scenario
is.

The probe depth per ordered pair transcribes the source case analysis: the
24 excluded pairs are decided with the full value-matching probes, the 12
remaining pairs with the consistency skeleton only.  `chain_check` always
uses the full probes on both middle sets of a length-3 chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .feasibility import (
    COUNT,
    Inequality,
    MEMBER,
    Relation,
    RelationSystem,
    SUCCESSOR,
    Sym,
    Verdict,
    decide,
)
from .linear import CONST, LinExpr, lin, sub_expr

# -- the transition models --------------------------------------------------


@dataclass(frozen=True)
class Side:
    """What a transition pins on one of its two orbit sets, over P, P', M."""

    named: tuple[LinExpr, ...]  # pinned hyperbolic actions
    e_count: LinExpr  # the elliptic count: M on the upper set, M - P below


@dataclass(frozen=True)
class Model:
    """One transition type: the set governing the drop, what it pins on the
    upper and the lower orbit set, the two values allowed for every other
    orbit, and the fixed ratio P'/P when the type pins it."""

    tag: str
    upper: Side
    lower: Side
    etas: tuple[LinExpr, LinExpr]
    ratio: Fraction | None


def _base(upper: list[dict], lower: list[dict], etas: list[dict],
          ratio: Fraction | None) -> Model:
    return Model(
        tag="p",
        upper=Side(tuple(map(lin, upper)), lin({"M": 1})),
        lower=Side(tuple(map(lin, lower)), lin({"M": 1, "P": -1})),
        etas=tuple(map(lin, etas)),
        ratio=ratio,
    )


_BASES = {
    "a": _base(upper=[{"P'": 1, "P": -1}], lower=[{"P'": 1}],
               etas=[{"P'": Fraction(1, 2)},
                     {"P'": Fraction(1, 2), "P": Fraction(-1, 2)}],
               ratio=None),
    "b": _base(upper=[], lower=[{"P": Fraction(1, 2)}, {"P": Fraction(1, 2)}],
               etas=[{"P": Fraction(1, 2)}, {"P": Fraction(1, 4)}],
               ratio=Fraction(3, 2)),
    "c": _base(upper=[], lower=[{"P": Fraction(2, 3)}, {"P": Fraction(1, 3)}],
               etas=[{"P": Fraction(1, 2)}, {"P": Fraction(1, 6)}],
               ratio=Fraction(4, 3)),
}

# The single statement of the six transition types, in the order a, a', b,
# b', c, c'.  A primed type is its base governed by the set q with the two
# sides swapped: what the base pins on the lower set, the mirror pins on the
# upper one, elliptic count included.
MODELS: dict[str, Model] = {
    name: model
    for t, m in _BASES.items()
    for name, model in ((t, m),
                        (t + "'", replace(m, tag="q", upper=m.lower, lower=m.upper)))
}
TYPES = tuple(MODELS)

# the pair table of the source case analysis: (earlier, later) transitions
# of a shared middle set that force a contradiction
EXCLUDED_PAIRS = frozenset(
    {
        ("a'", "a"), ("b'", "a'"), ("b'", "a"), ("b'", "b"), ("b'", "b'"),
        ("b'", "c"), ("b'", "c'"), ("c'", "a"), ("c'", "a'"), ("c'", "b'"),
        ("c'", "c"), ("c'", "c'"), ("a'", "b"), ("b", "b"), ("c'", "b"),
        ("c", "b"), ("a", "c"), ("b", "c"), ("c", "c"), ("a", "a"),
        ("a'", "a'"), ("a", "b"), ("a'", "c"), ("a", "a'"),
    }
)

ALLOWED_PAIRS = tuple(
    (t1, t2)
    for t1 in TYPES
    for t2 in TYPES
    if (t1, t2) not in EXCLUDED_PAIRS
)


def mirror(t: str) -> str:
    return t[:-1] if t.endswith("'") else t + "'"


# -- the grid map -------------------------------------------------------------


def f_grid(action: Fraction, r: Fraction, eps_prime: Fraction) -> Fraction | None:
    """Nearest point of (1/12)*r*Z when within eps_prime, else None.

    eps_prime < r/24 keeps the nearest grid point unique; the midpoint of a
    grid cell is then never within tolerance, so ties are always rejected.
    """
    action, r, eps_prime = Fraction(action), Fraction(r), Fraction(eps_prime)
    if r <= 0 or eps_prime <= 0:
        raise ValueError("grid unit and tolerance must be positive")
    if eps_prime >= r / 24:
        raise ValueError("tolerance too coarse: nearest grid point not unique")
    g = r / 12
    n = (action / g).__floor__()
    best = min((n * g, (n + 1) * g), key=lambda v: abs(action - v))
    return best if abs(action - best) <= eps_prime else None


# -- joint systems over shared middle sets ------------------------------------


@dataclass
class _SideView:
    """One transition's description of a shared middle orbit set."""

    b: str
    bn: str
    m: str
    tag: str
    named: list[LinExpr]
    etas: tuple[LinExpr, LinExpr]
    e_expr: LinExpr
    ratio: Fraction | None


def _side_view(t: str, idx: int, role: str) -> _SideView:
    """MODELS[t] seen from its upper or lower set (role), with P, P' and M
    renamed to {tag}{idx}, {tag}{idx}n and M{idx}."""
    model = MODELS[t]
    side = model.upper if role == "upper" else model.lower
    b, bn, m = f"{model.tag}{idx}", f"{model.tag}{idx}n", f"M{idx}"
    names = {"P": b, "P'": bn, "M": m}

    def inst(e: LinExpr) -> LinExpr:
        return {names[k]: v for k, v in e.items()}

    return _SideView(b=b, bn=bn, m=m, tag=model.tag,
                     named=[inst(e) for e in side.named],
                     etas=tuple(inst(e) for e in model.etas),
                     e_expr=inst(side.e_count), ratio=model.ratio)


def _side_base(view: _SideView, e_sym: str) -> list:
    pieces = []
    if view.ratio is not None:
        pieces.append(Relation(lin({view.bn: 1, view.b: -view.ratio}),
                               f"{view.b}:ratio"))
    # elliptic multiplicity window: B < M < B'; all three are integers and M
    # is an elliptic count that never sits in the approximation set
    pieces += [
        Inequality(lin({view.m: 1, view.b: -1, CONST: -1}),
                   label=f"{view.m}>{view.b}"),
        Inequality(lin({view.bn: 1, view.m: -1, CONST: -1}),
                   label=f"{view.m}<{view.bn}"),
        Relation(sub_expr(lin({e_sym: 1}), view.e_expr), f"{view.b}:E-link"),
    ]
    return pieces


def _pair_rules(v1: _SideView, v2: _SideView) -> list[list]:
    """Order branches between the member symbols of two side views.

    Returns a list of branches; each branch is a flat list of relations and
    inequalities.  Same-set pairs branch on the order of the two bases with
    successor monotonicity (equal, below, above); opposite-set pairs get one
    empty branch.  The opposite-set law is not stated here: solve derives it
    from the symbols' set tags.
    """
    if v1.tag == v2.tag:
        eq = [
            Relation(lin({v1.b: 1, v2.b: -1}), "bases-equal"),
            Relation(lin({v1.bn: 1, v2.bn: -1}), "successors-equal"),
        ]
        lt = [
            Inequality(lin({v2.b: 1, v1.b: -1, CONST: -1}), label=f"{v1.b}<{v2.b}"),
            Inequality(lin({v2.b: 1, v1.bn: -1}), label=f"{v1.bn}<={v2.b}"),
        ]
        gt = [
            Inequality(lin({v1.b: 1, v2.b: -1, CONST: -1}), label=f"{v2.b}<{v1.b}"),
            Inequality(lin({v1.b: 1, v2.bn: -1}), label=f"{v2.bn}<={v1.b}"),
        ]
        return [eq, lt, gt]
    return [[]]


def _matching_branches(v1: _SideView, v2: _SideView) -> list[list[Relation]]:
    """Assign every pinned orbit of each view a value slot of the other.

    A pinned orbit of one transition is either one of the other transition's
    pinned orbits (values equal) or one of its eta slots.  At least one orbit
    of the middle set is pinned by neither side (it has more than four
    hyperbolic orbits), so some eta value of view 1 must also be an eta value
    of view 2.
    """
    n1, n2 = v1.named, v2.named
    branches = []
    idx2 = range(len(n2))
    common = [Relation(sub_expr(o1, o2), "eta-common")
              for o1 in v1.etas for o2 in v2.etas]
    for k in range(0, min(len(n1), len(n2)) + 1):
        for chosen1 in itertools.combinations(range(len(n1)), k):
            for chosen2 in itertools.permutations(idx2, k):
                matched = [
                    Relation(sub_expr(n1[i], n2[j]), f"match {i}-{j}")
                    for i, j in zip(chosen1, chosen2)
                ]
                # an unmatched pinned orbit must occupy an eta slot of the
                # other transition
                eta_opts = [
                    [Relation(sub_expr(n1[i], eta), f"named1[{i}]-eta")
                     for eta in v2.etas]
                    for i in range(len(n1)) if i not in chosen1
                ] + [
                    [Relation(sub_expr(n2[j], eta), f"named2[{j}]-eta")
                     for eta in v1.etas]
                    for j in idx2 if j not in chosen2
                ]
                for combo in itertools.product(*eta_opts, common):
                    branches.append(matched + list(combo))
    return branches


def _assemble(symbols: dict, pieces: list, label: str) -> RelationSystem:
    """One system from a flat list of pieces, keeping their order per type."""
    return RelationSystem(
        symbols=dict(symbols),
        relations=[p for p in pieces if isinstance(p, Relation)],
        inequalities=[p for p in pieces if isinstance(p, Inequality)],
        label=label,
    )


def _middle_symbols(views: list[_SideView], e_syms: list[str]) -> dict:
    symbols: dict[str, Sym] = {}
    for v in views:
        symbols[v.b] = Sym(v.b, MEMBER, set_tag=v.tag)
        symbols[v.bn] = Sym(v.bn, SUCCESSOR, base=v.b)
        symbols[v.m] = Sym(v.m, COUNT)
    for e in e_syms:
        symbols[e] = Sym(e, COUNT)
    return symbols


def _e_floor(e_sym: str) -> Inequality:
    # every good elliptic count exceeds the first nontrivial denominators
    return Inequality(lin({e_sym: 1, CONST: -3}), label=f"{e_sym}>=3")


def joint_scenarios(t1: str, t2: str, full: bool) -> list[RelationSystem]:
    """Scenario systems for a shared middle set of transitions (t1, t2)."""
    v1 = _side_view(t1, 1, "upper")
    v2 = _side_view(t2, 2, "lower")
    symbols = _middle_symbols([v1, v2], ["Ek"])
    base = _side_base(v1, "Ek") + [_e_floor("Ek")] + _side_base(v2, "Ek")
    match_branches = _matching_branches(v1, v2) if full else [[]]
    return [
        _assemble(symbols, base + pb + mb, f"({t1},{t2})#{i}.{j}")
        for i, pb in enumerate(_pair_rules(v1, v2))
        for j, mb in enumerate(match_branches)
    ]


def compatible(t1: str, t2: str, full: bool | None = None) -> Verdict:
    """Joint verdict for consecutive transitions of types (t1, t2).

    With full=None the probe depth follows the transcription: full value
    matching on the pairs the source analysis excludes, the consistency
    skeleton on the rest.
    """
    if t1 not in TYPES or t2 not in TYPES:
        raise ValueError("unknown transition type")
    if full is None:
        full = (t1, t2) in EXCLUDED_PAIRS
    return decide(joint_scenarios(t1, t2, full))


@dataclass
class PairReport:
    verdicts: dict[tuple[str, str], Verdict]

    @property
    def allowed(self) -> list[tuple[str, str]]:
        return [p for p, v in sorted(self.verdicts.items()) if v.feasible]

    @property
    def excluded(self) -> list[tuple[str, str]]:
        return [p for p, v in sorted(self.verdicts.items()) if not v.feasible]

    @property
    def deviations(self) -> list[tuple[str, str]]:
        """Pairs whose computed verdict differs from the transcribed table."""
        out = []
        for p, v in sorted(self.verdicts.items()):
            if v.feasible != (p not in EXCLUDED_PAIRS):
                out.append(p)
        return out

    def mirror_symmetric(self) -> bool:
        return all(
            self.verdicts[(t1, t2)].feasible
            == self.verdicts[(mirror(t2), mirror(t1))].feasible
            for t1 in TYPES
            for t2 in TYPES
        )

    @property
    def ok(self) -> bool:
        """The computed table matches the transcribed one and its mirror."""
        return not self.deviations and self.mirror_symmetric()


def pair_report() -> PairReport:
    return PairReport(
        {(t1, t2): compatible(t1, t2) for t1 in TYPES for t2 in TYPES}
    )


# -- chains of length three ----------------------------------------------------


def _labelled(branches: list[list], v: _SideView, w: _SideView) -> list[list]:
    """The branches with each relation's label prefixed by the members of the
    two views it relates, so that the branches taken for different view
    pairs of one chain system never share a relation label."""
    prefix = f"{v.b}/{w.b} "
    return [[replace(p, label=prefix + p.label) if isinstance(p, Relation) else p
             for p in branch] for branch in branches]


def _joint_chain_scenarios(t1: str, t2: str, t3: str) -> list[RelationSystem]:
    """Full joint systems over both middle sets of a chain t1 -> t2 -> t3."""
    v1 = _side_view(t1, 1, "upper")
    v2_low = _side_view(t2, 2, "lower")
    v2_up = _side_view(t2, 2, "upper")
    v3 = _side_view(t3, 3, "lower")
    symbols = _middle_symbols([v1, v2_low, v3], ["Ek", "Ek1"])
    # t2 seen from above: same member window, second elliptic count
    up = [Relation(sub_expr(lin({"Ek1": 1}), v2_up.e_expr), f"{v2_up.b}:E-link-up"),
          _e_floor("Ek"), _e_floor("Ek1")]
    base = (_side_base(v1, "Ek") + _side_base(v2_low, "Ek")
            + _side_base(v3, "Ek1") + up)
    branch_dims = [
        _labelled(_pair_rules(v1, v2_low), v1, v2_low),
        _labelled(_pair_rules(v2_low, v3), v2_low, v3),
        _labelled(_pair_rules(v1, v3), v1, v3),
        _labelled(_matching_branches(v1, v2_low), v1, v2_low),
        _labelled(_matching_branches(v2_up, v3), v2_up, v3),
    ]
    return [
        _assemble(symbols, base + [p for part in parts for p in part],
                  f"({t1},{t2},{t3})#{i}")
        for i, parts in enumerate(itertools.product(*branch_dims))
    ]


@dataclass
class ChainRow:
    triple: tuple[str, str, str]
    verdict: Verdict
    decided_by: str  # "middle1" | "middle2" | "joint"


@dataclass
class ChainReport:
    rows: list[ChainRow]
    allowed_pairs: list[tuple[str, str]]

    @property
    def triples(self) -> list[tuple[str, str, str]]:
        return [r.triple for r in self.rows]

    @property
    def feasible_triples(self) -> list[ChainRow]:
        return [r for r in self.rows if r.verdict.feasible]


def chain_check(allowed: list[tuple[str, str]]) -> ChainReport:
    """Probe every chain of two engine-allowed pairs at full depth.

    `allowed` is the allowed list of a pair report.  Each middle set is
    probed once, however many triples share it.  A feasible triple is
    reported verbatim (it would mean the encoded constraints are too coarse
    to forbid a third consecutive step), never suppressed.
    """
    starts = {}
    for a, b in allowed:
        starts.setdefault(a, []).append(b)
    probes: dict[tuple[str, str], Verdict] = {}

    def probe(a: str, b: str) -> Verdict:
        if (a, b) not in probes:
            probes[a, b] = compatible(a, b, full=True)
        return probes[a, b]

    rows = []
    for (t1, t2) in allowed:
        for t3 in starts.get(t2, ()):
            m1 = probe(t1, t2)
            if not m1.feasible:
                verdict, decided = m1, "middle1"
            elif not (m2 := probe(t2, t3)).feasible:
                verdict, decided = m2, "middle2"
            else:
                verdict = decide(_joint_chain_scenarios(t1, t2, t3))
                decided = "joint"
            rows.append(ChainRow((t1, t2, t3), verdict, decided))
    return ChainReport(rows, allowed)
