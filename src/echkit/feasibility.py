"""Exact decision engine for systems of approximate linear relations.

Every input relation states |expression| < eps.  All target quantities are
separated points of a discrete grid (integer multiples of a fixed action
unit, or small fractions of them), so for every sufficiently small eps > 0
the relation forces the exact equation expression = 0.  The engine therefore
eliminates exactly over the rationals and then checks the side constraints
that follow from each symbol's kind:

  * an action is strictly positive and a count is an integer >= 1;
  * an s_member P is an integer >= 2, and its successor P' an integer
    >= P + 1;
  * the opposite-set law: S(theta) and S(-theta) meet only at 1, and the
    successor gaps of each set lie in the other.

The law is read off Sym.set_tag and Sym.base.  A successor belongs to its
base member's set and the gap P' - P to the opposite one, so every two
quantities in opposite sets differ unless both are 1: a member and its own
gap (rule "gap_equals_member"), and across two members their bases and
successors, or their two gaps when the members sit in opposite sets (rule
"cross_set").  Members and successors exceed 1, so of these only the gap-gap
fact keeps the escape "both are 1".  A fact the relations force fires only
when the side constraints leave no room for its escape; otherwise the
escape's equations join the Fourier-Motzkin stage, and the sampler tries the
escape beside the two strict sides of the fact.

An Infeasible verdict carries a certificate: the forced equation, the exact
combination of input relations that produces it (so it can be replayed), and
the tolerance multiple sum |c| over that combination, from which an explicit
eps threshold can be recovered.  The certificate is built when it is first
read.  A Feasible verdict expresses every symbol over the free ones and lists
integrality notes such as "3P/2 integral".  `decide` settles a disjunction
of systems (the scenarios of a transition pair or chain, the disjuncts of a
fixture case), which is infeasible only when every system is.  Its systems
share the elimination of common relation prefixes, and the rule stage (the
facts, the zero and sign checks, Fourier-Motzkin and the sample) runs once
per distinct system after elimination: its outcome is a function of the
symbols, the pivot rows, which form the unique reduced row echelon form of
the row space under the fixed elimination order, and the inequalities.

Elimination runs on the integer rows of linear.Eliminator (numerators over
one positive denominator per row).  The zero checks behind the rules are
decided on those rows, and the Fourier-Motzkin step reads their numerators,
a positive multiple of each reduced inequality.  Fractions are formed only
for certificates, for a Feasible verdict's solution and in its sample.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .linear import (
    CONST,
    Eliminator,
    Inequality,
    LinExpr,
    Row,
    _eval,
    expr_str,
    fm_solve,
    lin,
    sub_expr,
)

ACTION = "action"
MEMBER = "s_member"
SUCCESSOR = "s_successor"
COUNT = "count"

_KIND_RANK = {ACTION: 0, COUNT: 1, SUCCESSOR: 2, MEMBER: 3}


@dataclass(frozen=True)
class Sym:
    name: str
    kind: str  # ACTION | MEMBER | SUCCESSOR | COUNT
    set_tag: str | None = None  # "p" / "q": a member's approximation set
    base: str | None = None  # for SUCCESSOR: the member it follows

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == SUCCESSOR and not self.base:
            raise ValueError("successor symbol needs a base member")

    @property
    def integer(self) -> bool:
        """Members, successors and counts are integers; actions are not."""
        return self.kind != ACTION


@dataclass(frozen=True)
class Relation:
    """|coeffs . syms| < eps, read as an exact equation."""

    coeffs: LinExpr
    label: str

    def __post_init__(self):
        # a zero term must never reach the eliminator, which could pick it
        # as a pivot; copy only when there is one to drop
        if not all(self.coeffs.values()):
            object.__setattr__(
                self, "coeffs", {k: v for k, v in self.coeffs.items() if v})
        if not self.coeffs:
            raise ValueError("relation needs at least one nonzero coefficient")


@dataclass
class RelationSystem:
    symbols: dict[str, Sym]
    relations: list[Relation]
    inequalities: list[Inequality] = field(default_factory=list)
    label: str = ""

    def validate(self):
        """Raise ValueError naming the first item at fault: a successor whose
        base is not a declared member, a relation or inequality over an
        undeclared symbol, or a repeated relation label."""
        for s in self.symbols.values():
            if s.kind == SUCCESSOR and (s.base not in self.symbols
                                        or self.symbols[s.base].kind != MEMBER):
                raise ValueError(f"successor {s.name} has base {s.base}, "
                                 f"which is not a declared {MEMBER}")
        known = set(self.symbols) | {CONST}
        for kind, items in (("relation", self.relations),
                            ("inequality", self.inequalities)):
            for item in items:
                if not known.issuperset(item.coeffs):
                    raise ValueError(f"{kind} {item.label or expr_str(item.coeffs)}"
                                     f" uses unknown symbols "
                                     f"{sorted(set(item.coeffs) - known)}")
        labels = set()
        for r in self.relations:
            # a certificate's combination is keyed by label
            if r.label in labels:
                raise ValueError(f"relation label {r.label} is repeated")
            labels.add(r.label)


@dataclass
class Certificate:
    """A forced equation violating a side constraint.

    `equation` lies in the row space of the input relations; `combo` is the
    rational combination that produces it, and `eps_bound` the matching
    tolerance multiple sum |c| (the derived |equation| < eps_bound * eps).
    """

    rule: str
    equation: LinExpr
    combo: dict
    eps_bound: Fraction | None
    human: str


class Infeasible:
    """A verdict of infeasibility by `rule`.

    Its certificate is built when first read, by the zero-argument `certify`:
    `decide`, which only ranks verdicts by rule, never pays for the
    certificate of a verdict it discards.
    """

    feasible = False

    def __init__(self, rule: str, certify: Callable[[], Certificate]):
        self.rule = rule
        self._certify = certify

    @cached_property
    def certificate(self) -> Certificate:
        return self._certify()

    def __str__(self):
        return f"Infeasible[{self.rule}: {self.certificate.human}]"


@dataclass
class Feasible:
    solution: dict[str, LinExpr]  # pivoted symbol -> expression over free ones
    free: list[str]
    notes: list[str]
    sample: dict | None = None
    feasible: bool = True

    def __str__(self):
        parts = ", ".join(
            f"{s}={expr_str(e)}" for s, e in sorted(self.solution.items())
        )
        return f"Feasible[{parts}]"


Verdict = Infeasible | Feasible

# which rule decides: within one solve (ties go to the earlier check), and
# across the systems of one `decide`.  solve returns contradictory_equations
# before it ranks anything, so its place matters only across systems: bare
# arithmetic collapses rank last.  Each zero rule sits directly above its
# nonpositive rule, which `_rule_stage` relies on.
_RULE_PRIORITY = [
    "cross_set",
    "member_zero",
    "member_nonpositive",
    "action_zero",
    "action_nonpositive",
    "count_zero",
    "count_nonpositive",
    "gap_equals_member",
    "successor_equal",
    "successor_not_greater",
    "incompatible_inequalities",
    "forced_disequality",
    "contradictory_equations",
]


_RULE_RANK = {rule: i for i, rule in enumerate(_RULE_PRIORITY)}


def rule_rank(rule: str) -> int:
    return _RULE_RANK.get(rule, len(_RULE_PRIORITY))


def _elimination_order(symbols: dict[str, Sym]) -> list[str]:
    return sorted(symbols, key=lambda n: (_KIND_RANK[symbols[n].kind], n))


def _auto_inequalities(system: RelationSystem) -> list[Inequality]:
    """The side constraint of each symbol's kind, then the system's own."""
    out = []
    for name, s in system.symbols.items():
        if s.kind == ACTION:
            out.append(Inequality(lin({name: 1}), strict=True, label=f"{name}>0"))
        elif s.kind == MEMBER:
            out.append(Inequality(lin({name: 1, CONST: -2}), label=f"{name}>=2"))
        elif s.kind == SUCCESSOR:
            out.append(Inequality(lin({name: 1, s.base: -1, CONST: -1}),
                                  label=f"{name}>={s.base}+1"))
        else:  # COUNT
            out.append(Inequality(lin({name: 1, CONST: -1}), label=f"{name}>=1"))
    out.extend(system.inequalities)
    return out


def _facts(system: RelationSystem) -> list[tuple]:
    """The opposite-set law as (coeffs, rule, escape) in order: per pair of
    members in symbol order, then each member against its own gap.

    A fact is x - y != 0 for quantities x, y in opposite sets.  Members and
    successors exceed 1, so only two gaps can both be 1: the gap-gap fact's
    escape is (x - 1, y - 1), both zero, and every other fact's is None."""
    succ = {s.base: n for n, s in system.symbols.items() if s.kind == SUCCESSOR}
    # per member: its set tag, then the member, its successor and its gap,
    # the last two None without a successor
    members = []
    for name, s in system.symbols.items():
        if s.kind == MEMBER:
            n = succ.get(name)
            members.append((s.set_tag, {name: 1},
                            n and {n: 1}, n and {n: 1, name: -1}))
    out = []
    for (tag1, b1, n1, g1), (tag2, b2, n2, g2) in itertools.combinations(members, 2):
        if tag1 is None or tag2 is None:
            continue
        if tag1 == tag2:
            pairs = [(g1, b2), (g1, n2), (g2, b1), (g2, n1)]
        else:
            pairs = [(b1, b2), (b1, n2), (n1, b2), (n1, n2)]
        out += [(sub_expr(x, y), "cross_set", None) for x, y in pairs if x and y]
        if tag1 != tag2 and g1 and g2:
            out.append((sub_expr(g1, g2), "cross_set",
                        ({**g1, CONST: -1}, {**g2, CONST: -1})))
    out += [(sub_expr(g, b), "gap_equals_member", None)
            for _, b, _, g in members if g]
    return out


def _member_facts(system: RelationSystem, elim: Eliminator) -> list[Inequality]:
    """Order facts on members/successors only, reduced by the pivots: the
    strict member > 1 and successor > member, not the kinds' side constraints.
    A successor forced onto its member would reduce successor >= member + 1
    to the violated -1 >= 0 and fire every nonpositive check vacuously, above
    successor_equal; successor > member reduces to nothing and is dropped."""
    facts = []
    for name, s in system.symbols.items():
        if s.kind == MEMBER:
            facts.append(Inequality(elim.reduce({name: 1, CONST: -1}).num,
                                    strict=True))
        elif s.kind == SUCCESSOR:
            facts.append(Inequality(elim.reduce({name: 1, s.base: -1}).num,
                                    strict=True))
    return [f for f in facts if f.coeffs]


def _forced_nonpositive(system, facts: Callable[[], list[Inequality]],
                        reduced: Row) -> bool:
    """True when the reduced expression > 0 is impossible given member order
    facts alone.

    `facts` returns those facts; it is called only when they are read."""
    kinds = {system.symbols[s].kind for s in reduced.num if s != CONST}
    if kinds & {ACTION, COUNT}:
        return False  # a free action/count leaves the sign undetermined
    ineqs = facts() + [Inequality(reduced.num, strict=True)]
    variables = sorted({s for iq in ineqs for s in iq.coeffs if s != CONST})
    return not fm_solve(ineqs, variables).feasible


def _eliminate(relations: list[Relation], root: tuple) -> Eliminator:
    """The eliminator of `root` after adding `relations` in turn.

    `root` is the root of a trie of the relation prefixes eliminated so far.
    A node is a triple (eliminator, children, relation) whose children are
    keyed by the identity of the next relation.  A prefix already in the trie
    is not eliminated again; a new one copies its parent's eliminator and
    adds one relation.  The walk stops at the first inconsistent prefix,
    because later adds never change `inconsistent` and a caller reads nothing
    else then.  Each node holds its relation, so an identity key cannot be
    reused while the trie lives.
    """
    node = root
    for r in relations:
        elim, children, _ = node
        if elim.inconsistent is not None:
            break
        node = children.get(id(r))
        if node is None:
            elim = elim.copy()
            elim.add(r.coeffs, r.label)
            node = children[id(r)] = (elim, {}, r)
    return node[0]


# the rules decided on the feasible region by Fourier-Motzkin; their
# certificates name the region's constraint, not a combination of relations
_REGION_RULES = ("incompatible_inequalities", "forced_disequality")

# the zero rule and the nonpositive rule of each symbol kind
_SIGN_RULES = {
    ACTION: ("action_zero", "action_nonpositive"),
    MEMBER: ("member_zero", "member_nonpositive"),
    SUCCESSOR: ("member_zero", "member_nonpositive"),
    COUNT: ("count_zero", "count_nonpositive"),
}
# and of a successor's gap to its member
_GAP_RULES = ("successor_equal", "successor_not_greater")


def _eps_bound(combo: dict) -> Fraction:
    """Sum of |c| over the combination: each relation holds up to eps, so the
    derived equation holds up to that multiple of eps."""
    return sum((abs(c) for c in combo.values()), Fraction(0))


def _escape_inequalities(elim: Eliminator, escape: tuple) -> list[Inequality]:
    """The escape's equations e = 0, reduced, each as e >= 0 and -e >= 0."""
    out = []
    for e in escape:
        num = elim.reduce(e).num
        out += [Inequality(num), Inequality({k: -v for k, v in num.items()})]
    return out


def _certificate(rule: str, expr: LinExpr, human: Callable[[], str],
                 elim: Eliminator) -> Certificate:
    """The certificate of a side-constraint rule fired on expr: the part of
    expr that the relations force, with its combination and eps bound, and
    the text that human() builds."""
    row = elim.reduce_row(Row(expr))
    combo = {k: Fraction(-v, row.den) for k, v in row.combo_num.items()}
    equation = sub_expr({k: Fraction(v) for k, v in expr.items()}, row.expr)
    return Certificate(rule, equation, combo, _eps_bound(combo), human())


def _reduced_key(system: RelationSystem, elim: Eliminator) -> tuple:
    """The system after elimination, as the memo key of `solve`: its symbol
    names and symbols, its pivot rows, and its inequalities.

    The pivot rows are a reduced row echelon form under the system's fixed
    elimination order, which is unique, so two systems whose relations span
    one row space get equal rows, compared as rationals (`Row.expr_key`),
    whatever their labels and order.  Their key order can differ, but no
    outcome of `_rule_stage` reads it: a Fourier-Motzkin contradiction is a
    constant row.  Symbols and inequalities are keyed by identity, as the
    scenarios of one disjunction share them; `solve` keeps them alive beside
    each memo entry, so an identity cannot be reused."""
    return (tuple(system.symbols), tuple(map(id, system.symbols.values())),
            tuple(elim.pivots[p].expr_key() for p in elim.order if p in elim.pivots),
            tuple(map(id, system.inequalities)))


def solve(system: RelationSystem, shared: dict | None = None) -> Verdict:
    """Decide the eps->0 limit of the system exactly.

    The side-constraint checks run in `_RULE_PRIORITY` order (ties go to the
    earlier check), and the verdict is the first rule that fires.  Zero
    checks are decided on the eliminator's integer rows.  The certificate, with
    its combination and eps bound, is built when the verdict's `certificate`
    is first read, from the eliminator as it was when the system was solved.

    Systems solved with one `shared` dict share work.  It maps an elimination
    order to the root of a trie of the relation prefixes eliminated so far
    (see `_eliminate`), so a common prefix is eliminated once, and to a memo
    of what `_rule_stage` decided, keyed by the system after elimination
    (see `_reduced_key`).  A system whose key is in the memo skips the rule
    stage; its verdict's certificate, solution and notes are still built from
    its own eliminator, so its combination names its own labels.  The
    relations of the systems must not be mutated while the dict is in use.
    Without it the system is solved alone.
    """
    system.validate()
    order = _elimination_order(system.symbols)
    if shared is None:
        shared = {}
    state = shared.get(order_key := tuple(order))
    if state is None:
        state = shared[order_key] = ((Eliminator(order), {}, None), {})
    root, memo = state
    elim = _eliminate(system.relations, root)

    if elim.inconsistent is not None:
        row = elim.inconsistent
        return Infeasible("contradictory_equations", lambda: Certificate(
            "contradictory_equations", row.expr, row.combo, _eps_bound(row.combo),
            f"relations force {expr_str(row.expr)} = 0"))

    key = _reduced_key(system, elim)
    entry = memo.get(key)
    if entry is None:
        held = (tuple(system.symbols.values()), tuple(system.inequalities))
        entry = memo[key] = (_rule_stage(system, order, elim), held)
    rule, value, human = entry[0]  # value: the fired expression or the sample
    if rule is None:
        solution = {s: elim.solution_expr(s) for s in order if s in elim.pivots}
        return Feasible(
            solution=solution,
            free=[s for s in order if s not in elim.pivots],
            notes=_integrality_notes(system, solution),
            sample=dict(value),
        )
    if rule in _REGION_RULES:
        return Infeasible(rule, lambda: Certificate(
            rule, {k: Fraction(v) for k, v in value.items()}, {}, None, human()))
    return Infeasible(rule, lambda: _certificate(rule, value, human, elim))


def _rule_stage(system: RelationSystem, order: list[str],
                elim: Eliminator) -> tuple:
    """What `solve` decides after a consistent elimination, as a function of
    `_reduced_key` alone: (rule, fired expression, text builder) of an
    Infeasible verdict, or (None, sample, None) of a Feasible one.

    The checks, listed as `_facts` gives the facts and then per symbol in
    elimination order (its sign checks, then a successor's gap checks), run
    in `rule_rank` order, ties in listed order, and the first that fires
    decides.  Each zero rule ranks directly above its nonpositive rule, so a
    nonpositive check runs after its zero check failed, on that check's
    reduced row.  `_facts` lists its rules in rank order, so the unforced
    facts and open escapes are gathered in its order."""
    variables = [s for s in order if s not in elim.pivots]
    facts = []  # (coeffs, rule, reduced coeffs, escape inequalities), unforced
    escapes = []  # the escape inequalities of forced facts, for the FM stage
    side = None  # the reduced side constraints, built on first use
    order_facts = None  # the member order facts, built on first use
    rows = {}  # id of a sign-checked expression -> its reduced row

    def side_constraints() -> list[Inequality]:
        nonlocal side
        if side is None:
            side = [Inequality(elim.reduce(iq.coeffs).num, iq.strict, iq.label)
                    for iq in _auto_inequalities(system)]
        return side

    def member_facts() -> list[Inequality]:
        nonlocal order_facts
        if order_facts is None:
            order_facts = _member_facts(system, elim)
        return order_facts

    # each check returns the text builder of its rule when the rule fires
    def fact(coeffs, rule, escape):
        num = elim.reduce(coeffs).num
        ones = escape and _escape_inequalities(elim, escape)
        if num:
            facts.append((coeffs, rule, num, ones))
        elif ones and fm_solve(side_constraints() + ones, variables).feasible:
            escapes.extend(ones)
        else:
            return lambda: f"relations force {expr_str(coeffs)} = 0"

    def zero(expr, human):
        reduced = rows[id(expr)] = elim.reduce(expr)
        if not reduced.num:
            return lambda: human

    def nonpositive(expr, name):
        reduced = rows[id(expr)]
        if _forced_nonpositive(system, member_facts, reduced):
            return lambda: f"{name} = {expr_str(reduced.expr)} cannot be positive"

    checks = [(rule, coeffs, partial(fact, coeffs, rule, escape))
              for coeffs, rule, escape in _facts(system)]
    for name in order:
        s = system.symbols[name]
        signed = [({name: 1}, _SIGN_RULES[s.kind], f"{name} is forced to vanish",
                   name)]
        if s.kind == SUCCESSOR:
            signed.append(({name: 1, s.base: -1}, _GAP_RULES,
                           f"{name} = {s.base} is forced", f"{name} - {s.base}"))
        for expr, (zero_rule, nonpos_rule), human, label in signed:
            checks += [(zero_rule, expr, partial(zero, expr, human)),
                       (nonpos_rule, expr, partial(nonpositive, expr, label))]
    checks.sort(key=lambda c: rule_rank(c[0]))
    for rule, expr, check in checks:
        human = check()
        if human is not None:
            return rule, expr, human

    ineqs = side_constraints() + escapes
    res = fm_solve(ineqs, variables)
    if not res.feasible:
        c = res.contradiction
        human = "side constraints admit no solution"
        if c.label:
            human += f" (from {c.label})"
        return "incompatible_inequalities", c.coeffs, lambda: human

    sample = res.sample
    if any(_eval(num, sample) == 0 for _, _, num, _ in facts):
        sample = _avoid_disequalities(
            ineqs, variables, [(num, ones) for _, _, num, ones in facts])
        if sample is None:
            # the region is covered by the facts' hyperplanes, and a convex
            # region covered by finitely many lies in one of them: name the
            # first fact that leaves neither strict side feasible
            coeffs, rule = next(
                (c, r) for c, r, num, _ in facts
                if _eval(num, res.sample) == 0 and not any(
                    fm_solve(ineqs + [Inequality(side, strict=True)],
                             variables).feasible
                    for side in (num, {k: -v for k, v in num.items()})))
            return "forced_disequality", coeffs, lambda: (
                f"{expr_str(coeffs)} = 0 on the whole feasible region "
                f"(rule {rule})")
    return None, sample, None


def decide(systems: list[RelationSystem]) -> Verdict:
    """The verdict of a disjunction, which is infeasible only when every
    system is: the first Feasible verdict, else the Infeasible one whose rule
    ranks first (ties go to the earlier system).

    The systems are solved through one shared dict (see `solve`), so relation
    objects they share, such as a common base, are eliminated once, and the
    rule stage runs once per distinct system after elimination.  The verdict
    returned is never one whose rule stage was skipped: a skipped system
    repeats the outcome of an earlier one, so it is not the first Feasible
    system and it loses a tie of rank to that earlier one."""
    shared: dict = {}
    infeasible = []
    for system in systems:
        v = solve(system, shared)
        if v.feasible:
            return v
        infeasible.append(v)
    return min(infeasible, key=lambda v: rule_rank(v.rule))


def _avoid_disequalities(ineqs, variables, facts):
    """Sample point satisfying the inequalities and avoiding every hyperplane
    of `facts`, pairs (expr, escape): a violated fact branches into its two
    strict sides and, when it has an escape, the region where the escape's
    inequalities hold (its equations as pairs).

    A strict side rules its hyperplane out for the rest of the path, and the
    escape branch drops its fact, so the depth is at most the number of facts
    and needs no cap."""
    res = fm_solve(ineqs, variables)
    if not res.feasible:
        return None
    sample = res.sample
    for i, (e, escape) in enumerate(facts):
        if _eval(e, sample) == 0:
            branches = [(ineqs + [Inequality(side, strict=True)], facts)
                        for side in (e, {k: -v for k, v in e.items()})]
            if escape:
                branches.append((ineqs + escape, facts[:i] + facts[i + 1:]))
            for branched, rest in branches:
                out = _avoid_disequalities(branched, variables, rest)
                if out is not None:
                    return out
            return None
    return sample


def _integrality_notes(system: RelationSystem, solution: dict) -> list[str]:
    """Integer symbols equal to fractional multiples of integer symbols
    impose divisibility."""
    notes = []
    for name in sorted(solution):
        if not system.symbols[name].integer:
            continue
        e = solution[name]
        if len(e) != 1:
            continue
        (dep, coeff), = e.items()
        if dep == CONST:
            continue
        if system.symbols[dep].integer and coeff.denominator > 1:
            notes.append(
                f"{name} = {coeff}*{dep} is integral, so "
                f"{coeff.denominator} divides {dep}"
            )
    return notes
