"""Properties of the elimination kernel on random small relation systems."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from echkit.feasibility import Infeasible, Relation, RelationSystem, Sym, solve
from echkit.linear import (
    CONST,
    Eliminator,
    Inequality,
    Row,
    _eval,
    fm_solve,
    sub_expr,
)
from oracles import scale_expr

SYMS = ["a", "b", "c", "d", "e"]
LABELS = [f"r{i}" for i in range(6)]

coeff = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)
exprs = st.dictionaries(st.sampled_from(SYMS + [CONST]), coeff,
                        min_size=1, max_size=4)
combos = st.dictionaries(st.sampled_from(LABELS), coeff, max_size=3)
rows = st.builds(Row, exprs, combos)
systems = st.lists(exprs, min_size=1, max_size=6)


def _sub_fraction(target: dict, src: dict, c: Fraction) -> None:
    """target -= c*src over Fractions; cancelled keys are dropped, new keys
    appended."""
    for k, v in src.items():
        s = target.get(k, Fraction(0)) - v * c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def reduce_by_rescan(elim: Eliminator, row: Row) -> tuple[dict, dict]:
    """Reference reduction over Fractions, (expr, combo): restart the scan
    after every subtraction."""
    expr, combo = row.expr, row.combo
    changed = True
    while changed:
        changed = False
        for sym in list(expr):
            if sym in elim.pivots:
                prow, c = elim.pivots[sym], expr[sym]
                _sub_fraction(expr, prow.expr, c)
                _sub_fraction(combo, prow.combo, c)
                changed = True
                break
    return expr, combo


def eliminate(exs) -> list[Eliminator]:
    """The eliminator after each add, one snapshot per step."""
    elim = Eliminator(SYMS)
    snapshots = []
    for i, e in enumerate(exs):
        elim.add(e, LABELS[i])
        snap = Eliminator(SYMS)
        snap.pivots = dict(elim.pivots)
        snapshots.append(snap)
    return snapshots


@settings(max_examples=200, deadline=None)
@given(systems)
def test_pivot_rows_stay_in_rref(exs):
    for elim in eliminate(exs):
        for p, row in elim.pivots.items():
            assert row.expr[p] == 1
            assert not (set(row.expr) & set(elim.pivots)) - {p}


@settings(max_examples=200, deadline=None)
@given(systems, rows)
def test_single_pass_reduction_matches_rescan(exs, row):
    elim = eliminate(exs)[-1]
    got = elim.reduce_row(row)
    want_expr, want_combo = reduce_by_rescan(elim, row)
    assert list(got.expr.items()) == list(want_expr.items())
    assert list(got.combo.items()) == list(want_combo.items())
    assert not set(got.expr) & set(elim.pivots)


def state(elim: Eliminator):
    """Pivot rows and the inconsistent row, key order included."""
    rows = {p: (list(r.expr.items()), list(r.combo.items()))
            for p, r in elim.pivots.items()}
    bad = elim.inconsistent
    return rows, None if bad is None else (list(bad.expr.items()),
                                           list(bad.combo.items()))


def add_all(elim: Eliminator, exs, tag: str) -> Eliminator:
    for i, e in enumerate(exs):
        elim.add(e, f"{tag}{i}")
    return elim


@settings(max_examples=200, deadline=None)
@given(systems, systems)
def test_copy_adds_independently(prefix, suffix):
    elim = add_all(Eliminator(SYMS), prefix, "p")
    before = state(elim)
    fork = add_all(elim.copy(), suffix, "s")
    assert state(elim) == before
    whole = add_all(add_all(Eliminator(SYMS), prefix, "p"), suffix, "s")
    assert state(fork) == state(whole)


ENGINE_SYMS = {
    "P": Sym("P", "s_member"),
    "Pn": Sym("Pn", "s_successor", base="P"),
    "D1": Sym("D1", "action"),
    "D2": Sym("D2", "action"),
    "k": Sym("k", "count"),
}
engine_exprs = st.dictionaries(st.sampled_from(list(ENGINE_SYMS) + [CONST]),
                               coeff, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(engine_exprs, min_size=1, max_size=5))
def test_infeasible_certificates_replay(rels):
    relations = [Relation(e, LABELS[i]) for i, e in enumerate(rels)]
    v = solve(RelationSystem(dict(ENGINE_SYMS), relations))
    if not isinstance(v, Infeasible) or not v.certificate.combo:
        return
    cert = v.certificate
    by_label = {r.label: r for r in relations}
    total: dict = {}
    for label, c in cert.combo.items():
        total = sub_expr(total, scale_expr(by_label[label].coeffs, -c))
    assert total == cert.equation
    # each relation holds up to eps
    assert cert.eps_bound == sum(map(abs, cert.combo.values()), Fraction(0))


# -- integer rows against a plain-Fraction reference ------------------------


class FractionEliminator:
    """Reference reduced row echelon form whose rows are (expr, combo) pairs
    of Fraction dicts, with the pivot choice and key handling that
    `Eliminator` documents."""

    def __init__(self, order):
        self.rank = {s: i for i, s in enumerate(order)}
        self.pivots: dict = {}
        self.inconsistent = None

    def copy(self):
        out = FractionEliminator([])
        out.rank, out.pivots = self.rank, dict(self.pivots)
        out.inconsistent = self.inconsistent
        return out

    def reduce_row(self, expr: dict, combo: dict):
        expr, combo = dict(expr), dict(combo)
        for sym in [s for s in expr if s in self.pivots]:
            pexpr, pcombo = self.pivots[sym]
            c = expr[sym]
            _sub_fraction(expr, pexpr, c)
            _sub_fraction(combo, pcombo, c)
        return expr, combo

    def add(self, expr: dict, label: str):
        expr, combo = self.reduce_row(expr, {label: Fraction(1)})
        syms = [s for s in expr if s != CONST]
        if not syms:
            if expr and self.inconsistent is None:
                self.inconsistent = (expr, combo)
            return
        pivot = min(syms, key=lambda s: self.rank.get(s, len(self.rank)))
        scale = 1 / expr[pivot]
        expr = {k: v * scale for k, v in expr.items()}
        combo = {k: v * scale for k, v in combo.items()}
        for p, (pexpr, pcombo) in list(self.pivots.items()):
            if pivot in pexpr:
                c = pexpr[pivot]
                pexpr, pcombo = dict(pexpr), dict(pcombo)
                _sub_fraction(pexpr, expr, c)
                _sub_fraction(pcombo, combo, c)
                self.pivots[p] = (pexpr, pcombo)
        self.pivots[pivot] = (expr, combo)


def _items(expr: dict, combo: dict):
    return list(expr.items()), list(combo.items())


def reference_state(ref: FractionEliminator):
    rows = {p: _items(*r) for p, r in ref.pivots.items()}
    bad = ref.inconsistent
    return rows, None if bad is None else _items(*bad)


def assert_canonical(row: Row):
    """One positive denominator, coprime to the numerators as a whole."""
    assert row.den > 0
    assert gcd(row.den, *row.num.values(), *row.combo_num.values()) == 1


big_coeff = st.one_of(
    coeff,
    st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
              st.integers(1, 10**12)),
)
big_exprs = st.dictionaries(st.sampled_from(SYMS + [CONST]), big_coeff,
                            min_size=1, max_size=4)
labelled = st.lists(st.tuples(big_exprs, st.sampled_from(LABELS)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(labelled, labelled, big_exprs,
       st.dictionaries(st.sampled_from(LABELS), big_coeff, max_size=3))
def test_integer_rows_match_fraction_reference(prefix, suffix, expr, combo):
    """add, copy, reduce_row, reduce, solution_expr and the inconsistent row
    agree with the Fraction reference: the same values in the same key
    order, including merged combinations of a repeated label."""
    elim, ref = Eliminator(SYMS), FractionEliminator(SYMS)
    for e, label in prefix:
        elim.add(e, label)
        ref.add(e, label)
    fork, ref_fork = elim.copy(), ref.copy()
    for e, label in suffix:
        fork.add(e, label)
        ref_fork.add(e, label)
    for got, want in ((elim, ref), (fork, ref_fork)):
        assert state(got) == reference_state(want)
        for row in got.pivots.values():
            assert_canonical(row)
        if got.inconsistent is not None:
            assert_canonical(got.inconsistent)
        reduced = got.reduce_row(Row(expr, combo))
        assert_canonical(reduced)
        want_expr, want_combo = want.reduce_row(expr, combo)
        assert _items(reduced.expr, reduced.combo) == _items(want_expr, want_combo)
        # reduce(expr).num, a positive multiple of this, feeds fm_solve
        assert list(got.reduce(expr).expr.items()) == list(want_expr.items())
        for p, (pexpr, _) in want.pivots.items():
            assert list(got.solution_expr(p).items()) == [
                (k, -v) for k, v in pexpr.items() if k != p]


# -- Fourier-Motzkin against the Fraction version it replaced ----------------


def _ineq_key(iq: Inequality):
    """Identifies inequalities equal up to a positive factor."""
    if not iq.coeffs:
        return (iq.strict,)
    norm = max(abs(v) for v in iq.coeffs.values())
    return (iq.strict, tuple(sorted((k, v / norm) for k, v in iq.coeffs.items())))


def fm_solve_fraction(ineqs: list[Inequality], variables: list[str]):
    """Reference Fourier-Motzkin on Fraction rows, deduplicated by dividing
    each by its largest coefficient: (feasible, sample, contradiction)."""
    current, seen = [], set()
    for iq in ineqs:
        if _ineq_key(iq) not in seen:
            seen.add(_ineq_key(iq))
            current.append(iq)
    stack = []
    for var in variables:
        lowers = [iq for iq in current if iq.coeffs.get(var, 0) > 0]
        uppers = [iq for iq in current if iq.coeffs.get(var, 0) < 0]
        stack.append((var, lowers, uppers))
        current = [iq for iq in current if not iq.coeffs.get(var)]
        seen = {_ineq_key(iq) for iq in current}
        for lo in lowers:
            for up in uppers:
                combined = {k: v * -up.coeffs[var] for k, v in lo.coeffs.items()}
                _sub_fraction(combined, up.coeffs, -lo.coeffs[var])
                iq = Inequality(combined, lo.strict or up.strict,
                                f"{lo.label}&{up.label}")
                if _ineq_key(iq) not in seen:
                    seen.add(_ineq_key(iq))
                    current.append(iq)
    for iq in current:
        val = iq.coeffs.get(CONST, Fraction(0))
        if val < 0 or (iq.strict and val == 0):
            return False, None, iq
    sample: dict = {}
    for var, lowers, uppers in reversed(stack):
        def bound(iq):
            rest = {k: v for k, v in iq.coeffs.items() if k != var}
            return -_eval(rest, sample) / iq.coeffs[var]
        lo = max(map(bound, lowers), default=None)
        up = min(map(bound, uppers), default=None)
        if lo is None and up is None:
            sample[var] = Fraction(0)
        elif up is None:
            sample[var] = lo + 1
        elif lo is None:
            sample[var] = up - 1
        else:
            sample[var] = (lo + up) / 2
    return True, sample, None


FM_VARS = ["x", "y", "z", "w"]


@st.composite
def fm_systems(draw):
    """Up to 4 variables in a random elimination order, and strict and
    non-strict rows with rational coefficients, some repeated at a positive
    scale so that duplicates are met."""
    variables = draw(st.permutations(FM_VARS))[:draw(st.integers(1, 4))]
    row = st.builds(
        Inequality,
        st.dictionaries(st.sampled_from(variables + [CONST]), coeff, max_size=4),
        st.booleans(), st.sampled_from(LABELS))
    ineqs = draw(st.lists(row, min_size=1, max_size=7))
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(ineqs) - 1),
                                        coeff.filter(lambda c: c > 0)),
                              max_size=3)):
        ineqs.append(Inequality(scale_expr(ineqs[i].coeffs, c), ineqs[i].strict,
                                f"{ineqs[i].label}*{c}"))
    return ineqs, variables


@settings(max_examples=400, deadline=None)
@given(fm_systems())
def test_fm_solve_matches_fraction_reference(system):
    """The integer fm_solve decides as the Fraction reference does, with the
    same sample, which satisfies every input; its contradiction is a
    coprime-integer positive multiple of the reference's."""
    ineqs, variables = system
    got = fm_solve(ineqs, variables)
    feasible, sample, contradiction = fm_solve_fraction(ineqs, variables)
    assert got.feasible == feasible
    if feasible:
        assert got.sample == sample
        for iq in ineqs:
            value = _eval(iq.coeffs, got.sample)
            assert value > 0 if iq.strict else value >= 0
        return
    c = got.contradiction
    assert (c.strict, c.label) == (contradiction.strict, contradiction.label)
    assert all(type(v) is int for v in c.coeffs.values())
    assert gcd(*c.coeffs.values()) in (0, 1)
    assert c.coeffs.keys() == contradiction.coeffs.keys()
    ratios = {v / contradiction.coeffs[k] for k, v in c.coeffs.items()}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)
