"""Properties of the elimination kernel on random small relation systems."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from echkit.feasibility import Infeasible, Relation, RelationSystem, Sym, solve
from echkit.linear import CONST, Eliminator, Row, scale_expr, sub_expr

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


def reduce_by_rescan(elim: Eliminator, row: Row) -> Row:
    """Reference reduction: restart the scan after every subtraction."""
    changed = True
    while changed:
        changed = False
        for sym in list(row.expr):
            if sym in elim.pivots:
                row = row.minus(elim.pivots[sym], row.expr[sym])
                changed = True
                break
    return row


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
    want = reduce_by_rescan(elim, row)
    assert list(got.expr.items()) == list(want.expr.items())
    assert list(got.combo.items()) == list(want.combo.items())
    assert not set(got.expr) & set(elim.pivots)


@settings(max_examples=200, deadline=None)
@given(systems, exprs)
def test_reduce_expr_is_reduce_row_without_combo(exs, e):
    elim = eliminate(exs)[-1]
    got = elim.reduce_expr(e)
    assert list(got.items()) == list(elim.reduce_row(Row(e, {})).expr.items())


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


@settings(max_examples=200, deadline=None)
@given(rows, rows, st.one_of(coeff, st.just(Fraction(0))))
def test_minus_matches_scale_then_subtract(r1, r2, c):
    got = r1.minus(r2, c)
    assert list(got.expr.items()) == list(
        sub_expr(r1.expr, scale_expr(r2.expr, c)).items())
    assert list(got.combo.items()) == list(
        sub_expr(r1.combo, scale_expr(r2.combo, c)).items())


ENGINE_SYMS = {
    "P": Sym("P", "s_member", integer=True),
    "Pn": Sym("Pn", "s_successor", base="P", integer=True),
    "D1": Sym("D1", "action"),
    "D2": Sym("D2", "action"),
    "k": Sym("k", "count", integer=True),
}
engine_exprs = st.dictionaries(st.sampled_from(list(ENGINE_SYMS) + [CONST]),
                               coeff, min_size=1, max_size=4)
eps_multiples = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(engine_exprs, eps_multiples), min_size=1, max_size=5))
def test_infeasible_certificates_replay(rels):
    relations = [Relation(e, LABELS[i], m) for i, (e, m) in enumerate(rels)]
    v = solve(RelationSystem(dict(ENGINE_SYMS), relations))
    if not isinstance(v, Infeasible) or not v.certificate.combo:
        return
    cert = v.certificate
    by_label = {r.label: r for r in relations}
    total: dict = {}
    for label, c in cert.combo.items():
        total = sub_expr(total, scale_expr(by_label[label].coeffs, -c))
    assert total == cert.equation
    if cert.eps_bound is not None:
        assert cert.eps_bound == sum(
            (abs(c) * by_label[l].eps_multiple for l, c in cert.combo.items()),
            Fraction(0))


# -- integer rows against a plain-Fraction reference ------------------------


def _sub_fraction(target: dict, src: dict, c: Fraction) -> None:
    """target -= c*src over Fractions; cancelled keys are dropped, new keys
    appended."""
    for k, v in src.items():
        s = target.get(k, Fraction(0)) - v * c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


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
    """add, copy, reduce_row, reduce_expr, solution_expr and the inconsistent
    row agree with the Fraction reference: the same values in the same key
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
        assert list(got.reduce_expr(expr).items()) == list(want_expr.items())
        assert bool(got.reduce(expr).num) == bool(want_expr)
        for p, (pexpr, _) in want.pivots.items():
            assert list(got.solution_expr(p).items()) == [
                (k, -v) for k, v in pexpr.items() if k != p]
