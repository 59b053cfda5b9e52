"""Exact linear algebra over the rationals with provenance tracking.

Sparse linear expressions are dicts symbol -> rational (a Fraction or an
int); the key "1" holds the constant term.  Gaussian elimination keeps, for
every derived row, the rational combination of input rows that produced it,
so a contradiction can be replayed against the original system.  A small
Fourier-Motzkin layer decides strict/nonstrict inequality systems and
extracts a rational sample point on success.

The eliminator keeps its pivot rows in reduced row echelon form: each pivot
row has coefficient 1 on its own pivot symbol and holds no other pivot
symbol.  Subtracting a pivot row therefore removes its pivot from the row
being reduced and brings in only non-pivot symbols, so a single pass over
the pivot symbols present at the start reduces a row completely.

Rows are fraction-free: a `Row` stores integer numerators for its expression
and its combination over one positive denominator, divided by their gcd once
per row built, and elimination runs in integer arithmetic.  Fractions are
formed only where a value leaves the eliminator: `Row.expr`/`Row.combo`
(certificates) and `solution_expr`.  The values are the rationals the same
operations give over `Fraction`, and a row's keys are added and dropped in
the same order, which matters because key order steers pivot choice.

`fm_solve` is fraction-free too.  An inequality keeps its meaning under any
positive scaling, so each input is scaled once to a primitive integer vector
(coprime integers), rows are combined in integers and divided by their gcd,
and two rows equal up to a positive factor are the same vector.  A caller
may therefore pass `Eliminator.reduce(e).num`, a positive multiple of the
reduced e.  Fractions appear only in the sample point.

`Eliminator.copy` is shallow: the copy has its own pivot dict but shares the
`Row` objects, the symbol order and any inconsistent row with the original.
That is safe because `add` replaces a pivot row by a new `Row` and never
mutates one, so adding to either eliminator leaves the other unchanged.  A
caller can therefore eliminate a shared relation prefix once and branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

CONST = "1"

LinExpr = dict  # symbol -> rational (Fraction or int)


def lin(pairs: dict) -> LinExpr:
    """The expression with the coefficients of pairs, zero terms dropped."""
    return {k: Fraction(v) for k, v in pairs.items() if v}


def sub_expr(a: LinExpr, b: LinExpr) -> LinExpr:
    out = dict(a)
    _sub_scaled(out, b, 1)
    return out


def _sub_scaled(target: dict, src: dict, c) -> None:
    """target -= c * src in place, dropping entries that cancel.

    New keys are appended; key order steers elimination.
    """
    for k, v in src.items():
        s = target[k] - v * c if k in target else -v * c
        if s:
            target[k] = s
        elif k in target:
            del target[k]


def expr_str(a: LinExpr) -> str:
    if not a:
        return "0"
    parts = []
    for k in sorted(a, key=lambda s: (s == CONST, s)):
        v = a[k]
        term = str(v) if k == CONST else (f"{v}*{k}" if abs(v) != 1 else ("-" + k if v < 0 else k))
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


class Row:
    """A linear equation expr = 0 together with its provenance combination.

    The row is stored as integers: the numerators `num` of the expression
    and `combo_num` of the combination, over one positive denominator `den`,
    with gcd(den, every numerator) = 1, so a rational row has exactly one
    stored form.  `Row(expr, combo)` takes rational values; `expr` and
    `combo` give them back as Fractions.
    """

    __slots__ = ("num", "combo_num", "den")

    def __init__(self, expr: LinExpr, combo: dict | None = None):
        combo = combo or {}
        den = lcm(*(v.denominator for v in expr.values()),
                  *(v.denominator for v in combo.values()))
        self.num = {k: v.numerator * (den // v.denominator) for k, v in expr.items()}
        self.combo_num = {k: v.numerator * (den // v.denominator)
                          for k, v in combo.items()}
        self.den = den

    @classmethod
    def _normalised(cls, num: dict, combo_num: dict, den: int) -> "Row":
        """The row num/den with combination combo_num/den (den > 0), divided
        in place by the gcd of all its integers."""
        g = gcd(den, *num.values(), *combo_num.values())
        if g != 1:
            for k in num:
                num[k] //= g
            for k in combo_num:
                combo_num[k] //= g
            den //= g
        row = cls.__new__(cls)
        row.num, row.combo_num, row.den = num, combo_num, den
        return row

    def expr_key(self) -> tuple:
        """The expression alone as a hashable (den, frozenset of (key, num)).
        `_normalised` divides by a gcd that includes the combination, so two
        rows with one rational expression may store it differently; their
        keys are equal."""
        g = gcd(self.den, *self.num.values())
        return self.den // g, frozenset((k, v // g) for k, v in self.num.items())

    @property
    def expr(self) -> LinExpr:
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    @property
    def combo(self) -> dict:
        return {k: Fraction(v, self.den) for k, v in self.combo_num.items()}


def _combine(num: dict, combo: dict | None, a: int, other: Row, b: int) -> None:
    """num := a*num - b*other.num in place, and combo alike when given.

    Over the denominator den*a this subtracts b*other.den/(den*a) times the
    row other from the row num/den.  Keys keep their order; a cancelled key
    is dropped and a new one appended."""
    if a != 1:
        for k in num:
            num[k] *= a
        if combo is not None:
            for k in combo:
                combo[k] *= a
    _sub_scaled(num, other.num, b)
    if combo is not None:
        _sub_scaled(combo, other.combo_num, b)


class Eliminator:
    """Reduced row echelon over an ordered symbol list, on integer rows.

    No method mutates a dict or a Row it is given.
    """

    def __init__(self, order: list[str]):
        self.order = list(order)
        self.rank = {s: i for i, s in enumerate(order)}
        self.pivots: dict[str, Row] = {}
        self.inconsistent: Row | None = None

    def copy(self) -> "Eliminator":
        """An eliminator in the same state that adds independently of this
        one; it shares the (never mutated) rows."""
        out = Eliminator.__new__(Eliminator)
        out.order, out.rank = self.order, self.rank
        out.pivots = dict(self.pivots)
        out.inconsistent = self.inconsistent
        return out

    def _reduce(self, num: dict, combo: dict | None, den: int) -> Row:
        """The row num/den reduced, consuming the dicts num and combo."""
        for sym in [s for s in num if s in self.pivots]:
            prow = self.pivots[sym]  # coefficient 1 on sym
            _combine(num, combo, prow.den, prow, num[sym])
            den *= prow.den
        return Row._normalised(num, {} if combo is None else combo, den)

    def reduce_row(self, row: Row) -> Row:
        """Subtract the pivot rows of the pivot symbols in row, in key order."""
        return self._reduce(dict(row.num), dict(row.combo_num), row.den)

    def reduce(self, e: LinExpr) -> Row:
        """e reduced by the pivot rows, as a Row without a combination:
        `num` is empty exactly when the relations force e = 0."""
        row = Row(e)
        return self._reduce(row.num, None, row.den)

    def add(self, expr: LinExpr, label: str):
        row = self.reduce_row(Row(expr, {label: 1}))
        num, combo = row.num, row.combo_num
        syms = [s for s in num if s != CONST]
        if not syms:
            if num:  # 0 = nonzero constant
                if self.inconsistent is None:
                    self.inconsistent = row
            return
        pivot = min(syms, key=lambda s: self.rank.get(s, len(self.order)))
        # dividing by the pivot coefficient num[pivot]/den leaves the
        # numerators over the denominator num[pivot]
        lead = num[pivot]
        if lead < 0:
            num = {k: -v for k, v in num.items()}
            combo = {k: -v for k, v in combo.items()}
        row = Row._normalised(num, combo, abs(lead))
        # keep earlier pivots fully reduced
        for p, prow in list(self.pivots.items()):
            if pivot in prow.num:
                num, combo = dict(prow.num), dict(prow.combo_num)
                _combine(num, combo, row.den, row, num[pivot])
                self.pivots[p] = Row._normalised(num, combo, prow.den * row.den)
        self.pivots[pivot] = row

    def solution_expr(self, sym: str) -> LinExpr:
        """sym rewritten over the free symbols (and the constant)."""
        if sym in self.pivots:
            row = self.pivots[sym]
            return {k: Fraction(-v, row.den) for k, v in row.num.items() if k != sym}
        return {sym: Fraction(1)}


# -- Fourier-Motzkin ---------------------------------------------------------


@dataclass(frozen=True)
class Inequality:
    coeffs: LinExpr  # coeffs . syms >= 0  (or > 0 when strict)
    strict: bool = False
    label: str = ""


def _eval(e: LinExpr, sample: dict) -> Fraction:
    total = Fraction(0)
    for k, v in e.items():
        total += v if k == CONST else v * sample[k]
    return total


class FMResult:
    def __init__(self, feasible: bool, sample=None,
                 contradiction: Inequality | None = None):
        self.feasible = feasible
        self.sample = sample
        self.contradiction = contradiction


def _bound(num: dict, var: str, sample: dict) -> Fraction:
    """The value of var at which the row num vanishes, given the sample."""
    return -_eval({k: v for k, v in num.items() if k != var}, sample) / num[var]


def _keep(rows: list, seen: set, num: dict, strict: bool, label: str) -> None:
    """Append the row num, divided in place by the gcd of its integers,
    unless a row equal to it up to a positive factor is already seen."""
    g = gcd(*num.values())
    if g > 1:
        for k in num:
            num[k] //= g
    key = (strict, frozenset(num.items()))
    if key not in seen:
        seen.add(key)
        rows.append((num, strict, label))


def fm_solve(ineqs: list[Inequality], variables: list[str]) -> FMResult:
    """Decide a conjunction of rational linear inequalities exactly.

    On success returns a rational sample point for `variables`.  On failure
    the contradiction is a constant row, with coprime integer coefficients,
    that a positive combination of the inputs gives and that violates its
    sign.
    """
    allowed = set(variables) | {CONST}
    rows: list = []  # (primitive integer coefficients, strict, label)
    seen: set = set()
    for iq in ineqs:
        extra = set(iq.coeffs) - allowed
        if extra:
            raise ValueError(f"inequality mentions uneliminated symbols {extra}")
        den = lcm(*(v.denominator for v in iq.coeffs.values()))
        num = {k: v.numerator * (den // v.denominator) for k, v in iq.coeffs.items()}
        _keep(rows, seen, num, iq.strict, iq.label)
    stack = []  # (var, lowers, uppers) for back-substitution
    for var in variables:
        lowers, uppers, rest = [], [], []
        for row in rows:
            c = row[0].get(var)
            (rest if not c else lowers if c > 0 else uppers).append(row)
        stack.append((var, lowers, uppers))
        # a combined row lacks var, so no lower or upper row is its duplicate
        # and `seen` can keep their keys
        rows = rest
        for lo, lo_strict, lo_label in lowers:
            for up, up_strict, up_label in uppers:
                num = {k: v * -up[var] for k, v in lo.items()}
                _sub_scaled(num, up, -lo[var])  # var cancels and is dropped
                _keep(rows, seen, num, lo_strict or up_strict,
                      f"{lo_label}&{up_label}")
    # everything left is constant
    for num, strict, label in rows:
        val = num.get(CONST, 0)
        if val < 0 or (strict and val == 0):
            return FMResult(False, contradiction=Inequality(num, strict, label))
    # back-substitute a sample
    sample: dict = {}
    for var, lowers, uppers in reversed(stack):
        lo_val = max((_bound(num, var, sample) for num, _, _ in lowers), default=None)
        up_val = min((_bound(num, var, sample) for num, _, _ in uppers), default=None)
        if lo_val is None and up_val is None:
            sample[var] = Fraction(0)
        elif up_val is None:
            sample[var] = lo_val + 1
        elif lo_val is None:
            sample[var] = up_val - 1
        else:
            sample[var] = (lo_val + up_val) / 2
    return FMResult(True, sample=sample)
