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
(certificates), `reduce_expr` (inputs to `fm_solve`) and `solution_expr`.
The values are the rationals the same operations give over `Fraction`, and
a row's keys are added and dropped in the same order, which matters because
key order steers pivot choice.  `fm_solve` works on Fractions.

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


def add_expr(a: LinExpr, b: LinExpr) -> LinExpr:
    out = dict(a)
    _sub_scaled(out, b, -1)
    return out


def scale_expr(a: LinExpr, c) -> LinExpr:
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


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

    @property
    def expr(self) -> LinExpr:
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    @property
    def combo(self) -> dict:
        return {k: Fraction(v, self.den) for k, v in self.combo_num.items()}

    def minus(self, other: "Row", c) -> "Row":
        """self - c*other."""
        c = Fraction(c)
        a = other.den * c.denominator
        num, combo = dict(self.num), dict(self.combo_num)
        _combine(num, combo, a, other, c.numerator * self.den)
        return Row._normalised(num, combo, self.den * a)


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

    def reduce_expr(self, e: LinExpr) -> LinExpr:
        """reduce_row(Row(e, {})).expr, without tracking a combination."""
        return self.reduce(e).expr

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


def _ineq_key(iq: Inequality):
    """Identifies inequalities equal up to a positive factor."""
    if not iq.coeffs:
        return (iq.strict,)
    norm = max(abs(v) for v in iq.coeffs.values())
    return (iq.strict, tuple(sorted((k, v / norm) for k, v in iq.coeffs.items())))


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


def fm_solve(ineqs: list[Inequality], variables: list[str]) -> FMResult:
    """Decide a conjunction of rational linear inequalities exactly.

    On success returns a rational sample point for `variables`.
    """
    allowed = set(variables) | {CONST}
    for iq in ineqs:
        extra = set(iq.coeffs) - allowed
        if extra:
            raise ValueError(f"inequality mentions uneliminated symbols {extra}")
    rows = []
    seen = set()
    for iq in ineqs:
        k = _ineq_key(iq)
        if k not in seen:
            seen.add(k)
            rows.append(iq)
    stack = []  # (var, lowers, uppers) for back-substitution
    current = rows
    for var in variables:
        lowers, uppers, rest = [], [], []
        for iq in current:
            c = iq.coeffs.get(var)
            if not c:
                rest.append(iq)
            elif c > 0:
                lowers.append(iq)
            else:
                uppers.append(iq)
        stack.append((var, lowers, uppers))
        new_rows = rest
        seen = {_ineq_key(iq) for iq in new_rows}
        for lo in lowers:
            for up in uppers:
                cl = lo.coeffs[var]
                cu = -up.coeffs[var]
                combined = add_expr(
                    scale_expr({k: v for k, v in lo.coeffs.items() if k != var}, cu),
                    scale_expr({k: v for k, v in up.coeffs.items() if k != var}, cl),
                )
                iq = Inequality(combined, lo.strict or up.strict,
                                f"{lo.label}&{up.label}")
                k = _ineq_key(iq)
                if k not in seen:
                    seen.add(k)
                    new_rows.append(iq)
        current = new_rows
    # everything left is constant
    for iq in current:
        val = iq.coeffs.get(CONST, Fraction(0))
        if val < 0 or (iq.strict and val == 0):
            return FMResult(False, contradiction=iq)
    # back-substitute a sample
    sample: dict = {}
    for var, lowers, uppers in reversed(stack):
        lo_val = lo_strict = None
        for iq in lowers:
            rest = {k: v for k, v in iq.coeffs.items() if k != var}
            bound = -_eval(rest, sample) / iq.coeffs[var]
            if lo_val is None or bound > lo_val or (bound == lo_val and iq.strict):
                lo_val, lo_strict = bound, iq.strict
        up_val = up_strict = None
        for iq in uppers:
            rest = {k: v for k, v in iq.coeffs.items() if k != var}
            bound = -_eval(rest, sample) / iq.coeffs[var]
            if up_val is None or bound < up_val or (bound == up_val and iq.strict):
                up_val, up_strict = bound, iq.strict
        if lo_val is None and up_val is None:
            sample[var] = Fraction(0)
        elif up_val is None:
            sample[var] = lo_val + 1
        elif lo_val is None:
            sample[var] = up_val - 1
        elif lo_val == up_val:
            sample[var] = lo_val
        else:
            sample[var] = (lo_val + up_val) / 2
    return FMResult(True, sample=sample)
