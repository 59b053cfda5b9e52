"""Exact surd arithmetic against decimal and structural oracles."""

import operator
import random
import re
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echkit.exactreal import (
    ExactReal,
    _from_squarefree,
    _sign,
    ceil_mul,
    floor_mul,
    parse_real,
)
from oracles import decimal_floor, random_surd, to_mpf

SQRT2M1 = parse_real("sqrt(2)-1")


def surds():
    return st.builds(
        ExactReal,
        st.integers(-40, 40),
        st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]),
        st.integers(1, 15),
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    )


class TestCanonicalForm:
    def test_square_radicand_collapses_to_rational(self):
        assert ExactReal(0, 1, 1, 4) == ExactReal(2)
        assert not ExactReal(0, 1, 1, 9).is_irrational

    def test_square_part_extracted(self):
        x = ExactReal(0, 1, 1, 8)  # sqrt(8) = 2 sqrt(2)
        assert (x.b, x.d) == (2, 2)

    def test_gcd_reduced_and_positive_denominator(self):
        x = ExactReal(2, 4, -6, 2)
        assert x.c > 0
        from math import gcd

        assert gcd(gcd(abs(x.a), abs(x.b)), x.c) == 1

    def test_surd_never_equals_rational(self):
        assert ExactReal(0, 1, 1, 2) != ExactReal(1)
        assert ExactReal(0, 1, 1, 2).is_irrational

    def test_mixed_radicals_rejected(self):
        with pytest.raises(ValueError):
            ExactReal.sqrt(2) + ExactReal.sqrt(3)

    @pytest.mark.parametrize(
        "op,left,right",
        [(operator.truediv, 1.5, ExactReal(2)),
         (operator.truediv, ExactReal(2), 1.5),
         (operator.lt, ExactReal(2), 1.5),
         (operator.le, ExactReal(2), 1.5),
         (operator.gt, ExactReal(2), 1.5),
         (operator.ge, ExactReal(2), 1.5),
         (operator.lt, 1.5, SQRT2M1),
         (operator.ge, "1", SQRT2M1)],
    )
    def test_uncoercible_operand_raises_type_error(self, op, left, right):
        # Python's own message, naming the operator that was asked for
        symbol = {operator.truediv: "/", operator.lt: "<", operator.le: "<=",
                  operator.gt: ">", operator.ge: ">="}[op]
        with pytest.raises(TypeError, match=f"(for |'){re.escape(symbol)}(:|' )"):
            op(left, right)


SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13]


def _assert_canonical(x, d):
    assert x.c > 0
    assert gcd(x.a, x.b, x.c) == 1
    assert (x.b, x.d) == (0, 1) if x.b == 0 else x.d == d


@settings(max_examples=300)
@given(st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30).filter(bool), st.sampled_from(SQUAREFREE),
       st.integers(1, 12))
def test_internal_constructor_matches_public(a, b, c, d, g):
    for args in ((a, b, c, d), (g * a, g * b, g * c, d), (a, 0, c, d)):
        x, y = _from_squarefree(*args), ExactReal(*args)
        assert (x.a, x.b, x.c, x.d) == (y.a, y.b, y.c, y.d)


@settings(max_examples=200)
@given(st.sampled_from(SQUAREFREE[1:]).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.builds(ExactReal, st.integers(-40, 40), st.integers(-5, 5),
                  st.integers(-15, 15).filter(bool), st.just(d)),
        min_size=2, max_size=2))))
def test_arithmetic_results_are_canonical(d_xy):
    d, (x, y) = d_xy
    results = [x + y, x - y, x * y, -x]
    if y != 0:
        results.append(x / y)
    for r in results:
        _assert_canonical(r, d)
        again = ExactReal(r.a, r.b, r.c, r.d)
        assert (r.a, r.b, r.c, r.d) == (again.a, again.b, again.c, again.d)


@settings(max_examples=200)
@given(st.integers(-50, 50), st.integers(1, 20), st.integers(-5, 5),
       st.sampled_from(SQUAREFREE[1:]), st.integers(1, 6), st.integers(1, 4))
def test_equal_values_hash_equal(a, c, b, d, k, s):
    """Every spelling of one value hashes alike, across int, Fraction and
    ExactReal, so mixed sets and dict keys see one value."""
    q = Fraction(a, c)
    spellings = [q, ExactReal.from_fraction(q), ExactReal(a * k, 0, c * k),
                 ExactReal(a * k * s, 0, c * k * s, d * d)]
    if q.denominator == 1:
        spellings.append(int(q))
    assert all(v == spellings[0] for v in spellings)
    assert len({hash(v) for v in spellings}) == 1
    assert len(set(spellings)) == 1
    x = ExactReal(a, b, c, d)
    y = ExactReal(a * k * s, b * k, c * k * s, d * s * s)
    assert x == y and hash(x) == hash(y)


class TestFloorCeil:
    def test_floor_mul_unit_interval(self):
        assert floor_mul(1, SQRT2M1) == 0

    def test_floor_mul_surd(self):
        assert floor_mul(3, SQRT2M1) == 1  # 3 theta ~ 1.2426

    def test_floor_mul_rational(self):
        assert floor_mul(7, ExactReal.from_fraction(Fraction(1, 2))) == 3

    def test_ceil_mul_surd(self):
        assert ceil_mul(2, SQRT2M1) == 1  # 2 theta ~ 0.8284

    def test_ceil_mul_unit_interval(self):
        assert ceil_mul(1, SQRT2M1) == 1

    def test_ceil_mul_integer_point(self):
        assert ceil_mul(4, ExactReal.from_fraction(Fraction(1, 2))) == 2

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            floor_mul(0, SQRT2M1)

    def test_decimal_oracle_thousand_samples(self):
        rng = random.Random(7)
        for _ in range(1000):
            theta = random_surd(rng, unit_interval=False)
            q = rng.randrange(1, 2000)
            assert floor_mul(q, theta) == decimal_floor(q, theta)


def _mp_sign(a: int, b: int, d: int) -> int:
    with mpmath.workdps(300):
        v = to_mpf(ExactReal(a, b, 1, d))
        return (v > 0) - (v < 0)


def _pell_pairs():
    """(x, y, d) with x^2 - d*y^2 = +-1 and x of 30+ digits."""
    for d, x1, y1 in ((2, 1, 1), (3, 2, 1), (5, 2, 1), (7, 8, 3), (13, 18, 5)):
        x, y = x1, y1
        while x < 10**30:
            x, y = x * x1 + d * y * y1, x * y1 + y * x1
        assert abs(x * x - d * y * y) == 1
        yield x, y, d


class TestSign:
    def test_zero(self):
        assert _sign(0, 0, 1) == 0
        assert _sign(0, 0, 7) == 0

    @pytest.mark.parametrize("x,y,d", list(_pell_pairs()))
    def test_pell_near_ties(self, x, y, d):
        for a, b in ((x, -y), (-x, y), (x + 1, -y), (x - 1, -y), (-x, y + 1)):
            assert _sign(a, b, d) == _mp_sign(a, b, d)

    @settings(max_examples=300)
    @given(st.integers(-10**40, 10**40), st.integers(-10**20, 10**20),
           st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]))
    def test_matches_mpmath(self, a, b, d):
        assert _sign(a, b, d) == _mp_sign(a, b, d)


class TestParser:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/7", ExactReal(3, 0, 7)),
            ("sqrt(2)-1", ExactReal(-1, 1, 1, 2)),
            ("(0+1*sqrt(2))/1-1", ExactReal(-1, 1, 1, 2)),
            ("(1+1*sqrt(5))/2", ExactReal(1, 1, 2, 5)),
            ("-(1-sqrt(2))", ExactReal(-1, 1, 1, 2)),
            ("sqrt(9/4)", ExactReal(3, 0, 2)),
            ("2*sqrt(2)/4", ExactReal(0, 1, 2, 2)),
        ],
    )
    def test_round_trips(self, text, value):
        assert parse_real(text) == value

    def test_reparse_repr(self):
        x = ExactReal(-5, 3, 7, 6)
        assert parse_real(repr(x)) == x

    def test_trailing_input_rejected(self):
        with pytest.raises(ValueError):
            parse_real("1/2 junk")

    def test_nested_radical_rejected(self):
        with pytest.raises(ValueError):
            parse_real("sqrt(sqrt(2))")


@settings(max_examples=250)
@given(surds(), st.integers(1, 500))
def test_floor_brackets_strictly(x, q):
    f = floor_mul(q, x)
    qx = x * q
    assert ExactReal(f) < qx < ExactReal(f + 1)
    assert ceil_mul(q, x) == f + 1


@settings(max_examples=250)
@given(surds(), st.integers(1, 500))
def test_negation_coherence(x, q):
    assert floor_mul(q, -x) == -ceil_mul(q, x)


@settings(max_examples=200)
@given(surds(), surds())
def test_ordering_matches_floats(x, y):
    if x.d != y.d:
        return
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)


@settings(max_examples=200)
@given(surds(), surds())
def test_field_arithmetic(x, y):
    if x.d != y.d:
        return
    assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-9, abs=1e-9)
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-6)
    if y != ExactReal(0):
        assert float(x / y) == pytest.approx(float(x) / float(y), rel=1e-9, abs=1e-6)
