"""Exact surd arithmetic against decimal and structural oracles."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echkit.exactreal import (
    ExactReal,
    _sign,
    ceil_mul,
    cmp_ceil_fractions,
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


class TestCmpCeilFractions:
    def test_less(self):
        assert cmp_ceil_fractions(2, 1, SQRT2M1) == -1

    def test_equal_same_denominator(self):
        assert cmp_ceil_fractions(5, 5, SQRT2M1) == 0

    def test_greater(self):
        assert cmp_ceil_fractions(3, 2, SQRT2M1) == 1


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
