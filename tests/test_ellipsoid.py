"""Model geometry: spectrum, grading, lattice counts, densities."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echkit import ellipsoid, exactreal
from echkit.ellipsoid import (
    Ellipsoid,
    Generator,
    capacities,
    capacity,
    density_report,
    enumerate_admissible,
    gen_index,
    generator_orbit_set,
    lattice_count,
    two_elliptic_catalog,
    volume_ratio,
)
from echkit.exactreal import ExactReal, parse_real
from echkit.index import FiniteAbelianGroup, OrbitCatalog, SimpleOrbit
from oracles import capacities_bruteforce, gen_count_bruteforce, lattice_bruteforce

# rationals over unequal denominators: ratios are rational, so values tie
RATIONALS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 9)).map(
    ExactReal.from_fraction)
# surds whose rational part is negative
NEG_PART_SURDS = st.sampled_from(["sqrt(2)-1", "2-sqrt(3)", "(3-sqrt(5))/2"]).map(
    parse_real)


def _same_d_pairs():
    """Both parameters irrational over one radicand, ratio sometimes rational."""
    def positive(d):
        return st.builds(ExactReal, st.integers(-6, 6),
                         st.sampled_from([-3, -2, -1, 1, 2, 3]),
                         st.integers(1, 5), st.just(d)).filter(lambda x: x > 0)

    def pairs(d):
        x = positive(d)
        return st.one_of(st.tuples(x, x),
                         st.tuples(x, RATIONALS).map(lambda t: (t[0], t[0] * t[1])))

    return st.sampled_from([2, 3, 5]).flatmap(pairs)


def _either_order(pair):
    return st.sampled_from([pair, pair[::-1]])


ELLIPSOID_PARAMS = st.one_of(
    st.tuples(RATIONALS, RATIONALS),
    st.tuples(NEG_PART_SURDS, RATIONALS).flatmap(_either_order),
    _same_d_pairs(),
)


def _unit_surd(d):
    """An irrational surd over radicand d, moved into (1, 2)."""
    return st.builds(ExactReal, st.integers(-6, 6),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(1, 5), st.just(d)).map(lambda x: x - x.floor() + 1)


def _irrational_ratio_pairs(d):
    return st.tuples(_unit_surd(d), _unit_surd(d)).filter(
        lambda ab: (ab[1] / ab[0]).is_irrational)


# irrational action ratios: a rational beside a surd, or two surds over one
# radicand
IRRATIONAL_PARAMS = st.one_of(
    st.tuples(RATIONALS, st.sampled_from([2, 3, 5, 7]).flatmap(_unit_surd)
              ).flatmap(_either_order),
    st.sampled_from([2, 3, 5]).flatmap(_irrational_ratio_pairs),
)

E_ROUND = Ellipsoid.of(1, 1)
E_IRR = Ellipsoid(ExactReal(1), ExactReal.sqrt(2))


class TestCapacities:
    def test_zeroth_is_zero(self):
        assert capacity(E_ROUND, 0) == ExactReal(0)
        assert capacity(E_IRR, 0) == ExactReal(0)

    def test_round_multiplicities(self):
        assert capacity(E_ROUND, 1) == ExactReal(1)
        assert [c for c in capacities(E_ROUND, 5)] == [
            ExactReal(0), ExactReal(1), ExactReal(1),
            ExactReal(2), ExactReal(2), ExactReal(2),
        ]

    def test_near_round(self):
        e = Ellipsoid.of(1, Fraction(11, 10))
        assert capacity(e, 2) == ExactReal.from_fraction(Fraction(11, 10))

    @pytest.mark.parametrize(
        "a,b",
        [(ExactReal(1), ExactReal(1)),
         (ExactReal(1), ExactReal.from_fraction(Fraction(11, 10))),
         (ExactReal(1), ExactReal.sqrt(2)),
         (ExactReal.from_fraction(Fraction(3, 2)), ExactReal.sqrt(5))],
    )
    def test_matches_bruteforce(self, a, b):
        e = Ellipsoid(a, b)
        assert capacities(e, 400) == capacities_bruteforce(a, b, 400)

    @settings(max_examples=60, deadline=None)
    @given(ELLIPSOID_PARAMS, st.integers(0, 300))
    def test_matches_bruteforce_property(self, ab, k):
        a, b = ab
        caps = capacities(Ellipsoid(a, b), k)
        assert caps == capacities_bruteforce(a, b, k)
        for v in caps:
            w = ExactReal(v.a, v.b, v.c, v.d)
            assert (v.a, v.b, v.c, v.d) == (w.a, w.b, w.c, w.d)

    @pytest.mark.parametrize(
        "a,b",
        [("577/408", "sqrt(2)"),  # a - b is about 2e-6
         ("3-sqrt(2)", "1+sqrt(2)"),  # differences with negative surd parts
         ("1", "1"), ("1", "2")],  # rational ties keep their multiplicity
    )
    @pytest.mark.parametrize("k", [0, 1, 2000])
    def test_near_ties_match_bruteforce(self, a, b, k):
        a, b = parse_real(a), parse_real(b)
        assert capacities(Ellipsoid(a, b), k) == capacities_bruteforce(a, b, k)

    def test_heap_makes_no_exactreal_comparison(self, monkeypatch):
        e = Ellipsoid(parse_real("7/4"), parse_real("(5-sqrt(5))/2"))

        def refuse(self, other):
            raise AssertionError("capacities compared two ExactReal values")

        called = set()

        def record(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_name)

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(ExactReal, name, refuse)
        sys.setprofile(record)
        try:
            caps = capacities(e, 5000)
        finally:
            sys.setprofile(None)
        monkeypatch.undo()
        # heapq compares the entries in C: no Python-level comparison runs
        assert not called & {"__lt__", "__le__", "__gt__", "__ge__", "_sign"}
        assert caps == capacities_bruteforce(e.a, e.b, 5000)

    def test_mixed_radicands_rejected(self):
        e = Ellipsoid(ExactReal.sqrt(2), ExactReal.sqrt(3))
        with pytest.raises(ValueError, match="cannot mix"):
            capacities(e, 1)

    def test_deep_spectrum_matches_bruteforce(self):
        # a key scale of 2^(bit_length(bound) + 1) misorders this spectrum
        # from k = 19,799 on; the linear key needs 2^s > 4*bound^2
        a, b = ExactReal.from_fraction(Fraction(7, 5)), ExactReal.sqrt(2)
        assert capacities(Ellipsoid(a, b), 20000) == capacities_bruteforce(a, b, 20000)

    def test_work_is_one_addition_per_push(self, monkeypatch):
        """No radicand split, and a fixed number of isqrt calls, whatever k."""
        e = Ellipsoid(parse_real("7/4"), parse_real("(5-sqrt(5))/2"))
        calls = {"split": 0, "isqrt": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(exactreal, "_squarefree_split",
                            counted("split", exactreal._squarefree_split))
        monkeypatch.setattr(ellipsoid, "isqrt", counted("isqrt", ellipsoid.isqrt))
        seen = []
        for k in (10, 2000):
            calls.update(split=0, isqrt=0)
            capacities(e, k)
            seen.append(dict(calls))
        assert seen == [{"split": 0, "isqrt": 2}] * 2


class TestGenIndex:
    def test_origin(self):
        assert gen_index(E_IRR, Generator(0, 0)) == 0

    def test_first_two(self):
        assert gen_index(E_IRR, Generator(1, 0)) == 2
        assert gen_index(E_IRR, Generator(0, 1)) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            gen_index(E_ROUND, Generator(1, 0))

    @settings(max_examples=60, deadline=None)
    @given(IRRATIONAL_PARAMS, st.integers(0, 12), st.integers(0, 12))
    def test_matches_bruteforce_property(self, ab, m, n):
        a, b = ab
        assert gen_index(Ellipsoid(a, b), Generator(m, n)) == 2 * (
            gen_count_bruteforce(a, b, m, n) - 1)

    def test_grading_orders_like_action(self):
        # the k-th capacity is realized by the generator of grading 2k,
        # sampled up to index 20000
        top = 20_000
        caps = capacities(E_IRR, top)
        seen = {}
        m = 0
        while E_IRR.a * m <= caps[top]:
            n = 0
            while E_IRR.a * m + E_IRR.b * n <= caps[top]:
                seen[(m, n)] = E_IRR.a * m + E_IRR.b * n
                n += 1
            m += 1
        by_action = sorted(seen, key=lambda g: seen[g])
        for k in range(0, top + 1, 499):
            assert gen_index(E_IRR, Generator(*by_action[k])) == 2 * k
        assert gen_index(E_IRR, Generator(*by_action[top])) == 2 * top


class TestVolumeRatio:
    def test_round_ellipsoid_converges(self):
        assert abs(volume_ratio(E_ROUND, 5000) - 1) < 0.03

    def test_exact_scaling(self):
        big = Ellipsoid(ExactReal(2), ExactReal(0, 2, 1, 2))  # 2*E(1, sqrt 2)
        caps_small = capacities(E_IRR, 50)
        caps_big = capacities(big, 50)
        for k in range(1, 51):
            assert caps_big[k] == caps_small[k] * 2
        assert volume_ratio(big, 37) == 4 * volume_ratio(E_IRR, 37)


class TestLatticeCount:
    def test_empty_for_nonpositive_bound(self):
        assert lattice_count(1, 1, 0) == 0
        assert lattice_count(1, 1, -3) == 0

    def test_small_triangle(self):
        assert lattice_count(1, 1, Fraction(5, 2)) == 6

    def test_strictness(self):
        assert lattice_count(1, 1, 2) == 3  # (0,0),(1,0),(0,1)

    @pytest.mark.parametrize("t", [Fraction(7, 3), 5, Fraction(49, 4)])
    def test_matches_enumeration_rational(self, t):
        s1, s2 = Fraction(1), Fraction(3, 2)
        assert lattice_count(s1, s2, t) == lattice_bruteforce(s1, s2, t)

    def test_matches_enumeration_surd(self):
        s1, s2 = ExactReal(1), ExactReal.sqrt(2)
        for t in (5, 12, 30):
            te = ExactReal(t)
            assert lattice_count(s1, s2, te) == lattice_bruteforce(s1, s2, te)


def make_single_orbit_catalog():
    return OrbitCatalog(
        FiniteAbelianGroup(()),
        (SimpleOrbit("gamma", "elliptic", Fraction(1),
                     rotation=parse_real("sqrt(2)-1")),),
    )


class TestDensityReport:
    def test_single_orbit_counts(self):
        cat = make_single_orbit_catalog()
        rep = density_report(cat, Fraction(21, 2), e_values=(0, 1, 2))
        # admissible sets with action < 10.5: multiplicities 0..10
        assert rep.total == 11
        for n in (0, 1, 2):
            assert rep.e_ratios[n] == Fraction(1, 11)

    def test_two_elliptic_equals_lattice_count(self):
        a, b = Fraction(1), Fraction(7, 5)
        cat = two_elliptic_catalog(a, b, parse_real("sqrt(2)-1"),
                                   parse_real("sqrt(3)-1"))
        for m in (10, 25):
            rep = density_report(cat, m, gamma_name="g1")
            assert rep.total == lattice_count(a, b, m)

    def test_empty_catalog_reports_absent(self):
        cat = OrbitCatalog(FiniteAbelianGroup(()), ())
        rep = density_report(cat, 0, e_values=(1,))
        assert rep.total == 0
        assert rep.e_ratios[1] is None
        assert rep.s_union_ratio is None

    def test_coverage_bound_enforced(self):
        cat = OrbitCatalog(
            FiniteAbelianGroup(()),
            (SimpleOrbit("gamma", "elliptic", Fraction(1),
                         rotation=parse_real("sqrt(2)-1")),),
            complete_below=Fraction(5),
        )
        with pytest.raises(ValueError, match="complete below"):
            density_report(cat, 6)

    def test_homology_class_filter(self):
        group = FiniteAbelianGroup((2,))
        cat = OrbitCatalog(
            group,
            (SimpleOrbit("gamma", "elliptic", Fraction(1),
                         rotation=parse_real("sqrt(2)-1"), homology=(1,)),),
        )
        sets = enumerate_admissible(cat, Fraction(6), (0,))
        # even multiplicities only (including the empty set)
        assert sorted(s.multiplicity("gamma") for s in sets) == [0, 2, 4]

    def test_generator_orbit_set(self):
        cat = two_elliptic_catalog(Fraction(1), Fraction(2),
                                   parse_real("sqrt(2)-1"),
                                   parse_real("sqrt(3)-1"))
        s = generator_orbit_set(E_IRR, cat, Generator(2, 1))
        assert s.multiplicity("g1") == 2 and s.multiplicity("g2") == 1
