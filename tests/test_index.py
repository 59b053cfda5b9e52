"""Gradings of orbit-set pairs: formulas, parity, additivity, type tables."""

import random
from fractions import Fraction

import pytest

from echkit.exactreal import ExactReal, parse_real
from echkit.index import (
    FiniteAbelianGroup,
    OrbitSet,
    RelData,
    SimpleOrbit,
    action,
    catalog_from_dict,
    compose_rel,
    cz_power,
    e_count,
    ech_index,
    floor_step,
    h_count,
    j0_index,
    orbit_set_from_dict,
    parity_check,
    topo_types,
)
from oracles import random_surd

THETA = parse_real("sqrt(2)-1")
TRIVIAL = FiniteAbelianGroup(())


def elliptic(name="gamma", act=Fraction(1), rot=THETA):
    return SimpleOrbit(name, "elliptic", act, rotation=rot)


def neg_hyp(name, act, cz=-1, hom=()):
    return SimpleOrbit(name, "negative_hyperbolic", Fraction(act), cz=cz,
                       homology=hom)


def pos_hyp(name, act, cz=0, hom=()):
    return SimpleOrbit(name, "positive_hyperbolic", Fraction(act), cz=cz,
                       homology=hom)


GAMMA = elliptic()
EMPTY = OrbitSet((), TRIVIAL)


def oset(*items):
    return OrbitSet(tuple(items), TRIVIAL)


class TestOrbitValidation:
    def test_elliptic_needs_irrational_rotation(self):
        with pytest.raises(ValueError):
            SimpleOrbit("x", "elliptic", Fraction(1),
                        rotation=ExactReal(1, 0, 3))

    def test_hyperbolic_parity_of_cz(self):
        with pytest.raises(ValueError):
            SimpleOrbit("x", "positive_hyperbolic", Fraction(1), cz=1)
        with pytest.raises(ValueError):
            SimpleOrbit("x", "negative_hyperbolic", Fraction(1), cz=2)

    def test_free_homology_rejected(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))

    def test_admissible(self):
        d = neg_hyp("d", 1)
        assert oset((GAMMA, 5), (d, 1)).admissible()
        assert not oset((d, 2)).admissible()


class TestActionAndCounts:
    def test_empty_action(self):
        assert action(EMPTY) == 0

    def test_linear(self):
        assert action(oset((GAMMA, 3))) == 3

    def test_weighted(self):
        d = neg_hyp("d", Fraction(5, 2))
        assert action(oset((GAMMA, 2), (d, 1))) == Fraction(9, 2)

    def test_counts(self):
        d1, d2 = neg_hyp("d1", 1), neg_hyp("d2", 2)
        a = oset((GAMMA, 4), (d1, 1), (d2, 1))
        assert e_count(a, GAMMA) == 4
        assert h_count(a) == 2
        assert e_count(EMPTY, GAMMA) == 0 and h_count(EMPTY) == 0
        assert e_count(oset((d1, 1)), GAMMA) == 0
        assert h_count(oset((d1, 1))) == 1


class TestCzPower:
    def test_elliptic_first(self):
        assert cz_power(GAMMA, 1) == 1

    def test_elliptic_third(self):
        assert cz_power(GAMMA, 3) == 3  # 2*floor(3 theta) + 1 with 3 theta ~ 1.24

    def test_hyperbolic_linear(self):
        assert cz_power(neg_hyp("d", 1, cz=-1), 3) == -3


class TestIndices:
    def test_identical_sets_cancel(self):
        a = oset((GAMMA, 2))
        assert ech_index(a, a, RelData(0, 0)) == 0
        assert j0_index(a, a, RelData(0, 0)) == 0

    def test_single_cover(self):
        a = oset((GAMMA, 1))
        assert ech_index(a, EMPTY, RelData(3, 4)) == 3 + 4 + 1
        assert j0_index(a, EMPTY, RelData(3, 4)) == -3 + 4

    def test_double_cover(self):
        a = oset((GAMMA, 2))
        assert ech_index(a, EMPTY, RelData(0, 0)) == 2

    def test_j0_triple_cover(self):
        a = oset((GAMMA, 3))
        assert j0_index(a, EMPTY, RelData(0, 0)) == 2

    def test_homology_mismatch(self):
        group = FiniteAbelianGroup((3,))
        g = SimpleOrbit("g", "elliptic", Fraction(1), rotation=THETA,
                        homology=(1,))
        a = OrbitSet(((g, 1),), group)
        b = OrbitSet(((g, 2),), group)
        with pytest.raises(ValueError, match="relative class"):
            ech_index(a, b, RelData(0, 0))

    def test_additivity_componentwise(self):
        rng = random.Random(3)
        for _ in range(60):
            orbits = [elliptic("g", rot=random_surd(rng))] + [
                neg_hyp(f"d{i}", Fraction(rng.randrange(1, 9), rng.randrange(1, 5)),
                        cz=2 * rng.randrange(-2, 3) - 1)
                for i in range(3)
            ]

            def rand_set():
                items = []
                for o in orbits:
                    m = rng.randrange(0, 4 if o.is_elliptic else 2)
                    if m:
                        items.append((o, m))
                return OrbitSet(tuple(items), TRIVIAL)

            a, b, c = rand_set(), rand_set(), rand_set()
            r1 = RelData(rng.randrange(-5, 6), rng.randrange(-5, 6))
            r2 = RelData(rng.randrange(-5, 6), rng.randrange(-5, 6))
            assert ech_index(a, b, r1) + ech_index(b, c, r2) == ech_index(
                a, c, r1 + r2
            )
            assert j0_index(a, b, r1) + j0_index(b, c, r2) == j0_index(
                a, c, r1 + r2
            )

    def test_compose_rel_cross_term(self):
        a, b, c = oset((GAMMA, 3)), oset((GAMMA, 1)), EMPTY
        r1, r2, cross = RelData(1, 2), RelData(0, 1), 5
        lhs = ech_index(a, c, compose_rel(r1, r2, cross))
        assert lhs == ech_index(a, b, r1) + ech_index(b, c, r2) + 2 * cross


class TestParity:
    def test_even_index_no_positive_hyperbolic(self):
        a = oset((GAMMA, 2))
        assert parity_check(a, EMPTY, 2)

    def test_odd_index_contradiction(self):
        a = oset((GAMMA, 2))
        assert not parity_check(a, EMPTY, 1)

    def test_one_positive_hyperbolic(self):
        h = pos_hyp("h", 1)
        assert parity_check(oset((h, 1)), EMPTY, 1)

    def test_requires_admissible(self):
        d = neg_hyp("d", 1)
        bad = oset((d, 2))
        with pytest.raises(ValueError):
            parity_check(bad, EMPTY, 0)


class TestTopoTypes:
    def test_minus_one(self):
        types = topo_types(-1)
        assert [(t.g, t.k, t.l) for t in types] == [(0, 1, 0)]
        assert types[0].realizable

    def test_zero(self):
        assert {(t.g, t.k, t.l) for t in topo_types(0)} == {(0, 1, 1), (0, 2, 0)}

    def test_one_with_exclusion(self):
        types = topo_types(1)
        realizable = {(t.g, t.k, t.l) for t in types if t.realizable}
        excluded = {(t.g, t.k, t.l) for t in types if not t.realizable}
        assert realizable == {(0, 3, 0), (0, 2, 1), (1, 1, 0)}
        assert excluded == {(0, 1, 2)}

    def test_two(self):
        realizable = {(t.g, t.k, t.l) for t in topo_types(2) if t.realizable}
        assert realizable == {(0, 4, 0), (0, 3, 1), (0, 2, 2), (1, 1, 1), (1, 2, 0)}

    def test_sizes_before_filtering(self):
        assert [len(topo_types(j)) for j in (-1, 0, 1, 2)] == [1, 2, 4, 6]

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            topo_types(-2)


class TestFloorStep:
    def test_zero_at_window_start(self):
        assert floor_step(THETA, 5, 17, 5) == 0

    def test_zero_inside_window(self):
        assert floor_step(THETA, 5, 17, 11) == 0

    def test_one_at_window_end(self):
        assert floor_step(THETA, 5, 17, 17) == 1

    # S(-THETA) begins 1, 3, 5, 17; each error path has its exact message
    def test_rejects_rational(self):
        with pytest.raises(ValueError) as err:
            floor_step(ExactReal(1, 0, 2), 1, 2, 1)
        assert str(err.value) == "elliptic rotation number must be irrational"

    # a member above p_next is not in S(-theta) up to p_next either
    @pytest.mark.parametrize("p_i, p_next", [(0, 1), (4, 5), (17, 5)])
    def test_rejects_non_member(self, p_i, p_next):
        with pytest.raises(ValueError) as err:
            floor_step(THETA, p_i, p_next, p_i)
        assert str(err.value) == f"{p_i} is not a member of the opposite set"

    def test_rejects_non_consecutive(self):
        # 5 sits between 3 and 17; 16 is no member; a member does not follow itself
        for p_i, p_next in ((3, 17), (5, 16), (5, 5)):
            with pytest.raises(ValueError) as err:
                floor_step(THETA, p_i, p_next, p_i)
            assert str(err.value) == f"{p_i}, {p_next} are not consecutive members"

    def test_rejects_out_of_range(self):
        for n in (18, 4):
            with pytest.raises(ValueError) as err:
                floor_step(THETA, 5, 17, n)
            assert str(err.value) == "n out of range"

    def test_window_law_randomized(self):
        rng = random.Random(17)
        from echkit.partitions import s_theta

        for _ in range(5):
            theta = random_surd(rng)
            neg = s_theta(-theta, 300).members
            for p_i, p_next in zip(neg, neg[1:]):
                for n in range(p_i, p_next + 1):
                    expect = 1 if n == p_next else 0
                    assert floor_step(theta, p_i, p_next, n) == expect


class TestJsonLoading:
    DOC = {
        "group": [4],
        "orbits": [
            {"name": "gamma", "kind": "elliptic", "action": "1",
             "rotation": "sqrt(2)-1", "homology": [1]},
            {"name": "d1", "kind": "negative_hyperbolic", "action": "5/2",
             "cz": -1, "homology": [2]},
        ],
        "complete_below": "100",
    }

    def test_catalog(self):
        cat = catalog_from_dict(self.DOC)
        assert cat.group.factors == (4,)
        assert cat.get("gamma").is_elliptic
        assert cat.get("d1").action == Fraction(5, 2)
        assert cat.complete_below == 100

    def test_orbit_set(self):
        doc = dict(self.DOC, items={"gamma": 2, "d1": 1})
        s = orbit_set_from_dict(doc)
        assert s.multiplicity("gamma") == 2
        assert s.homology_class() == (0,)  # 2*1 + 1*2 = 4 = 0 mod 4

    @pytest.mark.parametrize("mult", [2.5, 2.0, True, "2"])
    def test_inexact_multiplicity_rejected(self, mult):
        """A JSON float was truncated (2.5 became 2), and a boolean counted
        as 1."""
        with pytest.raises(ValueError, match="multiplicity of gamma"):
            orbit_set_from_dict(dict(self.DOC, items={"gamma": mult, "d1": 1}))

    @pytest.mark.parametrize("value", [0.1, 1.0, True, None])
    def test_inexact_action_rejected(self, value):
        """A JSON float was taken as its binary value: 0.1 became
        3602879701896397/36028797018963968."""
        orbits = [dict(self.DOC["orbits"][0], action=value), self.DOC["orbits"][1]]
        with pytest.raises(ValueError, match="action of gamma"):
            catalog_from_dict(dict(self.DOC, orbits=orbits))

    @pytest.mark.parametrize("value", [100.0, 0.5, False])
    def test_inexact_complete_below_rejected(self, value):
        with pytest.raises(ValueError, match="complete_below"):
            catalog_from_dict(dict(self.DOC, complete_below=value))

    def test_exact_values_accepted(self):
        orbits = [dict(self.DOC["orbits"][0], action=3), self.DOC["orbits"][1]]
        cat = catalog_from_dict(dict(self.DOC, orbits=orbits, complete_below="1/10"))
        assert cat.get("gamma").action == 3
        assert cat.complete_below == Fraction(1, 10)
