"""Best-approximation sets and partitions against the literal definitions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echkit.exactreal import ExactReal, parse_real
from echkit.index import floor_step
from echkit.partitions import (
    Partition,
    in_s_theta,
    is_initial_segment,
    partition_in,
    partition_orbit,
    partition_out,
    s_theta,
)
from oracles import random_surd, s_theta_bruteforce

THETA = parse_real("sqrt(2)-1")


class TestSTheta:
    def test_reference_set(self):
        assert s_theta(THETA, 12).members == (1, 2, 7, 12)

    def test_opposite_set(self):
        assert s_theta(-THETA, 17).members == (1, 3, 5, 17)

    def test_first_member_is_one(self):
        assert s_theta(THETA, 1).members == (1,)

    def test_rational_rejected(self):
        with pytest.raises(ValueError, match="irrational"):
            s_theta(ExactReal(1, 0, 2), 10)

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(8):
            theta = random_surd(rng)
            got = s_theta(theta, 300).members
            assert list(got) == s_theta_bruteforce(theta, 300)

    def test_max_at_most(self):
        ss = s_theta(THETA, 12)
        assert ss.max_at_most(10) == 7
        assert ss.max_at_most(1) == 1
        assert 7 in ss and 8 not in ss

    def test_gap_report(self):
        ss = s_theta(THETA, 12)
        assert ss.gaps() == (1, 5, 5)
        assert ss.largest_gap == 5
        assert s_theta(THETA, 1).largest_gap is None


@st.composite
def surds(draw):
    """A quadratic surd in (0, 1), above it, or negative."""
    x = ExactReal(
        draw(st.integers(-30, 30)),
        draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])),
        draw(st.integers(1, 12)),
        draw(st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13])),
    )
    return x - ExactReal(x.floor()) + ExactReal(draw(st.integers(-3, 2)))


class TestFareyCriterion:
    """`in_s_theta` and `floor_step`'s window check against the literal scan."""

    QMAX = 150

    @settings(max_examples=60, deadline=None)
    @given(surds())
    def test_membership_matches_bruteforce(self, theta):
        members = set(s_theta_bruteforce(theta, self.QMAX))
        for q in range(0, self.QMAX + 1):
            assert in_s_theta(theta, q) == (q in members), q

    @settings(max_examples=60, deadline=None)
    @given(surds())
    def test_floor_step_windows_match_bruteforce(self, theta):
        # floor_step's windows are those of the opposite set S(-theta)
        opp = s_theta_bruteforce(-theta, self.QMAX)
        for p_i, p_next in zip(opp, opp[1:]):
            assert floor_step(theta, p_i, p_next, p_i) == 0
            assert floor_step(theta, p_i, p_next, p_next) == 1
        others = sorted(set(range(1, self.QMAX + 1)) - set(opp))
        for i, p_i in enumerate(opp):
            for p_j in opp[i + 2:] + [p for p in others if p > p_i]:
                with pytest.raises(ValueError, match="are not consecutive members"):
                    floor_step(theta, p_i, p_j, p_i)
        for p in others:
            p_next = next((m for m in opp if m > p), self.QMAX)
            with pytest.raises(ValueError, match="is not a member of the opposite set"):
                floor_step(theta, p, p_next, p)


class TestStructuralLaws:
    @pytest.mark.parametrize("seed", range(6))
    def test_gap_intersection_successor_laws(self, seed):
        rng = random.Random(100 + seed)
        theta = random_surd(rng)
        qmax = 400
        pos = s_theta(theta, qmax).members
        neg = s_theta(-theta, qmax).members
        gaps = [b - a for a, b in zip(pos, pos[1:])]
        # gaps are nondecreasing and live in the opposite set
        assert all(x <= y for x, y in zip(gaps, gaps[1:]))
        neg_set = set(neg)
        assert all(g in neg_set for g in gaps if g <= qmax)
        # the two sets meet exactly at 1
        assert set(pos) & set(neg) == {1}
        # a gap never repeats the member it follows (past 1)
        assert all(b - a != a for a, b in zip(pos, pos[1:]) if a > 1)


class TestPartitionIn:
    def test_zero_is_empty(self):
        assert partition_in(THETA, 0).entries == ()

    def test_reference_value(self):
        assert partition_in(THETA, 10).entries == (7, 2, 1)

    def test_single_step(self):
        assert partition_in(THETA, 2).entries == (2,)

    def test_out_is_in_of_negation(self):
        for m in (3, 9, 14):
            assert partition_out(THETA, m) == partition_in(-THETA, m)

    def test_totals_and_membership(self):
        rng = random.Random(5)
        for _ in range(6):
            theta = random_surd(rng)
            members = set(s_theta(theta, 200).members)
            for m in range(0, 201, 13):
                part = partition_in(theta, m)
                assert part.total == m
                assert all(e in members for e in part.entries)
                assert all(a >= b for a, b in zip(part.entries, part.entries[1:]))


class TestPartitionOrbit:
    def test_positive_hyperbolic(self):
        assert partition_orbit("positive_hyperbolic", "in", 3).entries == (1, 1, 1)

    def test_negative_hyperbolic_odd(self):
        assert partition_orbit("negative_hyperbolic", "in", 5).entries == (2, 2, 1)

    def test_negative_hyperbolic_even(self):
        assert partition_orbit("negative_hyperbolic", "out", 4).entries == (2, 2)

    def test_elliptic_requires_theta(self):
        with pytest.raises(ValueError):
            partition_orbit("elliptic", "in", 3)

    def test_elliptic_directions(self):
        assert partition_orbit("elliptic", "in", 10, THETA) == partition_in(THETA, 10)
        assert partition_orbit("elliptic", "out", 10, THETA) == partition_out(THETA, 10)

    @pytest.mark.parametrize("kind", [
        "positive_hyperbolic", "negative_hyperbolic", "elliptic"])
    def test_negative_multiplicity_rejected(self, kind):
        with pytest.raises(ValueError, match="nonnegative"):
            partition_orbit(kind, "in", -3, THETA)


class TestInitialSegment:
    def test_prefix(self):
        assert is_initial_segment(Partition((7, 2)), Partition((7, 2, 1)))

    def test_non_prefix(self):
        assert not is_initial_segment(Partition((2, 1)), Partition((7, 2, 1)))

    def test_empty_prefix(self):
        assert is_initial_segment(Partition(()), Partition((5, 3)))

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 9), max_size=6))
    def test_every_truncation_is_initial(self, entries):
        entries = tuple(sorted(entries, reverse=True))
        ref = Partition(entries)
        for i in range(len(entries) + 1):
            assert is_initial_segment(Partition(entries[:i]), ref)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
