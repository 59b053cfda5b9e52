"""Transition models, pair compatibility tables, chains, and the grid map."""

import gc
import hashlib
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echkit import feasibility, fixtures, linear, transitions
from echkit.feasibility import (
    ACTION,
    MEMBER,
    SUCCESSOR,
    Inequality,
    Relation,
    RelationSystem,
    Sym,
    decide,
    rule_rank,
    solve,
)
from echkit.linear import CONST, lin, scale_expr, sub_expr
from echkit.transitions import (
    ALLOWED_PAIRS,
    EXCLUDED_PAIRS,
    MODELS,
    TYPES,
    _joint_chain_scenarios,
    chain_check,
    compatible,
    f_grid,
    joint_scenarios,
    mirror,
    pair_report,
)

EXPECTED_ALLOWED = {
    ("b", "a"), ("a", "b'"), ("b", "b'"), ("c", "b'"), ("a'", "b'"),
    ("c", "a"), ("a", "c'"), ("b", "c'"), ("c", "c'"), ("a'", "c'"),
    ("b", "a'"), ("c", "a'"),
}


# sha256 over every scenario system of the 36 pairs at both probe depths and
# of the joint systems of two chains.  It covers each system's label and
# symbols, then its relations and inequalities in order, each coefficient
# dict in its key order: key order steers elimination, so a rewrite that
# keeps the verdicts but reorders a system still shows here.  Relation labels
# are covered too; a chain system's branch relations carry the members of the
# two views they relate ("p1/p2 eta-common").  An opposite-set view pair has
# one order branch, because the engine derives the opposite-set law from the
# set tags.
SCENARIO_DIGEST = "68a5962aaf530acf69b1f2e063732a73701681ab84b163206a1dd09cb76efc6e"
DIGEST_CHAINS = (("b", "a", "b'"), ("a", "b'", "a"))


def scenario_digest() -> str:
    systems = [s for full in (False, True) for t1 in TYPES for t2 in TYPES
               for s in joint_scenarios(t1, t2, full)]
    for triple in DIGEST_CHAINS:
        systems += _joint_chain_scenarios(*triple)
    h = hashlib.sha256()
    for s in systems:
        h.update(repr((s.label, s.symbols)).encode())
        for group in (s.relations, s.inequalities):
            h.update(b"|" + repr(group).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def report():
    return pair_report()


@pytest.fixture(scope="module")
def chains():
    return chain_check()


class TestProfiles:
    """The profile of each transition type, as MODELS states it."""

    def test_single_drop(self):
        m = MODELS["a"]
        assert m.tag == "p"
        assert m.upper.named == (lin({"P'": 1, "P": -1}),)
        assert m.lower.named == (lin({"P'": 1}),)
        assert m.etas == (lin({"P'": Fraction(1, 2)}),
                          lin({"P'": Fraction(1, 2), "P": Fraction(-1, 2)}))
        assert m.ratio is None
        assert m.upper.e_count == lin({"M": 1})
        assert m.lower.e_count == lin({"M": 1, "P": -1})

    def test_balanced_double_drop(self):
        m = MODELS["b"]
        assert m.ratio == Fraction(3, 2)
        assert m.upper.named == ()
        assert m.lower.named == (lin({"P": Fraction(1, 2)}),
                                 lin({"P": Fraction(1, 2)}))
        assert m.etas == (lin({"P": Fraction(1, 2)}), lin({"P": Fraction(1, 4)}))

    def test_mirrored_uneven_double_drop(self):
        m = MODELS["c'"]
        assert m.ratio == Fraction(4, 3)
        assert m.tag == "q"
        assert m.upper.named == (lin({"P": Fraction(2, 3)}),
                                 lin({"P": Fraction(1, 3)}))
        assert m.lower.named == ()
        assert m.upper.e_count == lin({"M": 1, "P": -1})
        assert m.etas == (lin({"P": Fraction(1, 2)}), lin({"P": Fraction(1, 6)}))

    def test_mirror_swaps_tag_and_sides(self):
        """t' is t governed by the other set with its two sides swapped,
        elliptic counts included."""
        for t in TYPES:
            m, w = MODELS[t], MODELS[mirror(t)]
            assert {m.tag, w.tag} == {"p", "q"}
            assert (w.upper, w.lower) == (m.lower, m.upper)
            assert (w.etas, w.ratio) == (m.etas, m.ratio)

    def test_every_value_sits_on_the_twelfth_grid(self):
        """After substituting the fixed ratio, every pinned value and eta
        value is an integer multiple of P/12."""
        for m in MODELS.values():
            for e in m.upper.named + m.lower.named + m.etas:
                coeff = e.get("P", Fraction(0))
                if m.ratio is not None:
                    coeff += e.get("P'", Fraction(0)) * m.ratio
                    assert coeff.denominator in (1, 2, 3, 4, 6, 12)
                else:
                    for v in e.values():
                        assert v.denominator in (1, 2, 3, 4, 6, 12)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            compatible("z", "a")


class TestPairTable:
    def test_exactly_the_transcribed_exclusions(self, report):
        assert set(report.excluded) == set(EXCLUDED_PAIRS)
        assert len(report.excluded) == 24

    def test_exactly_twelve_allowed(self, report):
        assert set(report.allowed) == EXPECTED_ALLOWED
        assert set(ALLOWED_PAIRS) == EXPECTED_ALLOWED

    def test_no_deviations(self, report):
        assert report.deviations == []

    def test_mirror_symmetry_all_36(self, report):
        assert report.mirror_symmetric()
        for t1 in TYPES:
            for t2 in TYPES:
                v = report.verdicts[(t1, t2)]
                w = report.verdicts[(mirror(t2), mirror(t1))]
                assert v.feasible == w.feasible

    def test_prime_first_components_all_excluded(self, report):
        for t2 in TYPES:
            assert not report.verdicts[("b'", t2)].feasible
            assert not report.verdicts[("c'", t2)].feasible

    def test_successor_collision_certificate(self):
        v = compatible("a'", "a")
        assert not v.feasible
        assert v.certificate.rule == "cross_set"
        eq = v.certificate.equation
        assert set(eq) == {"q1n", "p2n"}  # the two successors forced equal

    def test_base_collision_certificate(self):
        v = compatible("b'", "b")
        assert not v.feasible
        assert v.certificate.rule == "cross_set"
        assert set(v.certificate.equation) == {"q1", "p2"}

    def test_allowed_pair_is_feasible_with_witness(self):
        v = compatible("b", "a")
        assert v.feasible
        assert v.sample is not None


def verdict_fields(v) -> tuple:
    """Everything a verdict reports, in dict key order."""
    if v.feasible:
        sample = None if v.sample is None else list(v.sample.items())
        return ([(s, list(e.items())) for s, e in v.solution.items()],
                v.free, v.notes, sample)
    c = v.certificate
    return (c.rule, list(c.equation.items()), list(c.combo.items()),
            c.eps_bound, c.human)


SCENARIO_LISTS = {
    "skeleton": lambda: [joint_scenarios(t1, t2, False) for t1 in TYPES for t2 in TYPES],
    "full": lambda: [joint_scenarios(t1, t2, True) for t1 in TYPES for t2 in TYPES],
    **{"chain:" + "-".join(t): (lambda t=t: [_joint_chain_scenarios(*t)])
       for t in DIGEST_CHAINS},
    "fixtures": lambda: [
        fixtures.case_systems(fx, case)
        for fx in fixtures.load_registry()["fixtures"].values()
        for case in fixtures.case_tuples(fx)],
}


def hand_built_cross_set(v1, v2) -> list[dict]:
    """The cross_set disequalities that the pair rules once built by hand,
    kept as the reference for the engine's own: a gap lies in the opposite
    set, so it differs from both members of a same-set view; across opposite
    sets the members differ, and so do the two gaps."""
    def gap(v):
        return lin({v.bn: 1, v.b: -1})

    def members(v):
        return [lin({v.b: 1}), lin({v.bn: 1})]

    if v1.tag == v2.tag:
        return [sub_expr(gap(v), m)
                for v, w in ((v1, v2), (v2, v1)) for m in members(w)]
    return ([sub_expr(m1, m2) for m1 in members(v1) for m2 in members(v2)]
            + [sub_expr(gap(v1), gap(v2))])


class TestScenarioSystems:
    def test_scenario_digest(self):
        assert scenario_digest() == SCENARIO_DIGEST

    @pytest.mark.parametrize("full", [False, True])
    def test_engine_derives_the_hand_built_cross_set_rules(self, full):
        """The engine's cross-member facts are the hand-built list, in order
        and in key order; only the gap-gap fact of opposite-set views keeps
        the escape where both gaps are 1."""
        for t1 in TYPES:
            for t2 in TYPES:
                v1 = transitions._side_view(t1, 1, "upper")
                v2 = transitions._side_view(t2, 2, "lower")
                want = [list(e.items()) for e in hand_built_cross_set(v1, v2)]
                escapes = [False] * 4 + ([] if v1.tag == v2.tag else [True])
                for system in joint_scenarios(t1, t2, full):
                    got = [(c, e) for c, rule, e in feasibility._facts(system)
                           if rule == "cross_set"]
                    assert [list(c.items()) for c, _ in got] == want
                    assert [e is not None for _, e in got] == escapes

    @pytest.mark.parametrize("name", SCENARIO_LISTS)
    def test_shared_prefixes_decide_as_fresh_solves(self, name):
        """Each list shares one prefix trie, as in `decide`; every verdict
        equals the system solved alone, and `decide` keeps the first
        feasible one, else the first of the best-ranked rule."""
        for systems in SCENARIO_LISTS[name]():
            prefixes: dict = {}
            fresh = []
            for system in systems:
                fresh.append(solve(system))
                assert (verdict_fields(solve(system, prefixes))
                        == verdict_fields(fresh[-1])), system.label
            want = next((v for v in fresh if v.feasible), None) or min(
                fresh, key=lambda v: rule_rank(v.rule))
            assert verdict_fields(decide(systems)) == verdict_fields(want)

    def test_pair_report_work_counts(self, monkeypatch):
        """Deterministic work of the pair table: one solve per scenario run
        until a pair turns feasible (2,650 when every opposite-set view pair
        split into a "distinct" and a "both gaps 1" branch), each shared
        relation prefix eliminated once per pair (21,538 adds when every
        system was eliminated alone), one rule stage per distinct system
        after elimination in a pair (one per solve, 1,874, before the stage
        was memoised), one certificate per excluded pair, built when the
        table reads it (2,638 when every infeasible scenario built its own),
        with its text (1,853 texts when each fired rule built one), and one
        Fourier-Motzkin call per member-order, side-constraint or escape
        question a rule stage leaves open (364 with a stage per solve)."""
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linear.Eliminator, "add",
                            counted("add", linear.Eliminator.add))
        monkeypatch.setattr(feasibility, "solve", counted("solve", feasibility.solve))
        monkeypatch.setattr(feasibility, "_rule_stage",
                            counted("stage", feasibility._rule_stage))
        monkeypatch.setattr(feasibility, "Certificate",
                            counted("certificate", feasibility.Certificate))
        monkeypatch.setattr(feasibility, "fm_solve",
                            counted("fm_solve", feasibility.fm_solve))
        monkeypatch.setattr(feasibility, "expr_str",
                            counted("expr_str", feasibility.expr_str))
        report = pair_report()
        work = {"solve": 1874, "add": 2278, "stage": 220, "fm_solve": 308}
        # no rule's text is built before its certificate is read
        assert counts == work
        for v in report.verdicts.values():
            if not v.feasible:
                assert v.certificate is v.certificate
        assert counts == {**work, "expr_str": 24, "certificate": 24}

    @pytest.mark.parametrize("triple", DIGEST_CHAINS)
    def test_chain_certificates_replay(self, triple):
        """Every Infeasible certificate of a chain's joint systems replays by
        label: its combination of the system's relations gives its equation,
        and its eps bound is the sum of its multipliers' magnitudes.  The systems
        combine branches of several view pairs, whose relations would merge
        in the combination if they shared a label."""
        prefixes: dict = {}
        replayed = 0
        for system in _joint_chain_scenarios(*triple):
            v = solve(system, prefixes)
            if v.feasible:
                continue
            cert = v.certificate
            if not cert.combo:  # decided by Fourier-Motzkin, no combination
                assert cert.rule in ("incompatible_inequalities",
                                     "forced_disequality")
                continue
            by_label = {r.label: r for r in system.relations}
            total: dict = {}
            for label, c in cert.combo.items():
                total = sub_expr(total, scale_expr(by_label[label].coeffs, -c))
            assert total == cert.equation, system.label
            assert cert.eps_bound == sum(map(abs, cert.combo.values()),
                                         Fraction(0)), system.label
            replayed += 1
        assert replayed > 0


def opposite_members() -> dict:
    """Members P (set p) and Q (set q) with their successors, and an action D."""
    return {
        "P": Sym("P", MEMBER, set_tag="p"),
        "P_next": Sym("P_next", SUCCESSOR, base="P"),
        "Q": Sym("Q", MEMBER, set_tag="q"),
        "Q_next": Sym("Q_next", SUCCESSOR, base="Q"),
        "D": Sym("D", ACTION),
    }


# the two gaps are equal (GAPS) and D = P + Q (SUM); GAP_P_AT_LEAST_2 leaves
# the equal gaps no escape to 1, so the opposite-set law fires on them, while
# under GAP_P_AT_MOST_1 the system is feasible with both gaps 1
GAPS = {"P_next": 1, "P": -1, "Q_next": -1, "Q": 1}
SUM = {"D": 1, "P": -1, "Q": -1}
GAP_P_AT_LEAST_2 = {"P_next": 1, "P": -1, CONST: -2}
GAP_P_AT_MOST_1 = {"P_next": -1, "P": 1, CONST: 1}


class TestSharedRuleStage:
    """`solve` runs its rule stage once per distinct system after elimination
    among the systems that share one dict; a repeat reuses the outcome but
    builds its verdict from its own eliminator and relations."""

    def relabelled(self):
        """Four systems over one row space with relations relabelled,
        reordered and rescaled.  The first pins P = Q by two inequalities, so
        P - Q vanishes on its whole region; the rest share one inequality,
        under which the equal gaps are a cross_set contradiction."""
        symbols = opposite_members()
        apart = [Inequality(lin({"P": 1, "Q": -1})), Inequality(lin({"Q": 1, "P": -1}))]
        at_least_2 = [Inequality(lin(GAP_P_AT_LEAST_2), label="gP>=2")]
        both = sub_expr(lin(GAPS), lin(SUM))
        relation_lists = [
            ([Relation(lin(GAPS), "a1"), Relation(lin(SUM), "a2")], apart),
            ([Relation(lin(SUM), "b1"), Relation(lin(GAPS), "b2")], at_least_2),
            ([Relation(scale_expr(lin(SUM), 2), "c1"), Relation(both, "c2")],
             at_least_2),
            ([Relation(both, "d1"), Relation(scale_expr(lin(GAPS), 3), "d2")],
             at_least_2),
        ]
        return [RelationSystem(symbols, rels, ineqs, label=str(i))
                for i, (rels, ineqs) in enumerate(relation_lists)]

    def test_disjunction_keeps_the_earliest_system_and_its_labels(self, monkeypatch):
        systems = self.relabelled()
        stages = []
        rule_stage = feasibility._rule_stage
        monkeypatch.setattr(feasibility, "_rule_stage",
                            lambda *args: stages.append(args) or rule_stage(*args))
        v = decide(systems)
        assert len(stages) == 2  # the last two repeat the second
        assert v.certificate.rule == "cross_set"
        assert set(v.certificate.combo) == {"b2"}
        assert verdict_fields(v) == verdict_fields(solve(systems[1]))

    def test_each_system_decides_as_alone(self):
        systems = self.relabelled()
        shared: dict = {}
        got = [verdict_fields(solve(s, shared)) for s in systems]
        assert got == [verdict_fields(solve(s)) for s in systems]
        assert got[0][0] == "forced_disequality"
        assert [dict(g[2]) for g in got[1:]] == [
            {"b2": 1}, {"c2": 1, "c1": Fraction(1, 2)}, {"d2": Fraction(1, 3)}]

    def test_reused_dict_has_no_stale_outcome(self):
        """A dict outlives the systems solved through it.  It keeps alive
        every object its keys name by identity, so no new object can take
        such an identity, and a system that differs only in its inequality
        is still solved for itself."""
        symbols = opposite_members()

        def equal_gaps(inequality: dict) -> RelationSystem:
            return RelationSystem(symbols, [Relation(lin(GAPS), "g")],
                                  [Inequality(lin(inequality), label="side")])

        shared: dict = {}
        dropped = equal_gaps(GAP_P_AT_MOST_1)
        assert solve(dropped, shared).feasible
        side = weakref.ref(dropped.inequalities[0])
        del dropped
        gc.collect()
        assert side() is not None
        system = equal_gaps(GAP_P_AT_LEAST_2)
        v = solve(system, shared)
        assert verdict_fields(v) == verdict_fields(solve(system))
        assert v.certificate.rule == "cross_set"


class TestChains:
    def test_walk_count_matches_digraph(self, chains):
        starts = {}
        for a, b in chains.allowed_pairs:
            starts.setdefault(a, []).append(b)
        expected = sum(
            len(starts.get(b, ())) for (a, b) in chains.allowed_pairs
        )
        assert len(chains.rows) == expected == 8

    def test_no_chain_of_length_three(self, chains):
        assert chains.feasible_triples == []

    def test_primed_double_drops_never_continue(self, chains):
        assert all(t[0] not in ("b'", "c'") for t in chains.triples)

    def test_reference_triple_excluded(self, chains):
        verdicts = {r.triple: r.verdict for r in chains.rows}
        assert ("b", "a", "b'") in verdicts
        assert not verdicts[("b", "a", "b'")].feasible


class TestFGrid:
    R = Fraction(1)
    EPS = Fraction(1, 100)

    def test_exact_grid_point(self):
        assert f_grid(Fraction(1, 2), self.R, self.EPS) == Fraction(1, 2)

    def test_within_tolerance(self):
        x = Fraction(1, 2) + self.EPS / 2
        assert f_grid(x, self.R, self.EPS) == Fraction(1, 2)

    def test_midpoint_rejected(self):
        assert f_grid(Fraction(1, 24), self.R, self.EPS) is None

    def test_coarse_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            f_grid(Fraction(1, 2), self.R, Fraction(1, 24))

    @settings(max_examples=150)
    @given(st.fractions(min_value=0, max_value=10))
    def test_idempotent(self, x):
        g = f_grid(x, self.R, self.EPS)
        if g is not None:
            assert f_grid(g, self.R, self.EPS) == g
