"""The exact relation engine: verdicts, certificates, fixture tables."""

from fractions import Fraction

import pytest

from echkit import feasibility
from echkit.feasibility import (
    Feasible,
    Inequality,
    Infeasible,
    Relation,
    RelationSystem,
    Sym,
    decide,
    rule_rank,
    solve,
)
from echkit.fixtures import (
    case_systems,
    case_tuples,
    fixture_names,
    load_registry,
    run_all,
    run_fixture,
)
from echkit.linear import CONST, _eval, lin, sub_expr
from oracles import scale_expr


def a_context():
    return {
        "P": Sym("P", "s_member", set_tag="p"),
        "P_next": Sym("P_next", "s_successor", base="P"),
        "D1": Sym("D1", "action"),
        "D2": Sym("D2", "action"),
        "E": Sym("E", "action"),
    }


CLUBS = Relation(lin({"D1": 1, "P": 1, "D2": -1}), "clubs")
SPADES = Relation(lin({"D1": 1, "D2": 1, "P": -1}), "spades")


class TestSolveExamples:
    def test_gap_and_next_window_force_member_zero(self):
        # |gap - 2E| < eps and |P' - 2E| < eps squeeze P to nothing
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"P_next": 1, "P": -1, "E": -2}), "c1"),
                Relation(lin({"P_next": 1, "E": -2}), "d2"),
            ],
        )
        v = solve(system)
        assert isinstance(v, Infeasible)
        assert v.certificate.rule == "member_zero"
        assert v.certificate.equation == lin({"P": 1})

    def test_survivor_chain_solution(self):
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"P_next": 1, "P": -1, "E": -2}), "c1"),
                Relation(lin({"D1": 1, "E": -2}), "d1"),
                CLUBS,
            ],
        )
        v = solve(system)
        assert isinstance(v, Feasible)
        assert v.solution["D1"] == lin({"P_next": 1, "P": -1})
        assert v.solution["D2"] == lin({"P_next": 1})
        assert v.solution["E"] == lin({"P_next": Fraction(1, 2),
                                       "P": Fraction(-1, 2)})
        assert sorted(v.free) == ["P", "P_next"]

    def test_double_drop_survivor_with_integrality_note(self):
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"D2": 1, "E": -2}), "j1"),
                Relation(lin({"D1": 1, "E": -2}), "k1"),
                Relation(lin({"P_next": 1, "P": -1, "D1": 1, "D2": -2}), "l3"),
                SPADES,
            ],
        )
        v = solve(system)
        assert isinstance(v, Feasible)
        assert v.solution["D1"] == lin({"P": Fraction(1, 2)})
        assert v.solution["D2"] == lin({"P": Fraction(1, 2)})
        assert v.solution["P_next"] == lin({"P": Fraction(3, 2)})
        assert v.solution["E"] == lin({"P": Fraction(1, 4)})
        assert any("2 divides P" in note for note in v.notes)

    def test_gap_equals_member_detected(self):
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"P_next": 1, "P": -1, "E": -2}), "c1"),
                Relation(lin({"P": 1, "E": -2}), "a1"),
            ],
        )
        v = solve(system)
        assert not v.feasible
        assert v.certificate.rule == "gap_equals_member"

    def test_successor_forced_onto_its_member(self):
        """P_next = P breaks P_next >= P + 1 and is reported as
        successor_equal.  The member order facts say only P > 1 and
        P_next > P; with P_next >= P + 1 among them, that fact would reduce
        to the constant -1 >= 0 and fire member_nonpositive vacuously."""
        symbols = {"P": Sym("P", "s_member", set_tag="p"),
                   "P_next": Sym("P_next", "s_successor", base="P")}
        v = solve(RelationSystem(symbols,
                                 [Relation(lin({"P_next": 1, "P": -1}), "r")]))
        assert isinstance(v, Infeasible)
        assert v.rule == "successor_equal"
        assert v.certificate.equation == lin({"P_next": 1, "P": -1})
        assert v.certificate.human == "P_next = P is forced"

    def test_underdetermined_lists_parameters(self):
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"P_next": 1, "P": -1, "D2": 1, "E": -2}), "c3"),
                Relation(lin({"P_next": 1, "D1": 1, "E": -2}), "d3"),
                CLUBS,
            ],
        )
        v = solve(system)
        assert isinstance(v, Feasible)
        assert "E" in v.free  # one action stays a parameter

    def test_negative_action_detected(self):
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"P_next": 1, "E": -2}), "e1"),
                Relation(lin({"D1": 1, "E": 2, "P_next": -1, "P": 1}), "f3"),
            ],
        )
        v = solve(system)
        assert not v.feasible
        assert v.certificate.rule == "action_nonpositive"

    def test_repeated_relation_label_rejected(self):
        """A certificate's combination is keyed by label, so two relations
        sharing one would merge their multipliers."""
        system = RelationSystem(
            a_context(),
            [
                Relation(lin({"D1": 1, "E": -2}), "d1"),
                Relation(lin({"D2": 1, "E": -2}), "d1"),
            ],
        )
        with pytest.raises(ValueError, match="repeated"):
            solve(system)

    @pytest.mark.parametrize("change, message", [
        (dict(inequalities=[Inequality(lin({"Z": 1}), label="Z>=0")]),
         r"inequality Z>=0 uses unknown symbols \['Z'\]"),
        (dict(inequalities=[Inequality(lin({"Z": 1, "P": -1}))]),
         r"inequality -P\+Z uses unknown symbols \['Z'\]"),
        (dict(relations=[Relation(lin({"Z": 1, "P": -1}), "Z=P")]),
         r"relation Z=P uses unknown symbols \['Z'\]"),
        (dict(symbols={"P_next": Sym("P_next", "s_successor", base="X")}),
         "successor P_next has base X, which is not a declared s_member"),
        (dict(symbols={"C": Sym("C", "count"),
                       "P_next": Sym("P_next", "s_successor", base="C")}),
         "successor P_next has base C, which is not a declared s_member"),
    ])
    def test_invalid_system_names_the_item(self, change, message):
        """An undeclared symbol in a relation or a side constraint, or a
        successor whose base is missing or not a member, is rejected before
        elimination."""
        symbols = {**a_context(), **change.pop("symbols", {})}
        system = RelationSystem(symbols, change.pop("relations", [CLUBS]), **change)
        with pytest.raises(ValueError, match=message):
            solve(system)


class TestDisequalitySampler:
    """`_avoid_disequalities` on one variable k: a sample point of the
    inequalities off every hyperplane k = i, each a fact without escape."""

    @staticmethod
    def sample(ineqs, avoid):
        facts = [(lin({"k": 1, CONST: -i}), None) for i in avoid]
        return feasibility._avoid_disequalities(ineqs, ["k"], facts)

    def test_region_inside_the_hyperplane_is_infeasible(self):
        # 1 <= k <= 1 and k != 1
        ineqs = [Inequality(lin({"k": 1, CONST: -1})),
                 Inequality(lin({"k": -1, CONST: 1}))]
        assert self.sample(ineqs, [1]) is None

    def test_sample_leaves_the_hyperplane(self):
        # the first FM sample, the midpoint k = 2 of [1, 3], lies on it
        ineqs = [Inequality(lin({"k": 1, CONST: -1})),
                 Inequality(lin({"k": -1, CONST: 3}))]
        assert _eval(lin({"k": 1}), feasibility.fm_solve(ineqs, ["k"]).sample) == 2
        k = self.sample(ineqs, [2])["k"]
        assert 1 <= k <= 3 and k != 2

    def test_deep_branching_still_finds_a_point(self, monkeypatch):
        """0 < k < 4096 with k != 1, ..., 4095: the sampler halves towards
        4096 and hits a hyperplane at every step, twelve levels deep, before
        k = 8191/2 avoids them all."""
        top = 4096
        depth = [0, 0]  # current, deepest
        avoid = feasibility._avoid_disequalities

        def counted(*args):
            depth[0] += 1
            depth[1] = max(depth)
            try:
                return avoid(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(feasibility, "_avoid_disequalities", counted)
        ineqs = [Inequality(lin({"k": 1}), strict=True),
                 Inequality(lin({"k": -1, CONST: top}), strict=True)]
        k = self.sample(ineqs, range(1, top))["k"]
        assert k == Fraction(2 * top - 1, 2)
        assert depth[1] == 13  # the top call and twelve branches


class TestOppositeSetLaw:
    """One p-member and one q-member with integer successors.  The engine
    derives from the set tags that quantities of opposite sets differ unless
    both are 1: p1, p1n and the q-gap against q1, q1n and the p-gap."""

    GAP_P = lin({"p1n": 1, "p1": -1})
    GAP_Q = lin({"q1n": 1, "q1": -1})

    def system(self, relations=(), inequalities=()):
        symbols = {}
        for tag in ("p", "q"):
            b, n = f"{tag}1", f"{tag}1n"
            symbols[b] = Sym(b, "s_member", set_tag=tag)
            symbols[n] = Sym(n, "s_successor", base=b)
        return RelationSystem(symbols, list(relations),
                              inequalities=list(inequalities))

    def values(self, v) -> dict:
        """Every symbol's value at the sample, pivots included."""
        out = dict(v.sample)
        out.update({s: _eval(e, v.sample) for s, e in v.solution.items()})
        return out

    def assert_law(self, values):
        p_set = [values["p1"], values["p1n"], _eval(self.GAP_Q, values)]
        q_set = [values["q1"], values["q1n"], _eval(self.GAP_P, values)]
        for x in p_set:
            for y in q_set:
                assert x != y or x == y == 1, (p_set, q_set)

    def gaps_equal(self):
        return Relation(sub_expr(self.GAP_P, self.GAP_Q), "gaps-equal")

    def test_forced_equal_gaps_escape_to_one(self):
        v = solve(self.system([self.gaps_equal()]))
        assert isinstance(v, Feasible)
        values = self.values(v)
        assert _eval(self.GAP_P, values) == _eval(self.GAP_Q, values) == 1
        self.assert_law(values)

    def test_forced_equal_gaps_without_the_escape(self):
        relations = [self.gaps_equal(),
                     Relation(sub_expr(self.GAP_P, lin({CONST: 2})), "gap-two")]
        v = solve(self.system(relations))
        assert isinstance(v, Infeasible)
        cert = v.certificate
        assert cert.rule == "cross_set"
        assert cert.equation == sub_expr(self.GAP_P, self.GAP_Q)
        by_label = {r.label: r.coeffs for r in relations}
        total: dict = {}
        for label, c in cert.combo.items():
            total = sub_expr(total, scale_expr(by_label[label], -c))
        assert total == cert.equation
        assert cert.human == "relations force -p1+p1n+q1-q1n = 0"

    def test_gaps_pinned_by_inequalities(self):
        """No relation forces the gaps equal, so the sampler meets the
        gap-gap hyperplane and takes the escape."""
        pinned = [Inequality(sub_expr(self.GAP_P, self.GAP_Q), label="gp>=gq"),
                  Inequality(sub_expr(self.GAP_Q, self.GAP_P), label="gq>=gp")]
        v = solve(self.system(inequalities=pinned))
        assert isinstance(v, Feasible)
        values = self.values(v)
        assert _eval(self.GAP_P, values) == _eval(self.GAP_Q, values) == 1
        self.assert_law(values)
        wide = pinned + [Inequality(sub_expr(self.GAP_P, lin({CONST: 2})),
                                    label="gp>=2")]
        v = solve(self.system(inequalities=wide))
        assert isinstance(v, Infeasible)
        assert v.rule == "forced_disequality"
        # the forced fact: the first sample meets p1 = q1 as well, which the
        # region leaves open
        assert v.certificate.equation == sub_expr(self.GAP_P, self.GAP_Q)
        assert v.certificate.human.endswith("(rule cross_set)")

    def test_sample_keeps_the_sets_apart(self):
        v = solve(self.system())
        assert isinstance(v, Feasible)
        self.assert_law(self.values(v))


class TestZeroCoefficients:
    """A zero term is dropped when the relation is built; the count E comes
    before the member P in the elimination order, so a kept zero on E would
    be picked as the pivot."""

    SYMBOLS = {"P": {"kind": "s_member", "set_tag": "p"},
               "E": {"kind": "count"}}

    def system(self, coeffs):
        symbols = {"P": Sym("P", "s_member", set_tag="p"),
                   "E": Sym("E", "count")}
        return RelationSystem(symbols, [Relation(coeffs, "r")])

    def test_zero_term_gives_the_verdict_without_it(self):
        with_zero = solve(self.system({"E": Fraction(0), "P": Fraction(1),
                                       CONST: Fraction(-3)}))
        without = solve(self.system(lin({"P": 1, CONST: -3})))
        assert isinstance(with_zero, Feasible)
        assert with_zero.solution == without.solution
        assert with_zero.solution["P"] == lin({CONST: 3})

    def test_all_zero_relation_rejected(self):
        with pytest.raises(ValueError):
            Relation({"E": Fraction(0)}, "r")

    def test_registry_zero_coefficient_runs(self):
        registry = {"fixtures": {"zero": {
            "symbols": self.SYMBOLS,
            "base_relations": [
                {"label": "r", "coeffs": {"E": "0", "P": 1, "1": -3}}],
            "case_families": [],
            "expected": {"survivors": [[]]},
        }}}
        res = run_fixture("zero", registry)
        assert res.ok
        assert [r.verdict.solution["P"] for r in res.rows] == [lin({CONST: 3})]


class TestCertificates:
    def _relation_map(self, system):
        return {r.label: r.coeffs for r in system.relations}

    def test_certificates_replay_against_inputs(self):
        """Every infeasibility certificate is an exact consequence: the
        recorded combination of input relations reproduces its equation."""
        registry = load_registry()
        checked = 0
        for name in fixture_names(registry):
            fx = registry["fixtures"][name]
            for case in case_tuples(fx):
                for d, system in enumerate(case_systems(fx, case), 1):
                    v = solve(system)
                    if v.feasible:
                        continue
                    cert = v.certificate
                    if not cert.combo:
                        continue
                    rels = self._relation_map(system)
                    total: dict = {}
                    for label, mult in cert.combo.items():
                        total = sub_expr(total, scale_expr(rels[label], -mult))
                    assert total == cert.equation, (name, case, d)
                    assert cert.eps_bound is not None and cert.eps_bound > 0
                    checked += 1
        assert checked > 100

    def test_solutions_satisfy_all_relations(self):
        """Every feasible verdict's solution substitutes to zero exactly."""
        registry = load_registry()
        checked = 0
        for name in fixture_names(registry):
            fx = registry["fixtures"][name]
            for case in case_tuples(fx):
                systems = case_systems(fx, case)
                v = decide(systems)
                if not v.feasible:
                    continue
                # decide keeps the first feasible system's verdict
                system = next(s for s in systems if solve(s).feasible)
                for rel in system.relations:
                    residue: dict = {}
                    for sym, coeff in rel.coeffs.items():
                        expr = (lin({sym: 1}) if sym == CONST
                                else v.solution.get(sym, lin({sym: 1})))
                        residue = sub_expr(residue, scale_expr(expr, -coeff))
                    assert residue == {}, (name, case, rel.label)
                checked += 1
        assert checked >= 15


EXPECTED_SURVIVORS = {
    "firstA1": {(1, 1), (2, 2), (3, 3)},
    "restA1": {(1, 1, 2), (2, 2, 3)},
    "abu": {(1, 2), (2, 1), (2, 3), (3, 2), (3, 3)},
    "adddv": {(3, 3, 1), (3, 3, 3)},
    "afo": {(3, 3, 1, 2), (3, 3, 1, 3), (3, 3, 3, 2)},
    "clB": {(1, 1), (1, 2), (1, 3), (3, 3)},
    "typB": {(1, 1, 3), (1, 2, 1), (1, 2, 3), (3, 3, 1), (3, 3, 3)},
    "sec5_case3": set(),
    "exc_A": set(),
    "exc_B": set(),
    "typa2_filter": set(),
    "typa3": set(),
}


class TestFixtureTables:
    def test_registry_covers_the_whole_case_analysis(self):
        assert set(fixture_names()) == set(EXPECTED_SURVIVORS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_SURVIVORS))
    def test_fixture_reproduces_table(self, name):
        res = run_fixture(name)
        assert res.ok, [r.display for r in res.rows
                        if not r.match or r.solution_ok is False]
        assert set(res.survivors) == EXPECTED_SURVIVORS[name]

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            run_fixture("nope")

    # the keys `fixtures` reads in each kind of registry entry
    READ_KEYS = {
        "fixture": {"title", "symbols", "base_relations", "families",
                    "case_families", "disjuncts", "expected"},
        "expected": {"survivors", "solutions"},
        "family": {"labels", "elements"},
        "symbol": {"kind", "set_tag", "base"},
        "relation": {"coeffs", "label"},
    }

    @classmethod
    def unread_keys(cls, registry: dict) -> set:
        """Keys of fixture, expected-table, family, symbol and relation
        entries that `fixtures` does not read."""
        read = cls.READ_KEYS
        out = set()
        for fx in registry["fixtures"].values():
            out |= set(fx) - read["fixture"]
            out |= set(fx["expected"]) - read["expected"]
            families = [*fx["families"].values(),
                        *([fx["disjuncts"]] if "disjuncts" in fx else [])]
            for fam in families:
                out |= set(fam) - read["family"]
            for sym in fx["symbols"].values():
                out |= set(sym) - read["symbol"]
            relations = [*fx.get("base_relations", ()),
                         *(r for fam in families for element in fam["elements"]
                           for r in element)]
            for r in relations:
                out |= set(r) - read["relation"]
        return out

    def test_registry_uses_only_keys_the_loader_reads(self):
        """A symbol's side constraint follows from its kind, every relation
        holds up to eps, an absent survivor list expects every case to die,
        and a fixture's disjuncts are one family, so a key such as
        "integer", "eps", "all_infeasible", "disjunction" or
        "extra_families" would be ignored without a word; the registry
        carries none."""
        registry = load_registry()
        assert self.unread_keys(registry) == set()
        fx = registry["fixtures"]["typB"]
        fx["symbols"]["P"]["integer"] = False
        fx["families"][fx["case_families"][0]]["elements"][0][0]["eps"] = 2
        fx["expected"]["all_infeasible"] = False
        fx["disjunction"] = "b_disj"
        fx["extra_families"] = {"b_disj": fx.pop("disjuncts")}
        assert self.unread_keys(registry) == {
            "integer", "eps", "all_infeasible", "disjunction", "extra_families"}

    def test_run_all(self):
        results = run_all()
        assert all(r.ok for r in results.values())

    @pytest.mark.parametrize("name", ["exc_A", "exc_B", "typB"])
    def test_disjunctive_case_keeps_the_best_ranked_rule(self, name):
        """A case whose disjuncts are all infeasible reports the rule that
        ranks first among theirs, as a pair reports across its scenarios."""
        fx = load_registry()["fixtures"][name]
        assert "disjuncts" in fx
        checked = 0
        for row in run_fixture(name).rows:
            if row.verdict.feasible:
                continue
            rules = [solve(s).rule for s in case_systems(fx, row.case)]
            assert rule_rank(row.verdict.rule) == min(map(rule_rank, rules)), (
                row.display, row.verdict.rule, rules)
            checked += 1
        assert checked


class TestSurvivorProfiles:
    def test_double_drop_solutions_group_into_two_ratio_classes(self):
        """Surviving double-drop cases split by the pinned successor ratio,
        with the balanced class allowing eta at P/2 or P/4 and the uneven
        class at P/2 or P/6."""
        res = run_fixture("typB")
        by_ratio = {}
        for row in res.rows:
            if not row.verdict.feasible:
                continue
            sol = row.verdict.solution
            ratio = sol["P_next"]["P"]
            by_ratio.setdefault(ratio, set()).add(sol["E"]["P"])
        assert by_ratio == {
            Fraction(3, 2): {Fraction(1, 4), Fraction(1, 2)},
            Fraction(4, 3): {Fraction(1, 6), Fraction(1, 2)},
        }
        balanced = [row for row in res.rows if row.verdict.feasible
                    and row.verdict.solution["P_next"]["P"] == Fraction(3, 2)]
        for row in balanced:
            assert row.verdict.solution["D1"] == {"P": Fraction(1, 2)}
            assert row.verdict.solution["D2"] == {"P": Fraction(1, 2)}


class TestTypeA2Elimination:
    def test_every_survivor_dies_against_every_window(self):
        """The three surviving quadruples each contradict all three windows
        of the first degeneration, removing the shape entirely."""
        res = run_fixture("typa2_filter")
        assert len(res.rows) == 9
        assert all(not r.verdict.feasible for r in res.rows)
