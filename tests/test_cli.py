"""End-to-end checks of the command-line interface."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from echkit.cli import main

TABLE_COMMANDS = {
    "verify_all": ("verify", "all"),
    "verify_cases": ("verify", "cases"),
    "pairs": ("transitions", "pairs"),
    "chains": ("transitions", "chains"),
}

# sha256 of each command's --json output (all but verify_cases are the digests in
# perfbench/README.md).  verify_cases pins every fixture certificate, which the
# rule order decides.  A change that alters a verdict on purpose updates them
# and says why in CHANGES.md.
TABLE_DIGESTS = {
    "verify_all": "be839241c50276bc766bce2dccf7540db5ef1f522a639bf20ce9af31de4d86d3",
    "verify_cases": "83375decae9de0f36535d9cb9c19e2fc17e489f0529f8deec3069bb6656daae7",
    "pairs": "6805dc675cfec61cdb6a9c6793262d94354a676e8b87328922ee66493f2aeeb7",
    "chains": "3565af9d5b97d85c977a95907526bd2c4fd317a4e2266d65a6c116173944e346",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out), out


def run_captured(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def table_output():
    """(exit code, raw --json output) of a tables command, run once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_captured(*TABLE_COMMANDS[name], "--json")
        return cache[name]

    return get


class TestBasics:
    def test_stheta(self, capsys):
        code, out = run(capsys, "stheta", "--theta", "(0+1*sqrt(2))/1-1",
                        "--max", "12")
        assert code == 0
        assert "{1, 2, 7, 12}" in out

    def test_partition(self, capsys):
        code, out = run(capsys, "partition", "--theta", "sqrt(2)-1",
                        "--m", "10", "--dir", "in")
        assert code == 0
        assert "(7, 2, 1)" in out

    def test_partition_hyperbolic(self, capsys):
        code, out = run(capsys, "partition", "--kind", "negative_hyperbolic",
                        "--m", "5", "--dir", "in")
        assert code == 0
        assert "(2, 2, 1)" in out

    def test_cz(self, capsys):
        code, data, _ = run_json(capsys, "cz", "--theta", "sqrt(2)-1",
                                 "--k", "3")
        assert code == 0 and data["value"] == 3

    def test_j0_types(self, capsys):
        code, data, _ = run_json(capsys, "j0-types", "--j0", "1")
        assert code == 0
        realizable = [t for t in data["types"] if t["realizable"]]
        excluded = [t for t in data["types"] if not t["realizable"]]
        assert len(realizable) == 3 and len(excluded) == 1
        assert excluded[0] == {"g": 0, "k": 1, "l": 2, "realizable": False}

    def test_lattice(self, capsys):
        code, data, _ = run_json(capsys, "lattice", "--s1", "1", "--s2", "1",
                                 "--t", "5/2")
        assert code == 0 and data["count"] == 6

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["stheta"])  # missing required flags
        assert exc.value.code == 2

    def test_bad_expression_exits_2(self, capsys):
        code = main(["stheta", "--theta", "sqrt(", "--max", "5"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["cz", "--kind", "elliptic", "--k", "3"],  # no --theta
        ["cz", "--kind", "positive_hyperbolic", "--k", "3"],  # no --cz
        ["ellipsoid", "volume", "--a", "1", "--b", "1", "--k", "0"],
        ["lattice", "--s1", "1", "--s2", "1", "--t", "2.5"],  # one grammar
        ["stheta", "--theta", "1/0", "--max", "5"],  # zero divisors
        ["lattice", "--s1", "1", "--s2", "0/0", "--t", "3"],
        ["stheta", "--theta", "1/(sqrt(2)-sqrt(2))", "--max", "5"],
    ])
    def test_missing_or_invalid_value_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestIndexCommand:
    def test_pair_grading(self, capsys, tmp_path):
        base = {
            "group": [],
            "orbits": [
                {"name": "gamma", "kind": "elliptic", "action": "1",
                 "rotation": "sqrt(2)-1"},
            ],
        }
        alpha = dict(base, items={"gamma": 2})
        beta = dict(base, items={})
        fa = tmp_path / "alpha.json"
        fb = tmp_path / "beta.json"
        fa.write_text(json.dumps(alpha))
        fb.write_text(json.dumps(beta))
        code, data, _ = run_json(capsys, "index", "--alpha", str(fa),
                                 "--beta", str(fb), "--c1", "0", "--q", "0")
        assert code == 0
        assert data["ech_index"] == 2
        assert data["j0_index"] == 1

    @pytest.mark.parametrize("field, value", [
        ("items", {"gamma": 2.5}),  # was read as multiplicity 2
        ("items", {"gamma": True}),
        ("action", 0.1),  # was read as 3602879701896397/36028797018963968
    ])
    def test_inexact_value_exits_2(self, capsys, tmp_path, field, value):
        orbit = {"name": "gamma", "kind": "elliptic", "action": "1",
                 "rotation": "sqrt(2)-1"}
        doc = {"group": [], "orbits": [orbit], "items": {"gamma": 2}}
        if field == "action":
            orbit["action"] = value
        else:
            doc["items"] = value
        fa = tmp_path / "alpha.json"
        fa.write_text(json.dumps(doc))
        fb = tmp_path / "beta.json"
        fb.write_text(json.dumps(dict(doc, items={})))
        code = main(["index", "--alpha", str(fa), "--beta", str(fb),
                     "--c1", "0", "--q", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestEllipsoid:
    def test_caps(self, capsys):
        code, data, _ = run_json(capsys, "ellipsoid", "caps", "--a", "1",
                                 "--b", "1", "--k", "3")
        assert code == 0
        assert data["capacities"] == [0.0, 1.0, 1.0, 2.0]

    def test_volume(self, capsys):
        code, data, _ = run_json(capsys, "ellipsoid", "volume", "--a", "1",
                                 "--b", "sqrt(2)", "--k", "4000")
        assert code == 0
        assert data["relative_error"] < 0.05

    def test_density(self, capsys, tmp_path):
        cat = {
            "group": [],
            "orbits": [
                {"name": "g1", "kind": "elliptic", "action": "1",
                 "rotation": "sqrt(2)-1"},
                {"name": "g2", "kind": "elliptic", "action": "7/5",
                 "rotation": "sqrt(3)-1"},
            ],
        }
        f = tmp_path / "cat.json"
        f.write_text(json.dumps(cat))
        code, data, _ = run_json(capsys, "ellipsoid", "density",
                                 "--catalog", str(f), "--max-action", "10",
                                 "--gamma", "g1", "--e", "0,1")
        assert code == 0
        assert data["total"] > 0
        assert data["e_ratios"]["0"] is not None

    @pytest.mark.parametrize("field, value", [("action", 0.1),
                                              ("complete_below", 100.0)])
    def test_density_inexact_value_exits_2(self, capsys, tmp_path, field, value):
        orbit = {"name": "g1", "kind": "elliptic", "action": "1",
                 "rotation": "sqrt(2)-1"}
        cat = {"group": [], "orbits": [orbit], "complete_below": "100"}
        if field == "action":
            orbit["action"] = value
        else:
            cat["complete_below"] = value
        f = tmp_path / "cat.json"
        f.write_text(json.dumps(cat))
        code = main(["ellipsoid", "density", "--catalog", str(f),
                     "--max-action", "10", "--gamma", "g1", "--e", "0,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestVerify:
    def test_cases_single_fixture(self, capsys):
        code, out = run(capsys, "verify", "cases", "--fixture", "restA1")
        assert code == 0
        assert "(1,1,2)" in out and "(2,2,3)" in out

    def test_cases_all(self, capsys):
        code, data, _ = run_json(capsys, "verify", "cases")
        assert code == 0 and data["ok"]
        assert set(data["fixtures"]) >= {"restA1", "afo", "typB"}

    def test_unknown_fixture(self, capsys):
        code = main(["verify", "cases", "--fixture", "nope"])
        assert code == 2

    def test_all_deterministic(self, table_output):
        code, raw = run_captured("verify", "all", "--json")
        assert code == 0
        assert (code, raw) == table_output("verify_all")


class TestTransitionsCommands:
    def test_pairs(self, table_output):
        code, raw = table_output("pairs")
        data = json.loads(raw)
        assert code == 0 and data["ok"]
        assert len(data["allowed"]) == 12
        assert len(data["excluded"]) == 24
        assert data["deviations"] == []

    def test_chains(self, table_output):
        code, raw = table_output("chains")
        data = json.loads(raw)
        assert code == 0
        assert data["triples_examined"] == 8
        assert data["feasible_triples"] == []

    def test_golden_digests(self, table_output):
        digests = {name: hashlib.sha256(table_output(name)[1].encode()).hexdigest()
                   for name in TABLE_COMMANDS}
        assert digests == TABLE_DIGESTS

    def test_verdict_dump_ends_with_the_golden_digests(self):
        """scripts/verdicts.py, which dumps every verdict behind the tables
        for a diff between two checkouts, runs and prints these digests."""
        path = Path(__file__).parents[1] / "scripts" / "verdicts.py"
        spec = importlib.util.spec_from_file_location("verdicts", path)
        verdicts = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(verdicts)
        digests = dict(line.split()[1:] for line in verdicts.lines()
                       if line.startswith("digest "))
        assert digests == TABLE_DIGESTS


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("stheta", "--theta", "sqrt(2)-1", "--max", "12"),
            ("j0-types", "--j0", "2"),
            ("verify", "cases", "--fixture", "firstA1"),
            ("transitions", "pairs"),
        ],
    )
    def test_reserialization_is_byte_identical(self, capsys, argv):
        _, _, raw = run_json(capsys, *argv)
        reparsed = json.loads(raw)
        assert json.dumps(reparsed, sort_keys=True, indent=2) == raw.rstrip("\n")
