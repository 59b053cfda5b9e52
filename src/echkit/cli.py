"""Command-line entry point.

Subcommands mirror the library: stheta, partition, cz, index, j0-types,
ellipsoid {caps,volume,density}, verify {cases,all}, transitions
{pairs,chains}.  Every command prints a table by default and canonical JSON
with --json.  Exit status: 0 on success, 1 when a verification deviates from
its expected table, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fixtures as fixtures_mod
from . import transitions as trans_mod
from .ellipsoid import (
    Ellipsoid,
    capacities,
    capacity,
    density_report,
    lattice_count,
)
from .exactreal import parse_real
from .index import (
    RelData,
    SimpleOrbit,
    catalog_from_dict,
    cz_power,
    ech_index,
    j0_index,
    orbit_set_from_dict,
    topo_types,
)
# perfbench/tracing.py wraps the suite under this name
from .fixtures import invariant_suite as _invariant_suite
from .linear import expr_str
from .partitions import partition_orbit, s_theta

SCHEMA = "echkit/1"


def _dump(obj) -> str:
    """Canonical JSON: re-serializing a parsed report is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(args, payload: dict, table: list[str]) -> None:
    if args.json:
        print(_dump({"schema": SCHEMA, **payload}))
    else:
        for line in table:
            print(line)


def _verdict_json(v) -> dict:
    if v.feasible:
        return {
            "feasible": True,
            "solution": {s: expr_str(e) for s, e in sorted(v.solution.items())},
            "free": v.free,
            "notes": v.notes,
        }
    c = v.certificate
    return {
        "feasible": False,
        "rule": c.rule,
        "equation": expr_str(c.equation),
        "combo": {k: str(x) for k, x in sorted(c.combo.items())},
        "eps_multiple": str(c.eps_bound) if c.eps_bound is not None else None,
    }


# -- subcommands ---------------------------------------------------------------


def cmd_stheta(args) -> int:
    theta = parse_real(args.theta)
    ss = s_theta(theta, args.max)
    _emit(
        args,
        {"command": "stheta", "theta": args.theta, "max": args.max,
         "members": list(ss.members), "largest_gap": ss.largest_gap},
        [f"S({args.theta}) within [1, {args.max}]:",
         "{" + ", ".join(map(str, ss.members)) + "}",
         f"largest successor gap seen: {ss.largest_gap}"],
    )
    return 0


def cmd_partition(args) -> int:
    theta = parse_real(args.theta) if args.theta else None
    part = partition_orbit(args.kind, args.dir, args.m, theta)
    _emit(
        args,
        {"command": "partition", "kind": args.kind, "dir": args.dir,
         "m": args.m, "entries": list(part.entries)},
        [f"{args.dir}-partition of {args.m}: ("
         + ", ".join(map(str, part.entries)) + ")"],
    )
    return 0


def cmd_cz(args) -> int:
    if args.kind == "elliptic":
        if not args.theta:
            raise ValueError("elliptic orbits need --theta")
        orbit = SimpleOrbit("o", args.kind, Fraction(1),
                            rotation=parse_real(args.theta))
    else:
        if args.cz is None:
            raise ValueError("hyperbolic orbits need --cz")
        orbit = SimpleOrbit("o", args.kind, Fraction(1), cz=args.cz)
    value = cz_power(orbit, args.k)
    _emit(
        args,
        {"command": "cz", "kind": args.kind, "k": args.k, "value": value},
        [f"grading of the {args.k}-fold cover: {value}"],
    )
    return 0


def cmd_index(args) -> int:
    with open(args.alpha) as fh:
        alpha_doc = json.load(fh)
    with open(args.beta) as fh:
        beta_doc = json.load(fh)
    alpha = orbit_set_from_dict(alpha_doc)
    beta = orbit_set_from_dict(beta_doc)
    rel = RelData(args.c1, args.q)
    i_val = ech_index(alpha, beta, rel)
    j_val = j0_index(alpha, beta, rel)
    _emit(
        args,
        {"command": "index", "c1": args.c1, "q": args.q,
         "ech_index": i_val, "j0_index": j_val},
        [f"grading I  = {i_val}", f"grading J0 = {j_val}"],
    )
    return 0


def cmd_j0_types(args) -> int:
    types = topo_types(args.j0)
    rows = [
        {"g": t.g, "k": t.k, "l": t.l, "realizable": t.realizable} for t in types
    ]
    table = [f"topological types with index {args.j0}:"]
    for t in types:
        note = "" if t.realizable else "   [cannot occur as a curve]"
        table.append(f"  (g,k,l) = ({t.g},{t.k},{t.l}){note}")
    _emit(args, {"command": "j0-types", "j0": args.j0, "types": rows}, table)
    return 0


def cmd_ellipsoid_caps(args) -> int:
    e = Ellipsoid(parse_real(args.a), parse_real(args.b))
    caps = capacities(e, args.k)
    _emit(
        args,
        {"command": "ellipsoid-caps", "a": args.a, "b": args.b, "k": args.k,
         "capacities": [float(c) for c in caps],
         "exact": [repr(c) for c in caps]},
        [f"c_{i} = {float(c):.6f}  ({c})" for i, c in enumerate(caps)],
    )
    return 0


def cmd_ellipsoid_volume(args) -> int:
    # capacity(k)^2 / (2k) approaches a*b as k grows; k = 0 has no ratio
    if args.k < 1:
        raise ValueError("k must be positive")
    e = Ellipsoid(parse_real(args.a), parse_real(args.b))
    ck = float(capacity(e, args.k))
    ratio = ck * ck / (2 * args.k)
    target = float(e.a * e.b)
    _emit(
        args,
        {"command": "ellipsoid-volume", "a": args.a, "b": args.b, "k": args.k,
         "capacity": ck, "ratio": ratio, "target": target,
         "relative_error": abs(ratio - target) / target},
        [f"capacity({args.k}) = {ck:.6f}",
         f"capacity^2 / (2k) = {ratio:.6f}",
         f"a*b              = {target:.6f}",
         f"relative error   = {abs(ratio - target) / target:.4%}"],
    )
    return 0


def cmd_ellipsoid_density(args) -> int:
    with open(args.catalog) as fh:
        cat = catalog_from_dict(json.load(fh))
    gamma_class = None
    if args.gamma_class:
        gamma_class = tuple(int(x) for x in args.gamma_class.split(","))
    e_values = tuple(int(x) for x in args.e.split(",")) if args.e else ()
    h_values = tuple(int(x) for x in args.h.split(",")) if args.h else ()
    rep = density_report(
        cat,
        Fraction(args.max_action),
        gamma_class=gamma_class,
        gamma_name=args.gamma,
        e_values=e_values,
        h_values=h_values,
    )
    payload = {
        "command": "ellipsoid-density",
        "max_action": str(rep.max_action),
        "gamma": rep.gamma_name,
        "total": rep.total,
        "e_ratios": {str(k): (str(v) if v is not None else None)
                     for k, v in rep.e_ratios.items()},
        "h_ratios": {str(k): (str(v) if v is not None else None)
                     for k, v in rep.h_ratios.items()},
        "s_union_ratio": (str(rep.s_union_ratio)
                          if rep.s_union_ratio is not None else None),
    }
    table = [f"admissible orbit sets below action {rep.max_action}: {rep.total}"]
    for n, r in rep.e_ratios.items():
        table.append(f"  share with elliptic multiplicity {n}: "
                     + (str(r) if r is not None else "absent"))
    for m, r in rep.h_ratios.items():
        table.append(f"  share with {m} hyperbolic orbits: "
                     + (str(r) if r is not None else "absent"))
    table.append("  share pooled over best-approximation multiplicities: "
                 + (str(rep.s_union_ratio)
                    if rep.s_union_ratio is not None else "absent"))
    _emit(args, payload, table)
    return 0


def cmd_lattice(args) -> int:
    n = lattice_count(parse_real(args.s1), parse_real(args.s2), parse_real(args.t))
    _emit(
        args,
        {"command": "lattice", "s1": args.s1, "s2": args.s2, "t": args.t,
         "count": n},
        [f"lattice points below the line: {n}"],
    )
    return 0


def _fixture_rows(result) -> list[dict]:
    rows = []
    for r in result.rows:
        rows.append(
            {
                "case": r.display,
                "labels": r.labels,
                "expected": "feasible" if r.expected_feasible else "infeasible",
                "computed": "feasible" if r.verdict.feasible else "infeasible",
                "match": r.match,
                "solution_ok": r.solution_ok,
                "verdict": _verdict_json(r.verdict),
            }
        )
    return rows


def cmd_verify_cases(args) -> int:
    results = ([fixtures_mod.run_fixture(args.fixture)] if args.fixture
               else list(fixtures_mod.run_all().values()))
    ok = all(r.ok for r in results)
    payload = {
        "command": "verify-cases",
        "ok": ok,
        "fixtures": {r.name: {"ok": r.ok, "rows": _fixture_rows(r)}
                     for r in results},
    }
    table = []
    for r in results:
        table.append(f"fixture {r.name}: {'ok' if r.ok else 'MISMATCH'}"
                     f"  ({r.title})")
        for row in r.rows:
            status = "ok" if row.match and row.solution_ok is not False else "FAIL"
            kind = "survives" if row.verdict.feasible else "excluded"
            detail = ""
            if row.verdict.feasible:
                sol = ", ".join(f"{s}={expr_str(e)}"
                                for s, e in sorted(row.verdict.solution.items()))
                if row.verdict.notes:
                    sol += "; " + "; ".join(row.verdict.notes)
                detail = f"  [{sol}]"
            else:
                c = row.verdict.certificate
                detail = f"  [{c.rule}: {expr_str(c.equation)} = 0]"
            table.append(f"  {status:4s} {row.display:12s} {row.labels:18s} "
                         f"{kind}{detail}")
    _emit(args, payload, table)
    return 0 if ok else 1


def cmd_transitions_pairs(args) -> int:
    rep = trans_mod.pair_report()
    payload = {
        "command": "transitions-pairs",
        "ok": rep.ok,
        "allowed": [list(p) for p in rep.allowed],
        "excluded": [list(p) for p in rep.excluded],
        "deviations": [list(p) for p in rep.deviations],
        "verdicts": {f"{a},{b}": _verdict_json(v)
                     for (a, b), v in sorted(rep.verdicts.items())},
    }
    table = [f"ordered pairs: {len(rep.excluded)} excluded, "
             f"{len(rep.allowed)} allowed"]
    for (a, b), v in sorted(rep.verdicts.items()):
        if v.feasible:
            table.append(f"  ({a},{b}): compatible")
        else:
            c = v.certificate
            table.append(f"  ({a},{b}): excluded  [{c.rule}: "
                         f"{expr_str(c.equation)} = 0]")
    if rep.deviations:
        table.append(f"DEVIATIONS from the transcribed table: {rep.deviations}")
    _emit(args, payload, table)
    return 0 if rep.ok else 1


def cmd_transitions_chains(args) -> int:
    rep = trans_mod.chain_check(trans_mod.pair_report().allowed)
    payload = {
        "command": "transitions-chains",
        "triples_examined": len(rep.rows),
        "feasible_triples": [list(r.triple) for r in rep.feasible_triples],
        "rows": [
            {
                "triple": list(r.triple),
                "feasible": r.verdict.feasible,
                "decided_by": r.decided_by,
                "verdict": _verdict_json(r.verdict),
            }
            for r in rep.rows
        ],
    }
    table = [f"chains of two allowed steps: {len(rep.rows)} examined"]
    for r in rep.rows:
        if r.verdict.feasible:
            table.append(f"  {r.triple}: FEASIBLE (open finding; constraints "
                         "too coarse to forbid this chain)")
        else:
            c = r.verdict.certificate
            table.append(f"  {r.triple}: excluded via {r.decided_by} "
                         f"[{c.rule}]")
    n = len(rep.feasible_triples)
    table.append(f"feasible triples: {n}" + ("" if n == 0 else "  (reported, see above)"))
    _emit(args, payload, table)
    return 0


def cmd_verify_all(args) -> int:
    status = 0
    table = []
    payload: dict = {"command": "verify-all"}

    results = list(fixtures_mod.run_all().values())
    fixtures_ok = all(r.ok for r in results)
    payload["fixtures"] = {r.name: r.ok for r in results}
    table.append(f"case fixtures: {'ok' if fixtures_ok else 'MISMATCH'} "
                 f"({len(results)} fixtures)")
    if not fixtures_ok:
        status = 1
        for r in results:
            if not r.ok:
                table.append(f"  MISMATCH in {r.name}")

    rep = trans_mod.pair_report()
    payload["pairs"] = {"ok": rep.ok,
                        "allowed": [list(p) for p in rep.allowed]}
    table.append(f"transition pairs: {'ok' if rep.ok else 'MISMATCH'} "
                 f"({len(rep.excluded)} excluded / {len(rep.allowed)} allowed)")
    if not rep.ok:
        status = 1

    chains = trans_mod.chain_check(rep.allowed)
    n_feasible = len(chains.feasible_triples)
    payload["chains"] = {
        "examined": len(chains.rows),
        "feasible": [list(r.triple) for r in chains.feasible_triples],
    }
    table.append(f"transition chains: {len(chains.rows)} examined, "
                 f"{n_feasible} feasible (expected 0)")
    for r in chains.feasible_triples:
        table.append(f"  OPEN FINDING: feasible chain {r.triple}")
    if n_feasible:
        status = 1

    inv = _invariant_suite()
    payload["invariants"] = {name: ok for name, ok in inv}
    for name, ok in inv:
        table.append(f"invariant [{name}]: {'ok' if ok else 'FAIL'}")
        if not ok:
            status = 1

    payload["ok"] = status == 0
    table.append("all expectations met" if status == 0
                 else "EXPECTATIONS NOT MET")
    _emit(args, payload, table)
    return status


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echkit",
        description="exact combinatorics of Reeb orbit counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, fn, **kw):
        p = parent.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        return p

    p = leaf(sub, "stheta", cmd_stheta,
             help="best-approximation set of a rotation number")
    p.add_argument("--theta", required=True)
    p.add_argument("--max", type=int, required=True)

    p = leaf(sub, "partition", cmd_partition, help="end-multiplicity partition")
    p.add_argument("--theta")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dir", choices=["in", "out"], required=True)
    p.add_argument("--kind", default="elliptic",
                   choices=["elliptic", "positive_hyperbolic",
                            "negative_hyperbolic"])

    p = leaf(sub, "cz", cmd_cz, help="grading of an iterated orbit")
    p.add_argument("--kind", default="elliptic",
                   choices=["elliptic", "positive_hyperbolic",
                            "negative_hyperbolic"])
    p.add_argument("--theta")
    p.add_argument("--cz", type=int)
    p.add_argument("--k", type=int, required=True)

    p = leaf(sub, "index", cmd_index, help="gradings of a pair of orbit sets")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = leaf(sub, "j0-types", cmd_j0_types,
             help="topological types at a given index")
    p.add_argument("--j0", type=int, required=True)

    p_ell = sub.add_parser("ellipsoid", help="model geometry E(a,b)")
    ell_sub = p_ell.add_subparsers(dest="subcommand", required=True)
    q = leaf(ell_sub, "caps", cmd_ellipsoid_caps)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q = leaf(ell_sub, "volume", cmd_ellipsoid_volume)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q = leaf(ell_sub, "density", cmd_ellipsoid_density)
    q.add_argument("--catalog", required=True)
    q.add_argument("--max-action", required=True)
    q.add_argument("--gamma")
    q.add_argument("--gamma-class")
    q.add_argument("--e", help="comma-separated elliptic multiplicities")
    q.add_argument("--h", help="comma-separated hyperbolic counts")

    p = leaf(sub, "lattice", cmd_lattice,
             help="lattice points strictly below a line")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)
    p.add_argument("--t", required=True)

    p_ver = sub.add_parser("verify", help="re-derive the case tables")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    q = leaf(ver_sub, "cases", cmd_verify_cases)
    q.add_argument("--fixture")
    leaf(ver_sub, "all", cmd_verify_all)

    p_tr = sub.add_parser("transitions", help="pair and chain compatibility")
    tr_sub = p_tr.add_subparsers(dest="subcommand", required=True)
    leaf(tr_sub, "pairs", cmd_transitions_pairs)
    leaf(tr_sub, "chains", cmd_transitions_chains)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
