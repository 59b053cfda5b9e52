"""Spans and counters around echkit's public entry points, installed from outside.

`Tracer.install()` replaces each target function or method in every loaded
echkit module (and class) with a wrapper that records one span per call:
name, start, end and parent span, in flat arrays kept in memory.  Exact
counters ride on the same boundaries.  `Tracer.uninstall()` restores the
originals.  Nothing under `src/` is edited; the wrappers are the only change
to the program while tracing.

None of the wrapped functions calls itself, so the summed duration of a
name's spans is its inclusive time.  A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum over
its spans.
"""

from __future__ import annotations

import array
import json
import sys
import time
from fractions import Fraction

LAYERS = ("exactreal", "partitions", "index", "ellipsoid", "linear",
          "feasibility", "fixtures", "transitions", "cli")

# span name -> (module, attribute path).  Several attributes may share a name.
SPANNED = {
    "exactreal.cmp": [("exactreal", "ExactReal." + op)
                      for op in ("__lt__", "__le__", "__gt__", "__ge__")],
    "exactreal.ceil_mul": [("exactreal", "ceil_mul")],
    "exactreal.floor_mul": [("exactreal", "floor_mul")],
    "partitions.s_theta": [("partitions", "s_theta")],
    "partitions.partition_in": [("partitions", "partition_in")],
    "index.floor_step": [("index", "floor_step")],
    "index.ech_index": [("index", "ech_index")],
    "index.j0_index": [("index", "j0_index")],
    "ellipsoid.capacities": [("ellipsoid", "capacities")],
    "ellipsoid.lattice_count": [("ellipsoid", "lattice_count")],
    "ellipsoid.gen_index": [("ellipsoid", "gen_index")],
    "ellipsoid.density_report": [("ellipsoid", "density_report")],
    "linear.Eliminator.add": [("linear", "Eliminator.add")],
    "linear.fm_solve": [("linear", "fm_solve")],
    "feasibility.solve": [("feasibility", "solve")],
    "fixtures.run_fixture": [("fixtures", "run_fixture")],
    "transitions.joint_scenarios": [("transitions", "joint_scenarios")],
    "transitions.compatible": [("transitions", "compatible")],
    "transitions.pair_report": [("transitions", "pair_report")],
    "transitions.chain_check": [("transitions", "chain_check")],
    "cli.verify_all": [("cli", "cmd_verify_all")],
    "cli.pairs": [("cli", "cmd_transitions_pairs")],
    "cli.chains": [("cli", "cmd_transitions_chains")],
    "cli.invariant_suite": [("cli", "_invariant_suite")],
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _system_key(system) -> str:
    return system.label + "|" + "|".join(r.label for r in system.relations)


def _nonintegral(system, verdict) -> bool:
    """True when the witness gives an integer-declared symbol a non-integer value."""
    sample = verdict.sample or {}
    for name, sym in system.symbols.items():
        if not sym.integer:
            continue
        expr = verdict.solution.get(name)
        if expr is None:
            value = sample.get(name, Fraction(0))
        else:
            value = sum((c * (1 if s == "1" else sample.get(s, 0))
                         for s, c in expr.items()), Fraction(0))
        if Fraction(value).denominator != 1:
            return True
    return False


class Tracer:
    """Records spans and counters while installed; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array.array("H")
        self.parent_col = array.array("q")
        self.start_col = array.array("q")
        self.end_col = array.array("q")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._verdicts: list = []  # (system, verdict) kept for defect counts
        self._fixture_results: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, after=None):
        nid = self._name_id(name)
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _after_hooks(self):
        def s_theta(result, args):
            self._count("partitions.s_theta.q_requested", args[1])

        def capacities(result, args):
            self._count("ellipsoid.capacities.points", len(result))

        def joint_scenarios(result, args):
            self._count("transitions.scenarios_built", len(result))

        def solve(result, args):
            if not result.feasible:
                self._count("feasibility.infeasible")
                if result.certificate.combo:
                    return
            self._verdicts.append((args[0], result))

        def run_fixture(result, args):
            self._fixture_results.append(result)

        return {"partitions.s_theta": s_theta,
                "ellipsoid.capacities": capacities,
                "transitions.joint_scenarios": joint_scenarios,
                "feasibility.solve": solve,
                "fixtures.run_fixture": run_fixture}

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        import echkit

        modules = {name: importlib.import_module("echkit." + name)
                   for name in LAYERS}
        loaded = [echkit, *modules.values()]
        hooks = self._after_hooks()
        for name, targets in SPANNED.items():
            for mod_name, path in targets:
                owner, attr = _resolve(modules[mod_name], path)
                orig = getattr(owner, attr)
                wrapper = self._spanned(name, orig, hooks.get(name))
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, wrapper)

        exact_cls = modules["exactreal"].ExactReal
        orig_init = exact_cls.__init__
        counters = self.counters

        def counted_init(obj, *args):
            counters["exactreal.new.calls"] = counters.get("exactreal.new.calls", 0) + 1
            orig_init(obj, *args)

        self._set(exact_cls, "__init__", counted_init)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def defects(self) -> dict[str, list[str]]:
        """Keys of the distinct systems behind each known defect."""
        nonintegral, unreplayable = set(), set()
        for system, verdict in self._verdicts:
            if verdict.feasible:
                if _nonintegral(system, verdict):
                    nonintegral.add(_system_key(system))
            else:
                unreplayable.add(_system_key(system))
        mismatch = {f"{r.name} {row.display}" for r in self._fixture_results
                    for row in r.rows if not row.match or row.solution_ok is False}
        return {"nonintegral": sorted(nonintegral),
                "unreplayable": sorted(unreplayable),
                "mismatch": sorted(mismatch)}

    def spans(self) -> "Spans":
        return Spans(self.names, self.name_col, self.parent_col,
                     self.start_col, self.end_col, dict(self.counters),
                     self.defects(), self.run_id)

    def write(self, path: str):
        self.spans().write(path)


class Spans:
    """The recorded columns plus counters; written as a JSON header line
    followed by the four raw arrays."""

    def __init__(self, names, name_col, parent_col, start_col, end_col,
                 counters, defects, run_id):
        self.names = names
        self.name_col, self.parent_col = name_col, parent_col
        self.start_col, self.end_col = start_col, end_col
        self.counters, self.defects, self.run_id = counters, defects, run_id

    def write(self, path: str):
        header = {"run_id": self.run_id, "names": self.names,
                  "n": len(self.name_col), "counters": self.counters,
                  "defects": self.defects,
                  "columns": ["name:H", "parent:q", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(fh)

    @classmethod
    def read(cls, path: str) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            cols = []
            for code in ("H", "q", "q", "q"):
                col = array.array(code)
                col.fromfile(fh, header["n"])
                cols.append(col)
        return cls(header["names"], *cols, header["counters"],
                   header["defects"], header["run_id"])

    def summary(self) -> dict:
        """Additive totals: calls, inclusive and self time, and counters."""
        names, parents = self.name_col, self.parent_col
        n = len(names)
        dur = [e - s for s, e in zip(self.start_col, self.end_col)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            incl[k] += dur[i]
            self_ns[k] += dur[i] - child[i]
        out = {"calls": {}, "ns": {}, "layer_self_ns": {}, "spans": n,
               "counters": dict(self.counters),
               "defects": {k: list(v) for k, v in self.defects.items()}}
        for k, name in enumerate(self.names):
            out["calls"][name] = calls[k]
            out["ns"][name] = incl[k]
            layer = name.split(".")[0]
            out["layer_self_ns"][layer] = out["layer_self_ns"].get(layer, 0) + self_ns[k]
        ids = {name: k for k, name in enumerate(self.names)}
        solve = ids.get("feasibility.solve")
        under = {"transitions.compatible": 0, "transitions.chain_check": 0}
        if solve is not None:
            for i in range(n):
                p = parents[i]
                if names[i] == solve and p >= 0:
                    parent_name = self.names[names[p]]
                    if parent_name in under:
                        under[parent_name] += 1
        out["solves_under"] = under
        return out


def combine(summaries: list[dict]) -> dict:
    """Sum several summaries (one per process) into one."""
    total = {"calls": {}, "ns": {}, "layer_self_ns": {}, "spans": 0,
             "counters": {}, "solves_under": {}, "defects": {}}
    for s in summaries:
        total["spans"] += s["spans"]
        for key in ("calls", "ns", "layer_self_ns", "counters", "solves_under"):
            for k, v in s[key].items():
                total[key][k] = total[key].get(k, 0) + v
        for k, v in s["defects"].items():
            total["defects"].setdefault(k, set()).update(v)
    return total


# per-layer metric name -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "exactreal.new.calls": "count",
    "exactreal.cmp.calls": "count",
    "exactreal.cmp.s": "s",
    "exactreal.ceil_mul.calls": "count",
    "exactreal.ceil_mul.s": "s",
    "exactreal.floor_mul.calls": "count",
    "exactreal.floor_mul.s": "s",
    "exactreal.self_s": "s",
    "partitions.s_theta.calls": "count",
    "partitions.s_theta.s": "s",
    "partitions.s_theta.q_requested": "count",
    "partitions.partition_in.calls": "count",
    "partitions.partition_in.s": "s",
    "partitions.self_s": "s",
    "index.floor_step.calls": "count",
    "index.floor_step.s": "s",
    "index.ech_index.calls": "count",
    "index.ech_index.s": "s",
    "index.self_s": "s",
    "ellipsoid.capacities.calls": "count",
    "ellipsoid.capacities.s": "s",
    "ellipsoid.capacities.points": "count",
    "ellipsoid.lattice_count.s": "s",
    "ellipsoid.gen_index.s": "s",
    "ellipsoid.density_report.s": "s",
    "ellipsoid.self_s": "s",
    "linear.Eliminator.add.calls": "count",
    "linear.Eliminator.add.s": "s",
    "linear.fm_solve.calls": "count",
    "linear.fm_solve.s": "s",
    "linear.self_s": "s",
    "feasibility.solve.calls": "count",
    "feasibility.solve.s": "s",
    "feasibility.self_s": "s",
    "feasibility.infeasible_share": "ratio",
    "feasibility.nonintegral_witnesses": "count",
    "feasibility.unreplayable_certificates": "count",
    "fixtures.run_fixture.calls": "count",
    "fixtures.run_fixture.s": "s",
    "fixtures.self_s": "s",
    "fixtures.mismatch_rows": "count",
    "transitions.pair_report.calls": "count",
    "transitions.pair_report.s": "s",
    "transitions.compatible.calls": "count",
    "transitions.compatible.s": "s",
    "transitions.scenarios_built": "count",
    "transitions.solves_per_verdict": "ratio",
    "transitions.chain_joint_solves": "count",
    "transitions.self_s": "s",
    "transitions.deviations": "count",
    "cli.verify_all.s": "s",
    "cli.pairs.s": "s",
    "cli.chains.s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# A time metric of a layer that some workload never reaches reads exactly 0
# there on every run.  The result line keeps only the times that every
# workload measures, plus all counts and ratios; the run prints the rest.
TIMES_ON_EVERY_WORKLOAD = ("exactreal.ceil_mul.s", "exactreal.self_s",
                           "partitions.s_theta.s", "partitions.self_s",
                           "trace.overhead_s")
RESULT = [name for name, unit in PER_LAYER.items()
          if unit != "s" or name in TIMES_ON_EVERY_WORKLOAD]


def per_layer_metrics(total: dict, extra: dict) -> dict:
    """Named per-layer values from a combined summary.

    `extra` supplies what the trace cannot see: `transitions.deviations`
    (from the pairs report) and `trace.overhead_s`.
    """
    calls, ns, counters = total["calls"], total["ns"], total["counters"]
    values: dict = {}
    for name in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls" and head in SPANNED:
            values[name] = calls.get(head, 0)
        elif tail == "s" and head in SPANNED:
            values[name] = ns.get(head, 0) / 1e9
        elif tail == "self_s":
            values[name] = total["layer_self_ns"].get(head, 0) / 1e9
    values["exactreal.new.calls"] = counters.get("exactreal.new.calls", 0)
    values["partitions.s_theta.q_requested"] = counters.get(
        "partitions.s_theta.q_requested", 0)
    values["ellipsoid.capacities.points"] = counters.get(
        "ellipsoid.capacities.points", 0)
    solves = calls.get("feasibility.solve", 0)
    values["feasibility.infeasible_share"] = (
        counters.get("feasibility.infeasible", 0) / solves if solves else 0.0)
    values["feasibility.nonintegral_witnesses"] = len(
        total["defects"].get("nonintegral", ()))
    values["feasibility.unreplayable_certificates"] = len(
        total["defects"].get("unreplayable", ()))
    values["fixtures.mismatch_rows"] = len(total["defects"].get("mismatch", ()))
    values["transitions.scenarios_built"] = counters.get(
        "transitions.scenarios_built", 0)
    compat = calls.get("transitions.compatible", 0)
    values["transitions.solves_per_verdict"] = (
        total["solves_under"].get("transitions.compatible", 0) / compat
        if compat else 0.0)
    values["transitions.chain_joint_solves"] = total["solves_under"].get(
        "transitions.chain_check", 0)
    values["trace.spans"] = total["spans"]
    values.update(extra)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER}


def main(argv=None):
    """Print the summary of a span file: python3 perfbench/tracing.py FILE..."""
    argv = sys.argv[1:] if argv is None else argv
    total = combine([Spans.read(path).summary() for path in argv])
    total["defects"] = {k: len(v) for k, v in total["defects"].items()}
    print(json.dumps(total, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
