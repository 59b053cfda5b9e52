"""Run one timed stretch of work in this fresh interpreter, with the
host-speed probe running beside it.

    python3 perfbench/timed_child.py TIMES_FILE cli echkit-arguments...
    python3 perfbench/timed_child.py TIMES_FILE setup WORKLOAD SEED

`cli` runs one echkit command; its output and exit status are those of
`echkit` itself.  `setup` is a workload's set-up: for `tables` the import
and the registry load, for a batch workload the import, input generation and
warm-up.  The work runs inside a `calibrate.Rescaler` (interpreter start
comes before it), and the Rescaler's wall, rescaled and probe times are
written to TIMES_FILE as JSON.
"""

import json
import sys

import calibrate


def setup(workload: str, seed: str) -> int:
    if workload == "tables":
        from echkit import fixtures

        fixtures.load_registry()
    else:
        import batch

        batch.setup(workload, int(seed))
    return 0


def cli(*args: str) -> int:
    from echkit.cli import main

    return main(list(args))


def main() -> int:
    times_file, mode, *args = sys.argv[1:]
    run = {"cli": cli, "setup": setup}[mode]
    rescaler = calibrate.Rescaler()
    try:
        with rescaler:
            return run(*args)
    finally:
        sys.stdout.flush()
        with open(times_file, "w") as fh:
            json.dump({"wall": rescaler.wall, "scaled": rescaler.scaled,
                       "probe_s": rescaler.probe_s, "samples": rescaler.samples}, fh)


if __name__ == "__main__":
    sys.exit(main())
