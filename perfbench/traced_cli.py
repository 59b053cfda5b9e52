"""Run one echkit command with the tracer installed, then write its spans.

    python3 perfbench/traced_cli.py SPAN_FILE RUN_ID echkit-arguments...

The command's output and exit status are those of `echkit` itself.
"""

import sys

from tracing import Tracer


def main() -> int:
    span_file, run_id, *args = sys.argv[1:]
    tracer = Tracer(run_id).install()
    from echkit.cli import main as echkit_main

    try:
        return echkit_main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(span_file)


if __name__ == "__main__":
    sys.exit(main())
