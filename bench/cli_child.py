"""The ``mobilitylab`` console script with the benchmark's tracer installed.

    cli_child.py TRACE_OUT OP_ID [mobilitylab arguments...]

Runs ``mobilitylab.cli.main`` on the arguments exactly as the installed
command does (same stdout, stderr and exit code) and writes the tracer's
totals, spans and the package import time to TRACE_OUT as JSON.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mobilitylab.cli  # noqa: E402  (timed: this is the cold import)
IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_op(op_id, "cli", mobilitylab.cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
