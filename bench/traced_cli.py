"""Run the ``vilenkin`` command line with spans around its layer calls.

Usage: ``python3 bench/traced_cli.py verify --suite all ...`` with the
source tree on PYTHONPATH.  Standard output is exactly what
``python3 -m vilenkin.cli`` prints for the same arguments.  When the run
ends, the spans and the import time of ``vilenkin.cli`` are written as JSON
to the file named by BENCH_SPANS; BENCH_TASK and BENCH_PROC label them.
"""

import json
import os
import sys
import time

from tracer import Tracer

t0 = time.perf_counter_ns()
import vilenkin.cli  # noqa: E402  (timed import)

import_ns = time.perf_counter_ns() - t0


def main() -> int:
    tracer = Tracer(proc=int(os.environ.get("BENCH_PROC", "0")))
    tracer.task = int(os.environ.get("BENCH_TASK", "0"))
    tracer.install()
    try:
        code = vilenkin.cli.main(sys.argv[1:])
    finally:
        tracer.remove()
        sys.stdout.flush()
        path = os.environ.get("BENCH_SPANS")
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"import_ms": import_ns / 1e6, "spans": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
