"""Benchmark of the ``vilenkin`` package: four closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``transform-roundtrip``: forward + inverse transform on [2]^17, [3]^11,
  [5]^7 and [2,3,4]^11;
* ``maximal-sweep``: two weighted maximal operators and one H_p strong sum
  over n = 1..124 on [5]^6;
* ``lebesgue-table``: Lebesgue and Fejer L1 tables, variation bounds and
  closed-form spot values on the acceptance groups;
* ``verify-cli``: ``vilenkin verify --suite all --format json`` on the
  three acceptance groups, one process each.

With ``--trace 0`` the run starts three worker processes one after another,
each measuring a third of ``--seconds``, and reports the end-to-end metrics:
set-up time (median over the workers), throughput, task latency p50/p90,
the fraction of tasks whose output passed its check, and peak RSS.  With
``--trace 1`` one worker runs a fixed number of traced tasks, then untraced
ones, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance and details of the run, which are also written to
``.bench_out/``.  The program is used from ``src/`` of the checkout; nothing
is installed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clitask
from tracer import METRICS as LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("transform-roundtrip", "maximal-sweep", "lebesgue-table", "verify-cli")
WORKERS = 3          # set-up is measured once per worker; setup_s is their median
P90_MIN_TASKS = 100  # fewer tasks leave p90 unresolved (reported, and flagged)
DEADLINE_S = 170     # the whole run, set-ups and checks included


def _run_worker(args, seconds: float, first: int, last: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--first", str(first),
           "--trace", str(args.trace), "--last", str(int(last)),
           "--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clitask.child_env(ROOT),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} worker exceeded the run deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _replay_task0(task0: dict) -> bool:
    """Run the first verify-cli task again; its JSON must be byte-identical."""
    outs = []
    for grp, cli_seed in zip(clitask.GROUPS, task0["seeds"]):
        code, out = clitask.run_process(ROOT, clitask.verify_argv(grp, cli_seed))
        outs.append((code, out))
    return all(code == 0 for code, _ in outs) and \
        clitask.digest([o for _, o in outs]) == task0["digest"]


def _p90(lat: list[float]) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    return statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) >= 2 else lat[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "vilenkin" / "__init__.py").is_file():
        print(f"error: no vilenkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS
    results = []
    first = 0
    for w in range(workers):
        res = _run_worker(args, args.seconds / workers, first, w == workers - 1, deadline)
        results.append(res)
        first = res["next_index"]

    lat = [x for r in results for x in r["latencies_ms"]]
    attempted = len(lat)
    failed = sum(r["failed"] for r in results)
    replay_ok = None
    if args.workload == "verify-cli":
        replay_ok = "task0" in results[0] and _replay_task0(results[0]["task0"])
    correct = failed == 0 and replay_ok is not False
    naive = results[-1]["naive_speedup"]

    if args.trace:
        r = results[0]
        layers = dict(r["layers"])
        layers["spectral.naive_speedup"] = naive
        imports = r["import_ms_children"] or [r["import_ms"]]
        layers["cli.import_ms"] = statistics.median(imports)
        untraced = r["latencies_ms"][len(r["traced_ms"]):]
        layers["trace.overhead_frac"] = \
            statistics.median(r["traced_ms"]) / statistics.median(untraced) - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
            "throughput": {"value": attempted / (sum(lat) / 1e3), "unit": "tasks/s"},
            "task_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
            "task_ms_p90": {"value": _p90(lat), "unit": "ms"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "tasks": attempted,
        "task_ms_p90_resolved": attempted >= P90_MIN_TASKS,
        "setup_s_each": [r["setup_s"] for r in results],
        "naive_speedup": naive, "task0_replay_identical": replay_ok,
        "provenance": results[-1]["provenance"],
    }
    if args.trace:
        detail["spans_file"] = results[0]["spans_file"]
        detail["traced_tasks"] = results[0]["traced_tasks"]
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, **out, "latencies_ms": lat}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
