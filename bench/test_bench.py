"""Self-test of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

It checks that tracing leaves the ``vilenkin verify`` JSON byte-identical,
that the per-layer counts repeat exactly across two traced runs at one seed,
that self time subtracts child spans, and that the benchmark refuses to run
without the package sources.  The traced runs take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import clitask
from tracer import summarize

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("spectral.transform.calls", "spectral.transform.points", "means.mean.calls",
                "means.resolution_excess", "group.digit_matrix.calls", "kernels.kernel.calls")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_verify_json_is_byte_identical_with_and_without_tracing(tmp_path):
    for k, grp in enumerate(clitask.GROUPS):
        argv = clitask.verify_argv(grp, 4242 + k)
        code, plain = clitask.run_process(ROOT, argv)
        spans = tmp_path / f"spans{k}.json"
        tcode, traced = clitask.run_process(ROOT, argv, traced=True,
                                            extra_env={"BENCH_SPANS": str(spans)})
        assert code == tcode == 0
        assert plain == traced
        assert clitask.check_output(grp[0], code, plain)
        assert json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("workload", ["transform-roundtrip", "maximal-sweep",
                                      "lebesgue-table", "verify-cli"])
def test_traced_counts_repeat_at_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["spectral.transform.calls"] > 0 or workload == "lebesgue-table"


def test_self_time_subtracts_direct_children():
    # proc, id, parent, name, start, end, task, info
    spans = [
        [0, 2, 1, "spectral.transform", 10, 40, 0, [8, 3]],
        [0, 3, 1, "spectral.transform", 50, 60, 0, [8, 3]],
        [0, 1, 0, "means.mean", 0, 100, 0, [8, 2]],
    ]
    m = summarize(spans, tasks=1)
    assert m["means.mean.self_ms"] == pytest.approx(60 / 1e6)
    assert m["spectral.transform.self_ms"] == pytest.approx(40 / 1e6)
    assert m["spectral.transform.calls"] == 2
    assert m["spectral.transform.points"] == 16
    assert m["means.resolution_excess"] == 4.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "transform-roundtrip", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
