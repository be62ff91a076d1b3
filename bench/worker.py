"""One benchmark worker: set up, run one workload's tasks in a closed loop, check them.

Started by ``bench/run.py``; not meant to be run by hand.  The worker pins
BLAS and OpenMP to one thread before numpy loads (CLI children inherit the
setting), reports its set-up time against the spawn time the parent passes
in, runs tasks until its share of ``--seconds`` is used, checks every task's
output outside the timed window, and prints one JSON object.

Every task of a workload has the same shape; its inputs are fresh and come
from ``--seed`` and the task's input index, so no two tasks of a run share
an input and the same seed gives the same inputs.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import clitask  # noqa: E402
from tracer import Tracer, summarize, write_spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Acceptance-suite tolerances (tests/test_acceptance.py), unchanged.
ROUNDTRIP_TOL = 1e-12
PLANCHEREL_TOL = 1e-10
NAIVE_TOL = 1e-10
CONVOLUTION_TOL = 1e-10
BOUND_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12

# Traced tasks per traced run; their inputs are fixed by the seed, so the
# counts they produce repeat exactly.
TRACED_TASKS = {"transform-roundtrip": 10, "maximal-sweep": 3,
                "lebesgue-table": 3, "verify-cli": 2}


def _import_vilenkin() -> float:
    """Import the whole package (numpy included); returns the time in ms."""
    t0 = time.perf_counter_ns()
    global np, group, spectral, means, weights, kernels, verify, hardy
    import numpy as np
    import vilenkin.cli  # noqa: F401  (imports every module the CLI uses)
    from vilenkin import group, hardy, kernels, means, spectral, verify, weights
    return (time.perf_counter_ns() - t0) / 1e6


def _rng(seed: int, workload: str, *key: int):
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), *key])


def _complex_values(rng, size: int):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class Workload:
    """One task shape: ``make_input`` (untimed), ``run`` (timed), ``check`` (untimed)."""

    name = ""
    in_process = True   # False: the tasks run in child processes

    def __init__(self, seed: int):
        self.seed = seed
        self.task = 0          # input index of the running task
        self.traced = False    # set while traced tasks run
        self.child_spans: list = []
        self.child_import_ms: list[float] = []

    def setup(self) -> None:
        pass

    def warm_up(self, inp) -> None:
        self.run(inp)


class TransformRoundtrip(Workload):
    """Forward then inverse transform of a fresh function on four 1-3 MiB grids."""

    name = "transform-roundtrip"
    GRIDS = (([2], 17), ([3], 11), ([5], 7), ([2, 3, 4], 11))
    # the largest grid of each pattern with at most 256 points, for naive_forward
    SMALL = (([2], 8), ([3], 5), ([5], 3), ([2, 3, 4], 5))

    def setup(self) -> None:
        self.groups = [group.make_group(p, L) for p, L in self.GRIDS]
        self.small = [group.make_group(p, L) for p, L in self.SMALL]

    def describe(self) -> dict:
        return {"grids": [{"m": p, "levels": L, "points": g.order(L)}
                          for (p, L), g in zip(self.GRIDS, self.groups)],
                "naive_check_points": [g.order(g.levels) for g in self.small]}

    def make_input(self, index: int):
        rng = _rng(self.seed, self.name, index)
        fs = [spectral.GridFunction(g, g.levels, _complex_values(rng, g.order(g.levels)))
              for g in self.groups]
        gs = self.small[index % len(self.small)]
        small = spectral.GridFunction(gs, gs.levels, _complex_values(rng, gs.order(gs.levels)))
        return fs, small

    def run(self, inp):
        out = []
        for f in inp[0]:
            s = spectral.transform_forward(f)
            out.append((s, spectral.transform_inverse(s)))
        return out

    def check(self, inp, out) -> bool:
        fs, small = inp
        for f, (s, back) in zip(fs, out):
            if np.abs(back.values - f.values).max() > ROUNDTRIP_TOL:
                return False
            energy = (np.abs(f.values) ** 2).mean() - (np.abs(s.coeffs) ** 2).sum()
            if abs(energy) > PLANCHEREL_TOL:
                return False
        fast = spectral.transform_forward(small).coeffs
        return float(np.abs(fast - spectral.naive_forward(small).coeffs).max()) <= NAIVE_TOL


class MaximalSweep(Workload):
    """Three order sweeps n = 1..124 on a fresh function on [5]^6."""

    name = "maximal-sweep"
    N_MAX = 124
    P = 0.4
    CHECK_ORDERS = 2

    def setup(self) -> None:
        self.g = group.make_group([5], 6)

    def describe(self) -> dict:
        return {"grid": {"m": [5], "levels": 6, "points": self.g.order(6)},
                "orders": [1, self.N_MAX], "p": self.P,
                "operators": ["weighted_maximal fejer power_log_weight(0.4, with_log=False)",
                              "weighted_maximal tmean power_weights(0.5, 124)",
                              "strong_sum riesz_log hp p=0.4"]}

    def make_input(self, index: int):
        rng = _rng(self.seed, self.name, index)
        f = spectral.GridFunction(self.g, 6, _complex_values(rng, self.g.order(6)))
        orders = rng.choice(range(1, self.N_MAX + 1), self.CHECK_ORDERS, replace=False)
        return f, [int(n) for n in orders]

    def _strong_weight(self, k: int) -> float:
        return math.log(k) ** self.P * k ** (2.0 * self.P - 2.0)

    def run(self, inp):
        f = inp[0]
        orders = range(1, self.N_MAX + 1)
        wfun = means.power_log_weight(self.P, with_log=False)
        fejer_max = means.weighted_maximal(f, "fejer", orders, weight=wfun)
        t_max = means.weighted_maximal(f, "tmean", orders,
                                       q=weights.power_weights(0.5, self.N_MAX))
        rows = verify.strong_sum(f, "riesz_log", self.P, self._strong_weight, self.N_MAX,
                                 norm_source="hp")
        return fejer_max, t_max, rows

    def check(self, inp, out) -> bool:
        f, orders = inp
        fejer_max, t_max, rows = out
        wfun = means.power_log_weight(self.P, with_log=False)
        for n in orders:
            sigma = means.fejer_mean(f, n).values
            kern = hardy.embed(kernels.fejer(self.g, n), f.resolution)
            oracle = spectral.convolve(f, kern).values
            if np.abs(sigma - oracle).max() > CONVOLUTION_TOL:
                return False
            if (fejer_max.values.real - np.abs(sigma) / wfun(n)).min() < -CONVOLUTION_TOL:
                return False
        return bool(np.isfinite(t_max.values).all()) and all(
            math.isfinite(r["cumulative"]) and r["cumulative"] > 0 for r in rows)


class LebesgueTable(Workload):
    """Lebesgue and Fejer L1 tables up to a seeded n_max on the acceptance groups."""

    name = "lebesgue-table"
    GROUPS = (("m2", [2], 12), ("m3", [3], 9), ("m234", [2, 3, 4], 9))
    N_MAX_RANGE = (960, 1023)   # one minimal resolution per group over the range
    SAMPLES = 8

    def setup(self) -> None:
        self.groups = [group.make_group(p, L) for _, p, L in self.GROUPS]
        lo, hi = self.N_MAX_RANGE
        # run-wide permutations, so n_max and the sampled n never repeat in a run
        self.n_max = [_rng(self.seed, self.name, 1 << 20, k).permutation(range(lo, hi + 1))
                      for k in range(len(self.groups))]
        self.sample_n = [_rng(self.seed, self.name, 1 << 21, k).permutation(range(1, lo))
                         for k in range(len(self.groups))]

    def capacity(self) -> int:
        return min(len(self.n_max[0]), len(self.sample_n[0]) // self.SAMPLES)

    def describe(self) -> dict:
        return {"groups": [{"name": n, "m": p, "levels": L} for n, p, L in self.GROUPS],
                "n_max_range": list(self.N_MAX_RANGE), "samples_per_group": self.SAMPLES,
                "inputs_per_run": self.capacity()}

    def make_input(self, index: int):
        if index >= self.capacity():
            return None
        s = slice(self.SAMPLES * index, self.SAMPLES * (index + 1))
        return [(int(self.n_max[k][index]), [int(n) for n in self.sample_n[k][s]])
                for k in range(len(self.groups))]

    def run(self, inp):
        out = []
        for g, (n_max, sample) in zip(self.groups, inp):
            L = kernels.lebesgue_batch(g, n_max)
            bounds = [kernels.lebesgue_bounds(group.digits_of(n, g), "corrected")
                      for n in range(1, n_max + 1)]
            K1 = kernels.fejer_l1_batch(g, n_max // 2)
            closed = [kernels.lebesgue_constant(g, n) for n in sample]
            out.append((L, bounds, K1, closed))
        return out

    def check(self, inp, out) -> bool:
        for (name, _, _), (_, sample), (L, bounds, K1, closed) in zip(self.GROUPS, inp, out):
            if any(not b.lower - BOUND_TOL <= L[b.n] <= b.upper + BOUND_TOL for b in bounds):
                return False
            if any(abs(L[n] - c) > CLOSED_FORM_TOL for n, c in zip(sample, closed)):
                return False
            if name == "m2" and K1[1:].max() > 2.0 + BOUND_TOL:
                return False
        return True


class VerifyCli(Workload):
    """Three fresh ``vilenkin verify --suite all`` processes, one per acceptance group."""

    name = "verify-cli"
    in_process = False

    def describe(self) -> dict:
        return {"groups": [{"name": n, "m": m, "levels": L} for n, m, L in clitask.GROUPS],
                "command": "vilenkin verify --suite all --format json --m M --levels L --seed S"}

    def make_input(self, index: int):
        return clitask.cli_seeds(self.seed, index)

    def warm_up(self, inp) -> None:
        """One untimed process: the first group of the warm-up input."""
        clitask.run_process(ROOT, clitask.verify_argv(clitask.GROUPS[0], inp[0]))

    def run(self, inp):
        outs = []
        for grp, cli_seed in zip(clitask.GROUPS, inp):
            argv = clitask.verify_argv(grp, cli_seed)
            if not self.traced:
                outs.append(clitask.run_process(ROOT, argv))
                continue
            with tempfile.NamedTemporaryFile(dir=_out_dir(), suffix=".json", delete=False) as fh:
                path = fh.name
            try:
                outs.append(clitask.run_process(ROOT, argv, traced=True, extra_env={
                    "BENCH_SPANS": path, "BENCH_TASK": str(self.task),
                    "BENCH_PROC": str(1 + len(self.child_import_ms))}))
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                self.child_spans.extend(data["spans"])
                self.child_import_ms.append(data["import_ms"])
            finally:
                os.unlink(path)
        return outs

    def check(self, inp, out) -> bool:
        return all(clitask.check_output(grp[0], code, stdout)
                   for grp, (code, stdout) in zip(clitask.GROUPS, out))


WORKLOADS = {w.name: w for w in (TransformRoundtrip, MaximalSweep, LebesgueTable, VerifyCli)}


def _out_dir() -> Path:
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def _loop(wl, index: int, seconds: float, min_tasks: int, count: int | None = None,
          tracer: Tracer | None = None):
    """Closed loop: one task at a time until the time (or count) is used up.

    Returns (latencies in ms, failed tasks, next input index, first task as
    (input, output)).  Checks run after each task, outside its timed window.
    The window is rounded to whole tasks: a task starts only if, judged by
    the previous one, it would end less than half a task past the window.
    """
    lat: list[float] = []
    failed = 0
    first = None
    end = time.perf_counter() + seconds
    last_wall = 0.0
    while True:
        started = time.perf_counter()
        if count is not None:
            if len(lat) >= count:
                break
        elif len(lat) >= min_tasks and started + last_wall / 2 > end:
            break
        inp = wl.make_input(index)
        if inp is None:
            break
        wl.task = index
        if tracer is not None:
            tracer.task = index
        index += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # a failed operation counts against ok_frac; keep running
            lat.append((time.perf_counter() - t0) * 1e3)
            failed += 1
            traceback.print_exc()
            continue
        lat.append((time.perf_counter() - t0) * 1e3)
        if first is None:
            first = (inp, out)
        if tracer is not None:
            tracer.recording = False
        try:
            ok = wl.check(inp, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if tracer is not None:
            tracer.recording = True
        failed += not ok
        last_wall = time.perf_counter() - started
    return lat, failed, index, first


def _naive_speedup(seed: int) -> float:
    """naive_forward time over transform_forward time on [2]^12 (acceptance criterion 05)."""
    if "vilenkin.spectral" not in sys.modules:
        _import_vilenkin()
    g = group.make_group([2], 12)
    f = spectral.GridFunction(g, 12, _complex_values(_rng(seed, "naive-speedup"), g.order(12)))
    t0 = time.perf_counter()
    spectral.naive_forward(f)
    t_naive = time.perf_counter() - t0
    spectral.transform_forward(f)
    fast = []
    for _ in range(5):
        t0 = time.perf_counter()
        spectral.transform_forward(f)
        fast.append(time.perf_counter() - t0)
    return t_naive / statistics.median(fast)


def _provenance(seed: int, wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "workload": wl.describe(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first", type=int, default=0, help="first input index to use")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() just before this worker was started")
    ap.add_argument("--last", type=int, choices=(0, 1), default=1,
                    help="1: also measure the naive-transform speedup and record provenance")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    import_ms = _import_vilenkin() if wl.in_process else None
    wl.setup()
    index = args.first
    warm = wl.make_input(index)
    index += 1
    wl.warm_up(warm)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

    res = {"setup_s": setup_s, "import_ms": import_ms}
    if args.trace:
        tracer = Tracer()
        count = TRACED_TASKS[wl.name]
        t_start = time.perf_counter()
        if wl.in_process:
            tracer.install()
        wl.traced = True
        traced_lat, traced_failed, index, first = _loop(wl, index, 0, 0, count=count,
                                                        tracer=tracer)
        wl.traced = False
        tracer.remove()
        rest = max(args.seconds - (time.perf_counter() - t_start), 0.0)
        lat, failed, index, _ = _loop(wl, index, rest, min_tasks=3)
        spans = tracer.export() + wl.child_spans
        res.update(traced_ms=traced_lat, traced_tasks=count,
                   import_ms_children=wl.child_import_ms)
        res["layers"] = summarize(spans, count)
        span_path = _out_dir() / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        write_spans(span_path, spans)
        res["spans_file"] = str(span_path.relative_to(ROOT))
        lat, failed = traced_lat + lat, traced_failed + failed
    else:
        lat, failed, index, first = _loop(wl, index, args.seconds, min_tasks=1)

    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    res["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    res.update(latencies_ms=lat, failed=failed, next_index=index)
    if wl.name == "verify-cli" and first is not None:
        res["task0"] = {"seeds": first[0], "digest": clitask.digest([o for _, o in first[1]])}
    if args.last:
        res["naive_speedup"] = _naive_speedup(args.seed)
        res["provenance"] = _provenance(args.seed, wl)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
