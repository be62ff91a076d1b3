"""Spans around calls into the public functions of each ``vilenkin`` module.

The benchmark records spans from its own files: ``Tracer.install`` wraps the
functions named in ``TARGETS`` and rebinds every ``vilenkin.*`` module
attribute that refers to them (the modules import each other's names with
``from .x import y``, so patching the defining module alone would miss most
calls).  A span is ``(id, parent id, name, start ns, end ns, task, info)``;
spans stay in memory until the run ends.  ``summarize`` turns them into the
per-layer metrics listed in BENCHMARK.json.

Standard library only, so the CLI wrapper can import it before numpy.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import hashlib
import importlib
import json
import sys
import time


def _grid_info(args, kwargs, out):
    """(M_N, N) of the grid function or spectrum being transformed."""
    x = args[0]
    return (x.group.M[x.resolution], x.resolution)


def _mean_info(args, kwargs, out):
    """(M_N, M_{|n|+1}) for a mean of order n of a rank-N function."""
    f, n = args[0], args[1]
    M = f.group.M
    MN = M[f.resolution]
    k = bisect.bisect_right(M, n)  # smallest k with M_k > n
    return (MN, min(M[max(k, 1)], MN) if k < len(M) else MN)


def _digit_info(args, kwargs, out):
    return [list(args[0].m), args[1]]


def _kernel_info(kind: str, weighted: bool):
    """Key of a kernel grid: kind, group, index, resolution and weights."""

    def info(args, kwargs, out):
        n = args[2] if weighted else args[1]
        key = [kind, list(args[0].m), n, out.resolution, kwargs.get("method", "closed")]
        if weighted:
            key.append(hashlib.blake2b(args[1].values.tobytes(), digest_size=8).hexdigest())
        return key

    return info


# (module, attribute, span name, info function).  An attribute "Cls.meth"
# wraps a method on the class.
TARGETS = (
    ("spectral", "transform_forward", "spectral.transform", _grid_info),
    ("spectral", "transform_inverse", "spectral.transform", _grid_info),
    ("spectral", "partial_sum", "means.mean", _mean_info),
    ("means", "fejer_mean", "means.mean", _mean_info),
    ("means", "cesaro_mean", "means.mean", _mean_info),
    ("means", "u_mean", "means.mean", _mean_info),
    ("means", "v_mean", "means.mean", _mean_info),
    ("means", "riesz_log_mean", "means.mean", _mean_info),
    ("means", "norlund_log_mean", "means.mean", _mean_info),
    ("means", "norlund_mean", "means.mean", _mean_info),
    ("means", "t_mean", "means.mean", _mean_info),
    ("means", "t_mean_abel", "means.mean", _mean_info),
    ("means", "weighted_maximal", "means.weighted_maximal", None),
    ("group", "digit_matrix", "group.digit_matrix", _digit_info),
    ("characters", "character_column", "characters.character_column", None),
    ("kernels", "lebesgue_batch", "kernels.table", None),
    ("kernels", "fejer_l1_batch", "kernels.table", None),
    ("kernels", "dirichlet", "kernels.kernel", _kernel_info("dirichlet", False)),
    ("kernels", "fejer", "kernels.kernel", _kernel_info("fejer", False)),
    ("kernels", "norlund_kernel", "kernels.kernel", _kernel_info("norlund_kernel", True)),
    ("kernels", "tmean_kernel", "kernels.kernel", _kernel_info("tmean_kernel", True)),
    ("kernels", "riesz_log_kernel", "kernels.kernel", _kernel_info("riesz_log_kernel", False)),
    ("kernels", "norlund_log_kernel", "kernels.kernel", _kernel_info("norlund_log_kernel", False)),
    ("weights", "from_values", "weights", None),
    ("weights", "from_function", "weights", None),
    ("weights", "ones", "weights", None),
    ("weights", "power_weights", "weights", None),
    ("weights", "log_weights", "weights", None),
    ("weights", "harmonic_number", "weights", None),
    ("weights", "WeightSequence.q", "weights", None),
    ("weights", "WeightSequence.Q", "weights", None),
    ("weights", "WeightSequence.extend", "weights", None),
    ("hardy", "modulus", "hardy.modulus", None),
    ("hardy", "modulus_hp", "hardy.modulus", None),
    ("hardy", "hardy_quasinorm", "hardy.quasinorm", None),
    ("hardy", "hardy_quasinorm_fn", "hardy.quasinorm", None),
    ("hardy", "regular_martingale", "hardy.martingale", None),
    ("hardy", "tail_martingale", "hardy.martingale", None),
    ("hardy", "atom_martingale", "hardy.martingale", None),
    ("hardy", "counterexample", "hardy.martingale", None),
    ("verify", "run_identity_suite", "verify.identities", None),
    ("verify", "run_inequality_suite", "verify.inequalities", None),
    ("verify", "run_kernel_lemma_suite", "verify.kernel-lemmas", None),
    ("verify", "run_strong_suite", "verify.strong", None),
    ("verify", "run_divergence_suite", "verify.divergence", None),
    ("io", "records_to_json", "io.records_to_json", None),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
METRICS = (
    ("spectral.transform.calls", "count"),
    ("spectral.transform.self_ms", "ms"),
    ("spectral.transform.points", "count"),
    ("spectral.transform.ns_per_point_stage", "ns"),
    ("spectral.transform.bytes_computed", "B"),
    ("spectral.naive_speedup", "x"),
    ("means.mean.calls", "count"),
    ("means.mean.self_ms", "ms"),
    ("means.resolution_excess", "ratio"),
    ("means.weighted_maximal.self_ms", "ms"),
    ("group.digit_matrix.calls", "count"),
    ("group.digit_matrix.self_ms", "ms"),
    ("group.digit_matrix.repeat_frac", "ratio"),
    ("characters.character_column.calls", "count"),
    ("characters.character_column.self_ms", "ms"),
    ("kernels.table.self_ms", "ms"),
    ("kernels.kernel.calls", "count"),
    ("kernels.kernel.self_ms", "ms"),
    ("kernels.kernel.distinct_frac", "ratio"),
    ("weights.self_ms", "ms"),
    ("hardy.modulus.self_ms", "ms"),
    ("hardy.quasinorm.self_ms", "ms"),
    ("hardy.martingale.self_ms", "ms"),
    ("verify.identities.ms", "ms"),
    ("verify.inequalities.ms", "ms"),
    ("verify.kernel-lemmas.ms", "ms"),
    ("verify.strong.ms", "ms"),
    ("verify.divergence.ms", "ms"),
    ("io.records_to_json.ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """In-memory span recorder.

    ``task`` labels the spans of the running task; while ``recording`` is
    false the wrappers call straight through (the benchmark's own checks).
    """

    def __init__(self, proc: int = 0) -> None:
        self.proc = proc
        self.task = -1
        self.recording = True
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1
        self._bindings: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.task, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, self.task,
                          info(args, kwargs, out) if info else None))
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each module attribute that refers to it."""
        if self._bindings:
            return
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "vilenkin" or n.startswith("vilenkin."))]
        for modname, attr, name, info in TARGETS:
            mod = importlib.import_module(f"vilenkin.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._bindings.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, info))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, info)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._bindings.append((m, key, orig))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for owner, key, orig in reversed(self._bindings):
            setattr(owner, key, orig)
        self._bindings.clear()

    def export(self) -> list[list]:
        """Spans as JSON-ready lists, tagged with this tracer's process number."""
        return [[self.proc, *s] for s in self.spans]


def write_spans(path, spans: list[list]) -> None:
    """One JSON list per line: proc, id, parent, name, start, end, task, info."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def summarize(spans: list[list], tasks: int) -> dict[str, float]:
    """Per-layer metrics from exported spans of ``tasks`` traced tasks.

    Counts and times are per task; ratios are taken over all traced tasks.
    Self time is a span's duration minus the durations of its direct
    children, which never overlap in this single-threaded program.
    """
    child_ns: dict[tuple, int] = {}
    for proc, sid, parent, name, t0, t1, task, info in spans:
        child_ns[(proc, parent)] = child_ns.get((proc, parent), 0) + (t1 - t0)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    points = stage_points = 0
    mean_full = mean_min = 0
    seen_digit: set = set()
    digit_repeats = 0
    seen_kernel: set = set()
    for proc, sid, parent, name, t0, t1, task, info in spans:
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns.get((proc, sid), 0)
        if info is None:
            continue
        if name == "spectral.transform":
            points += info[0]
            stage_points += info[0] * info[1]
        elif name == "means.mean":
            mean_full += info[0]
            mean_min += info[1]
        elif name == "group.digit_matrix":
            key = (proc, task, json.dumps(info))
            digit_repeats += key in seen_digit
            seen_digit.add(key)
        elif name == "kernels.kernel":
            seen_kernel.add((proc, task, json.dumps(info)))

    def per_task(x: float) -> float:
        return x / tasks

    def ms(name: str, table=self_ns) -> float:
        return per_task(table.get(name, 0) / 1e6)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "spectral.transform.calls": per_task(calls.get("spectral.transform", 0)),
        "spectral.transform.self_ms": ms("spectral.transform"),
        "spectral.transform.points": per_task(points),
        "spectral.transform.ns_per_point_stage":
            frac(self_ns.get("spectral.transform", 0), stage_points),
        "spectral.transform.bytes_computed": per_task(2 * 16 * stage_points),
        "means.mean.calls": per_task(calls.get("means.mean", 0)),
        "means.mean.self_ms": ms("means.mean"),
        "means.resolution_excess": frac(mean_full, mean_min),
        "means.weighted_maximal.self_ms": ms("means.weighted_maximal"),
        "group.digit_matrix.calls": per_task(calls.get("group.digit_matrix", 0)),
        "group.digit_matrix.self_ms": ms("group.digit_matrix"),
        "group.digit_matrix.repeat_frac":
            frac(digit_repeats, calls.get("group.digit_matrix", 0)),
        "characters.character_column.calls":
            per_task(calls.get("characters.character_column", 0)),
        "characters.character_column.self_ms": ms("characters.character_column"),
        "kernels.table.self_ms": ms("kernels.table"),
        "kernels.kernel.calls": per_task(calls.get("kernels.kernel", 0)),
        "kernels.kernel.self_ms": ms("kernels.kernel"),
        "kernels.kernel.distinct_frac":
            frac(len(seen_kernel), calls.get("kernels.kernel", 0)),
        "weights.self_ms": ms("weights"),
        "hardy.modulus.self_ms": ms("hardy.modulus"),
        "hardy.quasinorm.self_ms": ms("hardy.quasinorm"),
        "hardy.martingale.self_ms": ms("hardy.martingale"),
        "io.records_to_json.ms": ms("io.records_to_json", total_ns),
    }
    for suite in ("identities", "inequalities", "kernel-lemmas", "strong", "divergence"):
        out[f"verify.{suite}.ms"] = ms(f"verify.{suite}", total_ns)
    return out
