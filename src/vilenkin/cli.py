"""Command-line surface: groups, kernels, Lebesgue tables, means, transforms,
verification suites, and sharpness martingales.

Radices are given as a comma pattern repeated cyclically to --levels
(`--m 2,3,4 --levels 6`).  Each subcommand takes only the flags it reads:
every one takes --m, --levels and --out, the table commands --format
json|csv, the commands that compare against bounds --tol, and the commands
that draw random test functions --seed (a PCG64 generator, so repeated
invocations are byte-identical).  CSV is written by one writer with LF line
ends, to stdout and to files alike.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import hardy, io, kernels, means, verify, weights
from .errors import InvalidGroupError, InvalidParamsError, VilenkinError
from .group import GroupSpec, check_grid_points, digits_of, make_group
from .spectral import (
    GridFunction,
    lp_norm_rows,
    random_grid_function,
    transform_forward,
    transform_inverse,
    Spectrum,
)


def _pattern_from_args(args) -> list[int]:
    try:
        pattern = [int(tok) for tok in str(args.m).split(",") if tok]
    except ValueError:
        raise InvalidGroupError(
            f"--m takes comma-separated integer radices, got {args.m!r}") from None
    if not pattern:
        raise InvalidGroupError("--m needs at least one radix")
    return pattern


def _group_from_args(args, min_levels: int = 1) -> GroupSpec:
    pattern = _pattern_from_args(args)
    levels = args.levels
    if levels is None:
        levels = max(len(pattern), min_levels)
    return make_group(pattern, max(levels, min_levels))


def _levels_above(args, n: int) -> int:
    """Least number of levels L >= 1 of the --m pattern with M_L > n."""
    pattern = _pattern_from_args(args)
    make_group(pattern)   # refuses radices below 2 before they are multiplied up
    levels, order = 1, pattern[0]
    while order <= n:
        order *= pattern[levels % len(pattern)]
        levels += 1
    return levels


@contextlib.contextmanager
def _output(path: str):
    """The stream for an output path: stdout for '-', else the file, untranslated,
    opened before the work that fills it and removed if that work fails."""
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidParamsError(f"cannot write output file {path!r}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _emit(args, header, rows, json_obj=None, encode=io.to_json, fh=None) -> None:
    """Write the table to ``fh``, else to --out, as CSV rows or as ``encode(json_obj)``.

    ``json_obj`` defaults to the rows as objects keyed by the header.
    """
    with _output(args.out) if fh is None else contextlib.nullcontext(fh) as fh:
        if args.format == "csv":
            io.write_csv(fh, header, rows)
        else:
            obj = json_obj if json_obj is not None else [dict(zip(header, r)) for r in rows]
            print(encode(obj), file=fh)


def cmd_group(args) -> int:
    g = _group_from_args(args)
    rows = [[k, g.m[k], g.M[k + 1]] for k in range(g.levels)]
    _emit(args, ["k", "m_k", "M_k+1"], rows,
          json_obj={"m": list(g.m), "M": list(g.M), "lambda": g.lam})
    return 0


def cmd_kernel(args) -> int:
    g = _group_from_args(args, min_levels=max(args.res or 1, _levels_above(args, args.n)))
    n = args.n
    N = args.res
    if args.kind == "dirichlet":
        f = kernels.dirichlet(g, n, N)
    elif args.kind == "fejer":
        f = kernels.fejer(g, n, N)
    else:
        kind = args.kind.replace("-", "_")
        kernels._resolve(g, n, N)   # an oversized grid is refused before q is built
        f = kernels.mean_kernel(g, kind, n, N, **_mean_params(args, kind, n))
    _emit(args, ["x-index", "re", "im"], io.kernel_csv_rows(f), json_obj=io.grid_to_dict(f))
    return 0


def _mean_params(args, kind: str, n: int) -> dict:
    """The parameters of a summation kind, read from the arguments of the same name."""
    return {name: _weights_from_args(args, n) if name == "q" else getattr(args, name)
            for name in means.param_names(kind)}


def _weights_from_args(args, n: int) -> weights.WeightSequence:
    desc = getattr(args, "q", "ones") or "ones"
    if desc == "ones":
        return weights.ones(n + 1)
    try:
        if desc.startswith("power:"):
            return weights.power_weights(float(desc.split(":", 1)[1]), n + 1)
        if desc.startswith("log:"):
            return weights.log_weights(float(desc.split(":", 1)[1]), n + 1)
        return weights.from_values([float(t) for t in desc.split(",")])
    except VilenkinError:
        raise
    except ValueError:   # a token that is not a number
        raise InvalidParamsError(f"--q takes ones, power:ALPHA, log:ALPHA or comma-separated "
                                 f"weights, got {desc!r}") from None


def _check_tol(args) -> None:
    if not 0 <= args.tol < float("inf"):
        raise InvalidParamsError(f"--tol must be a finite number >= 0, got {args.tol}")


def cmd_lebesgue(args) -> int:
    _check_tol(args)
    g = _group_from_args(args, min_levels=_levels_above(args, args.max_n) + 1)
    L = kernels.lebesgue_batch(g, args.max_n)
    rows = []
    for n in range(1, args.max_n + 1):
        nd = digits_of(n, g)
        b = kernels.lebesgue_bounds(nd, variant=args.variant)
        ok = b.lower - args.tol <= L[n] <= b.upper + args.tol
        rows.append([n, L[n], b.v, b.vstar, b.lower, b.upper, "pass" if ok else "fail"])
    _emit(args, ["n", "L_n", "v", "vstar", "lower", "upper", "pass"], rows)
    return 0


def _input_function(args, g: GroupSpec) -> GridFunction:
    """The grid file --input, else the seeded random function at --res."""
    if args.input:
        return io.load_grid(args.input, g)
    return random_grid_function(g, args.res, seed=args.seed)


def cmd_mean(args) -> int:
    f = _input_function(args, _group_from_args(args, min_levels=args.res))
    # the sweep refuses M_N + 1 as it would any larger order, so q and the
    # orders stop there instead of growing with --max-n
    top = min(args.max_n, f.group.order(f.resolution) + 1)
    kw = _mean_params(args, args.kind, top)
    orders = range(means.first_order(args.kind), top + 1)
    rows = []
    for _, ns, vals in means.mean_blocks(f, args.kind, orders, **kw):
        reps = f.values.size // vals.shape[1]
        rows.extend([n, float(lp_norm_rows(np.tile(row, reps) - f.values, args.p))]
                    for n, row in zip(ns, vals))
    _emit(args, ["n", "error"], rows)
    return 0


def cmd_transform(args) -> int:
    f = _input_function(args, _group_from_args(args, min_levels=args.res or 1))
    if args.inverse:
        out = transform_inverse(Spectrum(f.group, f.resolution, f.values))
    else:
        out = GridFunction(f.group, f.resolution, transform_forward(f).coeffs)
    _emit(args, ["index", "re", "im"], io.kernel_csv_rows(out), json_obj=io.grid_to_dict(out))
    return 0


# The least values `verify` accepts: the divergence suite builds its
# martingale on verify.DIVERGENCE_RANK levels, and the suites refuse n_max
# below verify.MIN_N_MAX.
VERIFY_MINIMUMS = {"levels": verify.DIVERGENCE_RANK, "max_n": verify.MIN_N_MAX, "samples": 1}


def cmd_verify(args) -> int:
    _check_tol(args)
    for name, least in VERIFY_MINIMUMS.items():
        value = getattr(args, name)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise InvalidParamsError(f"verify needs {flag} >= {least}, got {value}")
    g = _group_from_args(args, min_levels=VERIFY_MINIMUMS["levels"])
    names = tuple(verify.RUNNERS) if args.suite == "all" else tuple(args.suite.split(","))
    for name in names:
        if name not in verify.RUNNERS:
            raise InvalidParamsError(
                f"unknown suite {name!r}; choose from {', '.join(verify.RUNNERS)} or all")
    if "divergence" in names:
        check_grid_points(g, VERIFY_MINIMUMS["levels"])
    records = []
    with _output(args.out) as fh:
        for name in names:
            records.extend(verify.run_suite(name, g, n_max=args.max_n, tol=args.tol,
                                            seed=args.seed, samples=args.samples))
        _emit(args, *io.records_csv_rows(records), records, io.records_to_json, fh)
    hard_failures = [r for r in records if r.passed is False]
    for r in hard_failures:
        print(f"FAIL {r.claim} {r.params}", file=sys.stderr)
    return 1 if hard_failures else 0


def cmd_counterexample(args) -> int:
    try:
        alphas = [int(t) for t in args.alpha.split(",") if t]
    except ValueError:
        raise InvalidParamsError(
            f"--alpha takes comma-separated integer block levels, got {args.alpha!r}") from None
    g = _group_from_args(args, min_levels=max(args.rank, 1))
    out_prefix = args.out if args.out != "-" else "counterexample"
    with _output(f"{out_prefix}.martingale.json") as mart_fh, \
            _output(f"{out_prefix}.probe.csv") as probe_fh:
        mart = hardy.counterexample(g, args.kind, alphas, rank=args.rank, p=args.p)
        if args.kind == "hp-blocks":
            gaps = hardy.gap_report(g, alphas, args.p)
            flags = [f"a={row['alpha']}:"
                     + ("ok" if row.get("separation_ok", True) else "separation-gap-unmet")
                     for row in gaps["rows"]]
            print("block gap conditions (reported, not enforced): " + ", ".join(flags),
                  file=sys.stderr)
        io.save_martingale(mart, mart_fh)
        rows = verify.tmean_block_probe(mart, args.p, alphas)
        table = [[r["n"], r["weak_lp"], r["bound"]] for r in rows]
        io.write_csv(probe_fh, ["n", "weak_lp", "bound"], table)
    print(f"wrote {out_prefix}.martingale.json and {out_prefix}.probe.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vilenkin",
                                 description="Fourier analysis on bounded Vilenkin groups")
    sub = ap.add_subparsers(dest="command", required=True)
    # parents: each subcommand takes the flag groups it reads
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--m", default="2", help="radix pattern, e.g. 2 or 2,3,4")
    group.add_argument("--levels", type=int, default=None,
                       help="number of levels (pattern repeats)")
    group.add_argument("--out", default="-", help="output path ('-' for stdout)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=2024, help="PRNG seed for random functions")

    p = sub.add_parser("group", help="print the number system of a group",
                       parents=[group, fmt])
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("kernel", help="tabulate a kernel",
                       parents=[group, fmt])
    p.add_argument("--kind", required=True,
                   choices=("dirichlet", "fejer", "norlund", "tmean", "riesz-log", "norlund-log"),
                   help="kernel family")
    p.add_argument("--n", type=int, required=True, help="kernel order n")
    p.add_argument("--res", type=int, default=None, help="resolution (defaults to minimal)")
    p.add_argument("--q", default="ones", help="weights: ones, power:a, log:a, or a comma list")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("lebesgue", help="Lebesgue constants with variation bounds",
                       parents=[group, fmt])
    p.add_argument("--tol", type=float, default=1e-10, help="slack of the bound checks")
    p.add_argument("--max-n", type=int, default=64, help="largest order n tabulated")
    p.add_argument("--variant", choices=("literal", "corrected"), default="literal",
                   help="digit variation v: from j = 1 (tabulated) or j = 0 (holds for every n)")
    p.set_defaults(fn=cmd_lebesgue)

    p = sub.add_parser("mean", help="convergence table ||mean_n f - f||_p",
                       parents=[group, fmt, seed])
    p.add_argument("--kind", default="fejer", choices=tuple(means._KINDS), help="summation method")
    p.add_argument("--max-n", type=int, default=32, help="largest order n")
    p.add_argument("--res", type=int, default=5, help="resolution of the random input")
    p.add_argument("--p", type=float, default=2.0, help="exponent of the L_p error")
    p.add_argument("--alpha", type=float, default=0.5, help="alpha of the cesaro, u and v means")
    p.add_argument("--q", default="ones",
                   help="norlund and tmean weights: ones, power:a, log:a, or a comma list")
    p.add_argument("--input", default=None, help="grid-function JSON input")
    p.set_defaults(fn=cmd_mean)

    p = sub.add_parser("transform", help="forward or inverse transform of a grid file",
                       parents=[group, fmt, seed])
    p.add_argument("--res", type=int, default=5, help="resolution of the random input")
    p.add_argument("--input", default=None, help="grid-function JSON input")
    p.add_argument("--inverse", action="store_true",
                   help="read the values as coefficients and synthesize the grid")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("verify", help="run verification suites",
                       parents=[group, fmt, seed])
    p.add_argument("--tol", type=float, default=1e-10,
                   help="tolerance of the inequalities suite; the identities suite "
                        "takes tol/100, at least 1e-12 (no other suite reads it)")
    p.add_argument("--suite", default="all",
                   help="comma list of suites or 'all' "
                        f"(available: {', '.join(verify.RUNNERS)})")
    p.add_argument("--max-n", type=int, default=64, help="largest kernel order n checked")
    p.add_argument("--samples", type=int, default=20,
                   help="random functions per sampled inequality (Young, Watari)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("counterexample", help="build a sharpness martingale and probe it",
                       parents=[group])
    p.add_argument("--kind", required=True, choices=hardy.COUNTEREXAMPLE_KINDS,
                   help="block spectrum of the martingale")
    p.add_argument("--alpha", default="1,2,3", help="block levels, comma separated")
    p.add_argument("--p", type=float, default=0.4, help="exponent of the H_p probe")
    p.add_argument("--rank", type=int, default=8, help="resolution of the martingale")
    p.set_defaults(fn=cmd_counterexample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()   # a closed reader shows here, not at interpreter exit
        return code
    except VilenkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send the buffered rest to
        # devnull so the flush at exit cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
