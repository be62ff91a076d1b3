"""The level-batched n-sweep against the full-grid oracle path.

``means.mean_blocks`` evaluates the means of order n <= M_j as rows of
(orders, M_j) blocks, on the M_j points of the rank-j coset averages; the
per-order functions evaluate one mean on all M_N points.  Every consumer of
the sweep is compared here with a full-grid reference loop at 1e-12.
"""

import bisect
import json
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from vilenkin import means, spectral, verify
from vilenkin import weights as wts
from vilenkin.cli import main
from vilenkin.errors import DomainError, InvalidParamsError, RangeError, VilenkinError
from vilenkin.group import make_group
from vilenkin.hardy import counterexample, hardy_quasinorm_fn
from vilenkin.spectral import (
    coefficient_tails,
    delta,
    inverse_rows,
    lp_norm,
    random_grid_function,
    transform_forward,
    weak_lp,
)

from conftest import mean_by_kind

TOL = 1e-12

GROUPS = {"m2": ([2], 8), "m5": ([5], 4), "m234": ([2, 3, 4], 5)}


def _params(kind: str, n_max: int) -> dict:
    if kind in ("cesaro", "u", "v"):
        return {"alpha": 0.5}
    if kind in ("norlund", "tmean"):
        return {"q": wts.power_weights(0.5, n_max)}
    return {}


KINDS = ("partial_sum", "fejer", "cesaro", "u", "v", "riesz_log", "norlund_log", "norlund",
         "tmean")


@pytest.fixture(scope="module", params=sorted(GROUPS), ids=sorted(GROUPS))
def grid(request):
    pattern, levels = GROUPS[request.param]
    g = make_group(pattern, levels)
    return random_grid_function(g, levels, seed=31)


def _minimal_level(g, n: int) -> int:
    return min(j for j in range(len(g.M)) if g.M[j] >= n)


def _chunks(g, orders) -> int:
    """Number of (level, chunk) blocks a sorted sweep over ``orders`` needs."""
    per_level = Counter(_minimal_level(g, n) for n in orders)
    return sum(-(-count // max(1, means._BLOCK_ENTRIES // g.M[j]))
               for j, count in per_level.items())


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_matches_full_grid_mean(grid, kind):
    g, N = grid.group, grid.resolution
    MN = g.order(N)
    params = _params(kind, MN)
    mean = mean_by_kind(kind, **params)
    orders = range(means.first_order(kind), MN + 1)
    seen = []
    for j, ns, vals in means.mean_blocks(grid, kind, orders, **params):
        assert vals.shape == (len(ns), g.M[j])
        for n, row in zip(ns, vals):
            assert j == _minimal_level(g, n)
            full = mean(grid, n)
            assert np.abs(np.tile(row, MN // g.M[j]) - full.values).max() <= TOL, n
        seen.extend(ns)
    # every order, so each block edge M_j, M_j + 1 and M_N is among them
    assert seen == list(orders)


def test_blocks_are_runs_of_one_level(grid):
    g = grid.group
    orders = [3, 1, 2, 2, 5, 4, 3]
    blocks = [(j, ns) for j, ns, _ in means.mean_blocks(grid, "fejer", orders)]
    levels = [_minimal_level(g, n) for n in orders]
    expect, start = [], 0
    for i in range(1, len(orders) + 1):
        if i == len(orders) or levels[i] != levels[start]:
            expect.append((levels[start], orders[start:i]))
            start = i
    assert blocks == expect


def test_blocks_respect_entry_cap():
    g = make_group([2], 12)
    f = random_grid_function(g, 12, seed=5)
    MN = g.order(12)
    seen, last = [], None
    for j, ns, vals in means.mean_blocks(f, "fejer", range(1, MN + 1)):
        assert vals.size <= means._BLOCK_ENTRIES
        seen.extend(ns)
        last = ns[-1], vals[-1]
    assert seen == list(range(1, MN + 1))
    n, row = last
    assert np.abs(row - means.fejer_mean(f, n).values).max() <= TOL


def test_sweep_out_of_range_order_raises_as_oracle(grid):
    MN = grid.group.order(grid.resolution)
    for n in (0, MN + 1):
        with pytest.raises(RangeError) as sweep_err:
            list(means.mean_blocks(grid, "fejer", [n]))
        with pytest.raises(RangeError) as oracle_err:
            means.fejer_mean(grid, n)
        assert str(sweep_err.value) == str(oracle_err.value)


@pytest.fixture
def stage_passes(monkeypatch):
    """Resolutions of every stage pass run, forward and inverse, from an empty run cache."""
    passes = []
    stage_pass = spectral._stage_pass

    def counted(vals, g, resolution, sign):
        passes.append(resolution)
        return stage_pass(vals, g, resolution, sign)

    monkeypatch.setattr(spectral, "_stage_pass", counted)
    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)
    return passes


# (kind, the bad order as a function of M_N, the message's range start)
BAD_SWEEP_ORDERS = [
    ("fejer", lambda MN: MN + 1, 1),
    ("riesz_log", lambda MN: 1, 2),
    ("partial_sum", lambda MN: 0, 1),
    ("tmean", lambda MN: MN + 1, 1),
]


@pytest.mark.parametrize("kind,bad,first", BAD_SWEEP_ORDERS,
                         ids=[kind for kind, _, _ in BAD_SWEEP_ORDERS])
def test_sweep_with_an_order_out_of_range_raises_before_any_work(stage_passes, kind, bad, first):
    g = make_group([5], 4)
    MN = g.order(4)
    f = random_grid_function(g, 4, seed=8)   # a fresh f: its spectrum is not memoized yet
    orders = [first, 7, MN, bad(MN), 30, bad(MN) + 1]
    params = _params(kind, MN + 2)
    with pytest.raises(RangeError) as err:
        next(means.mean_blocks(f, kind, orders, **params))
    assert str(err.value) == f"{kind} mean order {bad(MN)} outside {first}..{MN}"
    assert stage_passes == [] and not means._plans
    # the same orders in range run as usual
    assert [ns for _, ns, _ in means.mean_blocks(f, kind, orders[:3] + [30], **params)]
    assert stage_passes


def _brute_maximal(f, kind, indices, weight, **params):
    mean = mean_by_kind(kind, **params)
    return np.max([np.abs(mean(f, n).values) / (1.0 if weight is None else weight(n))
                   for n in indices], axis=0)


@pytest.mark.parametrize("kind", ("fejer", "tmean", "partial_sum", "riesz_log"))
def test_weighted_maximal_unsorted_and_repeated_orders(grid, kind):
    g, N = grid.group, grid.resolution
    MN = g.order(N)
    rng = np.random.default_rng(7)
    start = means.first_order(kind)
    orders = [int(n) for n in rng.integers(start, MN + 1, size=40)]
    orders += [MN, start, g.M[1], g.M[1] + 1, orders[0], orders[3]]
    rng.shuffle(orders)
    params = _params(kind, MN)
    for weight in (None, means.power_log_weight(0.4, with_log=False)):
        mx = means.weighted_maximal(grid, kind, orders, weight=weight, **params)
        assert mx.resolution == N and mx.values.dtype == np.complex128
        brute = _brute_maximal(grid, kind, orders, weight, **params)
        assert np.abs(mx.values.real - brute).max() <= TOL
        assert not mx.values.imag.any()


def test_weighted_maximal_coarse_orders_only(grid):
    # every order at a low level: the running max is replicated once at the end
    orders = [3, 1, 2, 2]
    mx = means.weighted_maximal(grid, "fejer", orders)
    brute = _brute_maximal(grid, "fejer", orders, None)
    assert mx.resolution == grid.resolution
    assert np.abs(mx.values.real - brute).max() <= TOL


def test_weighted_maximal_below_group_levels():
    # f of rank 5 on a group with 12 levels: the sweep tops out at f's rank
    g = make_group([2], 12)
    f = random_grid_function(g, 5, seed=2)
    orders = list(range(32, 0, -1))
    mx = means.weighted_maximal(f, "fejer", orders)
    assert mx.resolution == 5
    assert np.abs(mx.values.real - _brute_maximal(f, "fejer", orders, None)).max() <= TOL


@pytest.mark.parametrize("kind,source", [("partial_sum", "lp"), ("fejer", "lp"),
                                         ("tmean", "lp"), ("riesz_log", "hp")])
def test_strong_sum_matches_full_grid_loop(grid, kind, source):
    MN = grid.group.order(grid.resolution)
    n_max = min(MN, 100)
    p = 0.4
    params = _params(kind, n_max)
    cps = [n_max // 3, n_max // 2, n_max]
    weight = lambda k: math.log(k + 1) ** p * k ** (2.0 * p - 2.0)
    rows = verify.strong_sum(grid, kind, p, weight, n_max, cps, norm_source=source, **params)

    mean = mean_by_kind(kind, **params)
    ref = hardy_quasinorm_fn(grid, p) ** p
    acc, expect = 0.0, []
    for n in range(means.first_order(kind), n_max + 1):
        vals = mean(grid, n)
        term = hardy_quasinorm_fn(vals, p) ** p if source == "hp" else lp_norm(vals, p) ** p
        acc += weight(n) * term
        if n in cps:
            expect.append((n, acc, acc / ref))
    assert [r["n"] for r in rows] == [n for n, _, _ in expect]
    for r, (_, cum, ratio) in zip(rows, expect):
        assert r["cumulative"] == pytest.approx(cum, rel=TOL, abs=0)
        assert r["ratio_to_hp"] == pytest.approx(ratio, rel=TOL, abs=0)


PROBE_PARAMS = {"tmean": {"q": wts.ones(243)}, "fejer": {}, "partial_sum": {},
                "cesaro": {"alpha": 0.5}, "u": {"alpha": 0.5}}


@pytest.mark.parametrize("kind", sorted(PROBE_PARAMS))
def test_divergence_probe_matches_full_grid_loop(kind):
    g = make_group([3], 6)
    mart = counterexample(g, "hp-blocks", [1, 2, 3], rank=5, p=0.4)
    f = mart.final
    cps = [g.M[3] + 2, g.M[1] + 2, g.M[2] + 2, g.M[1] + 2, g.order(5)]
    rows = verify.divergence_probe(mart, kind, 0.4, cps, **PROBE_PARAMS[kind])
    mean = mean_by_kind(kind, **PROBE_PARAMS[kind])
    assert [r["n"] for r in rows] == cps
    for r, n in zip(rows, cps):
        assert list(r) == ["n", "weak_lp"]
        assert r["weak_lp"] == pytest.approx(weak_lp(mean(f, n), 0.4), rel=TOL, abs=0)


def test_tmean_block_probe_attaches_its_lower_bounds():
    g = make_group([3], 6)
    mart = counterexample(g, "hp-blocks", [1, 2, 3], rank=5, p=0.4)
    rows = verify.tmean_block_probe(mart, 0.4, [1, 2, 3])
    probe = verify.divergence_probe(mart, "tmean", 0.4, [5, 11, 29], q=wts.ones(29))
    assert [list(r) for r in rows] == [["n", "weak_lp", "bound"]] * 3
    assert [{"n": r["n"], "weak_lp": r["weak_lp"]} for r in rows] == probe
    # M_a^(1/p - 2) / (16 a) at a = 1, 2, 3
    assert [r["bound"] for r in rows] == [3 ** 0.5 / 16, 9 ** 0.5 / 32, 27 ** 0.5 / 48]


def test_divergence_probe_rejects_bad_operator():
    g = make_group([2], 6)
    mart = counterexample(g, "hp-blocks", [1, 2], rank=4, p=0.4)
    with pytest.raises(InvalidParamsError):
        verify.divergence_probe(mart, "cesaro", 0.4, [4])
    with pytest.raises(InvalidParamsError):
        verify.divergence_probe(mart, "tmean", 0.4, [4])


def test_cli_mean_matches_full_grid_loop(capsys):
    assert main(["mean", "--kind", "tmean", "--q", "power:0.5", "--m", "2,3,4",
                 "--res", "5", "--max-n", "144", "--p", "1.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    g = make_group([2, 3, 4], 5)
    f = random_grid_function(g, 5, seed=2024)
    q = wts.power_weights(0.5, 145)
    assert [r["n"] for r in rows] == list(range(1, 145))
    for r in rows:
        full = means.t_mean(f, r["n"], q)
        expect = lp_norm(f.with_values(full.values - f.values), 1.5)
        assert r["error"] == pytest.approx(expect, rel=TOL, abs=TOL)


# ---------------------------------------------------------------------------
# Work counts: deterministic, unlike a wall-clock gate
# ---------------------------------------------------------------------------

@pytest.fixture
def transform_counts(monkeypatch):
    counts = {"forward": [], "inverse": 0, "rows": []}
    forward, inverse = spectral.transform_forward, spectral.transform_inverse
    rows = spectral.inverse_rows

    def counted_forward(f):
        counts["forward"].append(f.resolution)
        return forward(f)

    def counted_inverse(s):
        counts["inverse"] += 1
        return inverse(s)

    def counted_rows(g, resolution, coeffs):
        counts["rows"].append(resolution)
        return rows(g, resolution, coeffs)

    monkeypatch.setattr(spectral, "transform_forward", counted_forward)
    monkeypatch.setattr(means, "transform_forward", counted_forward)
    monkeypatch.setattr(spectral, "transform_inverse", counted_inverse)
    monkeypatch.setattr(spectral, "inverse_rows", counted_rows)
    monkeypatch.setattr(means, "inverse_rows", counted_rows)
    return counts


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_work_on_radix5(transform_counts, kind):
    g = make_group([5], 6)
    f = random_grid_function(g, 6, seed=11)
    orders = range(means.first_order(kind), 125)
    out = [n for _, ns, _ in means.mean_blocks(f, kind, orders, **_params(kind, 124))
           for n in ns]
    assert out == list(orders)
    assert transform_counts["forward"] == [6]
    # one batched inverse per (level, chunk), none per order
    assert len(transform_counts["rows"]) == _chunks(g, orders)
    assert max(transform_counts["rows"]) <= 3
    assert transform_counts["inverse"] == 0


def test_maximal_and_strong_sum_work_on_radix5(transform_counts):
    g = make_group([5], 6)
    f = random_grid_function(g, 6, seed=11)
    means.weighted_maximal(f, "tmean", range(1, 125), q=wts.power_weights(0.5, 124))
    assert transform_counts["forward"] == [6]
    assert len(transform_counts["rows"]) == _chunks(g, range(1, 125))
    verify.strong_sum(f, "riesz_log", 0.4, lambda k: 1.0, 124, norm_source="hp")
    assert transform_counts["forward"] == [6, 6]
    assert len(transform_counts["rows"]) == _chunks(g, range(1, 125)) + _chunks(g, range(2, 125))
    assert max(transform_counts["rows"]) <= 3
    assert transform_counts["inverse"] == 0


@pytest.fixture
def forward_passes(monkeypatch):
    """Resolutions of the forward stage passes run (inverse passes not counted)."""
    passes = []
    stage_pass = spectral._stage_pass

    def counted(vals, g, resolution, sign):
        if sign == -1:
            passes.append(resolution)
        return stage_pass(vals, g, resolution, sign)

    monkeypatch.setattr(spectral, "_stage_pass", counted)
    return passes


def test_maximal_sweep_runs_one_forward_pass(forward_passes):
    # the three operators of a benchmark maximal-sweep task, on one f
    g = make_group([5], 6)
    f = random_grid_function(g, 6, seed=11)
    orders = range(1, 125)
    means.weighted_maximal(f, "fejer", orders, weight=means.power_log_weight(0.4, False))
    means.weighted_maximal(f, "tmean", orders, q=wts.power_weights(0.5, 124))
    verify.strong_sum(f, "riesz_log", 0.4, lambda k: math.log(k) ** 0.4 * k ** -1.2, 124,
                      norm_source="hp")
    assert forward_passes == [6]


def test_divergence_suite_runs_one_forward_pass(forward_passes):
    recs = verify.run_divergence_suite(make_group([5], 8))
    assert recs and forward_passes == [8]


@pytest.mark.parametrize("pattern,levels", [([2], 8), ([3], 5), ([2, 3, 4], 4), ([5, 2], 5)])
@pytest.mark.parametrize("p", [0.4, 0.75, 1.0, 2.0])
def test_strong_sum_reference_is_the_regular_martingale_norm(pattern, levels, p):
    g = make_group(pattern, levels)
    for N in range(1, levels + 1):
        f = random_grid_function(g, N, seed=N)
        n_max = min(g.order(N), 16)
        row, = verify.strong_sum(f, "fejer", p, lambda k: 1.0, n_max)
        ref = hardy_quasinorm_fn(f, p) ** p
        assert row["cumulative"] / row["ratio_to_hp"] == pytest.approx(ref, rel=TOL, abs=0)


# ---------------------------------------------------------------------------
# Plan runs, cached or not, against the direct per-run loop
# ---------------------------------------------------------------------------

def direct_run_blocks(f, kind, orders, **params):
    """The blocks of ``mean_blocks`` with no plan: each level run's weights built in place."""
    weights = means._method(kind, params)
    g, N = f.group, f.resolution
    M = g.M
    orders = list(orders)
    levels = [bisect.bisect_left(M, n, 0, N) for n in orders]
    s = transform_forward(f)
    start = 0
    while start < len(orders):
        j = levels[start]
        stop = start + 1
        most = max(1, means._BLOCK_ENTRIES // M[j])
        while stop < len(orders) and levels[stop] == j and stop - start < most:
            stop += 1
        ns = orders[start:stop]
        W = weights(np.array(ns), M[j] + 1)
        yield j, ns, inverse_rows(g, j, s.coeffs[:M[j]] * coefficient_tails(W, M[j]))
        start = stop


# (radix pattern, levels, resolution of f, f is the unit mass M_N 1_{I_N})
_M5 = ([5], 6, 6, False)
_M234 = ([2, 3, 4], 9, 9, False)
_SCRAMBLED = [7, 300, 3, 3, 1200, 25, 1, 576, 577, 300, 2, 1153, 1201]

RUN_CASES = [
    pytest.param(_M5, kind, range(means.first_order(kind), 125), id=f"m5-1..124-{kind}")
    for kind in ("fejer", "tmean", "riesz_log")
] + [
    # the shape of fejer_l1_batch(g, 490)
    pytest.param(([2], 12, 9, True), "fejer", range(1, 491), id="m2-unit-mass-1..490-fejer"),
    pytest.param(([2], 15, 15, False), "fejer", [20000, 16385, 3, 20000, 5, 16384],
                 id="m2-rows-past-the-block-size"),
    pytest.param(([5], 4, 4, False), "fejer", [625, 3, 24, 625, 4, 1], id="m5-order-M_N"),
    pytest.param(([5], 4, 4, False), "partial_sum", [625, 3, 1, 24, 1, 4],
                 id="m5-order-1-partial-sum"),
] + [
    pytest.param(_M234, kind, range(means.first_order(kind), 1201), id=f"m234-1..1200-{kind}")
    for kind in KINDS
] + [
    pytest.param(_M234, kind, [n for n in _SCRAMBLED if n >= means.first_order(kind)],
                 id=f"m234-scrambled-{kind}")
    for kind in ("partial_sum", "fejer", "tmean", "riesz_log", "norlund")
]


def _drain(blocks):
    """The blocks a sweep yields, and the error it ends in (None if it ends)."""
    out = []
    try:
        for block in blocks:
            out.append(block)
    except VilenkinError as exc:
        return out, str(exc)
    return out, None


@pytest.fixture
def tail_builds(monkeypatch):
    """(rows, size) of every coefficient-tail build of ``mean_blocks``, from an empty run cache."""
    builds = []
    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)

    def counted(weights, size):
        builds.append((weights.shape[0], size))
        return coefficient_tails(weights, size)

    monkeypatch.setattr(means, "coefficient_tails", counted)
    return builds


@pytest.mark.parametrize("case,kind,orders", RUN_CASES)
def test_grouped_weight_builds_equal_the_per_run_blocks(tail_builds, case, kind, orders):
    pattern, levels, N, unit_mass = case
    g = make_group(pattern, levels)
    f = delta(g, N, scale=g.order(N)) if unit_mass else random_grid_function(g, N, seed=5)
    params = _params(kind, max(orders))
    want, want_err = _drain(direct_run_blocks(f, kind, orders, **params))
    got, got_err = _drain(means.mean_blocks(f, kind, orders, **params))
    assert got_err == want_err
    assert [(j, ns) for j, ns, _ in got] == [(j, ns) for j, ns, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(a, b)
    # no build holds more than _BLOCK_ENTRIES tails, unless one row alone does
    assert tail_builds and all(rows * size <= means._BLOCK_ENTRIES or rows == 1
                               for rows, size in tail_builds)


def test_radix5_sweep_builds_its_weights_once(tail_builds):
    g = make_group([5], 6)
    f = random_grid_function(g, 6, seed=11)
    blocks = list(means.mean_blocks(f, "fejer", range(1, 125)))
    assert [j for j, _, _ in blocks] == [0, 1, 2, 3]
    assert tail_builds == [(1, 1), (4, 5), (20, 25), (99, 125)]


# ---------------------------------------------------------------------------
# Run cache: each run's tails built once per (kind, parameters, M_j, orders)
# ---------------------------------------------------------------------------

PLAN_GROUPS = {"m5": ([5], 6), "m2": ([2], 8), "m234": ([2, 3, 4], 5)}


def _sweep(f, kind, orders, **params):
    return [(j, ns, vals) for j, ns, vals in means.mean_blocks(f, kind, orders, **params)]


def _assert_same_blocks(got, want):
    assert [(j, ns) for j, ns, _ in got] == [(j, ns) for j, ns, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(a, b)


def _entries():
    """The run cache's entries as (key, id of the tails) pairs."""
    return [(key, id(tails)) for key, tails in means._plans.items()]


def _cached_bytes() -> int:
    """The run cache's bytes (tails, and 8 per key order), checked against its running total."""
    total = sum(tails.nbytes + 8 * len(key[2]) for key, tails in means._plans.items())
    assert means._plans_nbytes == total
    return total


@pytest.mark.parametrize("name", sorted(PLAN_GROUPS))
@pytest.mark.parametrize("kind", KINDS)
def test_warm_plan_equals_cold_build(monkeypatch, name, kind):
    pattern, levels = PLAN_GROUPS[name]
    g = make_group(pattern, levels)
    MN = g.order(levels)
    orders = range(means.first_order(kind), min(MN, 125) + 1)
    f = random_grid_function(g, levels, seed=3)
    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)
    cold = _sweep(f, kind, orders, **_params(kind, MN))
    assert len(means._plans) == _chunks(g, orders)
    # another function builds the runs, and f runs on them
    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)
    _sweep(random_grid_function(g, levels, seed=4), kind, orders, **_params(kind, MN))
    runs = _entries()
    _assert_same_blocks(_sweep(f, kind, orders, **_params(kind, MN)), cold)
    assert _entries() == runs


def test_repeated_sweep_builds_no_tails(tail_builds):
    g = make_group([5], 6)
    for seed in (1, 2, 3):
        f = random_grid_function(g, 6, seed=seed)
        means.weighted_maximal(f, "fejer", range(1, 125))
        means.weighted_maximal(f, "tmean", range(1, 125), q=wts.power_weights(0.5, 124))
        verify.strong_sum(f, "riesz_log", 0.4, lambda k: 1.0, 124, norm_source="hp")
    fejer_runs = [(1, 1), (4, 5), (20, 25), (99, 125)]
    assert tail_builds == fejer_runs + fejer_runs + fejer_runs[1:]
    assert len(means._plans) == 4 + 4 + 3


def test_run_key_holds_kind_parameter_values_and_level_size(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=1)
    deeper = random_grid_function(make_group([5], 7), 6, seed=1)
    orders = range(1, 30)
    for alpha in (0.5, 0.25, 0.5):
        _sweep(f, "cesaro", orders, alpha=alpha)
        _sweep(f, "u", orders, alpha=alpha)
    for a in (0.5, 0.25, 0.5):
        _sweep(f, "tmean", orders, q=wts.power_weights(a, 40))
    _sweep(deeper, "tmean", orders, q=wts.power_weights(0.5, 40))   # the same M_j
    _sweep(f, "fejer", orders)
    # orders 1..29 take four runs on [5], each built once per kind and parameters
    assert len(tail_builds) == len(means._plans) == 7 * 4
    assert {key[1:] for key in means._plans} == {
        (1, (1,)), (5, (2, 3, 4, 5)), (25, tuple(range(6, 26))), (125, (26, 27, 28, 29))}


def test_sweeps_on_other_radices_share_the_runs_of_equal_level_sizes(tail_builds):
    orders = range(1, 30)
    five = random_grid_function(make_group([5], 6), 6, seed=1)
    _sweep(five, "fejer", orders)
    assert tail_builds == [(1, 1), (4, 5), (20, 25), (4, 125)]
    # on [5, 2], M_0 = 1 and M_1 = 5 as on [5]: orders 1 and 2..5 reuse their runs
    five_two = random_grid_function(make_group([5, 2], 6), 6, seed=1)
    del tail_builds[:]
    got = _sweep(five_two, "fejer", orders)
    assert tail_builds == [(5, 10), (19, 50)]
    _assert_same_blocks(got, list(direct_run_blocks(five_two, "fejer", orders)))


def test_longer_sweep_builds_only_the_runs_a_shorter_one_lacked(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=4)
    _sweep(f, "fejer", range(1, 101))
    assert tail_builds == [(1, 1), (4, 5), (20, 25), (75, 125)]
    del tail_builds[:]
    got = _sweep(f, "fejer", range(1, 125))
    assert tail_builds == [(99, 125)]
    _assert_same_blocks(got, list(direct_run_blocks(f, "fejer", range(1, 125))))


def test_second_strong_and_divergence_run_rebuilds_at_most_five_runs(tail_builds):
    g = make_group([5], 8)

    def run():
        return [r.to_dict() for name in ("strong", "divergence")
                for r in verify.run_suite(name, g, seed=11)]

    first = run()
    cold = len(tail_builds)
    assert run() == first
    assert len(tail_builds) - cold <= 5
    assert _cached_bytes() <= means._PLAN_BYTES


def test_weight_sequences_with_equal_values_share_one_plan(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=3)
    orders = range(1, 30)
    harmonic = wts.from_function(lambda k: 1.0 / (k + 1), 30)
    # constant on q_0..q_2, then increasing: the values alone say what q is
    rising = wts.from_function(lambda k: 1.0 if k < 3 else math.log(k), 30)
    for q in (harmonic, rising):
        _assert_same_blocks(_sweep(f, "tmean", orders, q=wts.from_values(q.values)),
                            _sweep(f, "tmean", orders, q=q))
    assert len(means._plans) == len(tail_builds) == 2 * 4


def test_sweep_past_the_end_of_q_raises_and_leaves_q_unchanged(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    q = wts.power_weights(0.5, 10)
    values = q.values.copy()
    with pytest.raises(DomainError, match="explicit weight list cannot be extended"):
        means.weighted_maximal(f, "tmean", range(1, 125), q=q)
    assert q.n_max == 10 and np.array_equal(q.values, values)
    # the runs of orders 1 and 2..5 read only q_0..q_4 and are kept; 6..25 raised
    assert [key[1:] for key in means._plans] == [(1, (1,)), (5, (2, 3, 4, 5))]


def test_failing_build_yields_the_same_blocks_then_error_and_keeps_the_runs_before_it(
        tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    # q_0..q_199 serve orders up to 200: the third run on level 4 (26 orders
    # of 625 points each), orders 178..203, reads past them
    q = wts.from_values(wts.power_weights(0.5, 199).values.tolist())
    runs = [_drain(means.mean_blocks(f, "tmean", range(1, 301), q=q)) for _ in range(3)]
    blocks, err = runs[0]
    assert [ns[-1] for _, ns, _ in blocks] == [1, 5, 25, 125, 151, 177]
    assert err == "explicit weight list cannot be extended"
    for got, got_err in runs[1:]:
        _assert_same_blocks(got, blocks)
        assert got_err == err
    # the six runs before the failing one are built once, by the first sweep
    assert tail_builds == [(1, 1), (4, 5), (20, 25), (100, 125), (26, 625), (26, 625)]
    assert [key[2][-1] for key in means._plans] == [1, 5, 25, 125, 151, 177]


def test_sweep_stopped_early_keeps_the_runs_it_read(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    sweep = means.mean_blocks(f, "fejer", range(1, 300))
    next(sweep)
    sweep.close()
    assert list(means._plans) == [(("fejer",), 1, (1,))]
    _sweep(f, "fejer", range(1, 300))
    assert tail_builds[0] == (1, 1) and (1, 1) not in tail_builds[1:]


def test_plan_cache_stays_in_its_budget(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    for top in range(60, 125):
        before = _entries()
        _sweep(f, "fejer", range(1, top))
        # nothing is evicted, and the total stays within the budget
        assert _entries()[:len(before)] == before
        assert _cached_bytes() <= means._PLAN_BYTES
    # the runs of orders 1, 2..5 and 6..25 are shared; some level-3 runs did not fit
    assert 3 < len(means._plans) < 3 + 65
    assert len(tail_builds) == 3 + 65
    kept = _entries()
    # a longer sweep past the budget is built and used, and evicts nothing
    big = _sweep(f, "fejer", range(1, 200))
    assert _entries()[:len(kept)] == kept
    _assert_same_blocks(big, _sweep(f, "fejer", range(1, 200)))
    _assert_same_blocks(big, list(direct_run_blocks(f, "fejer", range(1, 200))))


def test_sweep_past_the_budget_keeps_what_fits_and_evicts_nothing(tail_builds):
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    _sweep(f, "fejer", range(1, 125))
    before = _entries()
    orders = range(1, 301)
    # its level-4 runs hold 26 orders at 625 columns, 130,000 bytes each
    got = _sweep(f, "fejer", orders)
    assert _entries()[:len(before)] == before
    assert _cached_bytes() <= means._PLAN_BYTES < _cached_bytes() + 26 * 625 * 8 + 26 * 8
    kept = _entries()
    assert before != kept and len(kept) < len(before) + _chunks(f.group, orders)
    want = list(direct_run_blocks(f, "fejer", orders))
    _assert_same_blocks(got, want)
    _assert_same_blocks(_sweep(f, "fejer", orders), want)
    assert _entries() == kept


def test_cached_plan_tails_are_read_only(tail_builds):
    f = random_grid_function(make_group([2, 3, 4], 5), 5, seed=2)
    for kind in KINDS:
        _sweep(f, kind, range(means.first_order(kind), 49), **_params(kind, 48))
    assert {key[0][0] for key in means._plans} == set(KINDS)
    for tails in means._plans.values():
        assert not tails.flags.writeable
        with pytest.raises(ValueError):
            tails[0, 0] = 1.0


def test_plan_cache_under_threads(monkeypatch):
    # more threads than cores, and a budget that holds about half the plans of the run
    f = random_grid_function(make_group([5], 6), 6, seed=2)
    tops = [40, 60, 80, 100, 124, 50, 70, 90, 110, 120]
    want = {top: _sweep(f, "fejer", range(1, top + 1)) for top in tops}
    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)
    monkeypatch.setattr(means, "_PLAN_BYTES", 500_000)
    errors = []

    def work(shift):
        try:
            for top in tops[shift:] + tops[:shift]:
                _assert_same_blocks(_sweep(f, "fejer", range(1, top + 1)), want[top])
        except Exception as exc:   # reported below: a thread's failure is not raised
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert _cached_bytes() <= means._PLAN_BYTES
