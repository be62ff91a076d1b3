"""Each kind's weight-block builder against its per-order formula.

``means._KINDS`` gives every summation kind one builder, weights(ns, size),
that returns the weight vectors of many orders as one matrix.  The formulas
below are the per-order definitions written out one order at a time; every
row of a block must equal its order's vector exactly (zero-padded), and a
block must fail as the first failing order of the block would alone.  The
reductions that replicate a coarse array onto a finer one by broadcasting
are compared here, exactly, with the same reductions written with np.tile.
"""

import bisect
import math

import numpy as np
import pytest

from vilenkin import means
from vilenkin import weights as wts
from vilenkin.errors import DegenerateWeightsError, DomainError, RangeError, VilenkinError
from vilenkin.group import make_group
from vilenkin.hardy import hardy_quasinorm_rows
from vilenkin.means import cesaro_coeffs
from vilenkin.spectral import (
    coefficient_tails,
    lp_norm_rows,
    random_grid_function,
    weighted_sum_combination,
)
from vilenkin.weights import harmonic_number, power_weights

from conftest import mean_by_kind


# ---------------------------------------------------------------------------
# Reference weight vectors, one order at a time
# ---------------------------------------------------------------------------

def ref_partial_sum(n):
    if n < 0:
        raise RangeError("partial_sum mean requires n >= 0")
    w = np.zeros(n + 1)
    w[n] = 1.0
    return w


def ref_fejer(n):
    if n < 1:
        raise RangeError("fejer mean requires n >= 1")
    w = np.zeros(n + 1)
    w[1:] = 1.0 / n
    return w


def ref_cesaro(n, alpha):
    if not 0 < alpha <= 1:
        raise DomainError("cesaro mean requires 0 < alpha <= 1")
    if n < 1:
        raise RangeError("cesaro mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, n)
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n + 1)
    w[1:] = lower[n - 1::-1] / upper[n]
    return w


def ref_u(n, alpha):
    if not 0 < alpha < 1:
        raise DomainError("u mean requires 0 < alpha < 1")
    if n < 1:
        raise RangeError("u mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, max(n - 1, 0))
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n)
    w[1:] = lower[1:n] / upper[n]
    return w


def ref_v(n, alpha):
    if not 0 < alpha < 1:
        raise DomainError("v mean requires 0 < alpha < 1")
    if n < 1:
        raise RangeError("v mean requires n >= 1")
    return ref_tmean(n, power_weights(alpha, n))


def ref_riesz_log(n):
    if n < 2:
        raise RangeError("riesz_log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / (np.arange(1, n) * ln)
    return w


def ref_norlund_log(n):
    if n < 2:
        raise RangeError("norlund_log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / ((n - np.arange(1, n)) * ln)
    return w


def ref_norlund(n, q):
    if n < 1:
        raise RangeError("norlund mean requires n >= 1")
    if q.q(0) <= 0:
        raise DomainError("norlund mean requires q_0 > 0")
    Qn = q.Q(n)
    w = np.zeros(n + 1)
    w[1:] = q.values[n - 1::-1] / Qn
    return w


def ref_tmean(n, q):
    if n < 1:
        raise RangeError("tmean mean requires n >= 1")
    Qn = q.Q(n)
    w = np.zeros(n)
    w[1:] = q.values[1:n] / Qn
    return w


REFERENCES = {
    "partial_sum": ref_partial_sum,
    "fejer": ref_fejer,
    "cesaro": ref_cesaro,
    "u": ref_u,
    "v": ref_v,
    "riesz_log": ref_riesz_log,
    "norlund_log": ref_norlund_log,
    "norlund": ref_norlund,
    "tmean": ref_tmean,
}

# parameter sets of each kind; the weight sequences reach q_625, past the
# largest order read (M_4 = 625 on [5]^4)
PARAMS = {"cesaro": [0.3, 1.0], "u": [0.3, 0.75], "v": [0.3, 0.75],
          "norlund": ["power", "increasing", "ones"], "tmean": ["power", "increasing", "ones"]}
Q_FAMILIES = {"power": wts.power_weights(0.5, 625),
              "increasing": wts.from_function(lambda k: math.log(k + 2.0), 625),
              "ones": wts.ones(625)}


def _args(kind, param):
    if param is None:
        return ()
    return (Q_FAMILIES[param],) if kind in ("norlund", "tmean") else (param,)


def _cases():
    for kind in sorted(REFERENCES):
        for param in PARAMS.get(kind, [None]):
            yield pytest.param(kind, param, id=f"{kind}-{param}" if param else kind)


def _outcome(fn):
    """fn()'s value, or the type and message of the package error it raises."""
    try:
        return fn()
    except VilenkinError as exc:
        return type(exc), str(exc)


def _first_failure(kind, ns, args):
    """The error of the first order of ns whose reference vector fails, or None."""
    for n in ns:
        out = _outcome(lambda: REFERENCES[kind](n, *args))
        if isinstance(out, tuple):
            return out
    return None


@pytest.mark.parametrize("kind,param", list(_cases()))
@pytest.mark.parametrize("pattern", [[5], [2, 3, 4]], ids=["m5", "m234"])
def test_block_rows_equal_per_order_vectors(kind, param, pattern):
    g = make_group(pattern, 4)
    builder = means._KINDS[kind][0]
    rng = np.random.default_rng(len(pattern))
    first = means.first_order(kind)
    for j in range(1, 5):
        size = g.M[j] + 1
        lo = max(first, g.M[j - 1] + 1) if j > 1 else first
        ns = [int(n) for n in rng.integers(first, g.M[j] + 1, size=12)]
        ns += [g.M[j], lo, lo, ns[0]]       # repeats and both block edges
        rng.shuffle(ns)
        W = builder(np.array(ns), size, *_args(kind, param))
        assert W.shape == (len(ns), size) and W.dtype == np.float64
        for b, n in enumerate(ns):
            ref = REFERENCES[kind](n, *_args(kind, param))
            assert np.array_equal(W[b, :ref.size], ref), (j, n)
            assert not W[b, ref.size:].any(), (j, n)


@pytest.mark.parametrize("kind,param", list(_cases()))
def test_single_order_row_has_the_same_tails(kind, param):
    # the per-order means and kernels use row 0 of a (1, n + 1) block; where
    # the reference vector is one shorter, the trailing zero changes no tail
    for n in range(means.first_order(kind), 40):
        ref = REFERENCES[kind](n, *_args(kind, param))
        row = means._weight_row(kind, n, **dict(zip(means.param_names(kind), _args(kind, param))))
        assert row.size == n + 1
        for size in (n, n + 7):
            for dtype in (np.float64, np.complex128):
                assert np.array_equal(coefficient_tails(row.astype(dtype), size),
                                      coefficient_tails(ref.astype(dtype), size))


@pytest.mark.parametrize("kind,param", [c for c in _cases()
                                        if c.values[0] not in ("partial_sum", "fejer")])
def test_per_order_means_past_the_grid_match_the_old_path(kind, param):
    # a trailing zero past M_N + 1 is no error: orders whose weights end at
    # n - 1 still give the mean of order M_N + 1, the others still raise
    g = make_group([2], 5)
    f = random_grid_function(g, 3, seed=1)
    MN = g.order(3)
    mean = mean_by_kind(kind, **dict(zip(means.param_names(kind), _args(kind, param))))
    for n in (MN, MN + 1, MN + 2):
        ref = REFERENCES[kind](n, *_args(kind, param))
        expected = _outcome(lambda: weighted_sum_combination(f, ref).values)
        got = _outcome(lambda: mean(f, n).values)
        if isinstance(expected, tuple):
            assert got == expected, n
        else:
            assert np.array_equal(got, expected), n


def _bad_blocks():
    """(kind, args factory, orders) whose blocks must fail like their first failing order."""
    degenerate = lambda: (wts.from_values([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),)
    cases = [pytest.param(kind, lambda kind=kind: _args(kind, PARAMS.get(kind, [None])[0]),
                          [first + 2, first + 1, first - 1 if kind != "partial_sum" else -1,
                           first + 3], id=f"{kind}-below-first-order")
             for kind in sorted(REFERENCES) for first in [means.first_order(kind)]]
    cases += [
        pytest.param("cesaro", lambda: (1.5,), [3, 2], id="cesaro-alpha-1.5"),
        pytest.param("cesaro", lambda: (0.0,), [3, 2], id="cesaro-alpha-0"),
        pytest.param("u", lambda: (1.0,), [3, 2], id="u-alpha-1"),
        pytest.param("v", lambda: (0.0,), [3, 2], id="v-alpha-0"),
        pytest.param("norlund", lambda: (wts.from_values([0.0, 1.0, 1.0, 1.0]),), [3, 2, 4],
                     id="norlund-q0-zero"),
        # Q_1..Q_5 vanish: the first of them in block order is reported
        pytest.param("tmean", degenerate, [7, 6, 5, 8, 3], id="tmean-degenerate-interior"),
        pytest.param("tmean", degenerate, [8, 2, 5], id="tmean-degenerate-first-of-two"),
        # an explicit list cannot grow past its last weight
        pytest.param("tmean", lambda: (wts.from_values([1.0, 1.0, 1.0]),), [3, 2, 6],
                     id="tmean-explicit-too-short"),
        pytest.param("tmean", lambda: (wts.from_values([0.0, 0.0, 1.0]),), [3, 2, 6],
                     id="tmean-degenerate-before-too-short"),
        pytest.param("norlund", lambda: (wts.from_values([1.0, 0.0, 1.0]),), [3, 6, 2],
                     id="norlund-too-short-before-valid"),
    ]
    return cases


@pytest.mark.parametrize("kind,make_args,ns", _bad_blocks())
def test_block_fails_like_its_first_failing_order(kind, make_args, ns):
    expected = _first_failure(kind, ns, make_args())
    assert expected is not None
    params = dict(zip(means.param_names(kind), make_args()))
    got = _outcome(lambda: means._method(kind, params)(np.array(ns), max(ns) + 2))
    assert got == expected
    if min(ns) >= means.first_order(kind):
        # the same error from a sweep, whose orders all fall in blocks
        g = make_group([2], 5)
        f = random_grid_function(g, 4, seed=3)
        sweep = _outcome(lambda: list(means.mean_blocks(f, kind, ns, **params)))
        mean = mean_by_kind(kind, **params)
        assert sweep == expected
        assert _outcome(lambda: [mean(f, n) for n in ns]) == expected


def test_degenerate_order_inside_one_sweep_block():
    # orders 5..8 share level 3 of [2]^5; order 5 (Q_5 = 0) sits mid-block
    g = make_group([2], 5)
    f = random_grid_function(g, 5, seed=9)
    q = wts.from_values([0.0] * 5 + [1.0] * 8)
    blocks = means.mean_blocks(f, "tmean", [6, 5, 7], q=q)
    with pytest.raises(DegenerateWeightsError) as sweep_err:
        list(blocks)
    with pytest.raises(DegenerateWeightsError) as oracle_err:
        means.t_mean(f, 5, q)
    assert str(sweep_err.value) == str(oracle_err.value) == "Q_5 = 0.0 is not positive"


# ---------------------------------------------------------------------------
# Broadcast reductions against tiled references
# ---------------------------------------------------------------------------

def tiled_quasinorm_rows(g, resolution, values, p):
    # level l is the mean over digit x_l of level l + 1, from fine to coarse
    B, Mj = values.shape
    star = np.zeros(values.shape)
    avg = values
    for l in range(resolution, -1, -1):
        np.maximum(star, np.tile(np.abs(avg), (1, Mj // g.M[l])), out=star)
        if l:
            avg = avg.reshape(B, g.m[l - 1], g.M[l - 1]).mean(axis=1)
    return lp_norm_rows(star, p)


def tiled_weighted_maximal(f, kind, orders, weight, **params):
    out = np.zeros(1)
    for _, ns, vals in means.mean_blocks(f, kind, orders, **params):
        w = np.ones(len(ns)) if weight is None else np.array([float(weight(n)) for n in ns])
        block = (np.abs(vals) / w[:, None]).max(axis=0)
        if block.size > out.size:
            out = np.tile(out, block.size // out.size)
        elif block.size < out.size:
            block = np.tile(block, out.size // block.size)
        np.maximum(out, block, out=out)
    return np.tile(out, f.group.order(f.resolution) // out.size).astype(np.complex128)


@pytest.mark.parametrize("pattern", [[5], [2, 3, 4]], ids=["m5", "m234"])
def test_quasinorm_rows_equal_the_tiled_reduction(pattern):
    g = make_group(pattern, 4)
    rng = np.random.default_rng(4)
    for res in range(5):
        rows = rng.standard_normal((5, g.order(res))) + 1j * rng.standard_normal((5, g.order(res)))
        for p in (0.4, 1.0, np.inf):
            assert np.array_equal(hardy_quasinorm_rows(g, res, rows, p),
                                  tiled_quasinorm_rows(g, res, rows, p))


@pytest.mark.parametrize("kind", ["fejer", "tmean", "riesz_log", "partial_sum"])
@pytest.mark.parametrize("pattern", [[5], [2, 3, 4]], ids=["m5", "m234"])
def test_weighted_maximal_equals_the_tiled_reduction(pattern, kind):
    g = make_group(pattern, 4)
    f = random_grid_function(g, 4, seed=6)
    MN = g.order(4)
    params = {"q": wts.power_weights(0.5, MN)} if kind == "tmean" else {}
    rng = np.random.default_rng(8)
    first = means.first_order(kind)
    # orders on levels 1..4, unsorted and repeated, fine and coarse blocks interleaved
    orders = [int(n) for n in rng.integers(first, MN + 1, size=30)]
    orders += [first, g.M[1], g.M[2], g.M[3], MN, orders[2], MN]
    rng.shuffle(orders)
    assert len({bisect.bisect_left(g.M, n) for n in orders}) >= 3
    for weight in (None, means.power_log_weight(0.4, with_log=False)):
        got = means.weighted_maximal(f, kind, orders, weight=weight, **params)
        assert np.array_equal(got.values, tiled_weighted_maximal(f, kind, orders, weight,
                                                                 **params))
