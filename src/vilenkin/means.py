"""Summability means of grid functions and weighted maximal operators.

All means follow the convention sum_{k=1}^{n} with S_0 f = 0.  Each kind of
mean is one weight vector w on the partial sums S_k.  Its entry in the table
``_KINDS`` holds one builder, ``weights(ns, size)``, which returns the
vectors of many orders at once as the rows of one matrix: masks on k and
gathers from coefficient tables built once for max(ns).  The mean is the
spectral multiplier sum_k w_k S_k f (the coefficient tails of w), and
``kernels.mean_kernel`` builds its kernel sum_k w_k D_k from the same
builder, so mean_n f = f * kernel_n up to rounding and both share the
builder's parameter checks.  The per-order functions (``fejer_mean``,
``t_mean``, ...) take row 0 of a one-order block, evaluate the multiplier
on the full grid with their own order ranges, and serve as the oracle.

Scans over the order n (maximal operators, strong sums, divergence probes,
convergence tables) have one evaluation path, ``mean_blocks``.  It refuses
any order outside first_order(kind)..M_N before doing any work, and
evaluates every run of orders sharing a minimal level j as one (orders, M_j)
block.  A mean of order n uses only f^(0..n-1), and psi_k with k < M_j is
constant on rank-j cosets, so for n <= M_j the mean is a rank-j function:
the same mean of E_j f (the rank-j coset averages), whose spectrum is
exactly f^(0..M_j-1).  The block's coefficient rows are that spectrum prefix
times the tail sums of the run's weight matrix, and one batched inverse
stage pass synthesizes them all.  Only that spectrum prefix depends on f:
a run's tails at M_j columns depend only on the kind, its parameters, M_j
and the run's orders, so they are built once under that key and kept in a
byte-bounded run cache, as FFTW plans a transform once and executes it per
array.  The unit mass M_N 1_{I_N} has spectrum all ones, so its sweep is a
table of the kind's kernels sum_k w_k D_k.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, InvalidParamsError, RangeError
from .spectral import (
    GridFunction,
    coefficient_tails,
    inverse_rows,
    transform_forward,
    weighted_sum_combination,
)
from .weights import WeightSequence, harmonic_number, power_weights


def _support(ns: np.ndarray, size: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns k = 0..size-1 and the mask 1 <= k <= n + last of each order's row."""
    k = np.arange(size)
    return k, (k >= 1) & (k <= ns[:, None] + last)


def _masked(num, den, on: np.ndarray) -> np.ndarray:
    """num / den where ``on`` holds and 0 elsewhere, as one (len(ns), size) block."""
    return np.divide(num, den, out=np.zeros(on.shape), where=on)


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx] with idx clipped into the table; clipped entries are masked off."""
    return table[np.clip(idx, 0, len(table) - 1)]


def _normalizers(q: WeightSequence, ns: np.ndarray) -> np.ndarray:
    """Q_n of each order as a column.

    The first order of ``ns`` that lies past the end of q or has a
    vanishing Q_n raises its own error from ``q.Q``, as the orders' weights
    built one at a time would.
    """
    fits = ns <= q.n_max + 1
    Qn = q.partials[np.where(fits, ns, 0)]
    bad = np.flatnonzero(~fits | (Qn <= 0.0))
    if bad.size:
        q.Q(int(ns[bad[0]]))
    return Qn[:, None]


def _harmonic(ns: np.ndarray) -> np.ndarray:
    """l_n of each order as a column."""
    return np.array([harmonic_number(n) for n in ns.tolist()])[:, None]


def _weight_row(weights: Callable[..., np.ndarray], n: int, *params) -> np.ndarray:
    """The weight vector w_0..w_n of the order-n mean: row 0 of its (1, n + 1) block."""
    return weights(np.array([n]), n + 1, *params)[0]


def _partial_sum_weights(ns: np.ndarray, size: int) -> np.ndarray:
    if ns.min() < 0:
        raise RangeError("partial sum requires n >= 0")
    W = np.zeros((len(ns), size))
    W[np.arange(len(ns)), ns] = 1.0
    return W


def _fejer_weights(ns: np.ndarray, size: int) -> np.ndarray:
    if ns.min() < 1:
        raise RangeError("fejer mean requires n >= 1")
    _, on = _support(ns, size, 0)
    return _masked(1.0, ns[:, None], on)


def fejer_mean(f: GridFunction, n: int) -> GridFunction:
    """sigma_n f = (1/n) sum_{k=1}^{n} S_k f."""
    MN = f.group.order(f.resolution)
    if not 1 <= n <= MN:
        raise RangeError(f"fejer mean order {n} outside 1..{MN}")
    return weighted_sum_combination(f, _weight_row(_fejer_weights, n))


def cesaro_coeffs(alpha: float, n_max: int) -> np.ndarray:
    """A_0^alpha .. A_{n_max}^alpha via the running product A_n = A_{n-1}(alpha+n)/n.

    A_0^alpha = 1 (empty product); the cross-order recursions
    A_n^alpha = sum_{k<=n} A_k^{alpha-1} and A_n^alpha - A_{n-1}^alpha =
    A_n^{alpha-1} close only with this normalization.
    """
    if alpha <= -1 and float(alpha).is_integer():
        raise DomainError("alpha must avoid the negative integers")
    t = np.empty(n_max + 1)
    t[0] = 1.0
    for n in range(1, n_max + 1):
        t[n] = t[n - 1] * (alpha + n) / n
    return t


def _cesaro_weights(ns: np.ndarray, size: int, alpha: float) -> np.ndarray:
    if not 0 < alpha <= 1:
        raise DomainError("cesaro mean requires 0 < alpha <= 1")
    if ns.min() < 1:
        raise RangeError("cesaro mean requires n >= 1")
    top = int(ns.max())
    lower = cesaro_coeffs(alpha - 1.0, top)
    upper = cesaro_coeffs(alpha, top)
    k, on = _support(ns, size, 0)
    return _masked(_gather(lower, ns[:, None] - k), upper[ns][:, None], on)


def cesaro_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """(C, alpha) mean (1/A_n^alpha) sum_{k=1}^{n} A_{n-k}^{alpha-1} S_k f."""
    return weighted_sum_combination(f, _weight_row(_cesaro_weights, n, alpha))


def _u_weights(ns: np.ndarray, size: int, alpha: float) -> np.ndarray:
    if not 0 < alpha < 1:
        raise DomainError("u mean requires 0 < alpha < 1")
    if ns.min() < 1:
        raise RangeError("u mean requires n >= 1")
    top = int(ns.max())
    lower = cesaro_coeffs(alpha - 1.0, top)
    upper = cesaro_coeffs(alpha, top)
    k, on = _support(ns, size, -1)
    return _masked(_gather(lower, k), upper[ns][:, None], on)


def u_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """Inverse-order Cesaro mean (1/A_n^alpha) sum_{k=0}^{n-1} A_k^{alpha-1} S_k f."""
    return weighted_sum_combination(f, _weight_row(_u_weights, n, alpha))


def _v_weights(ns: np.ndarray, size: int, alpha: float) -> np.ndarray:
    if not 0 < alpha < 1:
        raise DomainError("v mean requires 0 < alpha < 1")
    if ns.min() < 1:
        raise RangeError("v mean requires n >= 1")
    return _t_weights(ns, size, power_weights(alpha, int(ns.max())))


def v_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """T mean with weights q_0 = 1, q_k = k^(alpha-1): (1/Q_n) sum_{k=1}^{n-1} q_k S_k f."""
    return weighted_sum_combination(f, _weight_row(_v_weights, n, alpha))


def _riesz_log_weights(ns: np.ndarray, size: int) -> np.ndarray:
    if ns.min() < 2:
        raise RangeError("riesz-log mean requires n >= 2")
    k, on = _support(ns, size, -1)
    return _masked(1.0, k * _harmonic(ns), on)


def riesz_log_mean(f: GridFunction, n: int) -> GridFunction:
    """R_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / k, n >= 2."""
    return weighted_sum_combination(f, _weight_row(_riesz_log_weights, n))


def _norlund_log_weights(ns: np.ndarray, size: int) -> np.ndarray:
    if ns.min() < 2:
        raise RangeError("norlund-log mean requires n >= 2")
    k, on = _support(ns, size, -1)
    return _masked(1.0, (ns[:, None] - k) * _harmonic(ns), on)


def norlund_log_mean(f: GridFunction, n: int) -> GridFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n-k), n >= 2."""
    return weighted_sum_combination(f, _weight_row(_norlund_log_weights, n))


def _norlund_weights(ns: np.ndarray, size: int, q: WeightSequence) -> np.ndarray:
    if ns.min() < 1:
        raise RangeError("norlund mean requires n >= 1")
    if q.q(0) <= 0:
        raise DomainError("norlund mean requires q_0 > 0")
    Qn = _normalizers(q, ns)
    k, on = _support(ns, size, 0)
    return _masked(_gather(q.values, ns[:, None] - k), Qn, on)


def norlund_mean(f: GridFunction, n: int, q: WeightSequence) -> GridFunction:
    """t_n f = (1/Q_n) sum_{k=1}^{n} q_{n-k} S_k f (reversed weights)."""
    return weighted_sum_combination(f, _weight_row(_norlund_weights, n, q))


def _t_weights(ns: np.ndarray, size: int, q: WeightSequence) -> np.ndarray:
    if ns.min() < 1:
        raise RangeError("t mean requires n >= 1")
    Qn = _normalizers(q, ns)
    k, on = _support(ns, size, -1)
    return _masked(_gather(q.values, k), Qn, on)


def t_mean(f: GridFunction, n: int, q: WeightSequence) -> GridFunction:
    """T_n f = (1/Q_n) sum_{k=1}^{n-1} q_k S_k f (forward weights, S_0 f = 0)."""
    return weighted_sum_combination(f, _weight_row(_t_weights, n, q))


def t_mean_abel(f: GridFunction, n: int, q: WeightSequence) -> GridFunction:
    """Abel-transform form of the T mean:

    T_n f = (1/Q_n) [ sum_{j=0}^{n-2} (q_j - q_{j+1}) j sigma_j f
                      + q_{n-1} (n-1) sigma_{n-1} f ].
    Independent evaluation path used to validate the transform identities.
    """
    if n < 1:
        raise RangeError("t mean requires n >= 1")
    Qn = q.Q(n)
    MN = f.group.order(f.resolution)
    acc = np.zeros(MN, dtype=np.complex128)
    for j in range(1, n - 1):
        c = (q.q(j) - q.q(j + 1)) * j
        if c != 0.0:
            acc = acc + c * fejer_mean(f, j).values
    if n >= 2:
        acc = acc + q.q(n - 1) * (n - 1) * fejer_mean(f, n - 1).values
    return GridFunction(f.group, f.resolution, acc / Qn)


# ---------------------------------------------------------------------------
# Regularity diagnostics
# ---------------------------------------------------------------------------

def regularity_report(q: WeightSequence, n_max: int) -> dict:
    """Tabulate q_{n-1}/Q_n and n*q_{n-1}/Q_n; check the monotone envelope.

    The report reads q_0..q_{n_max-1} and classes them as nonincreasing,
    else nondecreasing, else general, with 1e-15 slack per step.  The
    envelope is n*q_{n-1} <= Q_n <= n*q_0 for nonincreasing weights and
    n*q_0 <= Q_n <= n*q_{n-1} for nondecreasing ones.
    """
    q.extend(n_max - 1)
    d = np.diff(q.values[:n_max])
    monotonicity = ("nonincreasing" if np.all(d <= 1e-15) else
                    "nondecreasing" if np.all(d >= -1e-15) else "general")
    rows = []
    envelope_ok = True
    for n in range(1, n_max + 1):
        Qn = float(q.partials[n])
        if Qn <= 0.0:
            continue  # leading zero weights: ratio undefined until Q_n > 0
        ratio = q.q(n - 1) / Qn
        rows.append({"n": n, "ratio": ratio, "n_ratio": n * ratio})
        if monotonicity == "nonincreasing":
            ok = n * q.q(n - 1) <= Qn * (1 + 1e-12) and Qn <= n * q.q(0) * (1 + 1e-12)
        elif monotonicity == "nondecreasing":
            ok = n * q.q(0) <= Qn * (1 + 1e-12) and Qn <= n * q.q(n - 1) * (1 + 1e-12) + 1e-300
        else:
            ok = True
        envelope_ok = envelope_ok and ok
    return {"monotonicity": monotonicity, "rows": rows, "envelope_ok": envelope_ok}


# ---------------------------------------------------------------------------
# Maximal operators
# ---------------------------------------------------------------------------

# kind -> (weights(ns, size, *params), names of the params).  weights gives
# the (len(ns), size) block whose row b is w_0..w_n of order n = ns[b],
# zero-padded (size >= max(ns) + 1); orders may come in any order and repeat.
_KINDS = {
    "partial_sum": (_partial_sum_weights, ()),
    "fejer": (_fejer_weights, ()),
    "cesaro": (_cesaro_weights, ("alpha",)),
    "u": (_u_weights, ("alpha",)),
    "v": (_v_weights, ("alpha",)),
    "riesz_log": (_riesz_log_weights, ()),
    "norlund_log": (_norlund_log_weights, ()),
    "norlund": (_norlund_weights, ("q",)),
    "tmean": (_t_weights, ("q",)),
}


def param_names(kind: str) -> tuple[str, ...]:
    """Names of the parameters a kind's mean and weights take."""
    if kind not in _KINDS:
        raise DomainError(f"unknown mean kind {kind!r}")
    return _KINDS[kind][1]


def _method(kind: str, params: dict) -> Callable[[np.ndarray, int], np.ndarray]:
    """The weights(ns, size) of a kind, bound to its parameters."""
    names = param_names(kind)
    if set(params) != set(names):
        raise InvalidParamsError(f"{kind} means take parameters {sorted(names)}, "
                                 f"got {sorted(params)}")
    args = tuple(params[name] for name in names)
    weights, _ = _KINDS[kind]
    return lambda ns, size: weights(ns, size, *args)


def first_order(kind: str) -> int:
    """The first order of a sweep of this kind: 2 for the logarithmic means, 1 otherwise."""
    return 2 if kind in ("riesz_log", "norlund_log") else 1


# Most complex entries one ``mean_blocks`` block holds (256 KiB; a block's
# working set is about 5x that); longer runs on one level are split.  It also
# bounds the coefficient tails of one run's weight build.
_BLOCK_ENTRIES = 1 << 14

# Most bytes the run cache ``_plans`` keeps (1 MiB), counting a run's tails
# and 8 per order of its key; ``_plans_nbytes`` is the running total.  A run
# is kept while the total fits, and nothing is evicted, so a working set past
# the budget keeps the runs built first instead of thrashing when sweeps
# repeat in a cycle, as an LRU would.  One lock guards lookups and insertions.
_PLAN_BYTES = 1 << 20
_plans: dict = {}
_plans_nbytes = 0
_plans_lock = threading.Lock()


def _params_key(kind: str, params: dict) -> tuple | None:
    """A kind and its parameters as part of a run's key, or None if they are not hashable.

    Parameters are keyed by type and value, a weight sequence by its values
    alone, so sequences with equal values share their runs.
    """
    key = (kind,) + tuple((WeightSequence, v.values.tobytes()) if isinstance(v, WeightSequence)
                          else (type(v), v) for _, v in sorted(params.items()))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _plan(M: tuple, N: int, kind: str, params: dict, orders: list, weights) -> Iterator[tuple]:
    """The runs (j, ns, tails) of a sweep over ``orders``, each in 1..M_N.

    A run holds ns, consecutive orders on level j, as many as fit in
    ``_BLOCK_ENTRIES`` at M_j (or one), and the read-only coefficient tails
    of their weights (one row per order, M_j columns), which depend only on
    (kind, parameters, M_j, ns): they are read from the run cache under that
    key, or built and kept if they fit.  A failing build raises at its run.
    """
    global _plans_nbytes
    params_key = _params_key(kind, params)
    a = 0
    while a < len(orders):
        j = bisect.bisect_left(M, orders[a], 0, N)
        low, size = M[j - 1] if j else 0, M[j]   # level j holds the orders in low+1..M_j
        end, b = min(len(orders), a + max(1, _BLOCK_ENTRIES // size)), a + 1
        while b < end and low < orders[b] <= size:
            b += 1
        ns = orders[a:b]
        key = None if params_key is None else (params_key, size, tuple(ns))
        with _plans_lock:
            tails = None if key is None else _plans.get(key)
        if tails is None:
            tails = coefficient_tails(weights(np.array(ns), size + 1), size)
            tails.flags.writeable = False
            if key is not None:
                with _plans_lock:
                    nbytes = _plans_nbytes + tails.nbytes + 8 * len(ns)
                    if key not in _plans and nbytes <= _PLAN_BYTES:
                        _plans[key], _plans_nbytes = tails, nbytes
        yield j, ns, tails
        a = b


def mean_blocks(
    f: GridFunction, kind: str, orders: Iterable[int], **params
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Yield (j, ns, values) for each run of consecutive orders on one level.

    Row b of ``values`` (shape (len(ns), M_j)) is mean_{ns[b]} f as a rank-j
    function, j the least level with M_j >= n for every n in ns;
    ``hardy.embed`` replicates a row onto f's grid.  One forward transform
    serves f, not each sweep: ``transform_forward`` memoizes f's spectrum,
    so every sweep on the same f reads the same one.  Each level's spectrum
    is its prefix f^(0..M_j-1), the exact spectrum of E_j f.  A run's
    coefficient rows are that prefix times the coefficient tails of its
    orders' weight vectors at M_j columns, synthesized by one batched
    inverse; no run holds more than ``_BLOCK_ENTRIES`` entries unless a
    single row does.

    What does not depend on f is a run's tails.  They are keyed by (kind,
    parameters by value, M_j, the run's orders) and kept in the run cache
    while it stays within ``_PLAN_BYTES``, so a repeated run, in this sweep's
    range or another's, on this group or one with the same M_j, only
    multiplies, synthesizes and yields.  Orders may come in any order and
    repeat, and each must lie in first_order(kind)..M_N: the first one
    outside raises ``RangeError`` before f is transformed or any tails are
    read or built.  A failing weight build (an explicit weight list too
    short, say) yields the blocks of the runs before it, then raises; the
    runs built before it stay cached.
    """
    weights = _method(kind, params)
    g, N = f.group, f.resolution
    orders = list(orders)
    first, MN = first_order(kind), g.M[N]
    if orders and not first <= min(orders) <= max(orders) <= MN:
        n = next(n for n in orders if not first <= n <= MN)
        raise RangeError(f"{kind} mean order {n} outside {first}..{MN}")
    s = transform_forward(f)
    for j, ns, tails in _plan(g.M, N, kind, params, orders, weights):
        yield j, ns, inverse_rows(g, j, s.coeffs[:g.M[j]] * tails)


def weighted_maximal(
    f: GridFunction,
    kind: str,
    indices: Iterable[int],
    weight: Callable[[int], float] | None = None,
    **params,
) -> GridFunction:
    """Pointwise sup over n of |mean_n f(x)| / weight(n).

    ``weight=None`` gives the plain truncated maximal operator; passing the
    subsequence (M_0, M_1, ...) as ``indices`` gives restricted operators.
    The means come from ``mean_blocks`` as rank-j rows; each block reduces
    to one rank-j maximum, and since replication commutes with |.|, / and
    max, the running max is kept at the finest level seen so far and
    replicated onto f's grid once at the end, which leaves every value
    unchanged.  A rank-l array replicated onto M_j points is its rows of a
    (M_j / M_l, M_l) view, so the coarser of the two operands is broadcast
    over the finer one's rows, and nothing is tiled before the end.
    """
    idx = list(indices)
    if not idx:
        raise RangeError("maximal operator needs a nonempty index range")
    out = np.zeros(1)
    for _, ns, vals in mean_blocks(f, kind, idx, **params):
        w = np.ones(len(ns)) if weight is None else np.array([float(weight(n)) for n in ns])
        block = (np.abs(vals) / w[:, None]).max(axis=0)
        fine, coarse = (block, out) if block.size >= out.size else (out, block)
        rows = fine.reshape(-1, coarse.size)
        np.maximum(rows, coarse, out=rows)
        out = fine
    MN = f.group.order(f.resolution)
    return GridFunction(f.group, f.resolution, np.tile(out.astype(np.complex128), MN // out.size))


def power_log_weight(p: float, with_log: bool = True) -> Callable[[int], float]:
    """(n+1)^(1/p-2) * log^(2*floor(1/2+p))(n+1), the sharp maximal weight."""
    expo = 1.0 / p - 2.0
    logpow = 2 * int(np.floor(0.5 + p)) if with_log else 0

    def w(n: int) -> float:
        base = float(n + 1) ** expo
        if logpow:
            base *= float(np.log(n + 1)) ** logpow if n + 1 > 1 else 1.0
        return base

    return w
