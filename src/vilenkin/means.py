"""Summability means of grid functions and weighted maximal operators.

All means follow the convention sum_{k=1}^{n} with S_0 f = 0.  Each kind of
mean is one weight vector w on the partial sums S_k, one ``weights(n)`` entry
of the table ``_KINDS``; the mean is the spectral multiplier sum_k w_k S_k f
(the coefficient tails of w), and ``kernels.mean_kernel`` builds its kernel
sum_k w_k D_k from the same entry, so mean_n f = f * kernel_n up to rounding
and both share the entry's parameter checks.  The per-order functions
(``fejer_mean``, ``t_mean``, ...) evaluate the multiplier on the full grid
and serve as the oracle path.

Scans over the order n (maximal operators, strong sums, divergence probes,
convergence tables) go through ``mean_blocks``, which evaluates every run of
orders sharing a minimal level j as one (orders, M_j) block.  A mean of
order n uses only f^(0..n-1), and psi_k with k < M_j is constant on rank-j
cosets, so for n <= M_j the mean is a rank-j function: the same mean of E_j f
(the rank-j coset averages), whose spectrum is exactly f^(0..M_j-1).  The
block's coefficient rows are that spectrum prefix times each order's tail
sums, and one batched inverse stage pass synthesizes them all.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, RangeError
from .spectral import (
    GridFunction,
    coefficient_tails,
    inverse_rows,
    partial_sum,
    transform_forward,
    weighted_sum_combination,
)
from .weights import WeightSequence, harmonic_number, power_weights


def _partial_sum_weights(n: int) -> np.ndarray:
    if n < 0:
        raise RangeError("partial sum requires n >= 0")
    w = np.zeros(n + 1)
    w[n] = 1.0
    return w


def _fejer_weights(n: int) -> np.ndarray:
    if n < 1:
        raise RangeError("fejer mean requires n >= 1")
    w = np.zeros(n + 1)
    w[1:] = 1.0 / n
    return w


def fejer_mean(f: GridFunction, n: int) -> GridFunction:
    """sigma_n f = (1/n) sum_{k=1}^{n} S_k f."""
    MN = f.group.order(f.resolution)
    if not 1 <= n <= MN:
        raise RangeError(f"fejer mean order {n} outside 1..{MN}")
    return weighted_sum_combination(f, _fejer_weights(n))


@dataclass(frozen=True)
class CesaroCoeffs:
    """Table A_0^alpha .. A_n^alpha via the running product A_n = A_{n-1}(alpha+n)/n.

    A_0^alpha = 1 (empty product); the cross-order recursions
    A_n^alpha = sum_{k<=n} A_k^{alpha-1} and A_n^alpha - A_{n-1}^alpha =
    A_n^{alpha-1} close only with this normalization.
    """

    alpha: float
    table: np.ndarray

    def a(self, n: int) -> float:
        return float(self.table[n])


def cesaro_coeffs(alpha: float, n_max: int) -> CesaroCoeffs:
    if alpha <= -1 and float(alpha).is_integer():
        raise DomainError("alpha must avoid the negative integers")
    t = np.empty(n_max + 1)
    t[0] = 1.0
    for n in range(1, n_max + 1):
        t[n] = t[n - 1] * (alpha + n) / n
    return CesaroCoeffs(alpha=alpha, table=t)


def _cesaro_weights(n: int, alpha: float) -> np.ndarray:
    if not 0 < alpha <= 1:
        raise DomainError("cesaro mean requires 0 < alpha <= 1")
    if n < 1:
        raise RangeError("cesaro mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, n)
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n + 1)
    w[1:] = lower.table[n - 1::-1] / upper.a(n)
    return w


def cesaro_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """(C, alpha) mean (1/A_n^alpha) sum_{k=1}^{n} A_{n-k}^{alpha-1} S_k f."""
    return weighted_sum_combination(f, _cesaro_weights(n, alpha))


def _u_weights(n: int, alpha: float) -> np.ndarray:
    if not 0 < alpha < 1:
        raise DomainError("u mean requires 0 < alpha < 1")
    if n < 1:
        raise RangeError("u mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, max(n - 1, 0))
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n)
    w[1:] = lower.table[1:n] / upper.a(n)
    return w


def u_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """Inverse-order Cesaro mean (1/A_n^alpha) sum_{k=0}^{n-1} A_k^{alpha-1} S_k f."""
    return weighted_sum_combination(f, _u_weights(n, alpha))


def _v_weights(n: int, alpha: float) -> np.ndarray:
    if not 0 < alpha < 1:
        raise DomainError("v mean requires 0 < alpha < 1")
    return _t_weights(n, power_weights(alpha, n))


def v_mean(f: GridFunction, n: int, alpha: float) -> GridFunction:
    """T mean with weights q_0 = 1, q_k = k^(alpha-1): (1/Q_n) sum_{k=1}^{n-1} q_k S_k f."""
    return weighted_sum_combination(f, _v_weights(n, alpha))


def _riesz_log_weights(n: int) -> np.ndarray:
    if n < 2:
        raise RangeError("riesz-log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / (np.arange(1, n) * ln)
    return w


def riesz_log_mean(f: GridFunction, n: int) -> GridFunction:
    """R_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / k, n >= 2."""
    return weighted_sum_combination(f, _riesz_log_weights(n))


def _norlund_log_weights(n: int) -> np.ndarray:
    if n < 2:
        raise RangeError("norlund-log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / ((n - np.arange(1, n)) * ln)
    return w


def norlund_log_mean(f: GridFunction, n: int) -> GridFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n-k), n >= 2."""
    return weighted_sum_combination(f, _norlund_log_weights(n))


def _norlund_weights(n: int, q: WeightSequence) -> np.ndarray:
    if n < 1:
        raise RangeError("norlund mean requires n >= 1")
    if q.q(0) <= 0:
        raise DomainError("norlund mean requires q_0 > 0")
    q.extend(n - 1)
    Qn = q.Q(n)
    w = np.zeros(n + 1)
    w[1:] = q.values[n - 1::-1] / Qn
    return w


def norlund_mean(f: GridFunction, n: int, q: WeightSequence) -> GridFunction:
    """t_n f = (1/Q_n) sum_{k=1}^{n} q_{n-k} S_k f (reversed weights)."""
    return weighted_sum_combination(f, _norlund_weights(n, q))


def _t_weights(n: int, q: WeightSequence) -> np.ndarray:
    if n < 1:
        raise RangeError("t mean requires n >= 1")
    q.extend(n - 1)
    Qn = q.Q(n)
    w = np.zeros(n)
    w[1:] = q.values[1:n] / Qn
    return w


def t_mean(f: GridFunction, n: int, q: WeightSequence) -> GridFunction:
    """T_n f = (1/Q_n) sum_{k=1}^{n-1} q_k S_k f (forward weights, S_0 f = 0)."""
    return weighted_sum_combination(f, _t_weights(n, q))


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

    The envelope is n*q_{n-1} <= Q_n <= n*q_0 for nonincreasing weights and
    n*q_0 <= Q_n <= n*q_{n-1} for nondecreasing ones.
    """
    q.extend(n_max)
    rows = []
    envelope_ok = True
    for n in range(1, n_max + 1):
        Qn = float(q.partials[n])
        if Qn <= 0.0:
            continue  # leading zero weights: ratio undefined until Q_n > 0
        ratio = q.q(n - 1) / Qn
        rows.append({"n": n, "ratio": ratio, "n_ratio": n * ratio})
        if q.monotonicity == "nonincreasing":
            ok = n * q.q(n - 1) <= Qn * (1 + 1e-12) and Qn <= n * q.q(0) * (1 + 1e-12)
        elif q.monotonicity == "nondecreasing":
            ok = n * q.q(0) <= Qn * (1 + 1e-12) and Qn <= n * q.q(n - 1) * (1 + 1e-12) + 1e-300
        else:
            ok = True
        envelope_ok = envelope_ok and ok
    return {
        "monotonicity": q.monotonicity,
        "rows": rows,
        "envelope_ok": envelope_ok,
        "final_ratio": rows[-1]["ratio"],
        "sup_n_ratio": max(r["n_ratio"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Maximal operators
# ---------------------------------------------------------------------------

MeanFn = Callable[[GridFunction, int], GridFunction]

# kind -> (per-order full-grid mean, weights(n, *params), names of the params)
_KINDS = {
    "partial_sum": (partial_sum, _partial_sum_weights, ()),
    "fejer": (fejer_mean, _fejer_weights, ()),
    "cesaro": (cesaro_mean, _cesaro_weights, ("alpha",)),
    "u": (u_mean, _u_weights, ("alpha",)),
    "v": (v_mean, _v_weights, ("alpha",)),
    "riesz_log": (riesz_log_mean, _riesz_log_weights, ()),
    "norlund_log": (norlund_log_mean, _norlund_log_weights, ()),
    "norlund": (norlund_mean, _norlund_weights, ("q",)),
    "tmean": (t_mean, _t_weights, ("q",)),
}


def param_names(kind: str) -> tuple[str, ...]:
    """Names of the parameters a kind's mean and weights(n) take."""
    if kind not in _KINDS:
        raise DomainError(f"unknown mean kind {kind!r}")
    return _KINDS[kind][2]


def _method(kind: str, params: dict) -> tuple[MeanFn, Callable[[int], np.ndarray]]:
    """The per-order mean and the weights(n) of a kind, bound to its parameters."""
    args = tuple(params[name] for name in param_names(kind))
    mean, weights, _ = _KINDS[kind]
    return (lambda f, n: mean(f, n, *args)), (lambda n: weights(n, *args))


def _mean_by_kind(kind: str, **params) -> MeanFn:
    return _method(kind, params)[0]


def first_order(kind: str) -> int:
    """Least order at which a mean of this kind is defined."""
    return 2 if kind in ("riesz_log", "norlund_log") else 1


# Most complex entries one ``mean_blocks`` block holds (1 MiB); longer runs
# of orders on one level are split into several blocks.
_BLOCK_ENTRIES = 1 << 16


def mean_blocks(
    f: GridFunction, kind: str, orders: Iterable[int], **params
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Yield (j, ns, values) for each run of consecutive orders on one level.

    Row b of ``values`` (shape (len(ns), M_j)) is mean_{ns[b]} f as a rank-j
    function, j the least level with M_j >= n for every n in ns;
    ``hardy.embed`` replicates a row onto f's grid.  One forward transform
    serves f, not each sweep: ``transform_forward`` memoizes f's spectrum,
    so every sweep on the same f reads the same one.  Each level's spectrum
    is its prefix f^(0..M_j-1), the exact spectrum of E_j f.  A block's
    coefficient rows are that prefix times the coefficient tails of the
    orders' weight vectors, synthesized by one batched inverse; no block
    holds more than ``_BLOCK_ENTRIES`` entries unless a single row does.
    Orders outside 1..M_N go to the full grid one at a time, where the
    per-order mean raises its usual error.  Orders may come in any order
    and repeat.
    """
    mean, weights = _method(kind, params)
    g, N = f.group, f.resolution
    M = g.M
    orders = list(orders)
    levels = [bisect.bisect_left(M, n, 0, N) if 1 <= n <= M[N] else None for n in orders]
    s = transform_forward(f)
    start = 0
    while start < len(orders):
        j = levels[start]
        if j is None:
            yield N, [orders[start]], mean(f, orders[start]).values[None]
            start += 1
            continue
        stop = start + 1
        most = max(1, _BLOCK_ENTRIES // M[j])
        while stop < len(orders) and levels[stop] == j and stop - start < most:
            stop += 1
        ns = orders[start:stop]
        W = np.zeros((len(ns), M[j] + 1))
        for b, n in enumerate(ns):
            w = weights(n)
            W[b, :w.size] = w
        yield j, ns, inverse_rows(g, j, s.coeffs[:M[j]] * coefficient_tails(W, M[j]))
        start = stop


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
    unchanged.
    """
    idx = list(indices)
    if not idx:
        raise RangeError("maximal operator needs a nonempty index range")
    out = np.zeros(1)
    for _, ns, vals in mean_blocks(f, kind, idx, **params):
        w = np.ones(len(ns)) if weight is None else np.array([float(weight(n)) for n in ns])
        block = (np.abs(vals) / w[:, None]).max(axis=0)
        if block.size > out.size:
            out = np.tile(out, block.size // out.size)
        elif block.size < out.size:
            block = np.tile(block, out.size // block.size)
        np.maximum(out, block, out=out)
    out = np.tile(out, f.group.order(f.resolution) // out.size)
    return GridFunction(f.group, f.resolution, out.astype(np.complex128))


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
