"""Summability means of grid functions and weighted maximal operators.

All means follow the convention sum_{k=1}^{n} with S_0 f = 0, matching the
kernels module, and every mean is evaluated as a single spectral multiplier
(weights on S_k translate to coefficient tail sums), which makes the
convolution representation mean_n f = f * kernel_n exact up to rounding.

Scans over the order n (maximal operators, strong sums, divergence probes,
convergence tables) go through ``mean_sweep``, which evaluates each mean at
its minimal resolution: a mean of order n uses only f^(0..n-1), and psi_k
with k < M_j is constant on rank-j cosets, so for n <= M_j the mean is a
rank-j function.  It equals the same mean of E_j f (the rank-j coset
averages), whose spectrum is exactly f^(0..M_j-1), and is computed on M_j
points instead of M_N.  The per-order functions below keep evaluating on
the full grid and serve as the oracle path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, RangeError
from .hardy import project_to_level
from .spectral import (
    GridFunction,
    Spectrum,
    transform_forward,
    weighted_sum_combination,
)
from .weights import WeightSequence, harmonic_number


def fejer_mean(f: GridFunction, n: int, spectrum: Spectrum | None = None) -> GridFunction:
    """sigma_n f = (1/n) sum_{k=1}^{n} S_k f."""
    MN = f.group.order(f.resolution)
    if not 1 <= n <= MN:
        raise RangeError(f"fejer mean order {n} outside 1..{MN}")
    w = np.zeros(n + 1)
    w[1:] = 1.0 / n
    return weighted_sum_combination(f, w, spectrum)


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


def cesaro_mean(f: GridFunction, n: int, alpha: float, spectrum: Spectrum | None = None) -> GridFunction:
    """(C, alpha) mean (1/A_n^alpha) sum_{k=1}^{n} A_{n-k}^{alpha-1} S_k f."""
    if not 0 < alpha <= 1:
        raise DomainError("cesaro mean requires 0 < alpha <= 1")
    if n < 1:
        raise RangeError("cesaro mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, n)
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n + 1)
    w[1:] = lower.table[n - 1::-1] / upper.a(n)
    return weighted_sum_combination(f, w, spectrum)


def u_mean(f: GridFunction, n: int, alpha: float, spectrum: Spectrum | None = None) -> GridFunction:
    """Inverse-order Cesaro mean (1/A_n^alpha) sum_{k=0}^{n-1} A_k^{alpha-1} S_k f."""
    if not 0 < alpha < 1:
        raise DomainError("u mean requires 0 < alpha < 1")
    if n < 1:
        raise RangeError("u mean requires n >= 1")
    lower = cesaro_coeffs(alpha - 1.0, max(n - 1, 0))
    upper = cesaro_coeffs(alpha, n)
    w = np.zeros(n)
    w[1:] = lower.table[1:n] / upper.a(n)
    return weighted_sum_combination(f, w, spectrum)


def v_mean(f: GridFunction, n: int, alpha: float, spectrum: Spectrum | None = None) -> GridFunction:
    """T mean with weights q_0 = 1, q_k = k^(alpha-1): (1/Q_n) sum_{k=1}^{n-1} q_k S_k f."""
    if not 0 < alpha < 1:
        raise DomainError("v mean requires 0 < alpha < 1")
    from .weights import power_weights

    return t_mean(f, n, power_weights(alpha, n), spectrum)


def riesz_log_mean(f: GridFunction, n: int, spectrum: Spectrum | None = None) -> GridFunction:
    """R_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / k, n >= 2."""
    if n < 2:
        raise RangeError("riesz-log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / (np.arange(1, n) * ln)
    return weighted_sum_combination(f, w, spectrum)


def norlund_log_mean(f: GridFunction, n: int, spectrum: Spectrum | None = None) -> GridFunction:
    """L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n-k), n >= 2."""
    if n < 2:
        raise RangeError("norlund-log mean requires n >= 2")
    ln = harmonic_number(n)
    w = np.zeros(n)
    w[1:] = 1.0 / ((n - np.arange(1, n)) * ln)
    return weighted_sum_combination(f, w, spectrum)


def norlund_mean(f: GridFunction, n: int, q: WeightSequence, spectrum: Spectrum | None = None) -> GridFunction:
    """t_n f = (1/Q_n) sum_{k=1}^{n} q_{n-k} S_k f (reversed weights)."""
    if n < 1:
        raise RangeError("norlund mean requires n >= 1")
    if q.q(0) <= 0:
        raise DomainError("norlund mean requires q_0 > 0")
    q.extend(n - 1)
    Qn = q.Q(n)
    w = np.zeros(n + 1)
    w[1:] = q.values[n - 1::-1] / Qn
    return weighted_sum_combination(f, w, spectrum)


def t_mean(f: GridFunction, n: int, q: WeightSequence, spectrum: Spectrum | None = None) -> GridFunction:
    """T_n f = (1/Q_n) sum_{k=1}^{n-1} q_k S_k f (forward weights, S_0 f = 0)."""
    if n < 1:
        raise RangeError("t mean requires n >= 1")
    q.extend(n - 1)
    Qn = q.Q(n)
    w = np.zeros(n)
    w[1:] = q.values[1:n] / Qn
    return weighted_sum_combination(f, w, spectrum)


def t_mean_abel(f: GridFunction, n: int, q: WeightSequence, spectrum: Spectrum | None = None) -> GridFunction:
    """Abel-transform form of the T mean:

    T_n f = (1/Q_n) [ sum_{j=0}^{n-2} (q_j - q_{j+1}) j sigma_j f
                      + q_{n-1} (n-1) sigma_{n-1} f ].
    Independent evaluation path used to validate the transform identities.
    """
    if n < 1:
        raise RangeError("t mean requires n >= 1")
    Qn = q.Q(n)
    s = spectrum if spectrum is not None else transform_forward(f)
    MN = f.group.order(f.resolution)
    acc = np.zeros(MN, dtype=np.complex128)
    for j in range(1, n - 1):
        c = (q.q(j) - q.q(j + 1)) * j
        if c != 0.0:
            acc = acc + c * fejer_mean(f, j, s).values
    if n >= 2:
        acc = acc + q.q(n - 1) * (n - 1) * fejer_mean(f, n - 1, s).values
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

MeanFn = Callable[[GridFunction, int, Spectrum | None], GridFunction]


def _mean_by_kind(kind: str, **params) -> MeanFn:
    from .spectral import partial_sum

    if kind == "partial_sum":
        return lambda f, n, s: partial_sum(f, n, s)
    if kind == "fejer":
        return lambda f, n, s: fejer_mean(f, n, s)
    if kind == "cesaro":
        alpha = params["alpha"]
        return lambda f, n, s: cesaro_mean(f, n, alpha, s)
    if kind == "u":
        alpha = params["alpha"]
        return lambda f, n, s: u_mean(f, n, alpha, s)
    if kind == "v":
        alpha = params["alpha"]
        return lambda f, n, s: v_mean(f, n, alpha, s)
    if kind == "riesz_log":
        return lambda f, n, s: riesz_log_mean(f, n, s)
    if kind == "norlund_log":
        return lambda f, n, s: norlund_log_mean(f, n, s)
    if kind == "norlund":
        q = params["q"]
        return lambda f, n, s: norlund_mean(f, n, q, s)
    if kind == "tmean":
        q = params["q"]
        return lambda f, n, s: t_mean(f, n, q, s)
    raise DomainError(f"unknown mean kind {kind!r}")


def first_order(kind: str) -> int:
    """Least order at which a mean of this kind is defined."""
    return 2 if kind in ("riesz_log", "norlund_log") else 1


def mean_sweep(
    f: GridFunction, kind: str, orders: Iterable[int], **params
) -> Iterator[tuple[int, GridFunction]]:
    """Yield (n, mean_n f) for each order, each at its minimal resolution.

    mean_n f is returned as a rank-j function for the least j with
    M_j >= n; ``hardy.embed`` replicates it onto f's grid.  One forward
    transform serves the whole sweep, and each level's spectrum is the
    prefix f^(0..M_j-1) of it, which is the exact spectrum of E_j f.
    Orders outside 1..M_N go to the full grid, where the per-order mean
    raises its usual error.  Orders may come in any order and repeat.
    """
    mean = _mean_by_kind(kind, **params)
    s = transform_forward(f)
    M, N = f.group.M, f.resolution
    at_level: dict[int, tuple[GridFunction, Spectrum]] = {}
    for n in orders:
        j = bisect.bisect_left(M, n, 0, N) if 1 <= n <= M[N] else N
        if j not in at_level:
            at_level[j] = (project_to_level(f, j), Spectrum(f.group, j, s.coeffs[:M[j]]))
        fj, sj = at_level[j]
        yield n, mean(fj, n, sj)


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
    The means come from ``mean_sweep`` at their minimal resolutions; the
    running max is kept at the finest of those so far and replicated onto
    f's grid once at the end, which leaves every value unchanged.
    """
    idx = list(indices)
    if not idx:
        raise RangeError("maximal operator needs a nonempty index range")
    out = np.zeros(1)
    for n, mean in mean_sweep(f, kind, idx, **params):
        w = 1.0 if weight is None else float(weight(n))
        vals = np.abs(mean.values) / w
        if vals.size > out.size:
            out = np.tile(out, vals.size // out.size)
        elif vals.size < out.size:
            vals = np.tile(vals, out.size // vals.size)
        np.maximum(out, vals, out=out)
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
