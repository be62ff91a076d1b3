"""Dirichlet, Fejer and weighted-mean kernels, and Lebesgue constants.

Every kernel of index n is constant on rank-(|n|+1) cosets, so that is the
default evaluation resolution.  ``dirichlet`` and ``fejer`` evaluate closed
forms; the naive character sums ``_dirichlet_naive`` and ``_fejer_naive``
are the oracle the tests and the verification suites check them against.
D_n is the digit-product formula shell by shell (Paley's lemma): n on
I_{|n|+1}, and psi_n ((n mod M_s) + M_s t_s(v)) on the shell I_s \\ I_{s+1}
where x_s = v, with t_s(v) = sum_{k=m_s-n_s}^{m_s-1} r_s^{kv}.  K_n is the
block decomposition through K at s*M_t indices.

The weighted kernels (Norlund, T, Riesz- and Norlund-logarithmic, and any
other kind in ``means._KINDS``) are not written out here: ``mean_kernel``
takes the mean's own weight vector w, row 0 of the kind's weight builder
for the one order n, and evaluates sum_k w_k D_k as one spectral
multiplier, the coefficient tails of w.

A kernel table over many orders is a mean sweep of the unit mass
u = M_N 1_{I_N}: its spectrum is all ones (up to one rounding), so
``means.mean_blocks(u, kind, orders)`` yields the kernels sum_k w_k D_k of a
kind as rank-j rows (``fejer_l1_batch``; the ``reisz`` and ``T2`` suprema).
The naive side has one sweep too: ``dirichlet_sweep`` adds the characters
psi_0, psi_1, ... into one running array and yields D_1, D_2, ...; the
naive Dirichlet and Fejer kernels, ``lebesgue_batch`` and the verification
workspace all read it.

Kernel grids are computed on every call, not kept.  Each block factor of
the closed forms is a small cell over a few digits of x: K_{M_l} is a
function of x mod M_l, D_{s M_l} and K_{s M_l} of (x_l, x mod M_l), and the
rotation r_l^s of x_l.  ``_fejer_closed`` adds prefix * cell into reshaped
views of its accumulator, and the block tables (``dirichlet_block``,
``fejer_block``, ...) repeat their cell over the grid.  Only the geometric
tails t(v) are memoised, per (m, k0, k1) (``_geometric``).
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import means
from .characters import _unit_roots, character_column
from .errors import DomainError, IndexOverflowError, RangeError, ShapeMismatchError
from .group import (GroupSpec, NatDigits, check_grid_points, digits_of, variation_v,
                    variation_vstar)
from .spectral import (GridFunction, Spectrum, coefficient_tails, delta, lp_norm, lp_norm_rows,
                       transform_inverse)
from .weights import WeightSequence


def min_resolution(g: GroupSpec, n: int) -> int:
    """Smallest resolution on which D_n (hence any index-n kernel) is constant."""
    if n <= 1:
        return 1
    if n >= g.M[g.levels]:
        raise IndexOverflowError(f"n={n} outside [0, {g.M[g.levels]})")
    return bisect.bisect_right(g.M, n)   # the k with M_{k-1} <= n < M_k


def _resolve(g: GroupSpec, n: int, N: int | None) -> int:
    need = min_resolution(g, n)
    if N is None:
        N = need
    elif N < need:
        raise ShapeMismatchError(f"kernel of index {n} needs resolution >= {need}, got {N}")
    elif N > g.levels:
        raise RangeError(f"resolution {N} exceeds group levels {g.levels}")
    check_grid_points(g, N)
    return N


# ---------------------------------------------------------------------------
# Dirichlet kernels
# ---------------------------------------------------------------------------

def _on_grid(g: GroupSpec, cell: np.ndarray, resolution: int) -> np.ndarray:
    """``cell``, a function of the low digits of x, repeated over the rank-``resolution`` grid."""
    return np.tile(cell.ravel(), g.order(resolution) // cell.size)


def _dirichlet_cell(g: GroupSpec, level: int) -> np.ndarray:
    """D_{M_level} at x mod M_level: M_level at 0, zero elsewhere."""
    cell = np.zeros(g.M[level], dtype=np.complex128)
    cell[0] = g.M[level]
    return cell


def dirichlet_block(g: GroupSpec, level: int, resolution: int) -> np.ndarray:
    """D_{M_level}: equals M_level on I_level and 0 elsewhere."""
    return _on_grid(g, _dirichlet_cell(g, level), resolution)


@functools.lru_cache(maxsize=256)
def _geometric(m: int, k0: int, k1: int) -> np.ndarray:
    """sum_{k0 <= k < k1} r^{k v} for each digit v = 0..m-1 of a radix-m position."""
    roots = _unit_roots(m)
    out = np.array([roots[(np.arange(k0, k1) * v) % m].sum() for v in range(m)])
    out.flags.writeable = False
    return out


def _dirichlet_closed(g: GroupSpec, n: int, N: int) -> np.ndarray:
    """Digit-product formula, shell by shell (see the module docstring)."""
    nd = digits_of(n, g)
    acc = np.full(g.order(N), complex(n))   # D_n / psi_n on I_{|n|+1}
    for s in range(nd.hi + 1):
        ms, Ms = g.m[s], g.M[s]
        # the shell I_s \ I_{s+1}: x mod M_s = 0 and x_s = v != 0
        tail = _geometric(ms, ms - nd.digits[s], ms)[1:]
        acc.reshape(-1, ms, Ms)[:, 1:, 0] = (n % Ms) + complex(Ms) * tail
    return character_column(g, n, N) * acc


def dirichlet_sweep(g: GroupSpec, n: int, N: int) -> Iterator[np.ndarray]:
    """Yield D_1, ..., D_n on the rank-N grid, one character added per step.

    Every yield is the same array, updated in place by the next step, so a
    caller reads (or copies) each one before it asks for the next.
    """
    D = np.zeros(g.order(N), dtype=np.complex128)
    for k in range(n):
        D += character_column(g, k, N)
        yield D


def _dirichlet_naive(g: GroupSpec, n: int, N: int) -> np.ndarray:
    D = np.zeros(g.order(N), dtype=np.complex128)   # D_0, if the sweep yields nothing
    for D in dirichlet_sweep(g, n, N):
        pass
    return D


def dirichlet(g: GroupSpec, n: int, N: int | None = None) -> GridFunction:
    """Dirichlet kernel D_n = sum_{k<n} psi_k; D_0 = 0."""
    if n < 0:
        raise RangeError("kernel index must be nonnegative")
    N = _resolve(g, n, N)
    return GridFunction(g, N, _dirichlet_closed(g, n, N))


def _dirichlet_s_cell(g: GroupSpec, s: int, level: int) -> np.ndarray:
    """D_{s*M_level} at (x_level, x mod M_level)."""
    cell = np.zeros((g.m[level], g.M[level]), dtype=np.complex128)
    cell[:, 0] = complex(g.M[level]) * _geometric(g.m[level], 0, s)
    return cell


def dirichlet_s_block(g: GroupSpec, s: int, level: int, resolution: int) -> np.ndarray:
    """D_{s*M_level} = D_{M_level} * sum_{k<s} r_level^k (block identity)."""
    if not 1 <= s <= g.m[level] - 1:
        raise RangeError("block multiplier s must satisfy 1 <= s <= m_level - 1")
    return _on_grid(g, _dirichlet_s_cell(g, s, level), resolution)


def _rotation_cell(g: GroupSpec, level: int, s: int) -> np.ndarray:
    """r_level^s at x_level."""
    return _unit_roots(g.m[level])[(s * np.arange(g.m[level])) % g.m[level]]


def _rotation(g: GroupSpec, level: int, s: int, resolution: int) -> np.ndarray:
    """r_level^s on the rank-``resolution`` grid."""
    return _on_grid(g, np.repeat(_rotation_cell(g, level, s), g.M[level]), resolution)


# ---------------------------------------------------------------------------
# Fejer kernels
# ---------------------------------------------------------------------------

def _fejer_cell(g: GroupSpec, level: int, shells: np.ndarray | None = None) -> np.ndarray:
    """K_{M_level} at x mod M_level (see ``fejer_block``).

    Off x = 0 the cell of a higher level agrees with it, so ``shells``, the
    cell of any level >= ``level``, gives those entries.
    """
    if shells is None:
        shells = np.zeros(g.M[level], dtype=np.complex128)
        for t in range(level):   # x = v M_t, v != 0
            shells.reshape(-1, g.m[t], g.M[t])[0, 1:, 0] = g.M[t] / (1.0 - _unit_roots(g.m[t])[1:])
    cell = shells[:g.M[level]].copy()
    cell[0] = (g.M[level] + 1) / 2.0
    return cell


def fejer_block(g: GroupSpec, level: int, resolution: int) -> np.ndarray:
    """K_{M_level} in closed form.

    (M_level + 1)/2 on I_level; M_t/(1 - r_t(x)) on the sets where the only
    nonzero digit below ``level`` sits at position t; zero elsewhere.
    """
    return _on_grid(g, _fejer_cell(g, level), resolution)


def _fejer_s_cell(g: GroupSpec, s: int, level: int, K: np.ndarray) -> np.ndarray:
    """K_{s*M_level} at (x_level, x mod M_level), from the cell K of K_{M_level}."""
    ml = g.m[level]
    inner = np.zeros(ml, dtype=np.complex128)   # sum_{l<s} sum_{i<l} r^i
    geo = np.zeros(ml, dtype=np.complex128)     # sum_{l<s} r^l
    term = np.ones(ml, dtype=np.complex128)     # r^l, r = r_level at x_level
    for _ in range(s):
        inner += geo
        geo += term
        term = term * _unit_roots(ml)
    M = float(g.M[level])
    return (inner[:, None] * M * _dirichlet_cell(g, level) + geo[:, None] * M * K) / (s * M)


def _fejer_s_block(g: GroupSpec, s: int, level: int, resolution: int) -> np.ndarray:
    """K_{s*M_level} via the block-average identity.

    s*M*K_{s*M} = sum_{l<s}(sum_{i<l} r^i) * M * D_M + (sum_{l<s} r^l) * M * K_M.
    """
    return _on_grid(g, _fejer_s_cell(g, s, level, _fejer_cell(g, level)), resolution)


def _fejer_closed(g: GroupSpec, n: int, N: int) -> np.ndarray:
    """Block decomposition of n*K_n over the nonzero digits of n.

    Each block adds prefix * cell into the grid split as (digits above the
    last block, digits between, x_level, x mod M_level); the prefix, the
    product of the rotations passed, depends on the digits above ``level``.
    """
    blocks = list(reversed(digits_of(n, g).nonzero()))  # highest digit first
    acc = np.zeros(g.order(N), dtype=np.complex128)
    prefix = np.ones(1, dtype=np.complex128)
    shells = _fejer_cell(g, blocks[0][0])
    remainder = n
    for i, (level, s) in enumerate(blocks):
        ml, Ml = g.m[level], g.M[level]
        sM = s * Ml
        remainder -= sM
        view = acc.reshape(prefix.size, -1, ml, Ml)
        p = prefix[:, None, None, None]
        view += p * sM * _fejer_s_cell(g, s, level, _fejer_cell(g, level, shells))
        if i < len(blocks) - 1:
            view += p * remainder * _dirichlet_s_cell(g, s, level)
            turned = p[:, :, :, 0] * _rotation_cell(g, level, s)
            prefix = np.repeat(turned, view.shape[1], axis=1).ravel()
    return acc / n


def _fejer_naive(g: GroupSpec, n: int, N: int) -> np.ndarray:
    acc = np.zeros(g.order(N), dtype=np.complex128)
    for D in dirichlet_sweep(g, n, N):
        acc += D
    return acc / n


def fejer(g: GroupSpec, n: int, N: int | None = None) -> GridFunction:
    """Fejer kernel K_n = (1/n) sum_{k=1}^{n} D_k.

    The summation convention starts at k = 1 and includes k = n, which is
    the convention under which the closed block forms hold exactly.
    """
    if n < 1:
        raise RangeError("fejer kernel requires n >= 1")
    N = _resolve(g, n, N)
    return GridFunction(g, N, _fejer_closed(g, n, N))


# ---------------------------------------------------------------------------
# Kernels of the summation methods in means._KINDS
# ---------------------------------------------------------------------------

def mean_kernel(g: GroupSpec, kind: str, n: int, N: int | None = None, **params) -> GridFunction:
    """sum_k w_k D_k for the order-n weight vector w of a ``means._KINDS`` kind.

    This is the kernel of the order-n mean of that kind: convolving f with
    it gives the mean, up to rounding.  The weights come from the mean's own
    table entry, so its parameter checks and messages apply here too.  The
    grid is checked before the n + 1 weights are built.
    """
    N = _resolve(g, n, N)
    w = means._weight_row(means._method(kind, params), n)
    return transform_inverse(Spectrum(g, N, coefficient_tails(w, g.order(N))))


def norlund_kernel(g: GroupSpec, q: WeightSequence, n: int, N: int | None = None) -> GridFunction:
    """A_n = (1/Q_n) sum_{k=1}^{n} q_{n-k} D_k (reversed weights)."""
    return mean_kernel(g, "norlund", n, N, q=q)


def tmean_kernel(g: GroupSpec, q: WeightSequence, n: int, N: int | None = None) -> GridFunction:
    """F_n = (1/Q_n) sum_{k=1}^{n-1} q_k D_k (forward weights, S_0 f = 0)."""
    return mean_kernel(g, "tmean", n, N, q=q)


def riesz_log_kernel(g: GroupSpec, n: int, N: int | None = None) -> GridFunction:
    """Y_n = (1/l_n) sum_{k=1}^{n-1} D_k / k, n >= 2."""
    return mean_kernel(g, "riesz_log", n, N)


def norlund_log_kernel(g: GroupSpec, n: int, N: int | None = None) -> GridFunction:
    """P_n = (1/l_n) sum_{k=1}^{n-1} D_k / (n-k), n >= 2."""
    return mean_kernel(g, "norlund_log", n, N)


# ---------------------------------------------------------------------------
# Lebesgue constants
# ---------------------------------------------------------------------------

def lebesgue_constant(g: GroupSpec, n: int) -> float:
    """L_n = ||D_n||_1, computed at the minimal sufficient resolution."""
    if n < 1:
        raise RangeError("lebesgue constant requires n >= 1")
    return lp_norm(dirichlet(g, n), 1.0)


@dataclass(frozen=True)
class LebesgueBounds:
    """Two-sided variation bounds for L_n."""

    n: int
    v: int
    vstar: int
    lam: int
    lower: float
    upper: float


def lebesgue_bounds(nd: NatDigits, variant: str = "literal") -> LebesgueBounds:
    """Bounds v/(4*lambda) + v*/lambda^2 <= L_n <= v + v*.

    ``variant`` picks the digit-variation flavor: "literal" starts the
    v-sum at j = 1 (matches the classical tabulated values); "corrected"
    starts at j = 0, the variant under which the two-sided bound holds for
    every n (see variation_v).
    """
    if variant == "literal":
        v = variation_v(nd, start=1)
    elif variant == "corrected":
        v = variation_v(nd, start=0)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    vs = variation_vstar(nd)
    lam = nd.group.lam
    return LebesgueBounds(
        n=nd.n, v=v, vstar=vs, lam=lam,
        lower=v / (4.0 * lam) + vs / float(lam) ** 2,
        upper=float(v + vs),
    )


def lebesgue_batch(g: GroupSpec, n_max: int) -> np.ndarray:
    """L_n for n = 1..n_max (entry 0 is 0), read off one ``dirichlet_sweep``."""
    if n_max < 0:
        raise RangeError(f"table order n_max must be nonnegative, got {n_max}")
    N = min_resolution(g, n_max)
    check_grid_points(g, N)
    out = np.zeros(n_max + 1)
    for n, D in enumerate(dirichlet_sweep(g, n_max, N), start=1):
        out[n] = np.abs(D).mean()
    return out


def fejer_l1_batch(g: GroupSpec, n_max: int) -> np.ndarray:
    """||K_n||_1 for n = 1..n_max (entry 0 is 0): a Fejer sweep of the unit mass."""
    if n_max < 0:
        raise RangeError(f"table order n_max must be nonnegative, got {n_max}")
    N = min_resolution(g, n_max)
    unit = delta(g, N, scale=g.order(N))
    out = np.zeros(n_max + 1)
    for _, ns, rows in means.mean_blocks(unit, "fejer", range(1, n_max + 1)):
        out[ns] = lp_norm_rows(rows, 1.0)
    return out


def q_pattern(g: GroupSpec, k: int) -> int:
    """Index M_{2k} + M_{2k-2} + ... + M_2 + M_0 (alternating-level pattern)."""
    if 2 * k >= g.levels:
        raise RangeError("pattern level exceeds group levels")
    return sum(g.M[2 * i] for i in range(k + 1))

