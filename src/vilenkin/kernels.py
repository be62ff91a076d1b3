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

Kernel grids are computed on every call, not kept; each closed form is a
function of a few digits of x, written into reshaped views of the grid.
The geometric tails t(v) are memoised per (m, k0, k1) (``_geometric``), and
one LRU cache keeps the block tables (D_{M_l}, D_{s M_l}, K_{M_l}, K_{s M_l}
and the rotations r_l^s): read-only arrays keyed by (group, builder, level,
s, resolution) and bounded by bytes (``_BLOCK_BYTES``, through ``lru``).
"""

from __future__ import annotations

import bisect
import functools
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import lru, means
from .characters import _unit_roots, character_column
from .errors import DomainError, IndexOverflowError, RangeError, ShapeMismatchError
from .group import (GroupSpec, NatDigits, check_grid_points, digits_of, variation_v,
                    variation_vstar)
from .spectral import (GridFunction, Spectrum, coefficient_tails, delta, lp_norm, lp_norm_rows,
                       transform_inverse)
from .weights import WeightSequence

# Most bytes of block tables the block cache keeps (16 MiB at worst); the
# least recently used go first, and a table larger than the budget is
# returned but not kept.  One ``vilenkin verify --suite all`` run on [2]^12,
# [3]^9 or [2,3,4]^9 builds 32-36 tables (0.04-0.08 MB), so a whole run
# stays cached.
_BLOCK_BYTES = 16 << 20
_blocks: OrderedDict = OrderedDict()


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


def _block(g: GroupSpec, builder: str, level: int, s: int, resolution: int, build) -> np.ndarray:
    """The block table ``build()`` returns, built once per key and read-only."""
    key = (g.key(), builder, level, s, resolution)
    hit = lru.get(_blocks, key)
    if hit is not None:
        return hit
    val = build()
    val.flags.writeable = False
    return lru.put(_blocks, key, val, _BLOCK_BYTES)


# ---------------------------------------------------------------------------
# Dirichlet kernels
# ---------------------------------------------------------------------------

def dirichlet_block(g: GroupSpec, level: int, resolution: int) -> np.ndarray:
    """D_{M_level}: equals M_level on I_level and 0 elsewhere."""
    def build():
        out = np.zeros(g.order(resolution), dtype=np.complex128)
        out[::g.M[level]] = g.M[level]
        return out

    return _block(g, "dirichlet", level, 0, resolution, build)


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


def dirichlet_s_block(g: GroupSpec, s: int, level: int, resolution: int) -> np.ndarray:
    """D_{s*M_level} = D_{M_level} * sum_{k<s} r_level^k (block identity)."""
    if not 1 <= s <= g.m[level] - 1:
        raise RangeError("block multiplier s must satisfy 1 <= s <= m_level - 1")

    def build():
        ml, Ml = g.m[level], g.M[level]
        out = np.zeros(g.order(resolution), dtype=np.complex128)
        out.reshape(-1, ml, Ml)[:, :, 0] = complex(Ml) * _geometric(ml, 0, s)
        return out

    return _block(g, "dirichlet_s", level, s, resolution, build)


def _rotation(g: GroupSpec, level: int, s: int, resolution: int) -> np.ndarray:
    """r_level^s on the rank-``resolution`` grid."""
    def build():
        ml = g.m[level]
        out = np.empty(g.order(resolution), dtype=np.complex128)
        out.reshape(-1, ml, g.M[level])[:] = _unit_roots(ml)[(s * np.arange(ml)) % ml, None]
        return out

    return _block(g, "rotation", level, s, resolution, build)


# ---------------------------------------------------------------------------
# Fejer kernels
# ---------------------------------------------------------------------------

def fejer_block(g: GroupSpec, level: int, resolution: int) -> np.ndarray:
    """K_{M_level} in closed form.

    (M_level + 1)/2 on I_level; M_t/(1 - r_t(x)) on the sets where the only
    nonzero digit below ``level`` sits at position t; zero elsewhere.
    """
    def build():
        col = np.zeros(g.M[level], dtype=np.complex128)   # K_{M_level} at x mod M_level
        col[0] = (g.M[level] + 1) / 2.0
        for t in range(level):
            col[g.M[t] * np.arange(1, g.m[t])] = g.M[t] / (1.0 - _unit_roots(g.m[t])[1:])
        out = np.empty(g.order(resolution), dtype=np.complex128)
        out.reshape(-1, g.M[level])[:] = col
        return out

    return _block(g, "fejer", level, 0, resolution, build)


def _fejer_s_block(g: GroupSpec, s: int, level: int, resolution: int) -> np.ndarray:
    """K_{s*M_level} via the block-average identity.

    s*M*K_{s*M} = sum_{l<s}(sum_{i<l} r^i) * M * D_M + (sum_{l<s} r^l) * M * K_M.
    """
    def build():
        rpow = _rotation(g, level, 1, resolution)
        inner = np.zeros(g.order(resolution), dtype=np.complex128)   # sum_{l<s} sum_{i<l} r^i
        geo = np.zeros(g.order(resolution), dtype=np.complex128)     # sum_{l<s} r^l
        running = np.zeros_like(geo)
        term = np.ones_like(geo)
        for l in range(s):
            geo += term
            inner += running
            running = running + term
            term = term * rpow
        M = float(g.M[level])
        D = dirichlet_block(g, level, resolution)
        K = fejer_block(g, level, resolution)
        return (inner * M * D + geo * M * K) / (s * M)

    return _block(g, "fejer_s", level, s, resolution, build)


def _fejer_closed(g: GroupSpec, n: int, N: int) -> np.ndarray:
    """Block decomposition of n*K_n over the nonzero digits of n."""
    blocks = list(reversed(digits_of(n, g).nonzero()))  # highest digit first
    MN = g.order(N)
    acc = np.zeros(MN, dtype=np.complex128)
    prefix = np.ones(MN, dtype=np.complex128)
    remainder = n
    for i, (level, s) in enumerate(blocks):
        sM = s * g.M[level]
        remainder -= sM
        acc += prefix * sM * _fejer_s_block(g, s, level, N)
        if i < len(blocks) - 1:
            acc += prefix * remainder * dirichlet_s_block(g, s, level, N)
            prefix = prefix * _rotation(g, level, s, N)
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
    table entry, so its parameter checks and messages apply here too.
    """
    w = means._weight_row(means._method(kind, params)[1], n)
    N = _resolve(g, n, N)
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

