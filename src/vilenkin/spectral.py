"""Grid functions on a bounded Vilenkin group and their Fourier analysis.

A GridFunction holds the M_N values of a function constant on rank-N
cosets; integration is (1/M_N) * sum(values) under the normalized Haar
measure.  The forward transform computes all Fourier coefficients
f^(n) = int f conj(psi_n) dmu as a tensor product of small DFTs with no
twiddle factors: the characters of prod Z_{m_k} form a Kronecker product of
m_k-point DFT tables.  Adjacent digit positions are fused into blocks whose
radix product B is at most 32 (a larger radix is a block of its own), and
each block is one cached B x B character table applied as one 2-D matrix
product on the leading axis (the transposed Kronecker form of Pease, 1968),
for a cost of O(M_N * sum over blocks of B).  Each product rotates the
axes, and after the last one the coefficients stand in the little-endian
flat order of the values, with no reordering pass.  Table entries at a
quarter-turn phase are the exact 1, +-i, -1, so a block of radix-2 digits
is the real +-1 Walsh table.

``transform_forward`` memoizes the spectrum on the grid function: values
and coefficients are read-only, so every n-sweep, probe and norm of one f
shares a single forward stage pass, and the spectrum lives only as long as
f does.  The transforms own their outputs: the arrays they allocate are
marked read-only and kept without the copy the public constructors make of
a caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError, ShapeMismatchError
from .group import GroupSpec, check_grid_points, index_sub
from .characters import character_column


def _freeze(obj, field: str) -> None:
    """Set ``field`` of a new grid object to a read-only complex copy of its M_N entries.

    M_N comes from ``check_grid_points``, so a grid past ``MAX_GRID_POINTS``
    is refused with RangeError, as the grids built from parameters are.
    """
    MN = check_grid_points(obj.group, obj.resolution)
    arr = np.array(getattr(obj, field), dtype=np.complex128)
    if arr.shape != (MN,):
        raise ShapeMismatchError(f"expected {MN} {field}, got shape {arr.shape}")
    arr.flags.writeable = False
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class GridFunction:
    """Function constant on rank-N cosets, stored as M_N complex values."""

    group: GroupSpec
    resolution: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "values")

    def integral(self) -> complex:
        """int f dmu = (1/M_N) sum of values."""
        return complex(self.values.mean())

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.group, self.resolution, values)


@dataclass(frozen=True)
class Spectrum:
    """All M_N Fourier coefficients of a rank-N grid function."""

    group: GroupSpec
    resolution: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "coeffs")


def constant(g: GroupSpec, resolution: int, value: complex = 1.0) -> GridFunction:
    MN = check_grid_points(g, resolution)
    return GridFunction(g, resolution, np.full(MN, value, dtype=np.complex128))


def delta(g: GroupSpec, resolution: int, at: int = 0, scale: complex = 1.0) -> GridFunction:
    """``scale`` at the grid point of flat index ``at`` (0 <= at < M_N), 0 elsewhere."""
    MN = check_grid_points(g, resolution)
    if not 0 <= at < MN:
        raise RangeError(f"point index {at} outside 0..{MN - 1}")
    vals = np.zeros(MN, dtype=np.complex128)
    vals[at] = scale
    return GridFunction(g, resolution, vals)


def character_function(g: GroupSpec, n: int, resolution: int) -> GridFunction:
    return GridFunction(g, resolution, character_column(g, n, resolution))


def random_grid_function(g: GroupSpec, resolution: int, seed: int) -> GridFunction:
    """Seeded test function: standard-normal real and imaginary parts (PCG64 generator)."""
    MN = check_grid_points(g, resolution)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(MN)
    return GridFunction(g, resolution, re + 1j * rng.standard_normal(MN))


# ---------------------------------------------------------------------------
# Fast mixed-radix transform
# ---------------------------------------------------------------------------

# Largest radix product fused into one block.  Per stage pass on [2]^17, [3]^11,
# [5]^7, [2,3,4]^11 and [5]^3-[5]^6 sweep blocks (2 vCPUs, 1 BLAS thread), cap
# 16 took 0.99-1.23x the time of 32 (radix-5 blocks fall to B = 5), 64 took
# 0.98-1.30x ([2,3,4]^11 worst, B = 48) and 128 took 1.34-2.35x.
_BLOCK = 32


@lru_cache(maxsize=64)
def _blocks(radices: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Runs (j0, j1) of digit positions with prod m_j0..m_{j1-1} <= _BLOCK.

    Runs are filled greedily from digit 0; a radix above ``_BLOCK`` is a run
    of its own.
    """
    runs = []
    j0, B = 0, 1
    for j, m in enumerate(radices):
        if j > j0 and B * m > _BLOCK:
            runs.append((j0, j))
            j0, B = j, 1
        B *= m
    if radices:
        runs.append((j0, len(radices)))
    return tuple(runs)


@lru_cache(maxsize=128)
def _block_matrix(radices: tuple[int, ...], sign: int) -> np.ndarray:
    """Character table of Z_{m_j0} x ... x Z_{m_{j1-1}}, little-endian on both axes.

    Entry (k, x) is exp(sign * 2*pi*i * sum_j k_j x_j / m_j), i.e.
    kron(F_{m_{j1-1}}, ..., F_{m_j0}) with F_m = exp(sign * 2*pi*i * k x / m);
    the table is symmetric.  The phase is reduced exactly to r/B before one
    exponential, so every entry depends only on the rational phase, and a
    quarter-turn phase (4r = 0 mod B) is the exact 1, +-i or -1: a block of
    radix-2 digits is the real +-1 Walsh table, stored as complex128 with
    zero imaginary parts.  Read-only: the cache shares it.
    """
    B = int(np.prod(radices))
    k = np.arange(B)
    r = np.zeros((B, B), dtype=np.int64)
    for m in radices:
        k, d = np.divmod(k, m)
        r += np.outer(d, d) * (B // m)
    r %= B
    F = np.exp(sign * 2j * np.pi * (r / B))
    quarter, rem = np.divmod(4 * r, B)
    exact = rem == 0
    F[exact] = np.array([1, sign * 1j, -1, -sign * 1j])[quarter[exact]]
    F.flags.writeable = False
    return F


def _stage_pass(vals: np.ndarray, g: GroupSpec, resolution: int, sign: int) -> np.ndarray:
    """Apply the character table of every fused digit block to the last axis.

    The transposed Kronecker form: the batch axis (the leading axes of
    ``vals``) goes last, and each block from the top digits down is one 2-D
    product.  With the block's B digits leading, ``a.reshape(B, -1).T @ F``
    (F is symmetric) contracts them and puts the block's output digits last,
    so the untouched digits and the batch rotate forward; after the lowest
    block the array is (batch, M_N) in natural order.  The result is always
    a new array; for N = 0 (no block) it is a copy of ``vals``.
    """
    blocks = _blocks(g.m[:resolution])
    a = vals.reshape(-1, g.order(resolution)).T
    for j0, j1 in reversed(blocks):
        F = _block_matrix(g.m[j0:j1], sign)
        a = a.reshape(F.shape[0], -1).T @ F
    return a.reshape(vals.shape) if blocks else vals.copy()


def _adopt(cls, g: GroupSpec, resolution: int, arr: np.ndarray):
    """``cls(g, resolution, arr)`` without the shape check and the copy.

    Only for a complex (M_N,) array this module has just allocated and
    nothing else references; it is marked read-only here.
    """
    arr.flags.writeable = False
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), (g, resolution, arr)):
        object.__setattr__(obj, field.name, value)
    return obj


def transform_forward(f: GridFunction) -> Spectrum:
    """All Fourier coefficients of f; O(M_N * sum over fused blocks of B).

    The first call runs the stage pass and stores the (read-only) spectrum
    on f; later calls on the same f return that object.
    """
    s = f.__dict__.get("_spectrum")
    if s is None:
        coeffs = _stage_pass(f.values, f.group, f.resolution, sign=-1)
        # true division on the reals: a complex / int quotient goes through
        # a rounded reciprocal (1 - 2^-53 for M_N / M_N on [3]^6)
        re_im = coeffs.view(np.float64)
        np.divide(re_im, f.group.order(f.resolution), out=re_im)
        s = _adopt(Spectrum, f.group, f.resolution, coeffs)
        object.__setattr__(f, "_spectrum", s)
    return s


def transform_inverse(s: Spectrum) -> GridFunction:
    """Synthesize sum_n c_n psi_n from a full coefficient vector."""
    return _adopt(GridFunction, s.group, s.resolution,
                  _stage_pass(s.coeffs, s.group, s.resolution, sign=+1))


def inverse_rows(g: GroupSpec, resolution: int, coeffs: np.ndarray) -> np.ndarray:
    """Synthesize every row of a (..., M_N) coefficient block in one stage pass.

    Row b of the result is the grid of sum_n coeffs[b, n] psi_n, as
    ``transform_inverse`` would give it one row at a time.
    """
    if coeffs.shape[-1:] != (g.order(resolution),):
        raise ShapeMismatchError("coefficient rows must have M_N entries")
    return _stage_pass(coeffs, g, resolution, sign=+1)


def naive_forward(f: GridFunction) -> Spectrum:
    """Direct O(M_N^2) evaluation of every coefficient (oracle path)."""
    g, N = f.group, f.resolution
    MN = g.order(N)
    x = np.arange(MN)
    coeffs = np.empty(MN, dtype=np.complex128)
    # exponent of psi_n at x is sum_j n_j x_j / m_j; each term, k x_j = k (x // M_j)
    # mod m_j, is reduced exactly before the exponential; rows one n at a time
    digit_tables = [np.exp(-2j * np.pi * ((np.outer(np.arange(m), x // M) % m) / m))
                    for m, M in zip(g.m[:N], g.M)]
    for n in range(MN):
        t = n
        row = np.ones(MN, dtype=np.complex128)
        for j in range(N):
            t, d = divmod(t, g.m[j])
            if d:
                row *= digit_tables[j][d]
        coeffs[n] = row @ f.values
    return Spectrum(g, N, coeffs / MN)


def fourier_coeff(f: GridFunction, n: int) -> complex:
    """f^(n) = int f conj(psi_n) dmu; exactly 0 for n >= M_N."""
    if n < 0:
        raise RangeError("coefficient index must be nonnegative")
    if n >= f.group.order(f.resolution):
        return 0.0
    col = character_column(f.group, n, f.resolution)
    return complex(np.vdot(col, f.values) / f.group.order(f.resolution))


# ---------------------------------------------------------------------------
# Partial sums and convolution
# ---------------------------------------------------------------------------

def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """S_n f = sum_{k<n} f^(k) psi_k, 0 <= n <= M_N; S_0 f = 0."""
    MN = f.group.order(f.resolution)
    if not 0 <= n <= MN:
        raise RangeError(f"partial-sum order {n} outside 0..{MN}")
    masked = np.where(np.arange(MN) < n, transform_forward(f).coeffs, 0.0)
    return transform_inverse(_adopt(Spectrum, f.group, f.resolution, masked))


def weighted_sum_combination(f: GridFunction, weights: np.ndarray) -> GridFunction:
    """sum_k weights[k] * S_k f, evaluated as one coefficient multiplier.

    S_k f contains psi_j exactly when j < k, so the combined coefficient
    multiplier at j is sum_{k>j} weights[k] (``coefficient_tails``).
    ``weights`` is indexed by k from 0 (entry 0 is vacuous since S_0 f = 0).
    """
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 1:
        raise ShapeMismatchError("weights must be one vector w_0, w_1, ...")
    tail = coefficient_tails(w, f.group.order(f.resolution))
    coeffs = transform_forward(f).coeffs * tail
    return transform_inverse(_adopt(Spectrum, f.group, f.resolution, coeffs))


def coefficient_tails(weights: np.ndarray, size: int) -> np.ndarray:
    """Multipliers of f^(0..size-1) in sum_k weights[..., k] * S_k f.

    S_k f contains psi_j exactly when j < k, so the multiplier at j is
    sum_{k>j} weights[..., k]; entry 0 of the last axis is vacuous since
    S_0 f = 0.  Leading axes are rows; the dtype of ``weights`` is kept.
    Zero weights past index size are dropped: they change no tail.
    """
    w = np.asarray(weights)
    if w.shape[-1] > size + 1:
        if w[..., size + 1:].any():
            raise RangeError("weight list longer than M_N + 1")
        w = w[..., :size + 1]
    rev = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    tail = np.zeros(w.shape[:-1] + (size,), dtype=rev.dtype)
    tail[..., :w.shape[-1] - 1] = rev[..., 1:]
    return tail


def convolve(f: GridFunction, h: GridFunction) -> GridFunction:
    """(f * h)(x) = int f(x - t) h(t) dmu(t), via coefficient products."""
    if f.group != h.group or f.resolution != h.resolution:
        raise ShapeMismatchError("convolution operands must match")
    sf = transform_forward(f)
    sh = transform_forward(h)
    return transform_inverse(_adopt(Spectrum, f.group, f.resolution, sf.coeffs * sh.coeffs))


def convolve_naive(f: GridFunction, h: GridFunction) -> GridFunction:
    """Direct double-sum convolution (oracle path, O(M_N^2))."""
    if f.group != h.group or f.resolution != h.resolution:
        raise ShapeMismatchError("convolution operands must match")
    g, N = f.group, f.resolution
    MN = g.order(N)
    idx = np.arange(MN, dtype=np.int64)
    out = np.zeros(MN, dtype=np.complex128)
    for t in range(MN):
        if h.values[t] == 0:
            continue
        out += f.values[index_sub(g, N, idx, t)] * h.values[t]
    return GridFunction(g, N, out / MN)


def shift(f: GridFunction, h: int) -> GridFunction:
    """Translate: (T_h f)(x) = f(x - h), h given as a flat grid index 0 <= h < M_N."""
    MN = f.group.order(f.resolution)
    if not 0 <= h < MN:
        raise RangeError(f"shift {h} outside the grid 0..{MN - 1}")
    idx = index_sub(f.group, f.resolution, np.arange(MN), h)
    return GridFunction(f.group, f.resolution, f.values[idx])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def lp_norm(f: GridFunction, p: float) -> float:
    """||f||_p under normalized Haar measure; p = inf gives the sup norm."""
    return float(lp_norm_rows(f.values, p))


def lp_norm_rows(values: np.ndarray, p: float) -> np.ndarray:
    """``lp_norm`` of each row of a (..., M_N) block of grid values."""
    if not p > 0:   # NaN too
        raise DomainError(f"p must be positive, got {p}")
    a = np.abs(values)
    if np.isinf(p):
        return a.max(axis=-1)
    return (a**p).mean(axis=-1) ** (1.0 / p)


def weak_lp(f: GridFunction, p: float) -> float:
    """sup_{lam>0} lam * mu(|f| > lam)^{1/p}, exact on the grid.

    On a finite grid the supremum is attained as lam approaches one of the
    distinct values of |f| from below, so scanning sorted values suffices.
    """
    return float(weak_lp_rows(f.values, p))


def weak_lp_rows(values: np.ndarray, p: float) -> np.ndarray:
    """``weak_lp`` of each row of a (..., M_N) block of grid values."""
    if not p > 0:   # NaN too
        raise DomainError(f"p must be positive, got {p}")
    a = np.sort(np.abs(values), axis=-1)[..., ::-1]
    MN = a.shape[-1]
    frac = (np.arange(1, MN + 1) / MN) ** (1.0 / p)
    return (a * frac).max(axis=-1)
