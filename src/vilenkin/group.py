"""Mixed-radix arithmetic for bounded Vilenkin groups.

A group is described by its radix sequence m = (m_0, m_1, ...) with every
m_k >= 2.  The generalized number system M_0 = 1, M_{k+1} = m_k * M_k gives
every natural number n < M_L a unique digit expansion n = sum_j n_j M_j with
0 <= n_j < m_j.  Group elements at resolution N are digit tuples of length N;
the flat index of a point is the same sum sum_j x_j M_j (little-endian), so
digit expansion and point indexing share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    IndexOverflowError,
    InvalidGroupError,
    RangeError,
    ShapeMismatchError,
)

# Largest admissible M_L; grids beyond this cannot be indexed reliably.
_MAX_ORDER = 2**62

# Most points a grid built from parameters may have (128 MiB of complex
# values); ``check_grid_points`` refuses larger grids before they exist.
MAX_GRID_POINTS = 1 << 23


@dataclass(frozen=True)
class GroupSpec:
    """Bounded Vilenkin group: radices m, cumulative products M, bound lambda."""

    m: tuple[int, ...]
    M: tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.m)

    @property
    def lam(self) -> int:
        """Maximum radix over the stored range."""
        return max(self.m)

    @property
    def is_dyadic(self) -> bool:
        return all(mk == 2 for mk in self.m)

    def order(self, resolution: int) -> int:
        """Number of grid points M_N at the given resolution."""
        if not 0 <= resolution <= self.levels:
            raise RangeError(f"resolution {resolution} outside 0..{self.levels}")
        return self.M[resolution]


def check_grid_points(g: GroupSpec, resolution: int) -> int:
    """M_N of a rank-N grid; RangeError if it exceeds ``MAX_GRID_POINTS``."""
    MN = g.order(resolution)
    if MN > MAX_GRID_POINTS:
        raise RangeError(f"a rank-{resolution} grid on radices {list(g.m[:resolution])} has "
                         f"{MN} points, more than the {MAX_GRID_POINTS} allowed")
    return MN


@dataclass(frozen=True)
class Point:
    """Group element stored as a digit tuple of length = resolution."""

    group: GroupSpec
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) > self.group.levels:
            raise RangeError("point resolution exceeds group levels")
        for j, d in enumerate(self.digits):
            if not 0 <= d < self.group.m[j]:
                raise RangeError(f"digit {d} out of range at position {j}")

    @property
    def resolution(self) -> int:
        return len(self.digits)

    def index(self) -> int:
        """Flat grid index sum_j x_j M_j."""
        return sum(d * self.group.M[j] for j, d in enumerate(self.digits))


@dataclass(frozen=True)
class NatDigits:
    """Natural number together with its mixed-radix digit data.

    hi = |n| and lo = <n> are the highest and lowest nonzero digit positions,
    rho = hi - lo.  For n = 0 all three are 0 by convention.
    """

    group: GroupSpec
    n: int
    digits: tuple[int, ...]
    hi: int = field(init=False)
    lo: int = field(init=False)

    def __post_init__(self) -> None:
        nz = [j for j, d in enumerate(self.digits) if d]
        object.__setattr__(self, "hi", max(nz) if nz else 0)
        object.__setattr__(self, "lo", min(nz) if nz else 0)

    @property
    def rho(self) -> int:
        return self.hi - self.lo

    def nonzero(self) -> list[tuple[int, int]]:
        """(position, digit) pairs of nonzero digits, low to high."""
        return [(j, d) for j, d in enumerate(self.digits) if d]


def make_group(radices: Sequence[int], levels: int | None = None) -> GroupSpec:
    """Build a GroupSpec from an explicit radix list or a repeating pattern.

    With ``levels`` given, the radix list is repeated cyclically to that
    length; otherwise it is taken verbatim.
    """
    pattern = tuple(int(r) for r in radices)
    if not pattern:
        raise InvalidGroupError("empty radix sequence")
    if levels is None:
        levels = len(pattern)
    if levels < 1:
        raise InvalidGroupError(f"levels must be >= 1, got {levels}")
    m = tuple(pattern[i % len(pattern)] for i in range(levels))
    for r in m:
        if r < 2:
            raise InvalidGroupError(f"radix {r} < 2")
    M = [1]
    for r in m:
        nxt = M[-1] * r
        if nxt > _MAX_ORDER:
            raise IndexOverflowError(f"M_{len(M)} exceeds the machine index range")
        M.append(nxt)
    return GroupSpec(m=m, M=tuple(M))


def digits_of(n: int, g: GroupSpec) -> NatDigits:
    """Digit expansion of 0 <= n < M_L in the group's number system."""
    if n < 0 or n >= g.M[g.levels]:
        raise IndexOverflowError(f"n={n} outside [0, {g.M[g.levels]})")
    digits = []
    t = int(n)
    for mk in g.m:
        t, d = divmod(t, mk)
        digits.append(d)
    return NatDigits(group=g, n=int(n), digits=tuple(digits))


def assemble(digits: Sequence[int], g: GroupSpec) -> int:
    """Inverse of digits_of: sum_j d_j M_j."""
    return sum(int(d) * g.M[j] for j, d in enumerate(digits))


def point_from_index(i: int, g: GroupSpec, resolution: int) -> Point:
    """Grid point with flat index i at the given resolution."""
    if not 0 <= i < g.order(resolution):
        raise IndexOverflowError(f"index {i} outside grid of size {g.order(resolution)}")
    digits = []
    t = int(i)
    for j in range(resolution):
        t, d = divmod(t, g.m[j])
        digits.append(d)
    return Point(group=g, digits=tuple(digits))


def _check_same(x: Point, y: Point) -> None:
    if x.group != y.group or x.resolution != y.resolution:
        raise ShapeMismatchError("points must share group and resolution")


def group_add(x: Point, y: Point) -> Point:
    """Digitwise modular sum x + y."""
    _check_same(x, y)
    m = x.group.m
    return Point(x.group, tuple((a + b) % m[j] for j, (a, b) in enumerate(zip(x.digits, y.digits))))


def group_sub(x: Point, y: Point) -> Point:
    """Digitwise modular difference x - y (inverse of group_add)."""
    _check_same(x, y)
    m = x.group.m
    return Point(x.group, tuple((a - b) % m[j] for j, (a, b) in enumerate(zip(x.digits, y.digits))))


def nat_hat_add(n: int, k: int, g: GroupSpec) -> int:
    """Digitwise modular sum of natural numbers, reassembled with weights M_j.

    The carry-free analogue of addition: digits combine mod m_j and never
    propagate.  Satisfies n +^ 0 = n and digit/reassembly round trips.
    """
    dn = digits_of(n, g).digits
    dk = digits_of(k, g).digits
    return assemble([(a + b) % g.m[j] for j, (a, b) in enumerate(zip(dn, dk))], g)


def nat_hat_sub(n: int, k: int, g: GroupSpec) -> int:
    """Digitwise modular difference; inverse of nat_hat_add."""
    dn = digits_of(n, g).digits
    dk = digits_of(k, g).digits
    return assemble([(a - b) % g.m[j] for j, (a, b) in enumerate(zip(dn, dk))], g)


def point_norm(x: Point) -> float:
    """Canonical norm sum_k x_k / M_{k+1}; lies in [0, 1)."""
    return float(sum(d / x.group.M[j + 1] for j, d in enumerate(x.digits)))


def variation_v(nd: NatDigits, start: int = 1) -> int:
    """Digit-sign variation v(n) = sum_{j>=start} |delta_{j+1} - delta_j| + delta_0.

    delta_j = sign(n_j).  ``start=1`` skips the (delta_0, delta_1)
    comparison and underestimates the variation for numbers like digits
    (0,1,1); it matches the classical tabulated values v(1)=1, v(5)=3.
    ``start=0`` includes that comparison and is the variant under which the
    two-sided Lebesgue-constant bounds hold for every n; the verification
    harness uses it.
    """
    if nd.n == 0:
        return 0
    delta = [1 if d else 0 for d in nd.digits] + [0]
    total = sum(abs(delta[j + 1] - delta[j]) for j in range(start, len(delta) - 1))
    return total + delta[0]


def variation_vstar(nd: NatDigits) -> int:
    """Companion variation v*(n) = sum_j |(-n_j mod m_j) - 1| * sign(n_j).

    Identically zero on dyadic groups.  The sum runs over all digit
    positions including j = 0.
    """
    if nd.n == 0:
        return 0
    total = 0
    for j, d in enumerate(nd.digits):
        if d:
            total += abs(((nd.group.m[j] - d) % nd.group.m[j]) - 1)
    return total


# ---------------------------------------------------------------------------
# Vectorized grid helpers: digit j of a flat index x is (x // M_j) % m_j
# ---------------------------------------------------------------------------

def digit_matrix(g: GroupSpec, resolution: int) -> np.ndarray:
    """Array of shape (resolution, M_N): row j holds digit j of every index."""
    MN = g.order(resolution)
    out = np.empty((resolution, MN), dtype=np.int64)
    idx = np.arange(MN, dtype=np.int64)
    for j in range(resolution):
        idx, out[j] = np.divmod(idx, g.m[j])
    return out


def index_sub(g: GroupSpec, resolution: int, i, h) -> np.ndarray:
    """Flat indices of x - h, digit by digit mod m_j, for x in ``i`` and h in ``h``.

    ``i`` and ``h`` broadcast and are not range-checked (both lie below M_N).
    Digit j wraps, adding M_{j+1}, where x_j < h_j: x - h plus those borrows.
    """
    x = np.asarray(i, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    out = np.subtract(x, h, out=np.empty(np.broadcast_shapes(x.shape, h.shape), np.int64))
    for j in range(resolution):
        hj = (h // g.M[j]) % g.m[j]
        if hj.any():
            np.add(out, g.M[j + 1], out=out, where=(x // g.M[j]) % g.m[j] < hj)
    return out


@dataclass(frozen=True)
class CosetPartition:
    """Partition of the complement of I_N into shells and refined cells.

    ``shells[s]`` is the index set of I_s \\ I_{s+1} (first nonzero digit at
    position s).  ``cells`` maps (k, l) with k < l <= N to the index set
    where the first nonzero digit sits at k, digits k+1..l-1 vanish, and
    digit l is nonzero (for l < N) or all digits above k vanish (l = N).
    """

    group: GroupSpec
    resolution: int
    shells: tuple[tuple[int, np.ndarray], ...]
    cells: tuple[tuple[int, int, np.ndarray], ...]


def coset_partition(g: GroupSpec, resolution: int) -> CosetPartition:
    """Enumerate the shell and cell partitions of the complement of I_N."""
    N = resolution
    x = np.arange(g.order(N), dtype=np.int64)
    # x in I_s \ I_{s+1}: the digits below s vanish and digit s does not
    shell = [(x % g.M[s] == 0) & ((x // g.M[s]) % g.m[s] != 0) for s in range(N)]
    cells = []
    for k in range(N):
        for l in range(k + 1, N + 1):
            mask = shell[k] & (x % g.M[l] < g.M[k + 1])   # digits k+1..l-1 vanish
            if l < N:
                mask &= (x // g.M[l]) % g.m[l] != 0
            idx = np.nonzero(mask)[0]
            if idx.size:
                cells.append((k, l, idx))
    shells = tuple((s, np.nonzero(mask)[0]) for s, mask in enumerate(shell))
    return CosetPartition(group=g, resolution=N, shells=shells, cells=tuple(cells))


def coset_indices(g: GroupSpec, resolution: int, level: int, base: int) -> np.ndarray:
    """Indices of the coset I_level(base) inside the rank-``resolution`` grid."""
    if not 0 <= level <= resolution:
        raise RangeError("level outside 0..resolution")
    low = base % g.M[level]
    reps = g.order(resolution) // g.M[level]
    return low + g.M[level] * np.arange(reps, dtype=np.int64)

