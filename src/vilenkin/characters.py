"""Generalized Rademacher and Vilenkin character functions.

Characters are exact roots of unity: values come from per-radix lookup
tables of exp(2*pi*i*j/m), and products accumulate digit exponents mod m_k
before a single table lookup, so no repeated transcendental calls occur.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError, ShapeMismatchError
from .group import GroupSpec, NatDigits, Point, digit_matrix, digits_of


@lru_cache(maxsize=64)
def _unit_roots(m: int) -> np.ndarray:
    """Table exp(2*pi*i*j/m) for j = 0..m-1, read-only: every call shares it."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


def rademacher(k: int, x: Point) -> complex:
    """r_k(x) = exp(2*pi*i*x_k/m_k)."""
    if not 0 <= k < x.resolution:
        raise RangeError(f"rademacher index {k} outside resolution {x.resolution}")
    return complex(_unit_roots(x.group.m[k])[x.digits[k]])


def vilenkin_psi(n: int | NatDigits, x: Point) -> complex:
    """psi_n(x) = prod_k r_k(x)^{n_k} = exp(2*pi*i*sum_k n_k x_k / m_k)."""
    nd = n if isinstance(n, NatDigits) else digits_of(n, x.group)
    if nd.n > 0 and nd.hi >= x.resolution:
        raise ShapeMismatchError(
            f"psi_{nd.n} needs resolution > {nd.hi}, point has {x.resolution}"
        )
    out = complex(1.0)
    for j, d in nd.nonzero():
        mj = x.group.m[j]
        out *= complex(_unit_roots(mj)[(d * x.digits[j]) % mj])
    return out


def walsh(n: int | NatDigits, x: Point) -> float:
    """Walsh function w_n(x) on a dyadic group; real-valued in {-1, +1}."""
    if not x.group.is_dyadic:
        raise DomainError("walsh functions require all radices equal to 2")
    nd = n if isinstance(n, NatDigits) else digits_of(n, x.group)
    parity = sum(d * x.digits[j] for j, d in nd.nonzero()) % 2
    return -1.0 if parity else 1.0


def character_column(g: GroupSpec, n: int, resolution: int) -> np.ndarray:
    """psi_n evaluated on the whole rank-``resolution`` grid (flat indexing)."""
    nd = digits_of(n, g)
    if nd.n > 0 and nd.hi >= resolution:
        raise ShapeMismatchError(
            f"psi_{n} needs resolution > {nd.hi}, grid has {resolution}"
        )
    # the digit table's last reader: a faster column waits on ROADMAP item 1a
    dm = digit_matrix(g, resolution)
    out = np.ones(g.order(resolution), dtype=np.complex128)
    for j, d in nd.nonzero():
        mj = g.m[j]
        out *= _unit_roots(mj)[(d * dm[j]) % mj]
    return out


def character_matrix(g: GroupSpec, count: int, resolution: int) -> np.ndarray:
    """Rows psi_0 .. psi_{count-1} on the rank-``resolution`` grid.

    Quadratic-size object; intended for oracles and small grids.
    """
    MN = g.order(resolution)
    if count > MN:
        raise RangeError("cannot evaluate characters above the grid order")
    out = np.empty((count, MN), dtype=np.complex128)
    for k in range(count):
        out[k] = character_column(g, k, resolution)
    return out
