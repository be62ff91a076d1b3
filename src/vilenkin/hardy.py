"""Step martingales, p-atoms, maximal functions, and H_p quasi-norms.

A StepMartingale is a finite sequence of grid functions f^(n_0), f^(n_1), ...
at increasing resolutions satisfying the consistency law: averaging a finer
entry over rank-n_i cosets reproduces the coarser entry.  The H_p quasi-norm
is computed in maximal-function form ||sup_i |f^(n_i)|||_p, which is the
computable representative of the atomic-decomposition norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AtomBoundError,
    AtomMeanError,
    AtomSupportError,
    DomainError,
    InvalidParamsError,
    RangeError,
    ShapeMismatchError,
)
from .characters import character_column
from .group import GroupSpec, check_grid_points, coset_indices, index_sub
from .spectral import GridFunction, lp_norm, lp_norm_rows

_SHIFT_ENTRIES = 1 << 16   # index-table entries gathered at once by ``modulus``


def conditional_expectation(f: GridFunction, n: int) -> GridFunction:
    """Average f over each rank-n coset and replicate; equals S_{M_n} f."""
    return embed(project_to_level(f, n), f.resolution)


def project_to_level(f: GridFunction, n: int) -> GridFunction:
    """Coset averages of f as a rank-n grid function (no replication)."""
    if not 0 <= n <= f.resolution:
        raise RangeError(f"level {n} outside 0..{f.resolution}")
    g = f.group
    Mn = g.M[n]
    MN = g.order(f.resolution)
    return GridFunction(g, n, f.values.reshape(MN // Mn, Mn).mean(axis=0))


def embed(f: GridFunction, resolution: int) -> GridFunction:
    """Replicate a rank-n function onto a finer grid."""
    if resolution < f.resolution:
        raise RangeError("embedding target must be at least the source resolution")
    reps = f.group.order(resolution) // f.group.order(f.resolution)
    return GridFunction(f.group, resolution, np.tile(f.values, reps))


@dataclass(frozen=True)
class StepMartingale:
    """Finite martingale: entries at strictly increasing levels."""

    group: GroupSpec
    levels: tuple[int, ...]
    entries: tuple[GridFunction, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise InvalidParamsError("martingale needs at least one level")
        if list(self.levels) != sorted(set(self.levels)):
            raise InvalidParamsError("levels must be strictly increasing")
        if len(self.levels) != len(self.entries):
            raise InvalidParamsError("levels and entries must align")
        for n, e in zip(self.levels, self.entries):
            if e.resolution != n:
                raise ShapeMismatchError(f"entry at level {n} has resolution {e.resolution}")
            if e.group != self.group:
                raise ShapeMismatchError("martingale entries live on one group")

    @property
    def final(self) -> GridFunction:
        return self.entries[-1]

    def check_consistency(self) -> float:
        """Max deviation of coset averaging between consecutive entries."""
        worst = 0.0
        for i in range(len(self.entries) - 1):
            proj = project_to_level(self.entries[i + 1], self.levels[i])
            worst = max(worst, float(np.abs(proj.values - self.entries[i].values).max()))
        return worst


def regular_martingale(f: GridFunction, levels: Sequence[int] | None = None) -> StepMartingale:
    """Martingale of coset averages (S_{M_0} f, S_{M_1} f, ..., f)."""
    if levels is None:
        levels = list(range(f.resolution + 1))
    entries = tuple(project_to_level(f, n) for n in levels)
    return StepMartingale(group=f.group, levels=tuple(levels), entries=entries)


def maximal_function(mart: StepMartingale) -> GridFunction:
    """f* = sup_i |f^(n_i)| at the finest resolution."""
    top = mart.levels[-1]
    out = np.zeros(mart.group.order(top))
    for e in mart.entries:
        np.maximum(out, np.abs(embed(e, top).values), out=out)
    return GridFunction(mart.group, top, out.astype(np.complex128))


def hardy_quasinorm(mart: StepMartingale, p: float) -> float:
    """||f||_{H_p} = ||f*||_p in maximal-function form."""
    return lp_norm(maximal_function(mart), p)


def hardy_quasinorm_fn(f: GridFunction, p: float) -> float:
    """H_p quasi-norm of the regular martingale generated by f."""
    return hardy_quasinorm(regular_martingale(f), p)


def hardy_quasinorm_rows(g: GroupSpec, resolution: int, values: np.ndarray, p: float) -> np.ndarray:
    """``hardy_quasinorm_fn`` of each row of a (B, M_j) block of rank-j grid values.

    The maximal function of a row's regular martingale is the max over
    levels l <= j of its |rank-l coset averages|, replicated onto M_j points.
    The averages form a pyramid, built from fine to coarse: level l is the
    mean over digit x_l of level l + 1, so every level costs O(M_j) per row
    in all.  The running maximum starts at level 0 and is widened one level
    at a time, broadcast over digit x_l of the next level.  The result
    agrees with ``hardy_quasinorm_fn``, whose direct averages are its
    oracle, up to rounding.
    """
    B, Mj = values.shape
    if Mj != g.order(resolution):
        raise ShapeMismatchError(f"expected rows of {g.order(resolution)} values, got {Mj}")
    mods = [np.abs(values)]
    avg = values
    for l in range(resolution - 1, -1, -1):
        avg = avg.reshape(B, g.m[l], g.M[l]).mean(axis=1)
        mods.append(np.abs(avg))
    star = mods.pop()
    for l in range(resolution):
        star = np.maximum(mods.pop().reshape(B, g.m[l], g.M[l]), star[:, None, :]).reshape(B, -1)
    return lp_norm_rows(star, p)


# ---------------------------------------------------------------------------
# Moduli of continuity
# ---------------------------------------------------------------------------

def modulus(f: GridFunction, p: float, n: int) -> float:
    """omega_p(1/M_n, f) = sup over shifts h in I_n of ||f(.-h) - f||_p."""
    return moduli(f, (p,), n)[0]


def moduli(f: GridFunction, ps: Sequence[float], n: int) -> tuple[float, ...]:
    """``modulus(f, p, n)`` for every p in ``ps``, from one gather of f(.-h) - f.

    Shifts representable on the grid have zero digits below position n,
    i.e. flat indices h = H * M_n; the supremum runs over all of them at
    once, gathering f through the ``index_sub`` table of x - h in chunks of
    at most ``_SHIFT_ENTRIES`` entries.  Each p reduces the same gathered
    differences, so every value equals a ``modulus`` call of its own.
    """
    if not 0 <= n <= f.resolution:
        raise RangeError(f"level {n} outside 0..{f.resolution}")
    g, N = f.group, f.resolution
    MN = g.order(N)
    hs = np.arange(g.M[n], MN, g.M[n])        # every shift h = H * M_n, H >= 1
    x = np.arange(MN)
    step = max(1, _SHIFT_ENTRIES // MN)
    best = [0.0] * len(ps)
    for c in range(0, hs.size, step):
        diff = f.values[index_sub(g, N, x, hs[c:c + step, None])] - f.values
        best = [max(b, float(lp_norm_rows(diff, p).max())) for b, p in zip(best, ps)]
    return tuple(best)


def tail_martingale(mart: StepMartingale, n: int) -> StepMartingale:
    """Martingale of f - S_{M_n} f: zero up to level n, f^(k) - f^(n) above.

    The reference entry at level n is interpolated by coset averaging when n
    is not one of the stored levels.
    """
    top = mart.levels[-1]
    if not 0 <= n <= top:
        raise RangeError(f"level {n} outside 0..{top}")
    ref = project_to_level(mart.final, n)
    entries = []
    for lvl, e in zip(mart.levels, mart.entries):
        if lvl <= n:
            entries.append(GridFunction(mart.group, lvl, np.zeros(mart.group.order(lvl))))
        else:
            entries.append(e.with_values(e.values - embed(ref, lvl).values))
    return StepMartingale(group=mart.group, levels=mart.levels, entries=tuple(entries))


def modulus_hp(mart: StepMartingale, p: float, n: int) -> float:
    """omega_{H_p}(1/M_n, f) = ||f - S_{M_n} f||_{H_p} via the tail martingale."""
    return hardy_quasinorm(tail_martingale(mart, n), p)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """p-atom: mean-zero on its support coset, sup-bounded by mu(I)^(-1/p)."""

    p: float
    level: int
    base: int
    values: GridFunction


def make_atom(p: float, level: int, base: int, values: GridFunction) -> Atom:
    """Validate and build a p-atom supported on I_level(base).

    Raises AtomSupportError / AtomMeanError / AtomBoundError with the
    violated clause.
    """
    if not 0 < p <= 1:
        raise DomainError("atoms are defined for 0 < p <= 1")
    g = values.group
    if not 0 <= level <= values.resolution:
        raise RangeError("support level outside the grid resolution")
    idx = coset_indices(g, values.resolution, level, base)
    mask = np.zeros(g.order(values.resolution), dtype=bool)
    mask[idx] = True
    outside = np.abs(values.values[~mask])
    if outside.size and outside.max() > 0.0:
        raise AtomSupportError("atom has mass outside its support interval")
    # the values, and so the rounding of their mean, scale with mu(I)^(-1/p)
    bound = g.M[level] ** (1.0 / p)
    mean = values.values[mask].sum() / g.order(values.resolution)
    if abs(mean) > 1e-12 * bound:
        raise AtomMeanError(f"atom mean over support is {mean}, not 0")
    supnorm = float(np.abs(values.values).max())
    if supnorm > bound * (1 + 1e-12):
        raise AtomBoundError(f"sup norm {supnorm} exceeds mu(I)^(-1/p) = {bound}")
    return Atom(p=p, level=level, base=base, values=values)


def atom_martingale(
    coeffs: Sequence[tuple[float, Atom]], levels: Sequence[int]
) -> tuple[StepMartingale, float]:
    """Martingale f^(n) = sum_k lam_k S_{M_n} a_k over a finite atom list.

    Returns the martingale and the quasi-norm surrogate sum_k |lam_k|^p,
    p taken from the first atom.
    """
    if not coeffs:
        raise InvalidParamsError("need at least one (coefficient, atom) pair")
    g = coeffs[0][1].values.group
    p = coeffs[0][1].p
    top = max(levels)
    total = np.zeros(g.order(top), dtype=np.complex128)
    for lam, atom in coeffs:
        total += lam * embed(atom.values, top).values
    surrogate = float(sum(abs(lam) ** p for lam, _ in coeffs))
    return regular_martingale(GridFunction(g, top, total), levels), surrogate


# ---------------------------------------------------------------------------
# Counterexample generators
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_KINDS = ("strong-partial-sums", "strong-fejer", "hp-blocks")


def _default_phi(n: int) -> float:
    return max(1.0, math.log(math.log(max(float(n), 3.0))))


def block_coefficients(
    g: GroupSpec,
    kind: str,
    alphas: Sequence[int],
    rank: int,
    p: float = 0.5,
) -> np.ndarray:
    """Expected block-constant spectrum of the counterexample martingales.

    strong-partial-sums: c_k = phi(2 M_a)^(1/2) / log^(1/2) M_a on
        [M_a, 2M_a); strong-fejer: c_k = M_a * phi(2 M_a) / log M_a on the
        same blocks; hp-blocks: c_k = M_a^(1/p-1)/a on [M_a, M_{a+1}).
        Here phi(n) = max(1, log log n) (``_default_phi``).
    """
    c = np.zeros(g.order(rank), dtype=np.complex128)
    for a in alphas:
        Ma = g.M[a]
        if kind == "strong-partial-sums":
            lam = math.sqrt(_default_phi(2 * Ma)) / math.sqrt(math.log(Ma))
            c[Ma:2 * Ma] = lam
        elif kind == "strong-fejer":
            lam = _default_phi(2 * Ma) / math.log(Ma)
            c[Ma:2 * Ma] = Ma * lam
        elif kind == "hp-blocks":
            c[Ma:g.M[a + 1]] = Ma ** (1.0 / p - 1.0) / a
        else:
            raise InvalidParamsError(f"unknown counterexample kind {kind!r}")
    return c


def counterexample(
    g: GroupSpec,
    kind: str,
    alphas: Sequence[int],
    rank: int,
    p: float = 0.5,
    levels: Sequence[int] | None = None,
) -> StepMartingale:
    """Finite martingale with the designated block-constant spectrum.

    The atoms behind each kind are scaled Dirichlet-block differences, so
    the spectrum is exactly constant on each block.  The grid is built in
    closed form from D_{M_k} = M_k 1_{I_k}: an hp-block with coefficient c_a
    on [M_a, M_{a+1}) is c_a (D_{M_{a+1}} - D_{M_a}), and a strong-* block on
    [M_a, 2 M_a) is c_a psi_{M_a} D_{M_a}.  Values off the blocks' support
    are exactly 0; the transform of ``block_coefficients`` is the test oracle.
    """
    alphas = list(alphas)
    if not alphas or any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])) or alphas[0] < 1:
        raise InvalidParamsError("alphas must be strictly increasing and >= 1")
    if kind == "hp-blocks" and not 0 < p < 1:
        raise InvalidParamsError("hp-blocks requires 0 < p < 1")
    needed = alphas[-1] + 1
    if rank < needed:
        raise InvalidParamsError(f"rank {rank} cannot hold blocks up to level {needed}")
    if rank > g.levels:
        raise RangeError(f"rank {rank} exceeds group levels {g.levels}")
    check_grid_points(g, rank)
    coeffs = block_coefficients(g, kind, alphas, rank, p=p)
    vals = np.zeros(g.order(rank), dtype=np.complex128)
    for a in alphas:
        Ma, c = g.M[a], coeffs[g.M[a]]
        if kind == "hp-blocks":
            vals[::g.M[a + 1]] += c * g.M[a + 1]
            vals[::Ma] -= c * Ma
        else:
            vals[::Ma] += c * Ma * character_column(g, Ma, rank)[::Ma]
    if levels is None:
        levels = list(range(1, rank + 1))
    return regular_martingale(GridFunction(g, rank, vals), levels)


def gap_report(g: GroupSpec, alphas: Sequence[int], p: float) -> dict:
    """Check the block-gap conditions behind the hp-blocks construction.

    Conditions: summability sum 1/a_k^p (finite here by construction),
    lambda * sum_{eta<k} M_eta^(1/p)/a_eta < M_k^(1/p)/a_k, and
    32*lambda*M_{k-1}^(1/p)/a_{k-1} < M_k^(1/p-2)/a_k.  Reported, never
    enforced: at desk scale the second family typically fails.
    """
    lam = g.lam
    rows = []
    for i, a in enumerate(alphas):
        row = {"alpha": a, "sum_inv_p": sum(1.0 / aa**p for aa in alphas[: i + 1])}
        if i >= 1:
            prev = alphas[:i]
            lhs = lam * sum(g.M[e] ** (1.0 / p) / e for e in prev)
            row["growth_ok"] = lhs < g.M[a] ** (1.0 / p) / a
            lhs2 = 32 * lam * g.M[alphas[i - 1]] ** (1.0 / p) / alphas[i - 1]
            row["separation_ok"] = lhs2 < g.M[a] ** (1.0 / p - 2.0) / a
        rows.append(row)
    return {"p": p, "rows": rows}
