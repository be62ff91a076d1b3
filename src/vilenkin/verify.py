"""Batch verification suites for the kernel identities and norm inequalities.

``CLAIMS`` is the claim catalogue grouped by suite: each suite owns the
claims listed under it, by short id.  A suite run collects its checks in a
record builder made from (suite, group), so every VerificationRecord carries
the run's suite, its params start with the group's radices ``m``, and a
claim registered to another suite is refused.  Four record kinds exist:

* ``identity`` / ``bound``: pass/fail against an explicit tolerance;
* ``report``: claims with an unspecified absolute constant; the empirical
  supremum is recorded and never judged;
* ``trend``: asymptotic claims reduced to finite monotone-growth checks
  over the supplied checkpoints.

Suites are deterministic: records are sorted by (claim, params) before they
are returned, and all random inputs are seeded.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from . import group, hardy, kernels, means, weights
from .characters import character_column, character_matrix
from .errors import DomainError, InvalidParamsError, RangeError
from .group import (
    GroupSpec,
    coset_indices,
    coset_partition,
    digits_of,
    index_sub,
)
from .spectral import (
    GridFunction,
    Spectrum,
    coefficient_tails,
    convolve,
    delta,
    lp_norm,
    lp_norm_rows,
    partial_sum,
    random_grid_function,
    transform_forward,
    transform_inverse,
    weak_lp_rows,
)

# ---------------------------------------------------------------------------
# Claim registry: suite -> {claim id: statement}
# ---------------------------------------------------------------------------

CLAIMS: dict[str, dict[str, str]] = {
    "identities": {
        "1.1": "complement of I_N partitions into the cells I_N^{k,l}",
        "vilenkin": "character identities: modulus one, multiplicativity, conjugation, orthonormality",
        "dn21": "shift identity D_{j+M_n} = D_{M_n} + r_n D_j",
        "dn22": "reflection identity D_{M_n-j} = D_{M_n} - psi_{M_n-1} conj(D_j)",
        "3aa": "block kernel D_{M_n} = M_n on I_n, 0 elsewhere",
        "9dn": "block multiple D_{s M_n} = D_{M_n} sum_{k<s} r_n^k",
        "2dna": "digit-product closed form of D_n",
        "kn8": "closed form of K_{M_n} on the coset shells",
        "mag": "block-average identity for K_{s M_n}",
        "kn10": "block decomposition of n K_n over the digits of n",
        "node0": "cross-order sum A_n^a = sum_{k<=n} A_k^{a-1}",
        "node01": "difference identity A_n^a - A_{n-1}^a = A_n^{a-1} and A_n^a ~ n^a",
        "condmart": "atomic martingale identity f^(n) = sum_k lam_k S_{M_n} a_k",
        "lemma2.3.4": "maximal-function form of the H_p norm and coefficient preservation",
        "g100": "tail martingale of f - S_{M_n} f vanishes through level n",
        "T1": "Abel identities for Q_n, the T kernel, and the T mean",
        "reiszkernel": "Abel rewriting of the Riesz-log kernel through Fejer kernels",
        "lemma0nnT121": "log-mean kernel identity P_{M_n} = D_{M_n} - psi_{M_n-1} conj(Y_{M_n})",
    },
    "inequalities": {
        "var1": "two-sided variation bounds for L_n",
        "Dn": "logarithmic bound ||D_n||_1 <= c log n",
        "Dnqn": "two-sided bounds for the alternating-level index pattern",
        "5aa": "exact norm ||D_{M_n}||_1 = 1",
        "knbounded": "L1 bound of Fejer kernels: sup_n ||K_n||_1 finite",
        "yano": "dyadic Fejer kernel bound ||K_n||_1 <= 2",
        "reisz": "L1 bound of the Riesz-log kernels",
        "T2": "L1 boundedness of T kernels for monotone weights",
        "112": "regularity ratio q_{n-1}/Q_n -> 0",
        "covstrong": "Young inequality ||f*g||_p <= ||f||_p ||g||_1 and the coefficient product rule",
        "eqvi": "two-sided modulus bracket for ||f - S_{M_n} f||_p",
    },
    "kernel-lemmas": {
        "dn2.6": "coset-average bound for |D_n| by M_s/M_N",
        "lemma222": "K_{M_n} vanishing/size/integral on the cells",
        "lemma7kn": "n|K_n| dominated by sum of block kernels",
        "lemma5": "coset-average bounds for |K_n| on the cells",
        "lemma5aa": "coset-average bound for |K_n|, n >= M_N",
        "lemma6kn": "block Fejer kernel lower bound and vanishing",
        "lemma8ccc": "lower bound M_<n>^2/(2 pi lambda) for n|K_n|",
        "lemma3": "lower bound c M_l^2 for n|K_n| at digit-block edges",
        "cor3a": "lower bound M_{2k}^2/144 at the alternating pattern",
        "l2": "averaged tail bounds for sum_j |K_j|/(j+1)",
        "dn2.7": "coset-average bound for the log-mean kernel P_n",
        "lemma0nnT0": "tail kernel bound c/M_N * sum M_j |K_{M_j}|",
        "lemma5aaTin": "averaged tail kernel bound M_l M_k / M_N^2",
        "lemma0nnT": "tail kernel bound c/n * sum M_j |K_{M_j}|",
        "lemma5a": "averaged tail kernel bounds M_l M_k/(n M_N) and M_k/M_N",
        "lemma5bT": "averaged tail kernel bound for n >= M_N",
        "lemma0nnT1": "T kernel bound c/n * sum M_j |K_{M_j}| (nondecreasing weights)",
        "lemma5aT": "averaged T kernel bounds (nondecreasing weights)",
        "lemma5b": "averaged T kernel bound for n >= M_N (nondecreasing weights)",
    },
    "strong": {
        "theorem1": "strong partial-sum means (1/(n log n)) sum ||S_k f||_1",
        "simon": "strong sum of ||S_k f||_p^p / k^{2-p}",
        "theorem1sigma": "strong Fejer means (1/(n log n)) sum ||sigma_k f||^{1/2}_{1/2}",
        "theorem2fejerstrong": "strong T-mean sums ||T_k f||_p^p / k^{2-2p}",
        "threisz_2": "strong Riesz-log sums with logarithmic weights",
    },
    "divergence": {
        "theorem1T": "T-mean divergence probe with the block lower bound",
        "theorem1sub": "subsequence Fejer probes on block martingales",
        "corollary3sub": "weighted Fejer maximal probe on block martingales",
    },
}

SUITES = tuple(CLAIMS)

# The rank of the divergence suite's block martingale, at most the group's levels.
DIVERGENCE_RANK = 8

# The least n_max a suite takes.  Below it the identity suite indexes past
# its kernel tables and the strong suite normalizes by log 1 = 0; at 1 the
# inequality and kernel-lemma suites also take suprema over no orders.
MIN_N_MAX = 8

# Tolerance of the kernel-lemma identities, which are exact up to rounding;
# ``--tol`` does not reach them.
KERNEL_LEMMA_TOL = 1e-12

# The strong suite's sharpness sums at p < 1 count entries of a mean at most
# RESIDUE_EPS * eps * max|f| as 0: they are rounding residue of exact zeros,
# which the p-th power lifts (1e-16 to 1e-8 at p = 1/2).  The scale is f's:
# sigma_1 .. sigma_{M_1} of the block martingales are residue throughout.  In
# units of eps * max|f|, radices 2-11 give residue <= 0.11, other entries >= 9e7.
RESIDUE_EPS = 64

# Largest order M_c of the identity suite's character matrix, an M_c x M_c
# complex matrix with an index table and a Gram product of the same size
# (4 MiB each at 512).  Radices up to 8 keep resolution 3.
CHARACTER_ORDER = 512

# Largest order M_r of the inequality suite's Young and Watari samples:
# ``hardy.moduli`` gathers every shift of the rank-r grid per level, M_r^2
# entries (1.7e7 at 4096).  Radices up to 8 keep rank 4.
INEQUALITY_ORDER = 4096


def _check_n_max(n_max: int) -> None:
    if n_max < MIN_N_MAX:
        raise InvalidParamsError(f"verify suites need n_max >= {MIN_N_MAX}, got {n_max}")


def all_claim_ids() -> frozenset[str]:
    return frozenset(claim for claims in CLAIMS.values() for claim in claims)


@dataclass(frozen=True)
class VerificationRecord:
    """One measured claim instance."""

    suite: str
    claim: str
    params: dict
    value: float
    bound: float | None
    margin: float | None
    passed: bool | None
    tolerance: float
    kind: str  # identity | bound | report | trend

    def to_dict(self) -> dict:
        """The fields by name, in field order; ``params`` is shared, not copied."""
        return dict(vars(self))


class _Records:
    """The records of one suite run on one group.

    Every record gets the run's suite, and its params start with the group's
    radices ``m``; a claim that ``CLAIMS`` does not give to the suite raises
    DomainError.  Keyword arguments become the remaining params, in order.
    """

    def __init__(self, suite: str, g: GroupSpec):
        self.suite = suite
        self.m = list(g.m)
        self.out: list[VerificationRecord] = []

    def _add(self, claim, params, value, bound, margin, passed, tolerance, kind) -> None:
        if claim not in CLAIMS[self.suite]:
            raise DomainError(f"claim {claim!r} is not registered to suite {self.suite!r}")
        self.out.append(VerificationRecord(self.suite, claim, {"m": self.m, **params}, float(value),
                                           bound, margin, passed, tolerance, kind))

    def identity(self, claim, residual, tol, /, **params) -> None:
        self._add(claim, params, residual, tol, float(tol - residual), bool(residual <= tol),
                  tol, "identity")

    def bound(self, claim, value, bound, tol, /, lower=False, **params) -> None:
        margin = float(value - bound) if lower else float(bound - value)
        self._add(claim, params, value, float(bound), margin, bool(margin >= -tol), tol, "bound")

    def report(self, claim, value, /, **params) -> None:
        self._add(claim, params, value, None, None, None, 0.0, "report")

    def trend(self, claim, values: Sequence[float], /, **params) -> None:
        diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        margin = float(min(diffs)) if diffs else 0.0
        self._add(claim, {**params, "values": [float(v) for v in values]}, values[-1], None,
                  margin, margin > 0.0, 0.0, "trend")

    def records(self) -> list[VerificationRecord]:
        return sorted(self.out, key=lambda r: (r.claim, json.dumps(r.params, sort_keys=True)))


# ---------------------------------------------------------------------------
# Shared precomputations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
class _Workspace:
    """Naive tables D_0..D_{cap+1} and B[n] = n K_n, kept for the last (group, cap).

    The suites share it, so its arrays are read-only.  RangeError, before
    allocating, if its (cap + 2) M_N entries exceed ``group.MAX_GRID_POINTS``.
    """

    def __init__(self, g: GroupSpec, cap: int):
        self.N = kernels.min_resolution(g, cap)
        self.MN = g.order(self.N)
        if (size := (cap + 2) * self.MN) > group.MAX_GRID_POINTS:
            raise RangeError(f"the table of D_0..D_{cap + 1} on {self.MN} points has {size} "
                             f"entries, more than the {group.MAX_GRID_POINTS} allowed")
        self.D = np.zeros((cap + 2, self.MN), dtype=np.complex128)
        for n, D in enumerate(kernels.dirichlet_sweep(g, cap + 1, self.N), start=1):
            self.D[n] = D
        self.B = np.cumsum(self.D, axis=0)  # B[n] = sum_{k<=n} D_k = n K_n
        self.D.flags.writeable = self.B.flags.writeable = False

    def K(self, n: int) -> np.ndarray:
        return self.B[n] / n


def _weight_families(n_max: int) -> dict[str, weights.WeightSequence]:
    """The three weight classes of the T-mean claims, on q_0..q_{n_max}."""
    return {
        "ones": weights.ones(n_max),
        "power_half": weights.power_weights(0.5, n_max),
        "log1p": weights.from_function(lambda k: math.log(k + 1.0), n_max),
    }


def _worst(pairs: Iterable[tuple]) -> float:
    """The largest entrywise |a - b| over the pairs (a, b), NaN if any is; 0.0 over no pairs."""
    return float(np.max([np.abs(a - b).max() for a, b in pairs], initial=0.0))


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def run_identity_suite(g: GroupSpec, n_max: int = 64, tol: float = 1e-12,
                       seed: int = 2024) -> list[VerificationRecord]:
    """Kernel, character, Cesaro-table, and martingale construction identities."""
    _check_n_max(n_max)
    rec = _Records("identities", g)
    ws = _Workspace(g, n_max)

    # (1.1) partition of the complement of I_N
    part = coset_partition(g, min(ws.N, 4))
    MNp = g.order(min(ws.N, 4))
    seen = np.zeros(MNp, dtype=int)
    for _, _, idx in part.cells:
        seen[idx] += 1
    ok = seen[0] == 0 and np.all(seen[1:] == 1)
    rec.identity("1.1", 0.0 if ok else 1.0, tol, N=min(ws.N, 4))

    # (vilenkin) character identities on the M_c x M_c character matrix, at
    # the largest resolution c <= 3 with M_c <= CHARACTER_ORDER (c = 1 past it)
    res_c = max([1] + [c for c in (2, 3) if c <= g.levels and g.order(c) <= CHARACTER_ORDER])
    Mc = g.order(res_c)
    C = character_matrix(g, Mc, res_c)
    r_mod = np.abs(np.abs(C) - 1).max()
    gram = (C @ C.conj().T) / Mc
    r_orth = np.abs(gram - np.eye(Mc)).max()
    neg_idx = index_sub(g, res_c, 0, np.arange(Mc))                          # -y
    add_idx = index_sub(g, res_c, np.arange(Mc)[:, None], neg_idx[None, :])   # x + y
    r_mult = _worst((C[k][add_idx], np.outer(C[k], C[k])) for k in range(min(Mc, n_max + 1)))
    r_conj = np.abs(C[:, neg_idx] - C.conj()).max()
    rec.identity("vilenkin", np.max([r_mod, r_orth, r_mult, r_conj]), tol, resolution=res_c)

    # (3aa) block kernels
    rec.identity("3aa", _worst((kernels.dirichlet_block(g, lvl, ws.N), ws.D[g.M[lvl]])
                               for lvl in range(ws.N + 1) if g.M[lvl] <= n_max + 1), tol)

    # (dn21) shift identity
    rotations = [kernels._rotation(g, lvl, 1, ws.N) for lvl in range(ws.N)]
    rec.identity("dn21", _worst(
        (ws.D[j + Mn], ws.D[Mn] + rotations[lvl] * ws.D[j])
        for lvl, Mn in enumerate(g.M[:ws.N])
        for j in range(min((g.m[lvl] - 1) * Mn, n_max + 1 - Mn) + 1)), tol)

    # (dn22) reflection identity; psi_{M_n - 1} per level
    psi_last = {Mn: character_column(g, Mn - 1, ws.N) for Mn in g.M[1:ws.N + 1] if Mn <= n_max + 1}
    rec.identity("dn22", _worst((ws.D[Mn - j], ws.D[Mn] - psi * np.conj(ws.D[j]))
                                for Mn, psi in psi_last.items() for j in range(Mn)), tol)

    # (9dn) block multiples
    multiples = [(s, lvl) for lvl in range(ws.N) for s in range(1, g.m[lvl])
                 if s * g.M[lvl] <= n_max]
    rec.identity("9dn", _worst((kernels.dirichlet_s_block(g, s, lvl, ws.N), ws.D[s * g.M[lvl]])
                               for s, lvl in multiples), tol)

    # (2dna) digit-product closed form for every n
    rec.identity("2dna", _worst((kernels.dirichlet(g, n, N=ws.N).values, ws.D[n])
                                for n in range(n_max + 1)), tol)

    # (kn8) block Fejer closed form
    rec.identity("kn8", _worst((kernels.fejer_block(g, lvl, ws.N), ws.K(g.M[lvl]))
                               for lvl in range(ws.N + 1) if g.M[lvl] <= n_max), tol)

    # (mag) block-average identity
    rec.identity("mag", _worst((kernels._fejer_s_block(g, s, lvl, ws.N), ws.K(s * g.M[lvl]))
                               for s, lvl in multiples), tol)

    # (kn10) full closed-form Fejer kernels
    rec.identity("kn10", _worst((kernels.fejer(g, n, N=ws.N).values, ws.K(n))
                                for n in range(1, n_max + 1)), tol)

    # (T1) Abel identities for three weight families
    f = random_grid_function(g, ws.N, seed=seed)

    def abel_kernel(q, n):
        """(1/Q_n) (sum_{0<j<n-1} (q_j - q_{j+1}) j K_j + q_{n-1} (n-1) K_{n-1})."""
        acc = np.zeros(ws.MN, dtype=np.complex128)
        for j in range(1, n - 1):
            acc += (q.q(j) - q.q(j + 1)) * ws.B[j]
        return (acc + q.q(n - 1) * ws.B[n - 1]) / q.Q(n)

    for qname, q in _weight_families(n_max).items():
        # part 2b for n = 2..n_max: Q_n - q_0 against the Abel sum
        # sum_{j<n-1} (q_j - q_{j+1}) j + q_{n-1} (n-1), whose running part is
        # one cumulative sum of the terms in the order a per-n sum adds them
        qv = q.values
        j = np.arange(n_max)
        running = np.cumsum((qv[:n_max - 1] - qv[1:n_max]) * j[:-1])
        rhs = running + qv[1:n_max] * j[1:]
        r2b = float(np.abs(q.partials[2:n_max + 1] - qv[0] - rhs).max(initial=0.0))
        ns = (2, 3, 8, min(17, n_max), min(33, n_max))
        r2c = _worst((kernels.tmean_kernel(g, q, n, N=ws.N).values, abel_kernel(q, n)) for n in ns)
        r2d = _worst((means.t_mean(f, n, q).values, means.t_mean_abel(f, n, q).values) for n in ns)
        rec.identity("T1", r2b, tol, weights=qname, part="2b")
        rec.identity("T1", r2c, tol, weights=qname, part="2c")
        rec.identity("T1", r2d, tol, weights=qname, part="2d")

    # (lemma0nnT121) log-mean kernel identity at block indices
    rec.identity("lemma0nnT121", _worst(
        (kernels.norlund_log_kernel(g, Mn, N=ws.N).values,
         ws.D[Mn] - psi_last[Mn] * np.conj(kernels.riesz_log_kernel(g, Mn, N=ws.N).values))
        for Mn in psi_last if Mn <= n_max), tol)

    # (reiszkernel) the index-shifted Abel form carries a real residual
    # (reported); the exact form is asserted
    Y = {n: kernels.riesz_log_kernel(g, n, N=ws.N).values
         for n in (4, 8, min(16, n_max), min(40, n_max))}

    def riesz_abel(n, k):
        """(sum_{0<j<k} K_j/(j+1) + K_k) / l_n: k = n is the shifted form, n - 1 the exact one."""
        return (sum(ws.K(j) / (j + 1) for j in range(1, k)) + ws.K(k)) / weights.harmonic_number(n)

    rec.report("reiszkernel", _worst((y, riesz_abel(n, n)) for n, y in Y.items()),
               variant="shifted")
    rec.identity("reiszkernel", _worst((y, riesz_abel(n, n - 1)) for n, y in Y.items()), tol,
                 variant="corrected")

    # (node0)/(node01) Cesaro coefficient table
    for alpha in (0.25, 0.5, 1.0):
        A = means.cesaro_coeffs(alpha, n_max)
        Am1 = means.cesaro_coeffs(alpha - 1.0, n_max)
        r0 = max(abs(A[n] - Am1[: n + 1].sum()) for n in range(n_max + 1))
        r1 = max(abs(A[n] - A[n - 1] - Am1[n]) for n in range(1, n_max + 1))
        rec.identity("node0", r0, 1e-10, alpha=alpha)
        ratios = [A[n] / n**alpha for n in range(8, n_max + 1)]
        ok_band = min(ratios) >= 0.5 and max(ratios) <= 2.0
        rec.identity("node01", r1 if ok_band else 1.0, 1e-10, alpha=alpha)

    # (condmart) atomic martingale identity
    lvl = min(2, ws.N - 1)
    base_fn = GridFunction(g, lvl + 1, character_column(g, g.M[lvl], ws.N)[: g.order(lvl + 1)]
                           * kernels.dirichlet_block(g, lvl, lvl + 1))
    atom = hardy.make_atom(1.0, lvl, 0, base_fn)
    mart, _ = hardy.atom_martingale([(0.7, atom)], levels=list(range(1, lvl + 2)))
    scaled = GridFunction(g, lvl + 1, 0.7 * atom.values.values)
    r = _worst((e.values, hardy.project_to_level(scaled, n).values)
               for e, n in zip(mart.entries, mart.levels))
    rec.identity("condmart", max(mart.check_consistency(), r), tol)

    # (g100) tail martingale structure: zero through level n0, then f^(n) - S_{M_n0} f
    mart = hardy.regular_martingale(f)
    n0 = min(2, ws.N)
    tail = hardy.tail_martingale(mart, n0)
    head = hardy.project_to_level(mart.final, n0)
    rec.identity("g100", _worst(
        (t.values, 0.0 if lv <= n0 else e.values - hardy.embed(head, lv).values)
        for t, e, lv in zip(tail.entries, mart.entries, tail.levels)), tol)

    # (lemma2.3.4) maximal form of the H_p norm + coefficient preservation
    sup_sm = np.zeros(ws.MN)
    for lv in range(ws.N + 1):
        np.maximum(sup_sm, np.abs(partial_sum(f, g.M[lv]).values), out=sup_sm)
    r = _worst((hardy.hardy_quasinorm_fn(f, p), float((sup_sm**p).mean() ** (1 / p)))
               for p in (0.5, 1.0, 2.0))
    coeff_r = np.abs(transform_forward(hardy.regular_martingale(f).final).coeffs
                     - transform_forward(f).coeffs).max()
    rec.identity("lemma2.3.4", max(r, float(coeff_r)), 1e-10)

    return rec.records()

# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

def run_inequality_suite(g: GroupSpec, n_max: int = 256, tol: float = 1e-10,
                         seed: int = 2024, samples: int = 20) -> list[VerificationRecord]:
    """Norm inequalities: variation bounds, kernel L1 bounds, Young, Watari."""
    _check_n_max(n_max)
    if samples < 1:   # the Young and Watari bounds are suprema over the samples
        raise InvalidParamsError(f"the inequality suite needs samples >= 1, got {samples}")
    rec = _Records("inequalities", g)

    # Lebesgue constants L_n = ||D_n||_1 (entry 0 is 0) and variation bounds
    L = np.abs(_Workspace(g, n_max).D[:n_max + 1]).mean(axis=1)
    ns = range(1, n_max + 1)
    nds = [digits_of(n, g) for n in ns]
    corrected = [kernels.lebesgue_bounds(nd, variant="corrected") for nd in nds]
    literal = [kernels.lebesgue_bounds(nd, variant="literal") for nd in nds]

    def excess(lower: list, upper: list) -> tuple:
        """How far L_n falls below ``lower`` and rises above ``upper``, at worst."""
        return (-min(L[n] - lo for n, lo in zip(ns, lower)),
                -min(up - L[n] for n, up in zip(ns, upper)))

    lo, up = excess([b.lower for b in corrected], [b.upper for b in corrected])
    rec.bound("var1", lo, 0.0, tol, variant="corrected", side="lower", n_max=n_max)
    rec.bound("var1", up, 0.0, tol, variant="corrected", side="upper", n_max=n_max)
    lo, up = excess([b.lower for b in literal], [b.upper for b in literal])
    rec.report("var1", lo, variant="literal", side="lower")
    rec.report("var1", up, variant="literal", side="upper")
    if g.is_dyadic:
        # Walsh specialization: V(n)/8 <= L_n <= V(n) (V == corrected v there)
        lo, up = excess([b.v / 8.0 for b in corrected], [b.v for b in corrected])
        rec.bound("var1", lo, 0.0, tol, variant="walsh-V", side="lower")
        rec.bound("var1", up, 0.0, tol, variant="walsh-V", side="upper")

    # (Dn) sup L_n / log n
    sup_ratio = max(L[n] / math.log(n) for n in range(2, n_max + 1))
    rec.report("Dn", sup_ratio, n_max=n_max)

    # (5aa) exact norms of block kernels
    r = max((abs(kernels.lebesgue_constant(g, Ml) - 1.0) for Ml in g.M[1:] if Ml <= max(n_max, 64)),
            default=0.0)
    rec.bound("5aa", r, 0.0, 1e-12)

    # (Dnqn) pattern indices
    for k in (2, 3):
        if 2 * k >= g.levels:
            continue
        qn = kernels.q_pattern(g, k)
        Lq = kernels.lebesgue_constant(g, qn)
        rec.bound("Dnqn", Lq, k / (2.0 * g.lam), tol, lower=True, k=k, n=qn, side="lower")
        rec.bound("Dnqn", Lq, g.lam * k, tol, k=k, n=qn, side="upper")

    # (knbounded) / (yano)
    K1 = kernels.fejer_l1_batch(g, n_max)
    rec.report("knbounded", K1[1:].max(), n_max=n_max)
    if g.is_dyadic:
        rec.bound("yano", K1[1:].max(), 2.0, tol, n_max=n_max)

    # (reisz) sup ||Y_n||_1 and (T2) sup ||F_n||_1 for the two monotone
    # classes; each kernel table is a mean sweep of the unit mass
    top = min(n_max, 128)
    res = kernels.min_resolution(g, top)
    unit = delta(g, res, scale=g.order(res))
    qs = _weight_families(n_max)
    for claim, kind, qname in (("reisz", "riesz_log", None),
                               ("T2", "tmean", "power_half"), ("T2", "tmean", "log1p")):
        params, labels = ({}, {}) if qname is None else ({"q": qs[qname]}, {"weights": qname})
        sup = max(lp_norm_rows(rows, 1.0).max()
                  for _, _, rows in means.mean_blocks(unit, kind, range(2, top + 1), **params))
        rec.report(claim, float(sup), **labels, n_max=top)

    # (112) regularity trends
    for qname, q in qs.items():
        rep = means.regularity_report(q, n_max)
        rows = rep["rows"]
        picks = sorted({len(rows) // 4, len(rows) // 2, len(rows) - 1})
        ratios = [rows[i]["ratio"] for i in picks]
        rec.trend("112", [-x for x in ratios], weights=qname)

    # (covstrong) Young inequality + coefficient product rule, at the largest
    # rank N <= 4 with M_N <= INEQUALITY_ORDER (N = 1 past it)
    N = max([1] + [r for r in range(2, min(4, g.levels) + 1) if g.order(r) <= INEQUALITY_ORDER])
    rng_seeds = range(seed, seed + samples)
    fs = [random_grid_function(g, N, seed=s) for s in rng_seeds]   # eqvi reads them too
    worst = np.inf
    worst_id = 0.0
    for s, f in zip(rng_seeds, fs):
        h = random_grid_function(g, N, seed=s + 10_000)
        conv = convolve(f, h)
        prod = transform_forward(conv).coeffs - transform_forward(f).coeffs * transform_forward(h).coeffs
        worst_id = max(worst_id, float(np.abs(prod).max()))
        for p in (1.0, 2.0, np.inf):
            margin = lp_norm(f, p) * lp_norm(h, 1.0) - lp_norm(conv, p)
            worst = min(worst, margin)
    rec.identity("covstrong", worst_id, tol, part="coefficient-product")
    rec.bound("covstrong", -worst, 0.0, tol, part="young", samples=samples)

    # (eqvi) Watari bracket
    worst_up = np.inf
    worst_lo = np.inf
    for f in fs:
        for n in range(0, N + 1):
            rest = f.with_values(f.values - hardy.conditional_expectation(f, n).values)
            for p, om in zip((1.0, 2.0), hardy.moduli(f, (1.0, 2.0), n)):
                err = lp_norm(rest, p)
                worst_up = min(worst_up, om - err)
                worst_lo = min(worst_lo, err - om / 2.0)
    rec.bound("eqvi", -worst_up, 0.0, tol, side="upper", samples=samples)
    rec.bound("eqvi", -worst_lo, 0.0, tol, side="lower", samples=samples)

    return rec.records()


# ---------------------------------------------------------------------------
# Kernel estimate lemma suite
# ---------------------------------------------------------------------------

def _coset_averages(g: GroupSpec, kernel_vals: np.ndarray, N: int) -> np.ndarray:
    """int_{I_N} |K(x - t)| dmu(t) as coset averages / M_N.

    The value depends only on x mod M_N, so this is the rank-N block: a cell
    of ``coset_partition(g, N)`` indexes it directly.
    """
    MnN = g.M[N]
    return np.abs(kernel_vals).reshape(-1, MnN).mean(axis=0) / float(MnN)


def _tmean_tail(g: GroupSpec, q: weights.WeightSequence, n: int, N: int, res: int) -> np.ndarray:
    """(1/Q_n) sum_{M_N<=k<n} q_k D_k at resolution res, from its coefficient tails."""
    coeffs = np.zeros(n)
    coeffs[g.M[N]:] = q.values[g.M[N]:n] / q.Q(n)
    return transform_inverse(Spectrum(g, res, coefficient_tails(coeffs, g.order(res)))).values


def _empty(orders) -> dict:
    """Params that mark a supremum over no orders: its 0.0 is not a measured value."""
    return {} if len(orders) else {"orders": 0}


def _kn1_masks(g: GroupSpec, lvl: int, res: int) -> list[np.ndarray]:
    """Where K_{s M_lvl} vanishes (lemma6kn kn1): the nonempty rank-``res`` masks, t < lvl,
    of x in I_t \\ I_{t+1} with a nonzero digit among t+1..lvl-1 (x mod M_lvl >= M_{t+1})."""
    x = np.arange(g.order(res))
    masks = [(x % g.M[t] == 0) & ((x // g.M[t]) % g.m[t] != 0) & (x % g.M[lvl] >= g.M[t + 1])
             for t in range(lvl)]
    return [mask for mask in masks if mask.any()]


def run_kernel_lemma_suite(g: GroupSpec, n_max: int = 64) -> list[VerificationRecord]:
    """Pointwise and averaged kernel estimates on the coset cells."""
    _check_n_max(n_max)
    if n_max < g.m[0]:   # the cells need resolution N >= 2, so M_1 = m_0 <= n_max
        raise InvalidParamsError(f"the kernel-lemma suite needs n_max >= m_0 = {g.m[0]}, "
                                 f"got {n_max}")
    rec = _Records("kernel-lemmas", g)
    ws = _Workspace(g, n_max)
    N = max(2, min(3, ws.N - 1))
    part = coset_partition(g, N)
    res = ws.N
    MN = g.order(N)
    # |K_{M_l}| for every level below res: the orders checked here are <= n_max < M_res
    absK = [np.abs(kernels.fejer_block(g, lvl, res)) for lvl in range(res)]
    nds = {n: digits_of(n, g) for n in range(2, n_max + 1)}
    # per cell I_N^{k,l}: M_k, M_l, and whether l == N
    Mk = np.array([g.M[k] for k, _, _ in part.cells])
    MlMk = np.array([g.M[l] for _, l, _ in part.cells]) * Mk
    top = np.array([l == N for _, l, _ in part.cells])

    def cell_peaks(rows) -> np.ndarray:
        """Entry (i, c): the largest coset average of |rows[i]| on cell c."""
        peaks = np.zeros((len(rows), len(part.cells)))
        for i, vals in enumerate(rows):
            avg = _coset_averages(g, vals, N)
            peaks[i] = [avg[idx].max() for _, _, idx in part.cells]
        return peaks

    def shell_sup(vals) -> float:
        """The largest coset average of |vals| on a shell I_s \\ I_{s+1}, over M_s/M_N."""
        avg = _coset_averages(g, vals, N)
        return max(float(avg[idx].max() * MN / g.M[s]) for s, idx in part.shells)

    def domination(vals, lo, hi) -> float:
        """sup vals / sum_{lo<=l<=hi} M_l |K_{M_l}|, where the sum is positive.

        Where it vanishes, so must vals up to rounding (1e-10), else inf."""
        dom = sum(g.M[l] * absK[l] for l in range(lo, hi + 1))
        if (dom == 0).any() and float(vals[dom == 0].max()) > 1e-10:
            return math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.where(dom > 0, vals / dom, 0.0).max())

    # (lemma222): K_{M_n} on cells ((star1) exact zero, (star2) ratio, (star3) integral)
    r_star1 = 0.0
    ratio_star2 = 0.0
    for lvl in range(1, res):
        if g.M[lvl] > n_max:
            break
        cosets = absK[lvl].reshape(-1, MN)
        for k, l, idx in part.cells:
            if l == N:
                continue
            peak = float(cosets[:, idx].max())
            if lvl > l:
                r_star1 = max(r_star1, peak)
            ratio_star2 = max(ratio_star2, peak / g.M[k])
    rec.identity("lemma222", r_star1, KERNEL_LEMMA_TOL, part="star1", N=N)
    rec.report("lemma222", ratio_star2, part="star2", N=N)
    sup_int = max(float(absK[lvl].mean()) for lvl in range(1, res) if g.M[lvl] <= n_max)
    rec.report("lemma222", sup_int, part="star3")

    # (lemma7kn) fn5 ratio
    rec.report("lemma7kn", max(domination(n * np.abs(ws.K(n)), nds[n].lo, nds[n].hi)
                               for n in range(2, n_max + 1)), n_max=n_max)

    # (dn2.6): averaged |D_n| on shells, vs M_s/M_N
    rec.report("dn2.6", max(shell_sup(ws.D[n]) for n in range(1, n_max + 1)), N=N, n_max=n_max)

    # (dn2.7): same averaged bound for the log-mean kernel P_n
    rec.report("dn2.7", max(shell_sup(kernels.norlund_log_kernel(g, n, N=res).values)
                            for n in (max(2, n_max // 2), n_max)), N=N)

    # (lemma5)/(lemma5aa): averaged |K_n| on cells
    orders = range(MN, n_max + 1)
    peaks = cell_peaks([ws.B[n] / n for n in orders])
    ns = np.array(orders)[:, None]
    sup5 = np.where(top, peaks * MN / Mk, peaks * ns * MN / MlMk)
    rec.report("lemma5", sup5.max(initial=0.0), N=N, **_empty(orders))
    rec.report("lemma5aa", (peaks * MN ** 2 / MlMk).max(initial=0.0), N=N, **_empty(orders))

    # (l2): averaged tail sums of |K_j|/(j+1)
    tail = np.zeros(ws.MN)
    orders = range(MN + 1, n_max + 1)
    for j in orders:
        tail = tail + np.abs(ws.B[j] / j) / (j + 1)
    peaks = cell_peaks([tail])[0]
    ln = weights.harmonic_number(n_max)
    supl2 = (peaks * MN ** 2 / MlMk)[~top].max(initial=0.0)
    supl2_shell = (peaks * MN / (Mk * ln))[top].max(initial=0.0)
    rec.report("l2", supl2, part="cells", N=N, **_empty(orders))
    rec.report("l2", supl2_shell, part="shells", N=N, **_empty(orders))

    # (lemma6kn): lower bound and vanishing of block multiples
    worst_margin = np.inf
    r_kn1 = 0.0
    levels = range(1, res - 1)
    for lvl in levels:
        masks = _kn1_masks(g, lvl, res)
        for s in range(1, g.m[lvl]):
            K = kernels._fejer_s_block(g, s, lvl, res)
            idx = coset_indices(g, res, lvl + 1, g.M[lvl - 1] + g.M[lvl])
            low = float(np.abs(K[idx]).min())
            worst_margin = min(worst_margin, low - g.M[lvl] / (2 * math.pi * s))
            for mask in masks:
                r_kn1 = max(r_kn1, float(np.abs(K[mask]).max()))
    if levels:   # as for lemma8ccc, no record when no level was checked
        rec.bound("lemma6kn", -worst_margin, 0.0, 1e-10, part="100kn1")
        rec.identity("lemma6kn", r_kn1, KERNEL_LEMMA_TOL, part="kn1")

    # (lemma8ccc): lower bound at I_{<n>+1}(e_{<n>-1} + e_{<n>})
    worst_margin = np.inf
    tested = 0
    for n, nd in nds.items():
        if nd.lo == nd.hi or nd.lo < 1:
            continue
        idx = coset_indices(g, res, nd.lo + 1, g.M[nd.lo - 1] + g.M[nd.lo])
        low = float((n * np.abs(ws.K(n)))[idx].min())
        worst_margin = min(worst_margin, low - g.M[nd.lo] ** 2 / (2 * math.pi * g.lam))
        tested += 1
    if tested:
        rec.bound("lemma8ccc", -worst_margin, 0.0, 1e-10, count=tested)

    # (lemma3)/(cor3a): alternating-pattern lower bounds
    for k in (1, 2):
        if 2 * k + 1 > res or kernels.q_pattern(g, k) > n_max:
            continue
        qn = kernels.q_pattern(g, k)
        idx = coset_indices(g, res, 2 * k + 1, g.M[2 * k - 1] + g.M[2 * k])
        low = float((qn * np.abs(ws.K(qn)))[idx].min())
        rec.report("lemma3", low / g.M[2 * k] ** 2, k=k, n=qn)
        rec.bound("cor3a", low, g.M[2 * k] ** 2 / 144.0, 1e-10, lower=True, k=k, n=qn)

    # Tail kernel bounds for T means: the nonincreasing class bounds the
    # tail (1/Q_n) sum_{M_N<=k<n} q_k D_k, the nondecreasing class the whole kernel
    qs = _weight_families(n_max)
    orders = [n for n in (MN + 2, min(2 * MN + 1, n_max), n_max) if MN < n <= n_max]
    tails = {n: _tmean_tail(g, qs["power_half"], n, N, res) for n in orders}
    whole = {n: kernels.tmean_kernel(g, qs["log1p"], n, N=res).values for n in orders}
    ns = np.array(orders)[:, None]
    for claim_ratio, claim_avg, claim_avg_big, kernel, use_n in (
        ("lemma0nnT0", "lemma5aaTin", None, tails, False),
        ("lemma0nnT", "lemma5a", "lemma5bT", tails, True),
        ("lemma0nnT1", "lemma5aT", "lemma5b", whole, True),
    ):
        sup_ratio = max((domination((n if use_n else MN) * np.abs(kernel[n]), 0, nds[n].hi)
                         for n in orders), default=0.0)
        peaks = cell_peaks([kernel[n] for n in orders])
        inner = peaks * ns * MN if use_n else peaks * MN ** 2
        sup_avg = np.where(top, peaks * MN / Mk, inner / MlMk)
        rec.report(claim_ratio, sup_ratio, N=N, **_empty(orders))
        rec.report(claim_avg, sup_avg.max(initial=0.0), N=N, **_empty(orders))
        if claim_avg_big:
            sup_avg_big = (peaks * MN ** 2 / MlMk).max(initial=0.0)
            rec.report(claim_avg_big, sup_avg_big, N=N, **_empty(orders))

    return rec.records()


# ---------------------------------------------------------------------------
# Strong-convergence sums
# ---------------------------------------------------------------------------

def strong_sum(
    f: GridFunction,
    mean_kind: str,
    p: float,
    weight: Callable[[int], float],
    n_max: int,
    checkpoints: Sequence[int] | None = None,
    normalizer: Callable[[int], float] | None = None,
    norm_source: str = "lp",
    **mean_params,
) -> list[dict]:
    """Cumulative weighted sums sum_{k<=n} weight(k) ||mean_k f||_p^p.

    Returns one row per checkpoint with the cumulative value and the ratio
    of its normalized value (divided by ``normalizer(n)``) to the reference
    ||f||_{H_p}^p.
    The reference is taken from f's values by ``hardy.hardy_quasinorm_rows``,
    with no regular martingale of grid functions built;
    ``hardy.hardy_quasinorm_fn`` is its oracle.  ``norm_source`` picks
    ||.||_p ("lp") or the H_p quasi-norm of each mean ("hp").

    The means come from ``means.mean_blocks`` as rank-j rows, and each block
    is normed row-wise at once.  Both norms are exact there: replication
    leaves ||.||_p unchanged, and the regular martingale of a rank-j
    function is constant from level j on, so its maximal function needs
    only the levels l <= j.  The sum is accumulated in increasing n.
    """
    checkpoints = sorted(set(checkpoints or [n_max]))
    first = means.first_order(mean_kind)
    if not first <= checkpoints[0] <= checkpoints[-1] <= n_max:
        raise InvalidParamsError(f"checkpoints must lie in [{first}, {n_max}], got {checkpoints}")
    ref = float(hardy.hardy_quasinorm_rows(f.group, f.resolution, f.values[None], p)[0]) ** p
    rows = []
    acc = 0.0
    cp = set(checkpoints)
    orders = range(first, n_max + 1)
    for j, ns, vals in means.mean_blocks(f, mean_kind, orders, **mean_params):
        if norm_source == "hp":
            terms = hardy.hardy_quasinorm_rows(f.group, j, vals, p) ** p
        else:
            terms = lp_norm_rows(vals, p) ** p
        for n, term in zip(ns, terms.tolist()):
            acc += weight(n) * term
            if n in cp:
                norm = normalizer(n) if normalizer is not None else 1.0
                rows.append({
                    "n": n,
                    "cumulative": acc,
                    "ratio_to_hp": acc / (norm * ref) if ref > 0 else math.inf,
                })
    return rows


def divergence_probe(mart: hardy.StepMartingale, kind: str, p: float,
                     checkpoints: Sequence[int], **params) -> list[dict]:
    """weak-L_p norms of the kind's means of ``mart.final`` at the checkpoints.

    One row {"n", "weak_lp"} per checkpoint, in order.  Any kind of
    ``means.mean_blocks`` is taken, with its parameters; an unknown kind or
    a wrong parameter set raises from there.
    """
    # weak-L_p is unchanged by replication: each mean stays a rank-j row
    return [{"n": n, "weak_lp": wl}
            for _, ns, vals in means.mean_blocks(mart.final, kind, checkpoints, **params)
            for n, wl in zip(ns, weak_lp_rows(vals, p).tolist())]


def _tmean_bound(g: GroupSpec, a: int, p: float) -> float:
    """The lower bound M_a^(1/p-2)/(16 a) for the T-mean probe at n = M_a + 2."""
    return g.M[a] ** (1.0 / p - 2.0) / (16.0 * a)


def tmean_block_probe(mart: hardy.StepMartingale, p: float,
                      alphas: Sequence[int]) -> list[dict]:
    """The Fejer-weight (q = 1) T-mean probe of a block martingale.

    One ``divergence_probe`` row per block level a, at n = M_a + 2, with the
    lower bound M_a^(1/p-2)/(16 a) as its ``bound``.
    """
    g = mart.group
    rows = divergence_probe(mart, "tmean", p, [g.M[a] + 2 for a in alphas],
                            q=weights.ones(g.M[alphas[-1]] + 2))
    for a, row in zip(alphas, rows):
        row["bound"] = _tmean_bound(g, a, p)
    return rows


def run_strong_suite(g: GroupSpec, rank: int = 5, n_max: int = 64,
                     seed: int = 2024) -> list[VerificationRecord]:
    """Canned strong-convergence claims on a seeded function and the
    sharpness martingales."""
    rank = min(rank, g.levels)
    _check_n_max(n_max)
    cap = g.order(rank)
    if cap < MIN_N_MAX:   # a small group caps n_max below the minimum
        raise InvalidParamsError(f"the strong suite caps n_max = {n_max} at M_{rank} = {cap}; "
                                 f"verify suites need n_max >= {MIN_N_MAX}")
    n_max = min(n_max, cap)
    rec = _Records("strong", g)
    f = random_grid_function(g, rank, seed=seed)
    cps = sorted({n_max // 4, n_max // 2, n_max})

    # theorem1: (1/(n log n)) sum ||S_k f||_1 vs ||f||_{H_1}
    rows = strong_sum(f, "partial_sum", 1.0, lambda k: 1.0, n_max, cps,
                      normalizer=lambda n: n * math.log(n))
    rec.report("theorem1", max(r["ratio_to_hp"] for r in rows), probe="ratio", n=n_max)

    # simon: sum ||S_k f||_p^p / k^{2-p}
    p = 0.75
    rows = strong_sum(f, "partial_sum", p, lambda k: k ** (p - 2.0), n_max, cps)
    rec.report("simon", rows[-1]["ratio_to_hp"], p=p, n=n_max)

    # theorem1sigma: (1/(n log n)) sum ||sigma_k f||_{1/2}^{1/2}
    rows = strong_sum(f, "fejer", 0.5, lambda k: 1.0, n_max, cps,
                      normalizer=lambda n: n * math.log(n))
    rec.report("theorem1sigma", max(r["ratio_to_hp"] for r in rows), probe="ratio", n=n_max)

    # theorem2fejerstrong: sum ||T_k f||_p^p / k^{2-2p}, nonincreasing weights
    p = 0.4
    q = weights.power_weights(0.5, n_max)
    rows = strong_sum(f, "tmean", p, lambda k: k ** (2.0 * p - 2.0), n_max, cps, q=q)
    rec.report("theorem2fejerstrong", rows[-1]["ratio_to_hp"], p=p, n=n_max)

    # threisz_2: sum log^p(n) ||R_n f||_{H_p}^p / n^{2-2p}
    rows = strong_sum(f, "riesz_log", p, lambda k: math.log(k) ** p * k ** (2.0 * p - 2.0),
                      n_max, cps, norm_source="hp")
    rec.report("threisz_2", rows[-1]["ratio_to_hp"], p=p, n=n_max)

    # Sharpness side of theorem1: the block martingale makes the normalized
    # sums grow across the block checkpoints.
    alphas = [a for a in (1, 2, 3) if a + 1 <= g.levels and 2 * g.M[a] <= g.order(min(g.levels, rank + 2))]
    if len(alphas) >= 2:
        rk = min(g.levels, max(rank, alphas[-1] + 1))
        for kind, mean_kind, p, claim in (("strong-partial-sums", "partial_sum", 1.0, "theorem1"),
                                          ("strong-fejer", "fejer", 0.5, "theorem1sigma")):
            mart = hardy.counterexample(g, kind, alphas, rank=rk)
            ends = [2 * g.M[a] for a in alphas]
            unit = np.finfo(float).eps * np.abs(mart.final.values).max()
            floor = RESIDUE_EPS * unit if p < 1 else 0.0
            terms = [t for _, _, v in means.mean_blocks(mart.final, mean_kind, range(1, ends[-1] + 1))
                     for t in (lp_norm_rows(np.where(np.abs(v) > floor, v, 0), p) ** p).tolist()]
            vals = [math.fsum(terms[:n]) / (n * hardy._default_phi(n)) for n in ends]
            rec.trend(claim, vals, probe="sharpness", alphas=alphas)
    return rec.records()


def _divergence_alphas(g: GroupSpec, p: float, max_level: int) -> tuple[int, ...]:
    """Smallest block-level triple whose lower bounds strictly increase.

    The divergence claims are asymptotic; the finite rendering needs
    checkpoints where the growth is already visible, which depends on the
    radices (small radices need wider level gaps).
    """
    best = None
    for combo in combinations(range(1, max_level), 3):
        b = [_tmean_bound(g, a, p) for a in combo]
        if all(x < y * (1 - 1e-9) for x, y in zip(b, b[1:])):
            key = (combo[-1], combo)
            if best is None or key < best:
                best = key
    return best[1] if best else (1, 2, 3)


def run_divergence_suite(g: GroupSpec, rank: int = DIVERGENCE_RANK) -> list[VerificationRecord]:
    """Divergence probes on the block-spectrum martingale at p = 0.4.

    The T-mean probe checks the measured weak-L_p norm at M_a + 2 against
    the lower-bound expression M_a^(1/p-2)/(16 a); the bound sequence is
    also checked for strict growth (a trend, not a limit).  The block
    levels are chosen per group so the bound growth is visible at desk
    scale.
    """
    p, tol = 0.4, 1e-10
    rec = _Records("divergence", g)
    rank = min(rank, g.levels)
    alphas = _divergence_alphas(g, p, rank)
    rank = max(rank, alphas[-1] + 1)
    if rank > g.levels:
        raise InvalidParamsError(f"group needs {rank} levels for blocks {alphas}")
    mart = hardy.counterexample(g, "hp-blocks", list(alphas), rank=rank, p=p)
    rows = tmean_block_probe(mart, p, alphas)
    for a, row in zip(alphas, rows):
        rec.bound("theorem1T", row["weak_lp"], row["bound"], tol, lower=True, alpha=a, n=row["n"], p=p)
    rec.trend("theorem1T", [_tmean_bound(g, a, p) for a in alphas], probe="bound-growth", p=p)
    cps = [row["n"] for row in rows]

    # Fejer subsequence probe: measured weak-L_p of sigma at the block
    # edges, reported (growth is not promised for this coefficient scaling
    # at arbitrary checkpoints).
    rows = divergence_probe(mart, "fejer", p, cps)
    seq = [r["weak_lp"] for r in rows]
    rec.report("theorem1sub", seq[-1], probe="fejer-blocks", p=p, values=seq)

    # Weighted Fejer maximal probe: report the H_p-normalized size of the
    # weighted maximal operator over the probe range.
    fm = mart.final
    wfun = means.power_log_weight(p, with_log=False)
    mx = means.weighted_maximal(fm, "fejer", range(1, cps[-1] + 1), weight=wfun)
    ref = hardy.hardy_quasinorm(mart, p)
    rec.report("corollary3sub", lp_norm(mx, p) / ref if ref > 0 else math.inf, p=p, n_max=cps[-1])
    return rec.records()


# ---------------------------------------------------------------------------
# Umbrella runner
# ---------------------------------------------------------------------------

# Suite name -> runner, in ``CLAIMS`` order, on the umbrella's keyword arguments.
RUNNERS: dict[str, Callable[..., list[VerificationRecord]]] = {
    "identities": lambda g, tol, samples, **kw: run_identity_suite(
        g, tol=max(tol * 1e-2, 1e-12), **kw),
    "inequalities": lambda g, **kw: run_inequality_suite(g, **kw),
    "kernel-lemmas": lambda g, n_max, **_: run_kernel_lemma_suite(g, n_max=n_max),
    "strong": lambda g, tol, samples, **kw: run_strong_suite(g, **kw),
    "divergence": lambda g, **_: run_divergence_suite(g),
}


def run_suite(name: str, g: GroupSpec, n_max: int = 64, tol: float = 1e-10,
              seed: int = 2024, samples: int = 20) -> list[VerificationRecord]:
    if name not in RUNNERS:
        raise DomainError(f"unknown suite {name!r}")
    return RUNNERS[name](g, n_max=n_max, tol=tol, seed=seed, samples=samples)


def run_all(g: GroupSpec, n_max: int = 64, tol: float = 1e-10, seed: int = 2024,
            samples: int = 20) -> list[VerificationRecord]:
    return [r for name in RUNNERS for r in run_suite(name, g, n_max, tol, seed, samples)]


def emitted_claims(records: Iterable[VerificationRecord]) -> frozenset[str]:
    return frozenset(r.claim for r in records)
