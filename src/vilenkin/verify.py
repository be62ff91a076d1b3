"""Batch verification suites for the kernel identities and norm inequalities.

Each check is tied to a short claim id from the registry below and produces
a VerificationRecord.  Three record kinds exist:

* ``identity`` / ``bound``: pass/fail against an explicit tolerance;
* ``report``: claims with an unspecified absolute constant; the empirical
  supremum is recorded and never judged;
* ``trend``: asymptotic claims reduced to finite monotone-growth checks
  over the supplied checkpoints.

Suites are deterministic: records are sorted by (claim, params) before they
are returned, and all random inputs are seeded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hardy, kernels, means, weights
from .characters import character_column, _unit_roots
from .errors import DomainError, InvalidParamsError
from .group import (
    GroupSpec,
    coset_indices,
    coset_partition,
    digit_matrix,
    digits_of,
)
from .spectral import (
    GridFunction,
    Spectrum,
    coefficient_tails,
    convolve,
    lp_norm,
    lp_norm_rows,
    partial_sum,
    random_grid_function,
    transform_forward,
    transform_inverse,
    weak_lp_rows,
)

# ---------------------------------------------------------------------------
# Claim registry
# ---------------------------------------------------------------------------

CLAIMS: dict[str, str] = {
    # structural identities
    "1.1": "complement of I_N partitions into the cells I_N^{k,l}",
    "vilenkin": "character identities: modulus one, multiplicativity, conjugation, orthonormality",
    # Dirichlet/Fejer kernel identities
    "dn21": "shift identity D_{j+M_n} = D_{M_n} + r_n D_j",
    "dn22": "reflection identity D_{M_n-j} = D_{M_n} - psi_{M_n-1} conj(D_j)",
    "3aa": "block kernel D_{M_n} = M_n on I_n, 0 elsewhere",
    "9dn": "block multiple D_{s M_n} = D_{M_n} sum_{k<s} r_n^k",
    "2dna": "digit-product closed form of D_n",
    "5aa": "exact norm ||D_{M_n}||_1 = 1",
    "kn8": "closed form of K_{M_n} on the coset shells",
    "mag": "block-average identity for K_{s M_n}",
    "kn10": "block decomposition of n K_n over the digits of n",
    "knbounded": "L1 bound of Fejer kernels: sup_n ||K_n||_1 finite",
    # Lebesgue constants
    "var1": "two-sided variation bounds for L_n",
    "Dn": "logarithmic bound ||D_n||_1 <= c log n",
    "Dnqn": "two-sided bounds for the alternating-level index pattern",
    # Cesaro table and regularity
    "node0": "cross-order sum A_n^a = sum_{k<=n} A_k^{a-1}",
    "node01": "difference identity A_n^a - A_{n-1}^a = A_n^{a-1} and A_n^a ~ n^a",
    "112": "regularity ratio q_{n-1}/Q_n -> 0",
    "reisz": "L1 bound of the Riesz-log kernels",
    # convolution
    "covstrong": "Young inequality ||f*g||_p <= ||f||_p ||g||_1 and the coefficient product rule",
    # martingale Hardy machinery
    "condmart": "atomic martingale identity f^(n) = sum_k lam_k S_{M_n} a_k",
    "lemma2.3.4": "maximal-function form of the H_p norm and coefficient preservation",
    "eqvi": "two-sided modulus bracket for ||f - S_{M_n} f||_p",
    "g100": "tail martingale of f - S_{M_n} f vanishes through level n",
    # kernel estimate lemmas
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
    # Abel-transform lemmas for T means
    "T1": "Abel identities for Q_n, the T kernel, and the T mean",
    "T2": "L1 boundedness of T kernels for monotone weights",
    "lemma0nnT0": "tail kernel bound c/M_N * sum M_j |K_{M_j}|",
    "lemma5aaTin": "averaged tail kernel bound M_l M_k / M_N^2",
    "lemma0nnT": "tail kernel bound c/n * sum M_j |K_{M_j}|",
    "lemma5a": "averaged tail kernel bounds M_l M_k/(n M_N) and M_k/M_N",
    "lemma5bT": "averaged tail kernel bound for n >= M_N",
    "lemma0nnT1": "T kernel bound c/n * sum M_j |K_{M_j}| (nondecreasing weights)",
    "lemma5aT": "averaged T kernel bounds (nondecreasing weights)",
    "lemma5b": "averaged T kernel bound for n >= M_N (nondecreasing weights)",
    # logarithmic means
    "reiszkernel": "Abel rewriting of the Riesz-log kernel through Fejer kernels",
    "lemma0nnT121": "log-mean kernel identity P_{M_n} = D_{M_n} - psi_{M_n-1} conj(Y_{M_n})",
    # strong convergence and sharpness constructions
    "theorem1": "strong partial-sum means (1/(n log n)) sum ||S_k f||_1",
    "simon": "strong sum of ||S_k f||_p^p / k^{2-p}",
    "theorem1sigma": "strong Fejer means (1/(n log n)) sum ||sigma_k f||^{1/2}_{1/2}",
    "theorem1sub": "subsequence Fejer probes on block martingales",
    "corollary3sub": "weighted Fejer maximal probe on block martingales",
    "theorem1T": "T-mean divergence probe with the block lower bound",
    "theorem2fejerstrong": "strong T-mean sums ||T_k f||_p^p / k^{2-2p}",
    "threisz_2": "strong Riesz-log sums with logarithmic weights",
    "yano": "dyadic Fejer kernel bound ||K_n||_1 <= 2",
}


def all_claim_ids() -> frozenset[str]:
    return frozenset(CLAIMS)


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
        return {
            "suite": self.suite,
            "claim": self.claim,
            "params": self.params,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "kind": self.kind,
        }


def _sorted(records: list[VerificationRecord]) -> list[VerificationRecord]:
    return sorted(records, key=lambda r: (r.claim, json.dumps(r.params, sort_keys=True)))


def _identity(suite, claim, params, residual, tol) -> VerificationRecord:
    return VerificationRecord(
        suite=suite, claim=claim, params=params, value=float(residual), bound=tol,
        margin=float(tol - residual), passed=bool(residual <= tol), tolerance=tol,
        kind="identity",
    )


def _bound(suite, claim, params, value, bound, tol, lower=False) -> VerificationRecord:
    margin = float(value - bound) if lower else float(bound - value)
    return VerificationRecord(
        suite=suite, claim=claim, params=params, value=float(value), bound=float(bound),
        margin=margin, passed=bool(margin >= -tol), tolerance=tol, kind="bound",
    )


def _report(suite, claim, params, value, bound=None) -> VerificationRecord:
    return VerificationRecord(
        suite=suite, claim=claim, params=params, value=float(value), bound=bound,
        margin=None, passed=None, tolerance=0.0, kind="report",
    )


def _trend(suite, claim, params, values: Sequence[float], tol=0.0) -> VerificationRecord:
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    margin = min(diffs) if diffs else 0.0
    return VerificationRecord(
        suite=suite, claim=claim, params={**params, "values": [float(v) for v in values]},
        value=float(values[-1]), bound=None, margin=float(margin),
        passed=bool(margin > tol), tolerance=tol, kind="trend",
    )


# ---------------------------------------------------------------------------
# Shared precomputations
# ---------------------------------------------------------------------------

class _Workspace:
    """Naive Dirichlet/Fejer tables for one group, up to index cap."""

    def __init__(self, g: GroupSpec, cap: int):
        self.g = g
        self.cap = cap
        self.N = kernels.min_resolution(g, cap)
        MN = g.order(self.N)
        self.MN = MN
        self.psi = np.empty((cap + 1, MN), dtype=np.complex128)
        for k in range(cap + 1):
            self.psi[k] = character_column(g, k, self.N)
        self.D = np.zeros((cap + 2, MN), dtype=np.complex128)
        for n in range(1, cap + 2):
            self.D[n] = self.D[n - 1] + self.psi[n - 1]
        self.B = np.cumsum(self.D, axis=0)  # B[n] = sum_{k<=n} D_k = n K_n

    def K(self, n: int) -> np.ndarray:
        return self.B[n] / n


def _group_params(g: GroupSpec) -> dict:
    return {"m": list(g.m)}


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def run_identity_suite(g: GroupSpec, n_max: int = 64, tol: float = 1e-12,
                       seed: int = 2024) -> list[VerificationRecord]:
    """Kernel, character, Cesaro-table, and martingale construction identities."""
    suite = "identities"
    gp = _group_params(g)
    ws = _Workspace(g, n_max)
    recs: list[VerificationRecord] = []
    dm = digit_matrix(g, ws.N)

    # (1.1) partition of the complement of I_N
    part = coset_partition(g, min(ws.N, 4))
    MNp = g.order(min(ws.N, 4))
    seen = np.zeros(MNp, dtype=int)
    for _, _, idx in part.cells:
        seen[idx] += 1
    ok = seen[0] == 0 and np.all(seen[1:] == 1)
    recs.append(_identity(suite, "1.1", {**gp, "N": min(ws.N, 4)}, 0.0 if ok else 1.0, tol))

    # (vilenkin) character identities at resolution 3
    res3 = min(3, g.levels)
    M3 = g.order(res3)
    C = np.empty((M3, M3), dtype=np.complex128)
    for k in range(M3):
        C[k] = character_column(g, k, res3)
    r_mod = np.abs(np.abs(C) - 1).max()
    gram = (C @ C.conj().T) / M3
    r_orth = np.abs(gram - np.eye(M3)).max()
    dm3 = digit_matrix(g, res3)
    add_idx = np.zeros((M3, M3), dtype=np.int64)
    neg_idx = np.zeros(M3, dtype=np.int64)
    for j in range(res3):
        dj = dm3[j]
        add_idx += ((dj[:, None] + dj[None, :]) % g.m[j]) * g.M[j]
        neg_idx += ((-dj) % g.m[j]) * g.M[j]
    r_mult = max(
        np.abs(C[k][add_idx] - np.outer(C[k], C[k])).max() for k in range(min(M3, n_max + 1))
    )
    r_conj = np.abs(C[:, neg_idx] - C.conj()).max()
    recs.append(_identity(suite, "vilenkin", {**gp, "resolution": res3},
                          max(r_mod, r_orth, r_mult, r_conj), tol))

    # (3aa) block kernels
    r = 0.0
    for lvl in range(ws.N + 1):
        if g.M[lvl] > n_max + 1:
            break
        closed = kernels.dirichlet_block(g, lvl, ws.N)
        r = max(r, np.abs(closed - ws.D[g.M[lvl]]).max())
    recs.append(_identity(suite, "3aa", gp, r, tol))

    # (dn21) shift identity
    r = 0.0
    for lvl in range(ws.N):
        Mn = g.M[lvl]
        rad = _unit_roots(g.m[lvl])[dm[lvl]]
        top = min((g.m[lvl] - 1) * Mn, n_max + 1 - Mn)
        for j in range(0, top + 1):
            r = max(r, np.abs(ws.D[j + Mn] - (ws.D[Mn] + rad * ws.D[j])).max())
    recs.append(_identity(suite, "dn21", gp, r, tol))

    # (dn22) reflection identity
    r = 0.0
    for lvl in range(1, ws.N + 1):
        Mn = g.M[lvl]
        if Mn > n_max + 1:
            break
        psi_last = ws.psi[Mn - 1]
        for j in range(0, Mn):
            r = max(r, np.abs(ws.D[Mn - j] - (ws.D[Mn] - psi_last * np.conj(ws.D[j]))).max())
    recs.append(_identity(suite, "dn22", gp, r, tol))

    # (9dn) block multiples
    r = 0.0
    for lvl in range(ws.N):
        for s in range(1, g.m[lvl]):
            if s * g.M[lvl] > n_max:
                break
            closed = kernels.dirichlet_s_block(g, s, lvl, ws.N)
            r = max(r, np.abs(closed - ws.D[s * g.M[lvl]]).max())
    recs.append(_identity(suite, "9dn", gp, r, tol))

    # (2dna) digit-product closed form for every n
    r = 0.0
    for n in range(0, n_max + 1):
        closed = kernels.dirichlet(g, n, N=ws.N, method="closed")
        r = max(r, np.abs(closed.values - ws.D[n]).max())
    recs.append(_identity(suite, "2dna", gp, r, tol))

    # (kn8) block Fejer closed form
    r = 0.0
    for lvl in range(ws.N + 1):
        if g.M[lvl] > n_max:
            break
        closed = kernels.fejer_block(g, lvl, ws.N)
        r = max(r, np.abs(closed - ws.K(g.M[lvl])).max())
    recs.append(_identity(suite, "kn8", gp, r, tol))

    # (mag) block-average identity
    r = 0.0
    for lvl in range(ws.N):
        for s in range(1, g.m[lvl]):
            if s * g.M[lvl] > n_max:
                break
            closed = kernels._fejer_s_block(g, s, lvl, ws.N)
            r = max(r, np.abs(closed - ws.K(s * g.M[lvl])).max())
    recs.append(_identity(suite, "mag", gp, r, tol))

    # (kn10) full closed-form Fejer kernels
    r = 0.0
    for n in range(1, n_max + 1):
        closed = kernels.fejer(g, n, N=ws.N, method="closed")
        r = max(r, np.abs(closed.values - ws.K(n)).max())
    recs.append(_identity(suite, "kn10", gp, r, tol))

    # (T1) Abel identities for three weight families
    f = random_grid_function(g, ws.N, seed=seed)
    sf = transform_forward(f)
    qsets = {
        "ones": weights.ones(n_max),
        "power_half": weights.power_weights(0.5, n_max),
        "log1p": weights.from_function(lambda k: math.log(k + 1.0), n_max, "nondecreasing"),
    }
    for qname, q in qsets.items():
        r2b = 0.0
        r2c = 0.0
        r2d = 0.0
        for n in range(2, n_max + 1):
            lhs = q.Q(n) - q.q(0)
            rhs = sum((q.q(j) - q.q(j + 1)) * j for j in range(n - 1)) + q.q(n - 1) * (n - 1)
            r2b = max(r2b, abs(lhs - rhs))
        for n in (2, 3, 8, min(17, n_max), min(33, n_max)):
            Qn = q.Q(n)
            acc = np.zeros(ws.MN, dtype=np.complex128)
            for j in range(1, n - 1):
                acc += (q.q(j) - q.q(j + 1)) * ws.B[j]
            acc += q.q(n - 1) * ws.B[n - 1]
            Fn = kernels.tmean_kernel(g, q, n, N=ws.N)
            r2c = max(r2c, np.abs(Fn.values - acc / Qn).max())
            direct = means.t_mean(f, n, q, sf)
            abel = means.t_mean_abel(f, n, q, sf)
            r2d = max(r2d, np.abs(direct.values - abel.values).max())
        recs.append(_identity(suite, "T1", {**gp, "weights": qname, "part": "2b"}, r2b, tol))
        recs.append(_identity(suite, "T1", {**gp, "weights": qname, "part": "2c"}, r2c, tol))
        recs.append(_identity(suite, "T1", {**gp, "weights": qname, "part": "2d"}, r2d, tol))

    # (lemma0nnT121) log-mean kernel identity at block indices
    r = 0.0
    for lvl in range(1, ws.N + 1):
        Mn = g.M[lvl]
        if Mn > n_max or Mn < 2:
            continue
        P = kernels.norlund_log_kernel(g, Mn, N=ws.N)
        Y = kernels.riesz_log_kernel(g, Mn, N=ws.N)
        rhs = ws.D[Mn] - ws.psi[Mn - 1] * np.conj(Y.values)
        r = max(r, np.abs(P.values - rhs).max())
    recs.append(_identity(suite, "lemma0nnT121", gp, r, tol))

    # (reiszkernel) the index-shifted Abel form carries a real residual
    # (reported); the exact form is asserted
    r_shifted = 0.0
    r_corr = 0.0
    for n in (4, 8, min(16, n_max), min(40, n_max)):
        ln = weights.harmonic_number(n)
        Y = kernels.riesz_log_kernel(g, n, N=ws.N).values
        shifted = (sum(ws.K(j) / (j + 1) for j in range(1, n)) + ws.K(n)) / ln
        corrected = (sum(ws.K(j) / (j + 1) for j in range(1, n - 1)) + ws.K(n - 1)) / ln
        r_shifted = max(r_shifted, np.abs(Y - shifted).max())
        r_corr = max(r_corr, np.abs(Y - corrected).max())
    recs.append(_report(suite, "reiszkernel", {**gp, "variant": "shifted"}, r_shifted))
    recs.append(_identity(suite, "reiszkernel", {**gp, "variant": "corrected"}, r_corr, tol))

    # (node0)/(node01) Cesaro coefficient table
    for alpha in (0.25, 0.5, 1.0):
        A = means.cesaro_coeffs(alpha, n_max)
        Am1 = means.cesaro_coeffs(alpha - 1.0, n_max)
        r0 = max(abs(A.a(n) - Am1.table[: n + 1].sum()) for n in range(n_max + 1))
        r1 = max(abs(A.a(n) - A.a(n - 1) - Am1.a(n)) for n in range(1, n_max + 1))
        recs.append(_identity(suite, "node0", {**gp, "alpha": alpha}, r0, 1e-10))
        ratios = [A.a(n) / n**alpha for n in range(8, n_max + 1)]
        ok_band = min(ratios) >= 0.5 and max(ratios) <= 2.0
        recs.append(_identity(suite, "node01", {**gp, "alpha": alpha},
                              r1 if ok_band else 1.0, 1e-10))

    # (condmart) atomic martingale identity
    lvl = min(2, ws.N - 1)
    base_fn = GridFunction(g, lvl + 1, ws.psi[g.M[lvl]][: g.order(lvl + 1)]
                           * kernels.dirichlet_block(g, lvl, lvl + 1))
    atom = hardy.make_atom(1.0, lvl, 0, base_fn)
    mart, _ = hardy.atom_martingale([(0.7, atom)], levels=list(range(1, lvl + 2)))
    r = mart.check_consistency()
    for i, n in enumerate(mart.levels):
        direct = hardy.project_to_level(
            GridFunction(g, lvl + 1, 0.7 * atom.values.values), n)
        r = max(r, float(np.abs(mart.entries[i].values - direct.values).max()))
    recs.append(_identity(suite, "condmart", gp, r, tol))

    # (g100) tail martingale structure
    mart = hardy.regular_martingale(f)
    n0 = min(2, ws.N)
    tail = hardy.tail_martingale(mart, n0)
    r = 0.0
    for i, lv in enumerate(tail.levels):
        if lv <= n0:
            r = max(r, float(np.abs(tail.entries[i].values).max()))
        else:
            expect = mart.entries[i].values - hardy.embed(
                hardy.project_to_level(mart.final, n0), lv).values
            r = max(r, float(np.abs(tail.entries[i].values - expect).max()))
    recs.append(_identity(suite, "g100", gp, r, tol))

    # (lemma2.3.4) maximal form of the H_p norm + coefficient preservation
    sup_sm = np.zeros(ws.MN)
    for lv in range(ws.N + 1):
        np.maximum(sup_sm, np.abs(partial_sum(f, g.M[lv], sf).values), out=sup_sm)
    r = 0.0
    for p in (0.5, 1.0, 2.0):
        direct = float((sup_sm**p).mean() ** (1 / p))
        r = max(r, abs(hardy.hardy_quasinorm_fn(f, p) - direct))
    coeff_r = np.abs(transform_forward(hardy.regular_martingale(f).final).coeffs
                     - sf.coeffs).max()
    recs.append(_identity(suite, "lemma2.3.4", gp, max(r, float(coeff_r)), 1e-10))

    return _sorted(recs)

# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

def run_inequality_suite(g: GroupSpec, n_max: int = 256, tol: float = 1e-10,
                         seed: int = 2024, samples: int = 20) -> list[VerificationRecord]:
    """Norm inequalities: variation bounds, kernel L1 bounds, Young, Watari."""
    suite = "inequalities"
    gp = _group_params(g)
    recs: list[VerificationRecord] = []
    lam = g.lam

    # Lebesgue constants and variation bounds
    L = kernels.lebesgue_batch(g, n_max)
    lo_margin = np.inf
    up_margin = np.inf
    lo_lit = np.inf
    up_lit = np.inf
    for n in range(1, n_max + 1):
        nd = digits_of(n, g)
        bc = kernels.lebesgue_bounds(nd, variant="corrected")
        lo_margin = min(lo_margin, L[n] - bc.lower)
        up_margin = min(up_margin, bc.upper - L[n])
        bl = kernels.lebesgue_bounds(nd, variant="literal")
        lo_lit = min(lo_lit, L[n] - bl.lower)
        up_lit = min(up_lit, bl.upper - L[n])
    recs.append(_bound(suite, "var1", {**gp, "variant": "corrected", "side": "lower", "n_max": n_max},
                       -lo_margin, 0.0, tol))
    recs.append(_bound(suite, "var1", {**gp, "variant": "corrected", "side": "upper", "n_max": n_max},
                       -up_margin, 0.0, tol))
    recs.append(_report(suite, "var1", {**gp, "variant": "literal", "side": "lower"}, -lo_lit))
    recs.append(_report(suite, "var1", {**gp, "variant": "literal", "side": "upper"}, -up_lit))
    if g.is_dyadic:
        # Walsh specialization: V(n)/8 <= L_n <= V(n) (V == corrected v there)
        w_lo = min(L[n] - kernels.lebesgue_bounds(digits_of(n, g), "corrected").v / 8.0
                   for n in range(1, n_max + 1))
        w_up = min(kernels.lebesgue_bounds(digits_of(n, g), "corrected").v - L[n]
                   for n in range(1, n_max + 1))
        recs.append(_bound(suite, "var1", {**gp, "variant": "walsh-V", "side": "lower"},
                           -w_lo, 0.0, tol))
        recs.append(_bound(suite, "var1", {**gp, "variant": "walsh-V", "side": "upper"},
                           -w_up, 0.0, tol))

    # (Dn) sup L_n / log n
    sup_ratio = max(L[n] / math.log(n) for n in range(2, n_max + 1))
    recs.append(_report(suite, "Dn", {**gp, "n_max": n_max}, sup_ratio))

    # (5aa) exact norms of block kernels
    r = 0.0
    for lvl in range(1, g.levels + 1):
        if g.M[lvl] > max(n_max, 64):
            break
        r = max(r, abs(kernels.lebesgue_constant(g, g.M[lvl]) - 1.0))
    recs.append(_bound(suite, "5aa", gp, r, 0.0, 1e-12))

    # (Dnqn) pattern indices
    for k in (2, 3):
        if 2 * k >= g.levels:
            continue
        qn = kernels.q_pattern(g, k)
        Lq = kernels.lebesgue_constant(g, qn)
        recs.append(_bound(suite, "Dnqn", {**gp, "k": k, "n": qn, "side": "lower"},
                           Lq, k / (2.0 * lam), tol, lower=True))
        recs.append(_bound(suite, "Dnqn", {**gp, "k": k, "n": qn, "side": "upper"},
                           Lq, lam * k, tol))

    # (knbounded) / (yano)
    K1 = kernels.fejer_l1_batch(g, n_max)
    recs.append(_report(suite, "knbounded", {**gp, "n_max": n_max}, K1[1:].max()))
    if g.is_dyadic:
        recs.append(_bound(suite, "yano", {**gp, "n_max": n_max}, K1[1:].max(), 2.0, tol))

    # (reisz) sup ||Y_n||_1
    sup_y = 0.0
    for n in range(2, min(n_max, 128) + 1):
        sup_y = max(sup_y, lp_norm(kernels.riesz_log_kernel(g, n), 1.0))
    recs.append(_report(suite, "reisz", {**gp, "n_max": min(n_max, 128)}, sup_y))

    # (T2) sup ||F_n||_1 for the two monotone classes
    for qname, q in (("power_half", weights.power_weights(0.5, n_max)),
                     ("log1p", weights.from_function(lambda k: math.log(k + 1.0), n_max,
                                                     "nondecreasing"))):
        sup_f = 0.0
        for n in range(2, min(n_max, 128) + 1):
            sup_f = max(sup_f, lp_norm(kernels.tmean_kernel(g, q, n), 1.0))
        recs.append(_report(suite, "T2", {**gp, "weights": qname, "n_max": min(n_max, 128)}, sup_f))

    # (112) regularity trends
    for qname, q in (("ones", weights.ones(n_max)),
                     ("power_half", weights.power_weights(0.5, n_max)),
                     ("log1p", weights.from_function(lambda k: math.log(k + 1.0), n_max,
                                                     "nondecreasing"))):
        rep = means.regularity_report(q, n_max)
        rows = rep["rows"]
        picks = sorted({len(rows) // 4, len(rows) // 2, len(rows) - 1})
        ratios = [rows[i]["ratio"] for i in picks]
        recs.append(_trend(suite, "112", {**gp, "weights": qname},
                           [-x for x in ratios]))

    # (covstrong) Young inequality + coefficient product rule
    N = min(4, g.levels)
    rng_seeds = range(seed, seed + samples)
    worst = np.inf
    worst_id = 0.0
    for s in rng_seeds:
        f = random_grid_function(g, N, seed=s)
        h = random_grid_function(g, N, seed=s + 10_000)
        conv = convolve(f, h)
        prod = transform_forward(conv).coeffs - transform_forward(f).coeffs * transform_forward(h).coeffs
        worst_id = max(worst_id, float(np.abs(prod).max()))
        for p in (1.0, 2.0, np.inf):
            margin = lp_norm(f, p) * lp_norm(h, 1.0) - lp_norm(conv, p)
            worst = min(worst, margin)
    recs.append(_identity(suite, "covstrong", {**gp, "part": "coefficient-product"}, worst_id, tol))
    recs.append(_bound(suite, "covstrong", {**gp, "part": "young", "samples": samples},
                       -worst, 0.0, tol))

    # (eqvi) Watari bracket
    worst_up = np.inf
    worst_lo = np.inf
    N = min(4, g.levels)
    for s in rng_seeds:
        f = random_grid_function(g, N, seed=s)
        for p in (1.0, 2.0):
            for n in range(0, N + 1):
                om = hardy.modulus(f, p, n)
                err = lp_norm(f.with_values(
                    f.values - hardy.conditional_expectation(f, n).values), p)
                worst_up = min(worst_up, om - err)
                worst_lo = min(worst_lo, err - om / 2.0)
    recs.append(_bound(suite, "eqvi", {**gp, "side": "upper", "samples": samples}, -worst_up, 0.0, tol))
    recs.append(_bound(suite, "eqvi", {**gp, "side": "lower", "samples": samples}, -worst_lo, 0.0, tol))

    return _sorted(recs)


# ---------------------------------------------------------------------------
# Kernel estimate lemma suite
# ---------------------------------------------------------------------------

def _coset_averages(g: GroupSpec, kernel_vals: np.ndarray, resolution: int, N: int) -> np.ndarray:
    """int_{I_N} |K(x - t)| dmu(t) for every x, as coset averages / M_N."""
    MN_full = g.order(resolution)
    MnN = g.M[N]
    block = np.abs(kernel_vals).reshape(MN_full // MnN, MnN).mean(axis=0)
    tiled = np.tile(block, MN_full // MnN)
    return tiled / float(g.M[N])


def run_kernel_lemma_suite(g: GroupSpec, n_max: int = 64, tol: float = 1e-12,
                           N: int | None = None) -> list[VerificationRecord]:
    """Pointwise and averaged kernel estimates on the coset cells."""
    suite = "kernel-lemmas"
    gp = _group_params(g)
    recs: list[VerificationRecord] = []
    ws = _Workspace(g, n_max)
    N = N if N is not None else max(2, min(3, ws.N - 1))
    part = coset_partition(g, N)
    res = ws.N
    MN = g.order(N)
    dmN = digit_matrix(g, res)

    # (lemma222): K_{M_n} on cells ((star1) exact zero, (star2) ratio, (star3) integral)
    r_star1 = 0.0
    ratio_star2 = 0.0
    for lvl in range(1, res + 1):
        if g.M[lvl] > n_max:
            break
        K = kernels.fejer_block(g, lvl, res)
        for k, l, idx in part.cells:
            if l == N:
                continue
            full_idx = _lift_cell(g, idx, N, res)
            if lvl > l:
                r_star1 = max(r_star1, float(np.abs(K[full_idx]).max()))
            ratio_star2 = max(ratio_star2, float(np.abs(K[full_idx]).max() / g.M[k]))
    recs.append(_identity(suite, "lemma222", {**gp, "part": "star1", "N": N}, r_star1, tol))
    recs.append(_report(suite, "lemma222", {**gp, "part": "star2", "N": N}, ratio_star2))
    sup_int = max(float(np.abs(kernels.fejer_block(g, lvl, res)).mean())
                  for lvl in range(1, res + 1) if g.M[lvl] <= n_max)
    recs.append(_report(suite, "lemma222", {**gp, "part": "star3"}, sup_int))

    # (lemma7kn) fn5 ratio
    dom = np.zeros(ws.MN)
    sup_ratio = 0.0
    for n in range(2, n_max + 1):
        nd = digits_of(n, g)
        dom = sum(g.M[l] * np.abs(kernels.fejer_block(g, l, res))
                  for l in range(nd.lo, nd.hi + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dom > 0, n * np.abs(ws.K(n)) / dom, 0.0)
        sup_ratio = max(sup_ratio, float(ratio.max()))
        if (dom == 0).any():
            # both sides vanish on the same cells up to rounding
            zero_viol = float((n * np.abs(ws.K(n)))[dom == 0].max())
            if zero_viol > 1e-10:
                sup_ratio = math.inf
    recs.append(_report(suite, "lemma7kn", {**gp, "n_max": n_max}, sup_ratio))

    # (dn2.6): averaged |D_n| on shells, vs M_s/M_N
    sup_c = 0.0
    for n in range(1, n_max + 1):
        avg = _coset_averages(g, ws.D[n], res, N)
        for s, idx in part.shells:
            full_idx = _lift_cell(g, idx, N, res)
            sup_c = max(sup_c, float(avg[full_idx].max() * g.M[N] / g.M[s]))
    recs.append(_report(suite, "dn2.6", {**gp, "N": N, "n_max": n_max}, sup_c))

    # (dn2.7): same averaged bound for the log-mean kernel P_n
    sup_c = 0.0
    for n in (max(2, n_max // 2), n_max):
        P = kernels.norlund_log_kernel(g, n, N=res)
        avg = _coset_averages(g, P.values, res, N)
        for s, idx in part.shells:
            full_idx = _lift_cell(g, idx, N, res)
            sup_c = max(sup_c, float(avg[full_idx].max() * g.M[N] / g.M[s]))
    recs.append(_report(suite, "dn2.7", {**gp, "N": N}, sup_c))

    # (lemma5)/(lemma5aa): averaged |K_n| on cells
    sup5 = 0.0
    sup5aa = 0.0
    for n in range(g.M[N], n_max + 1):
        avg = _coset_averages(g, ws.B[n] / n, res, N)
        for k, l, idx in part.cells:
            full_idx = _lift_cell(g, idx, N, res)
            peak = float(avg[full_idx].max())
            if l < N:
                sup5 = max(sup5, peak * n * g.M[N] / (g.M[l] * g.M[k]))
            else:
                sup5 = max(sup5, peak * g.M[N] / g.M[k])
            sup5aa = max(sup5aa, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
    recs.append(_report(suite, "lemma5", {**gp, "N": N}, sup5))
    recs.append(_report(suite, "lemma5aa", {**gp, "N": N}, sup5aa))

    # (l2): averaged tail sums of |K_j|/(j+1)
    tail = np.zeros(ws.MN)
    for j in range(g.M[N] + 1, n_max + 1):
        tail = tail + np.abs(ws.B[j] / j) / (j + 1)
    avg = _coset_averages(g, tail, res, N)
    supl2 = 0.0
    supl2_shell = 0.0
    ln = weights.harmonic_number(n_max)
    for k, l, idx in part.cells:
        full_idx = _lift_cell(g, idx, N, res)
        peak = float(avg[full_idx].max())
        if l < N:
            supl2 = max(supl2, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
        else:
            supl2_shell = max(supl2_shell, peak * g.M[N] / (g.M[k] * ln))
    recs.append(_report(suite, "l2", {**gp, "part": "cells", "N": N}, supl2))
    recs.append(_report(suite, "l2", {**gp, "part": "shells", "N": N}, supl2_shell))

    # (lemma6kn): lower bound and vanishing of block multiples
    worst_margin = np.inf
    r_kn1 = 0.0
    for lvl in range(1, res - 1):
        for s in range(1, g.m[lvl]):
            K = kernels._fejer_s_block(g, s, lvl, res)
            idx = coset_indices(g, res, lvl + 1, g.M[lvl - 1] + g.M[lvl])
            low = float(np.abs(K[idx]).min())
            worst_margin = min(worst_margin, low - g.M[lvl] / (2 * math.pi * s))
            # vanishing outside: x in I_t \ I_{t+1}, x - x_t e_t not in I_n, n > t
            for t in range(lvl):
                mask = (np.all(dmN[:t] == 0, axis=0) & (dmN[t] != 0)
                        & ~np.all(np.vstack([dmN[:t], dmN[t + 1:lvl]]) == 0, axis=0))
                if mask.any():
                    r_kn1 = max(r_kn1, float(np.abs(K[mask]).max()))
    recs.append(_bound(suite, "lemma6kn", {**gp, "part": "100kn1"}, -worst_margin, 0.0, 1e-10))
    recs.append(_identity(suite, "lemma6kn", {**gp, "part": "kn1"}, r_kn1, tol))

    # (lemma8ccc): lower bound at I_{<n>+1}(e_{<n>-1} + e_{<n>})
    worst_margin = np.inf
    tested = 0
    for n in range(2, n_max + 1):
        nd = digits_of(n, g)
        if nd.lo == nd.hi or nd.lo < 1:
            continue
        idx = coset_indices(g, res, nd.lo + 1, g.M[nd.lo - 1] + g.M[nd.lo])
        low = float((n * np.abs(ws.K(n)))[idx].min())
        worst_margin = min(worst_margin, low - g.M[nd.lo] ** 2 / (2 * math.pi * g.lam))
        tested += 1
    if tested:
        recs.append(_bound(suite, "lemma8ccc", {**gp, "count": tested}, -worst_margin, 0.0, 1e-10))

    # (lemma3)/(cor3a): alternating-pattern lower bounds
    for k in (1, 2):
        if 2 * k + 1 > res or kernels.q_pattern(g, k) > n_max:
            continue
        qn = kernels.q_pattern(g, k)
        idx = coset_indices(g, res, 2 * k + 1, g.M[2 * k - 1] + g.M[2 * k])
        low = float((qn * np.abs(ws.K(qn)))[idx].min())
        recs.append(_report(suite, "lemma3", {**gp, "k": k, "n": qn},
                            low / g.M[2 * k] ** 2))
        recs.append(_bound(suite, "cor3a", {**gp, "k": k, "n": qn},
                           low, g.M[2 * k] ** 2 / 144.0, 1e-10, lower=True))

    # Tail kernel bounds for T means (nonincreasing and nondecreasing classes)
    q_ni = weights.power_weights(0.5, n_max)
    q_nd = weights.from_function(lambda k: math.log(k + 1.0), n_max, "nondecreasing")
    for claim_ratio, claim_avg, claim_avg_big, q, use_n in (
        ("lemma0nnT0", "lemma5aaTin", None, q_ni, False),
        ("lemma0nnT", "lemma5a", "lemma5bT", q_ni, True),
        ("lemma0nnT1", "lemma5aT", "lemma5b", q_nd, True),
    ):
        sup_ratio = 0.0
        sup_avg = 0.0
        sup_avg_big = 0.0
        for n in (g.M[N] + 2, min(2 * g.M[N] + 1, n_max), n_max):
            if n <= g.M[N]:
                continue
            Qn = q.Q(n)
            if claim_ratio == "lemma0nnT1":
                tail_vals = kernels.tmean_kernel(g, q, n, N=res).values
            else:
                coeffs = np.zeros(n)
                coeffs[g.M[N]:] = q.values[g.M[N]:n] / Qn
                tail = coefficient_tails(coeffs, g.order(res))
                tail_vals = transform_inverse(Spectrum(g, res, tail)).values
            dom = sum(g.M[lvl] * np.abs(kernels.fejer_block(g, lvl, res))
                      for lvl in range(0, digits_of(n, g).hi + 1))
            scale = (n if use_n else g.M[N])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(dom > 0, scale * np.abs(tail_vals) / dom, 0.0)
            sup_ratio = max(sup_ratio, float(ratio.max()))
            avg = _coset_averages(g, tail_vals, res, N)
            for k, l, idx in part.cells:
                full_idx = _lift_cell(g, idx, N, res)
                peak = float(avg[full_idx].max())
                if l < N:
                    sup_avg = max(sup_avg, peak * scale * g.M[N] / (g.M[l] * g.M[k])
                                  if use_n else peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
                else:
                    sup_avg = max(sup_avg, peak * g.M[N] / g.M[k])
                sup_avg_big = max(sup_avg_big, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
        recs.append(_report(suite, claim_ratio, {**gp, "N": N}, sup_ratio))
        recs.append(_report(suite, claim_avg, {**gp, "N": N}, sup_avg))
        if claim_avg_big:
            recs.append(_report(suite, claim_avg_big, {**gp, "N": N}, sup_avg_big))

    return _sorted(recs)


def _lift_cell(g: GroupSpec, idx: np.ndarray, N: int, resolution: int) -> np.ndarray:
    """Lift rank-N cell indices to all their refinements at a finer rank."""
    reps = g.order(resolution) // g.M[N]
    offs = g.M[N] * np.arange(reps, dtype=np.int64)
    return (idx[:, None] + offs[None, :]).reshape(-1)


# ---------------------------------------------------------------------------
# Strong-convergence sums
# ---------------------------------------------------------------------------

MEAN_KINDS_FOR_STRONG = ("partial_sum", "fejer", "tmean", "riesz_log")


def strong_sum(
    f: GridFunction,
    mean_kind: str,
    p: float,
    weight: Callable[[int], float],
    n_max: int,
    checkpoints: Sequence[int] | None = None,
    normalizer: Callable[[int], float] | None = None,
    norm_source: str = "lp",
    hp_ref: float | None = None,
    **mean_params,
) -> list[dict]:
    """Cumulative weighted sums sum_{k<=n} weight(k) ||mean_k f||_p^p.

    Returns one row per checkpoint with the cumulative value, the
    normalized value (divided by ``normalizer(n)``), and its ratio to the
    H_p reference norm of f (computed from the regular martingale unless
    ``hp_ref`` is supplied).  ``norm_source`` picks ||.||_p ("lp") or the
    H_p quasi-norm of each mean ("hp").

    The means come from ``means.mean_blocks`` as rank-j rows, and each block
    is normed row-wise at once.  Both norms are exact there: replication
    leaves ||.||_p unchanged, and the regular martingale of a rank-j
    function is constant from level j on, so its maximal function needs
    only the levels l <= j.  The sum is accumulated in increasing n.
    """
    checkpoints = sorted(set(checkpoints or [n_max]))
    if checkpoints[-1] > n_max:
        raise InvalidParamsError("checkpoint beyond n_max")
    ref = hp_ref if hp_ref is not None else hardy.hardy_quasinorm_fn(f, p) ** p
    rows = []
    acc = 0.0
    cp = set(checkpoints)
    orders = range(means.first_order(mean_kind), n_max + 1)
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
                    "normalized": acc / norm,
                    "ratio_to_hp": acc / (norm * ref) if ref > 0 else math.inf,
                })
    return rows


def divergence_probe(
    mart: hardy.StepMartingale,
    operator_kind: str,
    p: float,
    checkpoints: Sequence[int],
    q: weights.WeightSequence | None = None,
    bound_fn: Callable[[int], float] | None = None,
) -> list[dict]:
    """weak-L_p norms of the designated means at the designated indices.

    Each row carries the measured weak-L_p quasi-norm of the operator at
    one checkpoint and, when ``bound_fn`` is given, the lower-bound
    expression evaluated there.
    """
    if operator_kind not in ("tmean", "fejer", "partial_sum"):
        raise InvalidParamsError(f"unknown probe operator {operator_kind!r}")
    if operator_kind == "tmean" and q is None:
        raise InvalidParamsError("tmean probe needs a weight sequence")
    params = {"q": q} if operator_kind == "tmean" else {}
    rows = []
    # weak-L_p is unchanged by replication: each mean stays a rank-j row
    for _, ns, vals in means.mean_blocks(mart.final, operator_kind, checkpoints, **params):
        for n, wl in zip(ns, weak_lp_rows(vals, p).tolist()):
            row = {"n": n, "weak_lp": wl}
            if bound_fn is not None:
                row["bound"] = float(bound_fn(n))
            rows.append(row)
    return rows


def run_strong_suite(g: GroupSpec, rank: int = 5, n_max: int = 64,
                     seed: int = 2024) -> list[VerificationRecord]:
    """Canned strong-convergence claims on a seeded function and the
    sharpness martingales."""
    suite = "strong"
    gp = _group_params(g)
    recs: list[VerificationRecord] = []
    rank = min(rank, g.levels)
    f = random_grid_function(g, rank, seed=seed)
    n_max = min(n_max, g.order(rank))
    cps = sorted({n_max // 4, n_max // 2, n_max})

    # theorem1: (1/(n log n)) sum ||S_k f||_1 vs ||f||_{H_1}
    rows = strong_sum(f, "partial_sum", 1.0, lambda k: 1.0, n_max, cps,
                      normalizer=lambda n: n * math.log(n))
    recs.append(_report(suite, "theorem1", {**gp, "probe": "ratio", "n": n_max},
                        max(r["ratio_to_hp"] for r in rows)))

    # simon: sum ||S_k f||_p^p / k^{2-p}
    p = 0.75
    rows = strong_sum(f, "partial_sum", p, lambda k: k ** (p - 2.0), n_max, cps)
    recs.append(_report(suite, "simon", {**gp, "p": p, "n": n_max},
                        rows[-1]["ratio_to_hp"]))

    # theorem1sigma: (1/(n log n)) sum ||sigma_k f||_{1/2}^{1/2}
    rows = strong_sum(f, "fejer", 0.5, lambda k: 1.0, n_max, cps,
                      normalizer=lambda n: n * math.log(n))
    recs.append(_report(suite, "theorem1sigma", {**gp, "probe": "ratio", "n": n_max},
                        max(r["ratio_to_hp"] for r in rows)))

    # theorem2fejerstrong: sum ||T_k f||_p^p / k^{2-2p}, nonincreasing weights
    p = 0.4
    q = weights.power_weights(0.5, n_max)
    rows = strong_sum(f, "tmean", p, lambda k: k ** (2.0 * p - 2.0), n_max, cps, q=q)
    recs.append(_report(suite, "theorem2fejerstrong", {**gp, "p": p, "n": n_max},
                        rows[-1]["ratio_to_hp"]))

    # threisz_2: sum log^p(n) ||R_n f||_{H_p}^p / n^{2-2p}
    rows = strong_sum(f, "riesz_log", p, lambda k: math.log(k) ** p * k ** (2.0 * p - 2.0),
                      n_max, cps, norm_source="hp")
    recs.append(_report(suite, "threisz_2", {**gp, "p": p, "n": n_max},
                        rows[-1]["ratio_to_hp"]))

    # Sharpness side of theorem1: the block martingale makes the normalized
    # sums grow across the block checkpoints.
    alphas = [a for a in (1, 2, 3) if a + 1 <= g.levels and 2 * g.M[a] <= g.order(min(g.levels, rank + 2))]
    if len(alphas) >= 2:
        rk = min(g.levels, max(rank, alphas[-1] + 1))
        for kind, mean_kind, p, claim in (("strong-partial-sums", "partial_sum", 1.0, "theorem1"),
                                          ("strong-fejer", "fejer", 0.5, "theorem1sigma")):
            mart = hardy.counterexample(g, kind, alphas, rank=rk)
            ends = [2 * g.M[a] for a in alphas]
            terms = [t for _, _, v in means.mean_blocks(mart.final, mean_kind, range(1, ends[-1] + 1))
                     for t in (lp_norm_rows(v, p) ** p).tolist()]
            vals = [math.fsum(terms[:n]) / (n * hardy._default_phi(n)) for n in ends]
            recs.append(_trend(suite, claim, {**gp, "probe": "sharpness",
                                              "alphas": alphas}, vals))
    return _sorted(recs)


def _divergence_alphas(g: GroupSpec, p: float, max_level: int) -> tuple[int, ...]:
    """Smallest block-level triple whose lower bounds strictly increase.

    The divergence claims are asymptotic; the finite rendering needs
    checkpoints where the growth is already visible, which depends on the
    radices (small radices need wider level gaps).
    """
    from itertools import combinations

    def bound(a: int) -> float:
        return g.M[a] ** (1.0 / p - 2.0) / (16.0 * a)

    best = None
    for combo in combinations(range(1, max_level), 3):
        b = [bound(a) for a in combo]
        if all(x < y * (1 - 1e-9) for x, y in zip(b, b[1:])):
            key = (combo[-1], combo)
            if best is None or key < best:
                best = key
    return best[1] if best else (1, 2, 3)


def run_divergence_suite(g: GroupSpec, p: float = 0.4,
                         alphas: Sequence[int] | None = None,
                         rank: int = 8, tol: float = 1e-10) -> list[VerificationRecord]:
    """Divergence probes on the block-spectrum martingale.

    The T-mean probe checks the measured weak-L_p norm at M_a + 2 against
    the lower-bound expression M_a^(1/p-2)/(16 a); the bound sequence is
    also checked for strict growth (a trend, not a limit).  With
    ``alphas=None`` the block levels are chosen per group so the bound
    growth is visible at desk scale.
    """
    suite = "divergence"
    gp = _group_params(g)
    recs: list[VerificationRecord] = []
    rank = min(rank, g.levels)
    if alphas is None:
        alphas = _divergence_alphas(g, p, rank)
    rank = max(rank, alphas[-1] + 1)
    if rank > g.levels:
        raise InvalidParamsError(f"group needs {rank} levels for blocks {alphas}")
    mart = hardy.counterexample(g, "hp-blocks", list(alphas), rank=rank, p=p)
    q = weights.ones(g.M[alphas[-1]] + 2)
    cps = [g.M[a] + 2 for a in alphas]
    bounds = {g.M[a] + 2: g.M[a] ** (1.0 / p - 2.0) / (16.0 * a) for a in alphas}
    rows = divergence_probe(mart, "tmean", p, cps, q=q, bound_fn=lambda n: bounds[n])
    for a, row in zip(alphas, rows):
        recs.append(_bound(suite, "theorem1T", {**gp, "alpha": a, "n": row["n"], "p": p},
                           row["weak_lp"], row["bound"], tol, lower=True))
    recs.append(_trend(suite, "theorem1T", {**gp, "probe": "bound-growth", "p": p},
                       [bounds[n] for n in cps]))

    # Fejer subsequence probe: measured weak-L_p of sigma at the block
    # edges, reported (growth is not promised for this coefficient scaling
    # at arbitrary checkpoints).
    rows = divergence_probe(mart, "fejer", p, cps)
    seq = [r["weak_lp"] for r in rows]
    recs.append(_report(suite, "theorem1sub",
                        {**gp, "probe": "fejer-blocks", "p": p,
                         "values": [float(v) for v in seq]}, seq[-1]))

    # Weighted Fejer maximal probe: report the H_p-normalized size of the
    # weighted maximal operator over the probe range.
    fm = mart.final
    wfun = means.power_log_weight(p, with_log=False)
    mx = means.weighted_maximal(fm, "fejer", range(1, cps[-1] + 1), weight=wfun)
    ref = hardy.hardy_quasinorm(mart, p)
    recs.append(_report(suite, "corollary3sub", {**gp, "p": p, "n_max": cps[-1]},
                        lp_norm(mx, p) / ref if ref > 0 else math.inf))
    return _sorted(recs)


# ---------------------------------------------------------------------------
# Umbrella runner
# ---------------------------------------------------------------------------

SUITES = ("identities", "inequalities", "kernel-lemmas", "strong", "divergence")


def run_suite(name: str, g: GroupSpec, n_max: int = 64, tol: float = 1e-10,
              seed: int = 2024, samples: int = 20) -> list[VerificationRecord]:
    if name == "identities":
        return run_identity_suite(g, n_max=n_max, tol=max(tol * 1e-2, 1e-12), seed=seed)
    if name == "inequalities":
        return run_inequality_suite(g, n_max=n_max, tol=tol, seed=seed, samples=samples)
    if name == "kernel-lemmas":
        return run_kernel_lemma_suite(g, n_max=n_max)
    if name == "strong":
        return run_strong_suite(g, n_max=n_max, seed=seed)
    if name == "divergence":
        return run_divergence_suite(g, rank=min(8, g.levels))
    raise DomainError(f"unknown suite {name!r}")


def run_all(g: GroupSpec, n_max: int = 64, tol: float = 1e-10, seed: int = 2024,
            samples: int = 20) -> list[VerificationRecord]:
    out: list[VerificationRecord] = []
    for name in SUITES:
        out.extend(run_suite(name, g, n_max=n_max, tol=tol, seed=seed, samples=samples))
    return out


def emitted_claims(records: Iterable[VerificationRecord]) -> frozenset[str]:
    return frozenset(r.claim for r in records)
