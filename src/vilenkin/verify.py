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

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hardy, kernels, means, weights
from .characters import character_column, character_matrix, _unit_roots
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
        return asdict(self)


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

class _Workspace:
    """Naive Dirichlet/Fejer tables for one group, up to index cap."""

    def __init__(self, g: GroupSpec, cap: int):
        self.g = g
        self.cap = cap
        self.N = kernels.min_resolution(g, cap)
        self.MN = g.order(self.N)
        self.D = np.zeros((cap + 2, self.MN), dtype=np.complex128)
        for n, D in enumerate(kernels.dirichlet_sweep(g, cap + 1, self.N), start=1):
            self.D[n] = D
        self.B = np.cumsum(self.D, axis=0)  # B[n] = sum_{k<=n} D_k = n K_n

    def K(self, n: int) -> np.ndarray:
        return self.B[n] / n


def _weight_families(n_max: int) -> dict[str, weights.WeightSequence]:
    """The three weight classes of the T-mean claims, on q_0..q_{n_max}."""
    return {
        "ones": weights.ones(n_max),
        "power_half": weights.power_weights(0.5, n_max),
        "log1p": weights.from_function(lambda k: math.log(k + 1.0), n_max, "nondecreasing"),
    }


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def run_identity_suite(g: GroupSpec, n_max: int = 64, tol: float = 1e-12,
                       seed: int = 2024) -> list[VerificationRecord]:
    """Kernel, character, Cesaro-table, and martingale construction identities."""
    _check_n_max(n_max)
    rec = _Records("identities", g)
    ws = _Workspace(g, n_max)
    dm = digit_matrix(g, ws.N)

    # (1.1) partition of the complement of I_N
    part = coset_partition(g, min(ws.N, 4))
    MNp = g.order(min(ws.N, 4))
    seen = np.zeros(MNp, dtype=int)
    for _, _, idx in part.cells:
        seen[idx] += 1
    ok = seen[0] == 0 and np.all(seen[1:] == 1)
    rec.identity("1.1", 0.0 if ok else 1.0, tol, N=min(ws.N, 4))

    # (vilenkin) character identities at resolution 3
    res3 = min(3, g.levels)
    M3 = g.order(res3)
    C = character_matrix(g, M3, res3)
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
    rec.identity("vilenkin", max(r_mod, r_orth, r_mult, r_conj), tol, resolution=res3)

    # (3aa) block kernels
    r = 0.0
    for lvl in range(ws.N + 1):
        if g.M[lvl] > n_max + 1:
            break
        closed = kernels.dirichlet_block(g, lvl, ws.N)
        r = max(r, np.abs(closed - ws.D[g.M[lvl]]).max())
    rec.identity("3aa", r, tol)

    # (dn21) shift identity
    r = 0.0
    for lvl in range(ws.N):
        Mn = g.M[lvl]
        rad = _unit_roots(g.m[lvl])[dm[lvl]]
        top = min((g.m[lvl] - 1) * Mn, n_max + 1 - Mn)
        for j in range(0, top + 1):
            r = max(r, np.abs(ws.D[j + Mn] - (ws.D[Mn] + rad * ws.D[j])).max())
    rec.identity("dn21", r, tol)

    # (dn22) reflection identity
    r = 0.0
    for lvl in range(1, ws.N + 1):
        Mn = g.M[lvl]
        if Mn > n_max + 1:
            break
        psi_last = character_column(g, Mn - 1, ws.N)
        for j in range(0, Mn):
            r = max(r, np.abs(ws.D[Mn - j] - (ws.D[Mn] - psi_last * np.conj(ws.D[j]))).max())
    rec.identity("dn22", r, tol)

    # (9dn) block multiples
    r = 0.0
    for lvl in range(ws.N):
        for s in range(1, g.m[lvl]):
            if s * g.M[lvl] > n_max:
                break
            closed = kernels.dirichlet_s_block(g, s, lvl, ws.N)
            r = max(r, np.abs(closed - ws.D[s * g.M[lvl]]).max())
    rec.identity("9dn", r, tol)

    # (2dna) digit-product closed form for every n
    r = 0.0
    for n in range(0, n_max + 1):
        closed = kernels.dirichlet(g, n, N=ws.N, method="closed")
        r = max(r, np.abs(closed.values - ws.D[n]).max())
    rec.identity("2dna", r, tol)

    # (kn8) block Fejer closed form
    r = 0.0
    for lvl in range(ws.N + 1):
        if g.M[lvl] > n_max:
            break
        closed = kernels.fejer_block(g, lvl, ws.N)
        r = max(r, np.abs(closed - ws.K(g.M[lvl])).max())
    rec.identity("kn8", r, tol)

    # (mag) block-average identity
    r = 0.0
    for lvl in range(ws.N):
        for s in range(1, g.m[lvl]):
            if s * g.M[lvl] > n_max:
                break
            closed = kernels._fejer_s_block(g, s, lvl, ws.N)
            r = max(r, np.abs(closed - ws.K(s * g.M[lvl])).max())
    rec.identity("mag", r, tol)

    # (kn10) full closed-form Fejer kernels
    r = 0.0
    for n in range(1, n_max + 1):
        closed = kernels.fejer(g, n, N=ws.N, method="closed")
        r = max(r, np.abs(closed.values - ws.K(n)).max())
    rec.identity("kn10", r, tol)

    # (T1) Abel identities for three weight families
    f = random_grid_function(g, ws.N, seed=seed)
    for qname, q in _weight_families(n_max).items():
        # part 2b for n = 2..n_max: Q_n - q_0 against the Abel sum
        # sum_{j<n-1} (q_j - q_{j+1}) j + q_{n-1} (n-1), whose running part is
        # one cumulative sum of the terms in the order a per-n sum adds them
        qv = q.values
        j = np.arange(n_max)
        running = np.cumsum((qv[:n_max - 1] - qv[1:n_max]) * j[:-1])
        rhs = running + qv[1:n_max] * j[1:]
        r2b = float(np.abs(q.partials[2:n_max + 1] - qv[0] - rhs).max(initial=0.0))
        r2c = 0.0
        r2d = 0.0
        for n in (2, 3, 8, min(17, n_max), min(33, n_max)):
            Qn = q.Q(n)
            acc = np.zeros(ws.MN, dtype=np.complex128)
            for j in range(1, n - 1):
                acc += (q.q(j) - q.q(j + 1)) * ws.B[j]
            acc += q.q(n - 1) * ws.B[n - 1]
            Fn = kernels.tmean_kernel(g, q, n, N=ws.N)
            r2c = max(r2c, np.abs(Fn.values - acc / Qn).max())
            direct = means.t_mean(f, n, q)
            abel = means.t_mean_abel(f, n, q)
            r2d = max(r2d, np.abs(direct.values - abel.values).max())
        rec.identity("T1", r2b, tol, weights=qname, part="2b")
        rec.identity("T1", r2c, tol, weights=qname, part="2c")
        rec.identity("T1", r2d, tol, weights=qname, part="2d")

    # (lemma0nnT121) log-mean kernel identity at block indices
    r = 0.0
    for lvl in range(1, ws.N + 1):
        Mn = g.M[lvl]
        if Mn > n_max or Mn < 2:
            continue
        P = kernels.norlund_log_kernel(g, Mn, N=ws.N)
        Y = kernels.riesz_log_kernel(g, Mn, N=ws.N)
        rhs = ws.D[Mn] - character_column(g, Mn - 1, ws.N) * np.conj(Y.values)
        r = max(r, np.abs(P.values - rhs).max())
    rec.identity("lemma0nnT121", r, tol)

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
    rec.report("reiszkernel", r_shifted, variant="shifted")
    rec.identity("reiszkernel", r_corr, tol, variant="corrected")

    # (node0)/(node01) Cesaro coefficient table
    for alpha in (0.25, 0.5, 1.0):
        A = means.cesaro_coeffs(alpha, n_max)
        Am1 = means.cesaro_coeffs(alpha - 1.0, n_max)
        r0 = max(abs(A.a(n) - Am1.table[: n + 1].sum()) for n in range(n_max + 1))
        r1 = max(abs(A.a(n) - A.a(n - 1) - Am1.a(n)) for n in range(1, n_max + 1))
        rec.identity("node0", r0, 1e-10, alpha=alpha)
        ratios = [A.a(n) / n**alpha for n in range(8, n_max + 1)]
        ok_band = min(ratios) >= 0.5 and max(ratios) <= 2.0
        rec.identity("node01", r1 if ok_band else 1.0, 1e-10, alpha=alpha)

    # (condmart) atomic martingale identity
    lvl = min(2, ws.N - 1)
    base_fn = GridFunction(g, lvl + 1, character_column(g, g.M[lvl], ws.N)[: g.order(lvl + 1)]
                           * kernels.dirichlet_block(g, lvl, lvl + 1))
    atom = hardy.make_atom(1.0, lvl, 0, base_fn)
    mart, _ = hardy.atom_martingale([(0.7, atom)], levels=list(range(1, lvl + 2)))
    r = mart.check_consistency()
    for i, n in enumerate(mart.levels):
        direct = hardy.project_to_level(
            GridFunction(g, lvl + 1, 0.7 * atom.values.values), n)
        r = max(r, float(np.abs(mart.entries[i].values - direct.values).max()))
    rec.identity("condmart", r, tol)

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
    rec.identity("g100", r, tol)

    # (lemma2.3.4) maximal form of the H_p norm + coefficient preservation
    sup_sm = np.zeros(ws.MN)
    for lv in range(ws.N + 1):
        np.maximum(sup_sm, np.abs(partial_sum(f, g.M[lv]).values), out=sup_sm)
    r = 0.0
    for p in (0.5, 1.0, 2.0):
        direct = float((sup_sm**p).mean() ** (1 / p))
        r = max(r, abs(hardy.hardy_quasinorm_fn(f, p) - direct))
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
    rec = _Records("inequalities", g)
    lam = g.lam

    # Lebesgue constants and variation bounds
    L = kernels.lebesgue_batch(g, n_max)
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
    r = 0.0
    for lvl in range(1, g.levels + 1):
        if g.M[lvl] > max(n_max, 64):
            break
        r = max(r, abs(kernels.lebesgue_constant(g, g.M[lvl]) - 1.0))
    rec.bound("5aa", r, 0.0, 1e-12)

    # (Dnqn) pattern indices
    for k in (2, 3):
        if 2 * k >= g.levels:
            continue
        qn = kernels.q_pattern(g, k)
        Lq = kernels.lebesgue_constant(g, qn)
        rec.bound("Dnqn", Lq, k / (2.0 * lam), tol, lower=True, k=k, n=qn, side="lower")
        rec.bound("Dnqn", Lq, lam * k, tol, k=k, n=qn, side="upper")

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

    # (covstrong) Young inequality + coefficient product rule
    N = min(4, g.levels)
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


def _empty(orders) -> dict:
    """Params that mark a supremum over no orders: its 0.0 is not a measured value."""
    return {} if len(orders) else {"orders": 0}


def run_kernel_lemma_suite(g: GroupSpec, n_max: int = 64) -> list[VerificationRecord]:
    """Pointwise and averaged kernel estimates on the coset cells."""
    _check_n_max(n_max)
    rec = _Records("kernel-lemmas", g)
    ws = _Workspace(g, n_max)
    N = max(2, min(3, ws.N - 1))
    part = coset_partition(g, N)
    res = ws.N
    MN = g.order(N)
    dmN = digit_matrix(g, res)
    # |K_{M_l}| for every level below res: the orders checked here are <= n_max < M_res
    absK = [np.abs(kernels.fejer_block(g, lvl, res)) for lvl in range(res)]

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
    sup_ratio = 0.0
    for n in range(2, n_max + 1):
        nd = digits_of(n, g)
        dom = sum(g.M[l] * absK[l] for l in range(nd.lo, nd.hi + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dom > 0, n * np.abs(ws.K(n)) / dom, 0.0)
        sup_ratio = max(sup_ratio, float(ratio.max()))
        if (dom == 0).any():
            # both sides vanish on the same cells up to rounding
            zero_viol = float((n * np.abs(ws.K(n)))[dom == 0].max())
            if zero_viol > 1e-10:
                sup_ratio = math.inf
    rec.report("lemma7kn", sup_ratio, n_max=n_max)

    # (dn2.6): averaged |D_n| on shells, vs M_s/M_N
    sup_c = 0.0
    for n in range(1, n_max + 1):
        avg = _coset_averages(g, ws.D[n], N)
        for s, idx in part.shells:
            sup_c = max(sup_c, float(avg[idx].max() * g.M[N] / g.M[s]))
    rec.report("dn2.6", sup_c, N=N, n_max=n_max)

    # (dn2.7): same averaged bound for the log-mean kernel P_n
    sup_c = 0.0
    for n in (max(2, n_max // 2), n_max):
        P = kernels.norlund_log_kernel(g, n, N=res)
        avg = _coset_averages(g, P.values, N)
        for s, idx in part.shells:
            sup_c = max(sup_c, float(avg[idx].max() * g.M[N] / g.M[s]))
    rec.report("dn2.7", sup_c, N=N)

    # (lemma5)/(lemma5aa): averaged |K_n| on cells
    sup5 = 0.0
    sup5aa = 0.0
    orders = range(g.M[N], n_max + 1)
    for n in orders:
        avg = _coset_averages(g, ws.B[n] / n, N)
        for k, l, idx in part.cells:
            peak = float(avg[idx].max())
            if l < N:
                sup5 = max(sup5, peak * n * g.M[N] / (g.M[l] * g.M[k]))
            else:
                sup5 = max(sup5, peak * g.M[N] / g.M[k])
            sup5aa = max(sup5aa, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
    rec.report("lemma5", sup5, N=N, **_empty(orders))
    rec.report("lemma5aa", sup5aa, N=N, **_empty(orders))

    # (l2): averaged tail sums of |K_j|/(j+1)
    tail = np.zeros(ws.MN)
    orders = range(g.M[N] + 1, n_max + 1)
    for j in orders:
        tail = tail + np.abs(ws.B[j] / j) / (j + 1)
    avg = _coset_averages(g, tail, N)
    supl2 = 0.0
    supl2_shell = 0.0
    ln = weights.harmonic_number(n_max)
    for k, l, idx in part.cells:
        peak = float(avg[idx].max())
        if l < N:
            supl2 = max(supl2, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
        else:
            supl2_shell = max(supl2_shell, peak * g.M[N] / (g.M[k] * ln))
    rec.report("l2", supl2, part="cells", N=N, **_empty(orders))
    rec.report("l2", supl2_shell, part="shells", N=N, **_empty(orders))

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
    rec.bound("lemma6kn", -worst_margin, 0.0, 1e-10, part="100kn1")
    rec.identity("lemma6kn", r_kn1, KERNEL_LEMMA_TOL, part="kn1")

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

    # Tail kernel bounds for T means (nonincreasing and nondecreasing classes)
    qs = _weight_families(n_max)
    for claim_ratio, claim_avg, claim_avg_big, q, use_n in (
        ("lemma0nnT0", "lemma5aaTin", None, qs["power_half"], False),
        ("lemma0nnT", "lemma5a", "lemma5bT", qs["power_half"], True),
        ("lemma0nnT1", "lemma5aT", "lemma5b", qs["log1p"], True),
    ):
        sup_ratio = 0.0
        sup_avg = 0.0
        sup_avg_big = 0.0
        orders = [n for n in (g.M[N] + 2, min(2 * g.M[N] + 1, n_max), n_max)
                  if g.M[N] < n <= n_max]
        for n in orders:
            Qn = q.Q(n)
            if claim_ratio == "lemma0nnT1":
                tail_vals = kernels.tmean_kernel(g, q, n, N=res).values
            else:
                coeffs = np.zeros(n)
                coeffs[g.M[N]:] = q.values[g.M[N]:n] / Qn
                tail = coefficient_tails(coeffs, g.order(res))
                tail_vals = transform_inverse(Spectrum(g, res, tail)).values
            dom = sum(g.M[lvl] * absK[lvl] for lvl in range(0, digits_of(n, g).hi + 1))
            scale = (n if use_n else g.M[N])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(dom > 0, scale * np.abs(tail_vals) / dom, 0.0)
            sup_ratio = max(sup_ratio, float(ratio.max()))
            avg = _coset_averages(g, tail_vals, N)
            for k, l, idx in part.cells:
                peak = float(avg[idx].max())
                if l < N:
                    sup_avg = max(sup_avg, peak * scale * g.M[N] / (g.M[l] * g.M[k])
                                  if use_n else peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
                else:
                    sup_avg = max(sup_avg, peak * g.M[N] / g.M[k])
                sup_avg_big = max(sup_avg_big, peak * g.M[N] ** 2 / (g.M[l] * g.M[k]))
        rec.report(claim_ratio, sup_ratio, N=N, **_empty(orders))
        rec.report(claim_avg, sup_avg, N=N, **_empty(orders))
        if claim_avg_big:
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

    Returns one row per checkpoint with the cumulative value, the
    normalized value (divided by ``normalizer(n)``), and its ratio to the
    reference ||f||_{H_p}^p.
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
    if checkpoints[-1] > n_max:
        raise InvalidParamsError("checkpoint beyond n_max")
    ref = float(hardy.hardy_quasinorm_rows(f.group, f.resolution, f.values[None], p)[0]) ** p
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
    bounds = {g.M[a] + 2: _tmean_bound(g, a, p) for a in alphas}
    return divergence_probe(mart, "tmean", p, [g.M[a] + 2 for a in alphas],
                            q=weights.ones(g.M[alphas[-1]] + 2), bound_fn=bounds.__getitem__)


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
    from itertools import combinations

    best = None
    for combo in combinations(range(1, max_level), 3):
        b = [_tmean_bound(g, a, p) for a in combo]
        if all(x < y * (1 - 1e-9) for x, y in zip(b, b[1:])):
            key = (combo[-1], combo)
            if best is None or key < best:
                best = key
    return best[1] if best else (1, 2, 3)


def run_divergence_suite(g: GroupSpec, rank: int = 8) -> list[VerificationRecord]:
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
