"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are fixed here and match the library defaults.
"""

import math
import time

import numpy as np

from vilenkin import hardy, kernels, means, verify, weights
from vilenkin.group import digits_of, make_group
from vilenkin.spectral import (
    convolve,
    lp_norm,
    naive_forward,
    random_grid_function,
    transform_forward,
    transform_inverse,
)

GROUPS = {
    "m2": make_group([2], 12),
    "m3": make_group([3], 9),
    "m234": make_group([2, 3, 4], 9),
}


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


IDENTITY_CLAIMS = {"3aa", "dn21", "dn22", "9dn", "2dna", "kn8", "mag", "kn10",
                   "T1", "lemma0nnT121"}


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for g in GROUPS.values():
        recs = verify.run_identity_suite(g, n_max=64, tol=1e-12)
        for r in recs:
            if r.claim in IDENTITY_CLAIMS and r.kind == "identity":
                worst = max(worst, r.value)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _report("01 identity suite", ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_block_kernel_norms():
    worst = 0.0
    for g in GROUPS.values():
        for n in range(1, 9):
            worst = max(worst, abs(kernels.lebesgue_constant(g, g.M[n]) - 1.0))
    _report("02 ||D_{M_n}||_1 = 1", worst < 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_03_lebesgue_bounds():
    worst_margin = math.inf
    for g in GROUPS.values():
        L = kernels.lebesgue_batch(g, 1024)
        for n in range(1, 1025):
            b = kernels.lebesgue_bounds(digits_of(n, g), variant="corrected")
            worst_margin = min(worst_margin, L[n] - b.lower, b.upper - L[n])
    g2 = GROUPS["m2"]
    L = kernels.lebesgue_batch(g2, 1024)
    for n in range(1, 1025):
        v = kernels.lebesgue_bounds(digits_of(n, g2), variant="corrected").v
        worst_margin = min(worst_margin, L[n] - v / 8.0, v - L[n])
    spot = max(abs(kernels.lebesgue_constant(g2, 1) - 1.0),
               abs(kernels.lebesgue_constant(g2, 3) - 1.5))
    ok = worst_margin >= -1e-10 and spot < 1e-12
    _report("03 Lebesgue bounds", ok,
            f"min margin {worst_margin:.2e}, spot deviation {spot:.2e}")


def test_criterion_04_fejer_l1_bounds():
    sup2 = kernels.fejer_l1_batch(GROUPS["m2"], 512)[1:].max()
    sups = {name: kernels.fejer_l1_batch(g, 256)[1:].max() for name, g in GROUPS.items()}
    ok = sup2 <= 2.0 + 1e-10 and all(np.isfinite(v) for v in sups.values())
    _report("04 Fejer kernel L1 bounds", ok,
            f"dyadic sup(n<=512) {sup2:.4f}; " +
            ", ".join(f"{k}: {v:.4f}" for k, v in sups.items()))


def test_criterion_05_transform():
    worst_rt = 0.0
    worst_pl = 0.0
    worst_naive = 0.0
    for g in GROUPS.values():
        N = max(n for n in range(1, g.levels + 1) if g.order(n) <= 4096)
        for seed in range(100):
            f = random_grid_function(g, N, seed=seed)
            s = transform_forward(f)
            worst_rt = max(worst_rt, float(np.abs(transform_inverse(s).values - f.values).max()))
            worst_pl = max(worst_pl, abs((np.abs(f.values) ** 2).mean()
                                         - (np.abs(s.coeffs) ** 2).sum()))
        Nn = max(n for n in range(1, g.levels + 1) if g.order(n) <= 256)
        f = random_grid_function(g, Nn, seed=0)
        worst_naive = max(worst_naive, float(np.abs(
            transform_forward(f).coeffs - naive_forward(f).coeffs).max()))
    g2 = GROUPS["m2"]
    f = random_grid_function(g2, 12, seed=1)   # M_12 = 4096
    t0 = time.perf_counter()
    naive_forward(f)
    t_naive = time.perf_counter() - t0
    transform_forward(f)   # warm the block-table cache
    fresh = f.with_values(f.values)   # f's own spectrum is memoized: time a new pass
    t0 = time.perf_counter()
    transform_forward(fresh)
    t_fast = time.perf_counter() - t0
    speedup = t_naive / t_fast
    ok = worst_rt < 1e-12 and worst_pl < 1e-10 and worst_naive < 1e-10 and speedup >= 10
    _report("05 transform", ok,
            f"roundtrip {worst_rt:.2e}, plancherel {worst_pl:.2e}, "
            f"naive match {worst_naive:.2e}, speedup {speedup:.0f}x")


def test_criterion_06_convolution():
    worst_id = 0.0
    worst_margin = math.inf
    for g in GROUPS.values():
        N = min(4, g.levels)
        for seed in range(100):
            f = random_grid_function(g, N, seed=seed)
            h = random_grid_function(g, N, seed=seed + 500_000)
            conv = convolve(f, h)
            prod = (transform_forward(conv).coeffs
                    - transform_forward(f).coeffs * transform_forward(h).coeffs)
            worst_id = max(worst_id, float(np.abs(prod).max()))
            for p in (1.0, 2.0, np.inf):
                worst_margin = min(worst_margin,
                                   lp_norm(f, p) * lp_norm(h, 1.0) - lp_norm(conv, p))
    ok = worst_id < 1e-10 and worst_margin >= -1e-10
    _report("06 convolution theorem + Young", ok,
            f"coefficient-product residual {worst_id:.2e}, min margin {worst_margin:.2e}")


def test_criterion_07_summability_consistency():
    worst_conv = 0.0
    for g in GROUPS.values():
        N = min(5, g.levels)
        f = random_grid_function(g, N, seed=7)
        q = weights.power_weights(0.5, 70)
        MN = g.order(N)
        cases = []
        for n in (2, 5, min(11, MN)):
            cases += [
                (means.fejer_mean(f, n), kernels.fejer(g, n, N=N)),
                (means.norlund_mean(f, n, q), kernels.norlund_kernel(g, q, n, N=N)),
                (means.t_mean(f, n, q), kernels.tmean_kernel(g, q, n, N=N)),
                (means.riesz_log_mean(f, n), kernels.riesz_log_kernel(g, n, N=N)),
                (means.norlund_log_mean(f, n), kernels.norlund_log_kernel(g, n, N=N)),
            ]
        for mean_vals, ker in cases:
            worst_conv = max(worst_conv, float(np.abs(
                mean_vals.values - convolve(f, ker).values).max()))
        ones = weights.ones(70)
        for n in (1, 6, min(13, MN)):
            exact = np.abs(means.norlund_mean(f, n, ones).values
                           - means.fejer_mean(f, n).values).max()
            assert exact == 0.0
    worst_tab = 0.0
    band_ok = True
    for alpha in (0.25, 0.5, 1.0):
        A = means.cesaro_coeffs(alpha, 64)
        Am1 = means.cesaro_coeffs(alpha - 1.0, 64)
        worst_tab = max(worst_tab,
                        max(abs(A[n] - Am1[: n + 1].sum()) for n in range(65)),
                        max(abs(A[n] - A[n - 1] - Am1[n]) for n in range(1, 65)))
        band = [A[n] / n**alpha for n in range(8, 65)]
        band_ok = band_ok and min(band) >= 0.5 and max(band) <= 2.0
    ok = worst_conv < 1e-10 and worst_tab < 1e-10 and band_ok
    _report("07 summability consistency", ok,
            f"mean-vs-kernel {worst_conv:.2e}, table residual {worst_tab:.2e}, "
            f"A_n^a/n^a in [0.5, 2]: {band_ok}")


def test_criterion_08_watari():
    worst = math.inf
    for g in GROUPS.values():
        N = min(4, g.levels)
        for seed in range(100):
            f = random_grid_function(g, N, seed=seed)
            for p in (1.0, 2.0):
                for n in range(N + 1):
                    om = hardy.modulus(f, p, n)
                    err = lp_norm(f.with_values(
                        f.values - hardy.conditional_expectation(f, n).values), p)
                    worst = min(worst, om - err, err - om / 2.0)
    _report("08 Watari bracket", worst >= -1e-10, f"min margin {worst:.2e}")


def test_criterion_09_maximal_domination():
    worst = math.inf
    g = GROUPS["m2"]
    q = weights.power_weights(0.5, 70)
    for seed in range(50):
        f = random_grid_function(g, 6, seed=seed)
        tstar = means.weighted_maximal(f, "tmean", range(1, 65), q=q)
        sstar = means.weighted_maximal(f, "fejer", range(1, 65))
        worst = min(worst, float((sstar.values.real - tstar.values.real).min()))
    _report("09 T* <= sigma* (nonincreasing weights)", worst >= -1e-10,
            f"min pointwise margin {worst:.2e}")


def test_criterion_10_divergence_probe():
    g = make_group([5], 8)
    p = 0.4
    alphas = (1, 2, 3)
    mart = hardy.counterexample(g, "hp-blocks", list(alphas), rank=8, p=p)
    q = weights.ones(g.M[3] + 2)
    bounds = []
    ok = True
    detail = []
    for a in alphas:
        n = g.M[a] + 2
        rows = verify.divergence_probe(mart, "tmean", p, [n], q=q)
        measured = rows[0]["weak_lp"]
        bound = g.M[a] ** (1.0 / p - 2.0) / (16.0 * a)
        bounds.append(bound)
        ok = ok and measured >= bound - 1e-10
        detail.append(f"a={a}: {measured:.3f} >= {bound:.3f}")
    increasing = all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))
    _report("10 divergence probe", ok and increasing,
            "; ".join(detail) + f"; bounds strictly increase: {increasing}")


def test_criterion_11_coverage_closure():
    emitted = set()
    for g in GROUPS.values():
        emitted |= verify.emitted_claims(verify.run_all(g, n_max=32, samples=3))
    emitted |= verify.emitted_claims(verify.run_divergence_suite(make_group([5], 8)))
    registry = verify.all_claim_ids()
    ok = emitted == registry
    _report("11 coverage closure", ok,
            f"{len(emitted)} claims emitted, {len(registry)} registered"
            + ("" if ok else f"; diff {sorted(emitted ^ registry)}"))
