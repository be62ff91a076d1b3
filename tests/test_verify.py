import json

import numpy as np
import pytest

from vilenkin import hardy, io, kernels, means, verify
from vilenkin.errors import InvalidParamsError
from vilenkin.group import digit_matrix, index_sub, make_group
from vilenkin.hardy import counterexample
from vilenkin.spectral import lp_norm, partial_sum
from vilenkin.weights import ones


@pytest.fixture(scope="module")
def walsh10():
    return make_group([2], 10)


@pytest.fixture(scope="module")
def identity_records(walsh10):
    return verify.run_identity_suite(walsh10, n_max=32)


def test_identity_suite_passes(identity_records):
    judged = [r for r in identity_records if r.passed is not None]
    assert judged and all(r.passed for r in judged)


def test_identity_residuals_tiny(identity_records):
    for r in identity_records:
        if r.kind == "identity" and r.claim in ("dn21", "dn22", "3aa", "9dn", "2dna"):
            assert r.value < 1e-12


def test_shifted_log_kernel_identity_has_residual(identity_records):
    shifted = [r for r in identity_records
               if r.claim == "reiszkernel" and r.params.get("variant") == "shifted"]
    assert shifted and shifted[0].kind == "report"
    assert shifted[0].value > 1e-3   # the index shift is a real discrepancy, not rounding
    corrected = [r for r in identity_records
                 if r.claim == "reiszkernel" and r.params.get("variant") == "corrected"]
    assert corrected[0].passed


def test_identity_suite_other_groups():
    for pat in ([3], [2, 3, 4]):
        g = make_group(pat, 7)
        recs = verify.run_identity_suite(g, n_max=24)
        judged = [r for r in recs if r.passed is not None]
        assert all(r.passed for r in judged)


def test_inequality_suite(walsh10):
    recs = verify.run_inequality_suite(walsh10, n_max=64, samples=5)
    judged = [r for r in recs if r.passed is not None]
    assert judged and all(r.passed for r in judged)
    yano = [r for r in recs if r.claim == "yano"]
    assert yano and yano[0].value <= 2.0
    reports = {r.claim for r in recs if r.kind == "report"}
    assert "Dn" in reports and "knbounded" in reports


@pytest.mark.parametrize("pattern,levels,n_max", [
    ([2], 12, 64), ([3], 9, 64), ([2, 3, 4], 9, 64), ([5], 8, 64), ([2], 12, 200)],
    ids=["m2", "m3", "m234", "m5", "m2-top128"])
def test_kernel_suprema_match_the_per_order_kernels(pattern, levels, n_max):
    g = make_group(pattern, levels)
    recs = verify.run_inequality_suite(g, n_max=n_max, samples=1)
    got = {(r.claim, r.params.get("weights")): r for r in recs if r.claim in ("reisz", "T2")}
    # the per-order loop the unit-mass sweeps replace
    top = min(n_max, 128)
    qs = verify._weight_families(n_max)
    want = {("reisz", None): max(lp_norm(kernels.riesz_log_kernel(g, n), 1.0)
                                 for n in range(2, top + 1))}
    for qname in ("power_half", "log1p"):
        want[("T2", qname)] = max(lp_norm(kernels.tmean_kernel(g, qs[qname], n), 1.0)
                                  for n in range(2, top + 1))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key].value == pytest.approx(value, rel=1e-12, abs=0), key
        assert got[key].params["n_max"] == top


@pytest.mark.parametrize("suite", [verify.run_identity_suite, verify.run_inequality_suite,
                                   verify.run_kernel_lemma_suite, verify.run_strong_suite],
                         ids=["identities", "inequalities", "kernel-lemmas", "strong"])
@pytest.mark.parametrize("n_max", [1, 2, 7])
def test_suites_refuse_n_max_below_the_minimum(suite, n_max):
    with pytest.raises(InvalidParamsError, match=f">= {verify.MIN_N_MAX}, got {n_max}"):
        suite(make_group([2], 8), n_max=n_max)


@pytest.mark.parametrize("pattern,levels", [([2], 2), ([5], 1)])
def test_strong_suite_refuses_groups_below_the_minimum(pattern, levels):
    # n_max is capped at M_rank = 4 or 5 here, below MIN_N_MAX
    with pytest.raises(InvalidParamsError, match=f">= {verify.MIN_N_MAX}"):
        verify.run_strong_suite(make_group(pattern, levels))


@pytest.mark.parametrize("pattern,levels,rank,cap", [([2], 2, 2, 4), ([5], 1, 1, 5), ([2], 8, 2, 4)])
def test_strong_suite_refusal_names_the_passed_n_max_and_the_cap(pattern, levels, rank, cap):
    with pytest.raises(InvalidParamsError) as err:
        verify.run_strong_suite(make_group(pattern, levels), rank=rank, n_max=100)
    assert "n_max = 100" in str(err.value) and f"M_{rank} = {cap}" in str(err.value)


@pytest.mark.parametrize("pattern", [[13], [13, 2], [97]])
def test_kernel_lemma_suite_refuses_n_max_below_m0(pattern):
    # below m_0 every order lives on one point, and the cells need two levels
    g = make_group(pattern, 8)
    with pytest.raises(InvalidParamsError, match=f"n_max >= m_0 = {pattern[0]}, got 8$"):
        verify.run_kernel_lemma_suite(g, n_max=8)
    assert verify.run_kernel_lemma_suite(g, n_max=pattern[0])


def _strict_json(text: str):
    """The parsed JSON text; Infinity, -Infinity and NaN raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# (pattern, n_max, whether lemma6kn has a level 1 <= l <= res - 2 to check)
LEMMA6KN_RUNS = [([3], 8, False), ([4], 8, False), ([5], 8, False), ([5], 16, False)] + [
    ([m], n_max, False) for m in (6, 7) for n_max in (8, 16, 32)] + [
    ([13, 2], 16, False), ([2, 65], 64, False), ([5], 64, True), ([3], 64, True)]


@pytest.mark.parametrize("pattern,n_max,checked", LEMMA6KN_RUNS)
def test_kernel_lemma_records_are_finite_and_lemma6kn_needs_a_level(pattern, n_max, checked):
    recs = verify.run_kernel_lemma_suite(make_group(pattern, 8), n_max=n_max)
    assert all(np.isfinite(x) for r in recs for x in (r.value, r.bound, r.margin) if x is not None)
    assert len(_strict_json(io.records_to_json(recs))) == len(recs)
    parts = sorted(r.params["part"] for r in recs if r.claim == "lemma6kn")
    assert parts == (["100kn1", "kn1"] if checked else [])


@pytest.mark.parametrize("pattern,resolution", [
    ([2], 3), ([2, 3, 4], 3), ([5], 3), ([7], 3), ([8], 3), ([13, 2], 3), ([2, 65], 3),
    ([9], 2), ([9, 7], 2), ([13], 2), ([97], 1)])
def test_character_identities_take_the_largest_resolution_in_the_bound(pattern, resolution):
    g = make_group(pattern, 8)
    rec, = [r for r in verify.run_identity_suite(g, n_max=16) if r.claim == "vilenkin"]
    assert rec.params["resolution"] == resolution and rec.passed
    assert g.order(resolution) <= verify.CHARACTER_ORDER or resolution == 1


@pytest.mark.parametrize("pattern,rank", [([2], 4), ([7], 4), ([13, 2], 4), ([2, 65], 3)])
def test_inequality_samples_take_the_largest_rank_in_the_bound(pattern, rank, monkeypatch):
    # the Watari moduli gather every shift of the sample grid: M_4^2 = 2.9e8 on [2, 65]
    sizes = []
    moduli = hardy.moduli

    def recorded(f, ps, n):
        sizes.append(f.values.size)
        return moduli(f, ps, n)

    monkeypatch.setattr(hardy, "moduli", recorded)
    g = make_group(pattern, 8)
    recs = verify.run_inequality_suite(g, n_max=16, samples=2)
    assert sizes and set(sizes) == {g.order(rank)}
    assert g.order(rank) <= verify.INEQUALITY_ORDER < g.order(rank + 1) or rank == 4
    assert all(r.passed for r in recs if r.claim in ("covstrong", "eqvi"))


@pytest.mark.parametrize("pattern", [[2], [3], [2, 3, 4], [5, 2], [13, 2], [2, 65]])
def test_vilenkin_tables_match_the_digit_matrix_formulas(pattern, monkeypatch):
    tables = []

    def recorded(*args):
        tables.append(index_sub(*args))
        return tables[-1]

    monkeypatch.setattr(verify, "index_sub", recorded)
    g = make_group(pattern, 8)
    verify.run_identity_suite(g, n_max=8)
    neg, add = tables   # the index tables of -y and of x + y on the rank-r grid
    r = g.M.index(neg.size)
    dm = digit_matrix(g, r)
    assert np.array_equal(neg, sum(((-dm[j]) % g.m[j]) * g.M[j] for j in range(r)))
    assert np.array_equal(add, sum(((dm[j][:, None] + dm[j][None, :]) % g.m[j]) * g.M[j]
                                   for j in range(r)))


def test_kn1_masks_match_the_digit_matrix_formula(digit_group):
    g = digit_group
    for res in range(2, g.levels + 1):
        dm = digit_matrix(g, res)
        for lvl in range(1, res):
            # x in I_t \ I_{t+1} with a nonzero digit below lvl other than digit t
            ref = [np.all(dm[:t] == 0, axis=0) & (dm[t] != 0)
                   & ~np.all(np.vstack([dm[:t], dm[t + 1:lvl]]) == 0, axis=0) for t in range(lvl)]
            ref = [mask for mask in ref if mask.any()]
            got = verify._kn1_masks(g, lvl, res)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (res, lvl)


@pytest.mark.parametrize("samples", [0, -1])
def test_inequality_suite_refuses_fewer_than_one_sample(samples):
    with pytest.raises(InvalidParamsError, match=f"samples >= 1, got {samples}$"):
        verify.run_inequality_suite(make_group([2], 8), samples=samples)


def test_strong_suite_runs_at_the_minimum():
    recs = verify.run_strong_suite(make_group([2], 3))   # n_max capped at M_3 = 8
    assert recs and {r.params["n"] for r in recs if "n" in r.params} == {verify.MIN_N_MAX}


def test_kernel_lemma_suite(walsh10):
    recs = verify.run_kernel_lemma_suite(walsh10, n_max=32)
    judged = [r for r in recs if r.passed is not None]
    assert judged and all(r.passed for r in judged)
    star1 = [r for r in recs if r.claim == "lemma222" and r.params.get("part") == "star1"]
    assert star1 and star1[0].value <= 1e-12
    ratios = [r for r in recs if r.kind == "report"]
    assert all(np.isfinite(r.value) for r in ratios)


@pytest.mark.parametrize("pattern,levels", [([2], 12), ([3], 9), ([2, 3, 4], 9), ([5], 8)])
def test_tmean_tail_is_the_kernel_less_its_head(pattern, levels):
    # the T-tail claims bound (1/Q_n) sum_{M_N<=k<n} q_k D_k, which is
    # F_n - (Q_{M_N}/Q_n) F_{M_N}; at the kernel-lemma suite's N, res and orders
    g = make_group(pattern, levels)
    n_max = 64
    res = kernels.min_resolution(g, n_max)
    N = max(2, min(3, res - 1))
    MN = g.M[N]
    q = verify._weight_families(n_max)["power_half"]
    orders = [n for n in (MN + 2, min(2 * MN + 1, n_max), n_max) if MN < n <= n_max]
    assert orders
    head = kernels.tmean_kernel(g, q, MN, N=res).values
    for n in orders:
        expect = kernels.tmean_kernel(g, q, n, N=res).values - q.Q(MN) / q.Q(n) * head
        assert np.abs(verify._tmean_tail(g, q, n, N, res) - expect).max() <= 1e-12


EMPTY_SUPREMA = {("lemma5", None), ("lemma5aa", None), ("l2", "cells"), ("l2", "shells"),
                 ("lemma0nnT0", None), ("lemma5aaTin", None), ("lemma0nnT", None),
                 ("lemma5a", None), ("lemma5bT", None), ("lemma0nnT1", None),
                 ("lemma5aT", None), ("lemma5b", None)}


@pytest.mark.parametrize("n_max,empty", [
    (16, EMPTY_SUPREMA),                                            # no order >= M_N
    (25, EMPTY_SUPREMA - {("lemma5", None), ("lemma5aa", None)}),   # only n = M_N
    (64, set()),
])
def test_kernel_lemma_empty_suprema_are_marked(n_max, empty):
    recs = verify.run_kernel_lemma_suite(make_group([5], 8), n_max=n_max)
    assert {r.params["N"] for r in recs if r.claim == "lemma5"} == {2}     # M_N = 25
    marked = {(r.claim, r.params.get("part")) for r in recs if "orders" in r.params}
    assert marked == empty
    for r in recs:
        if "orders" in r.params:
            assert r.params["orders"] == 0 and r.value == 0.0 and r.kind == "report"


def test_strong_suite_trends(walsh10):
    recs = verify.run_strong_suite(walsh10, rank=5, n_max=32)
    trends = [r for r in recs if r.kind == "trend"]
    assert trends and all(r.passed for r in trends)


def test_divergence_suite_bounds():
    g = make_group([5], 8)
    recs = verify.run_divergence_suite(g)
    bound_recs = [r for r in recs if r.claim == "theorem1T" and r.kind == "bound"]
    assert len(bound_recs) == 3
    assert all(r.passed for r in bound_recs)
    trend = [r for r in recs if r.kind == "trend" and r.claim == "theorem1T"]
    assert trend and trend[0].passed


def test_divergence_probe_trivial_martingale(walsh10):
    from vilenkin.hardy import StepMartingale, project_to_level
    from vilenkin.spectral import constant

    c = constant(walsh10, 3, 1.0)
    mart = StepMartingale(group=walsh10, levels=(3,), entries=(c,))
    rows = verify.divergence_probe(mart, "tmean", 0.5, [4, 6], q=ones(8))
    # constant function: T_n c has no mass beyond the constant term
    assert all(r["weak_lp"] <= 1.0 + 1e-12 for r in rows)


def test_records_deterministic(walsh10):
    a = verify.run_identity_suite(walsh10, n_max=16)
    b = verify.run_identity_suite(walsh10, n_max=16)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_suites_repeat_exactly_with_warm_memo_and_table(monkeypatch):
    # the first run fills the harmonic-number table from cold; the second
    # reads it back, and every function's spectrum is memoized afresh
    from vilenkin import io, weights

    monkeypatch.setattr(weights, "_HARMONIC", [0.0, 0.0])
    monkeypatch.setattr(weights, "_HARMONIC_SUM", 0)

    def run():
        recs = verify.run_all(make_group([2, 3, 4], 8), n_max=64, samples=3)
        return io.records_to_json(recs + verify.run_divergence_suite(make_group([5], 8)))

    first = run()
    assert len(weights._HARMONIC) > 2
    assert run() == first


@pytest.mark.parametrize("pattern,levels", [([2], 12), ([3], 9), ([2, 3, 4], 9)])
def test_run_all_is_equal_with_cleared_and_warm_caches(monkeypatch, pattern, levels):
    from vilenkin import characters, io, kernels, means, spectral, weights

    monkeypatch.setattr(means, "_plans", {})
    monkeypatch.setattr(means, "_plans_nbytes", 0)
    monkeypatch.setattr(weights, "_HARMONIC", [0.0, 0.0])
    monkeypatch.setattr(weights, "_HARMONIC_SUM", 0)
    for memo in (characters._unit_roots, kernels._geometric, spectral._blocks,
                 spectral._block_matrix, verify._Workspace):
        memo.cache_clear()
    g = make_group(pattern, levels)
    cleared = io.records_to_json(verify.run_all(g, n_max=16, samples=2))
    assert means._plans
    assert io.records_to_json(verify.run_all(g, n_max=16, samples=2)) == cleared


@pytest.mark.parametrize("pattern,levels", [([2], 12), ([3], 9), ([2, 3, 4], 9)])
def test_run_all_sweeps_the_naive_kernel_table_once(monkeypatch, pattern, levels):
    # the identity, inequality and kernel-lemma suites share one D_0..D_{n_max+1} table
    sweep = kernels.dirichlet_sweep
    steps = []

    def counted(g, n, N):
        steps.append(n)
        return sweep(g, n, N)

    monkeypatch.setattr(kernels, "dirichlet_sweep", counted)
    verify._Workspace.cache_clear()
    verify.run_all(make_group(pattern, levels), n_max=64, samples=2)
    assert steps == [65]


@pytest.mark.parametrize("suite", ["identities", "inequalities", "kernel-lemmas"])
def test_kernel_suites_refuse_an_oversized_table_before_allocating(monkeypatch, suite):
    from vilenkin import group
    from vilenkin.errors import RangeError

    g, n_max = make_group([2, 3, 4], 9), 64
    entries = (n_max + 2) * g.order(kernels.min_resolution(g, n_max))

    def no_sweep(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(kernels, "dirichlet_sweep", no_sweep)
    monkeypatch.setattr(group, "MAX_GRID_POINTS", entries - 1)
    verify._Workspace.cache_clear()
    with pytest.raises(RangeError, match=f"has {entries} entries, more than the {entries - 1}"):
        verify.run_suite(suite, g, n_max=n_max)


def test_workspace_tables_are_read_only_and_bounded_inclusively(monkeypatch):
    from vilenkin import group

    g, n_max = make_group([3], 6), 16
    monkeypatch.setattr(group, "MAX_GRID_POINTS", (n_max + 2) * g.order(3))
    verify._Workspace.cache_clear()
    ws = verify._Workspace(g, n_max)
    assert ws.D.shape == (n_max + 2, 27) and verify._Workspace(g, n_max) is ws
    for table in (ws.D, ws.B):
        with pytest.raises(ValueError):
            table[1] = 0.0


def test_suite_runners_follow_the_claim_catalogue():
    assert tuple(verify.RUNNERS) == verify.SUITES


def test_records_sorted(identity_records):
    keys = [(r.claim, json.dumps(r.params, sort_keys=True)) for r in identity_records]
    assert keys == sorted(keys)


def test_strong_sum_constant_function_is_flat(walsh10):
    from vilenkin.spectral import constant

    c = constant(walsh10, 4, 2.0)
    rows = verify.strong_sum(c, "partial_sum", 1.0, lambda k: 1.0, 8,
                             checkpoints=[4, 8])
    # S_k c = c for k >= 1, so the cumulative sum grows exactly linearly
    assert rows[0]["cumulative"] == pytest.approx(4 * 2.0)
    assert rows[1]["cumulative"] == pytest.approx(8 * 2.0)


@pytest.mark.parametrize("kind,checkpoints", [("riesz_log", [1, 8]), ("fejer", [0, 8]),
                                              ("partial_sum", [4, 9])])
def test_strong_sum_refuses_checkpoints_outside_its_orders(walsh10, kind, checkpoints):
    f = verify.random_grid_function(walsh10, 4, seed=1)
    with pytest.raises(InvalidParamsError, match=r"checkpoints must lie in \[\d, 8\]"):
        verify.strong_sum(f, kind, 1.0, lambda k: 1.0, 8, checkpoints=checkpoints)


def test_claim_registry_closure():
    # every claim is emitted by some suite; no suite emits unregistered claims
    emitted = set()
    for pat, lv in (([2], 10), ([3], 7), ([2, 3, 4], 7)):
        g = make_group(pat, lv)
        emitted |= verify.emitted_claims(verify.run_all(g, n_max=32, samples=3))
    emitted |= verify.emitted_claims(verify.run_divergence_suite(make_group([5], 8)))
    assert emitted == verify.all_claim_ids()


def test_block_function_partial_sum_shape(walsh10):
    # f with unit coefficients on [M_2, M_3) has S_i f = D_i - D_{M_2} inside
    # the block, the shape driving the log-mean sharpness computations
    from vilenkin.kernels import dirichlet
    from vilenkin.means import norlund_log_mean
    from vilenkin.spectral import GridFunction, Spectrum, transform_inverse

    g = walsh10
    N = 4
    coeffs = np.zeros(g.order(N), dtype=complex)
    coeffs[g.M[2]:g.M[3]] = 1.0
    f = transform_inverse(Spectrum(g, N, coeffs))
    for i in range(g.M[2] + 1, g.M[3] + 1):
        lhs = partial_sum(f, i)
        rhs = dirichlet(g, i, N=N).values - dirichlet(g, g.M[2], N=N).values
        assert np.abs(lhs.values - rhs).max() < 1e-12
    # log-mean at an in-block index agrees with its direct weighted sum
    n = g.M[2] + 2
    ln = sum(1.0 / k for k in range(1, n))
    direct = sum(partial_sum(f, k).values / (n - k) for k in range(1, n)) / ln
    assert np.abs(norlund_log_mean(f, n).values - direct).max() < 1e-12


def _sigma_sharpness(g):
    [rec] = [r for r in verify.run_strong_suite(g, seed=11)
             if r.claim == "theorem1sigma" and r.params.get("probe") == "sharpness"]
    return rec


@pytest.mark.parametrize("pattern", [[2], [3], [2, 3, 4], [5]])
def test_sigma_sharpness_trend_ignores_eps_noise_on_zero_entries(monkeypatch, pattern):
    g = make_group(pattern, 8)
    clean = _sigma_sharpness(g)
    sweep, rng, zeros = means.mean_blocks, np.random.default_rng(7), []

    def noisy(f, *args, **kwargs):
        # the exact zeros of the sharpness means compute to at most 0.11 unit,
        # every other entry to above 1e7 unit
        unit = np.finfo(float).eps * np.abs(f.values).max()
        for j, ns, vals in sweep(f, *args, **kwargs):
            zero = np.abs(vals) <= unit
            zeros.append(int(zero.sum()))
            noise = 8 * unit * rng.random(vals.shape) * np.exp(2j * np.pi * rng.random(vals.shape))
            yield j, ns, np.where(zero, noise, vals)

    monkeypatch.setattr(means, "mean_blocks", noisy)
    assert _sigma_sharpness(g) == clean
    assert sum(zeros) > 0
    monkeypatch.setattr(verify, "RESIDUE_EPS", 0)   # unfloored, the same noise moves the trend
    assert _sigma_sharpness(g) != clean


def test_strong_partial_sum_sharpness_rank8(walsh10):
    # normalized partial-sum averages grow across the block checkpoints
    mart = counterexample(walsh10, "strong-partial-sums", [1, 2, 3], rank=8)
    f = mart.final
    import math

    from vilenkin.hardy import _default_phi

    vals = []
    for a in (1, 2, 3):
        n = 2 * walsh10.M[a]
        acc = math.fsum(verify.lp_norm(partial_sum(f, k), 1.0) for k in range(1, n + 1))
        vals.append(acc / (n * _default_phi(n)))
    assert vals[0] < vals[1] < vals[2]


@pytest.fixture(scope="module")
def records_by_group():
    groups = [make_group(pat, lv) for pat, lv in (([2], 10), ([3], 7), ([2, 3, 4], 7))]
    runs = [(g, verify.run_all(g, n_max=32, samples=3)) for g in groups]
    g5 = make_group([5], 8)
    return runs + [(g5, verify.run_divergence_suite(g5))]


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_emits_exactly_its_claims(records_by_group, suite):
    emitted = set()
    for _, recs in records_by_group:
        emitted |= {r.claim for r in recs if r.suite == suite}
    assert emitted == set(verify.CLAIMS[suite])


def test_record_params_start_with_the_group(records_by_group):
    for g, recs in records_by_group:
        for r in recs:
            assert next(iter(r.params)) == "m" and r.params["m"] == list(g.m)


def test_record_builder_refuses_a_claim_of_another_suite(walsh10):
    from vilenkin.errors import DomainError

    rec = verify._Records("identities", walsh10)
    rec.report("1.1", 0.0)
    with pytest.raises(DomainError):
        rec.report("theorem1T", 0.0)
    assert [r.claim for r in rec.records()] == ["1.1"]


def test_a_nan_residual_fails_its_record(monkeypatch):
    # a NaN after a finite residual is kept, not folded away by the maximum
    pairs = [(np.zeros(2), np.zeros(2)), (np.array([0.0, np.nan]), np.zeros(2))]
    assert np.isnan(verify._worst(pairs))
    closed = kernels._dirichlet_closed

    def with_a_nan_at_5(g, n, N):
        out = closed(g, n, N)
        if n == 5:
            out[-1] = np.nan
        return out

    monkeypatch.setattr(kernels, "_dirichlet_closed", with_a_nan_at_5)
    records = verify.run_identity_suite(make_group([2], 8))
    assert [r.claim for r in records if r.passed is False] == ["2dna"]


def test_each_claim_has_one_suite():
    assert sum(len(claims) for claims in verify.CLAIMS.values()) == len(verify.all_claim_ids())
