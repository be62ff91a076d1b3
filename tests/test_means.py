import re

import numpy as np
import pytest

from vilenkin import weights as wts
from vilenkin.errors import DomainError, InvalidParamsError, RangeError
from vilenkin.means import (
    cesaro_coeffs,
    cesaro_mean,
    fejer_mean,
    mean_blocks,
    norlund_log_mean,
    norlund_mean,
    power_log_weight,
    regularity_report,
    riesz_log_mean,
    t_mean,
    t_mean_abel,
    u_mean,
    v_mean,
    weighted_maximal,
)
from vilenkin.spectral import (
    constant,
    partial_sum,
    random_grid_function,
    weighted_sum_combination,
)
from vilenkin.verify import strong_sum


@pytest.fixture
def f6(walsh):
    return random_grid_function(walsh, 6, seed=17)


def test_fejer_mean_direct_sum(f6):
    direct = sum(partial_sum(f6, k).values for k in range(1, 6)) / 5
    assert np.abs(fejer_mean(f6, 5).values - direct).max() < 1e-12


def test_fejer_sigma_one_is_s1(f6):
    assert np.abs(fejer_mean(f6, 1).values - partial_sum(f6, 1).values).max() < 1e-13


def test_normalized_means_fix_constants(walsh):
    c = constant(walsh, 5, 2.5 + 0.5j)
    q = wts.power_weights(0.5, 32)
    for mean_vals in (
        fejer_mean(c, 7),
        norlund_mean(c, 7, q),
        riesz_log_mean(c, 7),
        norlund_log_mean(c, 7),
    ):
        assert np.abs(mean_vals.values - (2.5 + 0.5j)).max() < 1e-12


def test_partial_mass_means_on_constants(walsh):
    # means normalized by the full weight mass but missing the k=0 term
    # reproduce c * (effective mass / Q_n), not c itself
    c = constant(walsh, 5, 1.0)
    q = wts.power_weights(0.5, 32)
    n = 7
    eff = sum(q.q(k) for k in range(1, n)) / q.Q(n)
    assert np.abs(t_mean(c, n, q).values - eff).max() < 1e-12
    A = cesaro_coeffs(0.5, n)
    Am1 = cesaro_coeffs(-0.5, n)
    eff = Am1[:n].sum() / A[n]
    assert np.abs(cesaro_mean(c, n, 0.5).values - eff).max() < 1e-12


def test_cesaro_coeffs_values():
    A1 = cesaro_coeffs(1.0, 8)
    assert A1[:4].tolist() == [1, 2, 3, 4]
    assert cesaro_coeffs(0.5, 2)[2] == pytest.approx(15 / 8)


def test_cesaro_coeffs_recursions():
    for alpha in (0.25, 0.5, 1.0):
        A = cesaro_coeffs(alpha, 64)
        Am1 = cesaro_coeffs(alpha - 1.0, 64)
        for n in range(65):
            assert A[n] == pytest.approx(Am1[: n + 1].sum(), abs=1e-12)
        for n in range(1, 65):
            assert A[n] - A[n - 1] == pytest.approx(Am1[n], abs=1e-12)


def test_cesaro_rejects_negative_integer_alpha():
    with pytest.raises(DomainError):
        cesaro_coeffs(-2.0, 4)


def test_u_mean_first_order_vanishes(f6):
    assert np.abs(u_mean(f6, 1, 0.5).values).max() == 0.0


def test_u_and_v_match_direct_sums(f6):
    alpha = 0.5
    n = 4
    A = cesaro_coeffs(alpha, n)
    Am1 = cesaro_coeffs(alpha - 1.0, n)
    direct = sum(Am1[k] * partial_sum(f6, k).values for k in range(n)) / A[n]
    assert np.abs(u_mean(f6, n, alpha).values - direct).max() < 1e-12
    q = wts.power_weights(alpha, n + 1)
    direct = sum(q.q(k) * partial_sum(f6, k).values for k in range(1, n)) / q.Q(n)
    assert np.abs(v_mean(f6, n, alpha).values - direct).max() < 1e-12


def test_v_mean_refuses_order_zero_in_its_own_name(f6):
    with pytest.raises(RangeError, match="^v mean requires n >= 1$"):
        v_mean(f6, 0, 0.5)


def test_riesz_log_single_term(f6):
    assert np.abs(riesz_log_mean(f6, 2).values - partial_sum(f6, 1).values).max() < 1e-13
    with pytest.raises(RangeError):
        riesz_log_mean(f6, 1)


def test_norlund_ones_equals_fejer(f6):
    q = wts.ones(16)
    for n in (1, 4, 9):
        assert np.abs(norlund_mean(f6, n, q).values - fejer_mean(f6, n).values).max() == 0.0


def test_norlund_first_order(f6):
    q = wts.power_weights(0.5, 8)
    assert np.abs(norlund_mean(f6, 1, q).values - partial_sum(f6, 1).values).max() < 1e-13


def test_t_mean_weights_bit_identical_to_per_k_loop(f6):
    explicit = wts.from_values([3.0, 2.0, 1.0] * 22)
    for q in (wts.power_weights(0.5, 64), wts.log_weights(1.0, 64), explicit):
        for n in (3, 7, 33, 64):
            Qn = q.Q(n)
            w = np.zeros(n)
            for k in range(1, n):
                w[k] = q.q(k) / Qn
            expect = weighted_sum_combination(f6, w)
            assert np.array_equal(t_mean(f6, n, q).values, expect.values)


def test_t_mean_abel_identity(f6):
    qs = [
        wts.from_function(lambda k: np.log(k + 1.0), 64),
        wts.power_weights(0.5, 64),
        wts.ones(64),
    ]
    for q in qs:
        for n in (2, 6, 17, 33):
            direct = t_mean(f6, n, q)
            abel = t_mean_abel(f6, n, q)
            assert np.abs(direct.values - abel.values).max() < 1e-10


def test_regularity_report_ones():
    rep = regularity_report(wts.ones(32), 32)
    assert rep["envelope_ok"]
    assert rep["rows"][9]["ratio"] == pytest.approx(1 / 10)


def test_regularity_report_power():
    rep = regularity_report(wts.power_weights(0.5, 64), 64)
    ratios = [r["ratio"] for r in rep["rows"]]
    assert ratios[-1] < ratios[3] and ratios[-1] < 0.1


def test_regularity_report_log_class():
    rep = regularity_report(wts.log_weights(1.0, 64), 64)
    assert rep["rows"][-1]["n_ratio"] < 3.0   # O(1/n) envelope


def test_weighted_maximal_matches_brute_force(f6):
    w = power_log_weight(0.4, with_log=False)
    mx = weighted_maximal(f6, "fejer", range(1, 9), weight=w)
    brute = np.max([np.abs(fejer_mean(f6, n).values) / w(n) for n in range(1, 9)], axis=0)
    assert np.abs(mx.values.real - brute).max() == 0.0


@pytest.mark.parametrize("run,message", [
    (lambda f: weighted_maximal(f, "tmean", range(1, 9)),
     "tmean means take parameters ['q'], got []"),
    (lambda f: list(mean_blocks(f, "cesaro", [3])),
     "cesaro means take parameters ['alpha'], got []"),
    (lambda f: strong_sum(f, "norlund", 0.5, lambda n: 1.0, 8), "['q'], got []"),
    (lambda f: weighted_maximal(f, "fejer", range(1, 9), alpha=3.0),
     "fejer means take parameters [], got ['alpha']"),
    (lambda f: list(mean_blocks(f, "tmean", [3], q=wts.ones(4), alpha=0.5)),
     "tmean means take parameters ['q'], got ['alpha', 'q']"),
], ids=["missing-q", "missing-alpha", "strong-sum-missing-q", "unexpected-alpha",
        "extra-alpha"])
def test_summation_parameters_must_be_the_kinds_own(f6, run, message):
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        run(f6)


def test_restricted_maximal_partial_sums(walsh):
    f = random_grid_function(walsh, 4, seed=5)
    blocks = [walsh.M[j] for j in range(5)]
    mx = weighted_maximal(f, "partial_sum", blocks)
    assert (mx.values.real >= np.abs(f.values) - 1e-12).all()


def test_maximal_of_constant(walsh):
    c = constant(walsh, 4, 3.0)
    mx = weighted_maximal(c, "fejer", range(1, 8))
    assert np.abs(mx.values - 3.0).max() < 1e-12


def test_tstar_dominated_by_sigmastar(walsh):
    # Abel argument: nonincreasing weights give T* f <= sigma* f pointwise
    for seed in range(5):
        f = random_grid_function(walsh, 6, seed=seed)
        for q in (wts.ones(70), wts.power_weights(0.5, 70)):
            tstar = weighted_maximal(f, "tmean", range(1, 65), q=q)
            sstar = weighted_maximal(f, "fejer", range(1, 65))
            assert (tstar.values.real <= sstar.values.real + 1e-10).all()


def test_regularity_report_classes_the_weights_it_reads():
    ones, logs, bumpy = wts.ones(32), wts.log_weights(1.0, 32), wts.from_values([1.0, 3.0, 2.0])
    assert [regularity_report(q, 3)["monotonicity"] for q in (ones, logs, bumpy)] == [
        "nonincreasing", "nondecreasing", "general"]
    assert regularity_report(ones, 32)["envelope_ok"] and regularity_report(logs, 32)["envelope_ok"]
    # over n_max = 2 only q_0 = 1 <= q_1 = 3 is read
    assert regularity_report(bumpy, 2)["monotonicity"] == "nondecreasing"


def test_weight_sequences_are_read_only_copies_compared_by_identity():
    arr = np.array([1.0, 2.0, 3.0])
    q = wts.from_values(arr)
    arr[0] = 9.0
    assert q.values[0] == 1.0 and q.Q(3) == 6.0
    assert (q == wts.from_values([1.0, 2.0, 3.0])) is False and q == q
    for name in ("values", "partials"):
        with pytest.raises(ValueError):
            getattr(q, name)[1] = 100.0
    with pytest.raises(AttributeError):
        q.values = np.zeros(3)
    assert np.array_equal(q.values, [1.0, 2.0, 3.0]) and np.array_equal(q.partials, [0, 1, 3, 6])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_refused(bad):
    with pytest.raises(DomainError):
        wts.from_values([1.0, bad, 1.0])
    with pytest.raises(DomainError):
        wts.from_function(lambda k: bad if k == 2 else 1.0, 4)


def test_weights_whose_sum_overflows_are_refused():
    with pytest.raises(DomainError, match="finite"):
        wts.from_values([1e308, 1e308])


def test_regularity_report_on_orders_without_a_positive_normalizer_has_no_rows():
    rep = regularity_report(wts.from_values([0.0, 1.0]), 1)
    assert rep == {"monotonicity": "nonincreasing", "rows": [], "envelope_ok": True}


