import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from vilenkin.errors import DomainError, RangeError, ShapeMismatchError
from vilenkin.group import digit_matrix, digits_of, make_group
from vilenkin.hardy import project_to_level
from vilenkin.spectral import (
    _BLOCK,
    _block_matrix,
    _blocks,
    _stage_pass,
    GridFunction,
    character_function,
    constant,
    convolve,
    convolve_naive,
    delta,
    fourier_coeff,
    inverse_rows,
    lp_norm,
    lp_norm_rows,
    naive_forward,
    partial_sum,
    random_grid_function,
    shift,
    Spectrum,
    transform_forward,
    transform_inverse,
    weak_lp,
    weak_lp_rows,
    weighted_sum_combination,
)


def test_delta_rejects_points_off_the_grid(walsh):
    MN = walsh.order(3)
    assert delta(walsh, 3, at=MN - 1, scale=2.0).values[MN - 1] == 2.0
    for at in (-1, -MN, MN, MN + 5):
        with pytest.raises(RangeError, match=f"point index {at} outside 0..{MN - 1}"):
            delta(walsh, 3, at=at)


def test_coeff_of_character(walsh):
    f = character_function(walsh, 5, 3)
    for k in range(8):
        expect = 1.0 if k == 5 else 0.0
        assert fourier_coeff(f, k) == pytest.approx(expect, abs=1e-12)


def test_coeff_of_constant(mixed):
    f = constant(mixed, 3, 2.0 - 1.0j)
    assert fourier_coeff(f, 0) == pytest.approx(2.0 - 1.0j, abs=1e-14)


def test_coeff_above_rank_is_exact_zero(mixed):
    f = random_grid_function(mixed, 2, seed=5)
    MN = mixed.order(2)
    assert fourier_coeff(f, MN + 1) == 0.0
    # oracle: embed at the finer rank and evaluate the direct sum
    finer = GridFunction(mixed, 3, np.tile(f.values, mixed.m[2]))
    assert abs(fourier_coeff(finer, MN + 1)) < 1e-12


def test_forward_matches_naive(any_group):
    g = any_group
    N = 3 if g.order(3) <= 256 else 2
    f = random_grid_function(g, N, seed=11)
    fast = transform_forward(f).coeffs
    slow = naive_forward(f).coeffs
    assert np.abs(fast - slow).max() < 1e-10


def test_round_trip_and_plancherel(any_group):
    g = any_group
    N = min(5, g.levels)
    for seed in range(5):
        f = random_grid_function(g, N, seed=seed)
        s = transform_forward(f)
        back = transform_inverse(s)
        assert np.abs(back.values - f.values).max() < 1e-12
        power = (np.abs(f.values) ** 2).mean()
        assert abs(power - (np.abs(s.coeffs) ** 2).sum()) < 1e-10


def test_delta_transform(walsh):
    MN = walsh.order(3)
    f = delta(walsh, 3, scale=MN)
    assert np.abs(transform_forward(f).coeffs - 1.0).max() < 1e-12


def test_partial_sum_endpoints(walsh):
    f = random_grid_function(walsh, 4, seed=9)
    assert np.abs(partial_sum(f, 0).values).max() == 0.0
    assert np.abs(partial_sum(f, walsh.order(4)).values - f.values).max() < 1e-12
    with pytest.raises(RangeError):
        partial_sum(f, walsh.order(4) + 1)


def test_partial_sum_selects_characters(walsh):
    f = character_function(walsh, 5, 3)
    assert np.abs(partial_sum(f, 6).values - f.values).max() < 1e-12
    assert np.abs(partial_sum(f, 5).values).max() < 1e-12


def test_partial_sum_is_dirichlet_convolution(mixed):
    from vilenkin.kernels import dirichlet

    f = random_grid_function(mixed, 3, seed=21)
    for n in (1, 3, 7, 12):
        lhs = partial_sum(f, n)
        rhs = convolve(f, dirichlet(mixed, n, N=3))
        assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_convolution_matches_naive(mixed):
    f = random_grid_function(mixed, 2, seed=1)
    h = random_grid_function(mixed, 2, seed=2)
    assert np.abs(convolve(f, h).values - convolve_naive(f, h).values).max() < 1e-12


def test_convolution_identity_kernel(walsh):
    MN = walsh.order(3)
    f = random_grid_function(walsh, 3, seed=4)
    ident = delta(walsh, 3, scale=MN)
    assert np.abs(convolve(f, ident).values - f.values).max() < 1e-12


def test_characters_convolve_orthogonally(walsh):
    a = character_function(walsh, 3, 3)
    b = character_function(walsh, 5, 3)
    assert np.abs(convolve(a, b).values).max() < 1e-12
    assert np.abs(convolve(a, a).values - a.values).max() < 1e-12


def test_convolution_shape_error(walsh, mixed):
    with pytest.raises(ShapeMismatchError):
        convolve(random_grid_function(walsh, 2, seed=0), random_grid_function(walsh, 3, seed=0))


def test_lp_norm_basics(walsh):
    one = constant(walsh, 3)
    for p in (0.5, 1, 2, np.inf):
        assert lp_norm(one, p) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        lp_norm(one, 0)


def test_lp_norm_indicator(walsh):
    vals = np.zeros(8)
    vals[[0, 2, 4, 6]] = 3.0   # indicator of I_1 scaled by 3
    f = GridFunction(walsh, 3, vals)
    for p in (1, 2, 4):
        assert lp_norm(f, p) == pytest.approx(3.0 * 0.5 ** (1 / p))
        assert weak_lp(f, p) == pytest.approx(3.0 * 0.5 ** (1 / p))


def test_weak_lp_below_lp(any_group):
    g = any_group
    for seed in range(10):
        f = random_grid_function(g, 3, seed=seed)
        for p in (0.5, 1, 2):
            assert weak_lp(f, p) <= lp_norm(f, p) + 1e-12


def test_weighted_sum_combination_matches_direct(walsh):
    f = random_grid_function(walsh, 4, seed=33)
    w = np.zeros(9)
    w[1:] = np.linspace(0.1, 0.9, 8)
    direct = sum(w[k] * partial_sum(f, k).values for k in range(1, 9))
    combo = weighted_sum_combination(f, w)
    assert np.abs(combo.values - direct).max() < 1e-12


def test_multiplier_paths_adopt_their_coefficients(mixed):
    # partial_sum, weighted_sum_combination and convolve hand their fresh
    # coefficient arrays to the inverse without a copy; the grid is the
    # one a copied Spectrum gives, and it is read-only
    f = random_grid_function(mixed, 4, seed=21)
    h = random_grid_function(mixed, 4, seed=22)
    c, ch = transform_forward(f).coeffs, transform_forward(h).coeffs
    MN = mixed.order(4)
    w = np.linspace(0.0, 1.0, MN + 1)
    k = np.arange(MN)
    tails = np.cumsum(w.astype(np.complex128)[::-1])[::-1][1:]
    cases = [
        (partial_sum(f, 37), np.where(k < 37, c, 0.0)),
        (weighted_sum_combination(f, w), c * tails),
        (convolve(f, h), c * ch),
    ]
    for got, coeffs in cases:
        assert np.array_equal(got.values, transform_inverse(Spectrum(mixed, 4, coeffs)).values)
        assert not got.values.flags.writeable
    with pytest.raises(ShapeMismatchError):
        weighted_sum_combination(f, np.ones((2, MN + 1)))


def test_shift_is_group_translation(mixed):
    f = random_grid_function(mixed, 2, seed=8)
    from vilenkin.group import group_sub, point_from_index

    sh = shift(f, 4)
    for i in range(mixed.order(2)):
        x = point_from_index(i, mixed, 2)
        h = point_from_index(4, mixed, 2)
        assert sh.values[i] == f.values[group_sub(x, h).index()]


def test_shift_refuses_shifts_outside_the_grid():
    g = make_group([2], 8)
    f = random_grid_function(g, 3, seed=8)
    assert np.array_equal(shift(f, 7).values, f.values[[7, 6, 5, 4, 3, 2, 1, 0]])
    for h in (-1, 8, 9):   # digits above the grid were once dropped: 8 gave f, 9 gave shift(f, 1)
        with pytest.raises(RangeError):
            shift(f, h)


def test_values_are_immutable(walsh):
    f = random_grid_function(walsh, 3, seed=0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@pytest.mark.parametrize("pattern,levels", [([2], 9), ([5, 2], 5), ([2, 3, 4], 5)])
def test_forward_spectrum_is_memoized_on_the_function(pattern, levels):
    g = make_group(pattern, levels)
    f = random_grid_function(g, levels, seed=3)
    s = transform_forward(f)
    assert transform_forward(f) is s
    assert not s.coeffs.flags.writeable
    # the same true division on the real and imaginary parts
    fresh = _stage_pass(f.values, g, levels, sign=-1).view(np.float64) / g.order(levels)
    assert np.array_equal(s.coeffs, fresh.view(np.complex128))
    # a new function with the same values runs its own pass, to the same bits
    twin = f.with_values(f.values)
    assert transform_forward(twin) is not s
    assert np.array_equal(transform_forward(twin).coeffs, s.coeffs)


def test_memoized_spectrum_lives_only_as_long_as_its_function(walsh):
    f = random_grid_function(walsh, 6, seed=1)
    spectrum = weakref.ref(transform_forward(f))
    assert spectrum() is not None
    del f
    gc.collect()
    assert spectrum() is None


# Radices 70 and 100 exceed _BLOCK, so they form blocks of their own.
FUSED_GROUPS = [([2], 9), ([3], 6), ([5], 4), ([2, 3, 4], 5), ([70, 3], 2), ([2, 100, 3], 3)]


# At _BLOCK = 32 the blocks of [2]^13 are digits 0-4, 5-9 and 10-12, of [2]^11 digits
# 0-4, 5-9 and 10, and of [3]^7 digits 0-2, 3-5 and 6.
@pytest.mark.parametrize("pattern,levels", FUSED_GROUPS + [([2], 13), ([2], 11), ([3], 7)])
def test_fused_pass_matches_naive_at_every_resolution(pattern, levels):
    g = make_group(pattern, levels)
    for N in range(levels + 1):
        f = random_grid_function(g, N, seed=N)
        naive = naive_forward(f)
        assert np.abs(transform_forward(f).coeffs - naive.coeffs).max() < 1e-12
        assert np.abs(transform_inverse(naive).values - f.values).max() < 1e-12


@pytest.mark.parametrize("pattern,levels", FUSED_GROUPS + [([2], 17), ([3], 11)])
def test_blocks_partition_digits(pattern, levels):
    g = make_group(pattern, levels)
    runs = _blocks(g.m)
    assert [j0 for j0, _ in runs] == [0] + [j1 for _, j1 in runs[:-1]]
    assert runs[-1][1] == levels
    for j0, j1 in runs:
        assert j1 - j0 == 1 or g.M[j1] // g.M[j0] <= _BLOCK
    for (j0, j1), _ in zip(runs, runs[1:]):     # no run could take the next digit
        assert g.M[j1 + 1] // g.M[j0] > _BLOCK
    assert _blocks(()) == ()


@pytest.mark.parametrize("radices", [(2,), (4,), (3,), (8, 8), (2, 3, 4), (4, 2, 2, 4), (3, 4, 5),
                                     (12,), (70,), (100,)])
@pytest.mark.parametrize("sign", [-1, 1])
def test_block_matrix_quarter_turns_are_exact(radices, sign):
    F = _block_matrix(radices, sign)
    B = F.shape[0]
    dm = digit_matrix(make_group(list(radices), len(radices)), len(radices)).T.tolist()
    quarter = [1, sign * 1j, -1, -sign * 1j]
    for k in range(B):
        for x in range(B):
            turns = sum(Fraction(a * b, m) for a, b, m in zip(dm[k], dm[x], radices)) % 1
            if (4 * turns).denominator == 1:
                assert F[k, x] == quarter[int(4 * turns)], (k, x)
            else:
                assert abs(F[k, x] - np.exp(sign * 2j * np.pi * float(turns))) < 1e-15, (k, x)
    assert not F.flags.writeable


@pytest.mark.parametrize("digits", range(1, 7))
@pytest.mark.parametrize("sign", [-1, 1])
def test_radix2_block_is_the_real_walsh_table(digits, sign):
    F = _block_matrix((2,) * digits, sign)
    k = np.arange(2 ** digits)
    parity = np.array([bin(int(v)).count("1") % 2 for v in (k[:, None] & k[None, :]).ravel()])
    walsh = (1.0 - 2.0 * parity).reshape(F.shape)
    assert not F.imag.any() and not F.flags.writeable
    assert np.array_equal(F.real, walsh)


@pytest.mark.parametrize("res", [0, 7, 12])
def test_inverse_rows_of_a_strided_block_equal_the_contiguous_rows(walsh, res):
    rng = np.random.default_rng(5)
    MN = walsh.order(res)
    base = rng.standard_normal((6, 3 * MN)) + 1j * rng.standard_normal((6, 3 * MN))
    strided = base[::2, ::3]
    assert not strided.flags.c_contiguous
    assert np.array_equal(inverse_rows(walsh, res, strided),
                          inverse_rows(walsh, res, np.ascontiguousarray(strided)))


@pytest.mark.parametrize("res", [0, 1, 5, 8])
def test_transform_outputs_are_read_only_and_own_their_memory(any_group, res):
    f = random_grid_function(any_group, res, seed=res)
    s = transform_forward(f)
    back = transform_inverse(s)
    for arr, source in ((s.coeffs, f.values), (back.values, s.coeffs)):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, source)


def test_constructors_copy_a_caller_array(mixed):
    rng = np.random.default_rng(9)
    MN = mixed.order(3)
    vals = rng.standard_normal(MN) + 1j * rng.standard_normal(MN)
    keep = vals.copy()
    f, s = GridFunction(mixed, 3, vals), Spectrum(mixed, 3, vals)
    vals[:] = 7.0
    assert np.array_equal(f.values, keep) and np.array_equal(s.coeffs, keep)


def test_rank0_transform_round_trip(mixed):
    f = project_to_level(random_grid_function(mixed, 3, seed=6), 0)
    s = transform_forward(f)
    assert s.coeffs[0] == f.values[0]
    assert transform_inverse(s).values[0] == f.values[0]


@pytest.mark.parametrize("res", [0, 1, 4])
def test_inverse_rows_matches_transform_inverse(any_group, res):
    g = any_group
    MN = g.order(res)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((5, MN)) + 1j * rng.standard_normal((5, MN))
    vals = inverse_rows(g, res, coeffs)
    assert vals.shape == coeffs.shape
    for c, v in zip(coeffs, vals):
        assert np.abs(v - transform_inverse(Spectrum(g, res, c)).values).max() <= 1e-12
    with pytest.raises(ShapeMismatchError):
        inverse_rows(g, res, np.ones((2, MN + 1)))


@pytest.mark.parametrize("pattern,levels", FUSED_GROUPS)
def test_inverse_rows_batch_matches_rows_on_fused_blocks(pattern, levels):
    g = make_group(pattern, levels)
    rng = np.random.default_rng(4)
    shape = (2, 3, g.order(levels))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals = inverse_rows(g, levels, coeffs)
    for c, v in zip(coeffs.reshape(6, -1), vals.reshape(6, -1)):
        assert np.abs(v - transform_inverse(Spectrum(g, levels, c)).values).max() <= 1e-12


def test_inverse_rows_of_a_sweep_block_match_transform_inverse():
    # the level-3 block of a maximal-sweep n-sweep: 99 rows on [5]^3
    g = make_group([5], 3)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((99, 125)) + 1j * rng.standard_normal((99, 125))
    vals = inverse_rows(g, 3, coeffs)
    assert vals.shape == coeffs.shape
    for c, v in zip(coeffs, vals):
        assert np.abs(v - transform_inverse(Spectrum(g, 3, c)).values).max() <= 1e-12


def test_row_norms_equal_per_row_norms(mixed):
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((4, mixed.order(3))) + 1j * rng.standard_normal((4, mixed.order(3)))
    for p in (0.4, 1.0, 2.0, np.inf):
        lp, weak = lp_norm_rows(rows, p), weak_lp_rows(rows, p)
        for b, row in enumerate(rows):
            f = GridFunction(mixed, 3, row)
            assert lp[b] == lp_norm(f, p) and weak[b] == weak_lp(f, p)
    with pytest.raises(DomainError):
        lp_norm_rows(rows, 0)
    with pytest.raises(DomainError):
        weak_lp_rows(rows, -1.0)


@pytest.mark.parametrize("norm", [lp_norm_rows, weak_lp_rows])
def test_row_norms_refuse_a_nan_exponent(norm):
    with pytest.raises(DomainError, match="p must be positive"):
        norm(np.ones((2, 4)), float("nan"))


def _longdouble_forward(f):
    """Every coefficient summed in long double, phases reduced exactly mod 1."""
    g, N = f.group, f.resolution
    dm = digit_matrix(g, N)
    turns = np.zeros((g.order(N), g.order(N)), dtype=np.longdouble)
    for j in range(N):
        turns += (np.outer(dm[j], dm[j]) % g.m[j]).astype(np.longdouble) / g.m[j]
    two_pi = 8 * np.arctan(np.longdouble(1))
    table = np.exp(np.clongdouble(-1j) * two_pi * (turns % 1))
    return table @ f.values.astype(np.clongdouble) / g.order(N)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("pattern,levels", [([70, 3], 2), ([2, 100, 3], 3)])
def test_naive_forward_matches_long_double_sum(pattern, levels):
    g = make_group(pattern, levels)
    f = random_grid_function(g, levels, seed=levels)
    err = np.abs(naive_forward(f).coeffs - _longdouble_forward(f)).max()
    assert err < 1e-15


def _digit_matrix_naive_forward(f):
    """``naive_forward`` with its per-digit rows read from the digit matrix."""
    g, N = f.group, f.resolution
    MN = g.order(N)
    dm = digit_matrix(g, N)
    tables = [np.exp(-2j * np.pi * ((np.outer(np.arange(g.m[j]), dm[j]) % g.m[j]) / g.m[j]))
              for j in range(N)]
    coeffs = np.empty(MN, dtype=np.complex128)
    for n in range(MN):
        row = np.ones(MN, dtype=np.complex128)
        for j, d in digits_of(n, g).nonzero():
            row *= tables[j][d]
        coeffs[n] = row @ f.values
    return coeffs / MN


def test_naive_forward_matches_the_digit_matrix_rows(digit_group):
    g = digit_group
    for N in range(g.levels + 1):
        f = random_grid_function(g, N, seed=N)
        assert np.array_equal(naive_forward(f).coeffs, _digit_matrix_naive_forward(f))
