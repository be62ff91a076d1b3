import numpy as np
import pytest

from vilenkin.errors import (
    AtomBoundError,
    AtomMeanError,
    AtomSupportError,
    InvalidParamsError,
    ShapeMismatchError,
)
from vilenkin import hardy
from vilenkin.group import digit_matrix, make_group
from vilenkin.hardy import (
    StepMartingale,
    atom_martingale,
    block_coefficients,
    conditional_expectation,
    counterexample,
    gap_report,
    hardy_quasinorm,
    hardy_quasinorm_fn,
    hardy_quasinorm_rows,
    make_atom,
    maximal_function,
    moduli,
    modulus,
    modulus_hp,
    project_to_level,
    regular_martingale,
    tail_martingale,
)
from vilenkin.kernels import dirichlet_block
from vilenkin.spectral import (
    GridFunction,
    character_function,
    constant,
    lp_norm,
    lp_norm_rows,
    partial_sum,
    random_grid_function,
    shift,
    Spectrum,
    transform_forward,
    transform_inverse,
)


def test_conditional_expectation_is_block_partial_sum(any_group):
    g = any_group
    f = random_grid_function(g, 4, seed=2)
    for n in range(5):
        ce = conditional_expectation(f, n)
        ps = partial_sum(f, g.M[n])
        assert np.abs(ce.values - ps.values).max() < 1e-10


def test_conditional_expectation_endpoints(walsh):
    f = random_grid_function(walsh, 4, seed=7)
    assert np.abs(conditional_expectation(f, 4).values - f.values).max() == 0.0
    c = conditional_expectation(f, 0)
    assert np.abs(c.values - f.values.mean()).max() < 1e-13


def test_conditional_expectation_is_the_coset_mean_table_bit_for_bit(any_group):
    g = any_group
    f = random_grid_function(g, 5, seed=3)
    MN = g.order(5)
    for n in range(6):
        table = f.values.reshape(MN // g.M[n], g.M[n]).mean(axis=0)
        assert np.array_equal(conditional_expectation(f, n).values, np.tile(table, MN // g.M[n]))


def test_coset_means_brute_force(walsh):
    f = random_grid_function(walsh, 3, seed=11)
    ce = conditional_expectation(f, 1)
    M1 = walsh.M[1]
    for low in range(M1):
        members = [low + h * M1 for h in range(walsh.order(3) // M1)]
        avg = np.mean([f.values[i] for i in members])
        for i in members:
            assert ce.values[i] == pytest.approx(avg, abs=1e-13)


def test_martingale_consistency_regular(any_group):
    f = random_grid_function(any_group, 4, seed=3)
    mart = regular_martingale(f)
    assert mart.check_consistency() < 1e-12


def test_martingale_rejects_unsorted_levels(walsh):
    f = random_grid_function(walsh, 3, seed=1)
    with pytest.raises(InvalidParamsError):
        StepMartingale(group=walsh, levels=(2, 1),
                       entries=(project_to_level(f, 2), project_to_level(f, 1)))


def test_maximal_function_single_entry(walsh):
    f = random_grid_function(walsh, 3, seed=9)
    mart = StepMartingale(group=walsh, levels=(3,), entries=(f,))
    assert np.abs(maximal_function(mart).values - np.abs(f.values)).max() == 0.0
    for p in (0.5, 1, 2):
        assert hardy_quasinorm(mart, p) == pytest.approx(lp_norm(f, p))


def test_maximal_function_brute_force(walsh):
    f = random_grid_function(walsh, 3, seed=12)
    mart = regular_martingale(f, levels=[1, 3])
    e1 = conditional_expectation(f, 1).values
    expect = np.maximum(np.abs(e1), np.abs(f.values))
    assert np.abs(maximal_function(mart).values - expect).max() < 1e-13


def test_modulus_of_character(walsh):
    psi1 = character_function(walsh, 1, 4)
    assert modulus(psi1, 2, 1) == 0.0          # shifts inside I_1 leave psi_1 fixed
    assert modulus(psi1, 1, 0) == pytest.approx(2.0)   # shift by e_0 flips the sign


def test_modulus_nonincreasing_in_level(any_group):
    f = random_grid_function(any_group, 4, seed=21)
    vals = [modulus(f, 1, n) for n in range(5)]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(4))


def _modulus_per_shift(f, p, n):
    """The supremum of ``modulus`` as one translated grid per shift h = H * M_n."""
    Mn, MN = f.group.M[n], f.group.order(f.resolution)
    return max((lp_norm(f.with_values(shift(f, H * Mn).values - f.values), p)
                for H in range(1, MN // Mn)), default=0.0)


@pytest.mark.parametrize("pattern", [[2], [3], [2, 3, 4], [5, 2]])
def test_modulus_matches_per_shift_loop(pattern, monkeypatch):
    g = make_group(pattern, 6)
    for entries in (1 << 16, 3 * g.order(4) + 1):   # one chunk; several, the last one short
        monkeypatch.setattr(hardy, "_SHIFT_ENTRIES", entries)
        for N in range(5):
            f = random_grid_function(g, N, seed=N)
            for p in (0.5, 1.0, 2.0, np.inf):
                for n in range(N + 1):
                    ref = _modulus_per_shift(f, p, n)
                    assert abs(modulus(f, p, n) - ref) <= 1e-12 * max(ref, 1.0)


@pytest.mark.parametrize("pattern", [[2], [3], [2, 3, 4], [5, 2]])
def test_moduli_equal_modulus_for_each_p(pattern, monkeypatch):
    # one gather reduced for several p gives each p's own modulus, bit for bit
    g = make_group(pattern, 6)
    ps = (0.5, 1.0, 2.0, np.inf)
    for entries in (1 << 16, 3 * g.order(4) + 1):   # one chunk; several, the last one short
        monkeypatch.setattr(hardy, "_SHIFT_ENTRIES", entries)
        for N in range(5):
            f = random_grid_function(g, N, seed=N)
            for n in range(N + 1):
                assert moduli(f, ps, n) == tuple(modulus(f, p, n) for p in ps)


def _digit_matrix_moduli(f, ps, n):
    """``moduli`` gathered through a table of x - h built from the digit matrix."""
    g, N = f.group, f.resolution
    Mn, MN = g.M[n], g.order(N)
    dm = digit_matrix(g, N)
    idx = np.arange(MN) % Mn
    for j in range(n, N):   # every shift h = H * M_n, H >= 1, has zero digits below n
        idx = idx + ((dm[j] - dm[j, Mn:MN:Mn, None]) % g.m[j]) * g.M[j]
    diff = f.values[idx] - f.values
    return tuple(float(lp_norm_rows(diff, p).max(initial=0.0)) for p in ps)


def test_moduli_match_the_digit_matrix_gather(digit_group, monkeypatch):
    g = digit_group
    ps = (0.5, 1.0, 2.0, np.inf)
    for entries in (1 << 16, 2 * g.order(g.levels) + 1):   # one chunk; two shifts a chunk
        monkeypatch.setattr(hardy, "_SHIFT_ENTRIES", entries)
        for N in range(g.levels + 1):
            f = random_grid_function(g, N, seed=N)
            for n in range(N + 1):
                assert moduli(f, ps, n) == _digit_matrix_moduli(f, ps, n), (entries, N, n)


def test_watari_bracket(any_group):
    g = any_group
    for seed in range(5):
        f = random_grid_function(g, 4, seed=seed)
        for p in (1, 2):
            for n in range(5):
                om = modulus(f, p, n)
                err = lp_norm(f.with_values(
                    f.values - conditional_expectation(f, n).values), p)
                assert err <= om + 1e-10
                assert om / 2 <= err + 1e-10


def test_tail_martingale_structure(walsh):
    f = random_grid_function(walsh, 4, seed=5)
    mart = regular_martingale(f)
    tail = tail_martingale(mart, 2)
    for lvl, e in zip(tail.levels, tail.entries):
        if lvl <= 2:
            assert np.abs(e.values).max() == 0.0
    assert tail.check_consistency() < 1e-12
    # omega_Hp at the top level vanishes: f - S_{M_N} f = 0
    assert modulus_hp(mart, 1.0, 4) == 0.0
    assert modulus_hp(mart, 1.0, 2) > 0


def test_atom_accepts_block_difference(walsh):
    N = 3
    vals = character_function(walsh, walsh.M[N], N + 1).values * dirichlet_block(walsh, N, N + 1)
    atom = make_atom(0.5, N, 0, GridFunction(walsh, N + 1, vals))
    assert (atom.level, atom.base) == (N, 0)


def test_atom_rejections(walsh):
    N = 2
    MN1 = walsh.order(N + 1)
    nonzero_mean = np.zeros(MN1)
    nonzero_mean[0] = 1.0
    with pytest.raises(AtomMeanError):
        make_atom(0.5, N, 0, GridFunction(walsh, N + 1, nonzero_mean))
    # mean zero but too large
    vals = character_function(walsh, walsh.M[N], N + 1).values * dirichlet_block(walsh, N, N + 1)
    with pytest.raises(AtomBoundError):
        make_atom(1.0, N, 0, GridFunction(walsh, N + 1, 2 * vals))
    leak = np.where(np.arange(MN1) % 2 == 0, 1.0, -1.0)   # mean zero but supported everywhere
    with pytest.raises(AtomSupportError):
        make_atom(0.5, N, 0, GridFunction(walsh, N + 1, leak))


def _block_atom(g, N, p):
    """M_N^(1/p) (D_{M_{N+1}} - D_{M_N}) / (M_N (m_N - 1)) at resolution N + 1."""
    block = dirichlet_block(g, N + 1, N + 1) - dirichlet_block(g, N, N + 1)
    return g.M[N] ** (1 / p) * block / (g.M[N] * (g.m[N] - 1))


def test_atom_mean_check_scales_with_the_sup_bound():
    # sup bound 7.0e8; rounding leaves a support mean of -4.3e-12, which an
    # absolute 1e-12 check refused
    g = make_group([2, 3, 4], 9)
    N, p = 8, 0.4
    vals = _block_atom(g, N, p)
    assert np.abs(vals.sum() / g.M[N + 1]) > 1e-12
    atom = make_atom(p, N, 0, GridFunction(g, N + 1, vals))
    assert atom.level == N


def test_atom_mean_of_a_millionth_of_the_sup_bound_raises():
    g = make_group([2, 3, 4], 9)
    N, p = 8, 0.4
    bound = g.M[N] ** (1 / p)
    vals = _block_atom(g, N, p)
    below = vals.real < 0   # lifting the negative entries keeps the sup norm
    vals = vals + np.where(below, 1e-6 * bound * g.M[N + 1] / below.sum(), 0.0)
    assert np.abs(vals).max() <= bound * (1 + 1e-12)
    assert abs(vals.sum() / g.M[N + 1]) == pytest.approx(1e-6 * bound, rel=1e-9)
    with pytest.raises(AtomMeanError):
        make_atom(p, N, 0, GridFunction(g, N + 1, vals))


def test_atom_martingale_linear(walsh):
    N = 2
    vals = character_function(walsh, walsh.M[N], N + 1).values * dirichlet_block(walsh, N, N + 1)
    atom = make_atom(0.5, N, 0, GridFunction(walsh, N + 1, vals))
    mart, surrogate = atom_martingale([(1.0, atom)], levels=[1, 2, 3])
    assert surrogate == 1.0
    assert mart.check_consistency() < 1e-12
    # single atom: finest entry equals the atom itself
    assert np.abs(mart.final.values - vals).max() < 1e-12


def test_counterexample_spectra(walsh):
    for kind in ("strong-partial-sums", "strong-fejer"):
        mart = counterexample(walsh, kind, [1, 2, 3], rank=5)
        got = transform_forward(mart.final).coeffs
        expect = block_coefficients(walsh, kind, [1, 2, 3], 5)
        assert np.abs(got - expect).max() < 1e-10
        assert mart.check_consistency() < 1e-12


def test_counterexample_block_pattern(walsh):
    mart = counterexample(walsh, "strong-partial-sums", [1, 2], rank=4)
    c = transform_forward(mart.final).coeffs
    assert np.abs(c[0]) < 1e-13                      # no constant term
    assert abs(c[2] - c[3]) < 1e-12                  # constant on [M_1, 2 M_1)
    assert np.abs(c[np.r_[1, 8:16]]).max() < 1e-12   # zero off the blocks


def test_counterexample_atom_route_matches(walsh):
    # strong-partial-sums atoms are scaled Dirichlet block differences
    import math

    alphas = [1, 2]
    rank = 4
    mart = counterexample(walsh, "strong-partial-sums", alphas, rank=rank)
    total = np.zeros(walsh.order(rank), dtype=complex)
    for a in alphas:
        Ma = walsh.M[a]
        lam = math.sqrt(max(1.0, math.log(math.log(max(2 * Ma, 3))))) / math.sqrt(math.log(Ma))
        atom_vals = (character_function(walsh, Ma, rank).values
                     * dirichlet_block(walsh, a, rank))
        total += lam * atom_vals
    assert np.abs(mart.final.values - total).max() < 1e-10


@pytest.mark.parametrize("pattern", [[2], [3], [2, 3, 4], [5, 2]])
@pytest.mark.parametrize("kind", ["strong-partial-sums", "strong-fejer", "hp-blocks"])
def test_counterexample_closed_form_matches_transform(pattern, kind):
    g = make_group(pattern, 6)
    alphas, rank = [1, 2, 3], 5
    if g.order(rank) > 2000:
        alphas, rank = [1, 2], 4
    full = counterexample(g, kind, alphas, rank=rank, p=0.4).final.values
    coeffs = block_coefficients(g, kind, alphas, rank, p=0.4)
    ref = transform_inverse(Spectrum(g, rank, coeffs)).values
    assert np.abs(full - ref).max() <= 1e-12 * np.abs(ref).max()
    # every block is supported on I_{alpha_1}: the points x with x mod M_{alpha_1} != 0
    off = np.arange(g.order(rank)) % g.M[alphas[0]] != 0
    assert (full[off] == 0).all()


def test_counterexample_invalid_alphas(walsh):
    with pytest.raises(InvalidParamsError):
        counterexample(walsh, "strong-fejer", [], rank=4)
    with pytest.raises(InvalidParamsError):
        counterexample(walsh, "strong-fejer", [2, 2], rank=4)
    with pytest.raises(InvalidParamsError):
        counterexample(walsh, "hp-blocks", [1, 2], rank=4, p=1.5)


def test_hp_blocks_spectrum():
    g = make_group([5], 6)
    mart = counterexample(g, "hp-blocks", [1, 2], rank=4, p=0.4)
    c = transform_forward(mart.final).coeffs
    expect = block_coefficients(g, "hp-blocks", [1, 2], 4, p=0.4)
    scale = np.abs(expect).max()
    assert np.abs(c - expect).max() < 1e-12 * scale


def test_gap_report_shape():
    g = make_group([5], 8)
    rep = gap_report(g, [1, 2, 3], 0.4)
    assert len(rep["rows"]) == 3
    assert "separation_ok" in rep["rows"][1]


def test_single_atom_normalized_quasinorm(walsh):
    # ||a||_{H_p} <= 1 after normalizing by the sup bound, for a valid atom
    N, p = 2, 0.5
    vals = character_function(walsh, walsh.M[N], N + 1).values * dirichlet_block(walsh, N, N + 1)
    atom = make_atom(p, N, 0, GridFunction(walsh, N + 1, vals))
    mart, _ = atom_martingale([(1.0, atom)], levels=[1, 2, 3])
    bound = walsh.M[N] ** (1 / p)  # = mu(I)^{-1/p}
    assert hardy_quasinorm(mart, p) / bound <= 1 + 1e-10


@pytest.mark.parametrize("res", [0, 1, 3, "top"])
def test_hardy_quasinorm_rows_matches_regular_martingale(any_group, res):
    g = any_group
    if res == "top":
        res = g.levels
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((6, g.order(res))) + 1j * rng.standard_normal((6, g.order(res)))
    for p in (0.4, 1.0, np.inf):
        got = hardy_quasinorm_rows(g, res, rows, p)
        for b, row in enumerate(rows):
            expect = hardy_quasinorm_fn(GridFunction(g, res, row), p)
            assert got[b] == pytest.approx(expect, rel=1e-12, abs=0)
    with pytest.raises(ShapeMismatchError):
        hardy_quasinorm_rows(g, res + 1 if res < g.levels else res - 1, rows, 0.4)
