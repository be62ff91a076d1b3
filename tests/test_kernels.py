import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vilenkin import kernels
from vilenkin import weights as wts
from vilenkin.errors import (
    DegenerateWeightsError,
    IndexOverflowError,
    RangeError,
    ShapeMismatchError,
    VilenkinError,
)
from vilenkin.characters import _unit_roots, character_column
from vilenkin.group import digit_matrix, digits_of, make_group
from vilenkin.kernels import (
    dirichlet,
    dirichlet_block,
    fejer,
    fejer_l1_batch,
    lebesgue_batch,
    lebesgue_bounds,
    lebesgue_constant,
    mean_kernel,
    min_resolution,
    norlund_kernel,
    norlund_log_kernel,
    q_pattern,
    riesz_log_kernel,
    tmean_kernel,
)
from vilenkin.means import _KINDS, first_order, mean_blocks, param_names
from vilenkin.spectral import convolve, delta, lp_norm_rows, random_grid_function, transform_forward

from conftest import mean_by_kind


def test_dirichlet_block_values(walsh):
    D = dirichlet_block(walsh, 2, 3)
    # M_2 = 4 on I_2 (indices with two low zero digits), else 0
    assert D[0] == 4 and D[4] == 4
    assert np.abs(D[[1, 2, 3, 5, 6, 7]]).max() == 0


def test_dirichlet_one_is_constant(any_group):
    D = dirichlet(any_group, 1)
    assert np.abs(D.values - 1.0).max() < 1e-14


def test_dirichlet_walsh_d3():
    g = make_group([2], 4)
    D = dirichlet(g, 3)
    assert D.resolution == 2
    assert np.abs(D.values - np.array([3, 1, 1, -1])).max() < 1e-13


@pytest.fixture(params=[([2], 12), ([3], 8), ([2, 3, 4], 8), ([7], 4), ([13, 2], 4), ([2, 65], 3)],
                ids=["m2", "m3", "m234", "m7", "m13-2", "m2-65"])
def closed_group(request):
    """The ``any_group`` groups and three with radices above 5."""
    return make_group(*request.param)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 23, 24, 37])
def test_dirichlet_closed_vs_naive(closed_group, n):
    g = closed_group
    c = dirichlet(g, n)
    nv = kernels._dirichlet_naive(g, n, c.resolution)
    assert np.abs(c.values - nv).max() < 1e-12


def test_dirichlet_resolution_guard(walsh):
    with pytest.raises(ShapeMismatchError):
        dirichlet(walsh, 9, N=2)


def test_fejer_matches_kn8_spec_example():
    g = make_group([2], 3)
    K = fejer(g, 2, N=2)
    assert np.abs(K.values - np.array([1.5, 0.5, 1.5, 0.5])).max() < 1e-14


def test_fejer_one(any_group):
    K = fejer(any_group, 1)
    assert np.abs(K.values - 1.0).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 24, 40])
def test_fejer_closed_vs_naive(closed_group, n):
    g = closed_group
    c = fejer(g, n)
    nv = kernels._fejer_naive(g, n, c.resolution)
    assert np.abs(c.values - nv).max() < 1e-12


def test_fejer_block_m32():
    # triadic-first group: K_{M_1} matches the closed shell form
    g = make_group([3, 2], 4)
    K = fejer(g, g.M[1])
    nv = kernels._fejer_naive(g, g.M[1], K.resolution)
    assert np.abs(K.values - nv).max() < 1e-13


def test_norlund_ones_is_fejer(walsh):
    q = wts.ones(32)
    A = norlund_kernel(walsh, q, 10)
    K = fejer(walsh, 10, N=A.resolution)
    assert np.abs(A.values - K.values).max() < 1e-13


def test_norlund_one_term(walsh):
    q = wts.power_weights(0.5, 8)
    A = norlund_kernel(walsh, q, 1)
    assert np.abs(A.values - 1.0).max() < 1e-14


def test_tmean_kernel_direct_sum(walsh):
    q = wts.power_weights(0.5, 8)
    F = tmean_kernel(walsh, q, 4)
    direct = sum(q.q(k) * dirichlet(walsh, k, N=F.resolution).values for k in range(1, 4))
    assert np.abs(F.values - direct / q.Q(4)).max() < 1e-13


def test_kernels_reproduce_means_by_convolution(walsh):
    from vilenkin.means import norlund_mean, t_mean

    f = random_grid_function(walsh, 5, seed=3)
    q = wts.power_weights(0.5, 64)
    for n in (1, 5, 9):
        A = norlund_kernel(walsh, q, n, N=5)
        assert np.abs(norlund_mean(f, n, q).values - convolve(f, A).values).max() < 1e-10
        F = tmean_kernel(walsh, q, n, N=5)
        assert np.abs(t_mean(f, n, q).values - convolve(f, F).values).max() < 1e-10


def test_riesz_log_kernel_small(walsh):
    Y2 = riesz_log_kernel(walsh, 2)
    assert np.abs(Y2.values - 1.0).max() < 1e-14   # D_1 / l_2
    Y4 = riesz_log_kernel(walsh, 4)
    direct = (dirichlet(walsh, 1, N=Y4.resolution).values
              + dirichlet(walsh, 2, N=Y4.resolution).values / 2
              + dirichlet(walsh, 3, N=Y4.resolution).values / 3)
    assert np.abs(Y4.values - direct / wts.harmonic_number(4)).max() < 1e-13


def test_log_kernels_need_two_terms(walsh):
    with pytest.raises(RangeError):
        riesz_log_kernel(walsh, 1)
    with pytest.raises(RangeError):
        norlund_log_kernel(walsh, 1)


def test_harmonic_number():
    assert wts.harmonic_number(4) == pytest.approx(11 / 6)


def test_harmonic_table_is_the_fsum_bit_for_bit(monkeypatch):
    cap = wts._HARMONIC_CAP
    terms = [1.0 / k for k in range(1, 3 * cap + 7)]
    # a cold table, filled out of order: first a large n, then every n below
    monkeypatch.setattr(wts, "_HARMONIC", [0.0, 0.0])
    monkeypatch.setattr(wts, "_HARMONIC_SUM", 0)
    assert wts.harmonic_number(5000) == math.fsum(terms[:4999])
    for n in range(-3, 1 << 13):
        assert wts.harmonic_number(n) == math.fsum(terms[:max(n - 1, 0)]), n
    for n in (cap - 1, cap, cap + 1, 3 * cap + 7):
        assert wts.harmonic_number(n) == math.fsum(terms[:n - 1]), n
    assert len(wts._HARMONIC) <= cap


def test_lebesgue_values(walsh):
    assert lebesgue_constant(walsh, 1) == pytest.approx(1.0, abs=1e-14)
    assert lebesgue_constant(walsh, 3) == pytest.approx(1.5, abs=1e-14)


def test_lebesgue_block_norms(any_group):
    g = any_group
    for lvl in range(1, 5):
        assert lebesgue_constant(g, g.M[lvl]) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_batch_matches_pointwise(mixed):
    L = lebesgue_batch(mixed, 24)
    for n in (1, 5, 12, 24):
        assert L[n] == pytest.approx(lebesgue_constant(mixed, n), abs=1e-12)


def test_lebesgue_bounds_walsh(walsh):
    b = lebesgue_bounds(digits_of(3, walsh))
    assert (b.v, b.vstar) == (2, 0)
    assert b.lower == pytest.approx(0.25) and b.upper == pytest.approx(2.0)
    assert b.lower <= 1.5 <= b.upper
    b1 = lebesgue_bounds(digits_of(1, walsh))
    assert b1.lower == pytest.approx(0.125) and b1.upper == pytest.approx(1.0)


def test_lebesgue_bounds_bracket_corrected(any_group):
    g = any_group
    L = lebesgue_batch(g, 64)
    for n in range(1, 65):
        b = lebesgue_bounds(digits_of(n, g), variant="corrected")
        assert b.lower - 1e-10 <= L[n] <= b.upper + 1e-10


def test_q_pattern_bracket(any_group):
    g = any_group
    lam = g.lam
    for k in (2, 3):
        if 2 * k >= g.levels:
            continue
        n = q_pattern(g, k)
        L = lebesgue_constant(g, n)
        assert k / (2 * lam) - 1e-10 <= L <= lam * k + 1e-10


def test_fejer_l1_batch_bounded(walsh):
    sup = fejer_l1_batch(walsh, 64)[1:].max()
    assert sup <= 2.0


# Groups deep enough for every order n <= 200.
_TABLE_GROUPS = [make_group([2], 8), make_group([3], 5), make_group([2, 3, 4], 6),
                 make_group([5, 2], 5)]
_TABLE_IDS = ["m2", "m3", "m234", "m52"]


@pytest.mark.parametrize("g", _TABLE_GROUPS, ids=_TABLE_IDS)
def test_fejer_l1_batch_matches_the_naive_kernels(g):
    K1 = fejer_l1_batch(g, 200)
    assert K1[0] == 0.0
    for n in range(1, 201):
        naive = kernels._fejer_naive(g, n, min_resolution(g, n))
        assert K1[n] == pytest.approx(lp_norm_rows(naive, 1.0), rel=1e-12, abs=0)


@pytest.mark.parametrize("table", [lebesgue_batch, fejer_l1_batch])
def test_tables_refuse_a_negative_order(walsh, table):
    with pytest.raises(RangeError, match="nonnegative"):
        table(walsh, -1)
    assert table(walsh, 0).tolist() == [0.0]


@pytest.mark.parametrize("pattern,levels", [([2], 12), ([3], 9), ([2, 3, 4], 9), ([5], 8),
                                            ([5, 2], 8)])
def test_unit_mass_spectrum_is_one(pattern, levels):
    g = make_group(pattern, levels)
    for N in range(levels + 1):
        MN = g.order(N)
        c = transform_forward(delta(g, N, scale=MN)).coeffs
        # The stage pass gives exactly M_N at every n, and the division by
        # M_N is a true (correctly rounded) division of the real parts.
        assert np.all(c == 1.0), N


def test_degenerate_weights_rejected(walsh):
    q = wts.from_values([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateWeightsError):
        tmean_kernel(walsh, q, 2)


def test_min_resolution(walsh):
    assert min_resolution(walsh, 1) == 1
    assert min_resolution(walsh, 3) == 2
    assert min_resolution(walsh, 8) == 4


# The deepest groups of each pattern whose M_L stays within the index range.
_DEEP = [make_group([2], 60), make_group([3], 38), make_group([2, 3, 4], 39),
         make_group([5, 2], 36)]


@given(st.data())
def test_min_resolution_is_the_top_digit_plus_one(data):
    g = data.draw(st.sampled_from(_DEEP))
    n = data.draw(st.integers(min_value=0, max_value=g.M[g.levels] - 1))
    assert min_resolution(g, n) == digits_of(n, g).hi + 1


@pytest.mark.parametrize("g", _DEEP, ids=["m2", "m3", "m234", "m52"])
def test_min_resolution_at_block_edges(g):
    for k in range(g.levels):
        for n in (g.M[k] - 1, g.M[k], g.M[k + 1] - 1):
            assert min_resolution(g, n) == digits_of(n, g).hi + 1
    with pytest.raises(IndexOverflowError):
        min_resolution(g, g.M[g.levels])


def _kind_params(kind: str) -> dict:
    values = {"alpha": 0.5, "q": wts.power_weights(0.5, 60)}   # q_0..q_60: past every order read
    return {name: values[name] for name in param_names(kind)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("pattern,levels", [([2], 5), ([3], 3), ([2, 3, 4], 3)])
def test_mean_kernel_convolves_to_the_mean(kind, pattern, levels):
    g = make_group(pattern, levels + 1)
    f = random_grid_function(g, levels, seed=levels)
    params = _kind_params(kind)
    mean = mean_by_kind(kind, **params)
    for n in range(first_order(kind), g.M[levels]):
        K = mean_kernel(g, kind, n, N=levels, **params)
        assert np.abs(convolve(f, K).values - mean(f, n).values).max() < 1e-12


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("g", _TABLE_GROUPS, ids=_TABLE_IDS)
def test_unit_mass_sweep_rows_are_the_kernels(kind, g):
    params = _kind_params(kind)
    top = 60
    N = min_resolution(g, top)
    unit = delta(g, N, scale=g.order(N))
    seen = []
    for _, ns, rows in mean_blocks(unit, kind, range(first_order(kind), top + 1), **params):
        for n, row in zip(ns, rows):
            K = mean_kernel(g, kind, n, N=N, **params).values
            assert np.abs(np.tile(row, K.size // row.size) - K).max() <= 1e-12 * np.abs(K).max()
            seen.append(n)
    assert seen == list(range(first_order(kind), top + 1))


BAD_MEANS = [(kind, first_order(kind) - 1, _kind_params(kind)) for kind in sorted(_KINDS)] + [
    ("partial_sum", -1, {}),
    ("norlund", 3, {"q": wts.from_values([0.0, 1.0, 1.0, 1.0])}),
    ("tmean", 2, {"q": wts.from_values([0.0, 0.0, 1.0])}),
    ("v", 3, {"alpha": 1.0}),
    ("u", 3, {"alpha": 0.0}),
    ("cesaro", 3, {"alpha": 1.5}),
]


@pytest.mark.parametrize("kind,n,params", BAD_MEANS)
def test_mean_kernel_fails_like_the_mean(kind, n, params):
    g = make_group([2], 5)
    f = random_grid_function(g, 4, seed=5)
    try:
        expected = mean_by_kind(kind, **params)(f, n)
    except VilenkinError as exc:
        with pytest.raises(type(exc)):
            mean_kernel(g, kind, n, N=4, **params)
    else:   # S_0 f = 0: the partial-sum kernel D_0 is 0 as well
        K = mean_kernel(g, kind, n, N=4, **params)
        assert np.abs(convolve(f, K).values - expected.values).max() < 1e-12


_BLOCK_GROUPS = [([2], 6), ([3], 4), ([2, 3, 4], 4), ([5, 2], 4),
                 ([7], 3), ([13, 2], 3), ([2, 65], 2)]


def _block_tables(g):
    """Every block table of g, keyed by (builder, level, s, resolution)."""
    out = {}
    for N in range(1, g.levels + 1):
        for lvl in range(N + 1):
            out["dirichlet", lvl, 0, N] = dirichlet_block(g, lvl, N)
            out["fejer", lvl, 0, N] = kernels.fejer_block(g, lvl, N)
        for lvl in range(N):
            for s in range(1, g.m[lvl]):
                out["dirichlet_s", lvl, s, N] = kernels.dirichlet_s_block(g, s, lvl, N)
                out["fejer_s", lvl, s, N] = kernels._fejer_s_block(g, s, lvl, N)
                out["rotation", lvl, s, N] = kernels._rotation(g, lvl, s, N)
    return out


def _digit_matrix_tables(g, N):
    """The block tables of the rank-N grid and D_0 .. D_{M_N - 1}, from its digit matrix.

    These are the digit-by-digit mask formulas that the per-digit cells
    replaced.  K_{s M_l} is made of the other tables (``_full_grid_fejer``).
    """
    dm = digit_matrix(g, N)

    def low_zero(t):   # the indicator of I_t
        return np.all(dm[:t] == 0, axis=0)

    def geometric(m, k0, k1):
        return np.array([_unit_roots(m)[(np.arange(k0, k1) * v) % m].sum() for v in range(m)])

    tables = {}
    for lvl in range(N + 1):
        D = np.where(low_zero(lvl), float(g.M[lvl]), 0.0)
        tables["dirichlet", lvl, 0, N] = D.astype(np.complex128)
        K = np.zeros(g.order(N), dtype=np.complex128)
        K[low_zero(lvl)] = (g.M[lvl] + 1) / 2.0
        for t in range(lvl):
            mask = low_zero(t) & (dm[t] != 0) & np.all(dm[t + 1:lvl] == 0, axis=0)
            K[mask] = g.M[t] / (1.0 - _unit_roots(g.m[t])[dm[t][mask]])
        tables["fejer", lvl, 0, N] = K
    for lvl in range(N):
        m = g.m[lvl]
        for s in range(1, m):
            D = tables["dirichlet", lvl, 0, N]
            tables["dirichlet_s", lvl, s, N] = D * geometric(m, 0, s)[dm[lvl]]
            tables["rotation", lvl, s, N] = _unit_roots(m)[(s * dm[lvl]) % m]
    dirichlets = []
    for n in range(g.M[N]):   # the product formula: one full-grid term per nonzero digit
        acc = np.zeros(g.order(N), dtype=np.complex128)
        for j, d in digits_of(n, g).nonzero():
            acc += tables["dirichlet", j, 0, N] * geometric(g.m[j], g.m[j] - d, g.m[j])[dm[j]]
        dirichlets.append(character_column(g, n, N) * acc)
    return tables, dirichlets


def _full_grid_fejer(g, N, tables):
    """Add K_{s M_l} to ``tables`` and return K_1 .. K_{M_N - 1}, all on the rank-N grid.

    These are the full-grid loops of the block-average identity and of the
    block decomposition of n K_n that the per-digit cells replaced, fed with
    the rank-N tables D_{M_l}, K_{M_l}, D_{s M_l} and r_l^s of ``tables``.
    """
    for lvl in range(N):
        rpow = tables["rotation", lvl, 1, N]
        for s in range(1, g.m[lvl]):
            inner = np.zeros(g.order(N), dtype=np.complex128)   # sum_{l<s} sum_{i<l} r^i
            geo = np.zeros(g.order(N), dtype=np.complex128)     # sum_{l<s} r^l
            running = np.zeros_like(geo)
            term = np.ones_like(geo)
            for _ in range(s):
                geo += term
                inner += running
                running = running + term
                term = term * rpow
            M = float(g.M[lvl])
            D, K = tables["dirichlet", lvl, 0, N], tables["fejer", lvl, 0, N]
            tables["fejer_s", lvl, s, N] = (inner * M * D + geo * M * K) / (s * M)
    fejers = []
    for n in range(1, g.M[N]):
        blocks = list(reversed(digits_of(n, g).nonzero()))   # highest digit first
        acc = np.zeros(g.order(N), dtype=np.complex128)
        prefix = np.ones(g.order(N), dtype=np.complex128)
        remainder = n
        for i, (lvl, s) in enumerate(blocks):
            sM = s * g.M[lvl]
            remainder -= sM
            acc += prefix * sM * tables["fejer_s", lvl, s, N]
            if i < len(blocks) - 1:
                acc += prefix * remainder * tables["dirichlet_s", lvl, s, N]
                prefix = prefix * tables["rotation", lvl, s, N]
        fejers.append(acc / n)
    return fejers


@pytest.mark.parametrize("pattern,levels", _BLOCK_GROUPS)
def test_block_builders_match_the_digit_matrix_formulas(pattern, levels):
    g = make_group(pattern, levels)
    tables = _block_tables(g)
    for N in range(1, g.levels + 1):
        refs, dirichlets = _digit_matrix_tables(g, N)
        fejers = _full_grid_fejer(g, N, refs)
        assert refs.keys() == {key for key in tables if key[3] == N}
        for key, ref in refs.items():
            assert np.array_equal(tables[key], ref), key
        for n, ref in enumerate(dirichlets):
            assert np.array_equal(kernels._dirichlet_closed(g, n, N), ref), (n, N)
        for n, ref in enumerate(fejers, start=1):   # every n with |n| + 1 <= N
            assert np.array_equal(kernels._fejer_closed(g, n, N), ref), (n, N)


@pytest.mark.parametrize("pattern,levels", [([2], 6), ([3], 4), ([2, 3, 4], 4), ([5, 2], 4)])
def test_dirichlet_sweep_readers_equal_a_literal_accumulation(pattern, levels):
    from vilenkin.verify import _Workspace

    g = make_group(pattern, levels)
    L = g.levels
    top = g.M[L]
    psi = [character_column(g, k, L) for k in range(top)]
    # D_n and n K_n for n < M_L, one character added at a time
    Ds = [np.zeros(g.order(L), dtype=np.complex128)]
    nKs = [np.zeros(g.order(L), dtype=np.complex128)]
    D = Ds[0].copy()
    acc = nKs[0].copy()
    for n in range(1, top):
        D += psi[n - 1]
        acc += D
        Ds.append(D.copy())
        nKs.append(acc.copy())
    for n in range(top):
        assert np.array_equal(kernels._dirichlet_naive(g, n, L), Ds[n]), n
    for n in range(1, top):
        assert np.array_equal(kernels._fejer_naive(g, n, L), nKs[n] / n), n
    expect = np.array([0.0] + [np.abs(Ds[n]).mean() for n in range(1, top)])
    assert np.array_equal(lebesgue_batch(g, top - 1), expect)
    # the workspace holds D_0 .. D_{cap+1}, each row the row before plus a character
    ws = _Workspace(g, top - 1)
    Dw = np.zeros((top + 1, g.order(L)), dtype=np.complex128)
    for n in range(1, top + 1):
        Dw[n] = Dw[n - 1] + psi[n - 1]
    assert ws.N == L
    assert np.array_equal(ws.D, Dw)
    assert np.array_equal(np.abs(ws.D[:top]).mean(axis=1), expect)   # the inequality suite's L_n
    assert np.array_equal(ws.B, np.cumsum(Dw, axis=0))


def test_oversized_mean_kernel_is_refused_before_its_weights_are_built(monkeypatch):
    # the weight row of order 2^24 would take 134 MB before the grid check
    calls = []
    build, names, least = _KINDS["tmean"]

    def counted(ns, size, q):
        calls.append(size)
        return build(ns, size, q)

    monkeypatch.setitem(_KINDS, "tmean", (counted, names, least))
    with pytest.raises(RangeError, match="33554432 points"):
        mean_kernel(make_group([2], 25), "tmean", 1 << 24, q=wts.ones(3))
    assert calls == []
