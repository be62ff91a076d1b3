import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vilenkin.errors import IndexOverflowError, InvalidGroupError, ShapeMismatchError
from vilenkin.group import (
    assemble,
    coset_partition,
    digit_matrix,
    digits_of,
    group_add,
    group_sub,
    index_sub,
    make_group,
    nat_hat_add,
    nat_hat_sub,
    point_from_index,
    point_norm,
    variation_v,
    variation_vstar,
)


def test_make_group_dyadic():
    g = make_group([2], 4)
    assert g.M == (1, 2, 4, 8, 16)
    assert g.lam == 2


def test_make_group_explicit():
    g = make_group([2, 3, 4])
    assert g.M == (1, 2, 6, 24)
    assert g.lam == 4


def test_make_group_pattern_repeats():
    g = make_group([2, 3], 5)
    assert g.m == (2, 3, 2, 3, 2)


def test_make_group_rejects_small_radix():
    with pytest.raises(InvalidGroupError):
        make_group([1, 2])


def test_make_group_rejects_overflow():
    with pytest.raises(IndexOverflowError):
        make_group([2], 80)


def test_digits_of_binary():
    g = make_group([2], 6)
    nd = digits_of(5, g)
    assert nd.digits[:3] == (1, 0, 1)
    assert (nd.hi, nd.lo, nd.rho) == (2, 0, 2)


def test_digits_of_mixed():
    g = make_group([2, 3, 4], 4)
    nd = digits_of(7, g)
    assert nd.digits == (1, 0, 1, 0)   # 7 = 1 + 0*2 + 1*6
    assert (nd.hi, nd.lo) == (2, 0)


def test_digits_of_block_index():
    g = make_group([2], 6)
    nd = digits_of(8, g)
    assert nd.digits[:4] == (0, 0, 0, 1)
    assert nd.hi == nd.lo == 3 and nd.rho == 0


def test_digits_zero_conventions():
    g = make_group([2], 4)
    nd = digits_of(0, g)
    assert nd.hi == nd.lo == nd.rho == 0
    assert variation_v(nd) == variation_vstar(nd) == 0


def test_digits_out_of_range():
    g = make_group([2], 3)
    with pytest.raises(IndexOverflowError):
        digits_of(8, g)


@given(st.integers(min_value=0, max_value=4095))
def test_digit_round_trip(n):
    g = make_group([2, 3, 4, 5], 8)
    nd = digits_of(n, g)
    assert assemble(nd.digits, g) == n


def test_group_add_walsh():
    g = make_group([2], 2)
    x = point_from_index(1, g, 2)   # (1, 0)
    y = point_from_index(3, g, 2)   # (1, 1)
    assert group_add(x, y).digits == (0, 1)
    assert group_add(x, x).digits == (0, 0)


def test_group_add_triadic():
    g = make_group([3], 2)
    x = point_from_index(2 + 3, g, 2)   # (2, 1)
    y = point_from_index(2 + 6, g, 2)   # (2, 2)
    assert group_add(x, y).digits == (1, 0)


def test_group_sub_inverts_add():
    g = make_group([2, 3, 4], 3)
    for i in range(g.order(3)):
        for j in range(0, g.order(3), 5):
            x, y = point_from_index(i, g, 3), point_from_index(j, g, 3)
            assert group_sub(group_add(x, y), y).digits == x.digits


def test_group_laws_exhaustive():
    g = make_group([2, 3], 2)
    pts = [point_from_index(i, g, 2) for i in range(g.order(2))]
    zero = pts[0]
    for x in pts:
        assert group_add(x, zero).digits == x.digits
        for y in pts:
            assert group_add(x, y).digits == group_add(y, x).digits
            for z in pts:
                assert (group_add(group_add(x, y), z).digits
                        == group_add(x, group_add(y, z)).digits)


def test_group_add_shape_error():
    g = make_group([2], 3)
    with pytest.raises(ShapeMismatchError):
        group_add(point_from_index(0, g, 2), point_from_index(0, g, 3))


def test_hat_add_walsh():
    g = make_group([2], 4)
    assert nat_hat_add(3, 1, g) == 2
    assert nat_hat_sub(5, 5, g) == 0


def test_hat_add_triadic():
    g = make_group([3], 4)
    assert nat_hat_add(4, 4, g) == 8   # digits (1,1)+(1,1) = (2,2)


def test_hat_add_matches_pointwise(any_group):
    g = any_group
    for n in range(0, 30, 7):
        assert nat_hat_add(n, 0, g) == n
        for k in range(0, 30, 11):
            s = nat_hat_add(n, k, g)
            dn, dk = digits_of(n, g).digits, digits_of(k, g).digits
            expect = [(a + b) % g.m[j] for j, (a, b) in enumerate(zip(dn, dk))]
            assert digits_of(s, g).digits == tuple(expect)


def test_point_norm():
    g = make_group([2], 3)
    assert point_norm(point_from_index(0, g, 3)) == 0.0
    assert point_norm(point_from_index(1, g, 3)) == 0.5
    g2 = make_group([2, 3], 2)
    assert point_norm(point_from_index(1 + 2 * 2, g2, 2)) == pytest.approx(1 / 2 + 2 / 6)


def test_coset_partition_single_shell():
    g = make_group([2], 4)
    part = coset_partition(g, 1)
    assert len(part.cells) == 1
    k, l, idx = part.cells[0]
    assert (k, l) == (0, 1) and list(idx) == [1]


def _digit_matrix_partition(g, N):
    """Shells and cells of the complement of I_N, as masks of the digit matrix."""
    dm = digit_matrix(g, N)
    shells = [(s, np.nonzero(np.all(dm[:s] == 0, axis=0) & (dm[s] != 0))[0]) for s in range(N)]
    cells = []
    for k in range(N):
        low_zero = np.all(dm[:k] == 0, axis=0) & (dm[k] != 0)
        for l in range(k + 1, N + 1):
            mask = low_zero & np.all(dm[k + 1:l] == 0, axis=0)
            if l < N:
                mask &= dm[l] != 0
            if mask.any():
                cells.append((k, l, np.nonzero(mask)[0]))
    return shells, cells


def test_coset_partition_matches_the_digit_matrix_masks(digit_group):
    g = digit_group
    for N in range(1, g.levels + 1):
        part = coset_partition(g, N)
        shells, cells = _digit_matrix_partition(g, N)
        assert [s for s, _ in part.shells] == [s for s, _ in shells]
        assert [(k, l) for k, l, _ in part.cells] == [(k, l) for k, l, _ in cells]
        for (_, got), (_, ref) in zip(part.shells, shells):
            assert np.array_equal(got, ref)
        for (_, _, got), (_, _, ref) in zip(part.cells, cells):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_coset_partition_covers(any_group, N):
    g = any_group
    part = coset_partition(g, N)
    seen = np.zeros(g.order(N), dtype=int)
    for _, _, idx in part.cells:
        seen[idx] += 1
    assert seen[0] == 0
    assert (seen[1:] == 1).all()
    shells = np.zeros(g.order(N), dtype=int)
    for _, idx in part.shells:
        shells[idx] += 1
    assert shells[0] == 0 and (shells[1:] == 1).all()


def test_variation_values_walsh():
    g = make_group([2], 8)
    assert variation_v(digits_of(3, g)) == 2
    assert variation_v(digits_of(5, g)) == 3
    assert variation_vstar(digits_of(3, g)) == 0
    # dyadic groups have vstar identically zero
    assert all(variation_vstar(digits_of(n, g)) == 0 for n in range(1, 64))


def test_variation_vstar_triadic():
    g = make_group([3], 4)
    assert variation_vstar(digits_of(4, g)) == 2   # digits (1,1), each |(-1 mod 3) - 1| = 1


def test_variation_variants_differ():
    g = make_group([2], 8)
    nd = digits_of(6, g)   # digits (0,1,1): literal misses the leading step
    assert variation_v(nd, start=1) == 1
    assert variation_v(nd, start=0) == 2


@st.composite
def _grid_indices(draw):
    """A group of radices 2..97 with M_N <= 2^12, its rank N, and index arrays x, h."""
    radices, order = [], 1
    while order * 2 <= 1 << 12 and (not radices or draw(st.booleans())):
        radices.append(draw(st.integers(2, min(97, (1 << 12) // order))))
        order *= radices[-1]
    g = make_group(radices)
    N = draw(st.integers(0, g.levels))
    index = st.integers(0, g.order(N) - 1)
    x = draw(st.lists(index, min_size=1, max_size=6))
    h = draw(st.lists(index, min_size=1, max_size=6))
    return g, N, x, h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_grid_indices())
def test_index_sub_vectorized(case):
    # arrays of x and h broadcast; so do a single x or a single h
    g, N, x, h = case
    out = index_sub(g, N, np.array(x)[:, None], np.array(h)[None, :])
    assert out.shape == (len(x), len(h)) and out.dtype == np.int64
    for a, i in enumerate(x):
        for b, j in enumerate(h):
            diff = group_sub(point_from_index(i, g, N), point_from_index(j, g, N))
            assert out[a, b] == diff.index()
    assert np.array_equal(index_sub(g, N, x[0], np.array(h)), out[0])
    assert np.array_equal(index_sub(g, N, np.array(x), h[0]), out[:, 0])
