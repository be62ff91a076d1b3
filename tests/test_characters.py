import cmath

import numpy as np
import pytest

from vilenkin.errors import DomainError
from vilenkin.characters import (
    _unit_roots,
    character_column,
    character_matrix,
    rademacher,
    vilenkin_psi,
    walsh,
)
from vilenkin.group import group_add, group_sub, make_group, point_from_index


def test_rademacher_values():
    g = make_group([2, 3], 2)
    x0 = point_from_index(0, g, 2)
    assert rademacher(0, x0) == 1
    x1 = point_from_index(1, g, 2)
    assert rademacher(0, x1) == pytest.approx(-1)
    g3 = make_group([3], 1)
    assert rademacher(0, point_from_index(1, g3, 1)) == pytest.approx(cmath.exp(2j * cmath.pi / 3))


def test_psi_empty_product():
    g = make_group([2, 3, 4], 3)
    for i in range(g.order(3)):
        assert vilenkin_psi(0, point_from_index(i, g, 3)) == 1


def test_psi_walsh_value():
    g = make_group([2], 4)
    x = point_from_index(3, g, 4)   # (1,1,0,0)
    assert vilenkin_psi(3, x) == pytest.approx(1.0)
    assert walsh(3, x) == 1.0
    assert walsh(1, x) == -1.0


def test_psi_triadic_value():
    g = make_group([3], 2)
    x = point_from_index(2, g, 2)
    assert vilenkin_psi(1, x) == pytest.approx(cmath.exp(4j * cmath.pi / 3))


def test_walsh_requires_dyadic():
    g = make_group([2, 3], 2)
    with pytest.raises(DomainError):
        walsh(1, point_from_index(0, g, 2))


def test_walsh_at_zero():
    g = make_group([2], 5)
    zero = point_from_index(0, g, 5)
    assert all(walsh(n, zero) == 1.0 for n in range(32))


def test_multiplicativity_exhaustive(any_group):
    g = any_group
    M3 = g.order(3)
    for n in range(min(M3, 16)):
        for i in range(0, M3, 3):
            for j in range(0, M3, 5):
                x, y = point_from_index(i, g, 3), point_from_index(j, g, 3)
                lhs = vilenkin_psi(n, group_add(x, y))
                rhs = vilenkin_psi(n, x) * vilenkin_psi(n, y)
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_conjugation(any_group):
    g = any_group
    zero = point_from_index(0, g, 3)
    for n in range(min(8, g.order(3))):
        for i in range(g.order(3)):
            x = point_from_index(i, g, 3)
            assert vilenkin_psi(n, group_sub(zero, x)) == pytest.approx(
                vilenkin_psi(n, x).conjugate(), abs=1e-12)


def test_orthonormality(any_group):
    g = any_group
    N = 3 if g.order(3) <= 256 else 2
    MN = g.order(N)
    C = character_matrix(g, MN, N)
    gram = (C @ C.conj().T) / MN
    assert np.abs(gram - np.eye(MN)).max() < 1e-10


def test_character_column_matches_pointwise():
    g = make_group([2, 3, 4], 3)
    col = character_column(g, 7, 3)
    for i in range(g.order(3)):
        assert col[i] == pytest.approx(vilenkin_psi(7, point_from_index(i, g, 3)), abs=1e-12)


def test_psi_constant_on_fine_cosets():
    # psi_n depends only on digits up to |n|
    g = make_group([2], 6)
    col = character_column(g, 5, 6)   # |5| = 2, constant on I_3 cosets
    M3 = g.M[3]
    for h in range(1, g.order(6) // M3):
        assert np.abs(col[h * M3:(h + 1) * M3] - col[:M3]).max() < 1e-15


def test_cached_unit_roots_are_read_only():
    # every later character reads this table: a write would change them all
    roots = _unit_roots(3)
    with pytest.raises(ValueError):
        roots[1] = 1.0
    assert roots is _unit_roots(3) and roots[0] == 1.0
