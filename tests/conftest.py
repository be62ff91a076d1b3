import pytest

from vilenkin import means
from vilenkin.group import make_group


def mean_by_kind(kind: str, **params):
    """The per-order mean (f, n) -> mean_n f of a summation kind, bound to its parameters."""
    return means._method(kind, params)[0]


@pytest.fixture
def walsh():
    return make_group([2], 12)


@pytest.fixture
def triadic():
    return make_group([3], 8)


@pytest.fixture
def mixed():
    return make_group([2, 3, 4], 8)


@pytest.fixture(params=[[2], [3], [2, 3, 4]], ids=["m2", "m3", "m234"])
def any_group(request):
    pattern = request.param
    levels = 12 if pattern == [2] else 8
    return make_group(pattern, levels)
