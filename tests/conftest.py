import pytest

from vilenkin import means
from vilenkin.group import make_group
from vilenkin.spectral import partial_sum

# kind -> its public per-order mean on the full grid, the oracle of the sweep
# tests; each takes the kind's parameters by name
_MEANS = {
    "partial_sum": partial_sum,
    "fejer": means.fejer_mean,
    "cesaro": means.cesaro_mean,
    "u": means.u_mean,
    "v": means.v_mean,
    "riesz_log": means.riesz_log_mean,
    "norlund_log": means.norlund_log_mean,
    "norlund": means.norlund_mean,
    "tmean": means.t_mean,
}


def mean_by_kind(kind: str, **params):
    """The per-order mean (f, n) -> mean_n f of a summation kind, bound to its parameters."""
    mean = _MEANS[kind]
    return lambda f, n: mean(f, n, **params)


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


# Groups on which the index-arithmetic digit sites are compared with the
# digit-matrix formulas they replaced: (radix pattern, levels)
DIGIT_GROUPS = [([2], 1), ([2], 4), ([2], 8), ([3], 5), ([2, 3, 4], 4), ([5, 2], 4),
                ([13, 2], 3), ([2, 65], 3)]


@pytest.fixture(params=DIGIT_GROUPS,
                ids=[",".join(map(str, p)) + f"^{L}" for p, L in DIGIT_GROUPS])
def digit_group(request):
    pattern, levels = request.param
    return make_group(pattern, levels)
