import numpy as np
import pytest

from lipgames import CountDistribution, IntegerPmf


def test_prob_inside_and_outside_support():
    pmf = IntegerPmf(-1, [0.25, 0.5, 0.25])
    assert pmf.prob(-1) == 0.25
    assert pmf.prob(0) == 0.5
    assert pmf.prob(1) == 0.25
    assert pmf.prob(2) == 0.0
    assert pmf.prob(-5) == 0.0
    assert pmf.support_min == -1
    assert pmf.support_max == 1


@pytest.mark.parametrize("t", (True, 1.0, 1.5, np.float64(0.0), None), ids=repr)
def test_prob_refuses_a_non_integer_value(t):
    pmf = IntegerPmf(-1, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError, match="value must be an integer"):
        pmf.prob(t)
    assert pmf.prob(np.int64(1)) == pmf.prob(-1) == 0.25


def test_rejects_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        IntegerPmf(0, [1.1, -0.1])


def test_rejects_bad_total():
    with pytest.raises(ValueError, match="sum"):
        IntegerPmf(0, [0.5, 0.4])


def test_rejects_empty_and_multidim():
    with pytest.raises(ValueError):
        IntegerPmf(0, [])
    with pytest.raises(ValueError):
        IntegerPmf(0, np.ones((2, 2)) / 4.0)


def test_rejects_nan_entry():
    with pytest.raises(ValueError, match="nonnegative"):
        IntegerPmf(0, [np.nan])


@pytest.mark.parametrize(
    "build",
    (lambda probs: IntegerPmf(0, probs), lambda probs: CountDistribution(1, 2, probs)),
    ids=("IntegerPmf", "CountDistribution"),
)
def test_one_sum_guard_tolerance(build):
    # both classes share SUM_GUARD_TOL = 1e-11
    assert np.array_equal(build(np.array([0.5, 0.5 + 2e-12])).probs, [0.5, 0.5 + 2e-12])
    with pytest.raises(ValueError, match="sum"):
        build(np.array([0.5, 0.5 + 2e-11]))
