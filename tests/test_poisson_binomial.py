import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgames import (
    BudgetExceededError,
    IntegrityError,
    binomial_collision_prob,
    normal_approx_error,
    pb_mode,
    pb_pmf,
    point_prob,
    two_block_max_prob,
    unit_shift_tv,
)
from lipgames import lipschitz, lipschitz_two_action, poisson_binomial

import brute


def test_empty_sum_is_point_mass():
    pmf = pb_pmf([], shift=3)
    assert pmf.prob(3) == 1.0
    assert pmf.support_min == pmf.support_max == 3


def test_fair_pair_is_binomial():
    pmf = pb_pmf([0.5, 0.5])
    assert pmf.prob(0) == 0.25
    assert pmf.prob(1) == 0.5
    assert pmf.prob(2) == 0.25


def test_signed_pair():
    pmf = pb_pmf([0.25, 0.25], signs=[1, -1])
    assert pmf.prob(-1) == pytest.approx(0.1875, abs=1e-15)
    assert pmf.prob(0) == pytest.approx(0.625, abs=1e-15)
    assert pmf.prob(1) == pytest.approx(0.1875, abs=1e-15)


@pytest.mark.parametrize(
    "probs,shift,signs",
    [
        ([0.2, 0.7, 0.4], 0, None),
        ([0.2, 0.7, 0.4], -2, [1, -1, 1]),
        ([0.9, 0.1, 0.5, 0.5], 5, [-1, -1, 1, -1]),
    ],
)
def test_pmf_matches_enumeration(probs, shift, signs):
    pmf = pb_pmf(probs, shift, signs)
    law = brute.pb_law(probs, shift, signs)
    assert pmf.probs.size == len(probs) + 1
    for t in range(pmf.support_min - 1, pmf.support_max + 2):
        assert pmf.prob(t) == pytest.approx(law.get(t, 0.0), abs=1e-14)


def test_mode_examples():
    assert pb_mode([0.5, 0.5]) == 1
    assert pb_mode([0.9, 0.9, 0.9]) == 3
    assert pb_mode([0.5, 0.5, 0.5]) == 1  # ties break low; mean is 1.5


def test_mode_with_shift_and_signs():
    assert pb_mode([0.9, 0.9], shift=4, signs=[-1, -1]) == 2
    assert pb_mode([0.9, 0.9], shift=np.int64(4), signs=np.array([-1, -1])) == 2


def test_tv_shift_examples():
    assert unit_shift_tv([]) == 1.0
    assert unit_shift_tv([0.25]) == 0.75
    assert unit_shift_tv([0.5, 0.5]) == 0.5


def test_tv_shift_equals_half_l1_by_hand():
    # law (0.1875, 0.625, 0.1875): unit shift differs by
    # 0.1875 + 0.4375 + 0.4375 + 0.1875 = 1.25 in L1; half is the peak
    value = unit_shift_tv([0.25, 0.25], signs=[1, -1])
    assert value == pytest.approx(0.625, abs=1e-15)


def test_normal_error_rejects_degenerate():
    with pytest.raises(ValueError, match="variance"):
        normal_approx_error([1.0, 0.0])


def test_normal_error_single_coin():
    gap, sigma = normal_approx_error([0.5])
    assert sigma == 0.5
    expected = brute.normal_gap([(0, 0.5), (1, 0.5)], 0.5, 0.5)
    assert gap == pytest.approx(expected, abs=1e-15)
    # deterministic terms only shift the mean
    gap2, sigma2 = normal_approx_error([1.0, 0.0, 0.5])
    assert sigma2 == 0.5
    assert gap2 == pytest.approx(gap, abs=1e-15)


def test_normal_error_sixteen_coins():
    gap, sigma = normal_approx_error([0.5] * 16)
    assert sigma == 2.0
    pmf = [(t, math.comb(16, t) / 2.0**16) for t in range(17)]
    assert gap == pytest.approx(brute.normal_gap(pmf, 8.0, 2.0), abs=1e-13)
    assert gap <= 0.25 / sigma


def test_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        pb_pmf([0.5, 1.2])
    with pytest.raises(ValueError):
        pb_pmf([-0.01])
    with pytest.raises(ValueError):
        pb_pmf([0.5], signs=[2])
    with pytest.raises(ValueError):
        pb_pmf([0.5, 0.5], signs=[1])


@pytest.mark.parametrize("shift", (4.7, 0.5, 1.0, True, np.float64(2.0)), ids=repr)
def test_fractional_or_bool_shift_is_refused(shift):
    # int(shift) used to truncate: pb_mode([.9, .9], shift=4.7) returned 6
    for call in (pb_pmf, pb_mode, unit_shift_tv, normal_approx_error):
        with pytest.raises(ValueError, match="shift must be an integer"):
            call([0.9, 0.9], shift)


@pytest.mark.parametrize("signs", ([1.5, -1], [1.0, -1.0], [True, True], np.array([True, True])), ids=repr)
def test_fractional_or_bool_signs_are_refused(signs):
    # the int64 cast used to truncate 1.5 to 1 and read True as +1
    for call in (pb_pmf, pb_mode, unit_shift_tv, normal_approx_error):
        with pytest.raises(ValueError, match="sign"):
            call([0.5, 0.5], 0, signs)


def test_two_block_trivial_and_examples():
    assert two_block_max_prob(0, 0.3).value == 1.0
    assert two_block_max_prob(0, 0.3).split == 0
    one = two_block_max_prob(1, 0.5)
    assert one.value == pytest.approx(0.75, abs=1e-15)
    assert (one.split, one.point) == (1, 0)
    two = two_block_max_prob(2, 0.5)
    assert two.value == pytest.approx(0.625, abs=1e-15)
    assert (two.split, two.point) == (1, 1)


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("delta", (0.25, 0.5, 0.75))
def test_two_block_matches_exhaustive(n, delta):
    result = two_block_max_prob(n, delta)
    best, argmax = brute.two_block_value(n, delta)
    assert result.value == pytest.approx(float(best), abs=1e-14)
    assert (result.split, result.point) in argmax


def test_two_block_mirror_tie_goes_to_larger_split():
    # splits 5 and 64 attain the same maximum; rounding puts 5 one ulp higher
    result = two_block_max_prob(69, 0.95)
    assert result.split == 64


@pytest.mark.parametrize("m", (1, 3, 5, 7))
def test_two_block_tie_within_split_goes_to_smallest_outcome(m):
    # near delta = 1 every split is Binomial(m, 1/2), so the largest split
    # wins and its two middle outcomes tie; the smaller one is reported
    result = two_block_max_prob(m, 1 - 1e-13)
    assert (result.split, result.point) == (m, (m - 1) // 2)


def _split_peaks(n, delta):
    """Largest point probability of every split, from math.comb pmfs."""
    q = 0.5 * delta

    def binom(size, p):
        return np.array([math.comb(size, i) * p**i * (1 - p) ** (size - i) for i in range(size + 1)])

    return np.array([np.convolve(binom(l, q), binom(n - l, 1 - q)).max() for l in range(n + 1)])


@pytest.mark.parametrize("delta", (0.1, 0.5, 0.95))
def test_two_block_reports_largest_tied_split(delta):
    for n in range(1, 81, 2):
        result = two_block_max_prob(n, delta)
        peaks = _split_peaks(n, delta)
        tied = np.flatnonzero(peaks >= peaks.max() - 1e-12)
        assert result.split == tied.max()
        # at odd n the mirror split n - l ties with l, so the larger one wins
        assert result.split > n / 2
        assert n - result.split in tied


def test_collision_is_the_walk_sum_over_even_moves_and_squares_nothing():
    # the window and the parity factor passage_prob reads, and no product of a pmf with itself
    tree = ast.parse(inspect.getsource(binomial_collision_prob))
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert {"binomial_window", "rw._parity"} <= called
    squares = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.BinOp)
               and (isinstance(node.op, ast.Pow) or ast.unparse(node.left) == ast.unparse(node.right))]
    assert squares == []


def test_collision_examples():
    assert binomial_collision_prob(0, 0.5) == 1.0
    assert binomial_collision_prob(1, 0.5) == pytest.approx(0.625, abs=1e-15)
    # 59/128, from squaring the Binomial(2, 1/4) pmf exactly
    assert binomial_collision_prob(2, 0.5) == pytest.approx(0.4609375, abs=1e-15)
    assert binomial_collision_prob(3, 0.25) == pytest.approx(
        float(brute.collision_exact(3, 0.25)), abs=1e-15
    )


@pytest.mark.parametrize("delta", (0.1, 0.25, 0.5, 0.75, 0.9))
def test_collision_equals_walk_origin_prob(delta):
    rate = delta * (1.0 - 0.5 * delta)
    for n in range(0, 40):
        walk = point_prob(n, rate, 0)
        assert abs(binomial_collision_prob(n, delta) - walk) <= 1e-12


@pytest.mark.parametrize("delta", (0.1, 0.25, 0.5, 0.75, 0.9))
def test_split_max_at_even_count_equals_collision(delta):
    for n in range(0, 31):
        assert abs(
            two_block_max_prob(2 * n, delta).value - binomial_collision_prob(n, delta)
        ) <= 1e-12


@pytest.mark.parametrize("delta", (0.1, 0.5, 0.9))
def test_split_max_decreasing(delta):
    values = [two_block_max_prob(n, delta).value for n in range(0, 41)]
    assert all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("delta", (0.1, 0.25, 0.5, 0.75, 0.9))
def test_split_max_collision_sandwich(delta):
    # at even n the sandwich is an equality, so both ends carry the rounding
    # tolerance of the two independent computation routes
    for n in range(0, 61):
        value = two_block_max_prob(n, delta).value
        low = binomial_collision_prob((n + 1) // 2, delta)
        high = math.sqrt(low * binomial_collision_prob(n // 2, delta))
        assert low - 1e-12 <= value <= high + 1e-12


def test_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            two_block_max_prob(3, delta)
        with pytest.raises(ValueError):
            binomial_collision_prob(3, delta)
    with pytest.raises(ValueError):
        two_block_max_prob(-1, 0.5)


def test_split_scan_limit_is_checked_before_running(monkeypatch):
    limit = poisson_binomial.SPLIT_SCAN_LIMIT
    # every route that scans stays inside the limit: the dispatcher's exact
    # two-action range, verify (n <= 12), these tests and demo 02
    assert limit >= lipschitz.TWO_ACTION_EXACT_LIMIT - 2
    for call in (lambda: two_block_max_prob(limit + 1, 0.3),
                 lambda: lipschitz_two_action(limit + 3, 0.3),
                 lambda: lipschitz_two_action(10**5, 0.3)):
        with pytest.raises(BudgetExceededError, match="split scan"):
            call()
    at_limit = two_block_max_prob(5, 0.3)
    monkeypatch.setattr(poisson_binomial, "SPLIT_SCAN_LIMIT", 5)
    assert two_block_max_prob(5, 0.3) == at_limit
    assert lipschitz_two_action(7, 0.3).value > 0.0
    with pytest.raises(BudgetExceededError):
        two_block_max_prob(6, 0.3)
    with pytest.raises(BudgetExceededError):
        lipschitz_two_action(8, 0.3)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from((-1, 1))), min_size=1, max_size=25
    ),
    shift=st.integers(-5, 5),
)
def test_mode_and_dual_tv_properties(data, shift):
    probs = [p for p, _ in data]
    signs = [s for _, s in data]
    assert abs(pb_pmf(probs, shift, signs).probs.sum() - 1.0) <= 1e-12
    mu = shift + sum(s * p for p, s in zip(probs, signs))
    mode = pb_mode(probs, shift, signs)
    assert mode in (math.floor(mu), math.ceil(mu))
    # the dual-route agreement assertion lives inside unit_shift_tv
    value = unit_shift_tv(probs, shift, signs)
    assert 0.0 < value <= 1.0


def test_dual_route_mismatch_raises(monkeypatch):
    import lipgames.poisson_binomial as module

    monkeypatch.setattr(module, "DUAL_ROUTE_TOL", -1.0)
    with pytest.raises(IntegrityError):
        unit_shift_tv([0.5, 0.5])


def test_rejects_nan_probability():
    with pytest.raises(ValueError):
        pb_pmf([np.nan, 0.5])
