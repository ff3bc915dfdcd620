import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgames import BudgetExceededError, passage_prob, point_prob, stay_below_prob, walk_pmf
from lipgames import integer_pmf, random_walk
from lipgames.random_walk import MAX_DP_STEPS

import brute

RATE_GRID = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0)


def test_zero_steps_is_point_mass():
    pmf = walk_pmf(0, 0.5)
    assert pmf.prob(0) == 1.0
    assert pmf.support_min == pmf.support_max == 0


def test_single_step_law():
    pmf = walk_pmf(1, 0.5)
    assert pmf.prob(-1) == 0.25
    assert pmf.prob(0) == 0.5
    assert pmf.prob(1) == 0.25


def test_two_step_law_matches_enumeration():
    # nine increment pairs: P(0) = (1-r)^2 + r^2/2, P(+-1) = r(1-r), P(+-2) = r^2/4
    pmf = walk_pmf(2, 0.5)
    assert pmf.prob(0) == pytest.approx(0.375, abs=1e-15)
    assert pmf.prob(1) == pytest.approx(0.25, abs=1e-15)
    assert pmf.prob(-1) == pytest.approx(0.25, abs=1e-15)
    assert pmf.prob(2) == pytest.approx(0.0625, abs=1e-15)
    law = brute.walk_law(2, 0.5)
    for t in range(-2, 3):
        assert pmf.prob(t) == pytest.approx(law.get(t, 0.0), abs=1e-15)


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("r", (0.3, 0.5, 1.0))
def test_pmf_matches_enumeration(n, r):
    pmf = walk_pmf(n, r)
    law = brute.walk_law(n, r)
    for t in range(-n - 1, n + 2):
        assert pmf.prob(t) == pytest.approx(law.get(t, 0.0), abs=1e-13)


def test_passage_examples():
    assert passage_prob(0, 0.7) == 1.0
    assert passage_prob(2, 0.5) == pytest.approx(0.625, abs=1e-15)
    assert passage_prob(1, 1 / 3) == pytest.approx(5 / 6, abs=1e-15)


def test_passage_does_not_depend_on_call_order():
    cases = [(n, r) for n in (0, 1, 2, 3, 7, 64, 65, 300, 1000, 4097, 20000) for r in (0.05, 0.37, 1.0)]
    expected = {case: passage_prob(*case) for case in cases}
    for order in (sorted(cases), sorted(cases, reverse=True), random.Random(5).sample(cases, len(cases))):
        # every value is positive, so equal floats are equal bits
        assert {case: passage_prob(*case) for case in order} == expected


def test_no_call_builds_or_replaces_the_parity_table(monkeypatch):
    table = random_walk._PARITY
    monkeypatch.setattr(random_walk, "_parity_table", None)  # a call that built one would fail
    for n in [*range(1000), 2**14 - 1, 2**14, 10**6]:
        passage_prob(n, 0.3)
    assert random_walk._PARITY is table and not table.flags.writeable


def test_refusal_follows_the_window_budget_and_leaves_the_table(monkeypatch):
    # up to 99 steps at rate 0.3 the window is the whole support, 101 entries at 100
    monkeypatch.setattr(integer_pmf, "MAX_WINDOW", 100)
    table = random_walk._PARITY
    assert passage_prob(99, 0.3) == pytest.approx(brute.passage_prob_by_parity(99, 0.3), rel=1e-15)
    with pytest.raises(BudgetExceededError, match="^binomial pmf needs 101 window entries, "):
        passage_prob(100, 0.3)
    assert random_walk._PARITY is table


def test_stay_below_examples():
    assert stay_below_prob(0, 0.9) == 1.0
    assert stay_below_prob(1, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert stay_below_prob(2, 0.5) == pytest.approx(0.625, abs=1e-15)


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("r", (0.3, 0.5, 1.0))
def test_stay_below_matches_enumeration(n, r):
    assert stay_below_prob(n, r) == pytest.approx(brute.stay_below(n, r), abs=1e-13)


def test_point_prob_examples():
    assert point_prob(1, 0.5, 0) == 0.5
    assert point_prob(3, 1.0, 0) == 0.0  # parity: odd steps at full rate
    assert point_prob(2, 0.3, 1) == pytest.approx(0.21, abs=1e-15)
    assert point_prob(2, 0.3, 5) == 0.0


@pytest.mark.parametrize("t", (True, False, 1.0, 1.5, np.float64(0.0), "1"), ids=repr)
def test_point_prob_refuses_a_non_integer_position(monkeypatch, t):
    # True used to read as P(1), and 1.0 or 1.5 raised IndexError
    monkeypatch.setattr(random_walk, "walk_pmf", None)  # refused before the walk runs
    with pytest.raises(ValueError, match="position must be an integer"):
        point_prob(3, 0.5, t)


@pytest.mark.parametrize("r", (True, np.True_))
def test_bool_rate_is_refused(r):
    # passage_prob(5, True) used to return 0.3125, the value at rate 1
    for call in (passage_prob, walk_pmf, stay_below_prob):
        with pytest.raises(ValueError, match="rate"):
            call(5, r)


@pytest.mark.parametrize("r", RATE_GRID)
def test_reflection_identity_grid(r):
    for n in range(0, 61):
        assert abs(stay_below_prob(n, r) - passage_prob(n, r)) <= 1e-12


@pytest.mark.parametrize("r", RATE_GRID)
def test_passage_monotone_in_steps(r):
    values = [passage_prob(n, r) for n in range(0, 80)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_full_rate_doubling_identity():
    # a 2m-step full-rate walk is a doubled m-step half-rate walk
    for m in (1, 3, 8, 15):
        fast = walk_pmf(2 * m, 1.0)
        half = walk_pmf(m, 0.5)
        for t in range(-2 * m, 2 * m + 1):
            expected = half.prob(t // 2) if t % 2 == 0 else 0.0
            assert fast.prob(t) == pytest.approx(expected, abs=1e-13)


def test_symmetry_is_bitwise():
    for n, r in ((17, 0.3), (64, 0.77), (101, 1.0)):
        probs = walk_pmf(n, r).probs
        assert np.array_equal(probs, probs[::-1])


def test_normalisation_tight():
    for n, r in ((50, 0.01), (200, 0.5), (150, 1.0)):
        assert abs(walk_pmf(n, r).probs.sum() - 1.0) <= 1e-12


def test_rejects_bad_rate():
    for r in (0.0, -0.1, 1.0001, 2.0):
        with pytest.raises(ValueError):
            walk_pmf(3, r)
        with pytest.raises(ValueError):
            stay_below_prob(3, r)


def test_rejects_bad_step_count():
    with pytest.raises(ValueError):
        walk_pmf(-1, 0.5)
    with pytest.raises(ValueError):
        walk_pmf(2.5, 0.5)


@pytest.mark.parametrize(
    "route", (walk_pmf, stay_below_prob, lambda n, r: point_prob(n, r, 0)), ids=("pmf", "stay", "point")
)
def test_dp_routes_refuse_steps_over_budget(route):
    with pytest.raises(BudgetExceededError, match="walk dynamic program needs"):
        route(MAX_DP_STEPS + 1, 0.5)


def test_dp_budget_accepts_its_limit():
    # the refusal happens before any work, so the limit itself is checked
    # on the shared guard rather than by running a 2**15-step DP
    assert MAX_DP_STEPS == 2**15
    random_walk._check_dp_params(MAX_DP_STEPS, 0.5)
    with pytest.raises(BudgetExceededError):
        random_walk._check_dp_params(MAX_DP_STEPS + 1, 0.5)
    # the O(n) closed form is not bound by the DP budget
    assert 0.0 < passage_prob(MAX_DP_STEPS + 1, 0.5) < 1.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), r=st.floats(0.01, 1.0))
def test_pmf_properties(n, r):
    pmf = walk_pmf(n, r)
    assert pmf.support_min == -n and pmf.support_max == n
    assert abs(pmf.probs.sum() - 1.0) <= 1e-12
    assert np.array_equal(pmf.probs, pmf.probs[::-1])


def test_longest_dp_law_passes_the_sum_guard():
    # r = 0.06 drifts most at this length (1.84e-12 over rates in [0.01, 0.98])
    pmf = walk_pmf(MAX_DP_STEPS, 0.06)
    assert abs(float(pmf.probs.sum()) - 1.0) < 1e-11
