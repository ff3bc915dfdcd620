"""The O(n) closed forms against 30-digit references and the dynamic programs.

``passage_prob`` and ``binomial_collision_prob`` are O(n) sums built on
``binomial_probs``; here they are held to a stated relative error bound
against mpmath sums of the same definitions, and ``passage_prob`` is tied to
the independent ``walk_pmf`` dynamic program.
"""

import functools
import math

import mpmath
import pytest

from lipgames import binomial_collision_prob, passage_prob, walk_pmf
from lipgames.integer_pmf import binomial_probs

#: Largest relative error accepted against the 30-digit references; the
#: largest measured on this grid is about 3.3e-15 (passage, m = 16384).
REL_BOUND = 1e-13
#: Largest absolute gap accepted between the closed form and the walk DP.
DP_TOL = 1e-12

STEPS = (1, 50, 2000, 16384)
RATES = (0.01, 0.1, 0.25, 0.5, 2 / 3, 0.9, 1.0)
DELTAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


@functools.lru_cache(maxsize=None)
def passage_reference(m, r):
    """sum_j Bin(m, r)(j) * C(j, floor(j/2)) / 2^j at 30 digits."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        if r == 1:
            return mpmath.binomial(m, m // 2) / mpmath.mpf(2) ** m
        term = (1 - r) ** m
        odds = r / (1 - r)
        in_01 = mpmath.mpf(1)
        total = term
        for j in range(m):
            term *= odds * (m - j) / (j + 1)
            if j % 2 == 0:
                in_01 *= mpmath.mpf(j + 1) / (j + 2)
            total += term * in_01
        return total


@functools.lru_cache(maxsize=None)
def collision_reference(m, delta):
    """sum_i Bin(m, delta/2)(i)^2 at 30 digits."""
    with mpmath.workdps(30):
        p = mpmath.mpf(delta) / 2
        term = (1 - p) ** m
        odds = p / (1 - p)
        total = term * term
        for i in range(m):
            term *= odds * (m - i) / (i + 1)
            total += term * term
        return total


@pytest.mark.parametrize("m", STEPS)
@pytest.mark.parametrize("r", RATES)
def test_passage_within_bound_of_reference(m, r):
    ref = passage_reference(m, r)
    assert abs(passage_prob(m, r) - ref) <= REL_BOUND * ref


@pytest.mark.parametrize("m", STEPS)
@pytest.mark.parametrize("delta", DELTAS)
def test_collision_within_bound_of_reference(m, delta):
    ref = collision_reference(m, delta)
    assert abs(binomial_collision_prob(m, delta) - ref) <= REL_BOUND * ref


@pytest.mark.parametrize("r", (0.05, 0.5, 1.0))
def test_passage_matches_walk_dp(r):
    for n in range(0, 401):
        pmf = walk_pmf(n, r)
        assert abs(passage_prob(n, r) - (pmf.prob(0) + pmf.prob(1))) <= DP_TOL


@pytest.mark.parametrize("p", (0.0, 0.05, 0.3, 0.5, 0.8, 1.0))
def test_binomial_probs_exact_small(p):
    for m in range(0, 13):
        probs = binomial_probs(m, p)
        assert probs.size == m + 1
        for i in range(m + 1):
            expected = math.comb(m, i) * p**i * (1 - p) ** (m - i)
            assert probs[i] == pytest.approx(expected, rel=1e-14, abs=1e-300)
