"""The fast exact routes against 30- and 40-digit references and the slow routes.

``passage_prob`` and ``binomial_collision_prob`` are O(sqrt(n)) sums over
the window of ``binomial_window``, and ``two_block_max_prob`` is an O(n^2)
scan of the points next to each split's mean; here they are held to a
stated relative error bound against mpmath evaluations of the same
definitions, up to ``MAX_TRIALS``, ``passage_prob`` is tied to the
independent ``walk_pmf`` dynamic program, the window's entries bit for bit to
the full-support ratio runs of ``brute.binomial_products`` and both sums to
their full-support versions, and the split scan to the O(n^3) convolution
scan it replaced.
"""

import functools
import math
import tracemalloc

import mpmath
import pytest

from lipgames import (
    BudgetExceededError,
    binomial_collision_prob,
    passage_prob,
    random_walk,
    two_block_max_prob,
    walk_pmf,
)
from lipgames import integer_pmf
from lipgames.integer_pmf import MAX_TRIALS, binomial_window

import brute

#: Largest relative error accepted against the 30-digit references; the
#: largest measured on these grids is about 5.8e-14 (split maximum, m = 1023,
#: delta = 0.61), about 3.3e-15 for the O(n) sums (passage, m = 16384).
REL_BOUND = 1e-13
#: The split scan's bound over its whole accepted range, up to
#: ``SPLIT_SCAN_LIMIT`` terms: its table's convolution chain drifts linearly
#: in m, measured at 1.12 / 1.15e-13 (m = 2047) and 2.26 / 2.29e-13
#: (m = 4095) at deltas 0.37 / 0.61.
SCAN_RANGE_REL_BOUND = 3e-13
#: Largest relative error accepted against the 40-digit references from
#: 2**14 to ``MAX_TRIALS`` trials; the largest measured is 6.9e-16
#: (collision, m = 10**7, delta = 0.9).
LARGE_REL_BOUND = 1e-15
#: Largest relative error accepted for one parity factor; the largest
#: measured is 3.3e-16 (the series at i = 66, its first omitted term).
PARITY_REL_BOUND = 4.5e-16
#: Largest relative gap accepted between a windowed sum and the same sum
#: over the full support; they differ by the dropped tails, under 2e-26,
#: and the summation order: 9.7e-16 at most measured.
FULL_SUPPORT_REL_TOL = 2e-15
#: Largest absolute gap accepted between the closed form and the walk DP.
DP_TOL = 1e-12

STEPS = (1, 50, 2000, 16384)
RATES = (0.01, 0.1, 0.25, 0.5, 2 / 3, 0.9, 1.0)
DELTAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
#: Split-scan cases: three deltas at small and medium m, one at m = 1023.
SPLIT_CASES = [(m, delta) for m in (1, 51, 253) for delta in (0.1, 0.37, 0.95)] + [(1023, 0.61)]
#: The cross-check deltas, with the ends of the delta-star search range.
SCAN_DELTAS = (1e-9, 0.01, 0.1, 0.37, 0.5, 0.61, 0.95, 1 - 1e-9)


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


def _window_reference(m, p):
    """``(lo, terms)``: Binomial(m, p) at 40 digits over ``[mode - W, mode + W]``.

    ``W = ceil(15 sigma) + 60`` is wider than the library's window.  The
    mode's term is anchored by ``loggamma``, and the others follow by the
    ratio recursion outward.  Call within ``workdps(40)``.
    """
    p = mpmath.mpf(p)
    odds = p / (1 - p)
    mode = min(int(mpmath.floor((m + 1) * p)), m)
    w = math.ceil(15 * math.sqrt(m * float(p * (1 - p)))) + 60
    lo, hi = max(0, mode - w), min(m, mode + w)
    anchor = mpmath.exp(mpmath.loggamma(m + 1) - mpmath.loggamma(mode + 1) - mpmath.loggamma(m - mode + 1)
                        + mode * mpmath.log(p) + (m - mode) * mpmath.log(1 - p))
    up = [anchor]
    for j in range(mode, hi):
        up.append(up[-1] * odds * (m - j) / (j + 1))
    down = [anchor]
    for j in range(mode - 1, lo - 1, -1):
        down.append(down[-1] * (j + 1) / (odds * (m - j)))
    return lo, down[:0:-1] + up


def _central_reference(i):
    """C(2i, i) / 4**i by ``loggamma``; call within ``workdps(40)``."""
    return mpmath.exp(mpmath.loggamma(2 * i + 1) - 2 * mpmath.loggamma(i + 1) - 2 * i * mpmath.log(2))


@functools.lru_cache(maxsize=None)
def large_passage_reference(m, r):
    """sum_j Bin(m, r)(j) * C(j, floor(j/2)) / 2^j at 40 digits over a wide window.

    The factor for j is C(2i, i) / 4**i with i = ceil(j/2), anchored at the
    window's first i and stepped by (2i + 1) / (2i + 2).
    """
    with mpmath.workdps(40):
        if r == 1.0:
            return _central_reference((m + 1) // 2)
        lo, terms = _window_reference(m, r)
        i = (lo + 1) // 2
        in_01 = _central_reference(i)
        total = mpmath.mpf(0)
        for j, term in enumerate(terms, lo):
            if (j + 1) // 2 > i:
                in_01 *= mpmath.mpf(2 * i + 1) / (2 * i + 2)
                i += 1
            total += term * in_01
        return total


@functools.lru_cache(maxsize=None)
def large_collision_reference(m, delta):
    """sum_i Bin(m, delta/2)(i)^2 at 40 digits over a wide window."""
    with mpmath.workdps(40):
        _, terms = _window_reference(m, mpmath.mpf(delta) / 2)
        return mpmath.fsum(term * term for term in terms)


def _split_point(l, r, t, q):
    """P(Bin(l, q) + Bin(r, 1 - q) = t) as a terminating 2F1 series.

    The sum over the first block's count a has terms
    C(l, a) C(r, t - a) q^(r - t + 2a) (1 - q)^(l + t - 2a), whose ratio is a
    rational function of a times z = (q / (1 - q))^2; it starts at
    a = max(0, t - r).
    """
    p = 1 - q
    z = (q / p) ** 2
    if t <= r:
        return mpmath.binomial(r, t) * q ** (r - t) * p ** (l + t) * mpmath.hyp2f1(-l, -t, r - t + 1, z)
    head = mpmath.binomial(l, t - r) * q ** (t - r) * p ** (l - t + 2 * r)
    return head * mpmath.hyp2f1(-(l - t + r), -r, t - r + 1, z)


@functools.lru_cache(maxsize=None)
def split_reference(m, delta):
    """Largest point probability over every split of m terms at 30 digits.

    Each split's law peaks within one of its mean (Darroch 1964), so only the
    points from floor(mean) - 1 to ceil(mean) + 1 are evaluated.
    """
    with mpmath.workdps(30):
        q = mpmath.mpf(delta) / 2
        best = mpmath.mpf(0)
        for l in range(m + 1):
            mean = l * delta / 2 + (m - l) * (1 - delta / 2)
            for t in range(max(0, math.floor(mean) - 1), min(m, math.ceil(mean) + 1) + 1):
                best = max(best, _split_point(l, m - l, t, q))
        return best


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


@pytest.mark.parametrize("m,delta", SPLIT_CASES)
def test_split_max_within_bound_of_reference(m, delta):
    ref = split_reference(m, delta)
    assert abs(two_block_max_prob(m, delta).value - ref) <= REL_BOUND * ref


@pytest.mark.parametrize("m", (2047, 4095))
@pytest.mark.parametrize("delta", (0.37, 0.61))
def test_split_max_within_range_bound_at_its_witness(m, delta):
    # one 2F1 series at the reported (split, point), which attains the
    # maximum at these deltas (no other split ties within TIE_TOL); the full
    # reference would evaluate four points per split
    result = two_block_max_prob(m, delta)
    with mpmath.workdps(30):
        ref = _split_point(result.split, m - result.split, result.point, mpmath.mpf(delta) / 2)
    assert abs(result.value - ref) <= SCAN_RANGE_REL_BOUND * ref


def test_split_witness_at_even_m_is_the_balanced_split():
    # the collision theorem puts the maximum at the balanced split; ties
    # within an absolute 1e-12 would pick (2050, 2047), 6.5e-11 below it
    result = two_block_max_prob(4096, 0.5)
    assert (result.split, result.point) == (2048, 2048)


def test_split_witness_attains_the_value_where_split_peaks_crowd():
    # neighbouring splits' peaks differ by less than 1e-12 here, so ties
    # within that absolute distance would pick a witness 1.4e-11 below
    m, delta = 4095, 0.9
    result = two_block_max_prob(m, delta)
    with mpmath.workdps(30):
        ref = _split_point(result.split, m - result.split, result.point, mpmath.mpf(delta) / 2)
    assert abs(result.value - ref) <= SCAN_RANGE_REL_BOUND * ref


@pytest.mark.parametrize("delta", (0.25, 0.5, 0.75))
def test_split_reference_matches_exact_enumeration(delta):
    for m in range(0, 7):
        best, _ = brute.two_block_value(m, delta)
        assert abs(split_reference(m, delta) - mpmath.mpf(best.numerator) / best.denominator) <= 1e-25


@pytest.mark.parametrize("delta", SCAN_DELTAS)
def test_split_scan_matches_convolution_scan(delta):
    for m in range(0, 301):
        value, split, point = brute.split_scan(m, delta)
        result = two_block_max_prob(m, delta)
        assert (result.split, result.point) == (split, point), m
        assert abs(result.value - value) <= 1e-13 * value, m


def test_split_scan_peak_memory_stays_under_twelve_bytes_per_square_term():
    # a Binomial row per term count and one window per scanned split, about
    # 10.1 bytes per m^2 at m = 1000; the convolution scan took 16.4
    m = 1000
    tracemalloc.start()
    try:
        two_block_max_prob(m, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * m * m


@pytest.mark.parametrize("r", (0.05, 0.5, 1.0))
def test_passage_matches_walk_dp(r):
    for n in range(0, 401):
        pmf = walk_pmf(n, r)
        assert abs(passage_prob(n, r) - (pmf.prob(0) + pmf.prob(1))) <= DP_TOL


@pytest.mark.parametrize("m", (2**14, 10**5, 10**6, 10**7 - 2))
@pytest.mark.parametrize("r", (0.0125, 0.2, 0.6, 1.0))
def test_passage_within_bound_of_40_digit_reference(m, r):
    ref = large_passage_reference(m, r)
    assert abs(passage_prob(m, r) - ref) <= LARGE_REL_BOUND * ref


@pytest.mark.parametrize("m", (10**5, 10**6, 10**7))
@pytest.mark.parametrize("delta", (0.05, 0.3, 0.9))
def test_collision_within_bound_of_40_digit_reference(m, delta):
    ref = large_collision_reference(m, delta)
    assert abs(binomial_collision_prob(m, delta) - ref) <= LARGE_REL_BOUND * ref


@pytest.mark.parametrize("j", (127, 128, 2**14 - 1, 2**14, 10**5, 10**7))
def test_parity_factor_within_bound_of_40_digit_reference(j):
    # 127 is the last exact entry, 128 the first series entry of the table,
    # 2**14 the first computed past the table
    with mpmath.workdps(40):
        ref = mpmath.binomial(j, j // 2) / mpmath.mpf(2) ** j
        assert abs(random_walk._parity(j, 1)[0] - ref) <= PARITY_REL_BOUND * ref


def test_parity_table_is_exact_below_128_moves():
    table = random_walk._PARITY
    assert table.size == 2**14 and not table.flags.writeable
    assert table[:128].tolist() == [math.comb(j, j // 2) / 2**j for j in range(128)]
    # past the table the series is evaluated on the window alone
    assert random_walk._parity(2**14 - 2, 4).tolist() == [*table[-2:], *random_walk._parity_series(2**14, 2**14 + 2)]


@pytest.mark.parametrize("r", (0.0125, 0.1, 0.2, 0.37, 0.5, 0.63, 0.9, 1.0))
def test_passage_equals_the_full_support_sum(r):
    # the window's entries are the full support's (tested bit for bit below),
    # so only the dropped tails and the order of the sums differ
    for n in [*range(0, 300), 999, 1000, 2001, 4040, 16384, 10**6]:
        full = float((brute.binomial_probs(n, r) * random_walk._parity(0, n + 1)).sum())
        assert abs(passage_prob(n, r) - full) <= FULL_SUPPORT_REL_TOL * full, n


@pytest.mark.parametrize("delta", (0.01, 0.1, 0.3, 0.5, 0.9, 0.99))
def test_collision_equals_the_full_support_sum(delta):
    for m in [*range(0, 300), 999, 1000, 2001, 4040, 16384, 10**6]:
        probs = brute.binomial_probs(m, 0.5 * delta)
        full = float((probs * probs).sum())
        assert abs(binomial_collision_prob(m, delta) - full) <= FULL_SUPPORT_REL_TOL * full, m


@pytest.mark.parametrize("route", (passage_prob, binomial_collision_prob), ids=("passage", "collision"))
def test_closed_forms_refuse_one_trial_over_budget_before_allocating(route):
    table = random_walk._PARITY
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="binomial pmf needs 10000001 trials"):
            route(MAX_TRIALS + 1, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert random_walk._PARITY is table


@pytest.mark.parametrize("route,arg,p", ((passage_prob, 0.5, 0.5), (binomial_collision_prob, 0.9, 0.45)),
                         ids=("passage", "collision"))
def test_closed_forms_peak_memory_is_linear_in_the_window(route, arg, p):
    # the widest windows at the limit, r(1 - r) at or near its largest:
    # 38,029 and 37,839 entries, where the full support would be 10**7
    m = MAX_TRIALS - 2
    size = binomial_window(m, p)[1].size
    table = random_walk._PARITY
    tracemalloc.start()
    try:
        route(m, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024 + 40 * size
    assert random_walk._PARITY is table


#: The window grid: every m to 300, where the window covers the whole support
#: up to m = 40 and drops tails from there, then larger m up to 10**6; the
#: rates put the mode at 0 (1e-9) and at m (1 - 1e-9).
WINDOW_TRIALS = [*range(0, 301), 999, 1000, 4040, 16384, 10**5, 10**6]
WINDOW_RATES = (1e-9, 0.0125, 0.2, 0.27, 0.5, 0.63, 1 - 1e-9)


@pytest.mark.parametrize("p", WINDOW_RATES)
def test_window_equals_the_full_support_products_bit_for_bit(p):
    for m in WINDOW_TRIALS:
        lo, products = integer_pmf._mode_products(m, p)
        full = brute.binomial_products(m, p)
        assert 0 <= lo and lo + products.size <= m + 1, m
        assert products.tobytes() == full[lo : lo + products.size].tobytes(), m


@pytest.mark.parametrize("p", WINDOW_RATES)
def test_window_drops_at_most_two_e_minus_sixty_of_the_mass(p):
    for m in WINDOW_TRIALS:
        lo, probs = binomial_window(m, p)
        full = brute.binomial_probs(m, p)
        outside = float(full[:lo].sum() + full[lo + probs.size :].sum())
        assert outside <= 2.0 * math.exp(-60.0), m
        assert probs.sum() == pytest.approx(1.0, rel=1e-15), m


@pytest.mark.parametrize("p", (0.0, 1.0))
def test_window_of_a_certain_count_is_one_entry(p):
    for m in WINDOW_TRIALS:
        lo, probs = binomial_window(m, p)
        assert (lo, probs.tolist()) == (m if p else 0, [1.0])


@pytest.mark.parametrize("p", (0.0, 0.05, 0.3, 0.5, 0.8, 1.0))
def test_binomial_probs_exact_small(p):
    # the full-support pmf the window tests compare against
    for m in range(0, 13):
        probs = brute.binomial_probs(m, p)
        assert probs.size == m + 1
        for i in range(m + 1):
            expected = math.comb(m, i) * p**i * (1 - p) ** (m - i)
            assert probs[i] == pytest.approx(expected, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("p", (0.05, 0.3, 0.5, 0.8))
def test_binomial_window_exact_small(p):
    # below 41 trials the window is the whole support
    for m in range(0, 13):
        lo, probs = binomial_window(m, p)
        assert (lo, probs.size) == (0, m + 1)
        for i in range(m + 1):
            expected = math.comb(m, i) * p**i * (1 - p) ** (m - i)
            assert probs[i] == pytest.approx(expected, rel=1e-14, abs=1e-300)
