"""The fast exact routes against 30- and 40-digit references and the slow routes.

``passage_prob`` and ``binomial_collision_prob`` are one O(sqrt(n)) walk sum over
the window of ``binomial_window``, the second over even moves only, and
``two_block_max_prob`` is an O(n log n) march over the splits that screens the
two points next to each split's mean, then evaluates the near-best splits
exactly from two Binomial windows; here they are held to a stated relative
error bound against mpmath
evaluations of their definitions (the collision as a sum of squares, not as the
walk), computed up to 10**7 trials and pinned as 40-digit strings from 10**9 up
to the widest window ``MAX_WINDOW`` admits.  ``passage_prob`` is also tied to
the independent ``walk_pmf`` dynamic program and pinned bit for bit, the
window's entries bit for bit to the full-support ratio runs of
``brute.binomial_products``, both sums to their full-support versions, the
collision to the squared window it replaced and bit for bit to its parity
factor over every move, and the split maximum's witness to the O(n^3)
convolution scan and to the O(n^2) Binomial-table scan the march replaced.
The brute-force oracle is held to its own, wider bound at (255, 2), where its
rounding, not the closed form's, sets their difference.
"""

import functools
import math
import random
import tracemalloc

import mpmath
import pytest

from lipgames import (
    BudgetExceededError,
    binomial_collision_prob,
    lipschitz_constant,
    lipschitz_oracle,
    passage_prob,
    random_walk,
    two_block_max_prob,
    walk_pmf,
)
from lipgames import integer_pmf, poisson_binomial
from lipgames.integer_pmf import MAX_WINDOW, binomial_window, window_span

import brute

#: Largest relative error accepted against the 30-digit references; the
#: largest measured on these grids is about 3.3e-15 (passage, m = 16384).
REL_BOUND = 1e-13
#: The same for the split maximum at ``SPLIT_CASES``: its value is an exact
#: evaluation from two Binomial windows, measured within 2.4e-16 (m = 51,
#: delta = 0.37); the bound leaves a margin of 4x.
SPLIT_REL_BOUND = 1e-15
#: The split maximum's bound over its whole accepted range, up to
#: ``SPLIT_SCAN_LIMIT`` terms, at the reported witness: measured within
#: 3.2e-16 at m = 2047 and 4095 (4095, delta = 0.9); the bound leaves a
#: margin of 3x.
SCAN_RANGE_REL_BOUND = 1e-15
#: Largest gap accepted between the march's screened points and their exact values,
#: relative to the maximum: measured within 2.3e-14 at m = 4095 over deltas from
#: 1e-300 to 1 - 1e-13.  The screen band must be wider than twice this.
MARCH_REL_BOUND = 1e-13
#: Largest relative gap accepted between the split maximum and the Binomial-table
#: scan it replaced, whose convolution chain drifts linearly in m: 1.12 / 1.15e-13
#: (m = 2047) and 2.26 / 2.29e-13 (m = 4095) from 30-digit mpmath at deltas 0.37 / 0.61.
TABLE_SCAN_REL_BOUND = 3e-13
#: Largest relative error accepted of the brute-force oracle at (255, 2), against
#: the same 30-digit split references: measured 1.36e-14 (delta = 0.37) and
#: 1.39e-14 (delta = 0.999), about 60 ulp, 40x the split march's error there.
ORACLE_REL_BOUND = 5e-14
#: Largest relative error accepted against the 40-digit references from
#: 2**14 trials to the widest window; the largest measured is 2.9e-16
#: (passage, m = 10**7 - 2, r = 0.0125), 2.8e-16 for the collision.
LARGE_REL_BOUND = 1e-15
#: The same bound for the squared window the collision route replaced, up to
#: 10**7 trials, where it measured 6.9e-16; it passes 1e-15 by 3 * 10**7.
SQUARES_REL_BOUND = 1e-15
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
#: Split-maximum cases: three deltas at small and medium m, one at m = 1023, and
#: delta = 0.999, near the end where the split peaks crowd, at m = 255.
SPLIT_CASES = [(m, delta) for m in (1, 51, 253) for delta in (0.1, 0.37, 0.95)] + [(1023, 0.61), (255, 0.999)]
#: The cross-check deltas, with the ends of the delta-star search range.
SCAN_DELTAS = (1e-9, 0.01, 0.1, 0.37, 0.5, 0.61, 0.95, 1 - 1e-9)


#: The largest trial count whose Binomial(m, 1/2) window ``MAX_WINDOW`` admits: 2**21 - 1
#: entries, the widest window any closed form sums.
WIDEST = 30539601284
#: 40-digit references past the sizes a test run can afford to evaluate, printed by
#: ``PYTHONPATH=src python tests/pin_references.py``: the passage sum and the collision
#: probability by their definitions, at 10**9, 10**10 and ``WIDEST`` trials, and at a tiny
#: rate just under 2**53.
PINNED = {
    ("passage", 10**9, 0.0125): "0.0002256758310777157072164033446447997874752",
    ("passage", 10**9, 0.2): "0.00005641895829835666881816896635777731775793",
    ("passage", 10**9, 0.5): "0.00003568248230075387085921985419938908361265",
    ("passage", 10**10, 0.0125): "0.00007136496457206969168691585523191694468692",
    ("passage", 10**10, 0.2): "0.00001784124115974358653418235928361689284446",
    ("passage", 10**10, 0.5): "0.00001128379167024988875959124654687714345177",
    ("passage", WIDEST, 0.0125): "0.00004083695706212896462958869837576587292693",
    ("passage", WIDEST, 0.2): "0.00001020923926866625778390423226564147638771",
    ("passage", WIDEST, 0.5): "0.000006456889853402699200116793965315949255483",
    ("collision", 10**9, 0.05): "0.00005713770030081550081425414334126253874055",
    ("collision", 10**9, 0.3): "0.00002498273467570592404307574319394112705654",
    ("collision", 10**9, 0.9): "0.00001793112203629842833863643701004018430058",
    ("collision", 10**10, 0.05): "0.00001806852728586802067264974375333880651406",
    ("collision", 10**10, 0.3): "0.000007900234374670808031155171008997986543284",
    ("collision", 10**10, 0.9): "0.000005670318664338969699707306892547982786266",
    ("collision", WIDEST, 0.05): "0.00001033929851643446419305866987295849747659",
    ("collision", WIDEST, 0.3): "0.000004520727133350737850415793869279004219139",
    ("collision", WIDEST, 0.9): "0.000003244709235870002739908374610811137024178",
    ("passage", 2**53 - 1, 1e-12): "0.008406963254234681912141923070285947665823",
    ("collision", 2**53 - 1, 1e-12): "0.004203598303647660406297898316928109125516",
}


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
    """``(lo, terms)``: Binomial(m, p) at 40 digits over ``[mode - W, mode + W]``, upward.

    ``W = ceil(15 sigma) + 60`` is wider than the library's window.  The
    lowest term is anchored by ``loggamma``, and ``terms`` yields the others
    by the ratio recursion one at a time, so a window of millions of terms
    holds none of them in memory.  Call and iterate within ``workdps(40)``.
    """
    p = mpmath.mpf(p)
    odds = p / (1 - p)
    mode = min(int(mpmath.floor((m + 1) * p)), m)
    w = math.ceil(15 * math.sqrt(m * float(p * (1 - p)))) + 60
    lo, hi = max(0, mode - w), min(m, mode + w)

    def terms():
        term = mpmath.exp(mpmath.loggamma(m + 1) - mpmath.loggamma(lo + 1) - mpmath.loggamma(m - lo + 1)
                          + lo * mpmath.log(p) + (m - lo) * mpmath.log(1 - p))
        for j in range(lo, hi + 1):
            yield term
            term *= odds * (m - j) / (j + 1)

    return lo, terms()


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
        total = mpmath.mpf(0)
        for term in _window_reference(m, mpmath.mpf(delta) / 2)[1]:
            total += term * term
        return total


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
    assert abs(two_block_max_prob(m, delta).value - ref) <= SPLIT_REL_BOUND * ref


@pytest.mark.parametrize("m", (2047, 4095))
@pytest.mark.parametrize("delta", (0.37, 0.61, 0.999))
def test_split_max_within_range_bound_at_its_witness(m, delta):
    # one 2F1 series at the reported (split, point); the full reference
    # would evaluate four points per split
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


@pytest.mark.parametrize("delta", (0.37, 0.999))
def test_oracle_at_255_players_rounds_within_its_bound(delta):
    # at odd n and k = 2 the constant is (1 - delta) times the split maximum of n - 2 terms
    with mpmath.workdps(30):
        ref = (1 - mpmath.mpf(delta)) * split_reference(253, delta)
    assert abs(lipschitz_oracle(255, 2, delta).value - ref) <= ORACLE_REL_BOUND * ref
    assert abs(lipschitz_constant(255, 2, delta).value - ref) <= SPLIT_REL_BOUND * ref


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


#: The moved table scan's cross-check grid: m drawn once from a fixed seed up to
#: ``SPLIT_SCAN_LIMIT``, with its largest odd count, at deltas from the small to
#: the crowded end (at 0.999 and 1 - 1e-13 the split peaks lie within 1e-9 of
#: each other, so several or all splits are evaluated exactly).
TABLE_SCAN_TRIALS = sorted(random.Random(33).sample(range(301, 4095), 5)) + [4095]
TABLE_SCAN_DELTAS = (0.01, 0.37, 0.9, 0.999, 1 - 1e-13)


@pytest.mark.parametrize("m", TABLE_SCAN_TRIALS)
def test_split_march_matches_the_table_scan(m):
    for delta in TABLE_SCAN_DELTAS:
        value, split, point = brute.table_split_scan(m, delta)
        result = two_block_max_prob(m, delta)
        assert (result.split, result.point) == (split, point), delta
        assert abs(result.value - value) <= TABLE_SCAN_REL_BOUND * value, delta


@pytest.mark.parametrize("m", (0, 1, 2, 9, 254, 4095))
@pytest.mark.parametrize("delta", (5e-324, 1e-9, 0.01, 0.37, 0.999, 1 - 1e-13))
def test_march_screens_every_split_within_its_bound(m, delta):
    # every split's two points next to its mean, against their evaluation from two windows
    q = 0.5 * delta
    split, floor, screened = poisson_binomial._march(m, q)
    exact = [poisson_binomial._split_points(m, int(l), int(f), q) for l, f in zip(split, floor)]
    assert abs(screened - exact).max() <= MARCH_REL_BOUND * max(map(max, exact))
    assert 2 * MARCH_REL_BOUND < poisson_binomial._SCREEN_BAND


@pytest.mark.parametrize("delta", (0.37, 1 - 1e-13))
def test_split_march_peak_memory_is_linear_in_the_terms(delta):
    # the 2x2 maps of every split and their products: 83 and 85 bytes a term
    # measured, the second where every split is evaluated exactly
    m = 4095
    tracemalloc.start()
    try:
        two_block_max_prob(m, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120 * m + 64 * 1024


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


@pytest.mark.parametrize("m", (10**5, 10**6, 10**7))
@pytest.mark.parametrize("delta", (0.05, 0.3, 0.9))
def test_squared_collision_within_its_bound_up_to_ten_million(m, delta):
    # the sum of squares the walk route replaced, against the same references
    ref = large_collision_reference(m, delta)
    assert abs(brute.collision_prob_by_squares(m, delta) - ref) <= SQUARES_REL_BOUND * ref


@pytest.mark.parametrize("m", (10**5, 5 * 10**6, 10**9))
@pytest.mark.parametrize("delta", (0.05, 0.3, 0.9))
def test_collision_parity_at_even_moves_is_bit_identical(m, delta):
    # each parity entry is the series at its own i = ceil(j/2), so evaluating
    # the even moves alone changes no bit of the sum
    assert binomial_collision_prob(m, delta) == brute.collision_prob_by_all_parities(m, delta)


def test_widest_is_the_largest_count_the_window_budget_admits():
    lo, _, hi = window_span(WIDEST, 0.5)
    assert hi - lo + 1 == MAX_WINDOW - 1
    with pytest.raises(BudgetExceededError, match=f"^binomial pmf needs {MAX_WINDOW + 1} window entries, "):
        window_span(WIDEST + 1, 0.5)


@pytest.mark.parametrize("route,m,x", list(PINNED), ids=str)
def test_closed_forms_within_bound_of_pinned_40_digit_reference(route, m, x):
    value = (passage_prob if route == "passage" else binomial_collision_prob)(m, x)
    with mpmath.workdps(40):
        ref = mpmath.mpf(PINNED[route, m, x])
        assert abs(value - ref) <= LARGE_REL_BOUND * ref


#: ``passage_prob`` as ``float.hex``, so no change to the window or parity code it shares
#: with the collision moves the k >= 3 route unseen: step counts on both sides of 2**14,
#: and windows of moves that cross the parity table's end.
PASSAGE_BITS = {
    (10, 0.2): "0x1.05ccdb61fc4eap-1", (10, 0.6): "0x1.3bad6c1047c17p-2",
    (2011, 0.2): "0x1.45c1a7a61056ep-5", (2011, 0.6): "0x1.783aa75092f10p-6",
    (16383, 0.2): "0x1.c8b8ca2859c90p-7", (16383, 0.6): "0x1.07b1f75cd931ep-7",
    (16385, 0.2): "0x1.c8b1a78c8c699p-7", (16385, 0.6): "0x1.07add8b072d34p-7",
    (27307, 0.6): "0x1.988173f0875fdp-8", (81920, 0.2): "0x1.98830c6dcd0ecp-8",
    (10**6, 0.2): "0x1.d3b26c45c47a2p-10", (10**6, 0.6): "0x1.0e066bb41c566p-10",
}


@pytest.mark.parametrize("n,r", list(PASSAGE_BITS))
def test_passage_bits_are_pinned(n, r):
    assert passage_prob(n, r).hex() == PASSAGE_BITS[n, r]


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


def _refused_peak(call, message):
    """The traced peak of ``call()``, which must refuse with ``message``, the parity table untouched."""
    table = random_walk._PARITY
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert random_walk._PARITY is table
    return peak


@pytest.mark.parametrize("route", (passage_prob, binomial_collision_prob), ids=("passage", "collision"))
def test_closed_forms_refuse_one_trial_over_budget_before_allocating(route):
    # from 2**53 on the window's float64 indices are inexact, however narrow the window
    peak = _refused_peak(lambda: route(2**53, 1e-12), "^binomial pmf needs 9007199254740992 trials, ")
    assert peak < 64 * 1024


# the rates whose window is widest: 1/2, and delta (1 - delta/2) rounded to 1/2
@pytest.mark.parametrize("route,arg", ((passage_prob, 0.5), (binomial_collision_prob, 1 - 1e-9)),
                         ids=("passage", "collision"))
def test_closed_forms_refuse_one_entry_over_the_window_before_allocating(route, arg):
    message = f"^binomial pmf needs {MAX_WINDOW + 1} window entries, over the budget of {MAX_WINDOW}$"
    assert _refused_peak(lambda: route(WIDEST + 1, arg), message) < 64 * 1024


@pytest.mark.parametrize("route,arg", ((passage_prob, 0.5), (binomial_collision_prob, 1 - 1e-9)),
                         ids=("passage", "collision"))
def test_closed_forms_peak_memory_is_linear_in_the_window(route, arg):
    # the widest admitted window, 2**21 - 1 entries, where the full support would be 3 * 10**10
    lo, _, hi = window_span(WIDEST, 0.5)
    table = random_walk._PARITY
    tracemalloc.start()
    try:
        route(WIDEST, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024 + 40 * (hi - lo + 1)
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
