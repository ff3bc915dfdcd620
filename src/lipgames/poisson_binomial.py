"""Poisson Binomial distributions and the two-action worst-case statistics.

A Poisson Binomial (PB) variable here is a sum of independent Bernoulli
terms, each optionally negated, plus an integer shift.  Pmfs are exact
sequential convolutions.  The module also provides the two quantities that
drive the two-action Lipschitz analysis: the largest point probability of a
split Bernoulli sum (:func:`two_block_max_prob`, an O(n log n) march over the
splits that screens the two points next to each split's mean, then an exact
evaluation of the near-best splits) and the probability that two i.i.d.
binomials coincide (:func:`binomial_collision_prob`, the O(sqrt(n)) walk sum
of :mod:`lipgames.random_walk` over even moves).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import checks, random_walk as rw
from .errors import IntegrityError
from .integer_pmf import IntegerPmf, binomial_window

#: Tolerance for agreement between redundant computations of the same value.
DUAL_ROUTE_TOL = 1e-12

#: Split maxima within this fraction of the largest count as ties.  The
#: march never evaluates both ``l`` and ``n - l`` (their sums mirror each
#: other), so the ties left are splits whose peaks converge as delta -> 0
#: or 1, where rounding alone would otherwise pick the reported witness.
TIE_TOL = 1e-12

#: Splits whose marched peak lies within this fraction of the largest are evaluated
#: exactly.  The march stays within 2.3e-14 of the exact points, relative to the maximum,
#: up to :data:`SPLIT_SCAN_LIMIT` terms at deltas from 1e-300 to 1 - 1e-13, so the
#: split attaining the maximum always lies in the band.  Below a delta of about 1e-6 or
#: above about 1 - 1e-8 most or all splits lie in it: up to 7.7 ms at 253 terms and
#: 170 ms at 4095.
_SCREEN_BAND = 1e-9

#: Largest term count :func:`two_block_max_prob` accepts.  The march costs
#: O(n log n) time and O(n) memory: 1.1-1.5 ms and a traced peak of 0.35 MB
#: at the limit (2-core host, numpy 2.4), where the Binomial-table scan it
#: replaced took 56 ms and 168 MB.  Its value is within 3.2e-16 of 30-digit
#: mpmath at 4095 terms; the tests hold it below 1e-15 up to the limit.
SPLIT_SCAN_LIMIT = 2**12

#: Largest term count of :func:`pb_pmf` and the three functions built on it,
#: refused before the pmf is built.  The sequential convolution costs O(L^2)
#: time in L terms: 1.2-1.5 s at the limit, 0.3-0.4 s at half of it (2-core
#: host, numpy 2.4).
MAX_TERMS = 2**15


def _check_terms(probs, shift, signs):
    probs = checks.array(probs, "success probabilities")
    checks.budget(probs.size, MAX_TERMS, "Poisson Binomial pmf", "terms")
    checks.unit_interval(probs, "success probabilities")
    shift = checks.integer(shift, "shift")
    if signs is None:
        return probs, shift, np.ones(probs.size, dtype=np.int64)
    signs = checks.array(signs, "signs", integers=True)
    if signs.shape != probs.shape:
        raise ValueError("signs must match the probabilities in length")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("signs must be +1 or -1")
    return probs, shift, signs


def pb_pmf(probs, shift: int = 0, signs=None) -> IntegerPmf:
    """Exact pmf of ``sum_i signs[i] * Bernoulli(probs[i]) + shift``.

    The support has ``len(probs) + 1`` points; negated terms extend it
    downward instead of upward.  ``probs`` and ``signs`` pass
    :func:`lipgames.checks.array`, so a bool or a string entry is refused,
    and ``signs`` must hold integers; ``shift`` must be an integer too,
    never ``bool``: ``4.7`` and ``1.0`` are refused, not truncated.  More
    than :data:`MAX_TERMS` terms raise
    :class:`~lipgames.errors.BudgetExceededError`, as in :func:`pb_mode`,
    :func:`unit_shift_tv` and :func:`normal_approx_error`.
    """
    return _pmf(*_check_terms(probs, shift, signs))


def _pmf(probs, shift, signs) -> IntegerPmf:
    """:func:`pb_pmf` of checked terms."""
    pmf = np.array([1.0])
    offset = shift
    for p, s in zip(probs, signs):
        if s > 0:
            kernel = np.array([1.0 - p, p])
        else:
            kernel = np.array([p, 1.0 - p])  # values -1 and 0
            offset -= 1
        pmf = np.convolve(pmf, kernel)
    return IntegerPmf(offset, pmf)


def pb_mode(probs, shift: int = 0, signs=None) -> int:
    """Most probable value of the PB variable; ties break to the smaller one."""
    dist = pb_pmf(probs, shift, signs)
    return dist.offset + int(np.argmax(dist.probs))


def unit_shift_tv(probs, shift: int = 0, signs=None) -> float:
    """Total variation distance between a PB variable X and X + 1.

    Computed two independent ways: the largest point probability (PB laws
    are unimodal, so the up-and-down L1 telescopes to twice the peak) and
    half the L1 distance between the pmf and its unit shift.  Disagreement
    beyond ``DUAL_ROUTE_TOL`` raises :class:`IntegrityError`.
    """
    dist = pb_pmf(probs, shift, signs)
    by_peak = float(dist.probs.max())
    by_l1 = 0.5 * float(np.abs(np.diff(dist.probs, prepend=0.0, append=0.0)).sum())
    if abs(by_peak - by_l1) > DUAL_ROUTE_TOL:
        raise IntegrityError(
            f"shift-TV routes disagree: peak {by_peak!r} vs half-L1 {by_l1!r}"
        )
    return by_peak


def normal_approx_error(probs, shift: int = 0, signs=None) -> tuple[float, float]:
    """Worst-case gap between the scaled pmf and the standard normal density.

    Returns ``(max_t |sigma * P(X = t) - phi((t - mu) / sigma)|, sigma)``
    with the maximum over the support, ``phi(x) = exp(-x^2/2) / sqrt(2 pi)``.
    Degenerate variance is rejected.
    """
    probs, shift, signs = _check_terms(probs, shift, signs)
    var = float(np.sum(probs * (1.0 - probs)))
    if var <= 0.0:
        raise ValueError("variance is zero; there is no normal scale to compare against")
    sigma = math.sqrt(var)
    mu = float(shift + np.sum(signs * probs))
    dist = _pmf(probs, shift, signs)
    support = np.arange(dist.offset, dist.offset + dist.probs.size)
    z = (support - mu) / sigma
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    gap = np.abs(sigma * dist.probs - density)
    return float(gap.max()), sigma


class TwoBlockMax(NamedTuple):
    """Largest point probability of a split Bernoulli sum.

    ``split`` terms count successes and the remaining terms count failures;
    ``point`` is the outcome attaining the maximum probability ``value``.
    """

    value: float
    split: int
    point: int


def _march(n: int, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Splits ``l = n .. ceil(n/2)``, the floor ``f`` of each one's mean, and its point
    probabilities at ``f`` and ``f + 1``, the two outcomes where Darroch (1964) puts its peak.

    Split ``l`` has the generating function ``G_l = A**l B**(n - l)`` with ``A = 1 - q + qx``
    and ``B = q + (1 - q)x``, and its mean ``n - l + (2l - n) q`` has the floor ``f`` taken
    on the exact integer part.  ``G_{l-1} = G_l B / A`` gives two exact lowering identities in
    the point probabilities ``g_l(t)``, with ``rho = q / (1 - q)``:

    - (L1) ``l g_{l-1}(t) = (n - t + 1) g_l(t - 1) + rho (l - t) g_l(t)``;
    - (L2) ``l g_{l-1}(t) = (t + 1) g_l(t + 1) + (t - n + l) g_l(t) / rho``.

    A step from ``l`` to ``l - 1`` keeps the floor or raises it by one.  If it keeps it, the
    new pair is (L2) at ``f`` and (L1) at ``f + 1``.  If it raises it, (L1) at ``f + 1``
    comes first, then (L1) at ``f + 2``, with ``rho g_l(f + 2)`` from (L2) at ``f + 1``.
    Every entry of these 2x2 maps is nonnegative for ``l > n/2``, so their products carry
    no cancellation; they are taken for every split at once by doubling, from the
    Binomial(n, q) window at ``l = n``.  Time and memory are O(n log n) and O(n).
    """
    rho = q / (1.0 - q)
    split = np.arange(n, (n - 1) // 2, -1)
    floor = (n - split) + np.floor((2 * split - n) * q).astype(np.int64)
    lo, probs = binomial_window(n, q)
    start = np.append(probs, 0.0)[floor[0] - lo : floor[0] - lo + 2]
    l, f = split[:-1].astype(np.float64), floor[:-1].astype(np.float64)
    # Coefficients over (g_l(f), g_l(f + 1)) of g_{l-1}(f) by (L2) in coef[0:2], of
    # g_{l-1}(f + 1) by (L1) in coef[2:4] and of g_{l-1}(f + 2) by (L1) after (L2) in coef[4:6]:
    # a kept floor's map is coef[0:4], a raised one's coef[2:6].
    coef = np.zeros((6, l.size))
    a = f - n + l
    np.divide(a, rho * l, out=coef[0], where=a > 0)
    coef[1] = (f + 1) / l
    coef[2] = (n - f) / l
    coef[3] = rho * (l - f - 1) / l
    u = rho * (l - f - 2) / (f + 2)
    coef[4] = u * coef[2]
    coef[5] = u * coef[3] + (n - l + 1) / (f + 2)
    maps = np.where(floor[1:] == floor[:-1], coef[:4], coef[2:]).T.reshape(-1, 2, 2)
    # maps[i] becomes the product of maps i, i - 1, ..., 0: the step from l = n to split[i + 1]
    d = 1
    while d < maps.shape[0]:
        maps[d:] = maps[d:] @ maps[:-d]
        d *= 2
    return split, floor, np.concatenate((start[None], maps @ start))


def _split_points(n: int, l: int, f: int, q: float) -> tuple[float, float]:
    """Point probabilities of split ``l`` at ``f`` and ``f + 1``, from two Binomial windows.

    The sum is Binomial(l, q) plus ``n - l`` minus Binomial(n - l, q), so its law near the
    mean is the convolution of the first window with the second one reversed.
    """
    lo, first = binomial_window(l, q)
    lo_rest, rest = binomial_window(n - l, q)
    law = np.append(np.convolve(first, rest[::-1]), 0.0)
    i = f - (lo + n - l - lo_rest - rest.size + 1)
    return float(law[i]), float(law[i + 1])


def two_block_max_prob(n: int, delta: float) -> TwoBlockMax:
    """Maximum point probability over all two-block Bernoulli sums of ``n`` terms.

    For a split ``l``, the first ``l`` of ``n`` i.i.d. Bernoulli(delta/2)
    terms are counted as successes and the remaining ``n - l`` as failures,
    so the sum is Binomial(l, delta/2) + Binomial(n - l, 1 - delta/2) on
    {0..n}.  The maximum runs over every split and every outcome.  Values
    within a relative ``TIE_TOL`` of the maximum count as ties, which
    resolve to the larger split, then to the smaller outcome within a
    relative ``TIE_TOL`` of that split's peak; ``value`` is the maximum
    itself.  ``n = 0`` gives probability 1 at outcome 0.  Counts above
    :data:`SPLIT_SCAN_LIMIT` raise :class:`~lipgames.errors.BudgetExceededError`.

    Split ``n - l`` has the law of ``n`` minus the sum of split ``l``, so only
    the splits ``l >= n/2`` are screened, each at the two outcomes next to its
    mean, by the O(n log n) march of :func:`_march`.  The per-split peak has many
    local maxima in ``l``, so every split is screened.  Each split whose
    screened peak lies within ``_SCREEN_BAND`` of the largest is then
    evaluated exactly from two Binomial windows, and the tie rules read those
    exact values alone.
    """
    n, delta = checks.count(n, "term count"), checks.delta(delta)
    checks.budget(n, SPLIT_SCAN_LIMIT, "split scan", "terms")
    q = 0.5 * delta
    split, floor, screened = _march(n, q)
    peaks = screened.max(axis=1)
    near = np.flatnonzero(peaks >= peaks.max() * (1.0 - _SCREEN_BAND))
    exact = [_split_points(n, int(split[i]), int(floor[i]), q) for i in near]
    best = max(map(max, exact))
    # splits run largest first
    i = next(i for i, pair in enumerate(exact) if max(pair) >= best * (1.0 - TIE_TOL))
    low, high = exact[i]
    outcome = 0 if low >= max(low, high) * (1.0 - TIE_TOL) else 1
    return TwoBlockMax(best, int(split[near[i]]), int(floor[near[i]]) + outcome)


def binomial_collision_prob(n: int, delta: float) -> float:
    """Probability that two independent Binomial(n, delta/2) draws coincide.

    Their difference is a lazy walk of n steps at rate ``delta (1 - delta/2)``, back at 0:
    ``random_walk.passage_prob``'s windowed sum over even move counts j alone, each with
    parity factor ``C(j, j/2) / 2**j``.  Nothing is squared: a sum of squares drifts to
    1.8e-15 at 10**8 terms, this stays within 1e-15 of 40-digit mpmath up to the widest window.
    """
    n, delta = checks.count(n, "term count"), checks.delta(delta)
    lo, moves = binomial_window(n, delta * (1.0 - 0.5 * delta))
    odd = lo % 2
    return float((moves[odd::2] * rw._parity(lo + odd, moves.size - odd, 2)).sum())
