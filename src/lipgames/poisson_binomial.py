"""Poisson Binomial distributions and the two-action worst-case statistics.

A Poisson Binomial (PB) variable here is a sum of independent Bernoulli
terms, each optionally negated, plus an integer shift.  Pmfs are exact
sequential convolutions.  The module also provides the two quantities that
drive the two-action Lipschitz analysis: the largest point probability of a
split Bernoulli sum (:func:`two_block_max_prob`, an O(n^2) scan of the
points next to each split's mean) and the probability that two i.i.d.
binomials coincide (:func:`binomial_collision_prob`, the O(sqrt(n)) walk sum
of :mod:`lipgames.random_walk` over even moves).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import checks, random_walk as rw
from .errors import IntegrityError
from .integer_pmf import IntegerPmf, binomial_window

#: Tolerance for agreement between redundant computations of the same value.
DUAL_ROUTE_TOL = 1e-12

#: Split maxima within this fraction of the largest count as ties.  The
#: scan never evaluates both ``l`` and ``n - l`` (their sums mirror each
#: other), so the ties left are splits whose peaks converge as delta -> 1,
#: where rounding alone would otherwise pick the reported witness.
TIE_TOL = 1e-12

#: Largest term count :func:`two_block_max_prob` accepts.  The split scan
#: costs O(n^2) time and about 10 n^2 bytes: 25 ms and 168 MB at the limit
#: (2-core host, numpy 2.4), 7 ms and 42 MB at half of it.  Its relative
#: error against 30-digit mpmath grows linearly in n, to 2.3e-13 measured
#: at 4095 terms; the tests hold it below 3e-13 up to the limit.
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


def _binomial_table(n: int, p: float, pad: int, width: int) -> np.ndarray:
    """Binomial(j, p) pmf in row j at columns ``pad .. pad + j``, zeros elsewhere.

    Each row is the previous one convolved with one Bernoulli(p) term.
    """
    table = np.zeros((n + 1, width))
    table[0, pad] = 1.0
    row, kernel = table[0, pad : pad + 1], np.array([1.0 - p, p])
    for j in range(1, n + 1):
        row = np.convolve(row, kernel)
        table[j, pad : pad + j + 1] = row
    return table


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

    The scan is O(n^2).  Split ``n - l`` has the law of ``n`` minus the sum
    of split ``l``, so only the splits ``l >= n/2`` are scanned, and a
    Poisson Binomial law peaks at the floor or ceiling of its mean (Darroch
    1964), so each split needs only the four outcomes from one below the
    floor of its mean to two above it.
    """
    n, delta = checks.count(n, "term count"), checks.delta(delta)
    checks.budget(n, SPLIT_SCAN_LIMIT, "split scan", "terms")
    q = 0.5 * delta
    half = n // 2
    # Splits l = n - r for r = 0..half, largest first.  As Binomial(r, 1 - q)
    # is r - Binomial(r, q), P(X = t) is the dot product of row r with row l
    # read from column t - r on; the four outcomes are four consecutive
    # windows of one copied stretch of row l.
    short = np.arange(half + 1)
    split = n - short
    floor = np.floor(split * q + short * (1.0 - q)).astype(np.int64)
    start = floor - 1 - short
    pad = max(0, -int(start.min()))
    table = _binomial_table(n, q, pad, pad + max(n + 1, int(start.max()) + half + 4))
    stretches = sliding_window_view(table, half + 4, axis=1)[split, pad + start]
    probs = np.einsum("ijk,ik->ij", sliding_window_view(stretches, half + 1, axis=1),
                      table[: half + 1, pad : pad + half + 1])
    peaks = probs.max(axis=1)
    best = float(peaks.max())
    i = int(np.argmax(peaks >= best * (1.0 - TIE_TOL)))
    outcome = int(np.argmax(probs[i] >= peaks[i] * (1.0 - TIE_TOL)))
    return TwoBlockMax(best, int(split[i]), int(floor[i]) - 1 + outcome)


def binomial_collision_prob(n: int, delta: float) -> float:
    """Probability that two independent Binomial(n, delta/2) draws coincide.

    Their difference is a lazy walk of n steps at rate ``delta (1 - delta/2)``, back at 0:
    ``random_walk.passage_prob``'s windowed sum over even move counts j alone, each with
    parity factor ``C(j, j/2) / 2**j``.  Nothing is squared: a sum of squares drifts to
    1.8e-15 at 10**8 terms, this stays within 1e-15 of 40-digit mpmath up to the widest window.
    """
    n, delta = checks.count(n, "term count"), checks.delta(delta)
    lo, moves = binomial_window(n, delta * (1.0 - 0.5 * delta))
    return float((moves[lo % 2 :: 2] * rw._parity(lo, moves.size)[lo % 2 :: 2]).sum())
