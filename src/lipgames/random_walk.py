"""Exact distributions for the lazy symmetric random walk on the integers.

The walk starts at 0 and at each step stays put with probability ``1 - r``
and moves +1 or -1 with probability ``r/2`` each, for a rate ``r`` in
``(0, 1]``.  The passage probability behind the Lipschitz constants is an
O(sqrt(n)) sum over the number of non-lazy moves, taken over the window of
that Binomial count which :func:`~lipgames.integer_pmf.binomial_window`
keeps, so the mass it drops is at most ``2 e**-60``; the full law, the
point probabilities and the barrier probability are O(n^2) dynamic
programs over the whole support, kept as independent cross-checks and
refused above :data:`MAX_DP_STEPS` steps.  Nothing is sampled.
"""

from __future__ import annotations

import math

import numpy as np

from . import checks
from .integer_pmf import IntegerPmf, binomial_window

#: Largest step count the O(n^2) dynamic programs accept; ``walk_pmf`` takes
#: 1.2-1.8 s at 2**14 steps on a 2-core host, so the limit costs seconds.
MAX_DP_STEPS = 2**15


def _check_dp_params(n: int, r: float) -> tuple[int, float]:
    n, r = checks.count(n, "step count"), checks.rate(r)
    checks.budget(n, MAX_DP_STEPS, "walk dynamic program", "steps")
    return n, r


def walk_pmf(n: int, r: float) -> IntegerPmf:
    """Law of the walk position after ``n`` steps.

    The support is ``[-n, n]`` and the pmf is symmetric about 0 entry by
    entry: the update adds the two outer neighbours together before scaling,
    so mirrored positions see bitwise-identical arithmetic.  Step counts
    above :data:`MAX_DP_STEPS` raise :class:`~lipgames.errors.BudgetExceededError`.
    """
    n, r = _check_dp_params(n, r)
    hold = 1.0 - r
    half = 0.5 * r
    probs = np.array([1.0])
    for _ in range(n):
        size = probs.size
        nxt = np.zeros(size + 2)
        nxt[1:-1] = hold * probs
        side = np.zeros(size + 2)
        side[:-2] += probs
        side[2:] += probs
        nxt += half * side
        probs = nxt
    return IntegerPmf(-n, probs)


def point_prob(n: int, r: float, t: int) -> float:
    """P(walk is at the integer ``t`` after ``n`` steps); zero outside ``[-n, n]``."""
    t = checks.integer(t, "position")
    return walk_pmf(n, r).prob(t)


#: Below this many non-lazy moves the parity factor is exact: an integer
#: binomial coefficient and one correctly rounded division.
_EXACT_PARITY = 128
#: Coefficients of the central-binomial series ``C(2i, i) / 4**i =
#: (pi i)**-0.5 * sum_l c[l] / i**l``, whose first omitted term is
#: ``39325 / (33554432 i**7)``.
_SERIES = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304)


def _parity_series(lo: int, hi: int) -> np.ndarray:
    """``f[j] = C(j, floor(j/2)) / 2**j`` for ``j`` in ``lo..hi - 1``, ``lo >= 128``.

    ``f[j] = C(2i, i) / 4**i`` with ``i = ceil(j/2)``, each entry by the
    series of :data:`_SERIES` on its own, so no error accumulates across
    entries.  Measured against 40-digit mpmath at every i from 64 to 3000
    and at 3000 points up to 5e6, it is within 3.3e-16 relative, the first
    omitted term dominating near i = 64.
    """
    i = np.arange(lo, hi, dtype=np.float64)
    i *= 0.5
    np.ceil(i, out=i)
    x = np.reciprocal(i)
    f = _SERIES[-1] * x
    f += _SERIES[-2]
    for c in _SERIES[-3::-1]:
        f *= x
        f += c
    i *= np.pi
    f /= np.sqrt(i, out=i)
    return f


def _parity_table() -> np.ndarray:
    """``f[j]`` for ``j < 2**14``, read-only: exact below :data:`_EXACT_PARITY`, the series above."""
    exact = [math.comb(j, j // 2) / 2**j for j in range(_EXACT_PARITY)]
    table = np.concatenate((exact, _parity_series(_EXACT_PARITY, 1 << 14)))
    table.flags.writeable = False
    return table


#: The parity factor every :func:`passage_prob` call reads below ``2**14``
#: moves: 128 KB, built once at import and never written or replaced.
_PARITY = _parity_table()


def _parity(lo: int, size: int) -> np.ndarray:
    """``f[lo : lo + size]``: read from :data:`_PARITY`, the series past its end."""
    hi = lo + size
    if hi <= _PARITY.size:
        return _PARITY[lo:hi]
    return np.concatenate((_PARITY[lo:], _parity_series(max(lo, _PARITY.size), hi)))


def passage_prob(n: int, r: float) -> float:
    """P(walk is in {0, 1} after ``n`` steps).

    By the reflection principle this equals the probability that the walk
    stays strictly below 1 for all of the first ``n`` steps; the library
    computes that second quantity independently in :func:`stay_below_prob`
    and tests their agreement.

    Computed by conditioning on the number ``j`` of non-lazy moves, which is
    Binomial(n, r): given ``j``, the walk is a simple walk after ``j``
    steps, which sits in {0, 1} with probability
    ``f[j] = C(j, floor(j/2)) / 2^j``.  The sum runs over the
    O(sqrt(n r (1 - r))) window of :func:`~lipgames.integer_pmf.binomial_window`
    alone, and ``f`` over it comes from :func:`_parity`.  Step counts above
    :data:`~lipgames.integer_pmf.MAX_TRIALS` raise
    :class:`~lipgames.errors.BudgetExceededError` before any array is built.
    """
    n, r = checks.count(n, "step count"), checks.rate(r)
    lo, moves = binomial_window(n, r)
    return float((moves * _parity(lo, moves.size)).sum())


def stay_below_prob(n: int, r: float) -> float:
    """P(walk is strictly below 1 at every one of the first ``n`` steps).

    Computed with an absorbing barrier at +1: mass that would step onto +1
    is removed, and the survivor mass after ``n`` steps is returned.  The
    recursion shares no code with :func:`walk_pmf`.  Step counts above
    :data:`MAX_DP_STEPS` raise :class:`~lipgames.errors.BudgetExceededError`.
    """
    n, r = _check_dp_params(n, r)
    hold = 1.0 - r
    half = 0.5 * r
    # alive[i] = P(not yet absorbed, position i - n); positions -n..0.
    alive = np.zeros(n + 1)
    alive[n] = 1.0
    for _ in range(n):
        nxt = hold * alive
        nxt[:-1] += half * alive[1:]
        nxt[1:] += half * alive[:-1]
        alive = nxt
    return float(alive.sum())
