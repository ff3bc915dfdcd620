"""Exact distributions for the lazy symmetric random walk on the integers.

The walk starts at 0 and at each step stays put with probability ``1 - r``
and moves +1 or -1 with probability ``r/2`` each, for a rate ``r`` in
``(0, 1]``.  The passage probability behind the Lipschitz constants is an
O(n) sum over the number of non-lazy moves; the full law, the point
probabilities and the barrier probability are O(n^2) dynamic programs over
the whole support, kept as independent cross-checks and refused above
:data:`MAX_DP_STEPS` steps.  Nothing is sampled or truncated.
"""

from __future__ import annotations

import numpy as np

from . import checks, integer_pmf
from .integer_pmf import IntegerPmf, binomial_probs

#: Largest step count the O(n^2) dynamic programs accept; ``walk_pmf`` takes
#: 1.2-1.8 s at 2**14 steps on a 2-core host, so the limit costs seconds.
MAX_DP_STEPS = 2**15


def _check_dp_params(n: int, r: float) -> None:
    checks.count(n, "step count")
    checks.rate(r)
    checks.budget(n, MAX_DP_STEPS, "walk dynamic program", "steps")


def walk_pmf(n: int, r: float) -> IntegerPmf:
    """Law of the walk position after ``n`` steps.

    The support is ``[-n, n]`` and the pmf is symmetric about 0 entry by
    entry: the update adds the two outer neighbours together before scaling,
    so mirrored positions see bitwise-identical arithmetic.  Step counts
    above :data:`MAX_DP_STEPS` raise :class:`~lipgames.errors.BudgetExceededError`.
    """
    _check_dp_params(n, r)
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


def _parity_table(size: int) -> np.ndarray:
    """``f[j] = C(j, floor(j/2)) / 2^j`` for ``j`` in ``0..size - 1``, read-only.

    ``f[j]`` is ``h[ceil(j/2)]`` for the half-length product
    ``h[i] = prod_{l < i} (2l + 1) / (2l + 2)``: one cumulative product over
    ``floor(size/2)`` ratios, each entry then repeated twice.  A cumulative
    product is sequential, so every table's prefix equals the shorter tables
    bit for bit.
    """
    odd = np.arange(1, size, 2, dtype=np.float64)
    h = np.empty(odd.size + 1)
    h[0] = 1.0
    np.cumprod(odd / (odd + 1.0), out=h[1:])
    table = np.repeat(h, 2)[1 : size + 1]
    table.flags.writeable = False
    return table


#: The parity table every :func:`passage_prob` call reads.  It only grows,
#: and is never written: a longer table is built whole and rebound.
_in_01 = _parity_table(1)


def _in_01_prefix(n: int) -> np.ndarray:
    """``f[0..n]`` of :func:`_parity_table`, from the shared table.

    A table shorter than ``n + 1`` is replaced by one at the next power of
    two, capped at ``MAX_TRIALS + 1`` entries (80 MB), so an ascending run of
    calls rebuilds it O(log n) times.  Prefixes are bit-identical at every
    length, so results do not depend on the order of calls.
    """
    global _in_01
    table = _in_01
    if table.size <= n:
        table = _in_01 = _parity_table(min(1 << n.bit_length(), integer_pmf.MAX_TRIALS + 1))
    return table[: n + 1]


def passage_prob(n: int, r: float) -> float:
    """P(walk is in {0, 1} after ``n`` steps).

    By the reflection principle this equals the probability that the walk
    stays strictly below 1 for all of the first ``n`` steps; the library
    computes that second quantity independently in :func:`stay_below_prob`
    and tests their agreement.

    Computed in O(n) by conditioning on the number ``j`` of non-lazy moves,
    which is Binomial(n, r): given ``j``, the walk is a simple walk after
    ``j`` steps, which sits in {0, 1} with probability
    ``f[j] = C(j, floor(j/2)) / 2^j``.  ``f`` does not depend on ``n`` or
    ``r``, so it is read from the prefix of one table shared by every call
    (see :func:`_in_01_prefix`), and a call costs one Binomial pmf and one
    dot product.  Step counts above :data:`~lipgames.integer_pmf.MAX_TRIALS`
    raise :class:`~lipgames.errors.BudgetExceededError` before any array is
    built and before the table grows.
    """
    n = checks.count(n, "step count")
    checks.rate(r)
    moves = binomial_probs(n, r)
    return float(np.dot(moves, _in_01_prefix(n)))


def stay_below_prob(n: int, r: float) -> float:
    """P(walk is strictly below 1 at every one of the first ``n`` steps).

    Computed with an absorbing barrier at +1: mass that would step onto +1
    is removed, and the survivor mass after ``n`` steps is returned.  The
    recursion shares no code with :func:`walk_pmf`.  Step counts above
    :data:`MAX_DP_STEPS` raise :class:`~lipgames.errors.BudgetExceededError`.
    """
    _check_dp_params(n, r)
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
