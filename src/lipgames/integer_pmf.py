"""Probability mass functions on a contiguous integer range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks

#: Largest trial count :func:`binomial_probs` accepts.  The O(n) closed forms
#: built on it hold a few float arrays of that length (80 MB each at the
#: limit), and the walk's shared parity table in :mod:`lipgames.random_walk`
#: keeps at most ``MAX_TRIALS + 1`` entries for the life of the process;
#: larger counts raise :class:`BudgetExceededError` up front instead of
#: failing with ``MemoryError`` part way through.
MAX_TRIALS = 10**7


@dataclass(frozen=True, eq=False)
class IntegerPmf:
    """Distribution of an integer random variable with contiguous support.

    ``probs[i]`` is the probability of the value ``offset + i``.  The stored
    support is whatever the producing computation yields; tails are never
    trimmed, so identities between different routes to the same law hold
    entry by entry.  ``offset`` must be an integer, never ``bool``, and
    ``probs`` must pass :func:`lipgames.checks.probabilities`, so a bool or a
    string entry is refused.
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", checks.integer(self.offset, "offset"))
        object.__setattr__(self, "probs", checks.probabilities(self.probs))

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + self.probs.size - 1

    def prob(self, t: int) -> float:
        """P(X = t), zero outside the stored support; ``t`` must be an integer."""
        i = checks.integer(t, "value") - self.offset
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0


def charge_trials(m: int) -> None:
    """Refuse a Binomial pmf of more than :data:`MAX_TRIALS` trials."""
    checks.budget(m, MAX_TRIALS, "binomial pmf", "trials")


def binomial_probs(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) point probabilities at 0..m.

    Starts from 1 at the mode, takes cumulative products of the neighbour
    ratios outward in both directions and divides by their sum, so no
    factorial or ``lgamma`` is formed and the peak carries no cancellation.
    Both products are written straight into the one returned array, which is
    then normalised in place.  Far tails underflow to 0.  ``p`` may be 0 or 1.
    """
    charge_trials(m)
    if p == 0.0 or p == 1.0:
        probs = np.zeros(m + 1)
        probs[m if p == 1.0 else 0] = 1.0
        return probs
    odds = p / (1.0 - p)
    mode = min(int((m + 1) * p), m)
    # probs[i + 1] / probs[i] = a[i] / b[i] with a[i] = (m - i) * odds and
    # b[i] = i + 1: taken upward from the mode, and its reciprocal b / a
    # downward, written through a reversed view.
    i = np.arange(m, dtype=np.float64)
    a = (m - i) * odds
    b = i + 1.0
    probs = np.empty(m + 1)
    probs[mode] = 1.0
    np.cumprod(a[mode:] / b[mode:], out=probs[mode + 1 :])
    np.cumprod(b[:mode][::-1] / a[:mode][::-1], out=probs[:mode][::-1])
    probs /= probs.sum()
    return probs
