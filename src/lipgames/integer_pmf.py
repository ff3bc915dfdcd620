"""Probability mass functions on a contiguous integer range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks

#: Largest trial count :func:`binomial_probs` accepts.  The O(n) closed forms
#: built on it hold a few float arrays of that length (80 MB each at the
#: limit); larger counts raise :class:`BudgetExceededError` up front instead
#: of failing with ``MemoryError`` part way through.
MAX_TRIALS = 10**7


@dataclass(frozen=True)
class IntegerPmf:
    """Distribution of an integer random variable with contiguous support.

    ``probs[i]`` is the probability of the value ``offset + i``.  The stored
    support is whatever the producing computation yields; tails are never
    trimmed, so identities between different routes to the same law hold
    entry by entry.  ``probs`` must pass :func:`lipgames.checks.probabilities`.
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", checks.probabilities(self.probs))

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + self.probs.size - 1

    def prob(self, t: int) -> float:
        """P(X = t), zero outside the stored support."""
        i = t - self.offset
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0

    def mean(self) -> float:
        support = np.arange(self.offset, self.offset + self.probs.size)
        return float(support @ self.probs)


def binomial_probs(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) point probabilities at 0..m.

    Starts from 1 at the mode, takes cumulative products of the neighbour
    ratios outward in both directions and divides by their sum, so no
    factorial or ``lgamma`` is formed and the peak carries no cancellation.
    Far tails underflow to 0.  ``p`` may be 0 or 1.
    """
    checks.budget(m, MAX_TRIALS, "binomial pmf", "trials")
    if p == 0.0 or p == 1.0:
        probs = np.zeros(m + 1)
        probs[m if p == 1.0 else 0] = 1.0
        return probs
    odds = p / (1.0 - p)
    mode = min(int((m + 1) * p), m)
    i = np.arange(m + 1, dtype=np.float64)
    # probs[i + 1] / probs[i] = odds * (m - i) / (i + 1), taken upward from the
    # mode, and its reciprocal taken downward.
    up = np.cumprod(odds * (m - i[mode:m]) / (i[mode:m] + 1.0))
    down = np.cumprod(i[mode:0:-1] / (odds * (m - i[mode:0:-1] + 1.0)))
    probs = np.concatenate((down[::-1], [1.0], up))
    return probs / probs.sum()
