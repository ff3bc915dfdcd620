"""Probability mass functions on a contiguous integer range."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks

#: Most entries :func:`window_span` admits in one Binomial window.  Binomial(m, 1/2) fills it
#: at m = 30,539,601,284, where ``passage_prob`` took 74-77 ms (2-core host, numpy 2.4) and
#: the accuracy tests hold both closed forms within 1e-15 of 40-digit mpmath.
MAX_WINDOW = 2**21


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


def window_span(m: int, p: float) -> tuple[int, int, int]:
    """``(lo, mode, hi)`` of :func:`binomial_window`: ``mode = min(floor((m + 1) p), m)`` and
    ``[lo, hi] = [max(0, mode - w), min(m, mode + w)]``, ``w = ceil(12 sigma) + 40`` with
    ``sigma**2 = m p (1 - p)``.  Refuses 2**53 trials or more before they meet a float, as the
    window's float64 indices are exact only below it, and more than :data:`MAX_WINDOW` entries.
    """
    checks.budget(m, 2**53 - 1, "binomial pmf", "trials")
    mode = min(int((m + 1) * p), m)
    w = math.ceil(12.0 * math.sqrt(m * p * (1.0 - p))) + 40
    lo, hi = max(0, mode - w), min(m, mode + w)
    checks.budget(hi - lo + 1, MAX_WINDOW, "binomial pmf", "window entries")
    return lo, mode, hi


def binomial_window(m: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(m, p) point probabilities ``probs`` at ``lo .. lo + probs.size - 1``.

    Only the window of :func:`window_span` is built: O(sqrt(m)) entries, not ``m + 1``, so
    the pair is not an :class:`IntegerPmf`, whose tails are never trimmed.  The mass dropped
    is at most ``2 e**-60``: the mode lies within 1 of the mean ``m p``, so a dropped value
    is at least ``t = w`` from the mean, and Bernstein's inequality bounds each tail by
    ``exp(-t**2 / (2 (sigma**2 + t / 3)))``, where ``t**2 - 120 (sigma**2 + t / 3) =
    24 sigma**2 + 480 sigma >= 0`` at ``t = 12 sigma + 40`` makes the exponent at most -60.

    Inside the window the entries start from 1 at the mode and take cumulative products of
    the neighbour ratios outward in both directions, so no factorial or ``lgamma`` is formed
    and the peak carries no cancellation; they are then divided by their sum.  ``p`` of 0
    or 1 gives the single entry 1 at 0 or ``m``.
    """
    if p == 0.0 or p == 1.0:
        return window_span(m, p)[1], np.ones(1)
    lo, probs = _mode_products(m, p)
    probs /= probs.sum()
    return lo, probs


def _mode_products(m: int, p: float) -> tuple[int, np.ndarray]:
    """:func:`binomial_window`'s ``(lo, entries)`` before they are normalised."""
    lo, mode, hi = window_span(m, p)
    c = mode - lo
    # entry[i + 1] / entry[i] = a[i] / b[i] with a[i] = (m - i) * odds and b[i] = i + 1,
    # for i in lo..hi - 1: taken upward from the mode, and its reciprocal b / a downward,
    # written through a reversed view.  The ratios overwrite a and b, so the call holds
    # three arrays of the window.  multiply.accumulate is the product np.cumprod takes,
    # without its Python-level dispatch (about 1.5 us a call, 2-core host, numpy 2.4).
    a = np.arange(m - lo, m - hi, -1, dtype=np.float64)
    a *= p / (1.0 - p)
    b = np.arange(lo + 1, hi + 1, dtype=np.float64)
    np.divide(a[c:], b[c:], out=a[c:])
    np.divide(b[:c], a[:c], out=b[:c])
    probs = np.empty(hi - lo + 1)
    probs[c] = 1.0
    np.multiply.accumulate(a[c:], out=probs[c + 1 :])
    np.multiply.accumulate(b[:c][::-1], out=probs[:c][::-1])
    return lo, probs
