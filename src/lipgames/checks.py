"""Argument checks shared by the package: one input policy, written once.

A bool is never a number: counts, indices and shifts are integers, and
every float check refuses a bool and is a comparison that NaN fails.  Every
refusal is a ``ValueError``.  Size limits are module constants, each refused
by :func:`budget` before anything is allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError

#: Sum-to-one guard of every probability vector.  Largest drift measured on
#: valid input: ``walk_pmf`` at 2**15 steps 1.84e-12 (32 rates in [0.01, 0.98],
#: worst at r = 0.06), ``count_distribution`` at budget-sized laws 8.3e-14 and
#: ``pb_pmf`` up to 30,000 terms 8.9e-16.
SUM_GUARD_TOL = 1e-11

_BOOLS = (bool, np.bool_)


def integer(value, name: str) -> int:
    """``value`` as an int, refused unless it is an integer of either sign."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int, refused unless it is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def index(value, size: int, name: str = "action") -> int:
    """``value`` as an int, refused unless it is an integer in ``0..size - 1``."""
    if count(value, name) >= size:
        raise ValueError(f"{name} must lie in 0..{size - 1}, got {value!r}")
    return int(value)


def budget(need: int, limit: int, what: str, unit: str) -> None:
    """Refuse a request that needs more than ``limit`` units: the package's one size refusal."""
    if need > limit:
        raise BudgetExceededError(f"{what} needs {need} {unit}, over the budget of {limit}")


def delta(value, zero_ok: bool = False) -> None:
    if isinstance(value, _BOOLS) or not (0.0 < value < 1.0 or zero_ok and value == 0.0):
        raise ValueError(f"delta must lie in {'[' if zero_ok else '('}0, 1), got {value!r}")


def rate(value) -> None:
    if isinstance(value, _BOOLS) or not 0.0 < value <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {value!r}")


def instance(n, k, delta_) -> None:
    count(n, "player count", 2)
    count(k, "action count", 2)
    delta(delta_)


def bound(value, name: str, zero_ok: bool = False) -> None:
    if isinstance(value, _BOOLS) or not (value > 0.0 or zero_ok and value == 0.0):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'}, got {value!r}")


def unit_interval(values: np.ndarray, name: str) -> None:
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")


def probabilities(probs) -> np.ndarray:
    """``probs`` as float64, refused unless 1-D, non-empty, nonnegative and summing to 1
    within :data:`SUM_GUARD_TOL` (so an infinite entry fails too)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a non-empty one-dimensional array")
    if not np.all(probs >= 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= SUM_GUARD_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return probs
