"""Argument checks shared by the package: one input policy, written once.

A bool or a string is never a number.  A scalar check admits an int, float,
numpy integer or numpy floating, the number rule :func:`array` applies to an
entry, and returns the Python ``int`` or ``float`` it admits, so a numpy scalar
is computed as the Python number it equals.  Counts, indices and shifts are
integers, every float check is a comparison that NaN fails, and :func:`array`
is the only code that turns an outside array into numbers.  Every refusal is
a ``ValueError``.  Size limits are module constants, each refused by
:func:`budget` before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError

#: Sum-to-one guard of every probability vector.  Largest drift measured on
#: valid input: ``walk_pmf`` at 2**15 steps 1.84e-12 (32 rates in [0.01, 0.98],
#: worst at r = 0.06), ``count_distribution`` at budget-sized laws 8.3e-14 and
#: ``pb_pmf`` up to 30,000 terms 8.9e-16.
SUM_GUARD_TOL = 1e-11

_BOOLS = (bool, np.bool_)
_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _shown(value) -> str:
    """``value`` as a refusal prints it: its ``repr``, but an int of more than 1024 bits as
    the power of two below its size, ``over 2**b`` or ``under -2**b``, as ``str(int)``
    refuses past 4300 digits, and a tuple entry by entry by the same rule."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))}{',' if len(value) == 1 else ''})"
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'over ' if value > 0 else 'under -'}2**{value.bit_length() - 1}"
    return repr(value)


def integer(value, name: str) -> int:
    """``value`` as an int, refused unless it is an integer of either sign."""
    if isinstance(value, bool) or not isinstance(value, _INTS):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int, refused unless it is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, _INTS) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return int(value)


def index(value, size: int, name: str = "action") -> int:
    """``value`` as an int, refused unless it is an integer in ``0..size - 1``."""
    if count(value, name) >= size:
        raise ValueError(f"{name} must lie in 0..{_shown(size - 1)}, got {_shown(value)}")
    return int(value)


def budget(need: int, limit: int, what: str, unit: str) -> None:
    """Refuse a request that needs more than ``limit`` units: the package's one size refusal.

    The need is printed by :func:`_shown`.
    """
    if need > limit:
        raise BudgetExceededError(f"{what} needs {_shown(need)} {unit}, over the budget of {limit}")


def _real(value) -> float:
    """``value`` as a float by :func:`array`'s number rule, else NaN, which fails every float
    check; a Python int past the float range is the infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def delta(value, zero_ok: bool = False) -> float:
    if not (0.0 < (number := _real(value)) < 1.0 or zero_ok and number == 0.0):
        raise ValueError(f"delta must lie in {'[' if zero_ok else '('}0, 1), got {_shown(value)}")
    return number


def rate(value) -> float:
    if not 0.0 < (number := _real(value)) <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {_shown(value)}")
    return number


def instance(n, k, delta_) -> tuple[int, int, float]:
    return count(n, "player count", 2), count(k, "action count", 2), delta(delta_)


def bound(value, name: str) -> float:
    if not (number := _real(value)) >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {_shown(value)}")
    if number == math.inf and isinstance(value, int):  # inf is admitted, an int past the float range is not
        raise ValueError(f"{name} must lie within the float range, got {_shown(value)}")
    return number


def unit_interval(values: np.ndarray, name: str) -> None:
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")


def array(values, name: str, ndim: int = 1, integers: bool = False) -> np.ndarray:
    """``values`` as float64, or int64 when ``integers``: the one cast of an outside array.

    Refused unless ``ndim``-dimensional and made of real numbers, integers
    when ``integers``; a bool or a string is never one.  An ndarray is judged
    by its dtype alone.  A Python sequence is judged entry by entry, as numpy
    would read ``[True, 0.5]`` as ``[1.0, 0.5]``, and its refusal names the
    innermost row holding the first bad entry, as in ``payoffs[0][1]``.
    """
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got {arr.ndim}-D")
    what, dtype, kinds, types = (("integers", np.int64, "iu", _INTS) if integers
                                 else ("numbers", np.float64, "iuf", _REALS))
    if arr is values:  # judged by its dtype alone
        where = None if arr.dtype.kind in kinds else ""
    else:  # one subclass test per type met; the entries are read again only to name a bad one
        bad = {t for t in set(map(type, arr.flat)) if not issubclass(t, types) or issubclass(t, _BOOLS)}
        where = None
        if bad:
            first = next(i for i, v in enumerate(arr.flat) if type(v) in bad)
            where = "".join(f"[{i}]" for i in np.unravel_index(first, arr.shape)[:-1])
    if where is not None:
        raise ValueError(f"{name}{where} must hold {what} only")
    try:
        return arr.astype(dtype, copy=False)
    except OverflowError:  # a Python int past the range of the dtype
        raise ValueError(f"{name} must hold {what} within {np.dtype(dtype)} range") from None


def probabilities(probs) -> np.ndarray:
    """``probs`` as :func:`array` makes it, refused unless non-empty, nonnegative and
    summing to 1 within :data:`SUM_GUARD_TOL` (so an infinite entry fails too)."""
    probs = array(probs, "probs")
    if probs.size == 0:
        raise ValueError("probs must be a non-empty one-dimensional array")
    if not np.all(probs >= 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= SUM_GUARD_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return probs
