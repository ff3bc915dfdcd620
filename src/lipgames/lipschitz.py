"""Worst-case Lipschitz constants of delta-perturbed anonymous games.

The constant ``lambda(n, k, delta)`` is the largest influence one player's
action can have on another player's expected payoff across all n-player
k-action anonymous games once every action is delta-perturbed.  For three
or more actions it equals ``(1 - delta)`` times a passage probability of a
lazy walk.  For two actions it is ``(1 - delta)`` times the split Bernoulli
maximum of :mod:`lipgames.poisson_binomial`; at even n that maximum is the
chance that two i.i.d. Binomial(n/2 - 1, delta/2) draws coincide, an
O(sqrt(n)) sum, and at odd n it is bracketed by the adjacent even values.
The module also prices its evaluations, by :func:`_charge` and :func:`_charge_sweep`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import checks, integer_pmf
from . import poisson_binomial as pb
from . import random_walk as rw
from .errors import IntegrityError

METHOD_WALK = "walk-closed-form"
METHOD_TWO_BLOCK = "two-block-exact"
METHOD_EVEN_WALK = "even-walk"
METHOD_ODD_BRACKET = "odd-bracket"
METHOD_ORACLE = "oracle"

#: Largest odd n for which the dispatcher runs the O(n^2) exact split
#: maximum for two-action games; beyond it, odd n reports the bracket
#: midpoint.  Even n always uses the O(sqrt(n)) collision formula.
TWO_ACTION_EXACT_LIMIT = 256

#: Largest walk-step charge of one sweep (:func:`_charge_sweep`): a row of n players
#: costs n steps, n**2 when it scans splits, and at least its fixed cost ``_MIN_ROW_STEPS``.
#: Measured per ``lipschitz_constant`` call (in process, 2-core host): a k = 3 row takes
#: 0.02-0.03 ms up to n = 1000 and 0.7-1.1 ms near 10**7, a split-scan row 0.54-1.27 ms.
#: The worst grids the limit admits, odd k = 2 rows 3-255 at 173 deltas and k = 3 rows
#: 2-4095 at 29, took 8.6-16.5 s and 2.7-3.9 s.  A row near 10**7 costs about 1 ms but
#: is charged as much as 150 split-scan rows: the closed forms sum O(sqrt(n)) entries.
MAX_SWEEP_STEPS = 5 * 10**8
_MIN_ROW_STEPS = 1 << 12

#: Residual ``|lambda - delta|`` at which :func:`delta_fixed_point` stops.
FIXED_POINT_TOL = 1e-10

_BRACKET_SLACK = 1e-9


@dataclass(frozen=True)
class LambdaResult:
    """A computed Lipschitz constant with its bracket and provenance tag.

    ``lower == upper == value`` for every method except ``odd-bracket``,
    where the bracket comes from the adjacent even player counts and
    ``value`` is either the exact constant (small n) or the geometric
    bracket midpoint (large n).
    """

    value: float
    lower: float
    upper: float
    method: str
    asymptotic: Optional[float] = None

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"bracket is inverted: [{self.lower}, {self.upper}]")
        if not (self.lower - _BRACKET_SLACK <= self.value <= self.upper + _BRACKET_SLACK):
            raise ValueError(
                f"value {self.value} falls outside the bracket [{self.lower}, {self.upper}]"
            )
        if self.method != METHOD_ODD_BRACKET and not self.lower == self.value == self.upper:
            raise ValueError(f"method {self.method!r} must carry a degenerate bracket")


def asymptotic_estimate(n: int, k: int, delta: float) -> float:
    """Closed-form large-n approximation of the Lipschitz constant.

    The exact constant divided by this estimate tends to 1 as
    ``n * delta / k`` grows.
    """
    n, k = checks.count(n, "player count", 1), checks.count(k, "action count", 2)
    delta = checks.delta(delta)
    _float_range(n, "player count")
    _float_range(k, "action count")
    return _asymptotic(n, k, delta)


def lipschitz_multi_action(n: int, k: int, delta: float) -> LambdaResult:
    """Exact constant for k >= 3 actions: a scaled walk passage probability.

    ``(1 - delta) * P(walk with rate 2*delta/k is in {0, 1} after n - 2 steps)``.
    """
    n, k, delta = checks.instance(n, k, delta)
    if k < 3:
        raise ValueError("k must be at least 3; use the two-action routines for k = 2")
    _charge(n, k)
    return _dispatch(n, k, delta)


def lipschitz_two_action(n: int, delta: float) -> LambdaResult:
    """Exact two-action constant for any n, even or odd.

    ``(1 - delta)`` times the split Bernoulli maximum over n - 2 terms.
    The split scan costs O(n^2) and refuses n - 2 above
    :data:`~lipgames.poisson_binomial.SPLIT_SCAN_LIMIT`.
    :func:`lipschitz_constant` scans only at odd n; at even n it takes the
    O(sqrt(n)) :func:`lipschitz_two_action_even`, which this scan cross-checks.
    """
    n, _, delta = checks.instance(n, 2, delta)
    value = _two_action(n, delta)
    return LambdaResult(value, value, value, METHOD_TWO_BLOCK, _asymptotic(n, 2, delta))


def lipschitz_two_action_even(n: int, delta: float) -> float:
    """Exact two-action constant at even n via the binomial collision formula.

    ``(1 - delta) * P(two i.i.d. Binomial(n/2 - 1, delta/2) draws coincide)``,
    which equals the walk with rate ``delta*(1 - delta/2)`` sitting at 0
    after ``n/2 - 1`` steps; agrees with :func:`lipschitz_two_action`,
    costs O(sqrt(n)), and is the route :func:`lipschitz_constant` takes at even n.
    """
    n, _, delta = checks.instance(n, 2, delta)
    if n % 2:
        raise ValueError(f"player count must be even, got {checks._shown(n)}")
    return _two_action_even(n, delta)


def two_action_odd_bracket(n: int, delta: float) -> tuple[float, float]:
    """Bracket for the two-action constant at odd n from the even neighbours.

    The lower end is the constant at n + 1 players; the upper end is the
    geometric mean of the constants at n - 1 and n + 1 players.  The exact
    value always lies inside.
    """
    n, _, delta = checks.instance(n, 2, delta)
    if n % 2 == 0:
        raise ValueError(f"player count must be odd, got {checks._shown(n)}")
    return _odd_bracket(n, delta)


def lipschitz_constant(n: int, k: int, delta: float) -> LambdaResult:
    """Worst-case Lipschitz constant, dispatching on the action count.

    k >= 3 always uses the exact walk formula.  For k = 2, every even n
    uses the O(sqrt(n)) collision formula (``even-walk``); odd n carries the
    even-neighbour bracket, with the exact split maximum up to
    ``TWO_ACTION_EXACT_LIMIT`` and the geometric midpoint beyond.
    """
    n, k, delta = checks.instance(n, k, delta)
    _charge(n, k)
    return _dispatch(n, k, delta)


# The private routes below take arguments their public callers have checked.


def _asymptotic(n, k, delta) -> float:
    if k >= 3:
        return (1.0 - delta) * math.sqrt(k / (math.pi * n * delta))
    return (1.0 - delta) / math.sqrt(math.pi * n * delta * (1.0 - 0.5 * delta))


def _float_range(count, name) -> None:
    """Refuse a count past the float range, which the closed forms cannot convert."""
    if count > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}, got {checks._shown(count)}")


def _charge(n, k) -> None:
    """Refuse n by the trials of the first Binomial pmf :func:`_dispatch` builds, and k
    past the float range, which no budget covers, before either meets a float."""
    integer_pmf.charge_trials(n - 2 if k >= 3 else (n + 1) // 2 - 1)
    _float_range(k, "action count")


def _charge_sweep(rows, k, columns) -> None:
    """Refuse ``columns`` deltas at each n of ``rows`` past :data:`MAX_SWEEP_STEPS`: n steps a row
    in closed form, plus the excess charge of the rows below the floor, where every scanned row
    lies.  The rows are counted without ``len``, which fails past ``sys.maxsize`` of them."""
    small = range(rows.start, min(rows.stop, _MIN_ROW_STEPS), rows.step)
    excess = sum(max(n * n if _runs_split_scan(n, k) else n, _MIN_ROW_STEPS) - n for n in small)
    steps = ((rows[-1] - rows[0]) // rows.step + 1) * (rows[0] + rows[-1]) // 2 + excess
    checks.budget(steps * columns, MAX_SWEEP_STEPS, "sweep", "walk steps")


def _passage(steps, k, delta) -> float:
    """The walk passage probability at rate ``2 * delta / k``.

    A rate that underflows to 0.0 is a walk that never moves: it stays at 0, in {0, 1}.
    """
    rate = 2.0 * delta / k
    return rw.passage_prob(steps, rate) if rate else 1.0


def _multi_action(n, k, delta) -> float:
    return (1.0 - delta) * _passage(n - 2, k, delta)


def _two_action(n, delta) -> float:
    return (1.0 - delta) * pb.two_block_max_prob(n - 2, delta).value


def _two_action_even(n, delta) -> float:
    return (1.0 - delta) * pb.binomial_collision_prob(n // 2 - 1, delta)


def _odd_bracket(n, delta) -> tuple[float, float]:
    lower = _two_action_even(n + 1, delta)
    upper = math.sqrt(_two_action_even(n - 1, delta) * lower)
    return lower, upper


def _runs_split_scan(n, k) -> bool:
    """Whether :func:`_dispatch` runs the O(n^2) split scan at (n, k)."""
    return k == 2 and n % 2 == 1 and n <= TWO_ACTION_EXACT_LIMIT


def _dispatch(n, k, delta) -> LambdaResult:
    """:func:`lipschitz_constant` without its argument check and charge."""
    estimate = _asymptotic(n, k, delta)
    if k >= 3:
        value = _multi_action(n, k, delta)
        return LambdaResult(value, value, value, METHOD_WALK, estimate)
    if n % 2 == 0:
        value = _two_action_even(n, delta)
        return LambdaResult(value, value, value, METHOD_EVEN_WALK, estimate)
    lower, upper = _odd_bracket(n, delta)
    value = _two_action(n, delta) if _runs_split_scan(n, k) else math.sqrt(lower * upper)
    return LambdaResult(value, lower, upper, METHOD_ODD_BRACKET, estimate)


def _estimate_fixed_point(n, k, lo, hi) -> float:
    """Root of ``_asymptotic(n, k, d) = d`` in [lo, hi], by bisection.

    ``_asymptotic(n, k, d) - d`` decreases in d for both closed forms.
    """
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _asymptotic(n, k, mid) > mid:
            lo = mid
        else:
            hi = mid
    return mid


class FixedPoint(NamedTuple):
    """``value = lambda(n, k, delta)`` lies within ``FIXED_POINT_TOL`` of ``delta``."""

    delta: float
    value: float


def delta_fixed_point(n: int, k: int) -> FixedPoint:
    """Solve ``lipschitz_constant(n, k, delta) = delta`` for delta.

    Returns ``(delta, value)`` with ``|value - delta| <= FIXED_POINT_TOL``
    (1e-10), a module constant with no parameter or flag to set it.  The gap
    ``lambda - delta`` is positive near 0 and negative near 1, which
    brackets a root.  For k >= 3 and for k = 2 at even n the root is
    unique: lambda is then ``1 - delta`` times a walk or collision
    probability that does not grow with delta, so it strictly decreases
    (tested on a grid).  At odd n with k = 2 monotonicity is not claimed;
    there the residual is verified, not assumed.  Perturbing every action by
    this delta leaves some profile within ``2 * k * value`` of a best
    response, hence a ``2 * delta``-equilibrium of the perturbed game.

    The search starts at the root d0 of ``asymptotic_estimate = delta``,
    found by bisecting the closed form alone.  It steps outward from d0,
    0.1 % of d0 first and doubling each time, to the first point where the
    gap changes sign, and raises :class:`~lipgames.errors.IntegrityError`
    if the gap keeps its sign up to the end ``1e-9`` or ``1 - 1e-9``.  On
    that bracket it takes Illinois steps (regula falsi that halves the
    stored gap of an end kept twice in a row), or the midpoint when the
    interpolant is not strictly inside.  It stops at the first evaluated
    point within the residual, or raises ``IntegrityError`` once
    the midpoint equals an end of the bracket, which then can shrink no
    further.
    """
    n, k = checks.count(n, "player count", 2), checks.count(k, "action count", 2)
    _charge(n, k)
    tol = FIXED_POINT_TOL
    lo, hi = 1e-9, 1.0 - 1e-9
    start = _estimate_fixed_point(n, k, lo, hi)

    def gap(d: float) -> float:
        return _dispatch(n, k, d).value - d

    d, gd = start, gap(start)
    if abs(gd) <= tol:
        return FixedPoint(d, gd + d)
    step = 1e-3 * start if gd > 0.0 else -1e-3 * start
    while True:
        e = min(max(start + step, lo), hi)
        ge = gap(e)
        if abs(ge) <= tol:
            return FixedPoint(e, ge + e)
        if (ge > 0.0) != (gd > 0.0):
            break
        if e in (lo, hi):
            raise IntegrityError("fixed-point gap does not change sign over (0, 1)")
        d, gd = e, ge
        step *= 2.0
    (a, ga), (b, gb) = sorted([(d, gd), (e, ge)])
    moved = None
    while (mid := 0.5 * (a + b)) not in (a, b):
        c = (a * gb - b * ga) / (gb - ga)
        if not a < c < b:
            c = mid
        gc = gap(c)
        if abs(gc) <= tol:
            return FixedPoint(c, gc + c)
        if (gc > 0.0) == (ga > 0.0):
            a, ga = c, gc
            if moved == "a":
                gb *= 0.5
            moved = "a"
        else:
            b, gb = c, gc
            if moved == "b":
                ga *= 0.5
            moved = "b"
    raise IntegrityError(f"fixed-point search stalled at [{a!r}, {b!r}] without reaching residual {tol}")
