"""Brute-force Lipschitz constants straight from the total-variation definition.

This module is the ground truth for the closed forms: it enumerates
occupancy count vectors of perturbed profiles exactly and maximises the
total variation distance between the two one-player shifts.  It shares no
probabilistic code with the walk or Poisson Binomial modules.

Laws of every count class of m players are folded in one batch, one depth
(player count) at a time, each depth held states-major so that adding a
player scatters whole contiguous rows; the delta-free index data of each
depth is built once per process.  :func:`lipschitz_oracle` and the
equilibrium search of :mod:`lipgames.games` share that builder.

Actions are 0-based throughout the package; the pair of actions the
deviating player toggles between is fixed to (0, 1), which is without loss
of generality by symmetry.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import checks

#: Ceiling on the cells (``max(classes, k) x occupancy states``) the oracle
#: handles; :mod:`lipgames.games` charges its equilibrium scan against it too.
CELL_BUDGET = 10**7


def _classes(m: int, k: int) -> int:
    """Count classes of m players over k actions, ``C(m + k - 1, k - 1)``, or a lower bound past 2**15."""
    j = min(m, k - 1)
    # Exact while j <= 2**15, where comb(2j, j) takes 0.1 s and grows quadratically.  Past it, 2**j <=
    # C(2j, j) exceeds every budget and numpy dimension, and j is capped to keep it cheap to multiply.
    return math.comb(m + k - 1, j) if j <= 2**15 else 2 ** min(j, 2**20)


def _compositions(m: int, k: int) -> np.ndarray:
    """All k-part compositions of m, a row each in ascending lexicographic order, unchecked.

    Stars and bars: the bar positions ``combinations(range(1, m + k), k - 1)``,
    in their own order, give the rows in order; the counts are the gaps.
    """
    dtype = np.min_scalar_type(m + k)
    if m == 0:  # the one row, without the k Python ints combinations would pool for it
        return np.zeros((1, k), dtype)
    row = np.dtype((dtype, (k - 1,)))
    bars = np.fromiter(itertools.combinations(range(1, m + k), k - 1), row, _classes(m, k))
    return np.diff(bars, axis=1, prepend=dtype.type(0), append=dtype.type(m + k)) - 1


def count_vectors(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-part nonnegative compositions of m, in ascending lexicographic order.

    Their ``rows * k`` cells are charged against :data:`CELL_BUDGET` before
    any row is built.
    """
    m = checks.count(m, "total")
    k = checks.count(k, "action count", 2)
    checks.budget(_classes(m, k) * k, CELL_BUDGET, "count vectors", "cells")
    return tuple(map(tuple, _compositions(m, k).tolist()))


def count_vector_rank(counts: Sequence[int]) -> int:
    """Lexicographic rank of a composition among all of the same sum and length."""
    counts = tuple(checks.count(c, "count") for c in counts)
    if len(counts) < 2:
        raise ValueError(f"count vector must have >= 2 parts, got {checks._shown(counts)}")
    rank = 0
    remaining = sum(counts)
    parts = len(counts)
    # The count of compositions of this sum and length, the size of any table a rank can index.
    checks.budget(_classes(remaining, parts), CELL_BUDGET, "count vector rank", "classes")
    for c in counts[:-1]:
        # compositions whose current coordinate is smaller than c
        rank += math.comb(remaining + parts - 1, parts - 1) - math.comb(
            remaining - c + parts - 1, parts - 1
        )
        remaining -= c
        parts -= 1
    return rank


class _Depth(NamedTuple):
    """Delta-free index data of one fold step, from compositions of t to those of t + 1.

    The cache hands these to every caller, so every array is read-only.
    """

    #: Per action j: the ranks at t + 1 of the compositions of t plus one j, in
    #: order, as a slice where they are contiguous (always at k = 2).
    targets: tuple
    #: Per composition of t + 1: its largest action.
    actions: np.ndarray
    #: Per composition of t + 1: the rank at t of it less one of its largest action.
    parents: np.ndarray


@functools.lru_cache(maxsize=None)
def _depth(t: int, k: int) -> _Depth:
    # Adding one action j maps the compositions of t, in order, onto those of
    # t + 1 with a nonzero count j; the copy frees the rest of nonzero's output.
    # Frozen before it is sliced, so the rows kept as targets are read-only too.
    maps = np.nonzero(_compositions(t + 1, k).T)[1].reshape(k, -1).copy()
    maps.flags.writeable = False
    targets = tuple(
        slice(int(row[0]), int(row[-1]) + 1) if row[-1] - row[0] == len(row) - 1 else row for row in maps
    )
    actions = np.empty(_classes(t + 1, k), dtype=np.int64)
    parents = np.empty_like(actions)
    for j, row in enumerate(maps):  # a later (larger) action overwrites
        actions[row] = j
        parents[row] = np.arange(len(row))
    actions.flags.writeable = parents.flags.writeable = False
    return _Depth(targets, actions, parents)


def perturbed_action_law(j: int, k: int, delta: float) -> np.ndarray:
    """Distribution over the k actions of a delta-perturbed action ``j``.

    The declared action keeps probability ``1 - delta + delta/k``; every
    other action receives ``delta/k``.  Its k cells are charged against
    :data:`CELL_BUDGET`; the law is then the one column :func:`_action_laws` builds.
    """
    k = checks.count(k, "action count", 2)
    checks.budget(k, CELL_BUDGET, "action law", "cells")
    delta, j = checks.delta(delta), checks.index(j, k)
    return _action_laws([j], k, delta)[:, 0]


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Law of an occupancy vector: probabilities over k-part compositions of m.

    ``probs[r]`` is the probability of the composition with lexicographic
    rank ``r``.  ``m`` must be a count and ``k`` at least 2, never ``bool``,
    and ``probs`` must pass :func:`lipgames.checks.probabilities`, so a bool
    or a string entry is refused.  Its shape is checked before its values
    are read, and a shape refusal prints the class count as
    :func:`lipgames.checks.budget` prints a need.
    """

    m: int
    k: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", checks.count(self.m, "total"))
        object.__setattr__(self, "k", checks.count(self.k, "action count", 2))
        probs = checks.array(self.probs, "probs")
        expected = _classes(self.m, self.k)
        if probs.shape != (expected,):
            raise ValueError(
                f"expected {checks._shown(expected)} probabilities for m={checks._shown(self.m)}, "
                f"k={checks._shown(self.k)}, got shape {probs.shape}"
            )
        object.__setattr__(self, "probs", checks.probabilities(probs))

    def prob(self, counts: Sequence[int]) -> float:
        counts = tuple(checks.count(c, "count") for c in counts)
        if len(counts) != self.k or sum(counts) != self.m:
            raise ValueError(
                f"count vector must have {checks._shown(self.k)} parts summing to {checks._shown(self.m)}"
            )
        return float(self.probs[count_vector_rank(counts)])


def _fold(probs: np.ndarray, t: int, law: np.ndarray, k: int) -> np.ndarray:
    """Occupancy law of ``t + 1`` players from that of the first ``t`` and the next player's law.

    States-major: ``probs`` is (states,) or (states, rows) and ``law`` is
    (k,) or (k, rows), one law per row, so each action scatters whole
    contiguous rows.  The scatter order over actions is fixed, so equal
    inputs give bit-identical outputs whichever caller folds them.
    """
    depth = _depth(t, k)
    nxt = np.zeros((depth.actions.size,) + probs.shape[1:])
    for j, target in enumerate(depth.targets):
        nxt[target] += law[j] * probs
    return nxt


def _action_laws(actions: Sequence[int], k: int, delta: float) -> np.ndarray:
    """The delta-perturbed law of each of ``actions``, a column each (k x len(actions)), unchecked:
    the package's one builder of a perturbed player's law."""
    laws = np.full((k, len(actions)), delta / k)
    laws[actions, range(len(actions))] = delta / k + (1.0 - delta)
    return laws


def _class_laws(m: int, k: int, delta: float) -> np.ndarray:
    """Occupancy law of every count class of m players, a row each, in :func:`count_vectors` order.

    Laws are folded one depth (player count) at a time and held
    states-major: at depth t, column r is the law of the first t sorted
    players of every class whose sorted actions start with the r-th
    composition of t.  Column c of depth t + 1 extends the column of c
    less one of its largest action by a player of that action.  So each
    prefix is folded once, each class in :func:`count_distribution`'s
    player order, and every row is bit-identical to that function's law.
    The result is a contiguous (classes x states) copy of the last depth.
    Its k x k action laws (column a: a player declaring a) are built only when m > 0.
    """
    laws = _action_laws(range(k), k, delta) if m else None
    probs = np.ones((1, 1))
    for t in range(m):
        depth = _depth(t, k)
        probs = probs.take(depth.parents, axis=1)
        probs = _fold(probs, t, laws[:, depth.actions], k)
    return np.ascontiguousarray(probs.T)


def _class_law(actions: Sequence[int], k: int, delta: float) -> np.ndarray:
    """Occupancy law of players declaring ``actions``, from their law columns alone, unchecked but for its
    ``k * states`` cells, charged first; folded in ascending order, bit for bit a function of the counts."""
    checks.budget(k * _classes(len(actions), k), CELL_BUDGET, "count distribution", "cells")
    laws = _action_laws(sorted(actions), k, delta)
    probs = np.array([1.0])
    for t in range(len(actions)):
        probs = _fold(probs, t, laws[:, t], k)
    return probs


def count_distribution(profile: Sequence[int], k: int, delta: float) -> CountDistribution:
    """Law of the occupancy vector of a delta-perturbed pure profile: the arguments checked, then
    :func:`_class_law`, so permutations of the profile yield bit-identical probabilities."""
    k = checks.count(k, "action count", 2)
    actions = [checks.index(a, k, "profile action") for a in profile]
    delta = checks.delta(delta)
    return CountDistribution(len(actions), k, _class_law(actions, k, delta))


def _shift_tv(probs: np.ndarray, m: int, k: int, j1: int, j2: int) -> np.ndarray:
    """TV distance between the law ``probs`` of m players plus one on j1 vs on j2, per row."""
    depth = _depth(m, k)
    diff = np.zeros(probs.shape[:-1] + (depth.actions.size,))
    diff[..., depth.targets[j1]] = probs
    diff[..., depth.targets[j2]] -= probs
    return 0.5 * np.abs(diff, out=diff).sum(axis=-1)


def shifted_tv(dist: CountDistribution, j1: int, j2: int) -> float:
    """TV distance between the occupancy law plus one extra player on j1 vs on j2; the ``k * states``
    cells of the index of m + 1 players it reads are charged against :data:`CELL_BUDGET` first."""
    j1, j2 = checks.index(j1, dist.k), checks.index(j2, dist.k)
    checks.budget(dist.k * _classes(dist.m + 1, dist.k), CELL_BUDGET, "shifted tv", "cells")
    return float(_shift_tv(dist.probs, dist.m, dist.k, j1, j2))


class OracleResult(NamedTuple):
    value: float
    worst_class: tuple[int, ...]


def lipschitz_oracle(n: int, k: int, delta: float) -> OracleResult:
    """Worst-case Lipschitz constant by exhaustive count-class enumeration.

    Maximises ``(1 - delta) * shifted_tv(...)`` over every count class of
    the n - 2 non-deviating players.  Profiles are enumerated only up to
    action counts (anonymity makes the objective class-invariant, which is
    tested separately), keeping the search exact at desk scale.  The witness
    is the lexicographically smallest class within 1e-12 of the maximum, so
    exact ties are not decided by rounding noise.  Instances whose
    ``max(classes, k) x states`` cells exceed :data:`CELL_BUDGET` are refused:
    the last depth's index holds ``k x states`` counts, more than the
    total-variation step's ``classes x states`` only at n = 2.

    The class laws come from :func:`_class_laws`, bit-identical to folding
    each class alone, and the witness's count vector is its row of
    :func:`_compositions`.  A depth is held whole, so the cell budget bounds
    memory too: under 40 bytes per cell, about 400 MB at the budget.  With
    the index build included (a cold cache), that holds from about (150, 2)
    upward; smaller calls read more from fixed costs, about 46 at (100, 2).

    Its rounding is wider than the closed form's: at (255, 2) the value is
    1.36e-14 (delta = 0.37) and 1.39e-14 (delta = 0.999) relative from
    30-digit references, about 60 ulp, where ``lipschitz_constant``'s split march is
    within 3.4e-16.  Near there a difference between the two measures this
    function's rounding, not the closed form's error.
    """
    n, k, delta = checks.instance(n, k, delta)
    m = n - 2
    cells = max(_classes(m, k), k) * _classes(m + 1, k)
    checks.budget(cells, CELL_BUDGET, "oracle instance", "cells")
    values = _shift_tv(_class_laws(m, k, delta), m, k, 0, 1)
    best = float(values.max())
    witness = _compositions(m, k)[int(np.argmax(values >= best - 1e-12))]
    return OracleResult((1.0 - delta) * best, tuple(witness.tolist()))
