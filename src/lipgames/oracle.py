"""Brute-force Lipschitz constants straight from the total-variation definition.

This module is the ground truth for the closed forms: it enumerates
occupancy count vectors of perturbed profiles exactly and maximises the
total variation distance between the two one-player shifts.  It shares no
probabilistic code with the walk or Poisson Binomial modules.

Actions are 0-based throughout the package; the pair of actions the
deviating player toggles between is fixed to (0, 1), which is without loss
of generality by symmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import checks
from .errors import BudgetExceededError

#: Default ceiling on ``count classes x occupancy states`` handled by the oracle.
DEFAULT_CELL_BUDGET = 10**7


def count_vectors(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-part nonnegative compositions of m, in ascending lexicographic order."""
    m = checks.count(m, "total")
    k = checks.count(k, "action count", 2)

    def rec(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(total - first, parts - 1):
                yield (first,) + rest

    return tuple(rec(m, k))


def count_vector_rank(counts: Sequence[int]) -> int:
    """Lexicographic rank of a composition among all of the same sum and length."""
    counts = tuple(int(c) for c in counts)
    if len(counts) < 2 or any(c < 0 for c in counts):
        raise ValueError(f"count vector must have >= 2 nonnegative parts, got {counts!r}")
    rank = 0
    remaining = sum(counts)
    parts = len(counts)
    for c in counts[:-1]:
        # compositions whose current coordinate is smaller than c
        rank += math.comb(remaining + parts - 1, parts - 1) - math.comb(
            remaining - c + parts - 1, parts - 1
        )
        remaining -= c
        parts -= 1
    return rank


@functools.lru_cache(maxsize=None)
def _add_action_maps(total: int, k: int) -> np.ndarray:
    """Index maps from compositions of ``total`` to ``total + 1`` under adding one action."""
    vecs = count_vectors(total, k)
    maps = np.empty((k, len(vecs)), dtype=np.int64)
    for idx, c in enumerate(vecs):
        for j in range(k):
            bumped = c[:j] + (c[j] + 1,) + c[j + 1 :]
            maps[j, idx] = count_vector_rank(bumped)
    return maps


def perturbed_action_law(j: int, k: int, delta: float) -> np.ndarray:
    """Distribution over the k actions of a delta-perturbed action ``j``.

    The declared action keeps probability ``1 - delta + delta/k``; every
    other action receives ``delta/k``.
    """
    checks.count(k, "action count", 2)
    checks.delta(delta)
    checks.index(j, k)
    law = np.full(k, delta / k)
    law[j] += 1.0 - delta
    return law


@dataclass(frozen=True)
class CountDistribution:
    """Law of an occupancy vector: probabilities over k-part compositions of m.

    ``probs[r]`` is the probability of the composition with lexicographic
    rank ``r``.  ``probs`` must pass :func:`lipgames.checks.probabilities`.
    """

    m: int
    k: int
    probs: np.ndarray

    def __post_init__(self):
        probs = checks.probabilities(self.probs)
        object.__setattr__(self, "probs", probs)
        expected = math.comb(self.m + self.k - 1, self.k - 1)
        if probs.shape != (expected,):
            raise ValueError(
                f"expected {expected} probabilities for m={self.m}, k={self.k}, "
                f"got shape {probs.shape}"
            )

    def prob(self, counts: Sequence[int]) -> float:
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.k or sum(counts) != self.m:
            raise ValueError(f"count vector must have {self.k} parts summing to {self.m}")
        return float(self.probs[count_vector_rank(counts)])


def _fold(probs: np.ndarray, t: int, law: np.ndarray, k: int) -> np.ndarray:
    """Occupancy law of ``t + 1`` players from that of the first ``t`` and the next player's law.

    ``probs`` and ``law`` may be batches, one law per row.  The scatter
    order over actions is fixed, so equal inputs give bit-identical outputs
    whichever caller folds them.
    """
    maps = _add_action_maps(t, k)
    nxt = np.zeros(probs.shape[:-1] + (math.comb(t + k, k - 1),))
    for j in range(k):
        nxt[..., maps[j]] += law[..., j, None] * probs
    return nxt


def _action_laws(k: int, delta: float) -> np.ndarray:
    return np.array([perturbed_action_law(j, k, delta) for j in range(k)])


def count_distribution(profile: Sequence[int], k: int, delta: float) -> CountDistribution:
    """Law of the occupancy vector of a delta-perturbed pure profile.

    Players are folded in sorted-action order with a fixed scatter order, so
    permutations of the profile yield bit-identical probabilities; the law
    itself depends on the profile only through its action counts.
    """
    checks.count(k, "action count", 2)
    actions = sorted(checks.index(a, k, "profile action") for a in profile)
    laws = _action_laws(k, delta)
    probs = np.array([1.0])
    for t, action in enumerate(actions):
        probs = _fold(probs, t, laws[action], k)
    return CountDistribution(len(actions), k, probs)


def _shift_tv(probs: np.ndarray, m: int, k: int, j1: int, j2: int) -> np.ndarray:
    """TV distance between the law ``probs`` of m players plus one on j1 vs on j2, per row."""
    maps = _add_action_maps(m, k)
    diff = np.zeros(probs.shape[:-1] + (math.comb(m + k, k - 1),))
    diff[..., maps[j1]] = probs
    diff[..., maps[j2]] -= probs
    return 0.5 * np.abs(diff, out=diff).sum(axis=-1)


def shifted_tv(dist: CountDistribution, j1: int, j2: int) -> float:
    """TV distance between the occupancy law plus one extra player on j1 vs on j2."""
    checks.index(j1, dist.k)
    checks.index(j2, dist.k)
    if j1 == j2:
        return 0.0
    return float(_shift_tv(dist.probs, dist.m, dist.k, j1, j2))


class OracleResult(NamedTuple):
    value: float
    worst_class: tuple[int, ...]


def lipschitz_oracle(
    n: int, k: int, delta: float, cell_budget: int = DEFAULT_CELL_BUDGET
) -> OracleResult:
    """Worst-case Lipschitz constant by exhaustive count-class enumeration.

    Maximises ``(1 - delta) * shifted_tv(...)`` over every count class of
    the n - 2 non-deviating players.  Profiles are enumerated only up to
    action counts (anonymity makes the objective class-invariant, which is
    tested separately), keeping the search exact at desk scale.  The witness
    is the lexicographically smallest class within 1e-12 of the maximum, so
    exact ties are not decided by rounding noise.  Instances whose
    ``classes x states`` product exceeds ``cell_budget`` are refused.

    Laws are folded one depth (player count) at a time, every prefix of
    that depth a row of one array, in :func:`count_distribution`'s player
    order, so values are bit-identical to folding each class alone.  A
    depth is held whole, so the cell budget bounds memory too: under 40
    bytes per cell, about 400 MB at the default budget.
    """
    checks.instance(n, k, delta)
    cell_budget = checks.count(cell_budget, "cell budget")
    m = n - 2
    cells = math.comb(m + k - 1, k - 1) * math.comb(m + k, k - 1)
    if cells > cell_budget:
        raise BudgetExceededError(
            f"oracle instance needs {cells} cells, over the budget of {cell_budget}"
        )
    laws = _action_laws(k, delta)
    # Row r of depth t: the first t sorted players of the classes starting
    # with the r-th composition of t.  A child adds one player of an action
    # at least its parent's largest, so each prefix is folded once, in order.
    probs, last = np.ones((1, 1)), np.zeros(1, dtype=np.int64)
    for t in range(m):
        actions, parents = np.nonzero(last <= np.arange(k)[:, None])
        order = np.argsort(_add_action_maps(t, k)[actions, parents])
        actions, probs = actions[order], probs[parents[order]]
        probs, last = _fold(probs, t, laws[actions], k), actions
    values = _shift_tv(probs, m, k, 0, 1)
    best = float(values.max())
    witness = count_vectors(m, k)[int(np.argmax(values >= best - 1e-12))]
    return OracleResult((1.0 - delta) * best, witness)
