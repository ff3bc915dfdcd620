"""Seeded Monte Carlo for the mirrored-pair coupling behind the walk formula.

Two occupancy chains start one player apart (actions 0 vs 1) and then add
the same perturbed players one by one, except that while the chains still
differ, a perturbed draw landing on action 0 or 1 is mirrored (0 <-> 1) in
the second chain.  The gap between the chains' action-0 counts performs a
lazy walk that moves +-1 with probability ``delta/k`` each and meeting
corresponds to the walk hitting 1, so the probability that the chains still
differ after n players equals the walk passage probability at rate
``2*delta/k``.

Reproducibility contract: replications are processed in fixed blocks of
``BLOCK_SIZE``; block b draws from a PCG64 generator seeded with
``SeedSequence(seed, spawn_key=(b,))``, and draws inside a block follow a
fixed step-major order.  Results are therefore bit-identical for a given
``(n, k, delta, samples, seed)`` no matter how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class CouplingEstimate:
    """Monte Carlo estimate of the probability the chains never meet."""

    estimate: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class MeetTimeResult:
    """First-meeting histogram and gap-transition counts.

    ``counts[i]`` is the number of replications whose chains first met at
    step i (1-based); ``counts[n + 1]`` counts the never-met replications
    and ``counts[0]`` is always 0.  ``transitions`` holds the observed
    (down, stay, up) move counts of the gap process over all pre-meeting
    steps.
    """

    counts: np.ndarray
    transitions: np.ndarray
    samples: int
    seed: int


def _check_params(n, k, delta, samples, seed, baseline):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"step count must be a nonnegative integer, got {n!r}")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 2:
        raise ValueError(f"action count must be an integer >= 2, got {k!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if baseline is None:
        baseline = 2 if k >= 3 else 0
    if not 0 <= baseline < k:
        raise ValueError(f"baseline action must lie in 0..{k - 1}, got {baseline!r}")
    return int(n), int(k), float(delta), int(samples), int(seed), int(baseline)


def _block_sizes(samples: int):
    full, rest = divmod(samples, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def simulate_coupling(
    n: int, k: int, delta: float, samples: int, seed: int, baseline: int | None = None
) -> CouplingEstimate:
    """Estimate the probability that the coupled chains differ after n steps.

    The estimate does not depend on the baseline profile (both chains add
    the same unperturbed players), so only the gap walk is simulated; the
    default baseline is the worst-case witness, all players on action 2 for
    k >= 3 and on action 0 for k = 2.  ``n = 0`` returns exactly 1.
    """
    n, k, delta, samples, seed, _ = _check_params(n, k, delta, samples, seed, baseline)
    never = 0
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for _ in range(n):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            active = chi & ~met
            gap += (active & (u == 1)).astype(np.int32)
            gap -= (active & (u == 0)).astype(np.int32)
            met |= gap == 1
        never += int((~met).sum())
    estimate = never / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return CouplingEstimate(estimate, std_error, samples, seed)


def simulate_meet_time(
    n: int, k: int, delta: float, samples: int, seed: int, baseline: int | None = None
) -> MeetTimeResult:
    """Distribution of the first step at which the chains meet.

    Uses the same stream layout as :func:`simulate_coupling` plus extra
    bookkeeping, so the never-met total agrees with it exactly for the same
    seed.  Pre-meeting gap moves are tallied as (down, stay, up); their
    frequencies estimate ``(delta/k, 1 - 2*delta/k, delta/k)``.
    """
    n, k, delta, samples, seed, _ = _check_params(n, k, delta, samples, seed, baseline)
    counts = np.zeros(n + 2, dtype=np.int64)
    transitions = np.zeros(3, dtype=np.int64)
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for step in range(1, n + 1):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            alive = ~met
            active = chi & alive
            down = active & (u == 0)
            up = active & (u == 1)
            n_down = int(down.sum())
            n_up = int(up.sum())
            transitions[0] += n_down
            transitions[1] += int(alive.sum()) - n_down - n_up
            transitions[2] += n_up
            gap += up.astype(np.int32)
            gap -= down.astype(np.int32)
            newly = alive & (gap == 1)
            counts[step] += int(newly.sum())
            met |= newly
        counts[n + 1] += int((~met).sum())
    return MeetTimeResult(counts, transitions, samples, seed)


def mirrored_action_counts(
    n: int, k: int, delta: float, samples: int, seed: int, baseline: int | None = None
) -> np.ndarray:
    """Observed action counts of each mirrored player across replications.

    Returns an ``(n, k)`` table: row i counts which action the i-th player
    of the mirrored chain ended up taking.  Each row estimates
    ``samples * perturbed_action_law(baseline, k, delta)``: the mirror is a
    bijection on uniform draws, so mirroring never distorts the marginals.
    """
    n, k, delta, samples, seed, baseline = _check_params(n, k, delta, samples, seed, baseline)
    table = np.zeros((n, k), dtype=np.int64)
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for step in range(n):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            # Tally the unmirrored perturbed draws, then move the live
            # chains' draws on 0 and 1 across, as the mirror does.
            drawn = [chi & (u == j) for j in range(k)]
            row = table[step]
            row += [np.count_nonzero(d) for d in drawn]
            row[baseline] += size - np.count_nonzero(chi)
            alive = ~met
            down = drawn[0] & alive
            up = drawn[1] & alive
            moved = np.count_nonzero(up) - np.count_nonzero(down)
            row[0] += moved
            row[1] -= moved
            gap += up.astype(np.int32)
            gap -= down.astype(np.int32)
            met |= gap == 1
    return table
