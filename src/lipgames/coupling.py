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
fixed step-major order (per step, the block's uniforms, then its actions).
The actions are numpy's ``integers(0, k, dtype=np.int32)`` draw, rebuilt
from raw 32-bit words (:func:`_draw_words`).  Results are therefore
bit-identical for a given ``(n, k, delta, samples, seed)`` no matter how
blocks are scheduled or cut.

One private kernel walks a block's gap chains; the three public functions
differ only in the per-step tally they hand it.  A request with more than
one block runs on the calling thread and, when the process may use two
CPUs, one helper thread: the caller walks the first half of the
replications and the helper the rest, so the block holding the cut is
walked as two pieces.  Each piece draws from its own generator for the
block and skips the other piece's share of every step with
``bit_generator.advance``; a piece that draws a rejected word (the
rest of the block's stream shifts by one word) makes the caller walk the
block again whole.  numpy releases the GIL inside generator fills and
large ufunc loops, so the two threads overlap; the results are combined
in replication order.  Requests above ``MAX_REP_STEPS`` replication steps
(samples times steps), with more than ``MAX_ACTIONS`` actions, or, for
:func:`mirrored_action_counts`, above ``MAX_TABLE_CELLS`` table cells are
refused with :class:`~lipgames.errors.BudgetExceededError` before anything
is allocated.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

import numpy as np

from . import checks

BLOCK_SIZE = 1 << 16
#: Largest ``samples * max(n, 1)`` a request may ask for (tens of seconds).
#: Fewer than ``_MIN_CHARGED`` samples are charged as that many: below it,
#: a step's fixed cost in numpy calls outweighs its replications.
MAX_REP_STEPS = 10**10
_MIN_CHARGED = 1 << 12
#: Largest ``n * k * blocks`` of :func:`mirrored_action_counts`.  It keeps
#: one ``(n, k)`` int64 table per block until the end (8 MB at the limit)
#: and makes k - 1 tally passes per step, about 23 us each over a full
#: block, so at most about 25 s of tallies.
MAX_TABLE_CELLS = 10**6
#: Largest action count: the int32 draw whose stream the kernel reproduces
#: takes ``k`` up to 2**31.
MAX_ACTIONS = 2**31


class CouplingEstimate(NamedTuple):
    """Monte Carlo estimate of the probability the chains never meet."""

    estimate: float
    std_error: float
    samples: int
    seed: int


class MeetTimeResult(NamedTuple):
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


def _check_params(n, k, delta, samples, seed):
    n = checks.count(n, "step count")
    k = checks.count(k, "action count", 2)
    checks.budget(k, MAX_ACTIONS, "the int32 action draw", "actions")
    delta = checks.delta(delta)
    samples = checks.count(samples, "samples", 1)
    seed = checks.count(seed, "seed")
    checks.budget(max(samples, _MIN_CHARGED) * max(n, 1), MAX_REP_STEPS, "coupling", "replication steps")
    return n, k, delta, samples, seed


def _block_sizes(samples: int):
    full, rest = divmod(samples, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


class _StreamSlip(Exception):
    """A piece drew a rejected word, so its block's stream left the no-rejection layout."""


def _edge(j: int, k: int) -> int:
    """ceil(j * 2**32 / k): the smallest 32-bit word whose action is at least j."""
    return -(-(j << 32) // k)


def _draw_words(bit_generator, carry: np.ndarray, k: int, low: np.ndarray):
    """The 32-bit words behind ``integers(0, k, low.size, dtype=np.int32)``.

    numpy's Lemire draw takes 32-bit words one by one, the low half of each
    64-bit output first and the high half buffered, turns word w into the
    action floor(w * k / 2**32) and redraws while (w * k) mod 2**32 is below
    2**32 mod k.  Here the words come from ``random_raw``; ``carry`` holds
    the buffered half (zero or one word) and goes first.  ``low`` is
    scratch for the words' (w * k) mod 2**32, reused between calls because
    a fresh array per call costs page faults.  Returns the ``low.size`` kept
    words, the half left buffered and whether any word was rejected.
    """
    count, limit = low.size, (1 << 32) % k
    words = _raw_words(bit_generator, count - carry.size)
    if carry.size:
        words = np.concatenate((carry, words))
    if not limit or np.multiply(words[:count], np.uint32(k), out=low).min() >= limit:
        return words[:count], words[count:], False
    kept = words * np.uint32(k) >= limit
    while (have := np.count_nonzero(kept)) < count:
        more = _raw_words(bit_generator, count - have)
        words = np.concatenate((words, more))
        kept = np.concatenate((kept, more * np.uint32(k) >= limit))
    used = np.flatnonzero(kept)[count - 1] + 1
    return words[:used][kept[:used]], words[used:], True


def _raw_words(bit_generator, count: int) -> np.ndarray:
    """The 32-bit words of the next ceil(count / 2) outputs, low half first on any byte order."""
    return bit_generator.random_raw(-(-count // 2)).astype("<u8", copy=False).view("<u4")


def _walk_block(
    n: int, k: int, delta: float, seed: int, block: int, size: int, lo: int, hi: int, tally=None
) -> int:
    """Walk replications [lo, hi) of a block of ``size`` for n steps; return how many never met.

    Each step draws the block's uniforms with ``random(out=)`` and then its
    actions' 32-bit words with :func:`_draw_words`, so the stream is that of
    ``random(size)`` followed by ``integers(0, k, size, dtype=np.int32)``
    (pinned by the tests).  A word w is action 0 below ``_edge(1, k)`` and
    action 1 from there below ``_edge(2, k)``.  Before each step's gap
    update, ``tally(step, chi, words, alive, up, down)`` sees the step's
    perturbation flags and action words, the chains still apart and the
    pre-meeting down and up moves, each ``hi - lo`` long.  The arrays are
    reused or redrawn between steps.

    A piece (less than the whole block; ``size``, ``lo`` and ``hi`` even) skips
    the other replications of every step: a uniform is one 64-bit output
    and two action words share one.  That holds while no word is rejected,
    so a piece raises :class:`_StreamSlip` at its first rejected word.
    """
    rng = _block_rng(seed, block)
    bit_generator = rng.bit_generator
    width = hi - lo
    # A whole block skips nothing, so it saves the advance() calls.
    advance = bit_generator.advance if width < size else lambda outputs: None
    # _edge(2, k) is 2**32 at k = 2, so action 1 is tested as <= its last word.
    down_edge, up_last = _edge(1, k), _edge(2, k) - 1
    uniforms = np.empty(width)
    chi, active, up, down = (np.empty(width, dtype=bool) for _ in range(4))
    alive = np.ones(width, dtype=bool)
    # The gap starts at 0, stays <= 0 while the chains differ and freezes
    # at 1 when they meet, so alive means gap < 1 and the gap fits in the
    # smallest signed type holding -n.
    gap = np.zeros(width, dtype=np.min_scalar_type(-max(n, 1)))
    carry, low = np.empty(0, dtype=np.uint32), np.empty(width, dtype=np.uint32)
    for step in range(n):
        advance(lo)
        rng.random(out=uniforms)
        np.less(uniforms, delta, out=chi)
        advance(size - hi + lo // 2)
        words, carry, rejected = _draw_words(bit_generator, carry, k, low)
        if rejected and width < size:
            raise _StreamSlip
        advance((size - hi) // 2)
        np.logical_and(chi, alive, out=active)
        np.less(words, down_edge, out=down)
        np.less_equal(words, up_last, out=up)
        up ^= down
        up &= active
        down &= active
        if tally is not None:
            tally(step, chi, words, alive, up, down)
        gap += up
        gap -= down
        np.less(gap, 1, out=alive)
    return int(np.count_nonzero(alive))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(samples: int, run) -> list:
    """``run(block, size, lo, hi)`` over the replications of a request, in order.

    A call walks replications [lo, hi) of ``block``, which holds ``size``.
    With one block or one usable CPU every block is walked whole on the
    calling thread.  Otherwise the caller walks replications [0, h) and a
    helper thread [h, samples), where h is half the request rounded down to
    even; the block holding h, always a full one, is walked as two pieces.
    If either piece's stream slipped (:class:`_StreamSlip`), both piece
    results are dropped and the caller walks that block again whole.
    Whichever side fails first stops the other after its current call, and
    an error raised in the helper re-raises here.  The helper must reach
    only private helpers and numpy: span tracers wrap the public functions
    and expect them on the calling thread.
    """
    sizes = _block_sizes(samples)
    if len(sizes) == 1 or _cpu_count() < 2:
        return [run(block, size, 0, size) for block, size in enumerate(sizes)]
    half = samples // 4 * 2
    mine: list = []
    theirs: list = []
    failed: list = []
    slipped: list = []

    def work(first: int, last: int, results: list) -> None:
        for block in range(first // BLOCK_SIZE, -(-last // BLOCK_SIZE)):
            if failed:
                return
            base, size = block * BLOCK_SIZE, sizes[block]
            try:
                results.append(run(block, size, max(first - base, 0), min(last - base, size)))
            except _StreamSlip:
                slipped.append(block)
                results.append(None)

    def helper() -> None:
        try:
            work(half, samples, theirs)
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=helper, name="lipgames-coupling", daemon=True)
    thread.start()
    try:
        work(0, half, mine)
    except BaseException:
        failed.append(None)
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]
    if slipped:  # the pieces are the caller's last call and the helper's first
        mine[-1] = run(half // BLOCK_SIZE, BLOCK_SIZE, 0, BLOCK_SIZE)
        del theirs[0]
    return mine + theirs


def simulate_coupling(n: int, k: int, delta: float, samples: int, seed: int) -> CouplingEstimate:
    """Estimate the probability that the coupled chains differ after n steps.

    The estimate does not depend on the unperturbed players' actions (both
    chains add the same ones), so only the gap walk is simulated.
    ``n = 0`` returns exactly 1.
    """
    n, k, delta, samples, seed = _check_params(n, k, delta, samples, seed)

    def run(block, size, lo, hi):
        return _walk_block(n, k, delta, seed, block, size, lo, hi)

    never = sum(_map_blocks(samples, run))
    estimate = never / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return CouplingEstimate(estimate, std_error, samples, seed)


def simulate_meet_time(n: int, k: int, delta: float, samples: int, seed: int) -> MeetTimeResult:
    """Distribution of the first step at which the chains meet.

    Uses the same stream layout as :func:`simulate_coupling` plus extra
    bookkeeping, so the never-met total agrees with it exactly for the same
    seed.  Pre-meeting gap moves are tallied as (down, stay, up); their
    frequencies estimate ``(delta/k, 1 - 2*delta/k, delta/k)``.
    """
    n, k, delta, samples, seed = _check_params(n, k, delta, samples, seed)

    def run(block, size, lo, hi):
        # tallies[s] chains are still apart before step s + 1 (s = n: they
        # never met); the last two entries count the down and up moves.
        tallies = np.zeros(n + 3, dtype=np.int64)

        def tally(step, chi, words, alive, up, down):
            tallies[step] = np.count_nonzero(alive)
            tallies[n + 1] += np.count_nonzero(down)
            tallies[n + 2] += np.count_nonzero(up)

        tallies[n] = _walk_block(n, k, delta, seed, block, size, lo, hi, tally)
        return tallies

    tallies = sum(_map_blocks(samples, run))
    apart, (down, up) = tallies[: n + 1], tallies[n + 1 :]
    counts = np.zeros(n + 2, dtype=np.int64)
    counts[1 : n + 1] = -np.diff(apart)
    counts[n + 1] = apart[n]
    transitions = np.array([down, apart[:n].sum() - down - up, up], dtype=np.int64)
    return MeetTimeResult(counts, transitions, samples, seed)


def mirrored_action_counts(
    n: int, k: int, delta: float, samples: int, seed: int, baseline: int | None = None
) -> np.ndarray:
    """Observed action counts of each mirrored player across replications.

    Returns an ``(n, k)`` table: row i counts which action the i-th player
    of the mirrored chain ended up taking.  Each row estimates
    ``samples * perturbed_action_law(baseline, k, delta)``: the mirror is a
    bijection on uniform draws, so mirroring never distorts the marginals.
    The default baseline is 2 for k >= 3, an action outside the mirrored
    pair (actions 2..k-1 are symmetric, so any of them serves), and 0 for
    k = 2, a convention, as no action lies outside the pair.  It is not the
    oracle's witness, which puts everyone on action k - 1 at (8, 4, 0.5)
    and splits as (2, 3) at (7, 2, 0.5).  One table is kept per block, so
    ``n * k`` times the block count may not exceed ``MAX_TABLE_CELLS``.
    """
    n, k, delta, samples, seed = _check_params(n, k, delta, samples, seed)
    if baseline is None:
        baseline = 2 if k >= 3 else 0
    baseline = checks.index(baseline, k, "baseline action")
    blocks = -(-samples // BLOCK_SIZE)
    checks.budget(n * k * blocks, MAX_TABLE_CELLS, "action tally", "table cells")

    def run(block, size, lo, hi):
        table = np.zeros((n, k), dtype=np.int64)
        drawn = np.empty(hi - lo, dtype=bool)

        def tally(step, chi, words, alive, up, down):
            # Tally the unmirrored perturbed draws (those below edge j took
            # an action below j), then move the live chains' draws on 0
            # and 1 across, as the mirror does.
            row = table[step]
            perturbed = np.count_nonzero(chi)
            below = 0
            for j in range(1, k):
                np.logical_and(np.less(words, _edge(j, k), out=drawn), chi, out=drawn)
                counted = np.count_nonzero(drawn)
                row[j - 1] = counted - below
                below = counted
            row[k - 1] = perturbed - below
            row[baseline] += hi - lo - perturbed
            moved = np.count_nonzero(up) - np.count_nonzero(down)
            row[0] += moved
            row[1] -= moved

        _walk_block(n, k, delta, seed, block, size, lo, hi, tally)
        return table

    return sum(_map_blocks(samples, run))
