"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates outcome spaces directly (increment sequences,
Bernoulli words, full action profiles) and never calls into the library's
dynamic programs, so agreement is meaningful.  The exceptions are the
slow routes the library replaced, kept as cross-checks at sizes enumeration
cannot reach: :func:`split_scan`, the O(n^3) convolution scan behind the
split maximum, :func:`table_split_scan`, the O(n^2) Binomial-table scan the
split maximum's march replaced, :func:`bisect_fixed_point`, the plain bisection behind
``delta_fixed_point``, :func:`passage_prob_by_parity`, the full-length
parity product the windowed ``passage_prob`` replaced, :func:`binomial_probs`, the
full-support pmf whose window ``integer_pmf.binomial_window`` keeps,
:func:`collision_prob_by_squares`, the squared window ``binomial_collision_prob``
summed before it became the walk's return to 0,
:func:`collision_prob_by_all_parities`, that return with the parity factor
built at odd moves too, :func:`sweep_walk_steps`, the
walk-step charge the sweep made before it charged window entries,
:func:`scan_eps_nash`, the
per-profile equilibrium scan behind ``find_eps_nash``, and
:func:`depth_maps_by_rank`, the per-cell rank loop behind the oracle's index.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lipgames import (
    RegretReport,
    SearchResult,
    count_distribution,
    count_vector_rank,
    count_vectors,
    lipschitz_constant,
    random_walk,
)
from lipgames.integer_pmf import binomial_window
from lipgames.poisson_binomial import TIE_TOL


def walk_law(n, r):
    """Law of the lazy walk by summing over all 3^n increment sequences."""
    step = {-1: r / 2.0, 0: 1.0 - r, 1: r / 2.0}
    law = defaultdict(float)
    for seq in itertools.product((-1, 0, 1), repeat=n):
        p = 1.0
        for inc in seq:
            p *= step[inc]
        law[sum(seq)] += p
    return dict(law)


def stay_below(n, r):
    """P(all prefix sums < 1), by the same exhaustive enumeration."""
    step = {-1: r / 2.0, 0: 1.0 - r, 1: r / 2.0}
    total = 0.0
    for seq in itertools.product((-1, 0, 1), repeat=n):
        pos = 0
        ok = True
        for inc in seq:
            pos += inc
            if pos >= 1:
                ok = False
                break
        if ok:
            p = 1.0
            for inc in seq:
                p *= step[inc]
            total += p
    return total


def pb_law(probs, shift=0, signs=None):
    """Law of a signed Bernoulli sum by enumerating all 2^len outcomes."""
    if signs is None:
        signs = [1] * len(probs)
    law = defaultdict(float)
    for word in itertools.product((0, 1), repeat=len(probs)):
        p = 1.0
        value = shift
        for x, q, s in zip(word, probs, signs):
            p *= q if x else 1.0 - q
            value += s * x
        law[value] += p
    return dict(law)


def two_block_value(n, delta):
    """Exact split-sum maximum via Fractions, plus every attaining (split, point)."""
    q = Fraction(delta).limit_denominator(10**6)
    assert float(q) == delta, "use exactly representable deltas"
    best = Fraction(0)
    argmax = []
    for split in range(n + 1):
        law = defaultdict(lambda: Fraction(0))
        for word in itertools.product((0, 1), repeat=n):
            p = Fraction(1)
            for x in word:
                p *= q / 2 if x else 1 - q / 2
            s = sum(word[:split]) + sum(1 - x for x in word[split:])
            law[s] += p
        for point, value in law.items():
            if value > best:
                best = value
                argmax = [(split, point)]
            elif value == best:
                argmax.append((split, point))
    return best, argmax


def _bernoulli_sum_pmfs(n, p):
    """Pmfs of Binomial(l, p) for every l in 0..n, by incremental convolution."""
    out = [np.array([1.0])]
    kernel = np.array([1.0 - p, p])
    for _ in range(n):
        out.append(np.convolve(out[-1], kernel))
    return out


def split_scan(n, delta):
    """Split-sum maximum by convolving every split's full pmf, O(n^3).

    Returns ``(value, split, point)`` under the library's tie rule: values
    within a relative ``TIE_TOL`` of the maximum tie, and ties go to the
    larger split, then to the smaller outcome.
    """
    q = 0.5 * delta
    successes = _bernoulli_sum_pmfs(n, q)
    failures = _bernoulli_sum_pmfs(n, 1.0 - q)
    pmfs = [np.convolve(successes[split], failures[n - split]) for split in range(n + 1)]
    peaks = np.array([pmf.max() for pmf in pmfs])
    best = float(peaks.max())
    split = n - int(np.argmax(peaks[::-1] >= best * (1.0 - TIE_TOL)))
    pmf = pmfs[split]
    return best, split, int(np.argmax(pmf >= pmf.max() * (1.0 - TIE_TOL)))


def _binomial_table(n, p, pad, width):
    """Binomial(j, p) pmf in row j at columns ``pad .. pad + j``, zeros elsewhere.

    Each row is the previous one convolved with one Bernoulli(p) term.
    """
    table = np.zeros((n + 1, width))
    table[0, pad] = 1.0
    row, kernel = table[0, pad : pad + 1], np.array([1.0 - p, p])
    for j in range(1, n + 1):
        row = np.convolve(row, kernel)
        table[j, pad : pad + j + 1] = row
    return table


def table_split_scan(n, delta):
    """Split-sum maximum from a table of every Binomial(j, delta/2) row, O(n^2).

    Returns ``(value, split, point)`` under the library's tie rule, as
    :func:`split_scan` does.  Only the splits ``l >= n/2`` are scanned, at the
    four outcomes from one below the floor of each split's mean to two above it.
    Its relative error grows linearly in n, to 2.3e-13 at 4095 terms, and it
    takes about 10 n^2 bytes.
    """
    q = 0.5 * delta
    half = n // 2
    # Splits l = n - r for r = 0..half, largest first.  As Binomial(r, 1 - q)
    # is r - Binomial(r, q), P(X = t) is the dot product of row r with row l
    # read from column t - r on; the four outcomes are four consecutive
    # windows of one copied stretch of row l.
    short = np.arange(half + 1)
    split = n - short
    floor = np.floor(split * q + short * (1.0 - q)).astype(np.int64)
    start = floor - 1 - short
    pad = max(0, -int(start.min()))
    table = _binomial_table(n, q, pad, pad + max(n + 1, int(start.max()) + half + 4))
    stretches = sliding_window_view(table, half + 4, axis=1)[split, pad + start]
    probs = np.einsum("ijk,ik->ij", sliding_window_view(stretches, half + 1, axis=1),
                      table[: half + 1, pad : pad + half + 1])
    peaks = probs.max(axis=1)
    best = float(peaks.max())
    i = int(np.argmax(peaks >= best * (1.0 - TIE_TOL)))
    outcome = int(np.argmax(probs[i] >= peaks[i] * (1.0 - TIE_TOL)))
    return best, int(split[i]), int(floor[i]) - 1 + outcome


def passage_prob_by_parity(n, r):
    """P(lazy walk in {0, 1} after n steps) with the factor built over all n moves.

    The in-{0, 1} factor after j non-lazy moves is a running product over
    j that gains (j + 1)/(j + 2) after each even j, the parity tested on a
    float index.
    """
    moves = binomial_probs(n, r)
    j = np.arange(n, dtype=np.float64)
    factors = np.where(j % 2 == 0, (j + 1.0) / (j + 2.0), 1.0)
    in_01 = np.concatenate(([1.0], np.cumprod(factors)))
    return float(np.dot(moves, in_01))


def binomial_products(m, p):
    """Binomial(m, p) pmf at 0..m up to a factor: 1 at the mode, two ratio runs out of it.

    The downward ratio is written as ``i / (odds * (m - i + 1))``; the
    library divides the same two exactly held factors, so its window holds
    these entries bit for bit.  ``p`` is neither 0 nor 1.
    """
    odds = p / (1.0 - p)
    mode = min(int((m + 1) * p), m)
    i = np.arange(m + 1, dtype=np.float64)
    up = np.cumprod(odds * (m - i[mode:m]) / (i[mode:m] + 1.0))
    down = np.cumprod(i[mode:0:-1] / (odds * (m - i[mode:0:-1] + 1.0)))
    return np.concatenate((down[::-1], [1.0], up))


def binomial_probs(m, p):
    """Binomial(m, p) point probabilities at 0..m: :func:`binomial_products` over their sum."""
    if p == 0.0 or p == 1.0:
        probs = np.zeros(m + 1)
        probs[m if p == 1.0 else 0] = 1.0
        return probs
    products = binomial_products(m, p)
    return products / products.sum()


def collision_prob_by_squares(m, delta):
    """P(two i.i.d. Binomial(m, delta/2) draws coincide) as the sum of the squared window.

    Its rounding grows with m: 6.9e-16 from 40-digit mpmath at 10**7 terms, 1.35e-15 at
    3 * 10**7 (delta 0.9) and 1.84e-15 at 10**8 (delta 0.3).
    """
    _, pmf = binomial_window(m, 0.5 * delta)
    return float((pmf * pmf).sum())


def collision_prob_by_all_parities(m, delta):
    """``binomial_collision_prob`` with the parity factor built at every move of its window,
    odd ones included, and the even ones kept: past the 2**14-entry table the series
    then runs over twice the moves the sum uses."""
    lo, moves = binomial_window(m, delta * (1.0 - 0.5 * delta))
    return float((moves[lo % 2 :: 2] * random_walk._parity(lo, moves.size)[lo % 2 :: 2]).sum())


def sweep_walk_steps(rows, k):
    """Walk steps the sweep charged for one delta over ``rows`` before it charged windows.

    A row of n players cost n steps, n**2 when it ran the split scan (odd n up to 256 at
    k = 2), and at least 4096.
    """
    small = range(rows.start, min(rows.stop, 4096), rows.step)
    excess = sum(max(n * n if k == 2 and n % 2 and n <= 256 else n, 4096) - n for n in small)
    return ((rows[-1] - rows[0]) // rows.step + 1) * (rows[0] + rows[-1]) // 2 + excess


def bisect_fixed_point(n, k, tol):
    """Root of ``lipschitz_constant(n, k, delta) = delta`` by bisecting (1e-9, 1 - 1e-9).

    Returns ``(delta, value)`` at the first midpoint with
    ``|value - delta| <= tol``.
    """
    lo, hi = 1e-9, 1.0 - 1e-9
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        value = lipschitz_constant(n, k, mid).value
        if abs(value - mid) <= tol:
            return mid, value
        if value > mid:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"bisection stalled at [{lo!r}, {hi!r}]")


def collision_exact(n, delta):
    """P(two i.i.d. Binomial(n, delta/2) draws agree), exact rational."""
    from math import comb

    q = Fraction(delta).limit_denominator(10**6)
    assert float(q) == delta
    half = q / 2
    pmf = [comb(n, t) * half**t * (1 - half) ** (n - t) for t in range(n + 1)]
    return sum(p * p for p in pmf)


def count_law(profile, k, delta):
    """Occupancy law of a perturbed profile by enumerating full profiles."""
    law = defaultdict(float)
    per_player = []
    for a in profile:
        weights = [delta / k] * k
        weights[a] += 1.0 - delta
        per_player.append(weights)
    for realised in itertools.product(range(k), repeat=len(profile)):
        p = 1.0
        for j, weights in zip(realised, per_player):
            p *= weights[j]
        counts = [0] * k
        for j in realised:
            counts[j] += 1
        law[tuple(counts)] += p
    return dict(law)


def shifted_tv(profile, k, delta, j1, j2):
    """TV distance between the two one-player shifts of the occupancy law."""
    base = count_law(profile, k, delta)
    shifted = [defaultdict(float), defaultdict(float)]
    for counts, p in base.items():
        for slot, j in enumerate((j1, j2)):
            bumped = list(counts)
            bumped[j] += 1
            shifted[slot][tuple(bumped)] += p
    keys = set(shifted[0]) | set(shifted[1])
    return 0.5 * sum(abs(shifted[0][key] - shifted[1][key]) for key in keys)


def perturbed_payoff(game, profile, player, delta):
    """Expected payoff under perturbation by enumerating realised profiles."""
    total = 0.0
    for realised in itertools.product(range(game.k), repeat=game.n):
        p = 1.0
        for declared, actual in zip(profile, realised):
            p *= (1.0 - delta + delta / game.k) if actual == declared else delta / game.k
        counts = [0] * game.k
        for idx, action in enumerate(realised):
            if idx != player:
                counts[action] += 1
        total += p * game.payoffs[player, realised[player], count_vector_rank(counts)]
    return total


def normal_gap(pmf_items, mu, sigma):
    """max |sigma * p - phi((t - mu)/sigma)| over given (t, p) pairs."""
    worst = 0.0
    for t, p in pmf_items:
        z = (t - mu) / sigma
        density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        worst = max(worst, abs(sigma * p - density))
    return worst


def _declared_values(game, profile, player, delta, memo):
    """Payoffs of each action outright and announced, against the perturbed opponents.

    ``memo`` maps the opponents' sorted actions to their law (to its rank
    when delta = 0), built by ``count_distribution`` on first use.
    """
    others = profile[:player] + profile[player + 1 :]
    key = tuple(sorted(others))
    law = memo.get(key)
    if law is None:
        if delta == 0.0:
            counts = [0] * game.k
            for a in others:
                counts[a] += 1
            law = count_vector_rank(counts)
        else:
            law = count_distribution(key, game.k, delta).probs
        memo[key] = law
    if delta == 0.0:
        base = game.payoffs[player, :, law]
        return base, base
    base = game.payoffs[player] @ law
    return base, (1.0 - delta) * base + (delta / game.k) * base.sum()


def scan_eps_nash(game, delta, eps):
    """First eps-equilibrium by checking every profile's players in turn, or None.

    Each (profile, player) pair reads its opponents' law from one memo, and
    the report of the profile found is built from the same memo.
    """
    memo = {}
    for profile in itertools.product(range(game.k), repeat=game.n):
        if all(
            float((values := _declared_values(game, profile, i, delta, memo)[1]).max() - values[a]) <= eps
            for i, a in enumerate(profile)
        ):
            break
    else:
        return None
    per_player = []
    worst = unperturbed = 0.0
    for i, a in enumerate(profile):
        base, values = _declared_values(game, profile, i, delta, memo)
        best = int(np.argmax(values))
        gain = float(values[best] - values[a])
        per_player.append((best, gain))
        worst = max(worst, gain)
        unperturbed = max(unperturbed, float(base.max() - values[a]))
    return SearchResult(profile, RegretReport(worst, tuple(per_player), unperturbed))


def depth_maps_by_rank(t, k):
    """The oracle's index of one fold step, one :func:`count_vector_rank` call per cell.

    ``maps[j, r]`` is the rank of the r-th composition of t plus one action
    j; per composition of t + 1, ``actions`` holds its largest action and
    ``parents`` the rank of it less one of that action.
    """
    vecs = count_vectors(t, k)
    maps = np.empty((k, len(vecs)), dtype=np.int64)
    for idx, c in enumerate(vecs):
        for j in range(k):
            maps[j, idx] = count_vector_rank(c[:j] + (c[j] + 1,) + c[j + 1 :])
    actions, parents = [], []
    for c in count_vectors(t + 1, k):
        j = max(a for a in range(k) if c[a])
        actions.append(j)
        parents.append(count_vector_rank(c[:j] + (c[j] - 1,) + c[j + 1 :]))
    return maps, np.array(actions, dtype=np.int64), np.array(parents, dtype=np.int64)
