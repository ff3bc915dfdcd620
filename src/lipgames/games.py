"""Anonymous games: exact perturbed payoffs, regrets, and equilibrium search.

A game is anonymous when a player's payoff depends on their own action and
on how many opponents play each action, never on which opponents.  Payoffs
are stored as a dense table indexed by (player, own action, lexicographic
rank of the opponents' count vector).

``delta = 0`` is accepted everywhere in this module and means the
unperturbed game; ``delta > 0`` evaluates expectations under the perturbed
profile exactly, via the count-vector dynamic program and class count of
:mod:`lipgames.oracle`.  Payoffs and regrets of one profile fold their
opponents' laws with its unchecked ``_class_law``;
:func:`find_eps_nash` builds the laws of every opponent count class in one
batch and scans the profiles against a table of per-player verdicts keyed
by (player, the opponents' count class, own action).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import checks, oracle
from .oracle import _class_law, _class_laws, _classes, count_vector_rank

#: Ceiling on the number of profiles an exhaustive scan may visit.
PROFILE_BUDGET = 10**7


@dataclass(frozen=True, eq=False)
class AnonymousGame:
    """n-player, k-action anonymous game with payoffs in [0, 1].

    ``payoffs[i, j, r]`` is player i's payoff for own action j when the
    opponents' count vector has lexicographic rank r among the k-part
    compositions of n - 1.  The table's ``n * k * classes`` cells are charged
    against :data:`lipgames.oracle.CELL_BUDGET` before ``payoffs`` is read.
    ``payoffs`` passes :func:`lipgames.checks.array`, so a bool or a string
    entry is refused and the message names its row.
    """

    n: int
    k: int
    payoffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", checks.count(self.n, "player count", 2))
        object.__setattr__(self, "k", checks.count(self.k, "action count", 2))
        classes = _classes(self.n - 1, self.k)
        checks.budget(self.n * self.k * classes, oracle.CELL_BUDGET, "payoff table", "cells")
        payoffs = checks.array(self.payoffs, "payoffs", 3)
        object.__setattr__(self, "payoffs", payoffs)
        if payoffs.shape != (self.n, self.k, classes):
            raise ValueError(
                f"payoff table must have shape ({self.n}, {self.k}, {classes}), got {payoffs.shape}"
            )
        checks.unit_interval(payoffs, "payoffs")


class RegretReport(NamedTuple):
    """Per-player best deviations and regrets for one profile.

    ``unperturbed_regret`` is :func:`regret_in_unperturbed` of the profile,
    read off the same opponent laws.
    """

    max_regret: float
    per_player: tuple[tuple[int, float], ...]
    unperturbed_regret: float


class SearchResult(NamedTuple):
    profile: tuple[int, ...]
    report: RegretReport


def _check_profile(game: AnonymousGame, profile: Sequence[int]) -> tuple[int, ...]:
    profile = tuple(checks.index(a, game.k, "profile action") for a in profile)
    if len(profile) != game.n:
        raise ValueError(f"profile must list {game.n} actions, got {len(profile)}")
    return profile


def _opponent_law(game: AnonymousGame, others, delta: float, class_laws=None):
    """Law of the opponents' count vector: a row of ``class_laws`` when given,
    else their :func:`~lipgames.oracle._class_law`; its rank when delta = 0."""
    counts = [0] * game.k
    for a in others:
        counts[a] += 1
    if delta == 0.0:
        return count_vector_rank(counts)
    if class_laws is not None:
        return class_laws[count_vector_rank(counts)]
    return _class_law(others, game.k, delta)


def _values(game: AnonymousGame, player: int, law, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoff of each action against the perturbed opponents' ``law``.

    Returns ``(base, declared)``: ``base[b]`` is the payoff of playing b
    outright, and ``declared[b]`` that of announcing b, i.e. playing b with
    probability 1 - delta and a uniform action otherwise.  At delta = 0
    ``law`` is the rank of the opponents' count vector.
    """
    if delta == 0.0:
        base = game.payoffs[player, :, law]
        return base, base
    base = game.payoffs[player] @ law
    return base, (1.0 - delta) * base + (delta / game.k) * base.sum()


def perturbed_payoff(game: AnonymousGame, profile: Sequence[int], player: int, delta: float) -> float:
    """Exact expected payoff of ``player`` when every action is delta-perturbed."""
    profile = _check_profile(game, profile)
    delta, player = checks.delta(delta, zero_ok=True), checks.index(player, game.n, "player")
    law = _opponent_law(game, profile[:player] + profile[player + 1 :], delta)
    return float(_values(game, player, law, delta)[1][profile[player]])


def payoff(game: AnonymousGame, profile: Sequence[int], player: int) -> float:
    """Unperturbed payoff of ``player`` under a pure profile."""
    return perturbed_payoff(game, profile, player, 0.0)


def regret(game: AnonymousGame, profile: Sequence[int], delta: float) -> RegretReport:
    """Best pure-deviation gain per player in the delta-perturbed game.

    Pure deviations suffice: regret against an arbitrary mixed deviation is
    a convex combination of the pure ones.  Regrets are exactly nonnegative
    because staying put is always a candidate deviation.
    """
    profile, delta = _check_profile(game, profile), checks.delta(delta, zero_ok=True)
    return _regret(game, profile, delta)


def _regret(game: AnonymousGame, profile: tuple[int, ...], delta: float, class_laws=None) -> RegretReport:
    laws: dict = {}  # players of one action face the same opponents' count vector
    per_player = []
    worst = unperturbed = 0.0
    for i, a in enumerate(profile):
        if a not in laws:
            laws[a] = _opponent_law(game, profile[:i] + profile[i + 1 :], delta, class_laws)
        base, values = _values(game, i, laws[a], delta)
        best = int(np.argmax(values))
        gain = float(values[best] - values[a])
        per_player.append((best, gain))
        worst = max(worst, gain)
        unperturbed = max(unperturbed, float(base.max() - values[a]))
    return RegretReport(worst, tuple(per_player), unperturbed)


def regret_in_unperturbed(game: AnonymousGame, profile: Sequence[int], delta: float) -> float:
    """Largest unperturbed-game gain from abandoning the perturbed strategy.

    Every other player keeps playing their delta-perturbed action; the
    deviator compares their perturbed strategy against the best pure action
    evaluated in the original game.  If the profile has regret eps in the
    perturbed game, this never exceeds delta + eps.
    """
    return regret(game, profile, delta).unperturbed_regret


def find_eps_nash(game: AnonymousGame, delta: float, eps: float) -> Optional[SearchResult]:
    """First profile (lexicographically) whose perturbed regret is at most eps.

    Scans all ``k**n`` pure profiles and returns ``None`` only after the
    whole space has been checked, certifying that no pure eps-equilibrium of
    the delta-perturbed game exists.  Instances with more than
    :data:`PROFILE_BUDGET` profiles are refused.

    Whether player i may play a depends only on (i, a, the opponents'
    count class), so the scan reads a table of those verdicts, filled on
    first use by one matrix-vector product per player and opponent class.
    For delta > 0 the laws of all ``classes = C(n + k - 2, k - 1)``
    opponent count classes are built first, in one batch
    (:func:`lipgames.oracle._class_laws`), and the table's
    ``n * k * classes`` cells plus the laws' ``classes**2`` are charged
    against :data:`lipgames.oracle.CELL_BUDGET` before anything is built.
    At delta = 0 no law is built and nothing more is charged: the table
    holds a byte per payoff cell at most, and the payoff table's cells were
    charged when the game was built.
    """
    delta, eps = checks.delta(delta, zero_ok=True), checks.bound(eps, "eps")
    n, k = game.n, game.k
    checks.budget(k**n, PROFILE_BUDGET, "equilibrium scan", "profiles")
    class_laws = None
    if delta > 0.0:
        classes = _classes(n - 1, k)
        checks.budget(classes * (n * k + classes), oracle.CELL_BUDGET, "equilibrium scan", "cells")
        class_laws = _class_laws(n - 1, k, delta)
    # A count vector c is coded as sum(c[j] * (n + 1)**j): a profile's code
    # sums its players' powers, and a player's opponents' code is it less theirs.
    powers = [(n + 1) ** a for a in range(k)]
    verdicts: list[dict] = [{} for _ in range(n)]  # verdicts[i][code][a]: may i play a against code
    for profile in itertools.product(range(k), repeat=n):
        code = sum(map(powers.__getitem__, profile))
        for i, a in enumerate(profile):
            row = verdicts[i].get(others := code - powers[a])
            if row is None:
                r = count_vector_rank([others // p % (n + 1) for p in powers])
                values = _values(game, i, r if class_laws is None else class_laws[r], delta)[1]
                row = verdicts[i][others] = (values.max() - values <= eps).tobytes()
            if not row[a]:
                break
        else:
            return SearchResult(profile, _regret(game, profile, delta, class_laws))
    return None


def party_game(n: int, preferences: Sequence[str]) -> AnonymousGame:
    """Two-action party game: action 0 attends, action 1 stays home.

    An attending player receives 1 when the attendee count (self included)
    has the parity they prefer and 0 otherwise; staying home always pays
    1/2.  The 1/2 keeps staying from being dominant, so with at least one
    "even" and one "odd" player no pure profile gets every regret below
    1/2 in the unperturbed game.

    ``preferences`` lists "even" or "odd" per player.  The table's ``2 * n**2``
    cells are charged against :data:`lipgames.oracle.CELL_BUDGET` before
    ``preferences`` is read.
    """
    n = checks.count(n, "player count", 2)
    checks.budget(2 * n * n, oracle.CELL_BUDGET, "party game", "cells")
    preferences = list(preferences)
    if len(preferences) != n:
        raise ValueError(f"need one preference per player, got {len(preferences)}")
    if any(p not in ("even", "odd") for p in preferences):
        raise ValueError('preferences must be "even" or "odd"')
    # Rank r of the opponents' count vector (attendees, stayers) is just the
    # number of attending opponents.
    attendees = np.arange(1, n + 1)
    payoffs = np.full((n, 2, n), 0.5)
    payoffs[:, 0, :] = attendees % 2 == np.array([p == "odd" for p in preferences])[:, None]
    return AnonymousGame(n, 2, payoffs)


def random_game(n: int, k: int, seed: int) -> AnonymousGame:
    """Anonymous game with payoffs drawn i.i.d. uniform on [0, 1] from ``seed``.

    The table's ``n * k * classes`` cells are charged against
    :data:`lipgames.oracle.CELL_BUDGET` before it is drawn.
    """
    n = checks.count(n, "player count", 2)
    k = checks.count(k, "action count", 2)
    rng = np.random.default_rng(checks.count(seed, "seed"))
    classes = _classes(n - 1, k)
    checks.budget(n * k * classes, oracle.CELL_BUDGET, "random game", "cells")
    return AnonymousGame(n, k, rng.random((n, k, classes)))


def game_to_dict(game: AnonymousGame) -> dict:
    """Plain-JSON representation: fields n, k, payoffs[player][action][rank]."""
    return {"n": game.n, "k": game.k, "payoffs": game.payoffs.tolist()}


def parse_game(obj: dict) -> AnonymousGame:
    """Validate and build a game from its plain-JSON representation.

    The document's structure is checked here, the player and action list
    lengths before the class count; its entries are checked once, by
    :class:`AnonymousGame`, as every payoff table is.
    """
    if not isinstance(obj, dict):
        raise ValueError("game document must be a JSON object")
    for field in ("n", "k", "payoffs"):
        if field not in obj:
            raise ValueError(f"game document is missing the field {field!r}")
    n, k = checks.count(obj["n"], "field n", 2), checks.count(obj["k"], "field k", 2)
    payoffs = obj["payoffs"]
    if not isinstance(payoffs, list) or len(payoffs) != n:
        raise ValueError(f"payoffs must list {checks._shown(n)} players")
    for i, per_player in enumerate(payoffs):
        if not isinstance(per_player, list) or len(per_player) != k:
            raise ValueError(f"payoffs[{i}] must list {checks._shown(k)} actions")
    classes = _classes(n - 1, k)
    for i, per_player in enumerate(payoffs):
        for j, per_action in enumerate(per_player):
            if not isinstance(per_action, list) or len(per_action) != classes:
                raise ValueError(
                    f"payoffs[{i}][{j}] must list {checks._shown(classes)} count-vector ranks"
                )
    return AnonymousGame(n, k, payoffs)


def load_game(path) -> AnonymousGame:
    """Read a game document from a UTF-8 JSON file.

    The file may hold 32 bytes per cell of
    :data:`lipgames.oracle.CELL_BUDGET`.  A payoff in [0, 1] takes at most
    23 characters in ``json.dumps`` and 2 more for the ``, `` after it; a
    row of at least two payoffs adds 4 bytes of brackets and separator, and
    a player of at least two rows 4 more.  So ``json.dump(game_to_dict(game))``
    takes at most 28 bytes a cell plus a header under 50 bytes, within the
    limit for every game :class:`AnonymousGame` admits.  A regular file over
    the limit is refused by its size before it is read, and a pipe once it
    yields a byte past the limit.  A document nested too deeply to decode is
    a ``ValueError``.
    """
    limit = 32 * oracle.CELL_BUDGET
    with open(path, "rb", buffering=0) as handle:
        checks.budget(os.fstat(handle.fileno()).st_size, limit, "game file", "bytes")
        data = bytearray()  # a pipe's size reads 0: read it a piece at a time, to a byte past the limit
        while piece := handle.read(min(limit + 1 - len(data), 1 << 20)):
            data += piece
    checks.budget(len(data), limit, "game file", "bytes")
    # Rebinding data frees the bytes before json.loads builds the document, and the text once it returns.
    data = data.decode("utf-8")
    try:
        data = json.loads(data)
    except RecursionError:
        raise ValueError("game document is nested too deeply") from None
    return parse_game(data)
