import collections
import hashlib
import inspect
import itertools
import json
import os
import random
import tracemalloc

import numpy as np
import pytest

from lipgames import (
    AnonymousGame,
    BudgetExceededError,
    count_vectors,
    find_eps_nash,
    game_to_dict,
    lipschitz_constant,
    load_game,
    parse_game,
    party_game,
    payoff,
    perturbed_payoff,
    random_game,
    regret,
    regret_in_unperturbed,
)
from lipgames import checks, games, oracle

import brute


def constant_game(n, k, c):
    import math

    classes = math.comb(n - 1 + k - 1, k - 1)
    return AnonymousGame(n, k, np.full((n, k, classes), c))


def test_constant_game_payoff_and_regret():
    game = constant_game(4, 3, 0.7)
    for delta in (0.0, 0.3, 0.8):
        assert perturbed_payoff(game, (0, 1, 2, 0), 2, delta) == pytest.approx(0.7, abs=1e-14)
        assert regret(game, (0, 1, 2, 0), delta).max_regret == pytest.approx(0.0, abs=1e-14)


def test_two_player_party_expectation_by_hand():
    # both attend, delta = 0.5: each actually attends with prob 3/4; an
    # even-preferring attender wins when the other attends too
    game = party_game(2, ["even", "even"])
    value = perturbed_payoff(game, (0, 0), 0, 0.5)
    # own action resolves to attend (3/4) or stay (1/4); opponent attends w.p. 3/4
    expected = 0.75 * (0.75 * 1.0 + 0.25 * 0.0) + 0.25 * 0.5
    assert value == pytest.approx(expected, abs=1e-14)
    assert value == pytest.approx(brute.perturbed_payoff(game, (0, 0), 0, 0.5), abs=1e-14)


@pytest.mark.parametrize("delta", (0.0, 0.25, 0.6))
def test_payoffs_stay_in_unit_interval(delta):
    game = random_game(4, 3, seed=5)
    for profile in itertools.islice(itertools.product(range(3), repeat=4), 20):
        for i in range(4):
            value = perturbed_payoff(game, profile, i, delta)
            assert -1e-12 <= value <= 1.0 + 1e-12


def test_perturbed_payoff_matches_enumeration():
    game = random_game(4, 3, seed=17)
    rng = np.random.default_rng(3)
    for _ in range(5):
        profile = tuple(int(a) for a in rng.integers(0, 3, 4))
        player = int(rng.integers(0, 4))
        delta = float(rng.uniform(0.05, 0.95))
        assert perturbed_payoff(game, profile, player, delta) == pytest.approx(
            brute.perturbed_payoff(game, profile, player, delta), abs=1e-12
        )


def test_payoff_anonymity_under_opponent_permutation():
    game = random_game(5, 3, seed=8)
    base = (0, 1, 2, 2, 1)
    value = perturbed_payoff(game, base, 0, 0.3)
    for perm in itertools.permutations(base[1:]):
        assert perturbed_payoff(game, (0,) + perm, 0, 0.3) == value


def test_regret_nonnegative_and_consistent():
    game = random_game(5, 2, seed=21)
    report = regret(game, (0, 1, 0, 0, 1), 0.2)
    assert report.max_regret == max(r for _, r in report.per_player)
    assert all(r >= 0.0 for _, r in report.per_player)
    assert len(report.per_player) == 5


def test_party_game_examples():
    game = party_game(2, ["even", "even"])
    assert payoff(game, (0, 0), 0) == 1.0
    assert payoff(game, (0, 0), 1) == 1.0
    mixed = party_game(2, ["even", "odd"])
    for profile in itertools.product((0, 1), repeat=2):
        assert regret(mixed, profile, 0.0).max_regret >= 0.5


def test_party_game_table_matches_its_per_player_definition():
    rng = random.Random(5)
    for n in range(2, 40):
        prefs = [rng.choice(("even", "odd")) for _ in range(n)]
        expected = np.zeros((n, 2, n))
        for i, pref in enumerate(prefs):
            # Own action 0 attends: paid 1 when the attendance, self included, has the wanted parity.
            expected[i, 0, :] = [float((r + 1) % 2 == (pref == "odd")) for r in range(n)]
            expected[i, 1, :] = 0.5
        assert party_game(n, prefs).payoffs.tobytes() == expected.tobytes()


def test_three_player_party_has_no_near_equilibrium():
    game = party_game(3, ["even", "odd", "even"])
    for profile in itertools.product((0, 1), repeat=3):
        assert regret(game, profile, 0.0).max_regret >= 0.5
    assert find_eps_nash(game, 0.0, 0.5 - 1e-9) is None


def test_party_game_validation():
    with pytest.raises(ValueError):
        party_game(1, ["even"])
    with pytest.raises(ValueError):
        party_game(2, ["even"])
    with pytest.raises(ValueError):
        party_game(2, ["even", "sometimes"])


def test_find_eps_nash_constant_game_returns_first_profile():
    game = constant_game(3, 2, 0.4)
    found = find_eps_nash(game, 0.2, 0.0)
    assert found is not None
    assert found.profile == (0, 0, 0)
    assert found.report.max_regret == 0.0


def test_find_eps_nash_perturbed_party():
    game = party_game(4, ["even", "odd", "even", "odd"])
    delta = 0.3
    eps = 2 * 2 * lipschitz_constant(4, 2, delta).value + 1e-9
    found = find_eps_nash(game, delta, eps)
    assert found is not None
    assert found.report.max_regret <= eps
    # translating back: the perturbed profile is (delta + eps)-stable unperturbed
    translated = regret_in_unperturbed(game, found.profile, delta)
    assert translated <= delta + found.report.max_regret + 1e-12


def test_translation_bound_on_random_games():
    for seed in range(6):
        game = random_game(4, 2, seed=seed)
        for profile in ((0, 0, 0, 0), (1, 0, 1, 0)):
            for delta in (0.1, 0.4):
                eps = regret(game, profile, delta).max_regret
                assert regret_in_unperturbed(game, profile, delta) <= delta + eps + 1e-12


def test_payoffs_and_regrets_keep_their_bits():
    # sha256 of every payoff and regret below, each float as float.hex(): pinned,
    # so a change in how opponent laws are built cannot move a bit unseen
    digest = hashlib.sha256()
    for game in (random_game(4, 3, 1), random_game(5, 2, 7), party_game(6, ["even", "odd"] * 3),
                 constant_game(4, 3, 0.7)):
        for profile in itertools.product(range(game.k), repeat=game.n):
            for delta in (0.0, 0.05, 0.3, 0.8):
                report = regret(game, profile, delta)
                values = [perturbed_payoff(game, profile, i, delta) for i in range(game.n)]
                values += [report.max_regret, report.unperturbed_regret, regret_in_unperturbed(game, profile, delta)]
                values += [x for best, gain in report.per_player for x in (best, gain)]
                line = " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "a101a502ca36b79e43b06379b488f35a9f3baabf494380fb27c07099063301b8"


def _counted_checks(monkeypatch):
    """Patch every ``checks`` function and ``CountDistribution``; returns the calls counted by name."""
    calls = collections.Counter()
    for name, fn in list(vars(checks).items()):
        if inspect.isfunction(fn):

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(checks, name, counted)

    def refused(*args):
        raise AssertionError("a CountDistribution was built")

    monkeypatch.setattr(oracle, "CountDistribution", refused)
    return calls


def test_a_payoff_and_a_regret_check_the_profile_once(monkeypatch):
    game = random_game(4, 3, 1)
    expected = perturbed_payoff(game, (0, 1, 2, 1), 1, 0.3), regret(game, (0, 1, 2, 1), 0.3)
    calls = _counted_checks(monkeypatch)
    assert perturbed_payoff(game, (0, 1, 2, 1), 1, 0.3) == expected[0]
    assert (calls["index"], calls["delta"]) == (5, 1)  # four profile actions and the player
    calls.clear()
    assert regret(game, (0, 1, 2, 1), 0.3) == expected[1]
    assert (calls["index"], calls["probabilities"]) == (4, 0)


def test_regret_in_unperturbed_is_read_off_regret(monkeypatch):
    game = random_game(4, 3, 1)
    reports = []

    def recorded(*args):
        reports.append(regret(*args))
        return reports[-1]

    monkeypatch.setattr(games, "regret", recorded)
    assert regret_in_unperturbed(game, (0, 1, 2, 1), 0.3) == reports[0].unperturbed_regret
    assert len(reports) == 1


def test_find_eps_nash_budget(monkeypatch):
    game = constant_game(4, 3, 0.5)
    monkeypatch.setattr(games, "PROFILE_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="^equilibrium scan needs 81 profiles, over the budget of 10$"):
        find_eps_nash(game, 0.1, 1.0)


def test_game_validation():
    with pytest.raises(ValueError, match="shape"):
        AnonymousGame(3, 2, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="payoffs"):
        AnonymousGame(2, 2, np.full((2, 2, 2), 1.5))
    game = random_game(3, 2, seed=0)
    with pytest.raises(ValueError):
        perturbed_payoff(game, (0, 1), 0, 0.5)
    with pytest.raises(ValueError):
        perturbed_payoff(game, (0, 1, 2), 0, 0.5)
    with pytest.raises(ValueError):
        perturbed_payoff(game, (0, 1, 1), 5, 0.5)
    with pytest.raises(ValueError):
        regret(game, (0, 1, 1), 1.0)


def test_game_file_round_trip(tmp_path):
    game = random_game(3, 3, seed=42)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(game)))
    loaded = load_game(path)
    assert loaded.n == game.n and loaded.k == game.k
    assert np.array_equal(loaded.payoffs, game.payoffs)


def test_deeply_nested_game_file_is_a_value_error(tmp_path):
    path = tmp_path / "deep.json"
    for document in ("[" * 100_000, '{"n": 2, "k": 2, "payoffs": ' + "[" * 100_000):
        path.write_text(document)
        with pytest.raises(ValueError, match="^game document is nested too deeply$"):
            load_game(path)


def test_game_file_over_the_size_limit_is_refused_unread(tmp_path):
    # 32 bytes per cell of the budget; a sparse file one byte over holds no data to read
    path = tmp_path / "big.json"
    path.touch()
    os.truncate(path, 32 * oracle.CELL_BUDGET + 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^game file needs 320000001 bytes, over the budget of 320000000$"):
            load_game(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_loaded_game_file_is_not_held_while_its_document_is_built(tmp_path):
    # 180,000 cells in a 3.6 MB file.  Holding the bytes while json.loads builds the document,
    # and the text after it, peaked at 73 bytes a cell; releasing each peaks at about 53.
    game = random_game(2, 300, seed=3)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(game)))
    tracemalloc.start()
    try:
        loaded = load_game(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.payoffs, game.payoffs)
    assert peak < 60 * game.payoffs.size


def test_piped_game_is_read_to_a_byte_past_the_limit(monkeypatch):
    monkeypatch.setattr(oracle, "CELL_BUDGET", 100)  # a limit of 3200 bytes
    small = random_game(3, 2, seed=5)
    for document, refused in ((json.dumps(game_to_dict(small)).encode(), False), (b" " * 5000, True)):
        read, write = os.pipe()
        try:
            os.write(write, document)
            os.close(write)
            if refused:
                with pytest.raises(BudgetExceededError, match="^game file needs 3201 bytes, over the budget of 3200$"):
                    load_game(f"/dev/fd/{read}")
                assert len(os.read(read, 10_000)) == 5000 - 3201
            else:
                assert np.array_equal(load_game(f"/dev/fd/{read}").payoffs, small.payoffs)
        finally:
            os.close(read)


def test_compact_files_of_the_largest_games_load(tmp_path, monkeypatch):
    # payoffs of the longest rendering, 23 characters, in games of up to 588 of the 600 cells
    # admitted: each file takes at most 28 bytes a cell plus 50, inside the 32 a cell allowed
    monkeypatch.setattr(oracle, "CELL_BUDGET", 600)
    path = tmp_path / "game.json"
    for n, k in ((2, 2), (3, 2), (17, 2), (2, 17), (7, 3), (3, 7), (4, 4)):
        cells = n * k * oracle._classes(n - 1, k)
        payoffs = np.full((n, k, cells // (n * k)), 1.2345678901234567e-100)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(game_to_dict(AnonymousGame(n, k, payoffs)), handle)
        assert path.stat().st_size <= 28 * cells + 50
        assert np.array_equal(load_game(path).payoffs, payoffs)


def test_parse_game_diagnostics():
    with pytest.raises(ValueError, match="missing the field"):
        parse_game({"n": 2, "k": 2})
    with pytest.raises(ValueError, match="must list 2 players"):
        parse_game({"n": 2, "k": 2, "payoffs": [[[0.5, 0.5]]]})
    with pytest.raises(ValueError, match=r"payoffs\[0\] must list 2 actions"):
        parse_game({"n": 2, "k": 2, "payoffs": [[[0.5, 0.5]], [[0.5, 0.5]]]})
    bad_rank = {
        "n": 2,
        "k": 2,
        "payoffs": [[[0.5], [0.5]], [[0.5], [0.5]]],
    }
    with pytest.raises(ValueError, match="count-vector ranks"):
        parse_game(bad_rank)
    doc = {
        "n": 2,
        "k": 2,
        "payoffs": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]],
    }
    game = parse_game(doc)
    assert game.payoffs[1, 1, 0] == 0.7


def _first_eps_nash_by_enumeration(game, delta, eps):
    """First profile whose enumerated perturbed regrets are all <= eps, with its regret."""
    for profile in itertools.product(range(game.k), repeat=game.n):
        worst = 0.0
        for i in range(game.n):
            values = [
                brute.perturbed_payoff(game, profile[:i] + (b,) + profile[i + 1 :], i, delta)
                for b in range(game.k)
            ]
            worst = max(worst, max(values) - values[profile[i]])
        if worst <= eps:
            return profile, worst
    return None


def _max_regrets(game, delta):
    return {p: regret(game, p, delta).max_regret for p in itertools.product(range(game.k), repeat=game.n)}


def _check_scan_against_enumeration(game, delta, eps):
    found = find_eps_nash(game, delta, eps)
    expected = _first_eps_nash_by_enumeration(game, delta, eps)
    if expected is None:
        assert found is None
    else:
        assert found.profile == expected[0]
        assert found.report.max_regret == pytest.approx(expected[1], abs=1e-12)
    return found


@pytest.mark.parametrize("n,k,seed", [(3, 2, 1), (4, 2, 2), (3, 3, 3)])
@pytest.mark.parametrize("delta", (0.0, 0.35))
def test_find_eps_nash_matches_enumeration(n, k, seed, delta):
    game = random_game(n, k, seed=seed)
    levels = sorted(set(_max_regrets(game, delta).values()))
    # eps halfway between the two smallest regret levels admits exactly the
    # profiles at the smallest level
    found = _check_scan_against_enumeration(game, delta, (levels[0] + levels[1]) / 2)
    assert found.report.max_regret == levels[0]


@pytest.mark.parametrize("delta", (0.0, 0.35))
def test_find_eps_nash_none_matches_enumeration(delta):
    game = party_game(3, ["even", "odd", "even"])
    floor = min(_max_regrets(game, delta).values())
    assert floor > 0.0
    assert _check_scan_against_enumeration(game, delta, floor / 2) is None
    assert _check_scan_against_enumeration(game, delta, floor * 1.5) is not None


def test_find_eps_nash_tie_goes_to_first_profile():
    # identical payoff tables make every permutation of a profile tie
    # exactly, so the scan must return the lexicographically first one
    base = random_game(4, 2, seed=11).payoffs[0]
    game = AnonymousGame(4, 2, np.stack([base] * 4))
    delta = 0.25
    regrets = _max_regrets(game, delta)
    eps = min(regrets.values())
    tied = sorted(p for p, r in regrets.items() if r == eps)
    assert len(tied) >= 2
    assert all(abs(r - eps) > 1e-9 for p, r in regrets.items() if p not in tied)
    found = find_eps_nash(game, delta, eps)
    assert found.profile == tied[0]
    assert found.profile == _first_eps_nash_by_enumeration(game, delta, eps + 1e-9)[0]


def _unperturbed_regret_by_enumeration(game, profile, delta):
    """Largest gain of a pure outright action over the perturbed strategy, enumerated.

    Announcing b pays D_b = (1 - delta) B_b + (delta / k) sum(B), so the
    outright payoffs B_b follow from the enumerated D_b.
    """
    worst = 0.0
    for i in range(game.n):
        declared = [
            brute.perturbed_payoff(game, profile[:i] + (b,) + profile[i + 1 :], i, delta)
            for b in range(game.k)
        ]
        spread = delta / game.k * sum(declared)
        outright = [(d - spread) / (1.0 - delta) for d in declared]
        worst = max(worst, max(outright) - declared[profile[i]])
    return worst


@pytest.mark.parametrize("n,k,seed", [(3, 2, 1), (4, 2, 2), (3, 3, 3)])
@pytest.mark.parametrize("delta", (0.0, 0.35))
def test_report_carries_unperturbed_regret(n, k, seed, delta):
    game = random_game(n, k, seed=seed)
    found = find_eps_nash(game, delta, 1.0)
    assert found.report.unperturbed_regret == regret_in_unperturbed(game, found.profile, delta)
    for profile in itertools.islice(itertools.product(range(k), repeat=n), 0, None, 3):
        report = regret(game, profile, delta)
        assert report.unperturbed_regret == regret_in_unperturbed(game, profile, delta)
        assert report.unperturbed_regret == pytest.approx(
            _unperturbed_regret_by_enumeration(game, profile, delta), abs=1e-12
        )


def test_nan_payoffs_are_refused():
    payoffs = np.full((2, 2, 2), 0.5)
    payoffs[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="payoffs"):
        AnonymousGame(2, 2, payoffs)


def test_bool_player_is_refused():
    with pytest.raises(ValueError, match="player"):
        perturbed_payoff(random_game(3, 2, seed=0), (0, 1, 1), True, 0.5)


def test_bool_delta_or_eps_is_refused():
    # find_eps_nash(game, False, 0.1) used to run as delta = 0, and eps = True as 1
    game, profile = random_game(3, 2, seed=0), (0, 1, 1)
    for call in (lambda: find_eps_nash(game, False, 0.1),
                 lambda: perturbed_payoff(game, profile, 0, np.False_),
                 lambda: regret(game, profile, False)):
        with pytest.raises(ValueError, match="delta must lie in"):
            call()
    for eps in (True, False, np.True_):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            find_eps_nash(game, 0.3, eps)


@pytest.mark.parametrize(
    "args, match",
    [((True, 2, 0), "player count"), ((1, 2, 0), "player count"), ((3.0, 2, 0), "player count"),
     ((3, True, 0), "action count"), ((3, 1, 0), "action count"),
     ((3, 2, True), "seed"), ((3, 2, -1), "seed"), ((3, 2, 0.5), "seed")],
)
def test_random_game_refuses_bad_arguments(args, match):
    with pytest.raises(ValueError, match=rf"^{match} must be an integer >= \d+, got "):
        random_game(*args)


@pytest.mark.parametrize("delta", (float("nan"), -0.1, 1.0), ids=("nan", "negative", "one"))
def test_game_delta_outside_zero_to_one_is_refused(delta):
    game, profile = random_game(3, 2, seed=0), (0, 1, 1)
    for call in (lambda: perturbed_payoff(game, profile, 0, delta),
                 lambda: regret(game, profile, delta),
                 lambda: regret_in_unperturbed(game, profile, delta),
                 lambda: find_eps_nash(game, delta, 0.1)):
        with pytest.raises(ValueError, match=rf"^delta must lie in \[0, 1\), got {delta!r}$"):
            call()


def _equal_payoffs_game(n, k, seed):
    # one payoff table for every player, so permuted profiles tie exactly
    base = random_game(n, k, seed=seed).payoffs[0]
    return AnonymousGame(n, k, np.stack([base] * n))


def _chase_game(n, k):
    """Player 0 gains by matching player 1's action, player 1 by playing the
    next action after player 0's, and everyone else by playing action 0.

    The chase has no pure equilibrium, so small eps find none while the
    perturbation stays small.
    """
    classes = count_vectors(n - 1, k)
    payoffs = np.zeros((n, k, len(classes)))
    payoffs[2:, 0, :] = 1.0
    for r, counts in enumerate(classes):
        # opponents on each action beyond the n - 2 who play action 0
        spare = [c - (n - 2 if j == 0 else 0) for j, c in enumerate(counts)]
        for a in range(k):
            payoffs[0, a, r] = float(spare[a] > 0)
            payoffs[1, a, r] = float(spare[a - 1] > 0)
    return AnonymousGame(n, k, payoffs)


@pytest.mark.parametrize(
    "n,k", [(2, 2), (3, 2), (5, 2), (8, 2), (2, 3), (4, 3), (5, 3), (2, 4), (3, 4), (4, 4)]
)
@pytest.mark.parametrize("delta", (0.0, 0.1, 0.37, 0.9))
def test_find_eps_nash_equals_the_per_profile_scan(n, k, delta):
    candidates = [random_game(n, k, seed=10 * n + k), _equal_payoffs_game(n, k, seed=n + k), _chase_game(n, k)]
    if k == 2:
        candidates.append(party_game(n, ["even" if i % 2 == 0 else "odd" for i in range(n)]))
    outcomes = set()
    for game in candidates:
        levels = sorted(set(_max_regrets(game, delta).values()))
        # eps at 0, below the least regret, and exactly at regret levels,
        # where the profiles of that level tie with the bound
        for eps in (0.0, levels[0] / 2, *levels[:: max(1, len(levels) // 5)], levels[-1]):
            found = find_eps_nash(game, delta, eps)
            expected = brute.scan_eps_nash(game, delta, eps)
            assert found == expected
            assert repr(found) == repr(expected)
            outcomes.add(found is None)
    assert False in outcomes and (True in outcomes or delta > 0.1)


def test_scan_cells_are_charged_against_the_cell_budget(monkeypatch):
    # (7, 10) has 10**7 profiles, inside the profile budget, but its
    # C(15, 9) = 5005 opponent classes need 5005 * (7 * 10) verdict cells
    # and 5005**2 law cells
    game = random_game(7, 10, seed=0)
    with pytest.raises(BudgetExceededError, match="^equilibrium scan needs 25400375 cells, over the budget of 10000000$"):
        find_eps_nash(game, 0.1, 0.0)
    # 14 opponent classes: 14 * 28 verdict cells plus 14**2 law cells, charged for delta > 0 only
    party = party_game(14, ["even", "odd"] * 7)
    monkeypatch.setattr(oracle, "CELL_BUDGET", 587)
    with pytest.raises(BudgetExceededError, match="588 cells"):
        find_eps_nash(party, 0.05, 0.05)
    assert find_eps_nash(party, 0.0, 0.05) is None
    monkeypatch.setattr(oracle, "CELL_BUDGET", 588)
    assert find_eps_nash(party, 0.05, 0.05) is None


@pytest.mark.parametrize("delta", (0.3,))
def test_scan_over_the_cell_budget_is_refused_before_allocating(delta, monkeypatch):
    # 2 players, 2300 actions: 5.29e6 profiles, inside the profile budget,
    # and 2300 opponent classes, so 2 * 2300 * 2300 verdict cells, as many
    # as the payoff table, which is built under a budget that admits it,
    # plus 2300**2 law cells
    payoffs = np.broadcast_to(np.float64(0.5), (2, 2300, 2300))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "CELL_BUDGET", payoffs.size)
        game = AnonymousGame(2, 2300, payoffs)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="cells, over the budget"):
            find_eps_nash(game, delta, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_scan_builds_the_class_laws_of_a_thousand_actions():
    # at eps = 1 the first profile qualifies, after the laws of all 1000 opponent classes are built
    assert find_eps_nash(random_game(2, 1000, 1), 0.3, 1.0).profile == (0, 0)
