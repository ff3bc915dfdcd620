import gc
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipgames import (
    AnonymousGame,
    BudgetExceededError,
    CountDistribution,
    count_distribution,
    count_vector_rank,
    count_vectors,
    lipschitz_oracle,
    perturbed_action_law,
    random_game,
    regret,
    shifted_tv,
)
from lipgames import oracle

import brute


def test_count_vectors_examples():
    assert count_vectors(0, 3) == ((0, 0, 0),)
    assert count_vectors(1, 2) == ((0, 1), (1, 0))
    assert count_vectors(2, 2) == ((0, 2), (1, 1), (2, 0))


def test_count_vectors_order_and_size():
    for m, k in ((3, 3), (5, 2), (4, 4)):
        vecs = count_vectors(m, k)
        assert len(vecs) == math.comb(m + k - 1, k - 1)
        assert list(vecs) == sorted(vecs)
        assert all(sum(v) == m for v in vecs)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(0, 8), k=st.integers(2, 5))
def test_rank_agrees_with_enumeration(m, k):
    for idx, vec in enumerate(count_vectors(m, k)):
        assert count_vector_rank(vec) == idx


def test_count_vectors_need_no_recursion_at_a_thousand_actions():
    assert count_vectors(0, 1200) == ((0,) * 1200,)
    assert count_vectors(1, 1200)[-1] == (1,) + (0,) * 1199


@pytest.mark.parametrize("t,k", [*itertools.product(range(9), range(2, 7)), (1, 40), (2, 12)])
def test_depth_index_equals_the_per_cell_rank_loop(t, k):
    depth = oracle._depth(t, k)
    maps, actions, parents = brute.depth_maps_by_rank(t, k)
    assert np.array_equal(depth.actions, actions)
    assert np.array_equal(depth.parents, parents)
    for target, row in zip(depth.targets, maps):
        assert np.array_equal(np.arange(math.comb(t + k, k - 1))[target], row)


def test_action_laws_equal_the_per_action_laws_bitwise():
    # the batch's k x k matrix, a single fold's columns of its sorted actions and the
    # checked one-action law all come from the one builder, and agree bit for bit
    for k in (2, 3, 4, 5, 7, 10):
        for delta in (1e-9, 0.1, 0.3, 1 / 3, 0.37, 0.5, 0.85, 0.999):
            laws = oracle._action_laws(range(k), k, delta)
            assert laws.shape == (k, k)
            actions = sorted([k - 1, 0, 1, k - 1])
            few = oracle._action_laws(actions, k, delta)
            assert few.shape == (k, len(actions))
            assert oracle._action_laws([], k, delta).shape == (k, 0)
            for j in range(k):
                assert laws[:, j].tobytes() == perturbed_action_law(j, k, delta).tobytes()
            for c, j in enumerate(actions):
                assert few[:, c].tobytes() == laws[:, j].tobytes()


@pytest.mark.parametrize("m,k", [(0, 2), (1, 3), (7, 2), (5, 3), (4, 4), (3, 5), (41, 2), (16, 3), (9, 4)])
def test_class_laws_equal_count_distribution_bitwise(m, k):
    for delta in (0.1, 0.37, 0.9):
        laws = oracle._class_laws(m, k, delta)
        assert laws.flags.c_contiguous
        assert laws.shape == (math.comb(m + k - 1, k - 1),) * 2
        for row, counts in zip(laws, count_vectors(m, k)):
            profile = [j for j, c in enumerate(counts) for _ in range(c)]
            assert row.tobytes() == count_distribution(profile, k, delta).probs.tobytes()


def test_class_law_equals_count_distribution_bitwise():
    # every class of up to 8 players over 2..4 actions, its players handed over in descending order
    for k in (2, 3, 4):
        for m in range(9):
            for delta in (0.1, 0.37, 0.9):
                laws = oracle._class_laws(m, k, delta)
                for row, counts in zip(laws, count_vectors(m, k)):
                    profile = [j for j, c in enumerate(counts) for _ in range(c)]
                    law = oracle._class_law(profile[::-1], k, delta)
                    assert law.tobytes() == count_distribution(profile, k, delta).probs.tobytes()
                    assert law.tobytes() == row.tobytes()


def test_class_laws_of_no_players_build_no_law_matrix(monkeypatch):
    def refused(*args):
        raise AssertionError(f"_action_laws{args} built with nothing to fold")

    monkeypatch.setattr(oracle, "_action_laws", refused)
    for k in (2, 3, 1000):
        assert oracle._class_laws(0, k, 0.3).tobytes() == np.ones((1, 1)).tobytes()
        assert lipschitz_oracle(2, k, 0.3) == (0.7, (0,) * k)


def test_laws_keep_their_bits():
    # sha256 of every law of up to 8 players over 2..5 actions at four deltas: pinned, so
    # no change to how a law is built can move a bit unseen.  The batch's rows, the
    # single folds (players handed over in descending order) and the checked laws are
    # the same bytes, so they share one digest; the one-action laws have their own.
    digests = {name: hashlib.sha256() for name in ("batch", "single", "checked", "action")}
    for k in range(2, 6):
        for m in range(9):
            for delta in (0.1, 1 / 3, 0.37, 0.9):
                digests["batch"].update(oracle._class_laws(m, k, delta).tobytes())
                for counts in count_vectors(m, k):
                    profile = [j for j, c in enumerate(counts) for _ in range(c)]
                    digests["single"].update(oracle._class_law(profile[::-1], k, delta).tobytes())
                    digests["checked"].update(count_distribution(profile, k, delta).probs.tobytes())
                if m == 0:
                    for j in range(k):
                        digests["action"].update(perturbed_action_law(j, k, delta).tobytes())
    laws = "c1e261ee541b173034071cf9de7ceeea7c2f1e563f3295d0cbdbba18a2cd4905"
    assert {name: d.hexdigest() for name, d in digests.items()} == {
        "batch": laws, "single": laws, "checked": laws,
        "action": "4eb71f858beb24ea41fd81eccd8a48e84b685f53b6c8e3f425c4b6cf29ac8c3a",
    }


def test_class_count_is_exact_up_to_2_to_the_15_and_a_lower_bound_past_it():
    for m in range(12):
        for k in range(2, 12):
            assert oracle._classes(m, k) == math.comb(m + k - 1, k - 1)
    assert oracle._classes(2**15, 2**15 + 1) == math.comb(2**16, 2**15)
    assert oracle._classes(2**15 + 1, 2**15 + 2) == 2 ** (2**15 + 1) <= math.comb(2**16 + 2, 2**15 + 1)
    assert oracle._classes(10**6, 3) == math.comb(10**6 + 2, 2)
    assert oracle._classes(10**12, 10**12) == 2 ** 2**20


def test_action_law_examples():
    assert np.allclose(perturbed_action_law(0, 2, 0.5), [0.75, 0.25])
    assert np.allclose(perturbed_action_law(2, 3, 0.3), [0.1, 0.1, 0.8])
    assert np.allclose(perturbed_action_law(0, 4, 0.8), [0.4, 0.2, 0.2, 0.2])
    assert perturbed_action_law(1, 3, 0.4).sum() == pytest.approx(1.0, abs=1e-15)


def test_action_law_rejects_bad_input():
    with pytest.raises(ValueError):
        perturbed_action_law(3, 3, 0.5)
    with pytest.raises(ValueError):
        perturbed_action_law(0, 3, 0.0)
    with pytest.raises(ValueError):
        perturbed_action_law(0, 1, 0.5)


def test_count_distribution_trivial():
    dist = count_distribution([], 3, 0.4)
    assert dist.m == 0
    assert dist.prob((0, 0, 0)) == 1.0


def test_count_distribution_single_player():
    dist = count_distribution([0], 2, 0.5)
    assert dist.prob((1, 0)) == pytest.approx(0.75, abs=1e-15)
    assert dist.prob((0, 1)) == pytest.approx(0.25, abs=1e-15)


def test_count_distribution_witness_pair():
    dist = count_distribution([2, 2], 3, 0.3)
    assert dist.prob((0, 0, 2)) == pytest.approx(0.64, abs=1e-15)


@pytest.mark.parametrize(
    "profile,k,delta",
    [([0, 1], 3, 0.3), ([2, 2, 1], 3, 0.5), ([0, 1, 1, 0], 2, 0.25)],
)
def test_count_distribution_matches_enumeration(profile, k, delta):
    dist = count_distribution(profile, k, delta)
    law = brute.count_law(profile, k, delta)
    for vec in count_vectors(len(profile), k):
        assert dist.prob(vec) == pytest.approx(law.get(vec, 0.0), abs=1e-14)


def test_count_distribution_permutation_invariant_bitwise():
    base = count_distribution([0, 2, 1, 2], 3, 0.37)
    for perm in itertools.permutations([0, 2, 1, 2]):
        other = count_distribution(list(perm), 3, 0.37)
        assert np.array_equal(base.probs, other.probs)


def test_count_distribution_normalised():
    dist = count_distribution([0, 1, 2, 3, 3], 4, 0.6)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        CountDistribution(2, 2, np.array([1.0]))
    with pytest.raises(ValueError):
        CountDistribution(1, 2, np.array([0.7, 0.7]))


def _traced_peak(call, error=None):
    """Peak traced memory of ``call``, which must raise ``error`` when one is given."""
    tracemalloc.start()
    try:
        if error is None:
            call()
        else:
            with pytest.raises(error[0], match=error[1]):
                call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distribution_shape_is_checked_before_its_values():
    # a zero-byte view of 10**8 entries: refused for its shape, never summed
    view = np.broadcast_to(0.1, (10**8,))
    message = r"^expected 3 probabilities for m=2, k=2, got shape \(100000000,\)$"
    assert _traced_peak(lambda: CountDistribution(2, 2, view), (ValueError, message)) < 1 << 20


def test_laws_build_only_the_columns_they_fold():
    for k in (4000, 10**5):  # a k x k matrix would be 128 MB, then 80 GB
        assert _traced_peak(lambda: count_distribution([], k, 0.3)) < 1 << 20
        assert count_distribution([], k, 0.3).probs.tolist() == [1.0]
    lipschitz_oracle(2, 3000, 0.3)  # the index, cached
    assert _traced_peak(lambda: lipschitz_oracle(2, 3000, 0.3)) < 1 << 20
    game = random_game(2, 2000, 0)
    report = regret(game, (3, 7), 0.3)  # the index, cached
    assert _traced_peak(lambda: regret(game, (3, 7), 0.3)) < 2 << 20
    assert regret(game, (3, 7), 0.3) == report


def test_shifted_tv_charges_the_index_of_one_more_player():
    dist = count_distribution([2], 3, 0.3)  # the index of two players holds 3 * C(4, 2) = 18 counts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "CELL_BUDGET", 18)
        assert shifted_tv(dist, 0, 1) == pytest.approx(0.9, abs=1e-15)
        patch.setattr(oracle, "CELL_BUDGET", 17)
        with pytest.raises(BudgetExceededError, match="^shifted tv needs 18 cells, over the budget of 17$"):
            shifted_tv(dist, 0, 1)
    # one player over 1000 actions: the index of two would hold 1000 * C(1001, 2) counts
    dist = count_distribution([0], 1000, 0.3)
    message = "^shifted tv needs 500500000 cells, over the budget of 10000000$"
    assert _traced_peak(lambda: shifted_tv(dist, 0, 1), (BudgetExceededError, message)) < 1 << 20


def _charged_entries(m, k):
    """Each oracle entry at m players over k actions, as (name, call, the cells it charges).

    ``shifted_tv`` reads a distribution and ``regret`` a game of m + 1 players, each
    built here under the default budget when it fits; the game is a zero-byte view.
    """
    classes, more = math.comb(m + k - 1, k - 1), math.comb(m + k, k - 1)
    actions = list(range(m))
    entries = [
        ("count_distribution", lambda: count_distribution(actions, k, 0.3), k * classes),
        ("perturbed_action_law", lambda: perturbed_action_law(k - 1, k, 0.3), k),
        ("count_vectors", lambda: count_vectors(m, k), classes * k),
        ("lipschitz_oracle", lambda: lipschitz_oracle(m + 2, k, 0.3), max(classes, k) * more),
    ]
    if k * classes <= oracle.CELL_BUDGET:
        dist = count_distribution(actions, k, 0.3)
        entries.append(("shifted_tv", lambda: shifted_tv(dist, 0, 1), k * more))
    if m and (m + 1) * k * classes <= oracle.CELL_BUDGET:
        game = AnonymousGame(m + 1, k, np.broadcast_to(0.5, (m + 1, k, classes)))
        entries.append(("regret", lambda: regret(game, [k - 1, *actions], 0.3), k * classes))
    return entries


@settings(max_examples=20, deadline=None)
@given(m=st.sampled_from((0, 1, 2)), k=st.integers(2, 4000))
@example(m=0, k=4000)
@example(m=0, k=1001)
@example(m=1, k=1000)
@example(m=1, k=2236)
@example(m=2, k=126)
def test_every_oracle_entry_stays_within_its_charge(m, k):
    # At a tenth of the default budget, to keep the calls it admits small: each entry is
    # refused exactly when its charge is over the budget, at a small traced peak, and
    # otherwise peaks at no more than 40 bytes per charged cell, its index built cold.
    budget = oracle.CELL_BUDGET // 10
    for name, call, cells in _charged_entries(m, k):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "CELL_BUDGET", budget)
            oracle._depth.cache_clear()
            refused = cells > budget
            peak = _traced_peak(call, (BudgetExceededError, None) if refused else None)
        assert peak <= (0 if refused else 40 * cells) + (1 << 16), (name, m, k, cells, peak)


def test_shifted_tv_trivial_cases():
    point = count_distribution([], 3, 0.5)
    assert shifted_tv(point, 0, 1) == 1.0
    assert shifted_tv(point, 1, 1) == 0.0


def test_shifted_tv_hand_case():
    # single player on action 2, law (0.1, 0.1, 0.8): six-point support
    dist = count_distribution([2], 3, 0.3)
    assert shifted_tv(dist, 0, 1) == pytest.approx(0.9, abs=1e-15)
    assert shifted_tv(dist, 0, 1) == pytest.approx(
        brute.shifted_tv([2], 3, 0.3, 0, 1), abs=1e-14
    )


def test_shifted_tv_bounded():
    for profile in ([0], [1, 2], [2, 2, 0]):
        dist = count_distribution(profile, 3, 0.45)
        for j1 in range(3):
            for j2 in range(3):
                assert 0.0 <= shifted_tv(dist, j1, j2) <= 1.0


def test_oracle_examples():
    assert lipschitz_oracle(2, 3, 0.5).value == pytest.approx(0.5, abs=1e-15)
    result = lipschitz_oracle(4, 2, 0.5)
    assert result.value == pytest.approx(0.3125, abs=1e-15)
    assert result.worst_class == (1, 1)


def test_oracle_witness_all_on_spare_action():
    for n, k in ((4, 3), (6, 3), (5, 4)):
        witness = lipschitz_oracle(n, k, 0.5).worst_class
        assert witness[0] == 0 and witness[1] == 0
        assert sorted(witness[2:], reverse=True)[0] == n - 2


def test_oracle_relabel_symmetry():
    # swapping the roles of actions 2 and 3 leaves every class value unchanged
    for counts in count_vectors(3, 4):
        profile = [j for j, c in enumerate(counts) for _ in range(c)]
        swapped = [{2: 3, 3: 2}.get(a, a) for a in profile]
        tv = shifted_tv(count_distribution(profile, 4, 0.3), 0, 1)
        tv_swapped = shifted_tv(count_distribution(swapped, 4, 0.3), 0, 1)
        assert tv == pytest.approx(tv_swapped, abs=1e-14)


def test_oracle_budget(monkeypatch):
    monkeypatch.setattr(oracle, "CELL_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        lipschitz_oracle(40, 4, 0.3)


def test_two_player_budget_charges_the_index_of_k_squared_cells(monkeypatch):
    # one class of no players, k states, and the last depth's index of k * k counts
    assert lipschitz_oracle(2, 1200, 0.3) == (0.7, (0,) * 1200)
    monkeypatch.setattr(oracle, "CELL_BUDGET", 1600)
    assert lipschitz_oracle(2, 40, 0.3) == (0.7, (0,) * 40)
    monkeypatch.setattr(oracle, "CELL_BUDGET", 1599)
    with pytest.raises(BudgetExceededError, match="needs 1600 cells"):
        lipschitz_oracle(2, 40, 0.3)


def test_two_players_past_the_budget_are_refused_before_allocating():
    # 3163**2 cells is one square past the default budget; the index alone would be 20 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="needs 10004569 cells"):
            lipschitz_oracle(2, 3163, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _cached_arrays(depth):
    """Every array one cached depth holds: its non-slice fold targets, actions and parents."""
    return [a for a in depth.targets if not isinstance(a, slice)] + [depth.actions, depth.parents]


def test_depth_hands_out_only_read_only_arrays():
    # The cache shares every array with every caller, so none may be written.
    for k in range(2, 6):
        for t in range(6):
            assert not any(a.flags.writeable for a in _cached_arrays(oracle._depth(t, k))), (t, k)


def test_oracle_leaves_only_the_add_action_maps_behind():
    # The witness's composition array is rebuilt per call; only the delta-free depth
    # plans stay cached (the fold targets that are not slices, and per class
    # its largest action and parent row), so what a call keeps alive is about
    # their own bytes.
    n = 102
    oracle._depth.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lipschitz_oracle(n, 2, 0.3)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    plans = [oracle._depth(t, 2) for t in range(n - 1)]
    assert kept <= 2 * sum(a.nbytes for p in plans for a in _cached_arrays(p))


def test_oracle_peak_memory_stays_under_forty_bytes_per_cell():
    # The oracle holds one depth of prefix laws whole, so the cell budget
    # bounds its memory too; the bound is the one its docstring states.
    # Warm, the cached index is not part of a call; cold, its build is.
    for n, k, cold in ((200, 2, False), (200, 2, True), (400, 2, True), (3, 200, True)):
        cells = math.comb(n - 2 + k - 1, k - 1) * math.comb(n - 2 + k, k - 1)
        if cold:
            oracle._depth.cache_clear()
        else:
            lipschitz_oracle(n, k, 0.3)
        gc.collect()
        tracemalloc.start()
        try:
            lipschitz_oracle(n, k, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * cells, (n, k)


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lipschitz_oracle(1, 3, 0.5)
    with pytest.raises(ValueError):
        lipschitz_oracle(4, 3, 1.0)
    with pytest.raises(ValueError):
        count_distribution([0, 3], 3, 0.5)
    # bools and floats are not counts, so neither reads as the class (1, 1)
    with pytest.raises(ValueError, match="count must be an integer"):
        count_vector_rank((True, 2.7))
    with pytest.raises(ValueError, match="count must be an integer"):
        count_distribution([0, 1], 2, 0.5).prob((1.9, True))


def _oracle_by_class(n, k, delta):
    """The oracle as one fresh occupancy law and shifted TV per count class."""
    classes = count_vectors(n - 2, k)
    values = np.array(
        [
            shifted_tv(count_distribution([j for j, c in enumerate(counts) for _ in range(c)], k, delta), 0, 1)
            for counts in classes
        ]
    )
    best = float(values.max())
    ties = np.flatnonzero(values >= best - 1e-12)
    return (1.0 - delta) * best, classes[int(ties[0])], len(ties)


#: The oracle sizes of the benchmark's exact-small requests, by k.
BENCHMARK_SIZES = {2: (43, 56), 3: (18,), 4: (11,)}


@pytest.mark.parametrize("k", (2, 3, 4, 5))
@pytest.mark.parametrize("delta", (0.1, 0.5, 0.85))
def test_oracle_matches_per_class_loop_bitwise(k, delta):
    for n in (*range(2, 13), *BENCHMARK_SIZES.get(k, ())):
        value, witness, _ = _oracle_by_class(n, k, delta)
        result = lipschitz_oracle(n, k, delta)
        assert result.value == value
        assert result.worst_class == witness


@pytest.mark.parametrize(
    "n,k,delta,value,witness",
    [
        (43, 2, 0.3, "0x1.f7706cf71b09cp-4", (17, 24)),
        (56, 2, 0.61, "0x1.77a024fc6f774p-5", (27, 27)),
        (18, 3, 0.37, "0x1.eb1030eedf480p-3", (0, 0, 16)),
        (11, 4, 0.85, "0x1.d37abf946e85ep-5", (0, 0, 0, 9)),
        (12, 5, 0.1, "0x1.7f3809ed05211p-1", (0, 0, 0, 0, 10)),
    ],
)
def test_oracle_values_keep_their_bits(n, k, delta, value, witness):
    # A change of fold or scatter order moves the last bits of some of
    # these while every route still agrees with every other.
    assert lipschitz_oracle(n, k, delta) == (float.fromhex(value), witness)


def test_oracle_tie_goes_to_first_class():
    # actions 2 and 3 are interchangeable, so the all-on-one-spare-action
    # classes tie and the lexicographically first of them is the witness
    value, witness, ties = _oracle_by_class(7, 4, 0.5)
    assert ties >= 2
    assert witness == (0, 0, 0, 5)
    assert lipschitz_oracle(7, 4, 0.5) == (value, witness)


def _package_imports(module: str) -> set:
    """Modules of the package reachable from ``module`` through its imports."""
    import ast
    import importlib.util

    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = name.rsplit(".", node.level)[0]
                targets = [f"{base}.{node.module}"] if node.module else [f"{base}.{a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            # importing the package itself runs its __init__, which imports every module
            todo += [t for t in targets if t == "lipgames" or t.startswith("lipgames.")]
    return seen


def test_oracle_shares_no_code_with_the_closed_forms():
    reached = _package_imports("lipgames.oracle")
    assert "lipgames.errors" in reached  # the walk does follow imports
    for module in ("random_walk", "poisson_binomial", "integer_pmf", "lipschitz"):
        assert f"lipgames.{module}" not in reached


def test_bool_action_is_refused():
    # numpy would read law[True] as "select all" and return a law summing to 2
    with pytest.raises(ValueError):
        perturbed_action_law(True, 3, 0.5)


def test_nan_law_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        CountDistribution(1, 2, np.array([np.nan, 0.5]))
