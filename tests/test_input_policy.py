"""The one input policy for arrays and scalars, and the size budgets of the functions that take them.

``lipgames.checks.array`` is the only code that turns an outside array into
numbers: a bool or a string is never a number, an ndarray is judged by its
dtype alone, and a refusal of a Python sequence names the row of its first
bad entry.  A scalar check applies the same number rule and returns the
Python ``int`` or ``float`` it admits, which is all its caller computes with.
"""

import ast
import dataclasses
import inspect
import math
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lipgames
from lipgames import (
    AnonymousGame,
    BudgetExceededError,
    CountDistribution,
    IntegerPmf,
    asymptotic_estimate,
    binomial_collision_prob,
    checks,
    count_distribution,
    count_vector_rank,
    count_vectors,
    find_eps_nash,
    lipschitz_constant,
    lipschitz_multi_action,
    lipschitz_oracle,
    lipschitz_two_action,
    lipschitz_two_action_even,
    mirrored_action_counts,
    normal_approx_error,
    oracle,
    parse_game,
    party_game,
    passage_prob,
    pb_mode,
    pb_pmf,
    perturbed_action_law,
    perturbed_payoff,
    point_prob,
    poisson_binomial,
    random_game,
    regret,
    regret_in_unperturbed,
    simulate_coupling,
    simulate_meet_time,
    stay_below_prob,
    two_action_odd_bracket,
    two_block_max_prob,
    unit_shift_tv,
    walk_pmf,
)
from lipgames.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "lipgames"
PB_CALLS = (pb_pmf, pb_mode, unit_shift_tv, normal_approx_error)


def _peak_bytes(call, error, match=None):
    """Peak traced memory of ``call``, which must raise ``error`` matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _game_lists(leaf):
    """A two-player, two-action payoff table as nested lists, ``leaf`` at [1][0][1]."""
    return [[[0.1, 0.2], [0.3, 0.4]], [[0.5, leaf], [0.7, 0.8]]]


@pytest.mark.parametrize(
    "probs",
    ([True, False], [True, 0.5], ["0.5"], np.array([True]), np.array(["0.5"]), np.array([0.5], dtype=object),
     [0.5, None], [0.5, 1 + 0j], [0.5, [0.5]]),
    ids=repr,
)
def test_bool_string_or_object_probabilities_are_refused(probs):
    # numpy casts [True, 0.5] and ["0.5"] to floats without complaint
    for call in PB_CALLS:
        with pytest.raises(ValueError, match="^success probabilities must hold numbers only$"):
            call(probs)


def test_probabilities_of_the_wrong_dimension_are_refused():
    for call in PB_CALLS:
        with pytest.raises(ValueError, match="^success probabilities must be a 1-D array, got 2-D$"):
            call([[0.5]])
        with pytest.raises(ValueError, match="^success probabilities must be a 1-D array, got 0-D$"):
            call(0.5)


@pytest.mark.parametrize("signs", ([1, 10**30], [np.int64(1), 2**70]), ids=("python", "mixed"))
def test_signs_past_int64_are_a_value_error(signs):
    with pytest.raises(ValueError, match="^signs must hold integers within int64 range$"):
        pb_pmf([0.5, 0.5], 0, signs)


@pytest.mark.parametrize(
    "build, match",
    [(lambda: IntegerPmf(0, ["1.0"]), "^probs must hold numbers only$"),
     (lambda: IntegerPmf(0, [True]), "^probs must hold numbers only$"),
     (lambda: IntegerPmf(0, np.array([True])), "^probs must hold numbers only$"),
     (lambda: IntegerPmf(0.5, [1.0]), "^offset must be an integer, got 0.5$"),
     (lambda: IntegerPmf(True, [1.0]), "^offset must be an integer, got True$"),
     (lambda: IntegerPmf(np.float64(1.0), [1.0]), "^offset must be an integer"),
     (lambda: CountDistribution(True, 2, [0.5, 0.5]), "^total must be an integer >= 0, got True$"),
     (lambda: CountDistribution(1, True, [0.5, 0.5]), "^action count must be an integer >= 2, got True$"),
     (lambda: CountDistribution(1.0, 2, [0.5, 0.5]), "^total must be an integer >= 0, got 1.0$"),
     (lambda: CountDistribution(1, 2, ["0.5", 0.5]), "^probs must hold numbers only$")],
    ids=("IntegerPmf-string", "IntegerPmf-bool", "IntegerPmf-bool-array", "IntegerPmf-fractional-offset",
         "IntegerPmf-bool-offset", "IntegerPmf-float-offset", "CountDistribution-bool-m",
         "CountDistribution-bool-k", "CountDistribution-float-m", "CountDistribution-string"),
)
def test_pmf_classes_refuse_non_numbers(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("leaf, row", [("0.5", "[1][0]"), (True, "[1][0]"), (np.True_, "[1][0]"), (None, "[1][0]")],
                         ids=repr)
def test_game_payoffs_must_be_numbers_and_the_refusal_names_the_row(leaf, row):
    with pytest.raises(ValueError, match=rf"^payoffs{re.escape(row)} must hold numbers only$"):
        AnonymousGame(2, 2, _game_lists(leaf))
    with pytest.raises(ValueError, match=rf"^payoffs{re.escape(row)} must hold numbers only$"):
        parse_game({"n": 2, "k": 2, "payoffs": _game_lists(leaf)})


@pytest.mark.parametrize("dtype", (bool, object, str), ids=repr)
def test_game_payoff_arrays_are_judged_by_dtype(dtype):
    with pytest.raises(ValueError, match="^payoffs must hold numbers only$"):
        AnonymousGame(2, 2, np.ones((2, 2, 2), dtype=dtype))


def test_an_oversized_payoff_view_is_refused_before_it_is_read():
    # a zero-byte view whose range check would build about 40 GB of temporaries
    view = np.broadcast_to(0.5, (2, 10**5, 10**5))
    peak = _peak_bytes(lambda: AnonymousGame(2, 10**5, view), BudgetExceededError,
                       "^payoff table needs 20000000000 cells, over the budget of 10000000$")
    assert peak < 1 << 20


def test_game_payoffs_of_the_wrong_dimension_are_refused():
    with pytest.raises(ValueError, match="^payoffs must be a 3-D array, got 2-D$"):
        AnonymousGame(2, 2, np.full((2, 4), 0.5))


class _Unreadable(np.ndarray):
    """An ndarray whose entries cannot be read one by one."""

    @property
    def flat(self):
        raise AssertionError("entries read")

    def __iter__(self):
        raise AssertionError("entries read")


def test_an_ndarray_is_judged_by_its_dtype_without_reading_entries():
    values = np.full(3, 0.5).view(_Unreadable)
    assert checks.array(values, "x") is values
    assert AnonymousGame(2, 2, np.full((2, 2, 2), 0.5).view(_Unreadable)).payoffs.dtype == np.float64
    with pytest.raises(ValueError, match="^x must hold numbers only$"):
        checks.array(np.array([0.5], dtype=object).view(_Unreadable), "x")
    with pytest.raises(ValueError, match="^x must hold numbers only$"):
        checks.array(np.array([True]).view(_Unreadable), "x")


VALID_PROBS = (
    [0, 1],
    [0.25, 0.75],
    [1, 0.0],
    [np.float32(0.375), np.float64(0.625)],
    np.array([0, 1], dtype=np.int64),
    np.array([0.375, 0.625], dtype=np.float32),
    np.array([0.1, 0.9], dtype=np.float64),
    (0.3, 0.7),
)


@pytest.mark.parametrize("probs", VALID_PROBS, ids=repr)
def test_valid_inputs_keep_their_values_bit_for_bit(probs):
    expected = np.asarray(probs, dtype=np.float64)
    converted = checks.array(probs, "x")
    assert converted.dtype == np.float64
    assert converted.tobytes() == expected.tobytes()
    assert IntegerPmf(0, probs).probs.tobytes() == expected.tobytes()
    assert CountDistribution(1, 2, probs).probs.tobytes() == expected.tobytes()
    assert pb_pmf(probs).probs.tobytes() == pb_pmf(expected).probs.tobytes()
    payoffs = [[list(probs)] * 2] * 2
    assert AnonymousGame(2, 2, payoffs).payoffs.tobytes() == np.asarray(payoffs, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "values",
    ([0.1, 1, 2**53 + 1, 10**20], [np.float32(0.1), np.int64(-3)], np.array([0.1, 3e38], dtype=np.float32),
     np.array([2**62 + 1, -5], dtype=np.int64), np.array([7, 200], dtype=np.uint8)),
    ids=repr,
)
def test_any_real_values_convert_as_numpy_casts_them(values):
    assert checks.array(values, "x").tobytes() == np.asarray(values, dtype=np.float64).tobytes()


def test_float64_arrays_are_not_copied():
    probs = np.array([0.5, 0.5])
    assert checks.array(probs, "x") is probs
    assert IntegerPmf(0, probs).probs is probs


def test_integer_signs_keep_their_values():
    for signs in ([1, -1], np.array([1, -1], dtype=np.int8), (np.int64(1), -1)):
        converted = checks.array(signs, "signs", integers=True)
        assert converted.dtype == np.int64 and converted.tolist() == [1, -1]
        assert pb_pmf([0.25, 0.25], 0, signs).probs.tolist() == pb_pmf([0.25, 0.25], 0, [1, -1]).probs.tolist()


def test_normal_approx_error_checks_its_terms_once(monkeypatch):
    expected = normal_approx_error([0.5] * 16)
    calls = []
    check_terms = poisson_binomial._check_terms

    def counted(*args):
        calls.append(args)
        return check_terms(*args)

    monkeypatch.setattr(poisson_binomial, "_check_terms", counted)
    assert normal_approx_error([0.5] * 16) == expected
    assert len(calls) == 1


def test_one_converter_and_no_second_checks():
    games_src, pb_src = (SRC / "games.py").read_text(), (SRC / "poisson_binomial.py").read_text()
    assert "_NUMBER" not in games_src
    for text in (games_src, pb_src):
        assert not re.search(r"np\.asarray\([^)]*dtype=np\.float64", text)
    assert list(inspect.signature(checks.bound).parameters) == ["value", "name"]
    assert "at least one --delta" not in (SRC / "cli.py").read_text()


# Size budgets: each refusal comes from checks.budget before anything is built.


def test_pb_term_budget_boundary(monkeypatch):
    monkeypatch.setattr(poisson_binomial, "MAX_TERMS", 5)
    for call in PB_CALLS:
        call([0.5] * 5)
        with pytest.raises(BudgetExceededError, match="^Poisson Binomial pmf needs 6 terms, over the budget of 5$"):
            call([0.5] * 6)


def test_pb_term_budget_allows_seconds_and_refuses_before_building():
    assert poisson_binomial.MAX_TERMS == 2**15
    probs = np.full(poisson_binomial.MAX_TERMS + 1, 0.5)
    for call in PB_CALLS:
        assert _peak_bytes(lambda: call(probs), BudgetExceededError) < 1 << 16


@pytest.mark.parametrize(
    "call, cells",
    [(lambda: count_vectors(3, 3), 30),
     (lambda: count_distribution([0, 1, 2], 3, 0.5), 30),
     (lambda: perturbed_action_law(0, 3, 0.5), 3),
     (lambda: random_game(3, 2, 0), 18),
     (lambda: party_game(3, ["even", "odd", "even"]), 18)],
    ids=("count_vectors", "count_distribution", "perturbed_action_law", "random_game", "party_game"),
)
def test_cell_budget_boundary(monkeypatch, call, cells):
    monkeypatch.setattr(oracle, "CELL_BUDGET", cells)
    call()
    monkeypatch.setattr(oracle, "CELL_BUDGET", cells - 1)
    with pytest.raises(BudgetExceededError, match=rf" needs {cells} cells, over the budget of {cells - 1}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [(lambda: count_vectors(40, 8), "count vectors needs 503131992 cells"),
     (lambda: count_distribution([0] * 30, 30, 0.5), "count distribution needs "),
     (lambda: perturbed_action_law(0, 10**12, 0.5), "action law needs 1000000000000 cells"),
     (lambda: random_game(100, 100, 0), "random game needs "),
     (lambda: party_game(100_000, iter(())), "party game needs 20000000000 cells")],
    ids=("count_vectors", "count_distribution", "perturbed_action_law", "random_game", "party_game"),
)
def test_oversized_requests_are_refused_before_allocating(call, message):
    assert _peak_bytes(call, BudgetExceededError, f"^{message}") < 1 << 16


def test_the_readme_two_player_game_still_builds():
    # 2 players, 2000 actions: 2 * 2000 * 2000 = 8e6 cells, under the budget
    game = random_game(2, 2000, 0)
    assert game.payoffs.shape == (2, 2000, 2000)


def test_cli_party_over_the_cell_budget_exits_2(capsys):
    code = main(["equilibrium", "--party", "100000", "--delta", "0.1", "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: BudgetExceededError: party game needs 20000000000 cells, over the budget of 10000000\n"


# Refusals that no other test reaches.


def test_cli_auto_epsilon_needs_a_positive_delta(capsys):
    code = main(["equilibrium", "--party", "4", "--delta", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: ValueError: auto epsilon needs delta > 0\n"


@pytest.mark.parametrize("doc", ([], "game", None, [1, 2]), ids=repr)
def test_parse_game_refuses_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="^game document must be a JSON object$"):
        parse_game(doc)


def test_count_vector_rank_needs_two_parts():
    with pytest.raises(ValueError, match=r"^count vector must have >= 2 parts, got \(3,\)$"):
        count_vector_rank((3,))


def test_count_vector_rank_refuses_an_oversized_class_count_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^count vector rank needs over 2\*\*\d+ classes, "):
        count_vector_rank([1] * 10**5)
    assert time.perf_counter() - start < 1.0
    # two parts summing to m have m + 1 classes: the budget admits m = CELL_BUDGET - 1, the last ranked last
    assert count_vector_rank([oracle.CELL_BUDGET - 1, 0]) == oracle.CELL_BUDGET - 1
    with pytest.raises(BudgetExceededError, match=r"^count vector rank needs 10000001 classes, over the budget"):
        count_vector_rank([oracle.CELL_BUDGET, 0])


def test_count_distribution_prob_refuses_a_vector_of_the_wrong_length_or_sum():
    # each player keeps their action with probability 0.75
    dist = count_distribution([0, 1], 2, 0.5)
    assert dist.prob((1, 1)) == pytest.approx(0.75 * 0.75 + 0.25 * 0.25, abs=1e-15)
    for counts in ((1, 1, 0), (2,), (1, 2), (0, 1)):
        with pytest.raises(ValueError, match="^count vector must have 2 parts summing to 2$"):
            dist.prob(counts)


def test_a_need_too_long_to_print_is_still_a_budget_refusal(capsys):
    # str() of an int past 4300 digits raises ValueError, which used to replace the refusal
    with pytest.raises(BudgetExceededError, match=r"^x needs over 2\*\*20000 cells, over the budget of 10$"):
        checks.budget(2**20000 + 5, 10, "x", "cells")
    with pytest.raises(BudgetExceededError, match=rf"^x needs {2**1024 - 1} cells, over the budget of 10$"):
        checks.budget(2**1024 - 1, 10, "x", "cells")
    with pytest.raises(BudgetExceededError, match=r"^count vectors needs over 2\*\*40006 cells"):
        count_vectors(20000, 20001)
    code = main(["lambda", "--n", "20000", "--k", "20000", "--delta", "0.3", "--method", "oracle"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: BudgetExceededError: oracle instance needs over 2**79979 cells, over the budget of 10000000\n"
    )


# Class counts: only lipgames.oracle counts classes, and past 2**15 a lower
# bound stands in for the exact count, so an oversized one is never computed.


def test_one_class_count():
    lines = [line.strip() for path in sorted(SRC.glob("*.py")) for line in path.read_text().splitlines()]
    assert [line for line in lines if "math.comb" in line] == [
        "return math.comb(m + k - 1, j) if j <= 2**15 else 2 ** min(j, 2**20)",
        "rank += math.comb(remaining + parts - 1, parts - 1) - math.comb(",
        # the walk's parity factor below 128 moves, not a class count
        "exact = [math.comb(j, j // 2) / 2**j for j in range(_EXACT_PARITY)]",
    ]
    games_src = (SRC / "games.py").read_text()
    assert "import math" not in games_src and "count_distribution" not in games_src


@pytest.fixture
def exact_counts_only(monkeypatch):
    """``math.comb`` fails past the index 2**15, where the class count is a lower bound instead."""
    comb = math.comb

    def guarded(n, j):
        assert min(j, n - j) <= 2**15, f"comb({n}, {j}) was computed"
        return comb(n, j)

    monkeypatch.setattr(math, "comb", guarded)


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: lipschitz_oracle(10**6, 10**6, 0.3), BudgetExceededError,
      r"oracle instance needs over 2\*\*1999997 cells, over the budget of 10000000"),
     (lambda: count_vectors(10**6, 10**6), BudgetExceededError, r"count vectors needs over 2\*\*1000018 cells, "),
     (lambda: random_game(10**6, 10**6, 0), BudgetExceededError, r"random game needs over 2\*\*1000038 cells, "),
     (lambda: count_distribution([0] * 200_000, 200_000, 0.3), BudgetExceededError,
      r"count distribution needs over 2\*\*200016 cells, "),
     (lambda: AnonymousGame(10**6, 10**6, np.zeros((10**6, 10**6, 0))), BudgetExceededError,
      r"payoff table needs over 2\*\*1000038 cells, "),
     (lambda: parse_game({"n": 10**6, "k": 10**6, "payoffs": []}), ValueError, "payoffs must list 1000000 players$")],
    ids=("lipschitz_oracle", "count_vectors", "random_game", "count_distribution", "AnonymousGame", "parse_game"),
)
def test_an_oversized_class_count_is_refused_without_being_computed(exact_counts_only, call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=f"^{message}"):
        call()
    assert time.perf_counter() - start < 5.0


def test_cli_oversized_oracle_exits_2_without_computing_the_class_count(exact_counts_only, capsys):
    code = main(["lambda", "--n", "1000000", "--k", "1000000", "--delta", "0.3", "--method", "oracle"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: BudgetExceededError: oracle instance needs over 2**1999997 cells, over the budget of 10000000\n"
    )


def test_shape_refusals_print_a_huge_class_count_as_a_power_of_two(exact_counts_only):
    # str() of C(15998, 7999), 4815 digits, raises ValueError, which used to replace the refusal
    for m, shown in ((8000, 15991), (10**6, 999999)):
        with pytest.raises(ValueError, match=rf"^expected over 2\*\*{shown} probabilities for m={m}, k={m}, got "):
            CountDistribution(m, m, [1.0])
    # C(1032, 516) has 1027 bits: past the 1024 printed exactly
    doc = {"n": 517, "k": 517, "payoffs": [[[] for _ in range(517)] for _ in range(517)]}
    with pytest.raises(ValueError, match=r"^payoffs\[0\]\[0\] must list over 2\*\*1026 count-vector ranks$"):
        parse_game(doc)
    with pytest.raises(ValueError, match=r"^payoff table must have shape \(3, 2, 3\), got \(3, 2, 2\)$"):
        AnonymousGame(3, 2, np.zeros((3, 2, 2)))


# Scalars: every scalar check returns the Python number it admits, and every
# entry point computes only with what its checks return.


def test_no_scalar_check_result_is_thrown_away():
    """Only the budget and the range of an array are checked just for their effect."""
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                callee = ast.unparse(node.value.func)
                if (callee.startswith("checks.") and callee not in ("checks.budget", "checks.unit_interval")
                        or callee.rpartition(".")[2].startswith("_check")):
                    bare.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert bare == []


def test_scalar_checks_return_the_python_number_they_admit():
    admitted = checks.instance(np.int64(3), np.uint64(2), np.float32(0.5))
    assert [type(v) for v in admitted] == [int, int, float] and admitted == (3, 2, 0.5)
    for value in (np.float16(0.3), np.float32(0.3), np.float64(0.3), 0.3):
        for admitted in (checks.delta(value), checks.rate(value), checks.bound(value, "eps")):
            assert type(admitted) is float and admitted == float(value)


_GAME = random_game(3, 2, 0)
_DELTA, _DELTA_0 = r"delta must lie in \(0, 1\), got ", r"delta must lie in \[0, 1\), got "
_RATE, _EPS = r"rate must lie in \(0, 1\], got ", "eps must be nonnegative, got "

#: Every public entry point that takes a delta, a rate or an eps, as a call of
#: that one scalar, and the refusal its check opens with.
SCALAR_CALLS = {
    "asymptotic_estimate": (lambda x: asymptotic_estimate(100, 3, x), _DELTA),
    "binomial_collision_prob": (lambda x: binomial_collision_prob(100, x), _DELTA),
    "count_distribution": (lambda x: count_distribution([0, 1, 2], 3, x), _DELTA),
    "find_eps_nash-delta": (lambda x: find_eps_nash(_GAME, x, 0.1), _DELTA_0),
    "find_eps_nash-eps": (lambda x: find_eps_nash(_GAME, 0.1, x), _EPS),
    "lipschitz_constant-walk": (lambda x: lipschitz_constant(1000, 3, x), _DELTA),
    "lipschitz_constant-even": (lambda x: lipschitz_constant(254, 2, x), _DELTA),
    "lipschitz_constant-odd": (lambda x: lipschitz_constant(255, 2, x), _DELTA),
    "lipschitz_constant-midpoint": (lambda x: lipschitz_constant(1001, 2, x), _DELTA),
    "lipschitz_multi_action": (lambda x: lipschitz_multi_action(40, 3, x), _DELTA),
    "lipschitz_oracle": (lambda x: lipschitz_oracle(40, 2, x), _DELTA),
    "lipschitz_oracle-k3": (lambda x: lipschitz_oracle(6, 3, x), _DELTA),
    "lipschitz_two_action": (lambda x: lipschitz_two_action(41, x), _DELTA),
    "lipschitz_two_action_even": (lambda x: lipschitz_two_action_even(40, x), _DELTA),
    "mirrored_action_counts": (lambda x: mirrored_action_counts(6, 3, x, 100, 1), _DELTA),
    "passage_prob": (lambda x: passage_prob(100, x), _RATE),
    "perturbed_action_law": (lambda x: perturbed_action_law(1, 3, x), _DELTA),
    "perturbed_payoff": (lambda x: perturbed_payoff(_GAME, (0, 1, 0), 2, x), _DELTA_0),
    "point_prob": (lambda x: point_prob(20, x, 2), _RATE),
    "regret": (lambda x: regret(_GAME, (0, 1, 0), x), _DELTA_0),
    "regret_in_unperturbed": (lambda x: regret_in_unperturbed(_GAME, (0, 1, 0), x), _DELTA_0),
    "simulate_coupling": (lambda x: simulate_coupling(6, 3, x, 100, 1), _DELTA),
    "simulate_meet_time": (lambda x: simulate_meet_time(6, 3, x, 100, 1), _DELTA),
    "stay_below_prob": (lambda x: stay_below_prob(20, x), _RATE),
    "two_action_odd_bracket": (lambda x: two_action_odd_bracket(41, x), _DELTA),
    "two_block_max_prob": (lambda x: two_block_max_prob(253, x), _DELTA),
    "walk_pmf": (lambda x: walk_pmf(20, x), _RATE),
}


def test_every_entry_point_taking_a_scalar_is_covered():
    takes_one = {name for name in lipgames.__all__
                 if inspect.isfunction(func := getattr(lipgames, name))
                 and {"delta", "r", "eps"} & set(inspect.signature(func).parameters)}
    assert len(takes_one) == 22
    assert {name.split("-")[0] for name in SCALAR_CALLS} == takes_one


def _leaves(result) -> list:
    """The numbers, strings and arrays of ``result``, with its records and tuples opened."""
    if dataclasses.is_dataclass(result):
        result = tuple(getattr(result, field.name) for field in dataclasses.fields(result))
    if isinstance(result, tuple):
        return [leaf for item in result for leaf in _leaves(item)]
    return [result]


def _bits(leaf):
    if isinstance(leaf, np.ndarray):
        return leaf.dtype.str, leaf.shape, leaf.tobytes()
    return leaf.hex() if isinstance(leaf, float) else leaf


@pytest.mark.parametrize("dtype", (np.float16, np.float32, np.float64))
@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_a_numpy_float_is_computed_as_the_float_it_equals(name, dtype):
    call = SCALAR_CALLS[name][0]
    leaves = _leaves(call(dtype(0.3)))
    assert {type(leaf) for leaf in leaves} <= {float, int, str, type(None), np.ndarray}
    assert all(leaf.dtype in (np.float64, np.int64) for leaf in leaves if isinstance(leaf, np.ndarray))
    assert list(map(_bits, leaves)) == list(map(_bits, _leaves(call(float(dtype(0.3))))))


@pytest.mark.parametrize(
    "value", ("0.3", 0.3 + 0j, Fraction(3, 10), Decimal("0.3"), np.array(0.3), np.array([0.3])), ids=repr
)
@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_a_non_number_is_refused_by_its_scalar_check(name, value):
    call, message = SCALAR_CALLS[name]
    with pytest.raises(ValueError, match=f"^{message}{re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("integer", (int, np.int64, np.uint64))
def test_numpy_integer_counts_are_stored_and_charged_as_python_ints(integer):
    game = AnonymousGame(integer(70), integer(2), np.full((70, 2, 70), 0.5))
    dist = CountDistribution(integer(1), integer(2), [0.5, 0.5])
    assert [type(count) for count in (game.n, game.k, dist.m, dist.k)] == [int] * 4
    # 2**70 in int64 wraps to 0, which the profile budget admitted, and the scan ran
    with pytest.raises(BudgetExceededError, match="^equilibrium scan needs 1180591620717411303424 profiles, "):
        find_eps_nash(game, 0.3, 0.1)
    # the cell charge (2**32)**2 wraps to 0 as well, past which an index of 2**32 classes is built
    with pytest.raises(BudgetExceededError, match="^oracle instance needs 18446744073709551616 cells, "):
        lipschitz_oracle(2, integer(2**32), 0.3)


def test_an_int_past_the_float_range_is_a_value_error(capsys):
    for delta in (0.3, 0):
        with pytest.raises(ValueError, match=r"^eps must lie within the float range, got over 2\*\*1328$"):
            find_eps_nash(_GAME, delta, 10**400)
    assert find_eps_nash(_GAME, 0.3, math.inf) == find_eps_nash(_GAME, 0.3, 1.0)
    assert main(["equilibrium", "--party", "4", "--delta", "0.1", "--epsilon", "1e400"]) == 0
    capsys.readouterr()
    # an int of more than 1024 bits is printed as checks.budget prints a need
    with pytest.raises(ValueError, match=r"^eps must be nonnegative, got under -2\*\*1328$"):
        checks.bound(-10**400, "eps")
    for huge, shown in ((10**400, r"over 2\*\*1328"), (-10**400, r"under -2\*\*1328")):
        with pytest.raises(ValueError, match=rf"^delta must lie in \(0, 1\), got {shown}$"):
            checks.delta(huge)
        with pytest.raises(ValueError, match=rf"^rate must lie in \(0, 1\], got {shown}$"):
            checks.rate(huge)


_H = 10**5000  # past the 4300 digits str(int) prints
#: Calls that refuse an int of more than 1024 bits, each with the message that names it.
HUGE_CALLS = {
    "lipschitz_constant-delta": (lambda: lipschitz_constant(10, 3, _H), r"delta must lie in \(0, 1\), got over "),
    "lipschitz_constant-n": (lambda: lipschitz_constant(-_H, 3, 0.3), "player count must be an integer >= 2, got under -"),
    "lipschitz_two_action_even": (lambda: lipschitz_two_action_even(_H + 1, 0.3), "player count must be even, got over "),
    "two_action_odd_bracket": (lambda: two_action_odd_bracket(_H, 0.3), "player count must be odd, got over "),
    "count_vector_rank": (lambda: count_vector_rank((_H,)), r"count vector must have >= 2 parts, got \(over "),
    "CountDistribution": (lambda: CountDistribution(_H, 2, [1.0]), "expected over "),
    "parse_game": (lambda: parse_game({"n": _H, "k": 2, "payoffs": []}), "payoffs must list over "),
    "passage_prob": (lambda: passage_prob(5, _H), r"rate must lie in \(0, 1\], got over "),
    "walk_pmf": (lambda: walk_pmf(-_H, 0.3), "step count must be an integer >= 0, got under -"),
    "simulate_coupling": (lambda: simulate_coupling(5, 3, 0.3, 10, -_H), "seed must be an integer >= 0, got under -"),
    "random_game": (lambda: random_game(3, 2, -_H), "seed must be an integer >= 0, got under -"),
    **{f"{name}{'+-'[sign < 0]}": (lambda call=call, sign=sign: call(sign * _H), f".* got {'over ' if sign > 0 else 'under -'}")
       for name, (call, _) in SCALAR_CALLS.items() for sign in (1, -1)},
}


@pytest.mark.parametrize("name", HUGE_CALLS)
def test_a_huge_int_is_refused_with_the_checks_own_message(name):
    call, message = HUGE_CALLS[name]
    with pytest.raises(ValueError, match=rf"^{message}2\*\*16609\b") as refusal:
        call()
    assert "Exceeds the limit" not in str(refusal.value)


def test_shown_prints_ordinary_values_as_their_repr():
    for value in (0, -3, 2**1024 - 1, -(2**1024 - 1), True, 0.3, "0.3", np.int64(7), np.float32(0.5), None):
        assert checks._shown(value) == repr(value)
    for value in ((), (1,), (2, 3), (1, (2,))):
        assert checks._shown(value) == repr(value)
    assert checks._shown(2**1024) == "over 2**1024"
    assert checks._shown(-(2**1024)) == "under -2**1024"
    assert checks._shown((3, 2**1025 + 1, -(2**1030))) == "(3, over 2**1025, under -2**1030)"
