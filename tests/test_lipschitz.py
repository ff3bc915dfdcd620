import inspect
import math
import sys

import pytest

import lipgames.lipschitz as lipschitz_module
from lipgames import checks, integer_pmf, poisson_binomial
from lipgames import (
    BudgetExceededError,
    IntegrityError,
    LambdaResult,
    asymptotic_estimate,
    delta_fixed_point,
    lipschitz_constant,
    lipschitz_multi_action,
    lipschitz_oracle,
    lipschitz_two_action,
    lipschitz_two_action_even,
    two_action_odd_bracket,
)
from lipgames.cli import main
from lipgames.lipschitz import (
    METHOD_EVEN_WALK,
    METHOD_ODD_BRACKET,
    METHOD_TWO_BLOCK,
    METHOD_WALK,
    TWO_ACTION_EXACT_LIMIT,
)

import brute

DELTAS = (0.1, 0.25, 0.5, 0.75, 0.9)
#: Fixed-point grid: every small n, the benchmark's delta-star requests and
#: both sides of the exact two-action limit.
FIXED_POINT_NS = tuple(range(2, 61)) + (101, 255, 257, 301, 316, 609, 615, 1000, 2001, 4000)
FIXED_POINT_KS = (2, 3, 4, 8)


def test_multi_action_examples():
    assert lipschitz_multi_action(2, 5, 0.3).value == pytest.approx(0.7, abs=1e-15)
    assert lipschitz_multi_action(3, 3, 0.5).value == pytest.approx(0.5 * 5 / 6, abs=1e-15)
    res = lipschitz_multi_action(5, 3, 0.3)
    assert res.value == pytest.approx(lipschitz_oracle(5, 3, 0.3).value, abs=1e-9)
    assert res.method == METHOD_WALK
    assert res.lower == res.value == res.upper


def test_two_action_examples():
    assert lipschitz_two_action(2, 0.5).value == pytest.approx(0.5, abs=1e-15)
    assert lipschitz_two_action(4, 0.5).value == pytest.approx(0.3125, abs=1e-15)
    assert lipschitz_two_action(3, 0.5).value == pytest.approx(0.375, abs=1e-15)
    assert lipschitz_two_action(4, 0.5).method == METHOD_TWO_BLOCK


def test_two_action_even_examples():
    assert lipschitz_two_action_even(2, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert lipschitz_two_action_even(4, 0.5) == pytest.approx(0.3125, abs=1e-15)
    assert lipschitz_two_action_even(6, 0.5) == pytest.approx(0.23046875, abs=1e-15)
    with pytest.raises(ValueError, match="even"):
        lipschitz_two_action_even(5, 0.5)


def test_odd_bracket_examples():
    lower, upper = two_action_odd_bracket(3, 0.5)
    assert lower == pytest.approx(0.3125, abs=1e-15)
    assert upper == pytest.approx(math.sqrt(0.5 * 0.3125), abs=1e-15)
    assert lower <= lipschitz_two_action(3, 0.5).value <= upper + 1e-12
    lower5, upper5 = two_action_odd_bracket(5, 0.5)
    assert lower5 == pytest.approx(lipschitz_two_action_even(6, 0.5), abs=1e-15)
    assert upper5 == pytest.approx(
        math.sqrt(lipschitz_two_action_even(4, 0.5) * lipschitz_two_action_even(6, 0.5)),
        abs=1e-15,
    )
    with pytest.raises(ValueError, match="odd"):
        two_action_odd_bracket(4, 0.5)


@pytest.mark.parametrize("delta", DELTAS)
def test_even_routes_agree(delta):
    for n in range(2, 101, 2):
        assert abs(
            lipschitz_two_action(n, delta).value - lipschitz_two_action_even(n, delta)
        ) <= 1e-12


@pytest.mark.parametrize("delta", DELTAS)
def test_odd_bracket_contains_exact_value(delta):
    for n in range(3, 100, 2):
        lower, upper = two_action_odd_bracket(n, delta)
        assert lower <= upper
        value = lipschitz_two_action(n, delta).value
        assert lower <= value <= upper + 1e-12


def test_dispatch_examples():
    assert lipschitz_constant(2, 3, 0.5).value == pytest.approx(0.5, abs=1e-15)
    assert lipschitz_constant(4, 2, 0.5).value == pytest.approx(0.3125, abs=1e-15)
    assert lipschitz_constant(5, 3, 0.3).value == pytest.approx(
        lipschitz_oracle(5, 3, 0.3).value, abs=1e-9
    )


class _ScanReached(Exception):
    pass


def _refuse_scan(m, delta):
    raise _ScanReached(m)


def test_dispatch_methods_and_brackets(monkeypatch, capsys):
    assert lipschitz_constant(10, 4, 0.3).method == METHOD_WALK
    small_even = lipschitz_constant(10, 2, 0.3)
    assert small_even.method == METHOD_EVEN_WALK
    odd = lipschitz_constant(9, 2, 0.3)
    assert odd.method == METHOD_ODD_BRACKET
    assert odd.lower <= odd.value <= odd.upper
    assert odd.value == pytest.approx(lipschitz_two_action(9, 0.3).value, abs=1e-15)
    big_even = lipschitz_constant(TWO_ACTION_EXACT_LIMIT + 2, 2, 0.3)
    assert big_even.method == METHOD_EVEN_WALK
    assert big_even.value == pytest.approx(
        lipschitz_two_action_even(TWO_ACTION_EXACT_LIMIT + 2, 0.3), abs=1e-15
    )
    big_odd = lipschitz_constant(TWO_ACTION_EXACT_LIMIT + 3, 2, 0.3)
    assert big_odd.method == METHOD_ODD_BRACKET
    assert big_odd.lower <= big_odd.value <= big_odd.upper

    # Even n has one route, the collision sum; the split scan is reached only at odd n.
    monkeypatch.setattr(poisson_binomial, "two_block_max_prob", _refuse_scan)
    for n in range(2, 301, 2):
        for delta in (0.1, 0.37, 0.61, 0.9):
            res = lipschitz_constant(n, 2, delta)
            assert res.method == METHOD_EVEN_WALK
            assert res.value == lipschitz_two_action_even(n, delta)
    assert delta_fixed_point(250, 2).value > 0.0
    assert main(["sweep", "--n-start", "2", "--n-stop", "300", "--n-step", "2", "--k", "2",
                 "--delta", "0.37", "--delta", "0.9"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 150 * 2
    for n in range(3, TWO_ACTION_EXACT_LIMIT + 1, 2):
        with pytest.raises(_ScanReached):
            lipschitz_constant(n, 2, 0.37)


def test_value_range():
    for n in (2, 3, 7, 20):
        for k in (2, 3, 5):
            for delta in DELTAS:
                res = lipschitz_constant(n, k, delta)
                assert 0.0 < res.value <= 1.0 - delta + 1e-15


def test_asymptotic_formulas():
    assert asymptotic_estimate(1000, 3, 0.3) == pytest.approx(
        0.7 * math.sqrt(3 / (300 * math.pi)), abs=1e-15
    )
    assert asymptotic_estimate(1000, 2, 0.3) == pytest.approx(
        0.7 / math.sqrt(300 * math.pi * 0.85), abs=1e-15
    )


def test_asymptotic_attached_by_dispatch():
    res = lipschitz_constant(50, 3, 0.2)
    assert res.asymptotic == pytest.approx(asymptotic_estimate(50, 3, 0.2), abs=1e-15)


def test_fixed_point_trivial():
    point = delta_fixed_point(2, 3)
    assert point.delta == pytest.approx(0.5, abs=1e-9)
    assert point.value == pytest.approx(point.delta, abs=1e-10)


def test_fixed_point_residual_and_scale():
    point = delta_fixed_point(100, 3)
    assert abs(lipschitz_constant(100, 3, point.delta).value - point.delta) <= 1e-10
    scale = 3 * 100 ** (-1 / 3)
    assert 0.05 * scale < point.delta < 5 * scale


def test_fixed_point_decreasing_in_players():
    small = delta_fixed_point(100, 2).delta
    large = delta_fixed_point(1000, 2).delta
    assert large < small


@pytest.mark.parametrize(
    "k, ns",
    [(2, (2, 4, 10, 64, 256, 300, 2000, 4040)), (3, (2, 3, 9, 50, 257, 1001, 4000)),
     (4, (5, 40, 609)), (5, (7, 300, 2500)), (8, (3, 1000))],
)
def test_lambda_strictly_decreases_in_delta_where_the_root_is_unique(k, ns):
    # delta_fixed_point's docstring claims a unique root for k >= 3 and for
    # k = 2 at even n; a strictly decreasing lambda makes lambda - delta so
    deltas = [i / 400 for i in range(1, 400)] + [1e-6, 1e-3, 0.999, 0.999999]
    for n in ns:
        assert k >= 3 or n % 2 == 0
        values = [lipschitz_constant(n, k, d).value for d in sorted(deltas)]
        assert all(a > b for a, b in zip(values, values[1:])), (n, k)


def test_bisection_stops_once_the_bracket_cannot_shrink(monkeypatch):
    # no double is within 1e-300 of the root, so the bisection must stop
    # when its midpoint stops moving (about 60 evaluations) and not re-evaluate it
    evaluations = []
    dispatch = lipschitz_module._dispatch

    def counted(*args):
        evaluations.append(args)
        return dispatch(*args)

    monkeypatch.setattr(lipschitz_module, "_dispatch", counted)
    monkeypatch.setattr(lipschitz_module, "FIXED_POINT_TOL", 1e-300)
    with pytest.raises(IntegrityError, match="stalled"):
        delta_fixed_point(309, 2)
    assert len(evaluations) <= 100
    assert len(set(evaluations)) == len(evaluations)


def test_fixed_point_tolerance_is_a_module_constant(monkeypatch):
    assert list(inspect.signature(delta_fixed_point).parameters) == ["n", "k"]
    assert lipschitz_module.FIXED_POINT_TOL == 1e-10
    monkeypatch.setattr(lipschitz_module, "FIXED_POINT_TOL", 1e-3)
    point = delta_fixed_point(1000, 3)
    assert 1e-10 < abs(point.value - point.delta) <= 1e-3


def _counted_dispatch(monkeypatch, value=None):
    """Record every ``_dispatch`` call; return ``value(delta)`` instead if given."""
    evaluations = []
    dispatch = lipschitz_module._dispatch

    def counted(*args):
        evaluations.append(args)
        if value is None:
            return dispatch(*args)
        v = value(args[2])
        return LambdaResult(v, v, v, METHOD_WALK)

    monkeypatch.setattr(lipschitz_module, "_dispatch", counted)
    return evaluations


@pytest.mark.parametrize("k", FIXED_POINT_KS)
def test_fixed_point_agrees_with_the_bisection_in_few_evaluations(monkeypatch, k):
    # the gap's slope is below -1, so two points within tol of it lie within 2 * tol
    tol = lipschitz_module.FIXED_POINT_TOL
    evaluations = _counted_dispatch(monkeypatch)
    for n in FIXED_POINT_NS:
        evaluations.clear()
        point = delta_fixed_point(n, k)
        assert len(evaluations) <= 16, (n, k)
        assert abs(point.value - point.delta) <= tol, (n, k)
        assert abs(point.delta - brute.bisect_fixed_point(n, k, tol)[0]) <= 2 * tol, (n, k)


@pytest.mark.parametrize("n, k", [(615, 3), (609, 4), (316, 2), (301, 2)])
def test_fixed_point_starts_next_to_the_root(monkeypatch, n, k):
    evaluations = _counted_dispatch(monkeypatch)
    delta_fixed_point(n, k)
    assert len(evaluations) <= 8


@pytest.mark.parametrize(
    "value, root",
    [(lambda d: 1e-3 / math.sqrt(d), 0.01), (lambda d: math.exp(-200.0 * d), 0.0196487163)],
    ids=["sqrt", "exp"],
)
def test_fixed_point_converges_on_a_curved_gap(monkeypatch, value, root):
    # plain regula falsi keeps one end for thousands of steps on these gaps;
    # halving the kept end's gap (the Illinois step) reaches tol in about 30
    evaluations = _counted_dispatch(monkeypatch, value)
    point = delta_fixed_point(1000, 3)
    assert abs(point.value - point.delta) <= 1e-10
    assert point.delta == pytest.approx(root, abs=1e-9)
    assert len(evaluations) <= 40


def test_fixed_point_returns_from_the_outward_steps(monkeypatch):
    # lambda is the constant start + 1e-3 * start, so the first outward step lands on the root
    evaluations = _counted_dispatch(monkeypatch, lambda d: (s := evaluations[0][2]) + 1e-3 * s)
    point = delta_fixed_point(1000, 3)
    start = evaluations[0][2]
    assert len(evaluations) == 2
    assert point == (start + 1e-3 * start, start + 1e-3 * start)


def test_fixed_point_takes_the_midpoint_when_the_interpolant_leaves_the_bracket(monkeypatch):
    # The gap is root - d below the root and -2**1000 above it.  Against a
    # power-of-two gap the secant point rounds onto the bracket's low end, so
    # every bracket step is the midpoint, and bisection reaches the residual.
    def value(d):
        root = 1.0005 * evaluations[0][2]
        return root if d < root else d - 2.0**1000

    evaluations = _counted_dispatch(monkeypatch, value)
    point = delta_fixed_point(1000, 3)
    deltas = [args[2] for args in evaluations]
    start, root = deltas[0], 1.0005 * deltas[0]
    a, b = start, start + 1e-3 * start
    assert deltas[1] == b
    for c in deltas[2:]:
        assert c == 0.5 * (a + b)
        a, b = (c, b) if c < root else (a, c)
    assert point == (deltas[-1], root)
    assert 0.0 <= root - point.delta <= lipschitz_module.FIXED_POINT_TOL
    assert len(evaluations) <= 60


@pytest.mark.parametrize("value", [2.0, 0.0])
@pytest.mark.parametrize("n, k", [(2, 2), (1000, 3)])
def test_fixed_point_refuses_a_gap_of_one_sign(monkeypatch, value, n, k):
    evaluations = _counted_dispatch(monkeypatch, lambda d: value)
    with pytest.raises(IntegrityError, match="does not change sign"):
        delta_fixed_point(n, k)
    assert len(evaluations) <= 60
    assert len(set(evaluations)) == len(evaluations)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lipschitz_multi_action(1, 3, 0.5)
    with pytest.raises(ValueError):
        lipschitz_multi_action(5, 2, 0.5)
    with pytest.raises(ValueError):
        lipschitz_constant(5, 1, 0.5)
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError):
            lipschitz_constant(5, 3, delta)
        with pytest.raises(ValueError):
            asymptotic_estimate(5, 3, delta)


def test_result_validation():
    with pytest.raises(ValueError, match="bracket"):
        LambdaResult(0.5, 0.6, 0.4, METHOD_WALK)
    with pytest.raises(ValueError, match="outside"):
        LambdaResult(0.9, 0.1, 0.2, METHOD_ODD_BRACKET)
    with pytest.raises(ValueError, match="degenerate"):
        LambdaResult(0.15, 0.1, 0.2, METHOD_WALK)


@pytest.mark.parametrize("n, k", [(1, 3), (True, 3), (2.0, 3), (10, 1), (10, True), (10, 3.0)])
def test_fixed_point_refuses_bad_counts_before_evaluating(monkeypatch, n, k):
    with pytest.raises(ValueError) as expected:
        lipschitz_constant(n, k, 0.5)

    def no_evaluation(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(lipschitz_module, "_dispatch", no_evaluation)
    with pytest.raises(ValueError) as refused:
        delta_fixed_point(n, k)
    assert str(refused.value) == str(expected.value)


def _checks_called_from_lipschitz(monkeypatch):
    """Patch every ``checks`` function; returns the names called from lipschitz.py, in order."""
    names = []
    for name, fn in list(vars(checks).items()):
        if inspect.isfunction(fn):

            def recorded(*args, _name=name, _fn=fn, **kwargs):
                if sys._getframe(1).f_code.co_filename == lipschitz_module.__file__:
                    names.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(checks, name, recorded)
    return names


@pytest.mark.parametrize("n, k", [(2001, 2), (255, 2), (2000, 2), (200, 2), (2000, 3)])
def test_one_instance_check_per_evaluation(monkeypatch, n, k):
    names = _checks_called_from_lipschitz(monkeypatch)
    lipschitz_constant(n, k, 0.3)
    assert names == ["instance"]


def test_bisection_checks_its_arguments_once(monkeypatch):
    names = _checks_called_from_lipschitz(monkeypatch)
    delta_fixed_point(309, 2)
    assert names == ["count", "count"]


@pytest.mark.parametrize(
    "call",
    [
        lambda n, delta: asymptotic_estimate(n, 3, delta),
        lambda n, delta: lipschitz_multi_action(n, 3, delta),
        lipschitz_two_action,
        lipschitz_two_action_even,
        two_action_odd_bracket,
        lambda n, delta: lipschitz_constant(n, 2, delta),
    ],
)
def test_public_routes_keep_their_checks(call):
    for n, delta, match in ((True, 0.5, "player count"), (2.5, 0.5, "player count"),
                            (0, 0.5, "player count"), (4, 0.0, "delta"), (3, float("nan"), "delta")):
        with pytest.raises(ValueError, match=match):
            call(n, delta)


HUGE = 10**400
ENTRY_POINTS = {
    "lipschitz_constant": lambda n, k: lipschitz_constant(n, k, 0.5),
    "lipschitz_multi_action": lambda n, k: lipschitz_multi_action(n, max(k, 3), 0.5),
    "asymptotic_estimate": lambda n, k: asymptotic_estimate(n, k, 0.5),
    "delta_fixed_point": delta_fixed_point,
}


#: 2**1024 - 2**970 has 1024 bits yet rounds past the largest float.
PAST_FLOATS = [(HUGE, 2), (HUGE + 1, 2), (HUGE, 3), (10, HUGE), (HUGE, HUGE), (10, 2**1024 - 2**970)]


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("n,k", PAST_FLOATS, ids=[f"{n.bit_length()}-{k.bit_length()}-bits" for n, k in PAST_FLOATS])
def test_counts_past_the_float_range_raise_no_overflow(call, n, k):
    # An OverflowError is no ValueError, so this also asserts that none escapes.
    with pytest.raises(ValueError, match="count must be at most|binomial pmf needs"):
        call(n, k)


def test_action_count_at_the_float_limit_is_evaluated():
    top = int(sys.float_info.max)
    assert lipschitz_constant(10, top, 0.5).value == 0.5
    assert asymptotic_estimate(10, top, 0.5) > 0.0
    with pytest.raises(ValueError, match="action count must be at most"):
        lipschitz_constant(10, top + 1, 0.5)


@pytest.mark.parametrize("k", (3, 4, 7, 10**6))
def test_subnormal_delta_gives_one(k):
    assert lipschitz_constant(10, k, 5e-324).value == 1.0
    assert lipschitz_multi_action(10, k, 5e-324).value == 1.0



def _refusal(call):
    """The message of the budget refusal ``call()`` raises, or None."""
    try:
        call()
    except BudgetExceededError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("k", (2, 3))
def test_early_charge_is_the_routes_own(monkeypatch, k):
    # Under a budget of 100 trials, the checked call refuses exactly the player
    # counts its unchecked route refuses, with the same message.
    monkeypatch.setattr(integer_pmf, "MAX_TRIALS", 100)
    refused = []
    for n in range(90, 215):
        route = _refusal(lambda: lipschitz_module._dispatch(n, k, 0.3))
        assert _refusal(lambda: lipschitz_constant(n, k, 0.3)) == route
        refused.append(route is not None)
    first = 103 if k >= 3 else 203
    assert refused == [n >= first for n in range(90, 215)]
