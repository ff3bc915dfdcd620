import ast
from pathlib import Path

import numpy as np
import pytest

import lipgames
from lipgames import CountDistribution, IntegerPmf


def test_prob_inside_and_outside_support():
    pmf = IntegerPmf(-1, [0.25, 0.5, 0.25])
    assert pmf.prob(-1) == 0.25
    assert pmf.prob(0) == 0.5
    assert pmf.prob(1) == 0.25
    assert pmf.prob(2) == 0.0
    assert pmf.prob(-5) == 0.0
    assert pmf.support_min == -1
    assert pmf.support_max == 1


@pytest.mark.parametrize("t", (True, 1.0, 1.5, np.float64(0.0), None), ids=repr)
def test_prob_refuses_a_non_integer_value(t):
    pmf = IntegerPmf(-1, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError, match="value must be an integer"):
        pmf.prob(t)
    assert pmf.prob(np.int64(1)) == pmf.prob(-1) == 0.25


def test_rejects_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        IntegerPmf(0, [1.1, -0.1])


def test_rejects_bad_total():
    with pytest.raises(ValueError, match="sum"):
        IntegerPmf(0, [0.5, 0.4])


def test_rejects_empty_and_multidim():
    with pytest.raises(ValueError):
        IntegerPmf(0, [])
    with pytest.raises(ValueError):
        IntegerPmf(0, np.ones((2, 2)) / 4.0)


def test_rejects_nan_entry():
    with pytest.raises(ValueError, match="nonnegative"):
        IntegerPmf(0, [np.nan])


@pytest.mark.parametrize(
    "build",
    (lambda probs: IntegerPmf(0, probs), lambda probs: CountDistribution(1, 2, probs)),
    ids=("IntegerPmf", "CountDistribution"),
)
def test_one_sum_guard_tolerance(build):
    # both classes share SUM_GUARD_TOL = 1e-11
    assert np.array_equal(build(np.array([0.5, 0.5 + 2e-12])).probs, [0.5, 0.5 + 2e-12])
    with pytest.raises(ValueError, match="sum"):
        build(np.array([0.5, 0.5 + 2e-11]))


def test_one_function_sizes_every_window():
    # window_span alone computes a window's width (its 12 sigma), and the pmf and both
    # sweep and single-call charges read it
    callers, widths = set(), set()
    for path in sorted(Path(lipgames.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("window_span"):
                    callers.add((path.stem, fn.name))
                if isinstance(node, ast.Constant) and node.value == 12.0 and isinstance(node.value, float):
                    widths.add((path.stem, fn.name))
    assert widths == {("integer_pmf", "window_span")}
    assert callers == {("integer_pmf", "binomial_window"), ("integer_pmf", "_mode_products"),
                       ("lipschitz", "_charge")}
    sweep = next(fn for fn in ast.walk(ast.parse(Path(lipgames.lipschitz.__file__).read_text()))
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_charge_sweep")
    assert "_charge" in {ast.unparse(node.func) for node in ast.walk(sweep) if isinstance(node, ast.Call)}
