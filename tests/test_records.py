"""One record idiom: a result record is a NamedTuple, and a dataclass is kept
only where its ``__post_init__`` checks or converts a field.  A dataclass that
holds an array compares and hashes by identity, as the array does."""

import ast
from pathlib import Path

import numpy as np
import pytest

from lipgames import LambdaResult, coupling, games, integer_pmf, oracle, poisson_binomial, random_walk

SRC = Path(__file__).resolve().parent.parent / "src" / "lipgames"


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_checks_its_fields():
    checked = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        if path.stem in ("coupling", "poisson_binomial"):
            assert "dataclasses" not in modules, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                assert "__post_init__" in methods, f"{path.name}: {node.name} checks nothing"
                checked.add(node.name)
    assert checked  # the walk saw the package's dataclasses


RECORDS = [
    (
        poisson_binomial.TwoBlockMax(0.5, 1, 0),
        "TwoBlockMax(value=0.5, split=1, point=0)",
        ("value", "split", "point"),
    ),
    (
        games.RegretReport(0.25, ((1, 0.25), (0, 0.0)), 0.5),
        "RegretReport(max_regret=0.25, per_player=((1, 0.25), (0, 0.0)), unperturbed_regret=0.5)",
        ("max_regret", "per_player", "unperturbed_regret"),
    ),
    (
        coupling.CouplingEstimate(0.125, 0.01, 2000, 9),
        "CouplingEstimate(estimate=0.125, std_error=0.01, samples=2000, seed=9)",
        ("estimate", "std_error", "samples", "seed"),
    ),
    (
        coupling.MeetTimeResult(np.array([0, 3, 1]), np.array([2, 5, 1]), 4, 1),
        "MeetTimeResult(counts=array([0, 3, 1]), transitions=array([2, 5, 1]), samples=4, seed=1)",
        ("counts", "transitions", "samples", "seed"),
    ),
]


@pytest.mark.parametrize("record,shown,fields", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_result_records_are_named_tuples(record, shown, fields):
    assert repr(record) == shown
    assert type(record)._fields == fields
    assert all(value is getattr(record, name) for value, name in zip(record, fields, strict=True))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 0)


def test_a_record_equals_the_tuple_of_its_fields():
    assert poisson_binomial.TwoBlockMax(0.5, 1, 0) == (0.5, 1, 0)
    assert games.RegretReport(0.0, (), 0.0) == (0.0, (), 0.0)


def _decorator_keywords(node) -> dict:
    """The keyword arguments of a class's ``@dataclass(...)`` decorator."""
    (decorator,) = (d for d in node.decorator_list if _is_dataclass(d))
    return {kw.arg: ast.literal_eval(kw.value) for kw in getattr(decorator, "keywords", ())}


def test_dataclasses_holding_arrays_compare_by_identity():
    seen = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                holds_array = any(isinstance(item, ast.AnnAssign) and ast.unparse(item.annotation) == "np.ndarray"
                                  for item in node.body)
                seen[node.name] = (holds_array, _decorator_keywords(node).get("eq", True))
    assert seen == {
        "IntegerPmf": (True, False),
        "CountDistribution": (True, False),
        "AnonymousGame": (True, False),
        "LambdaResult": (False, True),
    }


ARRAY_RECORDS = {
    "IntegerPmf": lambda: integer_pmf.IntegerPmf(0, [0.5, 0.5]),
    "one-point IntegerPmf": lambda: random_walk.walk_pmf(0, 0.5),
    "CountDistribution": lambda: oracle.count_distribution([0, 1], 2, 0.3),
    "AnonymousGame": lambda: games.random_game(2, 2, 0),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) == object.__hash__(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    assert {a: 1, b: 2}[a] == 1
    assert a in [b, a] and a not in [b] and a in {a}


def test_lambda_result_compares_by_value():
    assert LambdaResult(0.5, 0.5, 0.5, "walk-closed-form") == LambdaResult(0.5, 0.5, 0.5, "walk-closed-form")
    assert len({LambdaResult(0.5, 0.5, 0.5, "walk-closed-form"), LambdaResult(0.5, 0.5, 0.5, "walk-closed-form")}) == 1
