import argparse
import ast
import collections
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import lipgames.cli
import lipgames.coupling
import lipgames.games
import lipgames.lipschitz
import lipgames.oracle
from lipgames import game_to_dict, random_game
from lipgames.cli import main
from lipgames.errors import BudgetExceededError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    data = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            data[key] = value
    return data


def test_lambda_trivial(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--n", "2", "--k", "3", "--delta", "0.5")
    assert code == 0
    data = parse_kv(out)
    assert data["lambda"] == "0.5"
    assert data["method"] == "walk-closed-form"


def test_lambda_both_shows_difference(capsys):
    code, out, _ = run_cli(
        capsys, "lambda", "--n", "4", "--k", "2", "--delta", "0.5", "--method", "both"
    )
    assert code == 0
    data = parse_kv(out)
    assert data["lambda"] == "0.3125"
    assert float(data["difference"]) <= 1e-9


def test_lambda_odd_bracket(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--n", "3", "--k", "2", "--delta", "0.5")
    assert code == 0
    data = parse_kv(out)
    assert data["lambda"] == "0.375"
    assert data["lower"] == "0.3125"
    assert float(data["upper"]) == pytest.approx(0.3952847075, abs=1e-9)


def test_lambda_json_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "lambda", "--n", "6", "--k", "4", "--delta", "0.3", "--json"
    )
    _, second, _ = run_cli(
        capsys, "lambda", "--n", "6", "--k", "4", "--delta", "0.3", "--json"
    )
    assert first == second
    payload = json.loads(first)
    assert payload["method"] == "walk-closed-form"
    assert payload["n"] == 6


def test_lambda_oracle_method(capsys):
    code, out, _ = run_cli(
        capsys, "lambda", "--n", "5", "--k", "3", "--delta", "0.3", "--method", "oracle"
    )
    assert code == 0
    data = parse_kv(out)
    assert data["method"] == "oracle"
    assert data["worst_class"] == "(0, 0, 3)"


def test_lambda_rejects_bad_delta(capsys):
    code, out, err = run_cli(capsys, "lambda", "--n", "4", "--k", "3", "--delta", "1.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError:")
    assert "\n" not in err.strip()


def test_oracle_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "lambda", "--n", "200", "--k", "4", "--delta", "0.3", "--method", "oracle"
    )
    assert code == 2
    assert err.startswith("error: BudgetExceededError:")


def test_oracle_at_two_players_and_many_actions(capsys):
    # one class and 1200 states; the index is 1200 * 1200 counts, inside the budget
    code, out, err = run_cli(capsys, "lambda", "--n", "2", "--k", "1200", "--delta", "0.3", "--method", "oracle")
    assert (code, err) == (0, "")
    assert parse_kv(out)["lambda"] == "0.7"
    code, out, err = run_cli(capsys, "lambda", "--n", "2", "--k", "3163", "--delta", "0.3", "--method", "oracle")
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceededError: oracle instance needs 10004569 cells, over the budget of 10000000\n"


def test_scan_cell_budget_exit_code(capsys, monkeypatch):
    # the 14-player party has 14 opponent classes: 14 * 28 verdict cells and 14**2 law cells
    monkeypatch.setattr(lipgames.oracle, "CELL_BUDGET", 587)
    code, out, err = run_cli(capsys, "equilibrium", "--party", "14", "--delta", "0.05", "--epsilon", "0.05")
    assert code == 2
    assert out == ""
    assert err == "error: BudgetExceededError: equilibrium scan needs 588 cells, over the budget of 587\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("lambda", "--n", "1000000000", "--k", "3", "--delta", "0.5"),
        ("lambda", "--n", "1000000000", "--k", "2", "--delta", "0.5"),
        ("lambda", "--n", "1000000001", "--k", "2", "--delta", "0.5"),
        ("delta-star", "--n", "1000000000", "--k", "4"),
    ],
)
def test_formula_step_budget_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: BudgetExceededError:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("command", ("coupling", "meet-time"))
@pytest.mark.parametrize("n,samples", [("3", "100000000000000"), ("10000000", "1")])
def test_coupling_replication_budget_exit_code(capsys, command, n, samples):
    code, out, err = run_cli(
        capsys, command, "--n", n, "--k", "3", "--delta", "0.3", "--samples", samples
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: BudgetExceededError:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("command", ("coupling", "meet-time"))
def test_coupling_action_count_cap_exit_code(capsys, command):
    args = ("--n", "3", "--delta", "0.3", "--samples", "100", "--seed", "1")
    code, out, err = run_cli(capsys, command, "--k", str(2**31), *args)
    assert (code, err) == (0, "")
    assert parse_kv(out)["samples"] == "100"
    code, out, err = run_cli(capsys, command, "--k", str(2**31 + 1), *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: BudgetExceededError: the int32 action draw needs")
    assert "\n" not in err.strip()


def test_memory_error_is_one_line_exit_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 80.0 GiB")

    monkeypatch.setattr(lipgames.coupling, "simulate_coupling", exhausted)
    code, out, err = run_cli(capsys, "coupling", "--n", "3", "--k", "3", "--delta", "0.3")
    assert code == 2
    assert out == ""
    assert err == "error: MemoryError: Unable to allocate 80.0 GiB\n"


def test_equilibrium_builds_each_opponent_law_once(tmp_path, capsys, monkeypatch):
    # every opponent law comes from one batched class-law build, none from a
    # per-class _class_law fold
    builds = collections.Counter()
    batch = lipgames.games._class_laws

    def counted(*args):
        builds[args] += 1
        return batch(*args)

    def refused(*args):
        raise AssertionError(f"_class_law{args} called by the scan")

    monkeypatch.setattr(lipgames.games, "_class_laws", counted)
    monkeypatch.setattr(lipgames.games, "_class_law", refused)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(random_game(5, 3, seed=8))))
    code, out, _ = run_cli(capsys, "equilibrium", "--game", str(path), "--delta", "0.2", "--json")
    assert code == 0 and json.loads(out)["found"]
    assert builds == {(4, 3, 0.2): 1}


def test_import_leaves_thread_pools_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, lipgames, lipgames.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_import_leaves_scipy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, lipgames, lipgames.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_sweep_csv_schema_and_single_cell(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--n-start", "4", "--n-stop", "4", "--k", "2", "--delta", "0.5",
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,k,delta,lambda,lower,upper,asymptotic,ratio"
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[1] == "2"
    assert fields[3] == "0.3125"
    assert float(fields[7]) == pytest.approx(0.3125 / float(fields[6]), rel=1e-12)


def test_sweep_row_order_and_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n-start", "2", "--n-stop", "6", "--n-step", "2", "--k", "3",
        "--delta", "0.1", "--delta", "0.3",
    )
    assert code == 0
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
    assert rows == [
        ["2", "3", "0.1"],
        ["2", "3", "0.3"],
        ["4", "3", "0.1"],
        ["4", "3", "0.3"],
        ["6", "3", "0.1"],
        ["6", "3", "0.3"],
    ]


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n-start", "2", "--n-stop", "3", "--k", "3", "--delta", "0.5",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["lambda"] == 0.5


def test_oversized_sweep_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(lipgames.lipschitz, "lipschitz_constant", no_row)
    lipgames.cli._parser()  # built once per process, so not part of the refusal
    out_path = tmp_path / "sweep.csv"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sweep", "--n-start", "2", "--n-stop", "10000000", "--k", "3",
                                 "--delta", "0.5", "--output", str(out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 16
    assert (code, out) == (2, "")
    # each row costs max(n, 4096) walk steps: 4094 rows below the floor, then n up to 10**7
    assert err == ("error: BudgetExceededError: sweep needs 50000013382464 walk steps, "
                   "over the budget of 500000000\n")
    assert not out_path.exists()


def test_sweep_budget_boundary(capsys, monkeypatch):
    # rows 4090..4100 step 5 cost 4096 + 4096 + 4100, and each --delta repeats them
    args = ["sweep", "--n-start", "4090", "--n-stop", "4100", "--n-step", "5", "--k", "3"]
    monkeypatch.setattr(lipgames.lipschitz, "MAX_SWEEP_STEPS", 2 * 12292)
    code, out, err = run_cli(capsys, *args, "--delta", "0.5", "--delta", "0.25")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 7
    monkeypatch.setattr(lipgames.lipschitz, "MAX_SWEEP_STEPS", 2 * 12292 - 1)
    code, out, err = run_cli(capsys, *args, "--delta", "0.5", "--delta", "0.25")
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceededError: sweep needs 24584 walk steps, over the budget of 24583\n"


def test_sweep_charges_split_scan_rows_their_square(capsys, monkeypatch):
    # odd two-action rows up to the exact limit run the O(n^2) split scan:
    # 253**2 + 4096 + 255**2 + 4096, and row 257 takes the bracket at the floor
    args = ["sweep", "--n-start", "253", "--n-stop", "257", "--k", "2", "--delta", "0.5"]
    monkeypatch.setattr(lipgames.lipschitz, "MAX_SWEEP_STEPS", 141322)
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6
    monkeypatch.setattr(lipgames.lipschitz, "MAX_SWEEP_STEPS", 141321)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceededError: sweep needs 141322 walk steps, over the budget of 141321\n"
    # a k = 3 row is an O(n) walk sum, charged the floor like row 257 at k = 2
    monkeypatch.setattr(lipgames.lipschitz, "MAX_SWEEP_STEPS", 4095)
    for n, k in ((255, 3), (257, 2)):
        with pytest.raises(BudgetExceededError, match="^sweep needs 4096 walk steps, "):
            lipgames.lipschitz._charge_sweep(range(n, n + 1), k, 1)


def test_every_split_scan_row_lies_below_the_charge_floor():
    # the sweep charges rows from the floor on in closed form, as n steps each;
    # a split-scan row there would be charged n instead of n**2
    floor = lipgames.lipschitz._MIN_ROW_STEPS
    scanned = [n for k in (2, 3, 4) for n in range(2, 4 * floor) if lipgames.lipschitz._runs_split_scan(n, k)]
    assert scanned and max(scanned) < floor
    assert "TWO_ACTION_EXACT_LIMIT" not in Path(lipgames.cli.__file__).read_text()


def test_only_lipschitz_prices_a_sweep():
    # the limit, the row floor and the route predicate stay in lipschitz; cli's sweep
    # reaches them through one call of the pricing function
    priced = {"MAX_SWEEP_STEPS", "_MIN_ROW_STEPS", "_runs_split_scan", "_charge_sweep"}
    outside = []
    for path in sorted(Path(lipgames.cli.__file__).parent.glob("*.py")):
        if path.name == "lipschitz.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
                if name in priced:
                    outside.append((path.name, owner, ast.unparse(node)))
    assert outside == [("cli.py", "_sweep_rows", "lz._charge_sweep")]


def test_oversized_two_action_sweep_is_refused_at_once(capsys):
    lipgames.cli._parser()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--n-start", "2", "--n-stop", "10000000", "--k", "2",
                             "--delta", "0.5")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    # the k = 3 charge plus n**2 - 4096 for each odd n in 65..255
    assert err == ("error: BudgetExceededError: sweep needs 50000015741728 walk steps, "
                   "over the budget of 500000000\n")


def test_sweep_rejects_empty_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n-start", "5", "--n-stop", "4", "--k", "2", "--delta", "0.5"
    )
    assert code == 1
    assert "empty" in err


def test_coupling_deterministic_output(capsys):
    args = (
        "coupling", "--n", "8", "--k", "3", "--delta", "0.3",
        "--samples", "20000", "--seed", "11",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    data = parse_kv(first)
    assert abs(float(data["z_score"])) <= 4.0


def test_coupling_zero_steps(capsys):
    code, out, _ = run_cli(
        capsys, "coupling", "--n", "0", "--k", "3", "--delta", "0.3",
        "--samples", "100", "--seed", "1",
    )
    assert code == 0
    data = parse_kv(out)
    assert data["estimate"] == "1"
    assert data["exact"] == "1"


def test_meet_time_output(capsys):
    code, out, _ = run_cli(
        capsys, "meet-time", "--n", "4", "--k", "3", "--delta", "0.5",
        "--samples", "5000", "--seed", "3",
    )
    assert code == 0
    assert "step,count" in out
    assert out.strip().splitlines()[-1].startswith("never,")


def test_equilibrium_party_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--party", "4", "--delta", "0.3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["max_regret"] <= payload["epsilon"]
    assert payload["unperturbed_guarantee"] == pytest.approx(
        0.3 + payload["max_regret"], abs=1e-9
    )


def test_equilibrium_game_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(random_game(3, 2, seed=7))))
    code, out, _ = run_cli(
        capsys, "equilibrium", "--game", str(path), "--delta", "0.1",
        "--epsilon", "1.0",
    )
    assert code == 0
    assert parse_kv(out)["found"] == "True"


def test_equilibrium_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "payoffs": [[0.5]]}))
    code, _, err = run_cli(
        capsys, "equilibrium", "--game", str(path), "--delta", "0.1"
    )
    assert code == 1
    assert err.startswith("error: ValueError:")


@pytest.mark.parametrize("leaf", [{}, "0.5", True], ids=["object", "string", "bool"])
def test_equilibrium_non_numeric_payoff_is_one_line_error(tmp_path, capsys, leaf):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "payoffs": [[[leaf, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]]}))
    code, out, err = run_cli(capsys, "equilibrium", "--game", str(path), "--delta", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: payoffs[0][0] must hold numbers")
    assert "\n" not in err.strip()


def test_equilibrium_deeply_nested_file_is_one_line_error(tmp_path, capsys):
    # past the decoder's recursion limit: a ValueError, not a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run_cli(capsys, "equilibrium", "--game", str(path), "--delta", "0.1") == (
        1, "", "error: ValueError: game document is nested too deeply\n"
    )


def test_equilibrium_game_file_over_the_size_limit_exits_2(tmp_path, capsys):
    # a sparse file a byte over 32 bytes per cell of the budget, refused by its size unread
    path = tmp_path / "big.json"
    path.touch()
    os.truncate(path, 32 * lipgames.oracle.CELL_BUDGET + 1)
    assert run_cli(capsys, "equilibrium", "--game", str(path), "--delta", "0.1") == (
        2, "", "error: BudgetExceededError: game file needs 320000001 bytes, over the budget of 320000000\n"
    )


def test_profile_budget_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equilibrium", "--party", "4", "--delta", "0.3", "--profile-budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --profile-budget 5" in capsys.readouterr().err


def test_equilibrium_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--delta", "0.1")
    assert code == 1
    assert "exactly one" in err


def test_equilibrium_absence_is_reported(capsys):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--party", "3", "--delta", "0", "--epsilon", "0.25"
    )
    assert code == 0
    assert parse_kv(out)["found"] == "False"


def test_delta_star_trivial(capsys):
    code, out, _ = run_cli(capsys, "delta-star", "--n", "2", "--k", "3")
    assert code == 0
    data = parse_kv(out)
    assert float(data["delta_star"]) == pytest.approx(0.5, abs=1e-9)
    assert float(data["residual"]) <= 1e-10
    assert float(data["epsilon"]) == pytest.approx(2 * float(data["delta_star"]), rel=1e-12)


def test_delta_star_decreasing_over_players(capsys):
    values = []
    for n in ("10", "100", "1000"):
        _, out, _ = run_cli(capsys, "delta-star", "--n", n, "--k", "2")
        values.append(float(parse_kv(out)["delta_star"]))
    assert values[0] > values[1] > values[2]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "verify: PASS" in out
    data = parse_kv(out)
    assert float(data["max_deviation"]) <= 1e-9


def test_verify_evaluates_the_dispatched_routes(capsys, monkeypatch):
    evaluated = []
    dispatch = lipgames.lipschitz.lipschitz_constant

    def counted(n, k, delta):
        evaluated.append((n, k, delta))
        return dispatch(n, k, delta)

    monkeypatch.setattr(lipgames.lipschitz, "lipschitz_constant", counted)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and parse_kv(out)["cases"] == "125"
    assert len(evaluated) == len(set(evaluated)) == 125


def test_fifteen_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "lambda", "--n", "3", "--k", "2", "--delta", "0.5")
    upper = parse_kv(out)["upper"]
    # sqrt(0.15625) rendered at 15 significant digits
    assert upper == "0.395284707521047"
    assert upper == format(float(upper), ".15g")


def test_nan_epsilon_is_refused(capsys):
    code, out, err = run_cli(
        capsys, "equilibrium", "--party", "4", "--delta", "0.2", "--epsilon", "nan"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError:") and "eps" in err


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"bare {constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv, key",
    [
        (("coupling", "--n", "5", "--k", "3", "--delta", "0.01", "--samples", "1", "--seed", "1",
          "--json"), "z_score"),
        (("equilibrium", "--party", "3", "--delta", "0.5", "--epsilon", "inf", "--json"), "epsilon"),
    ],
)
def test_non_finite_floats_are_strict_json(capsys, argv, key):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _strict_json(out)[key] == "inf"
    _, text, _ = run_cli(capsys, *argv[:-1])
    assert parse_kv(text)[key] == "inf"


def test_json_renders_every_non_finite_float_as_its_text():
    payload = {"a": float("inf"), "b": float("-inf"), "c": float("nan"), "d": [float("nan"), 0.5]}
    doc = _strict_json(lipgames.cli._render(payload, True))
    assert doc == {"a": "inf", "b": "-inf", "c": "nan", "d": ["nan", 0.5]}
    assert lipgames.cli._render(payload, False).splitlines()[:3] == ["a = inf", "b = -inf", "c = nan"]


def _fresh_process(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "lipgames.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_does_not_leak_appended_deltas(capsys):
    first = ("sweep", "--n-start", "4", "--n-stop", "6", "--k", "2", "--delta", "0.3", "--delta", "0.7")
    second = ("sweep", "--n-start", "4", "--n-stop", "6", "--k", "2", "--delta", "0.5")
    in_process = [run_cli(capsys, *first), run_cli(capsys, *second)]
    assert in_process == [_fresh_process(*first), _fresh_process(*second)]
    assert len(in_process[1][1].splitlines()) == 1 + 3


def test_valid_call_after_an_argparse_refusal(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["lambda", "--n", "4", "--k", "2"])
    assert refused.value.code == 2
    assert "--delta" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "lambda", "--n", "4", "--k", "2", "--delta", "0.5")
    assert (code, err) == (0, "")
    assert parse_kv(out)["lambda"] == "0.3125"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build = lipgames.cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(lipgames.cli, "build_parser", counted)
    lipgames.cli._parser.cache_clear()
    for delta in ("0.25", "0.5", "0.75"):
        assert run_cli(capsys, "lambda", "--n", "4", "--k", "2", "--delta", delta)[0] == 0
    assert run_cli(capsys, "delta-star", "--n", "10", "--k", "3")[0] == 0
    assert len(built) == 1


def test_main_runs_a_command_replaced_after_the_parser_is_built(capsys, monkeypatch):
    assert run_cli(capsys, "lambda", "--n", "4", "--k", "2", "--delta", "0.5")[0] == 0
    seen = []

    def replaced(ns):
        seen.append((ns.command, ns.n))
        return 3, "replaced\n"

    monkeypatch.setattr(lipgames.cli, "cmd_lambda", replaced)
    monkeypatch.setattr(lipgames.cli, "cmd_meet_time", replaced)
    assert run_cli(capsys, "lambda", "--n", "4", "--k", "2", "--delta", "0.5") == (3, "replaced\n", "")
    assert run_cli(capsys, "meet-time", "--n", "5", "--k", "3", "--delta", "0.3")[:2] == (3, "replaced\n")
    assert seen == [("lambda", 4), ("meet-time", 5)]


def test_build_parser_returns_a_new_parser_each_call():
    assert lipgames.cli.build_parser() is not lipgames.cli.build_parser()


def test_import_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import lipgames.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def test_tol_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["delta-star", "--n", "1000", "--k", "3", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lambda", "--n", "2013", "--k", "3", "--delta", "0.3123", "--method", "both", "--json"],
    ["sweep", "--n-start", "4", "--n-stop", "6", "--k", "2", "--delta", "0.3", "--delta", "0.7",
     "--format", "json"],
    ["coupling", "--n", "20", "--k", "3", "--delta", "0.3"],
    ["meet-time", "--n", "5", "--k", "3", "--delta", "0.3", "--samples", "9", "--seed", "4", "--json"],
    ["equilibrium", "--game", "game.json", "--delta", "0.1"],
    ["equilibrium", "--party", "14", "--delta", "0.05", "--epsilon", "0.05", "--json"],
    ["delta-star", "--n", "10", "--k", "3"],
    ["verify"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_command_parses_as_the_top_level_parser_parses_it(argv, monkeypatch):
    top, commands = lipgames.cli._parser()
    seen, parsers = [], []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(ns):
        seen.append(ns)
        return 0, ""

    def parse_by(parser, *args):
        parsers.append(parser)
        return parse_args(parser, *args)

    monkeypatch.setattr(lipgames.cli, "cmd_" + argv[0].replace("-", "_"), recorded)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_by)
    assert main(argv) == 0
    assert parsers == [commands[argv[0]]]
    assert vars(seen[0]) == vars(top.parse_args(argv))


@pytest.mark.parametrize("argv, code, stream, start", [
    ([], 2, "err", "usage: lipgames [-h]"),
    (["--help"], 0, "out", "usage: lipgames [-h]"),
    (["nope"], 2, "err", "usage: lipgames [-h]"),
    (["lambda", "--bogus", "1"], 2, "err", "usage: lipgames lambda [-h]"),
], ids=("empty", "help", "unknown-command", "unknown-option"))
def test_argv_without_a_runnable_command_exits_as_argparse_does(capsys, argv, code, stream, start):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert getattr(capsys.readouterr(), stream).startswith(start)


def test_an_unrecognized_argument_is_refused_by_the_command_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["delta-star", "--n", "10", "--k", "3", "--tol", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "lipgames delta-star: error: unrecognized arguments: --tol 1")


def test_main_reads_sys_argv_when_given_no_arguments(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lipgames", "lambda", "--n", "4", "--k", "2", "--delta", "0.5"])
    assert main() == 0
    assert parse_kv(capsys.readouterr().out)["lambda"] == "0.3125"
    monkeypatch.setattr(sys, "argv", ["lipgames"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2


HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv,code,error",
    [
        (("lambda", "--n", HUGE, "--k", "3", "--delta", "0.5"), 2, "BudgetExceededError: binomial pmf needs over 2**1328 trials"),
        (("lambda", "--n", HUGE, "--k", "2", "--delta", "0.5"), 2, "BudgetExceededError: binomial pmf needs over 2**1327 trials"),
        (("lambda", "--n", HUGE + "1", "--k", "2", "--delta", "0.5"), 2, "BudgetExceededError: binomial pmf needs"),
        (("lambda", "--n", HUGE, "--k", "4", "--delta", "5e-324"), 2, "BudgetExceededError: binomial pmf needs"),
        (("delta-star", "--n", HUGE, "--k", "3"), 2, "BudgetExceededError: binomial pmf needs over 2**1328 trials"),
        (("delta-star", "--n", HUGE, "--k", "2"), 2, "BudgetExceededError: binomial pmf needs over 2**1327 trials"),
        (("lambda", "--n", "10", "--k", HUGE, "--delta", "0.5"), 1, "ValueError: action count must be at most"),
        (("sweep", "--n-start", "10", "--n-stop", "12", "--k", HUGE, "--delta", "0.5"), 1,
         "ValueError: action count must be at most"),
        (("delta-star", "--n", "10", "--k", HUGE), 1, "ValueError: action count must be at most"),
        (("sweep", "--n-start", HUGE, "--n-stop", HUGE, "--k", "3", "--delta", "0.5"), 2,
         "BudgetExceededError: sweep needs"),
        (("coupling", "--n", HUGE, "--k", "3", "--delta", "0.5"), 2, "BudgetExceededError: coupling needs"),
    ],
    ids=["lambda-n-k3", "lambda-n-k2", "lambda-odd-n-k2", "lambda-n-subnormal", "delta-star-n-k3",
         "delta-star-n-k2", "lambda-k", "sweep-k", "delta-star-k", "sweep-n", "coupling-n"],
)
def test_counts_past_the_float_range_are_one_line_errors(capsys, argv, code, error):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: " + error)
    assert err.count("\n") == 1


#: Each command with small valid arguments, and the integer options it takes.
INTEGER_OPTIONS = {
    ("lambda", "--n", "5", "--k", "3", "--delta", "0.3"): ("--n", "--k"),
    ("sweep", "--n-start", "2", "--n-stop", "5", "--n-step", "1", "--k", "3", "--delta", "0.3"):
        ("--n-start", "--n-stop", "--n-step", "--k"),
    ("coupling", "--n", "5", "--k", "3", "--delta", "0.3", "--samples", "100", "--seed", "1"):
        ("--n", "--k", "--samples", "--seed"),
    ("meet-time", "--n", "5", "--k", "3", "--delta", "0.3", "--samples", "100", "--seed", "1"):
        ("--n", "--k", "--samples", "--seed"),
    ("equilibrium", "--party", "4", "--delta", "0.1"): ("--party",),
    ("delta-star", "--n", "10", "--k", "3"): ("--n", "--k"),
}


@pytest.mark.parametrize("sign", ("", "-"))
@pytest.mark.parametrize("digits", (20, 4000))  # argparse reads an int of up to 4300 digits
@pytest.mark.parametrize(
    "base,option", [(base, option) for base, options in INTEGER_OPTIONS.items() for option in options],
    ids=lambda value: value[0] if isinstance(value, tuple) else value,
)
def test_no_integer_option_yields_a_traceback(capsys, base, option, digits, sign):
    argv = list(base)
    argv[argv.index(option) + 1] = sign + str(10**digits)
    lipgames.cli._parser()  # built once per process, so not part of the request
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1, 2)
    assert err == "" or err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_integer_options_list_every_int_option_of_every_command():
    _, commands = lipgames.cli._parser()
    declared = {(name, option) for name, parser in commands.items() for action in parser._actions
                if action.type is int for option in action.option_strings}
    assert declared == {(base[0], option) for base, options in INTEGER_OPTIONS.items() for option in options}


def test_huge_player_count_meets_the_same_budget_as_a_billion(capsys):
    for k, delta in (("3", "0.5"), ("2", "0.5"), ("4", "5e-324")):
        for argv in (("lambda", "--k", k, "--delta", delta), ("delta-star", "--k", k)):
            codes = {run_cli(capsys, *argv, "--n", n)[0] for n in ("1000000000", HUGE)}
            assert codes == {2}, argv


def test_subnormal_delta_is_evaluated(capsys):
    code, out, err = run_cli(capsys, "lambda", "--n", "10", "--k", "4", "--delta", "5e-324")
    assert (code, err) == (0, "")
    assert parse_kv(out)["lambda"] == "1"


def test_coupling_with_a_subnormal_delta_reports_exact_one(capsys):
    # the rate 2 * delta / k underflows to 0.0, a walk that never moves
    argv = ("coupling", "--n", "10", "--k", "4", "--delta", "5e-324", "--samples", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert parse_kv(out)["exact"] == "1"


def test_coupling_computes_its_exact_value_before_the_simulation(capsys, monkeypatch):
    calls = []
    passage, simulate = lipgames.cli.lz._passage, lipgames.cli.cp.simulate_coupling
    monkeypatch.setattr(lipgames.cli.lz, "_passage", lambda *a: calls.append("exact") or passage(*a))
    monkeypatch.setattr(lipgames.cli.cp, "simulate_coupling", lambda *a: calls.append("simulate") or simulate(*a))
    code, _, err = run_cli(capsys, "coupling", "--n", "10", "--k", "3", "--delta", "0.3", "--samples", "100")
    assert (code, err, calls) == (0, "", ["exact", "simulate"])
