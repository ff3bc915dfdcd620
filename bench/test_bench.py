"""Self-tests of the benchmark: its checker, its trace counters and its refusals.

    python3 -m pytest -q bench/test_bench.py

Real outputs come from the CLI run in process on ``src/``; each test then
shows that a tampered copy is caught.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert worker.lipgames.cli.main(list(argv)) == 0
    return out.getvalue()


def _tamper(text: str, scale: float) -> str:
    obj = json.loads(text)
    for key in ("lambda", "lower", "upper"):
        obj[key] *= scale
    return json.dumps(obj)


@pytest.mark.parametrize("n,k", [(1500, 3), (300, 2), (255, 2), (301, 2), (60, 2)])
def test_checker_flags_perturbed_lambda(n, k):
    argv = ["lambda", "--n", str(n), "--k", str(k), "--delta", "0.3", "--json"]
    out = cli(*argv)
    refs = check.Refs()
    assert check.check_lambda(refs, argv, out) == []
    # Odd n beyond the exact limit only promises the even-neighbour bracket,
    # whose width is about 1/n of the value.
    scale = 1 + (1e-2 if n > check.TWO_ACTION_EXACT_LIMIT and n % 2 else 1e-7)
    assert check.check_lambda(refs, argv, _tamper(out, scale))


@pytest.mark.parametrize("n,k", [(300, 3), (301, 2)])
def test_checker_flags_perturbed_delta_star(n, k):
    argv = ["delta-star", "--n", str(n), "--k", str(k), "--json"]
    out = json.loads(cli(*argv))
    assert check.check_delta_star(check.Refs(), argv, json.dumps(out)) == []
    out["lambda_star"] *= 1.01
    assert check.check_delta_star(check.Refs(), argv, json.dumps(out))


def test_checker_flags_oracle_disagreement():
    argv = ["lambda", "--n", "12", "--k", "3", "--delta", "0.4", "--method", "both", "--json"]
    out = json.loads(cli(*argv))
    assert check.check_lambda(check.Refs(), argv, json.dumps(out)) == []
    out["oracle"] += 1e-6
    assert check.check_lambda(check.Refs(), argv, json.dumps(out))


def test_checker_flags_inadmissible_profile(tmp_path):
    request = workloads._game_request(random.Random(5), 5, 3, 0.3, tmp_path / "game.json", scan_all=False)
    out = json.loads(cli(*request["argv"]))
    assert out["found"]
    assert check.check_equilibrium(request["table"], request["eps"], json.dumps(out)) == []
    table = request["table"]
    worse = int(table.max_regret.argmax())
    assert table.max_regret[worse] > request["eps"]
    out["profile"] = table.profiles[worse].tolist()
    assert check.check_equilibrium(table, request["eps"], json.dumps(out))
    assert check.check_equilibrium(table, request["eps"], json.dumps({"found": False}))


def test_checker_flags_non_identical_repeat():
    request = {"argv": ["verify"]}
    text = cli("verify")
    result = {"first": [(0, text), (0, text)], "digests": [["a", "a"], ["a", "b"]]}
    attempted, failed, problems = run.check_outputs([request, request], result, check.Refs())
    assert (attempted, failed) == (4, 1)
    assert any("repeats differ" in p for p in problems)
    result["digests"][1] = ["a", "a"]
    assert run.check_outputs([request, request], result, check.Refs())[:2] == (4, 0)


def test_checker_flags_coupling_twin_mismatch():
    args = ["--n", "12", "--k", "3", "--delta", "0.4", "--samples", "20000", "--seed", "3", "--json"]
    requests = [{"argv": ["coupling", *args]}, {"argv": ["meet-time", *args]}]
    texts = [cli(*r["argv"]) for r in requests]
    result = {"first": [(0, t) for t in texts], "digests": [["a"], ["b"]]}
    assert run.check_outputs(requests, result, check.Refs())[1] == 0
    meet = json.loads(texts[1])
    meet["counts"][-1] -= 1
    meet["counts"][-2] += 1
    result["first"][1] = (0, json.dumps(meet))
    assert run.check_outputs(requests, result, check.Refs())[1] == 2  # either twin may be wrong


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_counters_repeat_between_traced_runs(name, tmp_path):
    requests = workloads.build(name, 3, tmp_path)
    counters = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            worker.run_pass(workloads.wire(requests), tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans)
        counters.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counters[0] == counters[1]
    assert counters[0]["cli.requests"] == sum("argv" in r for r in requests)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"pass_s": [1.0, 2.0], "latencies_s": [0.1] * 20, "calibration_s": [0.003] * 20, "peak_rss_mb": 100.0}
    assert set(run.end_to_end([(1.0, 0.003)], result)) == {m["name"] for m in spec["end_to_end"]}
    layer = set(spans.layer_metrics([])) | {"trace.overhead_s"} | {f"import.{p}_s" for p in run.IMPORT_PACKAGES}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert all(run.unit(m["name"]) == m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS) | set(workloads.COMBINED)


def test_scaling_cancels_host_speed_only():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([0.1, 0.2], [ref, ref]) == pytest.approx([0.1, 0.2])
    # The same work on a host half as fast reads the same once scaled.
    assert calibrate.scale([0.2, 0.4], [2 * ref, 2 * ref]) == pytest.approx([0.1, 0.2])
    # A slower program on the same host still reads slower.
    assert calibrate.scale([0.3], [ref]) == pytest.approx([0.3])
    # Each sample takes the median loop time of the window centred on it.
    loops = [ref, ref, 9 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert calibrate.scale([1.0] * 7, loops) == pytest.approx([1, 1, 1, 0.5, 0.5, 0.5, 0.5])


def test_self_time_subtracts_child_spans():
    spans_ = [["cli", "main", None, 0, 0.0, 10.0, None],
              ["random_walk", "walk_pmf", 0, 0, 2.0, 5.0, 40],
              ["random_walk", "walk_pmf", 1, 0, 3.0, 4.0, 7]]
    metrics = spans.layer_metrics(spans_)
    assert metrics["cli.self_s"] == 7.0
    assert metrics["random_walk.self_s"] == 3.0
    assert metrics["random_walk.calls"] == 1
    assert metrics["random_walk.steps"] == 47


def test_import_seconds_splits_packages():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |        400 |     scipy.stats",
        "import time:        20 |        600 |   scipy",
        "import time:         5 |        900 | lipgames.poisson_binomial",
        "import time:         1 |       1000 | lipgames",
    ])
    totals = run.import_seconds(report)
    assert totals == pytest.approx({"lipgames": 1000e-6, "numpy": 150e-6, "scipy": 30e-6})


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "formula-large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
