"""lipgames benchmark: seeded CLI workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N   # formula-large, exact-small and coupling-mc

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Each run generates its request list from
the seed (writing game files under ``.lipbench/``), then times set-up in
several fresh interpreters, runs the requests in a fresh worker interpreter
(``worker.py``) and checks every output against the independent references
of ``check.py``.  End-to-end times are scaled by the host speed that
``calibrate.py`` measures next to them.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import calibrate
import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SPAWNS = 5
#: Interpreters run under ``-X importtime`` in a traced run.
IMPORTTIME_SPAWNS = 3
SPAWN_TIMEOUT_S = 60
#: A run must end within 180 s; the worker is stopped early enough to leave
#: time for checking.
WORKER_DEADLINE_S = 150
IMPORT_PACKAGES = ("lipgames", "numpy", "scipy")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One thread per BLAS/OpenMP pool, so matrix-vector calls in games start no extra threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_until_ready(args: list[str], **kwargs):
    """Start a worker interpreter; returns it once it has printed "ready", with the elapsed time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True, **kwargs)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, elapsed


def finish(proc, timeout: float) -> None:
    """Wait for a worker; kill it on timeout."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def setup_samples() -> list[tuple[float, float]]:
    """(set-up time, calibration loop time) of each timed fresh interpreter.

    The loop time is the median of five loops run in this process just
    before the spawn and five just after it.
    """
    samples = []
    for _ in range(SETUP_SPAWNS):
        loops = [calibrate.loop_seconds() for _ in range(5)]
        proc, elapsed = spawn_until_ready([str(BENCH / "worker.py"), "--setup-only"])
        finish(proc, SPAWN_TIMEOUT_S)
        loops += [calibrate.loop_seconds() for _ in range(5)]
        samples.append((elapsed, statistics.median(loops)))
    return samples


def import_seconds(report: str) -> dict:
    """Import time per package from ``-X importtime`` output.

    ``lipgames`` is the cumulative time of importing the package, everything
    it pulls in included; ``numpy`` and ``scipy`` are the self times of their
    own modules, wherever they were imported from.
    """
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in report.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
        package = name.split(".")[0]
        if name == "lipgames":
            totals[name] += cumulative_us / 1e6
        elif package != "lipgames" and package in totals:
            totals[package] += self_us / 1e6
    return totals


def import_samples(workdir: Path) -> dict:
    runs = []
    report = workdir / "importtime.txt"
    for _ in range(IMPORTTIME_SPAWNS):
        with open(report, "w", encoding="utf-8") as sink:  # a pipe could fill before "ready"
            proc, _ = spawn_until_ready(["-X", "importtime", str(BENCH / "worker.py"), "--setup-only"], stderr=sink)
            finish(proc, SPAWN_TIMEOUT_S)
        runs.append(import_seconds(report.read_text(encoding="utf-8")))
    return {f"import.{p}_s": statistics.median(r[p] for r in runs) for p in IMPORT_PACKAGES}


def check_outputs(requests: list[dict], result: dict, refs: check.Refs) -> tuple[int, int, list[str]]:
    """Check every request instance; returns (attempted, failed, problems).

    The first instance of each distinct request is checked against the
    references; every other instance, in any pass, must be byte-identical
    to it.
    """
    problems_of: list[list[str]] = []
    for request, (code, text) in zip(requests, result["first"]):
        try:
            if code != 0:
                problems = [f"exit code {code}: {text.strip()[-300:]}"]
            elif "call" in request:
                problems = check.check_mirror(request["args"], json.loads(text))
            elif "table" in request:
                problems = check.check_equilibrium(request["table"], request["eps"], text)
            else:
                problems = check.CLI_CHECKS[request["argv"][0]](refs, request["argv"], text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"malformed output ({type(exc).__name__}: {exc}): {text[:200]!r}"]
        problems_of.append(problems)
    # A coupling request and its meet-time twin must report the same never-met count.
    twins: dict[tuple, dict[int, int]] = {}
    for index, (request, (code, text)) in enumerate(zip(requests, result["first"])):
        command = request.get("argv", [""])[0]
        if command in ("coupling", "meet-time") and not problems_of[index]:
            never = (check.coupling_never if command == "coupling" else check.meet_never)(json.loads(text))
            twins.setdefault(tuple(request["argv"][1:]), {})[index] = never
    for group in twins.values():
        if len(set(group.values())) > 1:
            for index in group:
                problems_of[index].append(f"coupling and meet-time never-met counts differ: {sorted(group.values())}")

    attempted = failed = 0
    reference: dict[str, int] = {}
    problems = []
    for index, request in enumerate(requests):
        key = json.dumps(request.get("argv") or request["args"])
        owner = reference.setdefault(key, index)
        good = result["digests"][owner][0]
        for digest in result["digests"][index]:
            attempted += 1
            if problems_of[owner] or digest != good:
                failed += 1
        if digest_mismatch := [d for d in result["digests"][index] if d != good]:
            problems.append(f"request {index}: {len(digest_mismatch)} repeats differ from the first output")
        problems += [f"request {index} {key[:80]}: {p}" for p in problems_of[index]]
    return attempted, failed, problems


def context() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (ROOT / "src" / "lipgames").glob("*.py")),
        "runtime_deps": len(project.get("dependencies", [])),
    }


def end_to_end(setup: list[tuple[float, float]], result: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics, scaled to the reference host speed of ``calibrate.py``.

    ``run_s`` is the median over passes of the sum of the pass's request
    latencies (calibration loops excluded).  ``scaled=False`` gives the
    times as measured.
    """
    latencies, loops = result["latencies_s"], result["calibration_s"]
    setup_s, setup_loops = [s for s, _ in setup], [loop for _, loop in setup]
    if scaled:
        latencies = calibrate.scale(latencies, loops)
        setup_s = calibrate.scale(setup_s, setup_loops, window=1)
    per_pass = len(latencies) // len(result["pass_s"])
    latencies_ms = sorted(1000 * s for s in latencies)
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(sum(latencies[i:i + per_pass]) for i in range(0, len(latencies), per_pass)),
        "req_p50_ms": statistics.median(latencies_ms),
        "req_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workdir = ROOT / ".lipbench" / f"{name}-{seed}"
    requests = workloads.build(name, seed, workdir)
    (workdir / "requests.json").write_text(json.dumps(workloads.wire(requests)), encoding="utf-8")

    extra = import_samples(workdir) if trace else {}
    setup = [] if trace else setup_samples()
    worker_args = [str(BENCH / "worker.py"), str(workdir / "requests.json"), str(workdir / "result.json"),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        worker_args += ["--spans", str(workdir / "spans.jsonl")]
    (workdir / "result.json").unlink(missing_ok=True)
    proc, _ = spawn_until_ready(worker_args)
    finish(proc, WORKER_DEADLINE_S - (time.perf_counter() - started))
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))

    refs_path = workdir / "refs.json"
    refs = check.Refs(json.loads(refs_path.read_text(encoding="utf-8")) if refs_path.exists() else None)
    attempted, failed, problems = check_outputs(requests, result, refs)
    refs_path.write_text(json.dumps(refs.memo), encoding="utf-8")

    summary = {
        "workload": name, "seed": seed, "requests_per_pass": len(requests), "passes": len(result["pass_s"]),
        "latency_samples": len(result["latencies_s"]), "setup_samples": len(setup), "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        return {**summary, "metrics": {**result["layers"], **extra}}
    loops = result["calibration_s"]
    summary["calibration_ms"] = 1000 * statistics.median(loops) if loops else None
    summary["unscaled"] = end_to_end(setup, result, scaled=False)
    return {**summary, "metrics": end_to_end(setup, result)}


UNITS = {"setup_s": "s", "run_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "peak_rss_mb": "MB",
         "failed_frac": "ratio", "games.law_useful_ratio": "ratio"}


def unit(metric: str) -> str:
    return UNITS.get(metric) or ("s" if metric.endswith("_s") else "count")


def describe(run: dict) -> str:
    m = dict(run["metrics"])
    m["failed_frac"] = run["failed"] / run["attempted"]
    counts = {"setup_s": f"median of {run['setup_samples']} interpreters",
              "run_s": f"median of {run['passes']} passes of {run['requests_per_pass']} requests",
              "req_p50_ms": f"{run['latency_samples']} requests", "req_p90_ms": f"{run['latency_samples']} requests",
              "failed_frac": f"{run['failed']}/{run['attempted']}"}
    lines = [f"{run['workload']} (seed {run['seed']})"]
    if "unscaled" in run:
        lines[0] += (f": times scaled to a calibration loop of {1000 * calibrate.REFERENCE_S:g} ms;"
                     f" the loop took {run['calibration_ms']:.4g} ms (median) in this run")
    for key, value in m.items():
        raw = run.get("unscaled", {}).get(key)
        note = f"(unscaled {raw:.6g}) " if raw is not None and raw != value else ""
        lines.append(f"  {key:34s} {value:14.6g} {unit(key):6s} {note}{counts.get(key, '')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, *workloads.COMBINED, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lipgames" / "cli.py").is_file():
        print(f"error: no lipgames source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("context " + json.dumps(context()))
    runs = []
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for problem in run["problems"][:20]:
            print(f"FAIL {problem}", file=sys.stderr)
        print(describe(run))
        runs.append(run)
    if args.workload == "all":
        return 0 if all(run["failed"] == 0 for run in runs) else 1
    run = runs[0]
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
