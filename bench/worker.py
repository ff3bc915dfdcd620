"""Runs one workload's request list in a fresh interpreter.

    worker.py --setup-only
    worker.py REQUESTS.json RESULT.json --seconds S --trace 0|1 [--spans SPANS.jsonl]

``lipgames.cli`` is imported first and "ready" is printed at once, so the
parent times set-up from spawn to a usable CLI.  Requests then run in a
closed loop on one thread: the next starts only when the previous returns.
The request list is run as whole passes until the next pass would end after
``S`` seconds (at least two passes, so every request is repeated).  Each
request of these passes is preceded by one run of the calibration loop of
``calibrate.py``, timed on its own.  With ``--trace 1`` one more pass runs
with span wrappers installed and no calibration.
"""

import sys

import lipgames.cli

if __name__ == "__main__":
    print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def call(request: dict):
    """Run one request; returns (exit code, raw output)."""
    if "call" in request:
        return 0, getattr(lipgames.coupling, request["call"])(*request["args"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lipgames.cli.main(request["argv"])
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue() if code == 0 else out.getvalue() + err.getvalue()


def run_pass(requests: list[dict], tracer=None, calibrated=False):
    """Run every request once; returns (latencies, calibration loop times, outputs)."""
    latencies, loops, outputs = [], [], []
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        if calibrated:
            loops.append(calibrate.loop_seconds())
        t0 = time.perf_counter()
        try:
            code, raw = call(request)
        except Exception:  # a crash is a failed request, not a failed benchmark
            code, raw = "exception", traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        outputs.append((code, raw if isinstance(raw, str) else json.dumps(raw.tolist())))
    return latencies, loops, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("requests", nargs="?")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if Path(lipgames.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: lipgames was imported from {lipgames.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))

    pass_s, latencies, loops, digests, first = [], [], [], [[] for _ in requests], None
    started = time.perf_counter()

    def record(outputs):
        for index, (code, text) in enumerate(outputs):
            digests[index].append(hashlib.sha256(f"{code}\n{text}".encode()).hexdigest())

    while len(pass_s) < 2 or time.perf_counter() - started + statistics.median(pass_s) <= args.seconds:
        pass_start = time.perf_counter()
        lat, pass_loops, outputs = run_pass(requests, calibrated=True)
        pass_s.append(time.perf_counter() - pass_start)
        latencies += lat
        loops += pass_loops
        record(outputs)
        first = first or outputs

    result = {"pass_s": pass_s, "latencies_s": latencies, "calibration_s": loops, "first": first,
              "digests": digests, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            lat, _, outputs = run_pass(requests, tracer)
        finally:
            tracer.uninstall()
        record(outputs)
        result["layers"] = spans.layer_metrics(tracer.spans)
        untraced = statistics.median(sum(latencies[i:i + len(requests)])
                                     for i in range(0, len(latencies), len(requests)))
        result["layers"]["trace.overhead_s"] = sum(lat) - untraced
        if args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
