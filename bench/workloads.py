"""Seeded request lists for the three workloads.

A request is a CLI argument vector run in process through
``lipgames.cli.main`` (``{"argv": [...]}``), or a direct library call for
the one capability without a command (``{"call": name, "args": [...]}``).
The seed draws sizes inside fixed strata, so the cost of a request list
changes little from seed to seed.  Each list has at least 100 requests, so
that ten latency samples lie beyond p90 in a single pass.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import check


def _delta(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> float:
    return round(rng.uniform(lo, hi), 4)


def _deltas(rng: random.Random, count: int, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    """One delta near the centre of each of ``count`` equal slices of [lo, hi].

    The walk's cost depends on delta (2.4x between rates 0.0125 and 0.1 at
    2000 steps), so fixed slices keep a list's cost from seed to seed.
    """
    width = (hi - lo) / count
    return [round(lo + (i + 0.5) * width + rng.uniform(-0.005, 0.005), 4) for i in range(count)]


def _lambda(n: int, k: int, delta: float, *extra: str) -> dict:
    return {"argv": ["lambda", "--n", str(n), "--k", str(k), "--delta", repr(delta), *extra, "--json"]}


def _with_parity(rng: random.Random, lo: int, hi: int, parity: int) -> int:
    n = rng.randrange(lo, hi)
    return n if n % 2 == parity else n + 1


def formula_large(rng: random.Random, workdir: Path) -> list[dict]:
    """Closed-form routes at large n.

    Chosen because the O(n^2) walk dynamic program in ``random_walk`` does
    almost all the work here; it isolates ``random_walk`` (with
    ``lipschitz`` dispatch and the delta-star bisection on top, and
    ``poisson_binomial`` for k = 2).  The k = 2 requests straddle
    ``TWO_ACTION_EXACT_LIMIT`` = 256, where odd n switches from an exact split
    scan to a cheap bracket, so a slower route shows on either side.
    """
    # Latency bands: 35 requests below 20 ms, 32 near 30 ms (n near 2000),
    # then n near 3000 and 4000, sweeps and bisections; the median falls in
    # the middle of the 30 ms band and p90 among the sweeps.
    reqs = []
    for k in (3, 4, 5, 8):
        for lo, count in ((1000, 4), (2000, 6), (3000, 3), (4000, 3)):
            reqs += [_lambda(rng.randrange(lo, lo + 40), k, d) for d in _deltas(rng, count)]
    for parity in (0, 1):
        for lo, hi in ((240, 256), (257, 272), (2000, 2040)):
            reqs += [_lambda(_with_parity(rng, lo, hi, parity), 2, d) for d in _deltas(rng, 4)]
    for k in (3, 4):
        for d1, d2 in zip(_deltas(rng, 4, 0.05, 0.5), _deltas(rng, 4, 0.5, 0.95)):
            start, step = rng.randrange(800, 840), rng.randrange(195, 205)
            reqs.append({"argv": ["sweep", "--n-start", str(start), "--n-stop", str(start + 3 * step),
                                  "--n-step", str(step), "--k", str(k), "--delta", repr(d1), "--delta", repr(d2)]})
    for n, k in ((rng.randrange(600, 620), 3), (rng.randrange(600, 620), 4),
                 (_with_parity(rng, 300, 320, 0), 2), (_with_parity(rng, 300, 320, 1), 2)):
        reqs.append({"argv": ["delta-star", "--n", str(n), "--k", str(k), "--json"]})
    return reqs + _probes(rng, workdir, "oracle", "games", "coupling")


def _game_request(rng: random.Random, n: int, k: int, delta: float, path: Path, scan_all: bool) -> dict:
    """A random game with an epsilon placed between two distinct profile regrets.

    ``scan_all`` puts epsilon below every profile's regret, so the search
    covers the whole space and finds nothing; otherwise epsilon admits about
    one profile in eight, so the scan stops after a few profiles.
    Games whose best profile has (near) zero regret are redrawn.
    """
    classes = math.comb(n - 1 + k - 1, k - 1)
    while True:
        payoffs = [[[round(rng.random(), 6) for _ in range(classes)] for _ in range(k)] for _ in range(n)]
        table = check.ProfileTable(payoffs, delta)
        regrets = sorted(table.max_regret.tolist())
        if regrets[0] < 1e-6:
            continue
        if scan_all:
            eps = regrets[0] / 2
            break
        gaps = [q for q in range(len(regrets) // 8, len(regrets) - 1) if regrets[q + 1] - regrets[q] > 1e-6]
        if gaps:
            eps = (regrets[gaps[0]] + regrets[gaps[0] + 1]) / 2
            break
    path.write_text(json.dumps({"n": n, "k": k, "payoffs": payoffs}), encoding="utf-8")
    return {"argv": ["equilibrium", "--game", str(path), "--delta", repr(delta), "--epsilon", repr(eps), "--json"],
            "table": table, "eps": eps}


def _probes(rng: random.Random, workdir: Path, *layers: str) -> list[dict]:
    """One tiny request per named layer that the workload otherwise leaves idle.

    They cost about a millisecond each, so every layer shows a measured,
    nonzero time in every traced workload without shifting the latency bands.
    """
    probes = {
        "oracle": lambda: _lambda(6, 2, _delta(rng), "--method", "both"),
        "games": lambda: _game_request(rng, 3, 2, _delta(rng, 0.1, 0.5), workdir / "probe-game.json", scan_all=False),
        "coupling": lambda: {"argv": ["coupling", "--n", "8", "--k", "3", "--delta", repr(_delta(rng, 0.1, 0.9)),
                                      "--samples", "2000", "--seed", str(rng.randrange(2**31)), "--json"]},
    }
    return [probes[layer]() for layer in layers]


def exact_small(rng: random.Random, workdir: Path) -> list[dict]:
    """Brute-force routes at desk scale.

    Chosen because ``oracle.count_distribution`` is used two different ways
    here: the oracle builds one occupancy law per distinct count class (which
    prefix sharing can speed up) and ``games`` rebuilds the same law for
    every repeated opponent vector (which memoising can speed up).  It
    isolates ``oracle`` and ``games``; the walk does almost no work.
    Oracle sizes keep each request near 45 ms, at most about 6e4 cells, far below
    the 1e7 cell budget, which would cost seconds per request.
    """
    games = workdir / "games"
    games.mkdir(parents=True, exist_ok=True)

    def equilibria(count, scan_all):
        return [_game_request(rng, n, k, d, games / f"game{scan_all:d}-{n}-{k}-{i}.json", scan_all)
                for n, k in ((9, 2), (6, 3), (5, 4)) for i, d in enumerate(_deltas(rng, count, 0.1, 0.5))]

    # Latency bands: 21 cheap requests, 60 oracle requests of about 35 ms
    # each, 18 full scans near 100 ms and 6 verify runs; the median falls in
    # the middle of the oracle band and p90 among the full scans, also when
    # coupling-mc's requests join them in exact-mc.
    reqs = equilibria(4, scan_all=False)
    reqs += [_lambda(rng.randrange(40, 45), 2, d, "--method", "both") for d in _deltas(rng, 8)]
    for n, k in ((56, 2), (18, 3), (11, 4)):
        reqs += [_lambda(n, k, d, "--method", "both") for d in _deltas(rng, 20)]
    reqs += equilibria(6, scan_all=True)
    reqs += [{"argv": ["verify"]}] * 6
    return reqs + _probes(rng, workdir, "coupling")


def coupling_mc(rng: random.Random, workdir: Path) -> list[dict]:
    """Seeded Monte Carlo at 1e5 to 1e6 samples.

    Chosen because all three block loops of ``coupling`` run here
    (``coupling``, ``meet-time`` and direct ``mirrored_action_counts``
    calls); it isolates ``coupling``.  The walk only supplies small exact
    references (n <= 24), unlike its large single walks in formula-large.
    Each ``coupling`` request has a ``meet-time`` twin with identical
    arguments, whose never-met counts must agree exactly.
    """
    reqs = []
    for samples_lo, pairs in ((100_000, 32), (950_000, 2)):
        for delta in _deltas(rng, pairs, 0.1, 0.9):
            args = ["--n", str(rng.randrange(20, 22)), "--k", str(rng.randrange(2, 6)),
                    "--delta", repr(delta), "--samples", str(rng.randrange(samples_lo, samples_lo * 26 // 25)),
                    "--seed", str(rng.randrange(2**31)), "--json"]
            reqs += [{"argv": ["coupling", *args]}, {"argv": ["meet-time", *args]}]
    for delta in _deltas(rng, 32, 0.1, 0.9):
        k = rng.randrange(2, 6)
        reqs.append({"call": "mirrored_action_counts",
                     "args": [rng.randrange(20, 22), k, delta, rng.randrange(100_000, 104_000),
                              rng.randrange(2**31), rng.randrange(k)]})
    return reqs + _probes(rng, workdir, "oracle", "games")


WORKLOADS = {"formula-large": formula_large, "exact-small": exact_small, "coupling-mc": coupling_mc}
#: Workloads made of several request lists run as one.  ``exact-mc`` is the
#: one BENCHMARK.json gates, beside formula-large: two gated workloads leave
#: time for runs long enough to hold several passes.  It still bypasses the walk.
COMBINED = {"exact-mc": ("exact-small", "coupling-mc")}


def build(name: str, seed: int, workdir: Path) -> list[dict]:
    """The request list of a workload for a seed; writes its game files."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name in COMBINED:
        return [request for part in COMBINED[name] for request in build(part, seed, workdir)]
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)


def wire(requests: list[dict]) -> list[dict]:
    """The requests as the worker receives them, without the checker's tables."""
    return [{key: r[key] for key in ("argv", "call", "args") if key in r} for r in requests]
