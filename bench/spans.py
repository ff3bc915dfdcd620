"""Spans around the calls into each lipgames module, recorded from outside.

Every public function of a layer module is replaced, in every lipgames
module that holds a reference to it, by a wrapper that records a span:
layer, function, parent span, request id, start, end and a small note
taken from the arguments or result (the work size).  Calls inside a module
go through the same module globals, so nested spans of one layer appear
too; a layer's self time subtracts the time of all child spans.  Spans stay
in memory and are written out after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("cli", "lipschitz", "random_walk", "poisson_binomial", "oracle", "games", "coupling")
#: Public helpers called once per player or per table entry from inside their
#: own module; a span each would cost more than the work it times.
UNWRAPPED = {"perturbed_action_law", "count_vector_rank"}
#: Replications per coupling block, fixed by the documented stream layout.
COUPLING_BLOCK = 1 << 16
ROUTES = ("walk-closed-form", "two-block-exact", "even-walk", "odd-bracket")


def _profiles_scanned(args, result) -> int:
    game = args[0]
    if result is None:
        return game.k**game.n
    return sum(a * game.k ** (game.n - 1 - i) for i, a in enumerate(result.profile)) + 1


#: Work size recorded per function, from its positional arguments and result.
NOTES = {
    ("random_walk", "walk_pmf"): lambda a, r: a[0],
    ("random_walk", "stay_below_prob"): lambda a, r: a[0],
    ("poisson_binomial", "two_block_max_prob"): lambda a, r: a[0],
    ("poisson_binomial", "binomial_collision_prob"): lambda a, r: a[0],
    ("lipschitz", "lipschitz_constant"): lambda a, r: r.method,
    ("oracle", "lipschitz_oracle"): lambda a, r: (a[0], a[1]),
    ("oracle", "count_distribution"): lambda a, r: (tuple(sorted(a[0])), a[1], a[2]),
    ("games", "find_eps_nash"): _profiles_scanned,
    ("coupling", "simulate_coupling"): lambda a, r: (a[0], a[3]),
    ("coupling", "simulate_meet_time"): lambda a, r: (a[0], a[3]),
    ("coupling", "mirrored_action_counts"): lambda a, r: (a[0], a[3]),
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one traced pass."""

    def __init__(self):
        # Each span: [layer, function, parent index, request id, start, end, note].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        holders = [m for name, m in sys.modules.items() if name == "lipgames" or name.startswith("lipgames.")]
        for layer in LAYERS:
            module = importlib.import_module(f"lipgames.{layer}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or name in UNWRAPPED or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        note = NOTES.get((layer, name))
        params = list(inspect.signature(fn).parameters)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else None, self.request, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(args + tuple(kwargs.get(p) for p in params[len(args):]), result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name, parent, request, start, end, _) in enumerate(self.spans):
                handle.write(json.dumps([index, parent, request, f"{layer}.{name}", start, end]) + "\n")


def layer_metrics(spans: list[list]) -> dict:
    """Self time, entry calls and work counters per layer, from one pass's spans."""
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"], metrics[f"{layer}.self_s"] = 0, 0.0
    metrics["cli.requests"] = 0
    for key in ("lipschitz.bisection_evals", "random_walk.steps", "poisson_binomial.terms",
                "oracle.classes", "oracle.cells", "oracle.law_builds", "games.profiles",
                "games.law_builds", "coupling.blocks", "coupling.rep_steps"):
        metrics[key] = 0
    metrics["games.law_s"] = 0.0
    for route in ROUTES:
        metrics[f"lipschitz.route.{route}"] = 0
    child_time = [0.0] * len(spans)
    for layer, name, parent, request, start, end, note in spans:
        if parent is not None:
            child_time[parent] += end - start
    distinct_laws = set()
    for index, (layer, name, parent, request, start, end, note) in enumerate(spans):
        outer = spans[parent] if parent is not None else None
        metrics[f"{layer}.self_s"] += end - start - child_time[index]
        if outer is None or outer[0] != layer:
            metrics[f"{layer}.calls"] += 1
        if outer is None and layer == "cli":
            metrics["cli.requests"] += 1
        if note is None:  # no work size, or the call raised
            continue
        if layer == "random_walk":
            metrics["random_walk.steps"] += note
        elif layer == "poisson_binomial":
            metrics["poisson_binomial.terms"] += note
        elif name == "lipschitz_constant":
            if note in ROUTES:
                metrics[f"lipschitz.route.{note}"] += 1
            if outer is not None and outer[1] == "delta_fixed_point":
                metrics["lipschitz.bisection_evals"] += 1
        elif name == "lipschitz_oracle":
            n, k = note
            metrics["oracle.classes"] += math.comb(n - 2 + k - 1, k - 1)
            metrics["oracle.cells"] += math.comb(n - 2 + k - 1, k - 1) * math.comb(n - 2 + k, k - 1)
        elif name == "count_distribution" and outer is not None:
            if outer[0] == "oracle":
                metrics["oracle.law_builds"] += 1
            elif outer[0] == "games":
                metrics["games.law_builds"] += 1
                metrics["games.law_s"] += end - start
                distinct_laws.add((request, note))
        elif name == "find_eps_nash":
            metrics["games.profiles"] += note
        elif layer == "coupling":
            n, samples = note
            metrics["coupling.blocks"] += -(-samples // COUPLING_BLOCK)
            metrics["coupling.rep_steps"] += samples * n
    builds = metrics["games.law_builds"]
    metrics["games.law_useful_ratio"] = len(distinct_laws) / builds if builds else 0.0
    return metrics
