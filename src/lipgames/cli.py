"""Command-line front end.

Commands: ``lambda``, ``sweep``, ``coupling``, ``meet-time``,
``equilibrium``, ``delta-star`` and ``verify``.  Every float is rendered
with 15 significant digits and all randomness flows through explicit
``--seed`` flags, so repeated runs with the same arguments produce
byte-identical output.  Each command returns its exit code and the text
:func:`_render` made of its results; :func:`main` hands that text to
:func:`_write`, the only code that writes stdout or sweep's ``--output``
file.  Non-finite floats appear in JSON as the strings ``"inf"``,
``"-inf"`` and ``"nan"``, as in text.  Errors exit nonzero with a one-line
``error: <Type>: <message>`` on stderr: 2 for a refused budget or
exhausted memory, 1 otherwise.  The argument parser is built once per
process, on the first :func:`main` call, and reused by every later call.
When the first argument names a command, :func:`main` parses the rest with
that command's parser alone; any other argument list (none, ``--help`` or
an unknown command) goes to the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import checks
from . import coupling as cp
from . import games as gm
from . import lipschitz as lz
from . import oracle as orc
from .errors import BudgetExceededError, IntegrityError

VERIFY_DELTAS = (0.1, 0.25, 0.5, 0.75, 0.9)
#: (k, largest n) of each formula-vs-oracle family, in report order.
VERIFY_FAMILIES = ((3, 8), (4, 8), (2, 12))
VERIFY_TOL = 1e-9
SWEEP_COLUMNS = ("n", "k", "delta", "lambda", "lower", "upper", "asymptotic", "ratio")
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _jsonable(x):
    """Round floats to the 15-significant-digit rendering for JSON output.

    JSON has no non-finite numbers, so inf, -inf and nan become the
    strings the text rendering prints.
    """
    if isinstance(x, float):
        return float(_fmt(x)) if math.isfinite(x) else _fmt(x)
    if isinstance(x, dict):
        return {key: _jsonable(val) for key, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _text(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


def _render(payload: dict, as_json: bool, table=()) -> str:
    """The one output format of every command.

    Text: a ``key = value`` line per payload entry, then one CSV line per
    row of ``table``.  JSON: one document with floats rounded by
    :func:`_jsonable`; the table's rows as objects keyed by its first row
    when there is a table, else the payload.
    """
    if as_json:
        doc = [dict(zip(table[0], row)) for row in table[1:]] if table else payload
        return _JSON.encode(_jsonable(doc)) + "\n"
    lines = [f"{key} = {_text(value)}" for key, value in payload.items()]
    lines += [",".join(_text(cell) for cell in row) for row in table]
    return "".join(line + "\n" for line in lines)


def _write(text: str, path: str) -> None:
    """The one writer: ``text`` to stdout when ``path`` is ``-``, else to the file."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def cmd_lambda(ns) -> tuple[int, str]:
    if ns.method != "oracle":
        res = lz.lipschitz_constant(ns.n, ns.k, ns.delta)
    if ns.method != "formula":
        value, worst = orc.lipschitz_oracle(ns.n, ns.k, ns.delta)
        if ns.method == "oracle":
            res = lz.LambdaResult(value, value, value, lz.METHOD_ORACLE,
                                  lz.asymptotic_estimate(ns.n, ns.k, ns.delta))
    payload: dict = {"n": ns.n, "k": ns.k, "delta": ns.delta, "lambda": res.value,
                     "lower": res.lower, "upper": res.upper, "method": res.method,
                     "asymptotic": res.asymptotic}
    if ns.method == "both":
        payload.update(oracle=value, difference=abs(res.value - value))
    if ns.method != "formula":
        payload["worst_class"] = list(worst)
    return 0, _render(payload, ns.json)


def _sweep_rows(ns):
    if ns.n_stop < ns.n_start or ns.n_step < 1:
        raise ValueError("sweep range is empty; need n-start <= n-stop and n-step >= 1")
    ns.delta = [checks.delta(d) for d in ns.delta]
    ns.n_start, ns.k, _ = checks.instance(ns.n_start, ns.k, ns.delta[0])
    rows = range(ns.n_start, ns.n_stop + 1, ns.n_step)
    lz._charge_sweep(rows, ns.k, len(ns.delta))
    for n in rows:
        for d in ns.delta:
            res = lz.lipschitz_constant(n, ns.k, d)
            yield (n, ns.k, d, res.value, res.lower, res.upper, res.asymptotic,
                   res.value / res.asymptotic)


def cmd_sweep(ns) -> tuple[int, str]:
    return 0, _render({}, ns.format == "json", [SWEEP_COLUMNS, *_sweep_rows(ns)])


def cmd_coupling(ns) -> tuple[int, str]:
    # The simulation's own checks refuse a bad request first; the exact value
    # then comes before the simulation, so it cannot fail after the run.
    ns.n, ns.k, ns.delta, ns.samples, ns.seed = cp._check_params(ns.n, ns.k, ns.delta, ns.samples, ns.seed)
    exact = lz._passage(ns.n, ns.k, ns.delta)
    est = cp.simulate_coupling(ns.n, ns.k, ns.delta, ns.samples, ns.seed)
    diff = est.estimate - exact
    if est.std_error > 0.0:
        z = diff / est.std_error
    else:
        z = 0.0 if diff == 0.0 else float("inf")
    payload = {
        "n": ns.n,
        "k": ns.k,
        "delta": ns.delta,
        "samples": est.samples,
        "seed": est.seed,
        "estimate": est.estimate,
        "std_error": est.std_error,
        "exact": exact,
        "z_score": z,
    }
    return 0, _render(payload, ns.json)


def cmd_meet_time(ns) -> tuple[int, str]:
    res = cp.simulate_meet_time(ns.n, ns.k, ns.delta, ns.samples, ns.seed)
    total_moves = int(res.transitions.sum())
    freq = res.transitions / total_moves if total_moves else np.zeros(3)
    rate = ns.delta / ns.k
    payload = {
        "n": ns.n,
        "k": ns.k,
        "delta": ns.delta,
        "samples": res.samples,
        "seed": res.seed,
        "freq_down": float(freq[0]),
        "freq_stay": float(freq[1]),
        "freq_up": float(freq[2]),
        "rate_down": rate,
        "rate_stay": 1.0 - 2.0 * rate,
        "rate_up": rate,
    }
    if ns.json:
        payload["counts"] = res.counts.tolist()
        return 0, _render(payload, True)
    # counts[1..n] meet at that step; counts[n + 1] never meet.
    steps = [*range(1, ns.n + 1), "never"]
    return 0, _render(payload, False, [("step", "count"), *zip(steps, res.counts[1:].tolist())])


def cmd_equilibrium(ns) -> tuple[int, str]:
    if (ns.game is None) == (ns.party is None):
        raise ValueError("provide exactly one of --game FILE or --party N")
    if ns.game is not None:
        game = gm.load_game(ns.game)
    else:
        prefs = ("even" if i % 2 == 0 else "odd" for i in range(ns.party))
        game = gm.party_game(ns.party, prefs)
    if ns.epsilon == "auto":
        if ns.delta <= 0.0:
            raise ValueError("auto epsilon needs delta > 0")
        eps = 2.0 * game.k * lz.lipschitz_constant(game.n, game.k, ns.delta).value
    else:
        eps = float(ns.epsilon)
    found = gm.find_eps_nash(game, ns.delta, eps)
    payload: dict = {"n": game.n, "k": game.k, "delta": ns.delta, "epsilon": eps,
                     "found": found is not None}
    if found is not None:
        payload.update(
            {
                "profile": list(found.profile),
                "max_regret": found.report.max_regret,
                "unperturbed_guarantee": ns.delta + found.report.max_regret,
                "unperturbed_regret": found.report.unperturbed_regret,
            }
        )
    return 0, _render(payload, ns.json)


def cmd_delta_star(ns) -> tuple[int, str]:
    point = lz.delta_fixed_point(ns.n, ns.k)
    payload = {
        "n": ns.n,
        "k": ns.k,
        "delta_star": point.delta,
        "lambda_star": point.value,
        "epsilon": 2.0 * point.delta,
        "residual": abs(point.value - point.delta),
    }
    return 0, _render(payload, ns.json)


def cmd_verify(ns) -> tuple[int, str]:
    cases = [(n, k, delta) for k, top in VERIFY_FAMILIES
             for n in range(2, top + 1) for delta in VERIFY_DELTAS]
    worst, worst_case = 0.0, None
    for n, k, delta in cases:
        diff = abs(lz.lipschitz_constant(n, k, delta).value - orc.lipschitz_oracle(n, k, delta).value)
        # Strict, so the first case of a tied maximum is the one reported.
        if diff > worst:
            worst, worst_case = diff, (n, k, delta)
    payload: dict = {"cases": len(cases), "max_deviation": worst}
    if worst_case is not None:
        n, k, delta = worst_case
        payload["worst_case"] = f"(n={n}, k={k}, delta={_fmt(delta)})"
    payload["tolerance"] = VERIFY_TOL
    failed = worst > VERIFY_TOL
    return int(failed), _render(payload, False, [(f"verify: {'FAIL' if failed else 'PASS'}",)])


def _add_json_flag(parser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a single JSON object")


def _add_instance(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--delta", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipgames",
        description="Worst-case Lipschitz constants of delta-perturbed anonymous games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="evaluate the constant at one (n, k, delta)")
    _add_instance(p)
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")
    _add_json_flag(p)

    p = sub.add_parser("sweep", help="tabulate the constant over a parameter grid")
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-stop", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, action="append", required=True,
                   help="repeatable; one column group per value")
    p.add_argument("--output", default="-", help="file path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, help_text in (
        ("coupling", "Monte Carlo mirror coupling vs the exact walk value"),
        ("meet-time", "histogram of the chains' first meeting step"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_instance(p)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        _add_json_flag(p)

    p = sub.add_parser("equilibrium", help="exhaustive search for a pure eps-equilibrium")
    p.add_argument("--game", help="JSON game file (fields n, k, payoffs)")
    p.add_argument("--party", type=int, help="use the n-player party fixture instead of a file")
    p.add_argument("--delta", type=float, required=True,
                   help="perturbation; 0 evaluates the unperturbed game")
    p.add_argument("--epsilon", default="auto",
                   help='regret bound, or "auto" for 2*k*lambda(n,k,delta)')
    _add_json_flag(p)

    p = sub.add_parser("delta-star", help="solve lambda(n,k,delta) = delta, starting from the closed form's root")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_json_flag(p)

    sub.add_parser("verify", help="compare lipschitz_constant against the brute-force oracle")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The process-wide parser of :func:`main` and its command parsers by name, built on its first call."""
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    if argv and argv[0] in commands:
        # The top-level pass would only read the command name, so its parser alone runs.
        ns = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        ns = parser.parse_args(argv)
    try:
        # Looked up per call, so a replaced cmd_* function is the one that runs.
        code, text = globals()["cmd_" + ns.command.replace("-", "_")](ns)
        _write(text, getattr(ns, "output", "-"))
        return code
    except (ValueError, IntegrityError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (BudgetExceededError, MemoryError)) else 1


if __name__ == "__main__":
    sys.exit(main())
