"""Independent references and output checks for the benchmark.

Nothing here imports lipgames: every expected value is rebuilt from the
definitions, with mpmath sums for the closed forms, a log-binomial split scan
for odd two-action counts, and explicit enumeration of the opponents'
perturbed actions for equilibrium profiles.  A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

#: Relative agreement required between a reported value and its reference.
REL_TOL = 1e-9
#: Agreement required between the formula and the oracle (the CLI's own
#: verify tolerance).
ROUTE_TOL = 1e-9
#: Largest |z| accepted for a Monte Carlo count against its exact mean.
Z_BOUND = 6.0
#: Documented dispatch limit of ``lipschitz_constant`` for k = 2: odd n up to
#: it carries the exact split maximum, beyond it only the even-neighbour
#: bracket is promised.
TWO_ACTION_EXACT_LIMIT = 256


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(value - ref) <= rel * abs(ref)


class Refs:
    """Memoised reference values, keyed by a string, saved per seed."""

    def __init__(self, memo: dict | None = None):
        self.memo = memo if memo is not None else {}

    def _get(self, key: str, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def walk01(self, m: int, k: int, delta: float) -> float:
        """P(lazy walk with rate 2*delta/k is in {0, 1} after m steps)."""
        return self._get(f"walk01|{m}|{k}|{delta!r}", lambda: _walk01(m, 2 * mpmath.mpf(delta) / k))

    def even2(self, n: int, delta: float) -> float:
        """Two-action constant at even n: (1 - delta) * P(two Bin(n/2-1, delta/2) coincide)."""
        return self._get(f"even2|{n}|{delta!r}", lambda: _even2(n, delta))

    def odd2(self, n: int, delta: float) -> float:
        """Exact two-action constant at odd n, by the split scan."""
        return self._get(f"odd2|{n}|{delta!r}", lambda: _split_max(n - 2, delta) * (1.0 - delta))

    def bracket(self, n: int, delta: float) -> tuple[float, float]:
        """Even-neighbour bracket of the two-action constant at odd n."""
        lower = self.even2(n + 1, delta)
        return lower, math.sqrt(self.even2(n - 1, delta) * lower)

    def lam(self, n: int, k: int, delta: float) -> float:
        """Exact lambda(n, k, delta) where the dispatcher promises an exact value."""
        if k >= 3:
            return (1.0 - delta) * self.walk01(n - 2, k, delta)
        return self.even2(n, delta) if n % 2 == 0 else self.odd2(n, delta)


def _walk01(m: int, r) -> float:
    # Condition on the number j of moves, Bin(m, r); the simple walk S_j sits
    # in {0, 1} with probability C(j, floor(j/2)) / 2^j.
    b = (1 - r) ** m
    ratio = r / (1 - r)
    c = mpmath.mpf(1)
    total = b
    for j in range(m):
        b *= ratio * (m - j) / (j + 1)
        if j % 2 == 0:
            c *= mpmath.mpf(j + 1) / (j + 2)
        total += b * c
    return float(total)


def _even2(n: int, delta: float) -> float:
    m = n // 2 - 1
    p = mpmath.mpf(delta) / 2
    b = (1 - p) ** m
    ratio = p / (1 - p)
    total = b * b
    for i in range(m):
        b *= ratio * (m - i) / (i + 1)
        total += b * b
    return float((1 - mpmath.mpf(delta)) * total)


def _split_max(m: int, delta: float) -> float:
    """max over splits l and points t of P(Bin(l, q) + Bin(m - l, 1 - q) = t), q = delta/2.

    A Poisson Binomial law peaks within one of its mean (Darroch 1964), so
    each split only needs the points around its mean.
    """
    q = 0.5 * delta
    lgam = np.array([math.lgamma(i + 1) for i in range(m + 1)])

    def binom(size: int, p: float) -> np.ndarray:
        i = np.arange(size + 1)
        return np.exp(lgam[size] - lgam[i] - lgam[size - i] + i * math.log(p) + (size - i) * math.log1p(-p))

    best = 0.0
    for l in range(m + 1):
        a, b = binom(l, q), binom(m - l, 1.0 - q)
        mean = l * q + (m - l) * (1.0 - q)
        for t in range(max(0, math.floor(mean) - 1), min(m, math.ceil(mean) + 1) + 1):
            lo, hi = max(0, t - (m - l)), min(l, t)
            best = max(best, float(a[lo : hi + 1] @ b[t - hi : t - lo + 1][::-1]))
    return best


def asymptotic(n: int, k: int, delta: float) -> float:
    if k >= 3:
        return (1.0 - delta) * math.sqrt(k / (math.pi * n * delta))
    return (1.0 - delta) / math.sqrt(math.pi * n * delta * (1.0 - 0.5 * delta))


def check_value(refs: Refs, n: int, k: int, delta: float, value: float, lower: float, upper: float) -> list[str]:
    """A reported lambda with its bracket, against the dispatcher's contract."""
    where = f"lambda({n}, {k}, {delta})"
    if not lower - REL_TOL * upper <= value <= upper * (1 + REL_TOL):
        return [f"{where} = {value} lies outside its reported bracket [{lower}, {upper}]"]
    if k == 2 and n % 2 == 1:
        ref_lower, ref_upper = refs.bracket(n, delta)
        if not ref_lower * (1 - REL_TOL) <= value <= ref_upper * (1 + REL_TOL):
            return [f"{where} = {value} lies outside the even-neighbour bracket [{ref_lower}, {ref_upper}]"]
        if n > TWO_ACTION_EXACT_LIMIT:
            return []
    ref = refs.lam(n, k, delta)
    if not close(value, ref):
        return [f"{where} = {value}, reference {ref}"]
    if k >= 3 or n % 2 == 0:
        if not lower == value == upper:
            return [f"{where} is exact but reports the bracket [{lower}, {upper}]"]
    return []


def _check_asymptotic(n, k, delta, reported) -> list[str]:
    ref = asymptotic(n, k, delta)
    return [] if close(reported, ref, 1e-12) else [f"asymptotic({n}, {k}, {delta}) = {reported}, expected {ref}"]


def _flag(argv: list[str], name: str, cast=str, default=None):
    if f"--{name}" not in argv:
        return default
    return cast(argv[argv.index(f"--{name}") + 1])


def check_lambda(refs: Refs, argv, out: str) -> list[str]:
    n, k, delta = _flag(argv, "n", int), _flag(argv, "k", int), _flag(argv, "delta", float)
    obj = json.loads(out)
    problems = check_value(refs, n, k, delta, obj["lambda"], obj["lower"], obj["upper"])
    problems += _check_asymptotic(n, k, delta, obj["asymptotic"])
    if _flag(argv, "method") == "both":
        if abs(obj["lambda"] - obj["oracle"]) > ROUTE_TOL:
            problems.append(f"formula {obj['lambda']} and oracle {obj['oracle']} differ at ({n}, {k}, {delta})")
        worst = obj["worst_class"]
        if len(worst) != k or sum(worst) != n - 2 or min(worst) < 0:
            problems.append(f"worst class {worst} is not a count class of {n - 2} players on {k} actions")
    return problems


def check_sweep(refs: Refs, argv, out: str) -> list[str]:
    start, stop, step = _flag(argv, "n-start", int), _flag(argv, "n-stop", int), _flag(argv, "n-step", int)
    k = _flag(argv, "k", int)
    deltas = [float(argv[i + 1]) for i, a in enumerate(argv) if a == "--delta"]
    rows = list(csv.DictReader(io.StringIO(out)))
    grid = [(n, d) for n in range(start, stop + 1, step) for d in deltas]
    if [(int(r["n"]), float(r["delta"])) for r in rows] != grid:
        return ["sweep rows are not the n-outer, delta-inner grid"]
    problems = []
    for r in rows:
        n, d = int(r["n"]), float(r["delta"])
        lam, asym = float(r["lambda"]), float(r["asymptotic"])
        problems += check_value(refs, n, k, d, lam, float(r["lower"]), float(r["upper"]))
        problems += _check_asymptotic(n, k, d, asym)
        if not close(float(r["ratio"]), lam / asym, 1e-12):
            problems.append(f"sweep ratio at ({n}, {d}) is not lambda / asymptotic")
    return problems


def check_delta_star(refs: Refs, argv, out: str) -> list[str]:
    n, k, tol = _flag(argv, "n", int), _flag(argv, "k", int), _flag(argv, "tol", float, 1e-10)
    obj = json.loads(out)
    d, lam = obj["delta_star"], obj["lambda_star"]
    problems = check_value(refs, n, k, d, lam, lam, lam)
    if abs(lam - d) > tol * (1 + 1e-6) or abs(obj["residual"] - abs(lam - d)) > 1e-15:
        problems.append(f"delta-star residual {obj['residual']} is not within tol {tol}")
    if not close(obj["epsilon"], 2 * d, 1e-14):
        problems.append("delta-star epsilon is not 2 * delta_star")
    return problems


def check_verify(refs: Refs, argv, out: str) -> list[str]:
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    if int(fields.get("cases", -1)) != 125 or "verify: PASS" not in out:
        return [f"verify did not pass all 125 cases: {out!r}"]
    if float(fields["max_deviation"]) > ROUTE_TOL:
        return [f"verify max deviation {fields['max_deviation']} exceeds {ROUTE_TOL}"]
    return []


def _z(observed: float, trials: int, p: float) -> float:
    sd = math.sqrt(trials * p * (1 - p))
    return (observed - trials * p) / sd if sd > 0 else (0.0 if observed == trials * p else math.inf)


def _count(freq: float, total: int) -> tuple[int, bool]:
    """Recover an integer count from a 15-digit frequency."""
    value = freq * total
    return round(value), abs(value - round(value)) < 1e-6


def check_coupling(refs: Refs, argv, out: str) -> list[str]:
    n, k, delta = _flag(argv, "n", int), _flag(argv, "k", int), _flag(argv, "delta", float)
    obj = json.loads(out)
    samples = obj["samples"]
    problems = []
    exact = refs.walk01(n, k, delta)
    if not close(obj["exact"], exact):
        problems.append(f"coupling exact {obj['exact']}, reference {exact}")
    never, whole = _count(obj["estimate"], samples)
    if not whole:
        problems.append(f"coupling estimate {obj['estimate']} is not a count over {samples} samples")
    if abs(_z(never, samples, exact)) > Z_BOUND or abs(obj["z_score"]) > Z_BOUND:
        problems.append(f"coupling z-score {obj['z_score']} beyond {Z_BOUND}")
    return problems


def meet_never(obj) -> int:
    return obj["counts"][-1]


def coupling_never(obj) -> int:
    return _count(obj["estimate"], obj["samples"])[0]


def check_meet_time(refs: Refs, argv, out: str) -> list[str]:
    n, k, delta = _flag(argv, "n", int), _flag(argv, "k", int), _flag(argv, "delta", float)
    obj = json.loads(out)
    counts, samples = obj["counts"], obj["samples"]
    if len(counts) != n + 2 or counts[0] != 0 or sum(counts) != samples:
        return [f"meet-time histogram {counts[:4]}... is not a histogram of {samples} samples over {n} steps"]
    problems = []
    if abs(_z(meet_never(obj), samples, refs.walk01(n, k, delta))) > Z_BOUND:
        problems.append("meet-time never-met count is far from the exact walk value")
    # Every replication moves once per step until and including its meeting step.
    moves = sum(step * c for step, c in enumerate(counts[:-1])) + n * counts[-1]
    for name in ("freq_down", "freq_up"):
        observed, whole = _count(obj[name], moves)
        if not whole or abs(_z(observed, moves, delta / k)) > Z_BOUND:
            problems.append(f"meet-time {name} {obj[name]} is not a plausible count over {moves} moves")
    if not close(obj["freq_down"] + obj["freq_stay"] + obj["freq_up"], 1.0, 1e-12):
        problems.append("meet-time move frequencies do not sum to 1")
    return problems


def check_mirror(args, table) -> list[str]:
    n, k, delta, samples, _, baseline = args
    law = [delta / k] * k
    law[baseline] += 1.0 - delta
    if len(table) != n or any(len(row) != k or sum(row) != samples for row in table):
        return [f"mirrored action table is not {n} rows of {k} counts summing to {samples}"]
    worst = max(abs(_z(c, samples, law[j])) for row in table for j, c in enumerate(row))
    return [f"mirrored action counts deviate from the perturbed law (|z| = {worst:.2f})"] if worst > Z_BOUND else []


def compositions(total: int, k: int) -> list[tuple[int, ...]]:
    """k-part compositions of total in ascending lexicographic order (the game-file rank)."""
    return [c for c in itertools.product(range(total + 1), repeat=k) if sum(c) == total]


def _rank_lookup(total: int, k: int):
    """Map count arrays (rows of k counts) to their lexicographic rank."""
    weights = (total + 1) ** np.arange(k)
    table = np.full((total + 1) ** k, -1, dtype=np.int64)
    for rank, c in enumerate(compositions(total, k)):
        table[int(np.dot(c, weights))] = rank
    return lambda counts: table[counts @ weights]


class ProfileTable:
    """Perturbed regret of every pure profile of a game, by explicit enumeration.

    For each opponent count class the opponents' realised actions are
    enumerated one by one (k^(n-1) tuples), which gives the law of their
    realised count class without any convolution.
    """

    def __init__(self, payoffs, delta: float):
        payoffs = np.asarray(payoffs, dtype=np.float64)
        n, k, _ = payoffs.shape
        classes = compositions(n - 1, k)
        rank = _rank_lookup(n - 1, k)
        eye = np.eye(k, dtype=np.int64)
        realized = np.array(list(itertools.product(range(k), repeat=n - 1)), dtype=np.int64)
        realized_rank = rank(eye[realized].sum(axis=1))
        plays = np.full((k, k), delta / k) + (1.0 - delta) * np.eye(k)  # plays[declared, actual]
        base = np.empty((n, len(classes), k))
        for ci, c in enumerate(classes):
            declared = np.repeat(np.arange(k), c)
            weight = plays[declared, realized].prod(axis=1)
            law = np.bincount(realized_rank, weights=weight, minlength=len(classes))
            base[:, ci, :] = payoffs @ law
        self.n, self.k = n, k
        self.base = base
        self.values = (1.0 - delta) * base + (delta / k) * base.sum(axis=2, keepdims=True)
        profiles = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
        counts = eye[profiles].sum(axis=1)
        self.max_regret = np.zeros(len(profiles))
        for i in range(n):
            vals = self.values[i, rank(counts - eye[profiles[:, i]])]
            regret = vals.max(axis=1) - vals[np.arange(len(profiles)), profiles[:, i]]
            np.maximum(self.max_regret, regret, out=self.max_regret)
        self.profiles = profiles
        self._rank = rank

    def first_admissible(self, eps: float):
        hits = np.flatnonzero(self.max_regret <= eps)
        return int(hits[0]) if hits.size else None

    def unperturbed_regret(self, index: int) -> float:
        profile = self.profiles[index]
        counts = np.eye(self.k, dtype=np.int64)[profile].sum(axis=0)
        worst = 0.0
        for i, a in enumerate(profile):
            c = self._rank(counts - np.eye(self.k, dtype=np.int64)[a])
            worst = max(worst, float(self.base[i, c].max() - self.values[i, c, a]))
        return worst


def check_equilibrium(table: ProfileTable, eps: float, out: str) -> list[str]:
    obj = json.loads(out)
    first = table.first_admissible(eps)
    if not obj["found"]:
        return [] if first is None else [f"search found nothing, but profile {first} has regret <= {eps}"]
    index = int(np.ravel_multi_index(tuple(obj["profile"]), (table.k,) * table.n))
    if index != first:
        return [f"profile {obj['profile']} (regret {table.max_regret[index]}) is not the first admissible one ({first})"]
    problems = []
    if abs(obj["max_regret"] - table.max_regret[index]) > 1e-9:
        problems.append(f"reported regret {obj['max_regret']}, enumeration gives {table.max_regret[index]}")
    if abs(obj["unperturbed_regret"] - table.unperturbed_regret(index)) > 1e-9:
        problems.append("unperturbed regret disagrees with the enumeration")
    return problems


CLI_CHECKS = {
    "lambda": check_lambda,
    "sweep": check_sweep,
    "delta-star": check_delta_star,
    "verify": check_verify,
    "coupling": check_coupling,
    "meet-time": check_meet_time,
}
