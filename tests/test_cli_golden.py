"""Exact stdout of every CLI command in every output format.

The instances are small or dyadic (delta = 0.5 or 0.25 with k = 2 or 4,
so every action law is dyadic), which keeps the printed 15 significant
digits independent of summation order.  Rounding residues, such as
verify's ``max_deviation``, are checked by structure only.  The two
``delta-star`` cases at n = 1000 and 301 are the exception: they pin the
points the fixed-point search visits, residual digits included.
"""

import re

import pytest

import lipgames.cli
from lipgames.cli import main

GOLDEN = [
    ("lambda --n 3 --k 2 --delta 0.5",
     "n = 3\nk = 2\ndelta = 0.5\nlambda = 0.375\nlower = 0.3125\nupper = 0.395284707521047\n"
     "method = odd-bracket\nasymptotic = 0.265961520267622\n"),
    ("lambda --n 3 --k 2 --delta 0.5 --json",
     '{"asymptotic": 0.265961520267622, "delta": 0.5, "k": 2, "lambda": 0.375, "lower": 0.3125, '
     '"method": "odd-bracket", "n": 3, "upper": 0.395284707521047}\n'),
    ("lambda --n 6 --k 4 --delta 0.5 --method formula",
     "n = 6\nk = 4\ndelta = 0.5\nlambda = 0.325927734375\nlower = 0.325927734375\n"
     "upper = 0.325927734375\nmethod = walk-closed-form\nasymptotic = 0.32573500793528\n"),
    ("lambda --n 4 --k 2 --delta 0.5 --method both",
     "n = 4\nk = 2\ndelta = 0.5\nlambda = 0.3125\nlower = 0.3125\nupper = 0.3125\n"
     "method = even-walk\nasymptotic = 0.23032943298089\noracle = 0.3125\ndifference = 0\n"
     "worst_class = (1, 1)\n"),
    ("lambda --n 4 --k 2 --delta 0.5 --method both --json",
     '{"asymptotic": 0.23032943298089, "delta": 0.5, "difference": 0.0, "k": 2, "lambda": 0.3125, '
     '"lower": 0.3125, "method": "even-walk", "n": 4, "oracle": 0.3125, "upper": 0.3125, '
     '"worst_class": [1, 1]}\n'),
    ("lambda --n 5 --k 4 --delta 0.5 --method oracle",
     "n = 5\nk = 4\ndelta = 0.5\nlambda = 0.3544921875\nlower = 0.3544921875\n"
     "upper = 0.3544921875\nmethod = oracle\nasymptotic = 0.356824823230554\n"
     "worst_class = (0, 0, 0, 3)\n"),
    ("lambda --n 5 --k 4 --delta 0.5 --method oracle --json",
     '{"asymptotic": 0.356824823230554, "delta": 0.5, "k": 4, "lambda": 0.3544921875, '
     '"lower": 0.3544921875, "method": "oracle", "n": 5, "upper": 0.3544921875, '
     '"worst_class": [0, 0, 0, 3]}\n'),
    ("sweep --n-start 2 --n-stop 6 --n-step 2 --k 4 --delta 0.5 --delta 0.25",
     "n,k,delta,lambda,lower,upper,asymptotic,ratio\n"
     "2,4,0.5,0.5,0.5,0.5,0.564189583547756,0.886226925452758\n"
     "2,4,0.25,0.75,0.75,0.75,1.1968268412043,0.62665706865775\n"
     "4,4,0.5,0.390625,0.390625,0.390625,0.398942280401433,0.979151669777734\n"
     "4,4,0.25,0.662109375,0.662109375,0.662109375,0.846284375321634,0.782372207626263\n"
     "6,4,0.5,0.325927734375,0.325927734375,0.325927734375,0.32573500793528,1.00059166633928\n"
     "6,4,0.25,0.594154357910156,0.594154357910156,0.594154357910156,0.690988298942671,"
     "0.859861677570102\n"),
    ("sweep --n-start 2 --n-stop 4 --k 2 --delta 0.5 --format json",
     '[{"asymptotic": 0.32573500793528, "delta": 0.5, "k": 2, "lambda": 0.5, "lower": 0.5, "n": 2, '
     '"ratio": 1.53499006191973, "upper": 0.5}, {"asymptotic": 0.265961520267622, "delta": 0.5, '
     '"k": 2, "lambda": 0.375, "lower": 0.3125, "n": 3, "ratio": 1.40997840447994, '
     '"upper": 0.395284707521047}, {"asymptotic": 0.23032943298089, "delta": 0.5, "k": 2, '
     '"lambda": 0.3125, "lower": 0.3125, "n": 4, "ratio": 1.35675235229675, "upper": 0.3125}]\n'),
    ("coupling --n 8 --k 4 --delta 0.5 --samples 4096 --seed 3",
     "n = 8\nk = 4\ndelta = 0.5\nsamples = 4096\nseed = 3\nestimate = 0.502685546875\n"
     "std_error = 0.00781238730915572\nexact = 0.508153319358826\nz_score = -0.699884973370156\n"),
    ("coupling --n 8 --k 4 --delta 0.5 --samples 4096 --seed 3 --json",
     '{"delta": 0.5, "estimate": 0.502685546875, "exact": 0.508153319358826, "k": 4, "n": 8, '
     '"samples": 4096, "seed": 3, "std_error": 0.00781238730915572, "z_score": -0.699884973370156}\n'),
    ("meet-time --n 4 --k 4 --delta 0.5 --samples 4096 --seed 3",
     "n = 4\nk = 4\ndelta = 0.5\nsamples = 4096\nseed = 3\nfreq_down = 0.122714640924382\n"
     "freq_stay = 0.747842621032617\nfreq_up = 0.129442738043001\nrate_down = 0.125\n"
     "rate_stay = 0.75\nrate_up = 0.125\nstep,count\n1,532\n2,401\n3,312\n4,234\nnever,2617\n"),
    ("meet-time --n 4 --k 4 --delta 0.5 --samples 4096 --seed 3 --json",
     '{"counts": [0, 532, 401, 312, 234, 2617], "delta": 0.5, "freq_down": 0.122714640924382, '
     '"freq_stay": 0.747842621032617, "freq_up": 0.129442738043001, "k": 4, "n": 4, '
     '"rate_down": 0.125, "rate_stay": 0.75, "rate_up": 0.125, "samples": 4096, "seed": 3}\n'),
    ("meet-time --n 0 --k 4 --delta 0.5 --samples 10 --seed 1",
     "n = 0\nk = 4\ndelta = 0.5\nsamples = 10\nseed = 1\nfreq_down = 0\nfreq_stay = 0\n"
     "freq_up = 0\nrate_down = 0.125\nrate_stay = 0.75\nrate_up = 0.125\nstep,count\nnever,10\n"),
    ("equilibrium --party 4 --delta 0.5",
     "n = 4\nk = 2\ndelta = 0.5\nepsilon = 1.25\nfound = True\nprofile = (0, 0, 0, 0)\n"
     "max_regret = 0.03125\nunperturbed_guarantee = 0.53125\nunperturbed_regret = 0.046875\n"),
    ("equilibrium --party 4 --delta 0.5 --json",
     '{"delta": 0.5, "epsilon": 1.25, "found": true, "k": 2, "max_regret": 0.03125, "n": 4, '
     '"profile": [0, 0, 0, 0], "unperturbed_guarantee": 0.53125, "unperturbed_regret": 0.046875}\n'),
    ("equilibrium --party 3 --delta 0 --epsilon 0.25",
     "n = 3\nk = 2\ndelta = 0\nepsilon = 0.25\nfound = False\n"),
    ("equilibrium --party 3 --delta 0 --epsilon 0.25 --json",
     '{"delta": 0.0, "epsilon": 0.25, "found": false, "k": 2, "n": 3}\n'),
    ("delta-star --n 2 --k 3",
     "n = 2\nk = 3\ndelta_star = 0.5\nlambda_star = 0.5\nepsilon = 1\nresidual = 0\n"),
    ("delta-star --n 2 --k 3 --json",
     '{"delta_star": 0.5, "epsilon": 1.0, "k": 3, "lambda_star": 0.5, "n": 2, "residual": 0.0}\n'),
    ("delta-star --n 1000 --k 3 --json",
     '{"delta_star": 0.0922350227555591, "epsilon": 0.184470045511118, "k": 3, '
     '"lambda_star": 0.0922350227554369, "n": 1000, "residual": 1.22291066162461e-13}\n'),
    ("delta-star --n 301 --k 2",
     "n = 301\nk = 2\ndelta_star = 0.0973524913643801\nlambda_star = 0.0973524912815495\n"
     "epsilon = 0.19470498272876\nresidual = 8.28306173650262e-11\n"),
]

SWEEP = ["sweep", "--n-start", "2", "--n-stop", "4", "--k", "2", "--delta", "0.5"]
SWEEP_FILES = {
    "csv": "n,k,delta,lambda,lower,upper,asymptotic,ratio\n"
           "2,2,0.5,0.5,0.5,0.5,0.32573500793528,1.53499006191973\n"
           "3,2,0.5,0.375,0.3125,0.395284707521047,0.265961520267622,1.40997840447994\n"
           "4,2,0.5,0.3125,0.3125,0.3125,0.23032943298089,1.35675235229675\n",
    "json": dict(GOLDEN)[" ".join(SWEEP + ["--format", "json"])],
}


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_is_pinned(capsys, argv, expected):
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("fmt", sorted(SWEEP_FILES))
def test_sweep_output_file_is_pinned(tmp_path, capsys, fmt):
    path = tmp_path / f"sweep.{fmt}"
    assert main(SWEEP + ["--format", fmt, "--output", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == SWEEP_FILES[fmt].encode()


VERIFY_LINES = re.compile(
    r"cases = 125\n"
    r"max_deviation = (?P<dev>\S+)\n"
    r"worst_case = \(n=(?P<n>\d+), k=(?P<k>[234]), delta=(?P<delta>0\.\d+)\)\n"
    r"tolerance = (?P<tol>\S+)\n"
    r"verify: (?P<verdict>PASS|FAIL)\n"
)


def test_verify_pass_is_pinned(capsys):
    assert main(["verify"]) == 0
    out, err = capsys.readouterr()
    match = VERIFY_LINES.fullmatch(out)
    assert match and err == ""
    assert (match["tol"], match["verdict"]) == ("1e-09", "PASS")
    assert 0.0 < float(match["dev"]) <= 1e-9
    assert float(match["delta"]) in lipgames.cli.VERIFY_DELTAS


def test_verify_fail_is_pinned(capsys, monkeypatch):
    monkeypatch.setattr(lipgames.cli, "VERIFY_TOL", 0)
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    match = VERIFY_LINES.fullmatch(out)
    assert match and err == ""
    assert (match["tol"], match["verdict"]) == ("0", "FAIL")
    assert float(match["dev"]) > 0.0
