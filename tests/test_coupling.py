import math

import numpy as np
import pytest

from lipgames import (
    mirrored_action_counts,
    passage_prob,
    perturbed_action_law,
    simulate_coupling,
    simulate_meet_time,
)
from lipgames.coupling import BLOCK_SIZE, _block_rng, _block_sizes


def test_no_steps_means_never_met():
    est = simulate_coupling(0, 3, 0.3, 500, seed=1)
    assert est.estimate == 1.0
    assert est.std_error == 0.0
    res = simulate_meet_time(0, 3, 0.3, 500, seed=1)
    assert res.counts[1] == 500  # the never slot for n = 0
    assert res.transitions.sum() == 0


def test_estimate_fields():
    est = simulate_coupling(5, 2, 0.4, 2000, seed=9)
    assert 0.0 <= est.estimate <= 1.0
    assert est.std_error == pytest.approx(
        math.sqrt(est.estimate * (1.0 - est.estimate) / 2000), abs=1e-15
    )
    assert est.samples == 2000 and est.seed == 9


@pytest.mark.parametrize("n,k,delta", [(12, 3, 0.3), (8, 2, 0.2), (15, 4, 0.6)])
def test_estimate_matches_exact_within_four_sigma(n, k, delta):
    samples = 120_000
    est = simulate_coupling(n, k, delta, samples, seed=314)
    exact = passage_prob(n, 2.0 * delta / k)
    assert abs(est.estimate - exact) <= 4.0 * est.std_error


def test_bit_for_bit_determinism():
    first = simulate_coupling(10, 3, 0.3, 70_001, seed=77)
    second = simulate_coupling(10, 3, 0.3, 70_001, seed=77)
    assert first == second
    third = simulate_coupling(10, 3, 0.3, 70_001, seed=78)
    assert third.estimate != first.estimate


def test_meet_time_histogram_consistency():
    samples = 50_000
    res = simulate_meet_time(9, 3, 0.5, samples, seed=5)
    assert res.counts[0] == 0
    assert res.counts.sum() == samples
    est = simulate_coupling(9, 3, 0.5, samples, seed=5)
    # identical streams: the never counts agree exactly
    assert res.counts[-1] == round(est.estimate * samples)


def test_transition_frequencies():
    res = simulate_meet_time(20, 3, 0.3, 100_000, seed=123)
    total = res.transitions.sum()
    rate = 0.3 / 3
    for observed, expected in zip(res.transitions, (rate, 1 - 2 * rate, rate)):
        freq = observed / total
        sigma = math.sqrt(expected * (1 - expected) / total)
        assert abs(freq - expected) <= 4 * sigma


def test_rare_moves_concentrate_on_never():
    samples = 20_000
    res = simulate_meet_time(10, 5, 0.01, samples, seed=4)
    exact = passage_prob(10, 2 * 0.01 / 5)
    assert exact > 0.97  # almost all mass sits on never meeting
    sigma = math.sqrt(exact * (1 - exact) / samples)
    assert abs(res.counts[-1] / samples - exact) <= 4 * sigma


def test_mirrored_marginals_match_perturbed_law():
    n, k, delta, samples = 6, 3, 0.3, 150_000
    counts = mirrored_action_counts(n, k, delta, samples, seed=42)
    law = perturbed_action_law(2, k, delta)
    assert counts.shape == (n, k)
    assert np.all(counts.sum(axis=1) == samples)
    for i in range(n):
        for j in range(k):
            sigma = math.sqrt(law[j] * (1 - law[j]) / samples)
            assert abs(counts[i, j] / samples - law[j]) <= 4 * sigma


def test_mirrored_marginals_with_custom_baseline():
    counts = mirrored_action_counts(4, 4, 0.5, 80_000, seed=11, baseline=1)
    law = perturbed_action_law(1, 4, 0.5)
    for j in range(4):
        sigma = math.sqrt(law[j] * (1 - law[j]) / 80_000)
        assert abs(counts[0, j] / 80_000 - law[j]) <= 4 * sigma


def _mirrored_counts_by_bincount(n, k, delta, samples, seed, baseline):
    """The mirrored tally built from the realised actions, one bincount per step."""
    table = np.zeros((n, k), dtype=np.int64)
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for step in range(n):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            mirrored = np.where(~met & (u < 2), 1 - u, u)
            actions = np.where(chi, mirrored, baseline)
            table[step] += np.bincount(actions, minlength=k)
            active = chi & ~met
            gap += (active & (u == 1)).astype(np.int32)
            gap -= (active & (u == 0)).astype(np.int32)
            met |= gap == 1
    return table


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_mirrored_counts_match_bincount_tally_bitwise(k):
    samples = BLOCK_SIZE + 4321  # a full block and a partial one
    for baseline in range(min(k, 3)):
        for delta in (0.2, 0.85):
            args = (7, k, delta, samples, 1000 + 10 * k + baseline, baseline)
            counts = mirrored_action_counts(*args)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _mirrored_counts_by_bincount(*args))


def test_parameter_validation():
    with pytest.raises(ValueError):
        simulate_coupling(-1, 3, 0.3, 100, seed=0)
    with pytest.raises(ValueError):
        simulate_coupling(5, 1, 0.3, 100, seed=0)
    with pytest.raises(ValueError):
        simulate_coupling(5, 3, 0.0, 100, seed=0)
    with pytest.raises(ValueError):
        simulate_coupling(5, 3, 0.3, 0, seed=0)
    with pytest.raises(ValueError):
        simulate_coupling(5, 3, 0.3, 100, seed=0, baseline=3)
