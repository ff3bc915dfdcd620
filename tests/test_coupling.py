import math
import sys
import threading

import numpy as np
import pytest

from lipgames import (
    coupling,
    mirrored_action_counts,
    passage_prob,
    perturbed_action_law,
    simulate_coupling,
    simulate_meet_time,
)
from lipgames.coupling import BLOCK_SIZE, _block_rng, _block_sizes
from lipgames.errors import BudgetExceededError


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


# The three block loops the shared kernel replaced, kept as references.


def _reference_never(n, k, delta, samples, seed):
    never = 0
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for _ in range(n):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            active = chi & ~met
            gap += (active & (u == 1)).astype(np.int32)
            gap -= (active & (u == 0)).astype(np.int32)
            met |= gap == 1
        never += int((~met).sum())
    return never


def _reference_meet_time(n, k, delta, samples, seed):
    counts = np.zeros(n + 2, dtype=np.int64)
    transitions = np.zeros(3, dtype=np.int64)
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for step in range(1, n + 1):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            alive = ~met
            active = chi & alive
            down = active & (u == 0)
            up = active & (u == 1)
            n_down = int(down.sum())
            n_up = int(up.sum())
            transitions[0] += n_down
            transitions[1] += int(alive.sum()) - n_down - n_up
            transitions[2] += n_up
            gap += up.astype(np.int32)
            gap -= down.astype(np.int32)
            newly = alive & (gap == 1)
            counts[step] += int(newly.sum())
            met |= newly
        counts[n + 1] += int((~met).sum())
    return counts, transitions


def _reference_mirrored(n, k, delta, samples, seed, baseline):
    table = np.zeros((n, k), dtype=np.int64)
    for block, size in enumerate(_block_sizes(samples)):
        rng = _block_rng(seed, block)
        met = np.zeros(size, dtype=bool)
        gap = np.zeros(size, dtype=np.int32)
        for step in range(n):
            chi = rng.random(size) < delta
            u = rng.integers(0, k, size)
            drawn = [chi & (u == j) for j in range(k)]
            row = table[step]
            row += [np.count_nonzero(d) for d in drawn]
            row[baseline] += size - np.count_nonzero(chi)
            alive = ~met
            down = drawn[0] & alive
            up = drawn[1] & alive
            moved = np.count_nonzero(up) - np.count_nonzero(down)
            row[0] += moved
            row[1] -= moved
            gap += up.astype(np.int32)
            gap -= down.astype(np.int32)
            met |= gap == 1
    return table


@pytest.mark.parametrize("samples", (1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 4321))
@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_kernel_matches_reference_block_loops_bitwise(k, samples):
    for n in (0, 1, 21):
        delta = (0.15, 0.5, 0.9)[n % 3]
        seed = 7000 + 100 * k + n
        est = simulate_coupling(n, k, delta, samples, seed)
        never = _reference_never(n, k, delta, samples, seed)
        expected = never / samples
        assert est == coupling.CouplingEstimate(
            expected, math.sqrt(expected * (1.0 - expected) / samples), samples, seed
        )
        res = simulate_meet_time(n, k, delta, samples, seed)
        counts, transitions = _reference_meet_time(n, k, delta, samples, seed)
        assert res.counts.dtype == np.int64 and res.transitions.dtype == np.int64
        assert np.array_equal(res.counts, counts)
        assert np.array_equal(res.transitions, transitions)
        for baseline in range(k):
            table = mirrored_action_counts(n, k, delta, samples, seed, baseline)
            assert table.dtype == np.int64 and table.shape == (n, k)
            assert np.array_equal(table, _reference_mirrored(n, k, delta, samples, seed, baseline))


def test_results_do_not_depend_on_the_block_schedule(monkeypatch):
    args = (13, 4, 0.6, 4 * BLOCK_SIZE + 17, 2024)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(coupling, "_cpu_count", lambda: cpus)
        meet = simulate_meet_time(*args)
        runs.append((simulate_coupling(*args), meet.counts, meet.transitions,
                     mirrored_action_counts(*args, baseline=3)))
    (est1, *arrays1), (est2, *arrays2) = runs
    assert est1 == est2
    assert all(np.array_equal(a, b) for a, b in zip(arrays1, arrays2))


@pytest.mark.parametrize("size", (1, 2, 8191, 8193, BLOCK_SIZE + 1))
@pytest.mark.parametrize("k", (2, 3, 5, 7))
def test_int32_action_draw_matches_default_int64_draw(k, size):
    """The kernel draws actions as int32; numpy must keep that stream-identical."""
    wide, narrow = _block_rng(31, k), _block_rng(31, k)
    for _ in range(3):
        a = wide.integers(0, k, size)
        b = narrow.integers(0, k, size, dtype=np.int32)
        assert a.dtype == np.int64 and b.dtype == np.int32
        assert np.array_equal(a, b)
        assert wide.bit_generator.state == narrow.bit_generator.state
        # Uniforms skip a buffered half draw, so the next action draws
        # must still agree.
        wide.random(size)
        narrow.random(size)


@pytest.mark.parametrize("size", (1, 2, 8191, BLOCK_SIZE + 1))
@pytest.mark.parametrize("k", (2, 3, 4, 5, 6, 7, 2**30 + 1))
def test_raw_words_reproduce_the_int32_action_draw(k, size):
    """The kernel's raw words, cut at the edges, are the actions of ``integers(0, k, dtype=np.int32)``.

    They must also leave the generator where the int32 draw does: the same
    PCG64 state, with the carried word as numpy's buffered half output.
    """
    reference, raw = _block_rng(33, k), _block_rng(33, k)
    carry, low = np.empty(0, dtype=np.uint32), np.empty(size, dtype=np.uint32)
    for _ in range(3):
        actions = reference.integers(0, k, size, dtype=np.int32)
        words, carry, _ = coupling._draw_words(raw.bit_generator, carry, k, low)
        assert words.size == size
        assert np.array_equal(words.astype(np.uint64) * k >> 32, actions)  # Lemire's action
        assert np.array_equal(words < coupling._edge(1, k), actions == 0)
        assert np.array_equal(words <= coupling._edge(2, k) - 1, actions <= 1)
        if k <= 7:
            below = [np.count_nonzero(words < coupling._edge(j, k)) for j in range(1, k)]
            assert np.array_equal(np.diff([0, *below, size]), np.bincount(actions, minlength=k))
        state = reference.bit_generator.state
        assert raw.bit_generator.state["state"] == state["state"]
        assert carry.size == state["has_uint32"]
        assert carry.tolist() == [state["uinteger"]] * carry.size
        reference.random(size)
        raw.random(size)


@pytest.mark.parametrize("size", (1, 8191, 8192, 8193, BLOCK_SIZE - 5, BLOCK_SIZE))
def test_chunked_uniform_draw_matches_one_call(size):
    """The kernel refills one reused buffer with ``random(out=)``; the stream must
    match a fresh ``random(size)`` array."""
    whole, buffered = _block_rng(5, size), _block_rng(5, size)
    buffer = np.empty(size)
    for _ in range(2):
        expected = whole.random(size)
        buffered.random(out=buffer)
        assert np.array_equal(expected, buffer)
        assert whole.bit_generator.state == buffered.bit_generator.state
        whole.integers(0, 3, 3)  # an odd draw count leaves a buffered half
        buffered.integers(0, 3, 3, dtype=np.int32)


def _position(rng):
    """Where a generator stands: its PCG64 state and whether half an output is buffered."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"]


@pytest.mark.parametrize("size", (2, 8192, BLOCK_SIZE))
@pytest.mark.parametrize("k", (2, 3, 5, 7))
def test_piece_skips_reproduce_the_unsplit_stream(k, size):
    """A piece skips the other's share with advance(): one output per uniform, two actions per output.

    If numpy changed this layout, every split block would slip and be walked
    again whole; the results would stay right and the speed-up would go.
    """
    for cut in sorted({0, 2, size // 4 * 2, size - 2, size}):
        whole, head, tail = (_block_rng(40 + k, size) for _ in range(3))
        for _ in range(2):  # two steps, as the kernel draws them
            uniforms = whole.random(size)
            actions = whole.integers(0, k, size, dtype=np.int32)
            first = head.random(cut)
            head.bit_generator.advance(size - cut)
            first_actions = head.integers(0, k, cut, dtype=np.int32)
            head.bit_generator.advance((size - cut) // 2)
            tail.bit_generator.advance(cut)
            rest = tail.random(size - cut)
            tail.bit_generator.advance(cut // 2)
            rest_actions = tail.integers(0, k, size - cut, dtype=np.int32)
            assert np.array_equal(np.concatenate([first, rest]), uniforms)
            assert np.array_equal(np.concatenate([first_actions, rest_actions]), actions)
        assert _position(head) == _position(tail) == _position(whole)


@pytest.mark.parametrize("samples", (100_000, 110_000), ids=("helper-piece", "caller-piece"))
@pytest.mark.parametrize("k", (3, 5))
def test_rejected_action_draw_in_the_cut_block_rewalks_it(monkeypatch, k, samples):
    """A zero 32-bit word among block 0's actions makes numpy redraw it (k = 3 or 5).

    Seed 3407 was found by scanning seeds 0..5999 at n = 12: for each step,
    advance block 0's generator past the 65,536 uniforms, then view the
    32,768 outputs of ``random_raw`` as 32-bit words and look for a zero.
    Seeds 165 and 3407 have one; 3407's is word 51,831 of step 8, so it
    falls in the helper's piece at 100,000 samples (cut 50,000) and in the
    caller's at 110,000 (cut 55,000).  The redraw shifts the rest of the
    block's stream by one word, so both pieces must be dropped.
    """
    n, delta, seed = 12, 0.45, 3407
    kernel = coupling._walk_block
    calls, slips = [], []

    def spy(n, k, delta, seed, block, size, lo, hi, tally=None):
        calls.append((block, lo, hi))
        try:
            return kernel(n, k, delta, seed, block, size, lo, hi, tally)
        except coupling._StreamSlip:
            slips.append((block, lo, hi))
            raise

    monkeypatch.setattr(coupling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(coupling, "_walk_block", spy)
    cut = samples // 4 * 2
    piece = (0, 0, cut) if samples == 110_000 else (0, cut, BLOCK_SIZE)
    checks = (
        (lambda: simulate_coupling(n, k, delta, samples, seed).estimate,
         lambda: _reference_never(n, k, delta, samples, seed) / samples),
        (lambda: simulate_meet_time(n, k, delta, samples, seed).counts,
         lambda: _reference_meet_time(n, k, delta, samples, seed)[0]),
        (lambda: simulate_meet_time(n, k, delta, samples, seed).transitions,
         lambda: _reference_meet_time(n, k, delta, samples, seed)[1]),
        (lambda: mirrored_action_counts(n, k, delta, samples, seed, 1),
         lambda: _reference_mirrored(n, k, delta, samples, seed, 1)),
    )
    for got, expected in checks:
        calls.clear()
        slips.clear()
        assert np.array_equal(got(), expected())
        assert slips == [piece]
        assert calls[-1] == (0, 0, BLOCK_SIZE)  # the re-walk, after both pieces


@pytest.mark.parametrize("k", (3, 5))
def test_rejected_action_draw_in_a_whole_block_matches_the_reference_loops(monkeypatch, k):
    """Seed 3407's zero word (see above) redrawn inside a block walked whole, on one CPU."""
    n, delta, seed, samples = 12, 0.45, 3407, 100_000
    monkeypatch.setattr(coupling, "_cpu_count", lambda: 1)
    assert simulate_coupling(n, k, delta, samples, seed).estimate == (
        _reference_never(n, k, delta, samples, seed) / samples
    )
    res = simulate_meet_time(n, k, delta, samples, seed)
    counts, transitions = _reference_meet_time(n, k, delta, samples, seed)
    assert np.array_equal(res.counts, counts) and np.array_equal(res.transitions, transitions)
    for baseline in (1, 2):
        assert np.array_equal(mirrored_action_counts(n, k, delta, samples, seed, baseline),
                              _reference_mirrored(n, k, delta, samples, seed, baseline))


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("samples", (1, 7, 4001, BLOCK_SIZE + 3))
def test_frequent_rejections_match_the_reference_loops(monkeypatch, samples, cpus):
    """At k = 2**30 + 1 numpy redraws 2**32 mod k = 2**30 - 3 of the 2**32 words, about a quarter.

    Odd widths leave half an output buffered between steps; on two CPUs
    the cut block slips and is walked again whole.
    """
    n, k, delta, seed = 6, 2**30 + 1, 0.7, 90 + samples
    monkeypatch.setattr(coupling, "_cpu_count", lambda: cpus)
    assert simulate_coupling(n, k, delta, samples, seed).estimate == (
        _reference_never(n, k, delta, samples, seed) / samples
    )
    res = simulate_meet_time(n, k, delta, samples, seed)
    counts, transitions = _reference_meet_time(n, k, delta, samples, seed)
    assert np.array_equal(res.counts, counts) and np.array_equal(res.transitions, transitions)
    # The walk hardly ever moves at this k, so also check the draws the
    # kernel hands its tally against the reference stream.
    for block, size in enumerate(_block_sizes(samples)):
        drawn = []

        def tally(step, chi, words, *moves):
            drawn.append((chi.copy(), words.astype(np.uint64) * k >> 32))

        coupling._walk_block(n, k, delta, seed, block, size, 0, size, tally)
        rng = _block_rng(seed, block)
        for chi, actions in drawn:
            assert np.array_equal(chi, rng.random(size) < delta)
            assert np.array_equal(actions, rng.integers(0, k, size))


def test_helper_thread_error_reraises_in_caller(monkeypatch):
    kernel = coupling._walk_block
    threads = set()

    def failing(n, k, delta, seed, block, size, lo, hi, tally=None):
        if block == 2:
            threads.add(threading.current_thread() is threading.main_thread())
            raise RuntimeError("block 2 failed")
        return kernel(n, k, delta, seed, block, size, lo, hi, tally)

    monkeypatch.setattr(coupling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(coupling, "_walk_block", failing)
    for simulate in (simulate_coupling, simulate_meet_time, mirrored_action_counts):
        with pytest.raises(RuntimeError, match="block 2 failed"):
            simulate(5, 3, 0.4, 3 * BLOCK_SIZE, seed=1)
    assert threads == {False}  # the helper walks the second half, block 2 included
    assert all(t.name != "lipgames-coupling" for t in threading.enumerate())


def test_caller_error_stops_the_helper_after_its_current_block(monkeypatch):
    helper_walking, joining = threading.Event(), threading.Event()

    class Thread(threading.Thread):
        def join(self, timeout=None):
            joining.set()  # the caller has recorded its failure and waits for the helper
            super().join(timeout)

    walked = []

    def part(block, size, lo, hi):
        if threading.current_thread() is threading.main_thread():
            assert helper_walking.wait(10)
            raise RuntimeError("block 0 failed")
        walked.append(block)
        helper_walking.set()
        assert joining.wait(10)  # the helper's block 2 ends only once the caller has failed
        return block

    monkeypatch.setattr(coupling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(coupling.threading, "Thread", Thread)
    with pytest.raises(RuntimeError, match="block 0 failed"):
        coupling._map_blocks(4 * BLOCK_SIZE, part)  # the caller walks blocks 0-1, the helper 2-3
    assert walked == [2]
    assert all(t.name != "lipgames-coupling" for t in threading.enumerate())


def test_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(coupling.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(coupling.os, "cpu_count", lambda: 3)
    assert coupling._cpu_count() == 3
    monkeypatch.setattr(coupling.os, "cpu_count", lambda: None)
    assert coupling._cpu_count() == 1


def test_block_order_holds_under_rapid_thread_switches(monkeypatch):
    monkeypatch.setattr(coupling, "_cpu_count", lambda: 2)
    samples = 151 * BLOCK_SIZE + 1
    half = BLOCK_SIZE // 2  # the cut falls at 75.5 blocks
    on_caller = [(block, BLOCK_SIZE, 0, BLOCK_SIZE, True) for block in range(75)]
    on_helper = [(block, BLOCK_SIZE, 0, BLOCK_SIZE, False) for block in range(76, 151)]
    expected = [*on_caller, (75, BLOCK_SIZE, 0, half, True), (75, BLOCK_SIZE, half, BLOCK_SIZE, False),
                *on_helper, (151, 1, 0, 1, False)]

    def part(*part):
        return (*part, threading.current_thread() is threading.main_thread())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert coupling._map_blocks(samples, part) == expected
    finally:
        sys.setswitchinterval(interval)


def test_single_block_or_single_cpu_uses_no_helper(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    kernel = coupling._walk_block
    parts = []

    def whole(n, k, delta, seed, block, size, lo, hi, tally=None):
        parts.append((block, size, lo, hi))
        return kernel(n, k, delta, seed, block, size, lo, hi, tally)

    monkeypatch.setattr(coupling, "_walk_block", whole)
    monkeypatch.setattr(coupling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(coupling.threading, "Thread", no_thread)
    simulate_coupling(4, 3, 0.4, BLOCK_SIZE, seed=2)
    monkeypatch.setattr(coupling, "_cpu_count", lambda: 1)
    simulate_meet_time(4, 3, 0.4, 2 * BLOCK_SIZE + 1, seed=2)
    # neither splits a block
    assert parts == [(0, BLOCK_SIZE, 0, BLOCK_SIZE), (0, BLOCK_SIZE, 0, BLOCK_SIZE),
                     (1, BLOCK_SIZE, 0, BLOCK_SIZE), (2, 1, 0, 1)]


def test_replication_step_budget_is_checked_before_running(monkeypatch):
    limit, floor = coupling.MAX_REP_STEPS, coupling._MIN_CHARGED
    assert coupling._check_params(limit // 10**6, 3, 0.3, 10**6, 0)[3] == 10**6
    for simulate in (simulate_coupling, simulate_meet_time, mirrored_action_counts):
        with pytest.raises(BudgetExceededError):
            simulate(10**6, 3, 0.3, limit // 10**6 + 1, seed=0)
        with pytest.raises(BudgetExceededError):
            simulate(0, 3, 0.3, limit + 1, seed=0)
        with pytest.raises(BudgetExceededError):  # one sample is charged as the floor
            simulate(limit // floor + 1, 3, 0.3, 1, seed=0)
    monkeypatch.setattr(coupling, "MAX_REP_STEPS", 5 * floor)
    assert simulate_meet_time(5, 3, 0.3, floor, seed=0).counts.sum() == floor
    assert simulate_meet_time(5, 3, 0.3, 1, seed=0).counts.sum() == 1
    with pytest.raises(BudgetExceededError):
        simulate_meet_time(5, 3, 0.3, floor + 1, seed=0)
    with pytest.raises(BudgetExceededError):
        simulate_meet_time(6, 3, 0.3, 1, seed=0)


def test_action_count_is_capped_at_two_to_the_31(monkeypatch):
    largest = coupling.MAX_ACTIONS
    assert largest == 2**31  # the largest k of integers(0, k, dtype=np.int32)
    assert simulate_coupling(3, largest, 0.3, 100, seed=1).estimate == 1.0
    assert simulate_meet_time(3, largest, 0.3, 100, seed=1).counts[-1] == 100
    assert mirrored_action_counts(0, largest, 0.3, 100, seed=1).shape == (0, largest)

    def no_walk(*args):
        raise AssertionError("a block was walked")

    monkeypatch.setattr(coupling, "_map_blocks", no_walk)
    for simulate in (simulate_coupling, simulate_meet_time, mirrored_action_counts):
        for k in (largest + 1, 2**32):
            with pytest.raises(BudgetExceededError, match="action draw needs"):
                simulate(3, k, 0.3, 100, seed=1)


def test_mirrored_table_cells_are_checked_before_running(monkeypatch):
    limit = coupling.MAX_TABLE_CELLS
    walk = coupling._map_blocks

    def no_walk(*args):
        raise AssertionError("a block was walked")

    monkeypatch.setattr(coupling, "_map_blocks", no_walk)
    with pytest.raises(BudgetExceededError, match="cells"):  # one table, one step too wide
        mirrored_action_counts(1, limit + 1, 0.3, 1, seed=0)
    with pytest.raises(BudgetExceededError, match="cells"):  # one table, too many steps
        mirrored_action_counts(limit // 4 + 1, 4, 0.3, 1, seed=0)
    with pytest.raises(BudgetExceededError, match="cells"):  # one table per block
        mirrored_action_counts(10, 10, 0.3, (limit // 100) * BLOCK_SIZE + 1, seed=0)
    monkeypatch.setattr(coupling, "_map_blocks", walk)
    # The coupling and meet-time walks keep no table.
    assert simulate_coupling(1, limit + 1, 0.3, 100, seed=0).samples == 100
    assert simulate_meet_time(1, limit + 1, 0.3, 100, seed=0).counts.sum() == 100
    monkeypatch.setattr(coupling, "MAX_TABLE_CELLS", 3 * 4 * 5)
    assert np.all(mirrored_action_counts(3, 4, 0.3, 5 * BLOCK_SIZE, seed=0).sum(axis=1) == 5 * BLOCK_SIZE)
    with pytest.raises(BudgetExceededError, match="cells"):
        mirrored_action_counts(3, 4, 0.3, 5 * BLOCK_SIZE + 1, seed=0)


@pytest.mark.parametrize(
    "samples, seed, name", ((True, 0, "samples"), (100, 1.7, "seed")), ids=("bool-samples", "float-seed")
)
def test_non_integer_samples_and_seed_are_refused(samples, seed, name):
    with pytest.raises(ValueError, match=name):
        simulate_coupling(5, 3, 0.3, samples, seed)


@pytest.mark.parametrize("k, baseline", ((3, 3), (3, -1), (3, True), (2, 2)))
def test_bad_baseline_action_is_refused(k, baseline):
    with pytest.raises(ValueError, match="baseline action"):
        mirrored_action_counts(5, k, 0.3, 100, 1, baseline)


def test_only_the_mirrored_counts_check_a_baseline(monkeypatch):
    def no_index(*args):
        raise AssertionError("baseline checked")

    monkeypatch.setattr(coupling.checks, "index", no_index)
    assert simulate_coupling(5, 3, 0.3, 100, seed=1).samples == 100
    assert simulate_meet_time(5, 3, 0.3, 100, seed=1).counts.sum() == 100
    with pytest.raises(AssertionError, match="baseline checked"):
        mirrored_action_counts(5, 3, 0.3, 100, seed=1)
