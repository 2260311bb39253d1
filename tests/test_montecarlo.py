"""Simulation harness: determinism, statistical bounds, resource limits."""

import os
import subprocess
import sys
import tracemalloc
from concurrent import futures
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from faultypolar import (
    CodeConstruction,
    FaultSpec,
    ProxyComparison,
    ResourceLimitError,
    SimConfig,
    SimOutcome,
    binomial_ci95,
    compare_to_proxy,
    construct_code,
    encode,
    run_simulation,
)
from faultypolar import cli, montecarlo
from faultypolar.codec import _pack_frames, fault_slot_count
from faultypolar.montecarlo import (
    ROLE_CHANNEL,
    ROLE_FAULTS,
    ROLE_SOURCE,
    TRIAL_BYTES_CEILING,
    TRIALS_HARD_CAP,
    _chunk_trials,
    _draw_mask,
    _run_chunk,
    _source_bits,
    _substream_state,
    _trial_bytes,
    _word_threshold,
    substream,
)

ROLES = (ROLE_SOURCE, ROLE_CHANNEL, ROLE_FAULTS)


def _config(n=6, k=16, p=0.5, delta=0.0, trials=200, seed=0, mode=None, genie=False,
            n_u=None):
    fault = FaultSpec(delta=delta, unprotected_steps=n_u)
    if mode is not None:
        fault = replace(fault, correlation_mode=mode)
    code = construct_code(n, p, fault, k)
    return SimConfig(code=code, channel_erasure=p, fault=fault, trials=trials,
                     master_seed=seed, genie=genie)


def _fix_chunks(monkeypatch, trials):
    """Make run_simulation cut its trials into chunks of `trials`."""
    monkeypatch.setattr(montecarlo, "_chunk_trials", lambda *args: trials)


def test_noiseless_simulation_is_clean():
    outcome = run_simulation(_config(p=0.0, delta=0.0, trials=100))
    assert outcome.fer == 0.0 and outcome.ber == 0.0
    assert outcome.frame_erasures == 0 and outcome.info_bit_erasures == 0


def test_fully_faulty_simulation_always_fails():
    outcome = run_simulation(_config(p=0.3, delta=1.0, trials=100))
    assert outcome.fer == 1.0
    assert outcome.ber == 1.0


def test_determinism_across_chunking_and_threads(monkeypatch):
    config = _config(p=0.5, delta=1e-2, trials=1500, seed=77, genie=True)
    base = run_simulation(config)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)  # on any host
    for threads, chunk in [(1, 37), (2, 250), (4, 1500), (3, 499)]:
        _fix_chunks(monkeypatch, chunk)
        other = run_simulation(config, threads=threads)
        assert other.frame_erasures == base.frame_erasures
        assert other.info_bit_erasures == base.info_bit_erasures
        assert np.array_equal(other.per_bit_erasures, base.per_bit_erasures)
        assert other.fer_ci95 == base.fer_ci95


def test_same_config_same_outcome():
    config = _config(p=0.5, delta=1e-3, trials=400, seed=5, mode="independent_tree")
    a = run_simulation(config)
    b = run_simulation(config)
    assert a == b or (a.frame_erasures == b.frame_erasures
                      and a.info_bit_erasures == b.info_bit_erasures)


def test_substreams_are_disjoint_and_stable():
    a = substream(9, 4, ROLE_SOURCE).random(8)
    b = substream(9, 4, ROLE_CHANNEL).random(8)
    c = substream(9, 5, ROLE_SOURCE).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, substream(9, 4, ROLE_SOURCE).random(8))
    assert np.array_equal(b, substream(9, 4, ROLE_CHANNEL).random(8))
    assert ROLE_FAULTS != ROLE_CHANNEL != ROLE_SOURCE


def test_union_and_single_event_bounds():
    # genie accounting makes the sum of info-set Z an upper union bound and
    # the largest info-set Z a single-event lower bound on the frame rate
    for delta, mode in [(0.0, "shared"), (1e-2, "independent_tree"), (1e-2, "shared")]:
        config = _config(n=6, k=16, p=0.5, delta=delta, trials=4000, seed=21,
                         mode=mode, genie=True)
        outcome = run_simulation(config)
        report = compare_to_proxy(outcome, config.code)
        assert isinstance(report, ProxyComparison)
        assert report.upper_bound_holds, (delta, mode, report)
        assert report.lower_bound_holds, (delta, mode, report)


def test_ber_bounded_by_fer():
    for delta in (0.0, 1e-2, 0.1):
        outcome = run_simulation(_config(p=0.5, delta=delta, trials=1000,
                                         genie=True, seed=3))
        assert outcome.ber <= outcome.fer


def test_fer_nondecreasing_in_delta():
    deltas = (0.0, 1e-3, 1e-2, 1e-1)
    fault0 = FaultSpec(delta=0.0)
    code = construct_code(8, 0.5, fault0, 64)
    fers, sigmas = [], []
    for delta in deltas:
        fault = FaultSpec(delta=delta, correlation_mode="shared")
        config = SimConfig(code=code, channel_erasure=0.5, fault=fault,
                           trials=10_000, master_seed=13, genie=True)
        outcome = run_simulation(config)
        fers.append(outcome.fer)
        sigmas.append(np.sqrt(max(outcome.fer * (1 - outcome.fer), 1e-9) / outcome.frames))
    for i in range(len(deltas) - 1):
        tol = 4 * max(sigmas[i], sigmas[i + 1])
        assert fers[i + 1] >= fers[i] - tol, (deltas, fers)


def test_proxy_ratio_conventions():
    outcome = SimOutcome(frames=100, frame_erasures=0, info_bit_erasures=0,
                         fer=0.0, ber=0.0, fer_ci95=(0.0, 0.036))
    code = construct_code(3, 0.0, FaultSpec(), 4)  # p = 0: all Z are 0
    report = compare_to_proxy(outcome, code)
    assert report.proxy_sum == 0.0
    assert report.ratio == 1.0
    assert report.upper_bound_holds and report.lower_bound_holds


def test_resource_limits_reported_before_starting():
    with pytest.raises(ResourceLimitError):
        run_simulation(_config(trials=10**7 + 1))
    big = _config(n=10, k=512, trials=10**7)  # trials * N > 2**32
    with pytest.raises(ResourceLimitError):
        run_simulation(big)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(mode="coupled")
    config = _config(mode=None, delta=0.1)
    assert config.fault.correlation_mode == "independent_tree"  # inherited from the fault spec


def test_sim_config_refuses_a_code_without_information_bits():
    # it would divide by k = 0 when the bit erasure rate is taken
    code = construct_code(2, 0.5, FaultSpec(), 2)
    frozen = CodeConstruction(code.reliabilities, np.ones(code.N, dtype=bool))
    with pytest.raises(ValueError, match="no information bit"):
        SimConfig(code=frozen, channel_erasure=0.5, fault=FaultSpec(), trials=10,
                  master_seed=0)


def test_binomial_ci95():
    lo, hi = binomial_ci95(500, 1000)
    assert lo == pytest.approx(0.5 - 1.96 * np.sqrt(0.25 / 1000), abs=1e-3)
    assert hi == pytest.approx(0.5 + 1.96 * np.sqrt(0.25 / 1000), abs=1e-3)
    # small counts switch to Clopper-Pearson
    lo, hi = binomial_ci95(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 100), abs=1e-12)
    lo, hi = binomial_ci95(100, 100)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 100), abs=1e-12)
    lo, hi = binomial_ci95(3, 50)
    assert 0.0 < lo < 3 / 50 < hi < 1.0
    with pytest.raises(ValueError):
        binomial_ci95(1, 0)
    for count, n in ((-1, 10), (11, 10), (5, 3)):
        with pytest.raises(ValueError, match="count"):
            binomial_ci95(count, n)


def test_clopper_pearson_bounds_equal_the_beta_quantiles():
    # binomial_ci95 calls the inverse incomplete beta function that
    # scipy.stats.beta.ppf wraps, so both give the same bits; every count
    # within 9 of either end, n up to 10**7
    from scipy.stats import beta

    ns = sorted({*range(1, 25), 30, 50, 99, 100, 1000, 12345, 10**5, 10**6, 10**7 - 1, 10**7})
    cases = 0
    for n in ns:
        for count in sorted({*range(min(10, n + 1)), *range(max(0, n - 9), n + 1)}):
            lo = 0.0 if count == 0 else float(beta.ppf(0.025, count, n - count + 1))
            hi = 1.0 if count == n else float(beta.ppf(0.975, count + 1, n - count))
            assert binomial_ci95(count, n) == (lo, hi), (count, n)
            cases += 1
    assert cases == 509


def test_threads_below_one_are_refused():
    with pytest.raises(ValueError, match="threads"):
        run_simulation(_config(trials=8), threads=0)


def test_genie_per_bit_counts_present_only_in_genie_mode():
    assert run_simulation(_config(trials=50)).per_bit_erasures is None
    outcome = run_simulation(_config(trials=50, genie=True))
    assert outcome.per_bit_erasures is not None
    assert outcome.per_bit_erasures.shape == (64,)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("trial", [0, 1, TRIALS_HARD_CAP - 1, 2**40])
def test_rewound_generator_matches_fresh_substream(master_seed, trial):
    for role in ROLES:
        gen = substream(12345, 6, ROLE_FAULTS)
        gen.random(2)
        gen.integers(0, 2**32, dtype=np.uint32)
        state = gen.bit_generator.state
        assert state["buffer_pos"] != 4 and state["has_uint32"] == 1  # mid-stream

        gen.bit_generator.state = _substream_state(master_seed, trial, role)
        assert np.array_equal(gen.random(37), substream(master_seed, trial, role).random(37))
        gen.bit_generator.state = _substream_state(master_seed, trial, role)
        fresh = substream(master_seed, trial, role)
        assert np.array_equal(gen.integers(0, 2, size=29, dtype=np.int8),
                              fresh.integers(0, 2, size=29, dtype=np.int8))


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_mask_drawn_in_blocks_equals_one_call(block, monkeypatch):
    width = 1000
    out = np.empty(width, dtype=bool)
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", block)
    _draw_mask(substream(3, 8, ROLE_CHANNEL).bit_generator, _word_threshold(0.3), out)
    assert np.array_equal(out, substream(3, 8, ROLE_CHANNEL).random(width) < 0.3)


EDGE_THRESHOLDS = [0.0, 5e-324, 2**-53, 0.01, 0.3, 0.5, 1 - 2**-53, 1.0]


@pytest.mark.parametrize("q", EDGE_THRESHOLDS)
def test_word_threshold_splits_words_where_uniforms_split(q):
    # a uniform is (w >> 11) * 2**-53; the words on either side of the
    # bound must fall on either side of q
    def uniform(w):
        return (w >> 11) * 2.0**-53

    threshold = _word_threshold(q)
    if threshold is None:
        assert q == 1.0 and uniform(2**64 - 1) < q
        return
    bound = int(threshold)
    assert bound % 2**11 == 0
    assert not uniform(bound) < q
    if bound:
        assert uniform(bound - 1) < q
    else:
        assert q == 0.0


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("q", EDGE_THRESHOLDS)
def test_raw_word_mask_equals_float_uniforms(master_seed, q):
    for width in (100, montecarlo._DRAW_BLOCK, 2 * montecarlo._DRAW_BLOCK + 5):
        out = np.empty(width, dtype=bool)
        _draw_mask(substream(master_seed, 4, ROLE_FAULTS).bit_generator,
                   _word_threshold(q), out)
        expected = substream(master_seed, 4, ROLE_FAULTS).random(width) < q
        assert np.array_equal(out, expected), width


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 65, 410])
def test_source_bits_equal_bounded_integers(master_seed, k):
    bits = _source_bits(substream(master_seed, 11, ROLE_SOURCE).bit_generator, k)
    expected = substream(master_seed, 11, ROLE_SOURCE).integers(0, 2, size=k, dtype=np.int8)
    assert bits.shape == (k,)
    assert np.array_equal(bits, expected)


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("p, delta, mode", [(1.0, 0.0, "shared"),
                                            (0.2, 1.0, "independent_tree")])
def test_certain_erasures_erase_every_bit(monkeypatch, p, delta, mode, genie):
    # p = 1 erases every channel symbol and delta = 1 hits every fault
    # slot; neither threshold fits a raw word, so no word is drawn for it
    config = _config(n=5, k=12, p=p, delta=delta, trials=40, seed=6, mode=mode,
                     genie=genie)
    _fix_chunks(monkeypatch, 16)
    outcome = run_simulation(config)
    assert outcome.frame_erasures == 40
    assert outcome.info_bit_erasures == 40 * 12
    assert outcome.fer == 1.0 and outcome.ber == 1.0
    if genie:
        assert np.array_equal(outcome.per_bit_erasures, np.full(32, 40))


def test_fault_row_longer_than_draw_block(monkeypatch):
    # n = 7 in independent-tree mode: 128 * 127 fault slots per trial, more
    # than one draw block; the packed hit plane must match fresh one-call
    # draws
    config = _config(n=7, k=32, p=0.4, delta=0.05, trials=3, seed=2**64 - 1,
                     mode="independent_tree", genie=True)
    slots = fault_slot_count(7, config.fault, config.fault.correlation_mode)
    assert slots > montecarlo._DRAW_BLOCK
    seen = []
    decode = montecarlo._decode_batch

    def capture(*args, **kwargs):
        seen.append(args[-1].copy())
        return decode(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_decode_batch", capture)
    run_simulation(config)
    expected = [substream(2**64 - 1, t, ROLE_FAULTS).random(slots) < 0.05 for t in range(3)]
    assert np.array_equal(seen[0], _pack_frames(np.array(expected)))


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("batch", [1, 7, 8, 9, 13])
@pytest.mark.parametrize("mode, n, delta, genie", [
    ("shared", 3, 0.05, False), ("independent_tree", 2, 0.05, False),
    ("independent_tree", 7, 0.05, True), ("shared", 2, 1.0, False),
])
def test_planes_handed_to_the_decoder_pack_the_dense_draws(monkeypatch, block, batch,
                                                           mode, n, delta, genie):
    # the hit plane is _pack_frames of each trial's one-call fault draws and
    # the codeword plane that of encode(u), whatever the draw block; slot
    # counts cover 12 (not a multiple of 8), 24 and 128 * 127 (more than one
    # draw block); the chunk starts at a trial that is not a multiple of 8
    if block is not None:
        monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", block)
    seed, start = 2**64 - 1, 5
    config = _config(n=n, k=2**n // 2, p=0.4, delta=delta, trials=start + batch,
                     seed=seed, mode=mode, genie=genie)
    slots = fault_slot_count(n, config.fault, mode)
    seen = []
    decode = montecarlo._decode_batch

    def capture(*args, **kwargs):
        seen.append(args[5:7])
        return decode(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_decode_batch", capture)
    _run_chunk(config, start, start + batch, slots)
    trials = range(start, start + batch)
    codeword, hits = seen[0]
    dense = np.array([substream(seed, t, ROLE_FAULTS).random(slots) < delta for t in trials])
    assert hits.shape == (slots, -(-batch // 8))
    assert np.array_equal(hits, _pack_frames(dense))
    planes = [hits]
    if genie:
        assert codeword is None
    else:
        info0 = config.code.info_indices - 1
        u = np.zeros((batch, 2**n), dtype=np.int8)
        u[:, info0] = [substream(seed, t, ROLE_SOURCE).integers(0, 2, info0.size, dtype=np.int8)
                       for t in trials]
        assert np.array_equal(codeword, _pack_frames(encode(u)))
        planes.append(codeword)
    for plane in planes:  # pad bits of the last byte are 0
        assert not (plane[:, -1] >> (batch - 8 * (plane.shape[1] - 1))).any()


def test_outcome_independent_of_draw_block(monkeypatch):
    config = _config(n=5, k=12, p=0.4, delta=0.05, trials=120, seed=9,
                     mode="independent_tree", genie=True)
    base = run_simulation(config)
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", 5)
    _fix_chunks(monkeypatch, 17)
    small = run_simulation(config)
    assert small.frame_erasures == base.frame_erasures
    assert small.info_bit_erasures == base.info_bit_erasures
    assert np.array_equal(small.per_bit_erasures, base.per_bit_erasures)


def _refuse_chunks(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("_run_chunk called for an over-budget trial")
    monkeypatch.setattr(montecarlo, "_run_chunk", fail)


def test_trial_memory_ceiling_refused_before_allocating(monkeypatch):
    # one independent-tree trial at n = 16 has 2**16 * (2**16 - 1) fault slots
    _refuse_chunks(monkeypatch)
    config = _config(n=16, k=2**14, delta=1e-3, trials=1, mode="independent_tree")
    with pytest.raises(ResourceLimitError):
        run_simulation(config)


def test_cli_trial_memory_ceiling_exits_3(monkeypatch, tmp_path):
    _refuse_chunks(monkeypatch)
    rc = cli.main(["simulate", "--n", "16", "--p", "0.5", "--delta", "1e-3",
                   "--rate", "0.25", "--mode", "independent-tree", "--trials", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 3
    assert not list(tmp_path.glob("*.csv"))


def test_cli_memory_error_exits_3(monkeypatch, tmp_path):
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "run_simulation", out_of_memory)
    rc = cli.main(["simulate", "--n", "4", "--p", "0.5", "--delta", "0",
                   "--rate", "0.5", "--trials", "10", "--out-dir", str(tmp_path)])
    assert rc == 3


def test_trial_bytes_admit_the_documented_sizes():
    # a lone trial: its bool channel-erasure row, a packed group of eight
    # frames at one byte per fault slot and 7.5 bytes per position for the
    # packed planes, and the chunk's index array, position masks and source
    # lanes at 19 bytes per position
    tree = FaultSpec(delta=1e-3, correlation_mode="independent_tree")
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    slots = fault_slot_count(8, tree, "independent_tree")
    assert _trial_bytes(8, slots) == slots + (1 + 7 + 19) * 256 + 128
    assert _trial_bytes(10, 10 * 1024) == 10 * 1024 + (1 + 7 + 19) * 1024 + 512
    for n in range(1, 14):
        slots = fault_slot_count(n, tree, "independent_tree")
        assert _trial_bytes(n, slots) <= TRIAL_BYTES_CEILING
    for n in range(1, 23):
        slots = fault_slot_count(n, shared, "shared")
        assert _trial_bytes(n, slots) <= TRIAL_BYTES_CEILING
    slots = fault_slot_count(14, tree, "independent_tree")
    assert _trial_bytes(14, slots) > TRIAL_BYTES_CEILING
    slots = fault_slot_count(23, shared, "shared")
    assert _trial_bytes(23, slots) > TRIAL_BYTES_CEILING


def test_lone_trial_pays_a_whole_packed_group():
    # the decoder packs eight frames per byte, so one trial of shared n = 22
    # allocates its packed planes at N bytes a row: 198 MiB in all, of
    # which 30 MiB are the planes
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    slots = fault_slot_count(22, shared, "shared")
    assert _trial_bytes(22, slots) == 198 * 2**20 <= TRIAL_BYTES_CEILING
    assert _trial_bytes(22, slots) - _trial_bytes(22, slots, batch=0) == (
        4 + 88 + 30) * 2**20


@pytest.mark.parametrize("n, mode, genie, batch", [
    (8, "shared", False, 1), (8, "shared", True, 13), (10, "shared", False, 64),
    (5, "independent_tree", False, 1), (5, "independent_tree", True, 8),
    (6, "independent_tree", True, 200),
])
def test_trial_bytes_bound_what_a_chunk_allocates(n, mode, genie, batch):
    # numpy reports its buffers to tracemalloc; beyond the counted bytes a
    # chunk only holds fixed scratch (the draw block and the packing buffers)
    fixed_scratch = 4 * 2**16
    config = _config(n=n, k=2**n // 2, p=0.4, delta=0.01, trials=batch, mode=mode,
                     genie=genie)
    slots = fault_slot_count(n, config.fault, config.fault.correlation_mode)
    _run_chunk(config, 0, batch, slots)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        _run_chunk(config, 0, batch, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _trial_bytes(n, slots, batch) + fixed_scratch


# Every mode, genie setting, fault rate, protection, size and batch a chunk
# runs with; the test takes a fixed stride of it (30 of 324), which holds
# every value of every axis, to stay within a few seconds.
CHUNK_GRID = [(mode, genie, delta, nu, n, batch)
              for mode in ("shared", "independent_tree") for genie in (False, True)
              for delta in (0.0, 0.01, 1.0) for nu in (None, 3)
              for n in ((2, 5, 8, 11, 13) if mode == "shared" else (2, 5, 8, 11))
              for batch in (1, 9, 64)]


@pytest.mark.parametrize("mode, genie, delta, nu, n, batch", CHUNK_GRID[::11])
def test_trial_bytes_count_what_a_chunk_allocates(mode, genie, delta, nu, n, batch):
    # a resource limit counts the memory a run really allocates: the peak of
    # one chunk (trials 5 to 5 + batch) is within _trial_bytes and the fixed
    # scratch it leaves out (the eight lanes of fault hits, a block of raw
    # words and the packing buffers)
    fixed_scratch = 4 * 2**16
    config = _config(n=n, k=2**n // 2, p=0.4, delta=delta, trials=5 + batch, mode=mode,
                     genie=genie, n_u=nu)
    slots = fault_slot_count(n, config.fault, mode)
    _run_chunk(config, 5, 5 + batch, slots)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        _run_chunk(config, 5, 5 + batch, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _trial_bytes(n, slots, batch, genie) + fixed_scratch


def _chunk_trials_before(n, slots, genie):
    """Default chunk of the full-height decoder layout: n message levels of
    N rows and, without the genie, n partial-sum levels, with the per-chunk
    term charged to every group of eight."""
    size = 1 << n
    if genie:
        packed, chunk = (1 + n) * size, 13 * size
    else:
        packed, chunk = (2 + max(n, 1) + 2 * n) * size + size // 2, 21 * size
    group = 8 * size + slots + packed + chunk
    return min(montecarlo._MAX_CHUNK, max(1, 8 * (montecarlo._CHUNK_BYTES // group)))


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("mode, largest", [("shared", 21), ("independent_tree", 13)])
def test_default_chunks_never_shrink(mode, largest, genie):
    for delta in (0.0, 1e-3):
        fault = FaultSpec(delta=delta, correlation_mode=mode)
        for n in range(1, largest + 1):
            slots = fault_slot_count(n, fault, mode)
            before = _chunk_trials_before(n, slots, genie)
            assert _chunk_trials(n, slots, genie) >= before, (delta, n)


def test_default_chunks_pay_the_chunk_term_once():
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    sizes = {n: _chunk_trials(n, fault_slot_count(n, shared, "shared"), False)
             for n in (12, 14)}
    assert sizes == {12: 4760, 14: 1104}  # 1648 and 368 before
    assert _chunk_trials(14, fault_slot_count(14, shared, "shared"), True) == 1304


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_default_chunks_share_the_budget_between_threads(threads):
    # the chunks that `threads` workers hold at once fit _CHUNK_BYTES together
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    for n in (8, 10, 12, 14):
        slots = fault_slot_count(n, shared, "shared")
        for genie in (False, True):
            trials = _chunk_trials(n, slots, genie, threads)
            assert trials <= _chunk_trials(n, slots, genie)
            held = threads * _trial_bytes(n, slots, trials, genie)
            assert held <= montecarlo._CHUNK_BYTES, (n, genie)


def test_two_threads_peak_within_the_chunk_budget(monkeypatch):
    # tracemalloc traces every thread; one thread's default chunk alone
    # takes most of _CHUNK_BYTES, so two of them would exceed the bound.
    # A smaller budget keeps the run short.
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 2**20)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)  # on any host
    fixed_scratch = 4 * 2**16
    n = 10
    config = _config(n=n, k=410, p=0.3, delta=1e-3, trials=1, mode="shared")
    slots = fault_slot_count(n, config.fault, "shared")
    trials = 4 * _chunk_trials(n, slots, False, 2)
    config = replace(config, trials=trials)
    assert _trial_bytes(n, slots, _chunk_trials(n, slots, False)) > montecarlo._CHUNK_BYTES / 2
    # the pool's first use imports and caches outside the measurement
    with monkeypatch.context() as patch:
        _fix_chunks(patch, 8)
        run_simulation(replace(config, trials=16), threads=2)
    tracemalloc.start()
    try:
        run_simulation(config, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= montecarlo._CHUNK_BYTES + 2 * fixed_scratch


def test_genie_trial_bytes_admit_the_same_sizes():
    # genie runs count fewer planes, and they are admitted to the same n:
    # independent-tree to n = 13, shared to n = 22 (144 MiB)
    for mode, largest in (("independent_tree", 13), ("shared", 22)):
        fault = FaultSpec(delta=1e-3, correlation_mode=mode)
        for n in range(1, largest + 2):
            slots = fault_slot_count(n, fault, mode)
            admitted = _trial_bytes(n, slots, genie=True) <= TRIAL_BYTES_CEILING
            assert admitted == (n <= largest), (mode, n)
    slots = fault_slot_count(22, FaultSpec(delta=1e-3, correlation_mode="shared"), "shared")
    assert _trial_bytes(22, slots, genie=True) == 144 * 2**20


@pytest.mark.parametrize("n, mode, batch, k", [
    (8, "shared", 13, 128), (10, "shared", 64, 1023), (5, "independent_tree", 8, 16),
    (6, "independent_tree", 200, 63), (6, "independent_tree", 1, 32),
])
def test_genie_trial_bytes_bound_what_a_chunk_allocates(n, mode, batch, k):
    # the genie count leaves out u, its codeword, the sign planes and the
    # partial sums; k = N - 1 selects the most information rows
    fixed_scratch = 4 * 2**16
    config = _config(n=n, k=k, p=0.4, delta=0.01, trials=batch, mode=mode, genie=True)
    slots = fault_slot_count(n, config.fault, config.fault.correlation_mode)
    _run_chunk(config, 0, batch, slots)
    tracemalloc.start()
    try:
        _run_chunk(config, 0, batch, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _trial_bytes(n, slots, batch, genie=True) + fixed_scratch


@pytest.mark.parametrize("n, mode, genie, batch, k", [
    (8, "independent_tree", False, 800, 128), (8, "shared", False, 800, 128),
    (10, "independent_tree", False, 64, 512), (5, "shared", False, 1, 16),
    (10, "independent_tree", True, 800, 1023), (8, "shared", True, 800, 255),
    (10, "shared", True, 64, 1023), (5, "independent_tree", True, 1, 31),
])
def test_trial_bytes_bound_a_chunk_without_fault_slots(n, mode, genie, batch, k):
    # delta = 0 draws no fault slots, so the packed planes alone fill the
    # per-group count: one layout of log2 N message levels in either mode.
    # The count is what the chunk holds at its peak: it may leave out the
    # fixed scratch, and it may not overstate the peak by more than a tenth
    fixed_scratch = 4 * 2**16
    config = _config(n=n, k=k, p=0.4, delta=0.0, trials=batch, mode=mode, genie=genie)
    assert fault_slot_count(n, config.fault, mode) == 0
    _run_chunk(config, 0, batch, 0)
    tracemalloc.start()
    try:
        _run_chunk(config, 0, batch, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = _trial_bytes(n, 0, batch, genie)
    assert 0.9 * count <= peak <= count + fixed_scratch


@pytest.mark.parametrize("n, mode, genie, batch", [
    (10, "shared", False, 819), (6, "independent_tree", True, 2080),
    (8, "independent_tree", False, 800),
])
def test_trial_bytes_bound_a_chunk_with_fault_slots(n, mode, genie, batch):
    # fault hits are packed as they are drawn, so the count of one byte per
    # slot per group of eight frames meets the peak as closely as without
    # fault slots; a (B, slots) table of one byte per hit would put the
    # peak a whole table above the fault-free count, four times the margin
    # allowed here
    fixed_scratch = 4 * 2**16
    config = _config(n=n, k=2**n // 2, p=0.4, delta=0.01, trials=batch, mode=mode,
                     genie=genie)
    slots = fault_slot_count(n, config.fault, mode)
    _run_chunk(config, 0, batch, slots)
    tracemalloc.start()
    try:
        _run_chunk(config, 0, batch, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = _trial_bytes(n, slots, batch, genie)
    assert 0.9 * count <= peak <= count + fixed_scratch
    assert peak < _trial_bytes(n, 0, batch, genie) + batch * slots / 4


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
def test_genie_run_draws_no_source_word(monkeypatch, mode):
    roles = []

    def recording(master_seed, trial, role):
        roles.append(role)
        return substream(master_seed, trial, role)

    monkeypatch.setattr(montecarlo, "substream", recording)
    config = _config(p=0.4, delta=0.02, trials=30, mode=mode, genie=True)
    with monkeypatch.context() as patch:
        _fix_chunks(patch, 7)
        run_simulation(config)
    assert roles and ROLE_SOURCE not in roles
    assert set(roles) == {ROLE_CHANNEL, ROLE_FAULTS}
    roles.clear()
    run_simulation(_config(p=0.4, delta=0.02, trials=30, mode=mode))
    assert set(roles) == {ROLE_SOURCE, ROLE_CHANNEL, ROLE_FAULTS}


def test_cli_import_leaves_the_thread_pool_unloaded():
    # only threads > 1 needs concurrent.futures; a fresh interpreter shows
    # whether importing the CLI pulled it in
    code = ("import sys, faultypolar.cli; "
            "print('concurrent.futures' in sys.modules)")
    paths = [str(Path(montecarlo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


def test_thread_pool_capped_at_chunk_count(monkeypatch):
    workers = []
    pool_class = futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        workers.append(max_workers)
        return pool_class(max_workers=max_workers)

    # run_simulation imports the pool class only when it needs threads
    monkeypatch.setattr(futures, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)  # on any host
    config = _config(p=0.5, delta=1e-2, trials=100, seed=4)
    base = run_simulation(config)
    with monkeypatch.context() as patch:
        _fix_chunks(patch, 50)
        assert run_simulation(config, threads=8) == base
    assert run_simulation(config, threads=4) == base  # one chunk: no pool
    assert workers == [2]


def test_threads_capped_at_the_cores(monkeypatch):
    # uncapped, 5000 threads would cut chunks of one trial and ask the pool
    # for a worker per chunk; the recorder runs the chunks in order on
    # this thread, so no real thread starts
    workers = []
    chunks = []

    class InOrderPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    run_chunk = montecarlo._run_chunk

    def recording_chunk(config, start, stop, slots):
        chunks.append((start, stop))
        return run_chunk(config, start, stop, slots)

    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2**20)  # small chunks at n = 10
    n = 10
    config = _config(n=n, k=410, p=0.3, delta=1e-3, trials=400, seed=2, mode="shared")
    slots = fault_slot_count(n, config.fault, "shared")
    assert _chunk_trials(n, slots, False, 5000) == 1
    two = _chunk_trials(n, slots, False, 2)
    assert two < _chunk_trials(n, slots, False) < config.trials
    base = run_simulation(config)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", InOrderPool)
    monkeypatch.setattr(montecarlo, "_run_chunk", recording_chunk)
    assert run_simulation(config, threads=5000) == base
    assert workers and max(workers) <= 2
    assert chunks == [(s, min(s + two, config.trials))
                      for s in range(0, config.trials, two)]


def test_cpu_count_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert montecarlo._cpu_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert montecarlo._cpu_count() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert montecarlo._cpu_count() == 1


@pytest.mark.parametrize("master_seed", [0, 9, 2**64 - 1])
@pytest.mark.parametrize("mode, n, p, delta, nu, k", [
    ("shared", 4, 0.3, 0.02, None, 8),
    ("shared", 8, 0.35, 0.01, 5, 100),
    ("independent_tree", 5, 0.3, 0.03, None, 16),
    ("independent_tree", 7, 0.25, 0.01, 3, 50),
])
def test_genie_and_decoder_erase_the_same_frames(mode, n, p, delta, nu, k, master_seed):
    # Until the first erased information decision the decoder's partial
    # sums are correct, and after it the frame is erased either way, so
    # feeding the true bits forward changes no frame's outcome.
    fault = FaultSpec(delta=delta, unprotected_steps=nu, correlation_mode=mode)
    code = construct_code(n, p, fault, k)
    outcomes = [run_simulation(SimConfig(code=code, channel_erasure=p, fault=fault,
                                         trials=300, master_seed=master_seed,
                                         genie=genie))
                for genie in (False, True)]
    erased = [outcome.frame_erasures for outcome in outcomes]
    assert 0 < erased[0] < 300
    assert erased[0] == erased[1]
