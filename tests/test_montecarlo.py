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


def test_noiseless_simulation_is_clean():
    outcome = run_simulation(_config(p=0.0, delta=0.0, trials=100))
    assert outcome.fer == 0.0 and outcome.ber == 0.0
    assert outcome.frame_erasures == 0 and outcome.info_bit_erasures == 0


def test_fully_faulty_simulation_always_fails():
    outcome = run_simulation(_config(p=0.3, delta=1.0, trials=100))
    assert outcome.fer == 1.0
    assert outcome.ber == 1.0


def test_determinism_across_chunking_and_threads():
    config = _config(p=0.5, delta=1e-2, trials=1500, seed=77, genie=True)
    base = run_simulation(config)
    for threads, chunk in [(1, 37), (2, 250), (4, 1500), (3, 499)]:
        other = run_simulation(config, threads=threads, chunk_size=chunk)
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


def test_genie_per_bit_counts_present_only_in_genie_mode():
    assert run_simulation(_config(trials=50)).per_bit_erasures is None
    outcome = run_simulation(_config(trials=50, genie=True))
    assert outcome.per_bit_erasures is not None
    assert outcome.per_bit_erasures.shape == (64,)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("trial", [0, 1, TRIALS_HARD_CAP - 1])
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
def test_certain_erasures_erase_every_bit(p, delta, mode, genie):
    # p = 1 erases every channel symbol and delta = 1 hits every fault
    # slot; neither threshold fits a raw word, so no word is drawn for it
    config = _config(n=5, k=12, p=p, delta=delta, trials=40, seed=6, mode=mode,
                     genie=genie)
    outcome = run_simulation(config, chunk_size=16)
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
    small = run_simulation(config, chunk_size=17)
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
    # frames at one byte per fault slot and per plane position, and the
    # chunk's index array, position masks and source lanes at 21 bytes per
    # position
    tree = FaultSpec(delta=1e-3, correlation_mode="independent_tree")
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    slots = fault_slot_count(8, tree, "independent_tree")
    assert _trial_bytes(8, slots) == slots + (1 + 2 + 24 + 21) * 256 + 128
    assert _trial_bytes(10, 10 * 1024) == 10 * 1024 + (1 + 2 + 30 + 21) * 1024 + 512
    for n in range(1, 14):
        slots = fault_slot_count(n, tree, "independent_tree")
        assert _trial_bytes(n, slots) <= TRIAL_BYTES_CEILING
    for n in range(1, 22):
        slots = fault_slot_count(n, shared, "shared")
        assert _trial_bytes(n, slots) <= TRIAL_BYTES_CEILING
    slots = fault_slot_count(14, tree, "independent_tree")
    assert _trial_bytes(14, slots) > TRIAL_BYTES_CEILING


def test_lone_trial_pays_a_whole_packed_group():
    # the decoder packs eight frames per byte, so one trial of shared n = 22
    # allocates its packed planes at N bytes each: 450 MiB in all
    shared = FaultSpec(delta=1e-3, correlation_mode="shared")
    slots = fault_slot_count(22, shared, "shared")
    assert _trial_bytes(22, slots) == 450 * 2**20 > TRIAL_BYTES_CEILING


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


def test_genie_trial_bytes_admit_the_same_sizes():
    # genie runs count fewer planes; independent-tree is admitted to the
    # same n, and shared one level further (n = 22 counts 236 MiB)
    for mode, largest in (("independent_tree", 13), ("shared", 22)):
        fault = FaultSpec(delta=1e-3, correlation_mode=mode)
        for n in range(1, largest + 2):
            slots = fault_slot_count(n, fault, mode)
            admitted = _trial_bytes(n, slots, genie=True) <= TRIAL_BYTES_CEILING
            assert admitted == (n <= largest), (mode, n)


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
    run_simulation(config, chunk_size=7)
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
    config = _config(p=0.5, delta=1e-2, trials=100, seed=4)
    base = run_simulation(config)
    assert run_simulation(config, threads=8, chunk_size=50) == base
    assert run_simulation(config, threads=4) == base  # one chunk: no pool
    assert workers == [2]


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
