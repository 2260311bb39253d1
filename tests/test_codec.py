"""Encoder, channel, the reference node operations, and the faulty SC decoder."""

import itertools
import tracemalloc
from dataclasses import replace
from enum import IntEnum

import numpy as np
import pytest

from faultypolar import (
    ERASED_BIT,
    FaultSpec,
    InternalInvariantError,
    ResourceLimitError,
    construct_code,
    encode,
    sc_decode,
    transmit_bec,
)
from faultypolar import codec
from faultypolar.codec import _decode_batch, _pack_frames, _trial_bytes, fault_slot_count


class TernaryLLR(IntEnum):
    NEG_INFINITE = -1
    ERASED = 0
    POS_INFINITE = 1


NEG, ERA, POS = TernaryLLR.NEG_INFINITE, TernaryLLR.ERASED, TernaryLLR.POS_INFINITE


def check_node(m1, m2):
    """Check-node update: erased if either input is erased, else sign product."""
    out = np.asarray(m1, dtype=np.int8) * np.asarray(m2, dtype=np.int8)
    if out.ndim == 0:
        return TernaryLLR(int(out))
    return out


def variable_node(m1, m2, partial_sum):
    """Variable-node update m1 + (-1)**partial_sum * m2 in saturated ternary arithmetic.

    Opposing infinities cancel to an erasure; an infinity absorbs an erased
    partner; two erasures stay erased.
    """
    a = np.asarray(m1, dtype=np.int8)
    b = np.asarray(m2, dtype=np.int8)
    s = np.asarray(partial_sum, dtype=np.int8)
    out = np.sign(a + (1 - 2 * s) * b)
    if out.ndim == 0:
        return TernaryLLR(int(out))
    return out


def kron_transform(n):
    """Generator matrix built by explicit Kronecker powers of [[1,0],[1,1]]."""
    kernel = np.array([[1, 0], [1, 1]], dtype=np.int64)
    g = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        g = np.kron(g, kernel)
    return g


def _decode_dense(erased, frozen_mask, fault, mode, genie, codeword, hits, **kwargs):
    """_decode_batch on (B, N) codeword bits and (B, slots) hits, packed here."""
    def pack(cells):
        return None if cells is None else _pack_frames(cells)
    return _decode_batch(erased, frozen_mask, fault, mode, genie, pack(codeword),
                         pack(hits), **kwargs)


def _decided(planes, batch, frozen_mask, true_u=None):
    """(u_hat, decision_erased) rows of _decode_batch's packed decision planes.

    u_hat holds 0, 1 or ERASED_BIT at every information position and 0 at
    the frozen ones. A decision that is not erased reads the sign plane or,
    under the genie (E plane alone), the true word true_u.
    """
    erased = np.unpackbits(planes[0].T, axis=0, count=batch, bitorder="little").view(bool)
    if len(planes) == 2:
        bits = np.unpackbits(planes[1].T, axis=0, count=batch, bitorder="little").view(np.int8)
    else:
        bits = np.asarray(true_u, dtype=np.int8)
    u_hat = np.where(erased, np.int8(ERASED_BIT), bits)
    u_hat[:, frozen_mask] = 0
    return u_hat, erased


def test_encode_against_matrix_oracle():
    for n in (1, 2, 3):
        g = kron_transform(n)
        for bits in itertools.product((0, 1), repeat=2**n):
            u = np.array(bits, dtype=np.int8)
            assert np.array_equal(encode(u), (u @ g) % 2), bits


def test_encode_basics():
    assert np.array_equal(encode(np.zeros(16, np.int8)), np.zeros(16))
    # one stage: (u1, u2) -> (u1 xor u2, u2)
    for u1, u2 in itertools.product((0, 1), repeat=2):
        assert np.array_equal(encode([u1, u2]), [u1 ^ u2, u2])


def test_encode_is_involution():
    rng = np.random.default_rng(0)
    for n in (1, 4, 8):
        u = rng.integers(0, 2, size=2**n).astype(np.int8)
        assert np.array_equal(encode(encode(u)), u)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_encode_batches_match_matrix_oracle(n):
    # batch sizes around the eight frames of a packed byte, and a 3-D batch
    g = kron_transform(n)
    rng = np.random.default_rng(20 + n)
    for shape in [(1,), (7,), (8,), (9,), (65,), (3, 5)]:
        u = rng.integers(0, 2, (*shape, 2**n), dtype=np.int8)
        x = encode(u)
        assert x.shape == u.shape and x.dtype == np.int8, shape
        assert np.array_equal(x, (u @ g) % 2), shape
    assert np.array_equal(encode(u.astype(bool)), (u @ g) % 2)
    assert np.array_equal(encode(u.astype(float)), (u @ g) % 2)  # checked cell by cell


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode([0, 1, 1])
    with pytest.raises(ValueError):
        encode([0, 2, 1, 1])
    with pytest.raises(ValueError):
        encode([0.0, 0.5])
    for scalar in (1, np.int8(0)):  # a 0-d word has no last axis to transform
        with pytest.raises(ValueError, match="axis"):
            encode(scalar)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(16,), (1, 16), (5, 16)])
def test_encode_returns_a_new_c_ordered_word(shape, order):
    # the positions-major copy of one C-ordered word would be a view of it
    # without an explicit copy, and the butterfly would write the argument
    u = np.asarray(np.random.default_rng(8).integers(0, 2, shape, dtype=np.int8),
                   order=order)
    before = u.copy()
    x = encode(u)
    assert np.array_equal(u, before)
    assert x.shape == u.shape and x.dtype == np.int8 and x.flags.c_contiguous
    assert np.array_equal(x, (u @ kron_transform(4)) % 2)


def test_transmit_bec_endpoints():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=64).astype(np.int8)
    clean = transmit_bec(x, 0.0, rng)
    assert np.array_equal(clean, 1 - 2 * x)
    assert np.all(transmit_bec(x, 1.0, rng) == 0)


def test_transmit_bec_statistics():
    rng = np.random.default_rng(2)
    x = np.zeros(100_000, np.int8)
    y = transmit_bec(x, 0.5, rng)
    frac = np.mean(y == 0)
    sigma = np.sqrt(0.25 / x.size)
    assert abs(frac - 0.5) < 3 * sigma
    assert np.all(y[y != 0] == 1)  # bit 0 maps to +1, never -1


def test_check_node_table():
    assert check_node(POS, POS) == POS
    assert check_node(ERA, POS) == ERA
    assert check_node(NEG, NEG) == POS
    assert check_node(NEG, POS) == NEG
    assert check_node(ERA, ERA) == ERA


def test_variable_node_table():
    assert variable_node(POS, ERA, 0) == POS
    assert variable_node(POS, POS, 1) == ERA
    assert variable_node(ERA, ERA, 0) == ERA
    assert variable_node(POS, POS, 0) == POS
    assert variable_node(NEG, POS, 1) == NEG
    assert variable_node(ERA, NEG, 1) == POS


def test_node_ops_vectorized():
    m1 = np.array([1, 0, -1, 1], np.int8)
    m2 = np.array([1, 1, -1, -1], np.int8)
    assert np.array_equal(check_node(m1, m2), [1, 0, 1, -1])
    assert np.array_equal(variable_node(m1, m2, np.zeros(4, np.int8)), [1, 1, -1, 0])


def _all_zero_code(n, k, delta=0.0):
    return construct_code(n, 0.5, FaultSpec(delta=delta), k)


def test_decode_trace_two_bits():
    # frozen u1, y = (erased, +inf): u1 is frozen so the erased LLR does not
    # count; u2 decodes from +inf + erased = +inf.
    code = _all_zero_code(1, 1)
    assert code.info_indices.tolist() == [2]
    result = sc_decode(np.array([0, 1], np.int8), code, FaultSpec())
    assert not result.frame_erased
    assert result.first_erasure_index is None
    assert np.array_equal(result.u_hat, [0])
    assert result.decision_erased[0] and not result.decision_erased[1]


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        size = 2**n
        for k in range(1, size):
            code = _all_zero_code(n, k)
            info0 = code.info_indices - 1
            for bits in itertools.product((0, 1), repeat=k):
                u = np.zeros(size, np.int8)
                u[info0] = bits
                y = (1 - 2 * encode(u)).astype(np.int8)
                for mode in ("shared", "independent_tree"):
                    result = sc_decode(y, code, FaultSpec(correlation_mode=mode))
                    assert not result.frame_erased
                    assert np.array_equal(result.u_hat, np.array(bits, np.int8))


def test_round_trip_random_n1024():
    code = _all_zero_code(10, 512)
    info0 = code.info_indices - 1
    rng = np.random.default_rng(6)
    u = np.zeros((1000, 1024), np.int8)
    u[:, info0] = rng.integers(0, 2, size=(1000, 512), dtype=np.int8)
    y = (1 - 2 * encode(u)).astype(np.int8)
    planes = _decode_dense(y == 0, code.frozen_mask, FaultSpec(correlation_mode="shared"),
                           "shared", False, y < 0, None)
    u_hat, erased = _decided(planes, 1000, code.frozen_mask)
    assert not erased.any()
    assert np.array_equal(u_hat, u)


def test_full_fault_erases_everything():
    code = _all_zero_code(3, 4)
    rng = np.random.default_rng(7)
    y = (1 - 2 * encode(np.zeros(8, np.int8))).astype(np.int8)
    fault = FaultSpec(delta=1.0)
    result = sc_decode(y, code, fault, rng=rng)
    assert result.frame_erased
    assert np.all(result.u_hat == ERASED_BIT)
    assert result.first_erasure_index == code.info_indices.min()


def test_sign_correctness_under_erasures():
    # the BEC never lies: with delta = 0 every non-erased decision is true
    code = _all_zero_code(8, 128)
    info0 = code.info_indices - 1
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = np.zeros(256, np.int8)
        u[info0] = rng.integers(0, 2, 128, dtype=np.int8)
        y = transmit_bec(encode(u), 0.4, rng)
        result = sc_decode(y, code, FaultSpec(), genie=True, true_u=u)
        decided = result.u_hat != ERASED_BIT
        assert np.array_equal(result.u_hat[decided], u[info0][decided])


def test_continuation_convention_wrong_bits_follow_the_first_erasure():
    # without the genie an erased decision feeds 0 forward, so a known
    # decision after a frame's first erased information decision can be
    # wrong; none before it can, and a frame with no erased one has none
    n, p, delta = 7, 0.3, 0.01
    code = construct_code(n, p, FaultSpec(delta=delta), 51)
    info0 = code.info_indices - 1
    rng = np.random.default_rng(29)
    wrong_after_first = 0
    for mode, nu in itertools.product(("shared", "independent_tree"), (None, 4)):
        fault = FaultSpec(delta=delta, unprotected_steps=nu, correlation_mode=mode)
        for _ in range(60):
            u = np.zeros(code.N, np.int8)
            u[info0] = rng.integers(0, 2, code.k, dtype=np.int8)
            result = sc_decode(transmit_bec(encode(u), p, rng), code, fault, rng=rng)
            erased = result.u_hat == ERASED_BIT
            wrong = ~erased & (result.u_hat != u[info0])
            if not erased.any():
                assert not wrong.any()
                continue
            first = int(np.argmax(erased))
            assert info0[first] + 1 == result.first_erasure_index
            assert not wrong[:first].any()
            wrong_after_first += int(wrong[first:].sum())
    assert wrong_after_first > 0


def test_modes_identical_without_faults():
    code = _all_zero_code(5, 16)
    rng = np.random.default_rng(9)
    info0 = code.info_indices - 1
    for _ in range(100):
        u = np.zeros(32, np.int8)
        u[info0] = rng.integers(0, 2, 16, dtype=np.int8)
        y = transmit_bec(encode(u), 0.5, rng)
        results = [sc_decode(y, code, FaultSpec(correlation_mode=m), genie=True, true_u=u)
                   for m in ("shared", "independent_tree")]
        assert np.array_equal(results[0].u_hat, results[1].u_hat)
        assert np.array_equal(results[0].decision_erased, results[1].decision_erased)


def test_fault_monotonicity_coupled_uniforms():
    # the same uniform stream turns {u < d1} into a subset of {u < d2} for
    # d1 <= d2, i.e. a pointwise superset of injected fault locations; with
    # genie feedback an erased decision must then stay erased.
    code = _all_zero_code(4, 8)
    info0 = code.info_indices - 1
    rng = np.random.default_rng(10)
    for mode in ("shared", "independent_tree"):
        for _ in range(50):
            u = np.zeros(16, np.int8)
            u[info0] = rng.integers(0, 2, 8, dtype=np.int8)
            y = transmit_bec(encode(u), 0.4, rng)
            seed = int(rng.integers(0, 2**32))
            erased_prev = None
            for delta in (0.0, 0.05, 0.2, 0.9):
                result = sc_decode(y, code, FaultSpec(delta=delta, correlation_mode=mode),
                                   rng=np.random.default_rng(seed),
                                   genie=True, true_u=u)
                erased = result.decision_erased
                if erased_prev is not None:
                    assert np.all(erased[erased_prev]), (mode, delta)
                erased_prev = erased


def test_genie_per_bit_statistics_match_reliabilities():
    from faultypolar.montecarlo import SimConfig, run_simulation

    fault = FaultSpec(delta=0.1, correlation_mode="independent_tree")
    code = construct_code(3, 0.5, fault, 4)
    config = SimConfig(code=code, channel_erasure=0.5, fault=fault,
                       trials=40_000, master_seed=123, genie=True)
    outcome = run_simulation(config)
    z = code.reliabilities
    emp = outcome.per_bit_erasures / outcome.frames
    sigma = np.sqrt(z * (1 - z) / outcome.frames)
    assert np.all(np.abs(emp - z) <= 4 * sigma)


def test_fault_slot_counts():
    # the mode is the fault's own correlation_mode
    shared, tree = "shared", "independent_tree"
    assert fault_slot_count(3, FaultSpec(delta=0.1, correlation_mode=shared)) == 8 * 3
    assert fault_slot_count(3, FaultSpec(delta=0.1, correlation_mode=tree)) == 8 * 7
    assert fault_slot_count(3, FaultSpec(delta=0.1)) == 8 * 7  # independent_tree by default
    assert fault_slot_count(3, FaultSpec(delta=0.0, correlation_mode=shared)) == 0
    assert fault_slot_count(3, FaultSpec(delta=0.1, unprotected_steps=0)) == 0
    part = FaultSpec(delta=0.1, unprotected_steps=2, correlation_mode=shared)
    assert fault_slot_count(3, part) == 8 * 2
    assert fault_slot_count(3, replace(part, correlation_mode=tree)) == 8 * (8 - 2)


def test_sc_decode_validation():
    code = _all_zero_code(2, 2)
    fault = FaultSpec(delta=0.5)
    with pytest.raises(ValueError):
        sc_decode(np.zeros(3, np.int8), code, FaultSpec())
    with pytest.raises(ValueError):
        sc_decode(np.array([2, 0, 0, 0]), code, FaultSpec())
    with pytest.raises(ValueError):
        sc_decode(np.zeros(4, np.int8), code, fault)  # rng required
    with pytest.raises(ValueError):
        sc_decode(np.zeros(4, np.int8), code, FaultSpec(), genie=True)


def _received_frame(n, fault):
    """A rate-1/2 code, the all-zero word through a BEC(0.3), and the rng."""
    code = construct_code(n, 0.3, fault, 1 << (n - 1))
    rng = np.random.default_rng(17)
    return code, transmit_bec(np.zeros(code.N, np.int8), 0.3, rng), rng


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
def test_sc_decode_hit_blocks_continue_one_stream(monkeypatch, mode):
    # the hits are drawn in blocks; any block size gives the decode of one draw
    fault = FaultSpec(delta=0.05, correlation_mode=mode)
    results = []
    for block in (codec._DRAW_BLOCK, 5, 64):
        monkeypatch.setattr(codec, "_DRAW_BLOCK", block)
        code, y, rng = _received_frame(5, fault)
        results.append(sc_decode(y, code, fault, rng=rng))
    for other in results[1:]:
        assert np.array_equal(other.u_hat, results[0].u_hat)
        assert np.array_equal(other.decision_erased, results[0].decision_erased)


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("n", [14, 15])
def test_sc_decode_refuses_a_frame_over_the_trial_ceiling(n, genie):
    # independent_tree with every step faulty: one trial counts N * (N - 1)
    # bytes of hits plus the decoder planes, over 256 MiB from n = 14 on
    # (1 GiB of hits alone at n = 15), so the decode is refused before
    # anything is allocated or drawn, as simulate --trials 1 is
    fault = FaultSpec(delta=1e-3)
    code, y, rng = _received_frame(n, fault)
    slots = fault_slot_count(n, fault)
    assert _trial_bytes(n, slots, genie=genie) > codec.TRIAL_BYTES_CEILING
    true_u = np.zeros(code.N, np.int8) if genie else None
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="per-trial ceiling"):
            sc_decode(y, code, fault, rng=rng, genie=genie, true_u=true_u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rng.bit_generator.state == state


# (n, mode, nu, genie): every mode, protection and genie setting at small
# n, and independent_tree decodes of 1 and 16 MiB of hits, a byte per
# fault slot (N * (N - 1) of them), which fill the count
_PEAK_GRID = [*itertools.product((2, 5, 8), ("shared", "independent_tree"), (None, 1, 0),
                                 (False, True)),
              (10, "shared", None, False), (10, "independent_tree", None, False),
              (12, "independent_tree", None, False), (12, "independent_tree", None, True)]


@pytest.mark.parametrize("n, mode, nu, genie", _PEAK_GRID)
def test_sc_decode_peak_within_the_trial_count(n, mode, nu, genie):
    # the count that admits a decode bounds what it allocates, with the
    # fixed scratch a simulation chunk is allowed (a block of uniforms and
    # the packing buffers, 64 KiB each)
    fixed_scratch = 3 * 2**16
    fault = FaultSpec(delta=1e-3, unprotected_steps=nu, correlation_mode=mode)
    code, y, rng = _received_frame(n, fault)
    true_u = np.zeros(code.N, np.int8) if genie else None
    sc_decode(y, code, fault, rng=rng, genie=genie, true_u=true_u)  # warm caches
    tracemalloc.start()
    try:
        result = sc_decode(y, code, fault, rng=rng, genie=genie, true_u=true_u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.u_hat.shape == (code.k,)
    assert peak <= _trial_bytes(n, fault_slot_count(n, fault), genie=genie) + fixed_scratch


def test_sc_decode_genie_rejects_an_inconsistent_frame():
    # the genie's erasure-only kernel assumes the channel agrees with the
    # true word (frozen bits zeroed) wherever it does not erase
    code = _all_zero_code(3, 4)
    info0 = code.info_indices - 1
    u = np.zeros(8, np.int8)
    u[info0] = [1, 0, 1, 1]
    x = encode(u)
    y = (1 - 2 * x).astype(np.int8)
    y[0] = 0
    assert not sc_decode(y, code, FaultSpec(), genie=True, true_u=u).frame_erased
    frozen_set = u.copy()
    frozen_set[np.flatnonzero(code.frozen_mask)[0]] = 1  # the genie zeroes it
    sc_decode(y, code, FaultSpec(), genie=True, true_u=frozen_set)
    flipped = y.copy()
    flipped[3] = -flipped[3]
    with pytest.raises(ValueError):
        sc_decode(flipped, code, FaultSpec(), genie=True, true_u=u)
    with pytest.raises(ValueError):
        sc_decode(transmit_bec(encode(frozen_set), 0.0, np.random.default_rng(0)),
                  code, FaultSpec(), genie=True, true_u=frozen_set)
    erased = flipped.copy()
    erased[3] = 0  # a disagreement the channel erased does not count
    sc_decode(erased, code, FaultSpec(), genie=True, true_u=u)


def _reference_decode(y, frozen_mask, fault, mode, genie, true_u, hits):
    """One frame of SC decoding through the public node functions.

    Takes the fault hits in the decoder's fixed schedule (every computed
    block of 2**level messages, root side first, takes the next 2**level
    hits when its level is faulty) and derives each g node's partial sums
    as encode() of the fed-back decisions of its left sibling block.
    Returns the frame's (u_hat, decision_erased) rows.
    """
    size = y.shape[0]
    n = size.bit_length() - 1
    faulty_min_level = n - fault.effective_steps(n)
    feedback = np.zeros(size, dtype=np.int8)
    u_hat = np.zeros(size, dtype=np.int8)
    decision_erased = np.zeros(size, dtype=bool)
    erasure, minus = int(ERA), int(NEG)  # plain ints: enum members are slow in numpy
    partial_sums = {}  # a left block's feedback is final once a g node reads it
    slot = 0

    def compute(level, left, right, base2, g_node):
        nonlocal slot
        width = 1 << level
        if g_node:
            key = (base2, width)
            if key not in partial_sums:
                partial_sums[key] = encode(feedback[base2:base2 + width])
            out = variable_node(right, left, partial_sums[key])
        else:
            out = check_node(left, right)
        if hits is not None and level >= faulty_min_level:
            out = np.where(hits[slot:slot + width], erasure, out)
            slot += width
        return np.asarray(out, dtype=np.int8)

    msgs = [np.zeros(size, dtype=np.int8) for _ in range(n)] + [y]
    for i0 in range(size):
        if mode == "shared":
            top = n - 1 if i0 == 0 else (i0 & -i0).bit_length() - 1
            for level in range(top, -1, -1):
                width = 1 << level
                base2 = (i0 >> (level + 1)) << (level + 1)
                parent = msgs[level + 1]
                dst = (i0 >> level) << level
                msgs[level][dst:dst + width] = compute(
                    level, parent[base2:base2 + width],
                    parent[base2 + width:base2 + 2 * width], base2, (i0 >> level) & 1)
            llr = msgs[0][i0]
        else:
            cur = y
            for level in range(n - 1, -1, -1):
                width = 1 << level
                base2 = (i0 >> (level + 1)) << (level + 1)
                block = y[base2:base2 + 2 * width] if level == n - 1 else cur
                cur = compute(level, block[:width], block[width:], base2, (i0 >> level) & 1)
            llr = cur[0]
        decision_erased[i0] = llr == erasure
        if not frozen_mask[i0]:
            decided = int(llr == minus)
            u_hat[i0] = ERASED_BIT if llr == erasure else decided
            # an erased decision feeds 0 forward unless the genie knows better
            feedback[i0] = true_u[i0] if genie else decided
    if hits is not None and slot != hits.shape[0]:
        raise AssertionError("reference left fault hits unused")
    return u_hat, decision_erased


def _random_batch(rng, n, batch, frozen_mask, erasure):
    size = 1 << n
    u = rng.integers(0, 2, (batch, size), dtype=np.int8)
    u[:, frozen_mask] = 0
    y = transmit_bec(encode(u), erasure, rng)
    return u, y


# delta = 0 or no unprotected step draws no hits, whatever the other value
_FAULT_GRID = [(0.0, None), (0.2, 0), *itertools.product((0.01, 0.2, 1.0), (None, 1, 3))]


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
@pytest.mark.parametrize("n", range(1, 8))
def test_decode_batch_matches_reference(n, mode):
    rng = np.random.default_rng(100 + n)
    batches = itertools.cycle((1, 7, 8, 9, 65))
    for genie, (delta, steps) in itertools.product((False, True), _FAULT_GRID):
        fault = FaultSpec(delta=delta, unprotected_steps=steps, correlation_mode=mode)
        batch = next(batches)
        frozen_mask = rng.random(1 << n) < 0.5
        u, y = _random_batch(rng, n, batch, frozen_mask, rng.uniform(0.1, 0.6))
        true_u = u.copy()
        true_u[:, frozen_mask] = rng.integers(0, 2, (batch, int(frozen_mask.sum())))
        slots = fault_slot_count(n, fault)
        hits = rng.random((batch, slots)) < delta if slots else None
        planes = _decode_dense(y == 0, frozen_mask, fault, mode, genie, encode(u), hits)
        u_hat, erased = _decided(planes, batch, frozen_mask, u)
        for row in range(batch):
            ref = _reference_decode(y[row], frozen_mask, fault, mode, genie, true_u[row],
                                    None if hits is None else hits[row])
            case = (genie, delta, steps, batch, row)
            assert np.array_equal(u_hat[row], ref[0]), case
            assert np.array_equal(erased[row], ref[1]), case


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
@pytest.mark.parametrize("n", range(1, 8))
def test_genie_erasures_do_not_depend_on_the_codeword(n, mode):
    # with true feedback the erasure pattern is that of the all-zero word
    rng = np.random.default_rng(200 + n)
    batches = itertools.cycle((1, 7, 8, 9, 65))
    for delta, steps in _FAULT_GRID:
        fault = FaultSpec(delta=delta, unprotected_steps=steps, correlation_mode=mode)
        batch = next(batches)
        frozen_mask = rng.random(1 << n) < 0.5
        u, y = _random_batch(rng, n, batch, frozen_mask, rng.uniform(0.1, 0.6))
        slots = fault_slot_count(n, fault)
        hits = rng.random((batch, slots)) < delta if slots else None
        blind = _decode_dense(y == 0, frozen_mask, fault, mode, True, None, hits)
        told = _decode_dense(y == 0, frozen_mask, fault, mode, True, encode(u), hits)
        zero = _decode_dense(y == 0, frozen_mask, fault, mode, False,
                             np.zeros_like(u), hits)
        case = (delta, steps, batch)
        assert len(blind) == len(told) == 1, case  # the genie carries no signs
        assert np.array_equal(blind[0], told[0]), case
        assert np.array_equal(blind[0], zero[0]), case
        u_hat, erased = _decided(zero, batch, frozen_mask)
        assert not u_hat[~erased].any(), case  # every known decision is right


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
def test_erased_feedback_cancels_opposing_infinities(mode):
    # n = 1, both bits information. A fault hit erases the first decision, so
    # 0 is fed forward. For u = (1, 0) the channel says y = (-inf, +inf), and
    # the g node sums +inf and (-1)**0 * -inf: opposing infinities cancel to
    # an erasure instead of a wrong bit. For u = (0, 0) they agree.
    fault = FaultSpec(delta=0.5, correlation_mode=mode)
    frozen_mask = np.zeros(2, dtype=bool)
    y = np.array([[-1, 1], [1, 1]], dtype=np.int8)
    hits = np.array([[True, False], [True, False]])
    assert fault_slot_count(1, fault) == 2
    planes = _decode_dense(y == 0, frozen_mask, fault, mode, False, y < 0, hits)
    u_hat, erased = _decided(planes, 2, frozen_mask)
    assert u_hat.tolist() == [[ERASED_BIT, ERASED_BIT], [ERASED_BIT, 0]]
    assert erased.tolist() == [[True, True], [True, False]]
    # the genie feeds the true first bit and the g node resolves
    true_u = np.array([[1, 0], [0, 0]], dtype=np.int8)
    planes = _decode_dense(y == 0, frozen_mask, fault, mode, True, encode(true_u), hits)
    u_hat, erased = _decided(planes, 2, frozen_mask, true_u)
    assert u_hat.tolist() == [[ERASED_BIT, 0], [ERASED_BIT, 0]]
    assert erased.tolist() == [[True, False], [True, False]]


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
def test_decode_batch_rows_independent_of_batching(mode, genie):
    rng = np.random.default_rng(11)
    n, batch = 6, 19
    fault = FaultSpec(delta=0.05, correlation_mode=mode)
    frozen_mask = rng.random(1 << n) < 0.5
    u, y = _random_batch(rng, n, batch, frozen_mask, 0.4)
    hits = rng.random((batch, fault_slot_count(n, fault))) < fault.delta
    together = _decided(_decode_dense(y == 0, frozen_mask, fault, mode, genie, encode(u), hits),
                        batch, frozen_mask, u)
    for row in range(batch):
        alone = _decided(_decode_dense(y[row:row + 1] == 0, frozen_mask, fault, mode, genie,
                                       encode(u[row:row + 1]), hits[row:row + 1]),
                         1, frozen_mask, u[row:row + 1])
        assert np.array_equal(alone[0][0], together[0][row])
        assert np.array_equal(alone[1][0], together[1][row])


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
def test_hit_plane_of_another_height_is_refused_before_decoding(monkeypatch, mode, genie,
                                                                extra):
    # each hit's row follows from the schedule, so a plane one row short or
    # one row long is refused before the channel is even packed
    rng = np.random.default_rng(13)
    n, batch = 4, 9
    fault = FaultSpec(delta=0.05, unprotected_steps=2, correlation_mode=mode)
    frozen_mask = rng.random(1 << n) < 0.5
    u, y = _random_batch(rng, n, batch, frozen_mask, 0.3)
    slots = fault_slot_count(n, fault)
    hits = _pack_frames(rng.random((batch, slots + extra)) < fault.delta)
    codeword = _pack_frames(encode(u))

    def decoding(*args):
        raise AssertionError("the decoder packed the channel")
    monkeypatch.setattr(codec, "_pack_frames", decoding)
    with pytest.raises(InternalInvariantError, match="fault hit plane"):
        _decode_batch(y == 0, frozen_mask, fault, mode, genie, codeword, hits)
    # the mode is the fault's; any other is refused first
    other = "shared" if mode == "independent_tree" else "independent_tree"
    with pytest.raises(InternalInvariantError, match="not the fault's"):
        _decode_batch(y == 0, frozen_mask, fault, other, genie, codeword, hits)


def _packed_counts(erased_plane, info, batch):
    """Frame and information-bit erasures counted on packed rows, as a simulation does."""
    rows = erased_plane[info]
    pad = np.uint8(0xFF << (batch % 8) & 0xFF) if batch % 8 else np.uint8(0)
    assert not (rows[:, -1] & pad).any()  # pad frames count 0
    frames = np.bitwise_or.reduce(rows, axis=0)
    return rows, int(np.bitwise_count(frames).sum()), int(np.bitwise_count(rows).sum())


def _hit_rows(rng, batch, slots, delta):
    """(batch, slots) bool fault hits, drawn a row at a time to bound the floats."""
    if not slots:
        return None
    return np.stack([rng.random(slots) < delta for _ in range(batch)])


def _assert_reading_info_is_exact(rng, n, mode, info, fault, batch, case, genie=False):
    """Skipping the nodes that feed only frozen decisions changes no
    information decision, frame count or bit count."""
    u, y = _random_batch(rng, n, batch, ~info, 0.3)
    hits = _hit_rows(rng, batch, fault_slot_count(n, fault), fault.delta)
    args = (y == 0, ~info, fault, mode, genie, encode(u), hits)
    full = _decode_dense(*args)
    skipped = _decode_dense(*args, info_only=True)
    counted = [_packed_counts(planes[0], info, batch) for planes in (full, skipped)]
    assert np.array_equal(counted[0][0], counted[1][0]), case
    assert counted[0][1:] == counted[1][1:], case
    if not genie:
        signs = [planes[1][info] & ~planes[0][info] for planes in (full, skipped)]
        assert np.array_equal(*signs), case
    erased = np.unpackbits(full[0].T, axis=0, count=batch, bitorder="little").view(bool)
    erased = erased[:, info]
    assert counted[0][1:] == (erased.any(axis=1).sum(), erased.sum()), case


@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
@pytest.mark.parametrize("n", range(0, 9))
def test_reading_the_information_decisions_alone_is_exact(n, mode, genie):
    rng = np.random.default_rng(300 + n)
    size = 1 << n
    for delta, steps, k in itertools.product((0.0, 0.05, 1.0), (None, 0, 1, n),
                                             sorted({1, size // 2, size - 1})):
        fault = FaultSpec(delta=delta, unprotected_steps=steps, correlation_mode=mode)
        if 0 < k < size:
            info = ~construct_code(n, 0.4, fault, k).frozen_mask
        else:  # n = 0: a code needs 1 <= k < N, so set the lone bit directly
            info = np.full(size, k > 0)
        _assert_reading_info_is_exact(rng, n, mode, info, fault, 13,
                                      (delta, steps, k), genie)


def _stale_sum_mask(rng, n):
    """A frozen mask in which rate-0 blocks follow blocks with information bits.

    Its second half is an all-frozen quarter and a random quarter that ends
    in an information bit; its first half is built the same way, down to 4
    random positions. So at each level L from 3 to n - 2 an all-frozen left
    block of 2**L positions follows a left block with information bits, and
    its right sibling holds some: that g node must read the zero partial
    sums of the frozen block, not those the earlier block left behind.
    """
    if n <= 2:
        return rng.random(1 << n) < 0.5
    quarter = 1 << (n - 2)
    right = rng.random(quarter) < 0.5
    right[-1] = False
    return np.concatenate([_stale_sum_mask(rng, n - 1), np.ones(quarter, bool), right])


@pytest.mark.parametrize("n", [8, 9, 10])
def test_compact_levels_match_reference_after_rate0_blocks(n):
    # each level keeps one block and one left block's partial sums, so the
    # buffers are reused; the reference keeps every message
    rng = np.random.default_rng(400 + n)
    batches = itertools.cycle((1, 7, 8, 9, 13))
    frozen_mask = _stale_sum_mask(rng, n)
    # delta in {0, 0.05, 1} by nu in {None, 0, 1, n} without repeated decoder
    # runs: nu = n is nu = None, and delta = 0 or nu = 0 draws no hits
    runs = [(0.0, None), (0.05, 0), *itertools.product((0.05, 1.0), (None, 1))]
    for genie, (delta, steps) in itertools.product((False, True), runs):
        fault = FaultSpec(delta=delta, unprotected_steps=steps, correlation_mode="shared")
        batch = next(batches)
        u, y = _random_batch(rng, n, batch, frozen_mask, 0.3)
        hits = _hit_rows(rng, batch, fault_slot_count(n, fault), delta)
        planes = _decode_dense(y == 0, frozen_mask, fault, "shared", genie, encode(u), hits)
        u_hat, erased = _decided(planes, batch, frozen_mask, u)
        for row in range(batch):
            ref = _reference_decode(y[row], frozen_mask, fault, "shared", genie, u[row],
                                    None if hits is None else hits[row])
            case = (genie, delta, steps, batch, row)
            assert np.array_equal(u_hat[row], ref[0]), case
            assert np.array_equal(erased[row], ref[1]), case


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
@pytest.mark.parametrize("n", range(0, 11))
def test_reading_the_information_decisions_after_rate0_blocks_is_exact(n, mode):
    rng = np.random.default_rng(500 + n)
    batches = itertools.cycle((1, 7, 8, 9, 13))
    info = ~_stale_sum_mask(rng, n)
    for delta, steps in itertools.product((0.0, 0.05, 1.0), (None, 0, 1, n)):
        fault = FaultSpec(delta=delta, unprotected_steps=steps, correlation_mode=mode)
        batch = next(batches)
        _assert_reading_info_is_exact(rng, n, mode, info, fault, batch, (delta, steps, batch))
