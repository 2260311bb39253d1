"""Density evolution against independent oracles, set design, protection math."""

import itertools
import tracemalloc

import numpy as np
import pytest

from faultypolar import (
    CodeConstruction,
    FaultSpec,
    ResourceLimitError,
    SimConfig,
    binomial_ci95,
    construct_code,
    design_code,
    erasure_floor,
    evolve_all,
    evolve_path,
    expected_epsilon,
    index_to_path,
    pe_counts,
    protection_sweep,
    rate_loss,
    rate_loss_sweep,
    run_simulation,
)
from faultypolar.codec import _decode_batch, fault_slot_count
from faultypolar.construction import DEFAULT_ENUMERATION_CAP, _grow, _levels


def oracle_z(n, p, delta=0.0, n_u=None):
    """Per-index path walk with inline formulas; independent of evolve_all.

    A faulty step erases the surviving fraction: T(e) + (1 - T(e)) * delta.
    """
    faulty = n if n_u is None else min(n_u, n)
    out = []
    for i0 in range(2**n):
        e = p
        for j in range(n):
            bit = (i0 >> (n - 1 - j)) & 1
            e = e * e if bit else 2 * e - e * e
            if j < faulty:
                e = e + (1 - e) * delta
        out.append(e)
    return np.array(out)


def test_index_to_path_examples():
    assert index_to_path(1, 2) == (0, 0)  # all check nodes
    assert index_to_path(4, 2) == (1, 1)  # all variable nodes
    assert index_to_path(1, 0) == ()
    assert index_to_path(2, 2) == (0, 1)


def test_index_to_path_bijection():
    n = 5
    seen = set()
    for i in range(1, 2**n + 1):
        path = index_to_path(i, n)
        assert len(path) == n
        rebuilt = 1 + sum(b << (n - 1 - j) for j, b in enumerate(path))
        assert rebuilt == i
        seen.add(path)
    assert len(seen) == 2**n


def test_index_to_path_rejects_out_of_range():
    with pytest.raises(ValueError):
        index_to_path(0, 3)
    with pytest.raises(ValueError):
        index_to_path(9, 3)
    with pytest.raises(ValueError, match="exponent"):
        index_to_path(1, -1)


def test_evolve_path_examples():
    assert evolve_path((1,), 0.5, FaultSpec(delta=0.1)) == pytest.approx(0.325, abs=1e-12)
    assert evolve_path((0, 0), 0.5, FaultSpec()) == pytest.approx(0.9375, abs=1e-12)
    for bits in itertools.product((0, 1), repeat=4):
        assert evolve_path(bits, 1.0, FaultSpec(delta=0.3, unprotected_steps=2)) == 1.0


def test_evolve_all_examples():
    assert np.allclose(evolve_all(1, 0.5, FaultSpec()), [0.75, 0.25], atol=1e-12)
    assert np.allclose(evolve_all(2, 0.5, FaultSpec()),
                       [0.9375, 0.5625, 0.4375, 0.0625], atol=1e-12)
    assert np.allclose(evolve_all(1, 0.5, FaultSpec(delta=0.1)),
                       [0.775, 0.325], atol=1e-12)


def test_evolve_all_matches_oracle_nonfaulty():
    for n in (0, 1, 3, 6, 10):
        z = evolve_all(n, 0.5, FaultSpec())
        assert np.max(np.abs(z - oracle_z(n, 0.5))) <= 1e-12
        assert abs(z.mean() - 0.5) <= 1e-12  # martingale conservation


def test_evolve_all_matches_oracle_faulty_and_protected():
    for n, delta, n_u in [(4, 0.1, None), (5, 1e-3, 2), (6, 0.02, 0), (6, 0.3, 6)]:
        fault = FaultSpec(delta=delta, unprotected_steps=n_u)
        z = evolve_all(n, 0.37, fault)
        assert np.max(np.abs(z - oracle_z(n, 0.37, delta, n_u))) <= 1e-12


def test_evolve_all_consistent_with_evolve_path():
    for n in range(0, 9):
        fault = FaultSpec(delta=1e-3, unprotected_steps=max(n - 2, 0))
        z = evolve_all(n, 0.41, fault)
        for i in sorted({1, min(2, 2**n), 2**n // 2 + 1, 2**n}):
            assert z[i - 1] == evolve_path(index_to_path(i, n), 0.41, fault)


def test_evolve_all_path_consistency_exhaustive_n12():
    fault = FaultSpec(delta=1e-6)
    n = 12
    z = evolve_all(n, 0.5, fault)
    rng = np.random.default_rng(5)
    for i in rng.choice(2**n, size=200, replace=False):
        assert z[i] == evolve_path(index_to_path(int(i) + 1, n), 0.5, fault)


def test_faulty_mean_identity():
    for n in (4, 10, 16):
        for n_u in (None, 3, n):
            fault = FaultSpec(delta=1e-6, unprotected_steps=n_u)
            z = evolve_all(n, 0.5, fault)
            target = 1 - 0.5 * (1 - 1e-6) ** fault.effective_steps(n)
            assert abs(z.mean() - target) <= 1e-10


def test_reliability_floor():
    fault = FaultSpec(delta=1e-6)
    floor = erasure_floor(1e-6)
    for n in (6, 10, 14):
        z = evolve_all(n, 0.5, fault)
        assert z.min() >= floor


def test_all_faulty_paths_stay_above_delta():
    rng = np.random.default_rng(11)
    from faultypolar import t_minus_faulty, t_plus_faulty

    for delta in (1e-6, 1e-3, 0.1):
        floor = erasure_floor(delta)
        for _ in range(100):
            eps = float(rng.random())
            above = eps >= floor
            for _ in range(200):
                step = t_plus_faulty if rng.random() < 0.5 else t_minus_faulty
                eps = step(eps, delta)
                assert eps >= delta
                if above:
                    assert eps >= floor
                above = above or eps >= floor


@pytest.mark.parametrize("p", [0.0, 1.0, 1e-300, 0.41])
@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_u", [None, 0, 3])
def test_evolve_all_equals_evolve_path_bitwise_at_the_edges(p, delta, n_u):
    fault = FaultSpec(delta=delta, unprotected_steps=n_u)
    for n in range(0, 9):
        paths = [evolve_path(index_to_path(i, n), p, fault) for i in range(1, 2**n + 1)]
        assert evolve_all(n, p, fault).tobytes() == np.array(paths).tobytes()


def _reference_levels(z, steps, delta, faulty_steps, ordered=True):
    """The levels of _grow and _levels, each grown into a fresh array:
    children interleaved (ordered) or as [minus | plus] halves."""
    yield z
    for j in range(steps):
        nxt = np.empty(2 * z.size, dtype=np.float64)
        if ordered:
            minus, plus = nxt[0::2], nxt[1::2]
        else:
            minus, plus = nxt[:z.size], nxt[z.size:]
        np.multiply(z, z, out=plus)
        np.multiply(z, 2, out=minus)
        np.subtract(minus, plus, out=minus)
        if j < faulty_steps:
            lost = np.subtract(1, nxt)
            np.multiply(lost, delta, out=lost)
            np.add(nxt, lost, out=nxt)
        z = nxt
        yield z


START_LEVELS = {
    1: np.array([0.41]),
    2: np.array([0.0, 0.7]),
    8: np.array([1.0, 0.5, 1e-300, 0.3, 0.999, 0.0, 0.123456789, 0.75]),
}


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3, 1.0])
@pytest.mark.parametrize("start", sorted(START_LEVELS))
def test_levels_in_place_equal_fresh_levels_bitwise(start, delta, ordered):
    # up to 14 steps, so the widest steps span several scratch blocks;
    # _grow from each start level, and _levels from the root [z0[0]]
    z0 = START_LEVELS[start]
    for steps in range(15):
        for faulty_steps in range(steps + 1):
            buf = np.full(start << steps, np.nan)  # a cell read before written shows
            buf[:start] = z0
            refs = _reference_levels(z0, steps, delta, faulty_steps, ordered)
            next(refs)
            for j, ref in enumerate(refs):
                _grow(buf, start << j, delta, j < faulty_steps, ordered)
                assert buf[:ref.size].tobytes() == ref.tobytes(), (steps, faulty_steps, j)
            fault = FaultSpec(delta=delta, unprotected_steps=faulty_steps)
            levels = zip(_levels(steps, z0[0], fault, ordered),
                         _reference_levels(z0[:1], steps, delta, faulty_steps, ordered),
                         strict=True)
            for j, (level, ref) in enumerate(levels):
                assert level.tobytes() == ref.tobytes(), (steps, faulty_steps, j)


def _bit_reversal(n):
    """Index i of the result is i with its n bits reversed."""
    rev = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        rev |= ((np.arange(2**n) >> bit) & 1) << (n - 1 - bit)
    return rev


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3, 1.0])
def test_order_free_evolve_all_sorts_to_natural_order(p, delta):
    # the sweeps that sort take the order-free layout; sorted, it must give
    # natural order's bits, and it is natural order bit-reversed
    for n in range(13):
        for n_u in dict.fromkeys([None, 0, 1, n // 2]):
            fault = FaultSpec(delta=delta, unprotected_steps=n_u)
            natural = evolve_all(n, p, fault)
            free = evolve_all(n, p, fault, ordered=False)
            assert np.sort(free).tobytes() == np.sort(natural).tobytes(), (n, n_u)
            assert free.tobytes() == natural[_bit_reversal(n)].tobytes(), (n, n_u)


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
def test_channel_erasure_is_checked_at_entry(p):
    fault = FaultSpec(delta=0.1)
    with pytest.raises(ValueError):
        evolve_all(0, p, fault)
    with pytest.raises(ValueError):
        evolve_path((), p, fault)
    for steps in (0, 30):  # enumerated, and the closed form above the cap
        with pytest.raises(ValueError):
            expected_epsilon(p, 0.1, steps)
    with pytest.raises(ValueError):
        rate_loss(p, 0.1, 0)


def test_negative_zero_channel_erasure_reads_as_zero():
    # sorted values in [0, 1] are then unique bit patterns
    for fault in (FaultSpec(), FaultSpec(delta=0.0, unprotected_steps=0)):
        z = evolve_all(3, -0.0, fault)
        assert not np.signbit(z).any()
        assert not np.signbit(evolve_path((0, 0, 0), -0.0, fault))
    assert not np.signbit(expected_epsilon(-0.0, 0.0, 0))


def test_evolve_all_resource_error():
    with pytest.raises(ResourceLimitError):
        evolve_all(25, 0.5, FaultSpec())


def _info(frozen):
    """The 1-based information indices of a frozen mask."""
    return (np.flatnonzero(~frozen) + 1).tolist()


def test_design_code_examples():
    frozen = design_code([0.9375, 0.5625, 0.4375, 0.0625], 2)
    assert frozen.tolist() == [True, True, False, False]
    assert _info(design_code([0.75, 0.25], 1)) == [2]
    assert _info(design_code([0.5, 0.5], 1)) == [1]  # tie toward the smaller index


def test_design_code_random_vectors():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.random(64)
        k = int(rng.integers(1, 64))
        frozen = design_code(z, k)
        assert frozen.dtype == bool and frozen.shape == (64,)
        assert frozen.sum() == 64 - k
        assert z[~frozen].max() <= z[frozen].min()
    with pytest.raises(ValueError):
        design_code(z, 0)
    with pytest.raises(ValueError):
        design_code(z, 64)


def test_expected_epsilon_against_explicit_enumeration():
    def enumerate_mean(p, delta, steps):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=steps):
            e = p
            for b in bits:
                t = e * e if b else 2 * e - e * e
                e = t + (1 - t) * delta
            total += e
        return total / 2**steps

    for p, delta, steps in [(0.5, 0.0, 7), (0.5, 0.1, 1), (0.3, 0.02, 5), (0.5, 1e-3, 10)]:
        val = expected_epsilon(p, delta, steps)  # enumerated: steps <= cap
        assert val == pytest.approx(enumerate_mean(p, delta, steps), abs=1e-12)
        closed = 1 - (1 - p) * (1 - delta) ** steps
        assert val == pytest.approx(closed, abs=1e-12)


def test_expected_epsilon_examples():
    assert expected_epsilon(0.5, 0.0, 7) == pytest.approx(0.5, abs=1e-12)
    assert expected_epsilon(0.5, 0.1, 1) == pytest.approx(0.55, abs=1e-12)
    assert expected_epsilon(0.5, 1e-3, 10) == pytest.approx(
        1 - 0.5 * 0.999**10, abs=1e-12)


def test_expected_epsilon_cap_behavior():
    # above the cap the mean is the (exact) closed form, bit for bit
    assert DEFAULT_ENUMERATION_CAP < 30
    assert expected_epsilon(0.5, 1e-4, 30) == 1.0 - (1.0 - 0.5) * (1.0 - 1e-4) ** 30
    with pytest.raises(ValueError):
        expected_epsilon(0.5, 1e-4, -1)


def test_rate_loss_examples():
    assert rate_loss(0.5, 0.0, 10) == 0.0
    assert rate_loss(0.5, 1e-3, 10) == pytest.approx(0.5 * (1 - 0.999**10), abs=1e-12)
    assert rate_loss(0.5, 1e-5, 1) == pytest.approx(5e-6, abs=1e-15)
    assert rate_loss(0.3, 0.05, 4) >= 0.0


def test_pe_counts():
    assert pe_counts(10, 5) == (2047, 31, pytest.approx(31 / 2047))
    assert pe_counts(10, 0) == (2047, 0, 0.0)
    assert pe_counts(2, 3) == (7, 7, 1.0)
    # fixed n_u: protected fraction tends to 2**-n_u
    n_u = 5
    fractions = [pe_counts(n, (n + 1) - n_u).fraction for n in (10, 14, 18, 22)]
    assert abs(fractions[-1] - 2.0**-n_u) < 1e-6
    assert all(abs(f - 2.0**-n_u) >= abs(g - 2.0**-n_u) - 1e-18
               for f, g in zip(fractions, fractions[1:]))
    with pytest.raises(ValueError):
        pe_counts(4, 6)
    with pytest.raises(ValueError, match="exponent"):
        pe_counts(-1, 0)
    assert pe_counts(0, 0) == (1, 0, 0.0) and pe_counts(0, 1) == (1, 1, 1.0)


@pytest.mark.parametrize("n, n_p", [(-1, 0), (-3, -1), (4, -1), (4, 6), (0, 2)])
def test_protection_convention_refuses_alike(n, n_p):
    # the fault spec and the PE count are two halves of one convention:
    # each refuses the same (n, n_p), with the same message
    messages = []
    for call in (lambda: FaultSpec.from_protected_levels(n, n_p, 0.1),
                 lambda: pe_counts(n, n_p)):
        with pytest.raises(ValueError) as refused:
            call()
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def _schedule_hit_rows(n, steps, mode):
    """Hit rows one decode reads, by walking the schedule: bit i recomputes
    its levels from its top one down, and each level L >= n - steps adds
    its 2**L rows."""
    rows = 0
    for i in range(2**n):
        top = n - 1 if mode == "independent_tree" or i == 0 else (i & -i).bit_length() - 1
        rows += sum(2**level for level in range(top, -1, -1) if level >= n - steps)
    return rows


@pytest.mark.parametrize("mode", ["shared", "independent_tree"])
@pytest.mark.parametrize("n", range(11))
def test_protection_convention_agrees_everywhere(n, mode):
    # FaultSpec.effective_steps is the one rule: density evolution, the
    # decoder's fault hits and its slot count all read the same s, at
    # delta = 0 (s = 0) as elsewhere
    size, p = 2**n, 0.4
    frozen = np.arange(size) < size // 2
    for delta in (0.0, 0.3):
        by_nu = {FaultSpec(delta, nu, mode): None for nu in (None, *range(n + 2))}
        by_np = {FaultSpec.from_protected_levels(n, n_p, delta, mode): n_p
                 for n_p in range(n + 2)}
        # from_protected_levels gives the nu specs again; merged, each spec
        # is checked once, and with its n_p where it has one
        for fault, n_p in {**by_nu, **by_np}.items():
            steps = fault.effective_steps(n)
            nu = fault.unprotected_steps
            assert steps == (0 if delta == 0 else n if nu is None else min(nu, n))
            for ordered in (True, False):
                *_, ref = _reference_levels(np.array([p]), n, delta, steps, ordered)
                assert evolve_all(n, p, fault, ordered).tobytes() == ref.tobytes()
            slots = fault_slot_count(n, fault, mode)
            assert slots == _schedule_hit_rows(n, steps, mode), (fault, steps)
            # p = 0 and every hit set: the faulted levels erase all below them
            for genie in (False, True):
                decision = _decode_batch(np.zeros((8, size), dtype=bool), frozen, fault,
                                         mode, genie, np.zeros((size, 1), dtype=np.uint8),
                                         np.full((slots, 1), 255, dtype=np.uint8))
                assert (decision[0] == (255 if steps else 0)).all(), (fault, genie)
            if n_p is None or delta == 0:
                continue
            protected = pe_counts(n, n_p).protected
            if n_p >= 1:
                assert protected == 2**(n + 1 - steps) - 1, (n, n_p)
            else:
                # the root level, which no step faults, is charged no PE at
                # n_p = 0: the open choice of ROADMAP item 8's second step
                assert (protected, 2**(n + 1 - steps) - 1) == (0, 1)

def _sim_config(trials, seed=0):
    fault = FaultSpec()
    return SimConfig(code=construct_code(2, 0.5, fault, 2), channel_erasure=0.5,
                     fault=fault, trials=trials, master_seed=seed)


# each integer where it enters: (the call, an integer it takes, a non-integer)
@pytest.mark.parametrize("call, count, bad", [
    pytest.param(lambda v: evolve_all(v, 0.5, FaultSpec()), 2, 2.5, id="evolve_all-n"),
    # n is checked before effective_steps compares it with unprotected_steps
    pytest.param(lambda v: evolve_all(v, 0.5, FaultSpec(unprotected_steps=1)), 2, 2.5,
                 id="evolve_all-n-fixed-steps"),
    pytest.param(lambda v: FaultSpec.from_protected_levels(v, 2, 0.1), 4, 4.0,
                 id="from_protected_levels-n"),
    pytest.param(lambda v: construct_code(2, 0.5, FaultSpec(), v), 2, 2.5,
                 id="construct_code-k"),
    pytest.param(lambda v: design_code(np.array([0.1, 0.2, 0.3, 0.4]), v), 2, 2.0,
                 id="design_code-k"),
    pytest.param(lambda v: FaultSpec(unprotected_steps=v), 2, 2.0,
                 id="FaultSpec-unprotected_steps"),
    pytest.param(lambda v: protection_sweep(4, 0.5, 0.1, [v]), 2, 2.0,
                 id="protection_sweep-n_p"),
    pytest.param(lambda v: binomial_ci95(v, 10), 5, 5.5, id="binomial_ci95-count"),
    pytest.param(lambda v: binomial_ci95(5, v), 10, 10.0, id="binomial_ci95-n"),
    pytest.param(lambda v: expected_epsilon(0.5, 1e-3, v), 2, 2.5, id="expected_epsilon"),
    pytest.param(lambda v: rate_loss(0.5, 1e-3, v), 2, 2.5, id="rate_loss"),
    pytest.param(lambda v: rate_loss_sweep(0.5, [1e-3], [1, v]), 2, 2.7,
                 id="rate_loss_sweep"),
    pytest.param(lambda v: pe_counts(4, v), 1, 1.5, id="pe_counts-n_p"),
    pytest.param(lambda v: pe_counts(v, 1), 4, 4.0, id="pe_counts-n"),
    pytest.param(lambda v: index_to_path(v, 2), 1, 1.5, id="index_to_path-i"),
    pytest.param(lambda v: index_to_path(1, v), 2, 2.5, id="index_to_path-n"),
    pytest.param(_sim_config, 10, 10.5, id="SimConfig-trials"),
    pytest.param(lambda v: _sim_config(10, seed=v), 1, 1.5, id="SimConfig-master_seed"),
    pytest.param(lambda v: run_simulation(_sim_config(10), threads=v), 1, 1.5,
                 id="run_simulation-threads"),
])
def test_counts_must_be_integers(call, count, bad):
    call(count)
    call(np.int64(count))
    # a float is refused, not rounded by a cast or raised from inside numpy
    for value in (bad, np.float64(bad), "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda v: index_to_path(1, v), "exponent n", id="index_to_path-n"),
    pytest.param(lambda v: FaultSpec.from_protected_levels(v, 2, 0.1), "exponent n",
                 id="from_protected_levels-n"),
    pytest.param(lambda v: FaultSpec(unprotected_steps=v), "unprotected_steps",
                 id="FaultSpec-unprotected_steps"),
    pytest.param(lambda v: expected_epsilon(0.5, 1e-3, v), "steps", id="expected_epsilon"),
    pytest.param(lambda v: rate_loss(0.5, 1e-3, v), "steps", id="rate_loss"),
    pytest.param(lambda v: rate_loss_sweep(0.5, [1e-3], [1, v]), "n_u",
                 id="rate_loss_sweep"),
])
def test_counts_lie_below_2_to_63(call, name):
    # one rule for every count: an integer an int64 holds, refused by
    # ValueError outside it, never an OverflowError from numpy or a float power
    for value in (-1, np.int64(-3), 2**63, np.uint64(2**63), 2**64, 10**400):
        bound = "nonnegative" if value < 0 else "below 2**63"
        with pytest.raises(ValueError) as refused:
            call(value)
        assert str(refused.value) == f"{name} must be {bound}, got {int(value)}"


def test_largest_count_is_accepted():
    top = 2**63 - 1
    assert FaultSpec(delta=0.1, unprotected_steps=top).effective_steps(5) == 5
    assert FaultSpec.from_protected_levels(top, 1, 0.1).unprotected_steps == top
    assert expected_epsilon(0.5, 1e-3, top) == 1.0
    assert rate_loss_sweep(0.5, [1e-3], [top]).axis.tolist() == [top]


def test_exponent_above_the_cap_is_a_resource_limit_however_large():
    # the cap comes before the count bound, so no n above it is a usage error
    for n in (25, 2**63 - 1, 2**63, 10**400):
        with pytest.raises(ResourceLimitError):
            evolve_all(n, 0.5, FaultSpec())
    with pytest.raises(ValueError, match="^exponent n must be nonnegative, got -1$"):
        evolve_all(-1, 0.5, FaultSpec())


def test_code_construction_invariants():
    fault = FaultSpec(delta=1e-6)
    code = construct_code(6, 0.5, fault, 32)
    assert code.N == 64 and code.k == 32 and code.rate == 0.5
    mask = code.frozen_mask
    assert mask.shape == (64,) and mask.dtype == bool
    info = code.info_indices
    assert info.dtype == np.int64 and np.all(np.diff(info) > 0)
    assert np.array_equal(info, np.flatnonzero(~mask) + 1)
    assert code.reliabilities[info - 1].max() <= code.reliabilities[mask].min()
    assert mask.sum() == 32
    assert not mask[code.info_indices - 1].any()


def test_code_construction_rejects_bad_sets():
    z = evolve_all(2, 0.5, FaultSpec())

    def build(reliabilities, frozen_mask):
        return CodeConstruction(reliabilities=reliabilities, frozen_mask=frozen_mask)

    build(z, np.array([True, True, False, False]))
    # no information bit, or no frozen one; n, N and k are derived as ints
    for frozen, k in ((np.ones(4, dtype=bool), 0), (np.zeros(4, dtype=bool), 4)):
        code = build(z, frozen)
        assert (code.n, code.N, code.k, type(code.k)) == (2, 4, k, int)
    # the information set {1, 2} is less reliable than the frozen set {3, 4}
    with pytest.raises(ValueError):
        build(z, np.array([False, False, True, True]))
    # a mask that does not cover 1..N exactly, or is not boolean
    with pytest.raises(ValueError):
        build(z, np.array([True, True, False]))
    with pytest.raises(ValueError):
        build(z, np.array([1, 1, 0, 0]))
    with pytest.raises(ValueError):
        build(z[:3], np.array([True, True, False]))
    # reliabilities outside [0, 1], NaN included, each in an order the
    # mask would otherwise accept
    for bad in ([1.5, 0.5, 0.25, 0.0], [1.0, 0.5, 0.25, -0.25], [np.nan, 0.5, 0.25, 0.0]):
        with pytest.raises(ValueError):
            build(np.array(bad), np.array([True, True, False, False]))


def _design_code_frozensets(reliabilities, k):
    """The frozenset design_code this package had before it returned arrays."""
    z = np.asarray(reliabilities, dtype=np.float64)
    order = np.argsort(z, kind="stable")
    info = frozenset(int(i) + 1 for i in order[:k])
    return info, frozenset(range(1, z.size + 1)) - info


def test_design_code_equals_the_frozenset_reference():
    rng = np.random.default_rng(11)
    for case in range(400):
        size = 2 ** int(rng.integers(1, 9))
        # few distinct values, so most vectors are full of ties; -0.0 and
        # 0.0 tie as well
        z = rng.integers(0, int(rng.integers(1, 6)), size) / 4.0
        if case % 2:
            z[rng.random(size) < 0.5] *= -1.0
        k = int(rng.integers(1, size))
        frozen = design_code(z, k)
        ref_info, ref_frozen = _design_code_frozensets(z, k)
        assert _info(frozen) == sorted(ref_info)
        assert np.flatnonzero(frozen).tolist() == [i - 1 for i in sorted(ref_frozen)]


def test_design_code_refuses_nan_among_the_k_best():
    # a NaN sorts last, so it is refused only where the set would take it
    z = np.array([0.5, np.nan, 0.25, 0.75])
    assert _info(design_code(z, 3)) == [1, 3, 4]
    with pytest.raises(ValueError, match="NaN"):
        design_code(np.array([np.nan, np.nan, 0.25, 0.75]), 3)


# numpy reports its buffers to tracemalloc; small objects and the index
# scratch of a partition stay below this
_SLACK = 64 * 1024


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [16, 18])
def test_construct_code_peak(n):
    # the 8-byte reliabilities, plus either np.partition's copy of them or
    # the bool mask and its complement; a stable argsort peaked 6 bytes per
    # position higher at k = N/2
    size = 2**n
    fault = FaultSpec(delta=1e-6)
    for k in (1, size // 2, size - 1):
        peak = _traced_peak(construct_code, n, 0.5, fault, k)
        assert peak <= 16 * size + _SLACK, k
    # at p = 1 every value ties, and the tie positions take 8 bytes each
    peak = _traced_peak(construct_code, n, 1.0, fault, size // 2)
    assert peak <= 18 * size + _SLACK


def test_code_construction_arrays_are_read_only():
    z = evolve_all(3, 0.5, FaultSpec())
    frozen = design_code(z, 4)
    code = CodeConstruction(reliabilities=z, frozen_mask=frozen)
    for arr in (code.reliabilities, code.frozen_mask, code.info_indices):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # the caller's arrays keep their flags
    assert z.flags.writeable and frozen.flags.writeable
