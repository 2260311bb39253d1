"""Density evolution against independent oracles, set design, protection math."""

import itertools

import numpy as np
import pytest

from faultypolar import (
    CodeConstruction,
    FaultSpec,
    ResourceLimitError,
    construct_code,
    design_code,
    erasure_floor,
    evolve_all,
    evolve_path,
    expected_epsilon,
    index_to_path,
    pe_counts,
    rate_loss,
)
from faultypolar.construction import _levels


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


def _reference_levels(z, steps, delta, faulty_steps):
    """The levels of _levels, each grown into a fresh array."""
    yield z
    for j in range(steps):
        nxt = np.empty(2 * z.size, dtype=np.float64)
        minus, plus = nxt[0::2], nxt[1::2]
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


@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3, 1.0])
@pytest.mark.parametrize("start", sorted(START_LEVELS))
def test_levels_in_place_equal_fresh_levels_bitwise(start, delta):
    # up to 14 steps, so the widest steps span several scratch blocks
    z0 = START_LEVELS[start]
    for steps in range(15):
        for faulty_steps in range(steps + 1):
            buf = np.full(start << steps, np.nan)  # a cell read before written shows
            buf[:start] = z0
            levels = zip(_levels(buf, steps, delta, faulty_steps),
                         _reference_levels(z0, steps, delta, faulty_steps), strict=True)
            for j, (level, ref) in enumerate(levels):
                assert level.tobytes() == ref.tobytes(), (steps, faulty_steps, j)


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
def test_channel_erasure_is_checked_at_entry(p):
    fault = FaultSpec(delta=0.1)
    with pytest.raises(ValueError):
        evolve_all(0, p, fault)
    with pytest.raises(ValueError):
        evolve_path((), p, fault)
    for method in ("auto", "enumerate", "closed-form"):
        with pytest.raises(ValueError):
            expected_epsilon(p, 0.1, 0, method=method)
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


def test_design_code_examples():
    info, frozen = design_code([0.9375, 0.5625, 0.4375, 0.0625], 2)
    assert info.tolist() == [3, 4] and frozen.tolist() == [True, True, False, False]
    info, frozen = design_code([0.75, 0.25], 1)
    assert info.tolist() == [2]
    info, _ = design_code([0.5, 0.5], 1)
    assert info.tolist() == [1]  # tie toward the smaller index


def test_design_code_random_vectors():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.random(64)
        k = int(rng.integers(1, 64))
        info, frozen = design_code(z, k)
        assert info.dtype == np.int64 and frozen.dtype == bool
        assert info.size == k and frozen.sum() == 64 - k
        assert not frozen[info - 1].any()
        assert z[info - 1].max() <= z[frozen].min()
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
        val = expected_epsilon(p, delta, steps, method="enumerate")
        assert val == pytest.approx(enumerate_mean(p, delta, steps), abs=1e-12)
        closed = expected_epsilon(p, delta, steps, method="closed-form")
        assert val == pytest.approx(closed, abs=1e-12)


def test_expected_epsilon_examples():
    assert expected_epsilon(0.5, 0.0, 7) == pytest.approx(0.5, abs=1e-12)
    assert expected_epsilon(0.5, 0.1, 1) == pytest.approx(0.55, abs=1e-12)
    assert expected_epsilon(0.5, 1e-3, 10) == pytest.approx(
        1 - 0.5 * 0.999**10, abs=1e-12)


def test_expected_epsilon_cap_behavior():
    # auto falls back to the (exact) closed form above the cap
    value = expected_epsilon(0.5, 1e-4, 30)
    assert value == expected_epsilon(0.5, 1e-4, 30, method="closed-form")
    with pytest.raises(ResourceLimitError):
        expected_epsilon(0.5, 1e-4, 30, method="enumerate")
    with pytest.raises(ValueError):
        expected_epsilon(0.5, 1e-4, -1)
    with pytest.raises(ValueError):
        expected_epsilon(0.5, 1e-4, 5, method="guess")


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
        return CodeConstruction(n=2, channel_erasure=0.5, fault=FaultSpec(),
                                reliabilities=reliabilities, frozen_mask=frozen_mask)

    build(z, np.array([True, True, False, False]))
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
    for _ in range(200):
        size = 2 ** int(rng.integers(1, 9))
        # few distinct values, so most vectors are full of ties
        z = rng.integers(0, int(rng.integers(1, 6)), size) / 4.0
        k = int(rng.integers(1, size))
        info, frozen = design_code(z, k)
        ref_info, ref_frozen = _design_code_frozensets(z, k)
        assert info.tolist() == sorted(ref_info)
        assert np.flatnonzero(frozen).tolist() == [i - 1 for i in sorted(ref_frozen)]


def test_code_construction_arrays_are_read_only():
    z = evolve_all(3, 0.5, FaultSpec())
    _, frozen = design_code(z, 4)
    code = CodeConstruction(n=3, channel_erasure=0.5, fault=FaultSpec(),
                            reliabilities=z, frozen_mask=frozen)
    for arr in (code.reliabilities, code.frozen_mask, code.info_indices):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # the caller's arrays keep their flags
    assert z.flags.writeable and frozen.flags.writeable
