"""Transfer-function values, fixed points, and order properties."""

import numpy as np
import pytest

from faultypolar import (
    FaultSpec,
    erasure_floor,
    t_minus,
    t_minus_faulty,
    t_plus,
    t_plus_faulty,
)

TOL = 1e-12


def test_t_plus_values():
    assert t_plus(0.5) == 0.25
    assert t_plus(1.0) == 1.0
    assert t_plus(0.0) == 0.0


def test_t_minus_values():
    assert t_minus(0.5) == 0.75
    assert t_minus(0.0) == 0.0
    assert t_minus(1.0) == 1.0


def test_t_plus_faulty_values():
    assert t_plus_faulty(0.5, 0.1) == pytest.approx(0.325, abs=TOL)
    # delta/(1-delta) is a fixed point: 0.2/0.8 = 0.25
    assert t_plus_faulty(0.25, 0.2) == pytest.approx(0.25, abs=TOL)
    assert t_plus_faulty(0.5, 0.0) == t_plus(0.5)


def test_t_minus_faulty_values():
    assert t_minus_faulty(0.5, 0.1) == pytest.approx(0.775, abs=TOL)
    assert t_minus_faulty(1.0, 0.3) == pytest.approx(1.0, abs=TOL)
    assert t_minus_faulty(0.5, 0.0) == t_minus(0.5)


@pytest.mark.parametrize("func", [t_plus, t_minus])
def test_nonfaulty_rejects_out_of_range(func):
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            func(bad)


@pytest.mark.parametrize("func", [t_plus_faulty, t_minus_faulty])
def test_faulty_rejects_out_of_range(func):
    with pytest.raises(ValueError):
        func(-0.1, 0.5)
    with pytest.raises(ValueError):
        func(0.5, 2.0)


def _grid(lo, hi, count):
    # midpoints keep every sample strictly inside (lo, hi)
    step = (hi - lo) / count
    return lo + step * (np.arange(count) + 0.5)


def test_delta_floor_bounds():
    # both faulty maps stay within [delta, 1] on the whole square
    eps = _grid(0.0, 1.0, 101)
    for delta in (1e-6, 1e-3, 0.1, 0.5, 0.9):
        for f in (t_plus_faulty, t_minus_faulty):
            vals = f(eps, delta)
            assert np.all(vals >= delta)
            assert np.all(vals <= 1.0)


def test_gap_between_faulty_maps():
    # t_minus_faulty - t_plus_faulty = 2*eps*(1-eps)*(1-delta) >= 0
    eps = _grid(0.0, 1.0, 101)
    for delta in (0.0, 0.2, 0.7, 1.0):
        gap = t_minus_faulty(eps, delta) - t_plus_faulty(eps, delta)
        expected = 2 * eps * (1 - eps) * (1 - delta)
        assert np.allclose(gap, expected, atol=1e-14)
        assert np.all(gap >= -1e-15)
    assert t_minus_faulty(0.5, 1.0) == t_plus_faulty(0.5, 1.0)


def test_contraction_above_floor():
    # strictly below the identity on (delta/(1-delta), 1) for delta < 1/2
    for delta in (1e-6, 1e-2, 0.3, 0.49):
        lo = erasure_floor(delta)
        eps = _grid(lo, 1.0, 100)
        assert np.all(t_plus_faulty(eps, delta) < eps)


def test_expansion_below_floor():
    # strictly above the identity on [0, delta/(1-delta))
    for delta in (1e-3, 0.1, 0.4):
        eps = _grid(0.0, erasure_floor(delta), 100)
        assert np.all(t_plus_faulty(eps, delta) > eps)


def test_check_map_expands_everywhere():
    # t_minus_faulty > eps on [0, 1) whenever delta > 0
    for delta in (1e-6, 1e-2, 0.5, 0.99):
        eps = _grid(0.0, 1.0, 100)
        assert np.all(t_minus_faulty(eps, delta) > eps)


def test_fixed_points():
    for delta in (1e-6, 1e-3, 0.1, 0.3, 0.49):
        star = erasure_floor(delta)
        assert abs(t_plus_faulty(star, delta) - star) <= TOL
        assert abs(t_plus_faulty(1.0, delta) - 1.0) <= TOL
        assert abs(t_minus_faulty(1.0, delta) - 1.0) <= TOL


def test_monotone_in_eps_and_delta():
    eps = _grid(0.0, 1.0, 200)
    for delta in (0.0, 1e-3, 0.2, 0.8):
        for f in (t_plus_faulty, t_minus_faulty):
            vals = f(eps, delta)
            assert np.all(np.diff(vals) >= -1e-15)
    deltas = _grid(0.0, 1.0, 200)
    for e in (0.0, 0.3, 0.9, 1.0):
        for f in (t_plus_faulty, t_minus_faulty):
            vals = f(e, deltas)
            assert np.all(np.diff(vals) >= -1e-15)


def test_mean_identity_and_submartingale():
    eps = _grid(0.0, 1.0, 100)
    for delta in (0.0, 1e-6, 0.05, 0.6, 1.0):
        mean = 0.5 * (t_plus_faulty(eps, delta) + t_minus_faulty(eps, delta))
        mean_step = eps + (1 - eps) * delta
        assert np.allclose(mean, mean_step, atol=1e-14)
        drift = mean_step - eps
        assert np.all(drift >= -1e-16)
    # equality iff eps = 1 or delta = 0
    for eps, delta, rises in ((1.0, 0.4, False), (0.3, 0.0, False), (0.3, 0.4, True)):
        mean_step = eps + (1 - eps) * delta
        assert mean_step > eps if rises else mean_step == eps


def test_fault_spec_validation():
    spec = FaultSpec(delta=0.1, unprotected_steps=3)
    assert spec.effective_steps(10) == 3
    assert spec.effective_steps(2) == 2
    assert FaultSpec(delta=0.1).effective_steps(7) == 7
    with pytest.raises(ValueError):
        FaultSpec(delta=1.5)
    with pytest.raises(ValueError):
        FaultSpec(delta=0.1, unprotected_steps=-1)
    with pytest.raises(ValueError):
        FaultSpec(delta=0.1, correlation_mode="both")


def test_fault_spec_from_protected_levels():
    spec = FaultSpec.from_protected_levels(10, 5, 1e-6)
    assert spec.unprotected_steps == 6
    assert FaultSpec.from_protected_levels(10, 11, 1e-6).unprotected_steps == 0
    with pytest.raises(ValueError):
        FaultSpec.from_protected_levels(10, 12, 1e-6)


def test_erasure_floor():
    assert erasure_floor(0.0) == 0.0
    assert erasure_floor(0.2) == pytest.approx(0.25, abs=TOL)
    assert np.isinf(erasure_floor(1.0))
