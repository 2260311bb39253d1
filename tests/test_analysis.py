"""Sweeps: proxy oracle, blocklength/protection phenomena, rate-loss closed form."""

import numpy as np
import pytest

from faultypolar import (
    DEFAULT_RATE_GRID,
    FaultSpec,
    SweepResult,
    construct_code,
    erasure_floor,
    evolve_all,
    fer_proxy,
    fer_vs_rate_sweep,
    pe_counts,
    protection_sweep,
    rate_loss_sweep,
    staircase,
)


def test_fer_proxy_examples():
    code = construct_code(2, 0.5, FaultSpec(), 1)
    assert code.info_set == {4}
    assert fer_proxy(code) == pytest.approx(0.0625, abs=1e-12)


def test_fer_proxy_floor_bound():
    fault = FaultSpec(delta=1e-6)
    code = construct_code(10, 0.5, fault, 512)
    assert fer_proxy(code) >= 512 * 1e-6 / (1 - 1e-6)


def test_proxy_matches_brute_force_over_grid():
    fault = FaultSpec()
    sweep = fer_vs_rate_sweep(10, 0.5, fault)
    z = np.sort(evolve_all(10, 0.5, fault), kind="stable")
    for rate, proxy in zip(sweep.axis, sweep.series["proxy_raw"]):
        k = round(rate * 1024)
        assert abs(proxy - float(np.sum(z[:k]))) <= 1e-10


def test_proxy_consistent_with_designed_codes():
    fault = FaultSpec(delta=1e-6)
    sweep = fer_vs_rate_sweep(8, 0.5, fault)
    for rate, k, proxy in zip(sweep.axis, sweep.series["k"], sweep.series["proxy_raw"]):
        code = construct_code(8, 0.5, fault, int(k))
        assert fer_proxy(code) == pytest.approx(proxy, abs=1e-10)


def test_nonfaulty_series_monotone_in_rate():
    sweep = fer_vs_rate_sweep(9, 0.5, FaultSpec())
    assert np.all(np.diff(sweep.series["proxy_raw"]) >= 0)


def test_blocklength_nonmonotonicity_under_faults():
    fault = FaultSpec(delta=1e-6)
    proxies = {n: fer_vs_rate_sweep(n, 0.5, fault).series["proxy_raw"]
               for n in (10, 11, 12)}
    grid = np.asarray(DEFAULT_RATE_GRID)
    window = (grid >= 0.1) & (grid <= 0.45)
    increase = (proxies[12] > proxies[11]) & (proxies[11] > proxies[10])
    assert np.any(increase & window)


def test_protection_restores_blocklength_scaling():
    idx = DEFAULT_RATE_GRID.index(0.3)
    values = []
    for n in (10, 11, 12):
        fault = FaultSpec.from_protected_levels(n, n - 5, 1e-6)
        values.append(fer_vs_rate_sweep(n, 0.5, fault).series["proxy_raw"][idx])
    assert values[0] > values[1] > values[2]


def test_staircase_properties():
    fault = FaultSpec(delta=1e-6)
    result = staircase(12, 0.5, fault)
    z = result.series["z"]
    assert result.axis[0] == pytest.approx(1 / 4096)
    assert result.axis[-1] == 1.0
    assert np.all(np.diff(z) >= 0)
    assert z.min() >= erasure_floor(1e-6)
    # fault-free polarization at moderate depth
    clean = staircase(14, 0.5, FaultSpec()).series["z"]
    quarter, three_quarter = len(clean) // 4, 3 * len(clean) // 4
    assert clean[quarter - 1] < 1e-3
    assert clean[three_quarter] > 0.999
    # p = 1 is absorbing
    assert np.all(staircase(6, 1.0, fault).series["z"] == 1.0)


def test_sweeps_sort_values_as_a_stable_sort_does():
    # n = 20 is above the sizes where numpy's sorts take separate code paths
    fault = FaultSpec(delta=1e-6)
    expected = np.sort(evolve_all(20, 0.5, fault), kind="stable")
    assert staircase(20, 0.5, fault).series["z"].tobytes() == expected.tobytes()
    result = fer_vs_rate_sweep(20, 0.5, fault)
    prefix = np.cumsum(expected)
    assert result.series["proxy_raw"].tobytes() == prefix[result.series["k"] - 1].tobytes()


def test_protection_sweep_ordering():
    result = protection_sweep(10, 0.5, 1e-6, range(6))
    for n_p in range(5):
        lower = result.series[f"proxy_raw_np{n_p + 1}"]
        upper = result.series[f"proxy_raw_np{n_p}"]
        assert np.all(lower <= upper + 1e-15)
    assert result.metadata["protected_fraction"][5] == pytest.approx(31 / 2047)


def test_fully_protected_equals_fault_free():
    result = protection_sweep(8, 0.5, 1e-4, [9])
    clean = fer_vs_rate_sweep(8, 0.5, FaultSpec())
    assert np.array_equal(result.series["proxy_raw_np9"], clean.series["proxy_raw"])


def test_rate_loss_sweep_closed_form_and_ordering():
    deltas = (1e-3, 1e-4, 1e-5)
    result = rate_loss_sweep(0.5, deltas, range(1, 11))
    for delta in deltas:
        series = result.series[f"delta_r_{delta:g}"]
        closed = 1 - 0.5 * (1 - delta) ** result.axis - 0.5
        assert np.max(np.abs(series - closed)) <= 1e-12
        assert np.all(np.diff(series) > 0)  # strictly increasing in n_u
        pct = result.series[f"pct_capacity_{delta:g}"]
        assert np.allclose(pct, 100 * series / 0.5, atol=1e-12)
    # ordered in delta: smaller delta loses strictly less at every n_u
    assert np.all(result.series["delta_r_1e-05"] < result.series["delta_r_0.0001"])
    assert np.all(result.series["delta_r_0.0001"] < result.series["delta_r_0.001"])


def test_rate_loss_sweep_example_value():
    result = rate_loss_sweep(0.5, [1e-3], [10])
    assert result.series["pct_capacity_0.001"][0] == pytest.approx(0.9955, abs=5e-4)


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(axis=np.arange(3), series={"bad": np.arange(4)}, metadata={})
    with pytest.raises(ValueError):
        protection_sweep(6, 0.5, 1e-3, [])
    with pytest.raises(ValueError):
        rate_loss_sweep(1.0, [1e-3], [1, 2])
    with pytest.raises(ValueError):
        fer_vs_rate_sweep(3, 0.5, FaultSpec(), rates=[0.05])  # k would be 0


def test_metadata_regenerates_result():
    fault = FaultSpec(delta=1e-5, unprotected_steps=4)
    first = fer_vs_rate_sweep(9, 0.4, fault)
    meta = first.metadata
    again = fer_vs_rate_sweep(meta["n"], meta["p"],
                              FaultSpec(delta=meta["delta"],
                                        unprotected_steps=meta["unprotected_steps"]))
    assert np.array_equal(first.series["proxy_raw"], again.series["proxy_raw"])
