"""Sweeps: proxy oracle, blocklength/protection phenomena, rate-loss closed form."""

import tracemalloc

import numpy as np
import pytest

from faultypolar import (
    DEFAULT_RATE_GRID,
    FaultSpec,
    ResourceLimitError,
    SweepResult,
    construct_code,
    erasure_floor,
    evolve_all,
    expected_epsilon,
    fer_proxy,
    fer_vs_rate_sweep,
    pe_counts,
    protection_sweep,
    rate_loss,
    rate_loss_sweep,
    staircase,
)
from faultypolar import analysis, construction
from faultypolar.analysis import _code_dimensions, _rate_points


def test_fer_proxy_examples():
    code = construct_code(2, 0.5, FaultSpec(), 1)
    assert code.info_indices.tolist() == [4]
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


def test_sweeps_refuse_an_empty_rate_grid_before_density_evolution(monkeypatch):
    def evolve_all(*args, **kwargs):
        raise AssertionError("density evolution ran")
    monkeypatch.setattr(analysis, "evolve_all", evolve_all)
    with pytest.raises(ValueError, match="rates must not be empty"):
        fer_vs_rate_sweep(4, 0.5, FaultSpec(), rates=[])
    with pytest.raises(ValueError, match="rates must not be empty"):
        protection_sweep(4, 0.5, 0.1, [0, 2], rates=())


def test_sweep_result_leaves_the_callers_series_alone():
    series = {"a": [1.0, 2.0], "b": [3, 4]}
    result = SweepResult(axis=[0, 1], series=series, metadata={})
    assert all(type(values) is list for values in series.values())
    assert series == {"a": [1.0, 2.0], "b": [3, 4]}
    assert result.series is not series
    assert result.series["a"].tolist() == [1.0, 2.0]
    assert result.series["b"].dtype == np.asarray([3, 4]).dtype


def test_metadata_regenerates_result():
    fault = FaultSpec(delta=1e-5, unprotected_steps=4)
    first = fer_vs_rate_sweep(9, 0.4, fault)
    meta = first.metadata
    again = fer_vs_rate_sweep(meta["n"], meta["p"],
                              FaultSpec(delta=meta["delta"],
                                        unprotected_steps=meta["unprotected_steps"]))
    assert np.array_equal(first.series["proxy_raw"], again.series["proxy_raw"])


# The sweeps read several results off one density-evolution recursion. The
# references below compute each point on its own, with its own evolve_all or
# rate_loss call.

def _rate_loss_reference(p, deltas, n_u_values):
    """rate_loss_sweep's series, one rate_loss call per (delta, n_u)."""
    capacity = 1.0 - p
    if capacity <= 0.0:
        raise ValueError("p must be below 1")
    series = {}
    for delta in deltas:
        losses = np.array([rate_loss(p, delta, int(nu)) for nu in n_u_values],
                          dtype=np.float64)
        series[f"delta_r_{delta:g}"] = losses
        series[f"pct_capacity_{delta:g}"] = 100.0 * losses / capacity
    return series


def _protection_reference(n, p, delta, n_p_values, rates=DEFAULT_RATE_GRID):
    """protection_sweep's series, one evolve_all per n_p."""
    if not n_p_values:
        raise ValueError("n_p_values must not be empty")
    series = {}
    for n_p in n_p_values:
        fault = FaultSpec.from_protected_levels(n, n_p, delta)
        z = evolve_all(n, p, fault)
        ks = _code_dimensions(rates, z.size)
        realized, proxy = _rate_points(z, ks)
        series[f"proxy_raw_np{n_p}"] = proxy
        series[f"proxy_clamped_np{n_p}"] = np.minimum(proxy, 1.0)
    return {"k": ks, "realized_rate": realized, **series}


def _assert_same_series(actual, expected):
    assert list(actual) == list(expected)
    for name, values in expected.items():
        assert actual[name].dtype == values.dtype, name
        assert actual[name].tobytes() == values.tobytes(), name


def test_rate_loss_sweep_evolves_a_repeated_delta_once(monkeypatch):
    # the sweep's recursions run in construction._mean_erasures
    recursions = []
    levels = construction._levels

    def counting(n, p, fault):
        recursions.append(fault.delta)
        return levels(n, p, fault)

    monkeypatch.setattr(construction, "_levels", counting)
    result = rate_loss_sweep(0.5, (1e-3, 1e-4, 0.001), range(1, 6))
    assert recursions == [1e-3, 1e-4]
    assert sorted(result.series) == sorted(
        f"{kind}_{label}" for kind in ("delta_r", "pct_capacity")
        for label in ("0.001", "0.0001"))


def test_rate_loss_sweep_refuses_deltas_that_print_alike():
    with pytest.raises(ValueError, match="0.123457"):
        rate_loss_sweep(0.5, (0.1234567, 0.1234568), range(1, 4))


NU_LISTS = ([25, 0, 20, 3, 3, 21], list(range(1, 21)), [])


# at p = 0.45 and delta = 0 some means fall below p and the loss is clamped
@pytest.mark.parametrize("p", [0.0, 1e-300, 0.3, 0.45, 0.5])
@pytest.mark.parametrize("n_u_values", NU_LISTS)
def test_rate_loss_sweep_matches_per_point_rate_loss(p, n_u_values):
    deltas = (0.0, 1e-5, 0.5, 1.0)
    result = rate_loss_sweep(p, deltas, n_u_values)
    _assert_same_series(result.series, _rate_loss_reference(p, deltas, n_u_values))
    assert result.axis.tolist() == n_u_values


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5])
def test_rate_loss_sweep_takes_the_closed_form_inline_above_the_cap(p, monkeypatch):
    # above the enumeration cap the sweep evaluates rate_loss's closed form
    # over the whole n_u list, with the inputs checked once, and gets its
    # bits
    deltas = (0.0, 1e-5, 0.5, 1.0)
    n_u_values = [*range(21, 2001), 10**6]
    expected = _rate_loss_reference(p, deltas, n_u_values)

    def per_point(*args, **kwargs):
        raise AssertionError("rate_loss called once per n_u")
    monkeypatch.setattr(construction, "rate_loss", per_point)
    monkeypatch.setattr(construction, "expected_epsilon", per_point)
    _assert_same_series(rate_loss_sweep(p, deltas, n_u_values).series, expected)


@pytest.mark.parametrize("delta", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("n", range(11))
def test_protection_sweep_matches_per_level_count_loop(n, delta):
    size = 2**n
    # every k once, in descending order; none at n = 0, where the empty
    # rate grid is refused
    rates = [k / size for k in range(size - 1, 0, -1)]
    n_p_values = [*range(n + 2), n + 1, 0, 1]
    if not rates:
        with pytest.raises(ValueError, match="rates must not be empty"):
            protection_sweep(n, 0.4, delta, n_p_values, rates=rates)
        return
    result = protection_sweep(n, 0.4, delta, n_p_values, rates=rates)
    expected = _protection_reference(n, 0.4, delta, n_p_values, rates=rates)
    _assert_same_series(result.series, expected)
    assert result.metadata["n_p_values"] == tuple(n_p_values)
    assert result.metadata["protected_fraction"] == {
        n_p: pe_counts(n, n_p).fraction for n_p in n_p_values}


@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3])
@pytest.mark.parametrize("n_p_values", [[5, 0, 9, 1, 5], [3, 11, 7, 3], [8, 2, 6]])
def test_protection_sweep_matches_the_loop_for_unordered_levels(n_p_values, delta):
    # repeated and unsorted n_p values share curves and keep their order
    result = protection_sweep(10, 0.3, delta, n_p_values)
    _assert_same_series(result.series, _protection_reference(10, 0.3, delta, n_p_values))


def test_protection_sweep_is_one_fer_rate_sweep_per_faulty_step_count(monkeypatch):
    # n_p = 0 and 1 give n faulty steps, and a repeated n_p its first curve;
    # an n_p out of range is refused before any curve is swept
    sweeps = []
    sweep = analysis.fer_vs_rate_sweep

    def counting(n, p, fault, rates=None):
        sweeps.append(fault.effective_steps(n))
        return sweep(n, p, fault, rates)

    monkeypatch.setattr(analysis, "fer_vs_rate_sweep", counting)
    protection_sweep(8, 0.5, 1e-3, [3, 0, 1, 3, 9, 5])
    assert sweeps == [6, 8, 0, 4]
    sweeps.clear()
    with pytest.raises(ValueError, match="n_p"):
        protection_sweep(8, 0.5, 1e-3, [3, 10])
    assert sweeps == []


def test_protection_sweep_at_delta_zero_is_one_fer_rate_sweep(monkeypatch):
    # a fault that never fires faults no step, so every n_p shares one curve
    sweeps = []
    sweep = analysis.fer_vs_rate_sweep

    def counting(n, p, fault, rates=None):
        sweeps.append(fault.unprotected_steps)
        return sweep(n, p, fault, rates)

    monkeypatch.setattr(analysis, "fer_vs_rate_sweep", counting)
    result = protection_sweep(8, 0.5, 0.0, range(10))
    assert sweeps == [9]
    expected = fer_vs_rate_sweep(8, 0.5, FaultSpec()).series["proxy_raw"]
    for n_p in range(10):
        assert result.series[f"proxy_raw_np{n_p}"].tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3, 1.0])
def test_order_free_sweeps_match_natural_order(p, delta):
    # the sweeps grow order-free; every n_p (n_u from n + 1 down to 0)
    # must give the loop's natural-order bits, as must fer-rate and
    # staircase
    for n in range(1, 13):
        size = 2**n
        rates = [1 / size, 0.5, (size - 1) / size]
        n_p_values = range(n + 2)
        result = protection_sweep(n, p, delta, n_p_values, rates=rates)
        _assert_same_series(result.series,
                            _protection_reference(n, p, delta, n_p_values, rates=rates))
        for n_u in dict.fromkeys([None, 0, 1, n // 2]):
            fault = FaultSpec(delta=delta, unprotected_steps=n_u)
            natural = np.sort(evolve_all(n, p, fault))
            assert staircase(n, p, fault).series["z"].tobytes() == natural.tobytes()
            proxy = _rate_points(natural, _code_dimensions(rates, size))[1]
            swept = fer_vs_rate_sweep(n, p, fault, rates=rates).series
            assert swept["proxy_raw"].tobytes() == proxy.tobytes()


@pytest.mark.parametrize("args, kwargs, error", [
    ((25, 0.5, 1e-3, [0]), {}, ResourceLimitError),
    ((-1, 0.5, 1e-3, [0]), {}, ValueError),
    ((6, 1.5, 1e-3, [0]), {}, ValueError),
    ((6, float("nan"), 1e-3, [0]), {}, ValueError),
    ((6, 0.5, -0.1, [0]), {}, ValueError),
    ((6, 0.5, 1.5, [3]), {}, ValueError),
    ((6, 0.5, 1e-3, [8]), {}, ValueError),
    ((6, 0.5, 1e-3, [2, -1]), {}, ValueError),
    ((6, 0.5, 1e-3, []), {}, ValueError),
    ((6, 0.5, 1e-3, [0]), {"rates": [0.001]}, ValueError),
])
def test_protection_sweep_raises_as_the_per_level_loop(args, kwargs, error):
    with pytest.raises(error):
        _protection_reference(*args, **kwargs)
    with pytest.raises(error):
        protection_sweep(*args, **kwargs)


@pytest.mark.parametrize("args", [
    (-0.1, [1e-3], [1, 2]),
    (1.0, [1e-3], [1, 2]),
    (1.5, [1e-3], [1]),
    (float("nan"), [1e-3], [1]),
    (0.5, [1e-3, -0.1], [1]),
    (0.5, [2.0], [25]),
    (0.5, [1e-3], [3, -1]),
    (0.5, [1e-3], [25, -1]),
])
def test_rate_loss_sweep_raises_as_per_point_rate_loss(args):
    with pytest.raises(ValueError):
        _rate_loss_reference(*args)
    with pytest.raises(ValueError):
        rate_loss_sweep(*args)


def test_rate_loss_sweep_without_points_checks_as_before():
    # no n_u, or no delta: p and delta are checked all the same
    for args in ((0.5, [2.0], []), (-0.5, [], [1, 2])):
        with pytest.raises(ValueError):
            rate_loss_sweep(*args)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: construct_code(3, 0.5, FaultSpec(), 0),
                 "k must lie in 1..7, got 0", id="construct_code-k0"),
    pytest.param(lambda: construct_code(3, 0.5, FaultSpec(), 8),
                 "k must lie in 1..7, got 8", id="construct_code-kN"),
    pytest.param(lambda: fer_vs_rate_sweep(5, 0.5, FaultSpec(), rates=[0.5, 1e-9]),
                 "rate 1e-09 gives k=0, outside 1..31", id="fer_vs_rate_sweep-rate"),
    pytest.param(lambda: protection_sweep(5, 0.5, 0.1, [0, 2], rates=[0.5, 1e-9]),
                 "rate 1e-09 gives k=0, outside 1..31", id="protection_sweep-rate"),
    pytest.param(lambda: expected_epsilon(1.5, 0.1, 3),
                 "p must lie in [0, 1], got 1.5", id="expected_epsilon-p"),
    pytest.param(lambda: expected_epsilon(0.5, -0.1, 3),
                 "delta must lie in [0, 1], got -0.1", id="expected_epsilon-delta"),
    pytest.param(lambda: expected_epsilon(0.5, 0.1, -1),
                 "steps must be nonnegative, got -1", id="expected_epsilon-steps"),
    pytest.param(lambda: expected_epsilon(0.5, 0.1, 2.5),
                 "steps must be an integer, got 2.5", id="expected_epsilon-steps-float"),
    pytest.param(lambda: rate_loss(float("nan"), 0.1, 3),
                 "p must lie in [0, 1], got nan", id="rate_loss-p"),
    pytest.param(lambda: rate_loss(0.5, 2.0, 3),
                 "delta must lie in [0, 1], got 2.0", id="rate_loss-delta"),
    pytest.param(lambda: rate_loss(0.5, 0.1, -2),
                 "steps must be nonnegative, got -2", id="rate_loss-n_u"),
    pytest.param(lambda: rate_loss_sweep(-0.1, [1e-3], [1, 2]),
                 "p must lie in [0, 1], got -0.1", id="rate_loss_sweep-p"),
    pytest.param(lambda: rate_loss_sweep(1.0, [1e-3], [1, 2]),
                 "p must be below 1 so the capacity view is defined",
                 id="rate_loss_sweep-capacity"),
    pytest.param(lambda: rate_loss_sweep(0.5, [1e-3, 1e-4, 1.5], [1, 2]),
                 "delta must lie in [0, 1], got 1.5", id="rate_loss_sweep-third-delta"),
    pytest.param(lambda: rate_loss_sweep(0.5, [1e-3, 1e-4], [3, 25, -1]),
                 "n_u must be nonnegative, got -1", id="rate_loss_sweep-n_u"),
    pytest.param(lambda: rate_loss_sweep(0.5, [1e-3], [1, 2.7]),
                 "n_u must be an integer, got 2.7", id="rate_loss_sweep-n_u-float"),
    pytest.param(lambda: rate_loss_sweep(0.5, [1e-3, 0.1234567, 0.1234568], [1]),
                 "two different deltas print as 0.123457", id="rate_loss_sweep-labels"),
    # counts the sweep's int64 axis and the closed form's float power cannot hold
    *[pytest.param(call, f"{name} must be below 2**63, got {count}", id=f"{label}-{count_id}")
      for count, count_id in ((2**63, "2**63"), (10**400, "10**400"))
      for call, name, label in (
          (lambda c=count: expected_epsilon(0.5, 1e-3, c), "steps", "expected_epsilon"),
          (lambda c=count: rate_loss(0.5, 1e-3, c), "steps", "rate_loss"),
          (lambda c=count: rate_loss_sweep(0.5, [1e-3], [3, c]), "n_u", "rate_loss_sweep"))],
])
def test_refusals_run_no_density_evolution(call, message, monkeypatch):
    # every recursion enters at construction._levels; an input is refused
    # at its public entry, before the first one
    recursions = []
    levels = construction._levels

    def counting(*args, **kwargs):
        recursions.append(args[0])
        return levels(*args, **kwargs)

    monkeypatch.setattr(construction, "_levels", counting)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
    assert recursions == []


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_protection_sweep_memory_within_one_level_of_the_loop():
    n, n_p_values = 16, range(0, 18)
    reference = _traced_peak(_protection_reference, n, 0.5, 1e-6, n_p_values)
    shared = _traced_peak(protection_sweep, n, 0.5, 1e-6, n_p_values)
    assert shared <= reference + 2**n * 8


# the 2**n float64 buffer of density evolution, plus its scratch and small
# objects
_SLACK = 128 * 1024


@pytest.mark.parametrize("n", [16, 18])
def test_design_sweeps_peak_at_one_buffer(n):
    fault = FaultSpec(delta=1e-6)
    buffer = 8 * 2**n
    assert _traced_peak(evolve_all, n, 0.5, fault) <= buffer + _SLACK
    assert _traced_peak(fer_vs_rate_sweep, n, 0.5, fault) <= buffer + _SLACK
    assert _traced_peak(rate_loss_sweep, 0.5, [1e-3, 1e-4], range(n + 1)) <= buffer + _SLACK
    # the result holds the sorted values and the axis i/N
    assert _traced_peak(staircase, n, 0.5, fault) <= 2 * buffer + _SLACK


@pytest.mark.parametrize("n", [16, 18])
def test_protection_sweep_peaks_at_one_buffer(n):
    # one fer_vs_rate_sweep per faulty-step count, each freeing its buffer
    peak = _traced_peak(protection_sweep, n, 0.5, 1e-6, range(n + 2))
    assert peak <= 8 * 2**n + _SLACK


def test_rate_loss_sweep_recursion_stops_at_the_enumeration_cap():
    single = _traced_peak(evolve_all, 20, 0.5, FaultSpec(delta=1e-3))
    for n_u_values in ([1000], [20, 1000]):
        assert _traced_peak(rate_loss_sweep, 0.5, [1e-3], n_u_values) <= single + 64 * 1024
