"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np

from faultypolar import (
    DEFAULT_RATE_GRID,
    FaultSpec,
    SimConfig,
    compare_to_proxy,
    construct_code,
    erasure_floor,
    evolve_all,
    fer_vs_rate_sweep,
    pe_counts,
    rate_loss,
    rate_loss_sweep,
    run_simulation,
    t_minus_faulty,
    t_plus_faulty,
)
from faultypolar.cli import main


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def _oracle_z_nonfaulty(n, p):
    out = np.empty(2**n)
    for i0 in range(2**n):
        e = p
        for j in range(n):
            e = e * e if (i0 >> (n - 1 - j)) & 1 else 2 * e - e * e
        out[i0] = e
    return out


def test_criterion_1_nonfaulty_oracle_equivalence():
    start = time.perf_counter()
    z = evolve_all(10, 0.5, FaultSpec())
    oracle = _oracle_z_nonfaulty(10, 0.5)
    elapsed = time.perf_counter() - start
    ok = (np.max(np.abs(z - oracle)) <= 1e-12
          and abs(z.mean() - 0.5) <= 1e-12
          and elapsed < 1.0)
    _report(1, f"non-faulty oracle equivalence at n=10 ({elapsed:.2f}s)", ok)


def test_criterion_2_faulty_mean_identity():
    start = time.perf_counter()
    ok = True
    for n in (10, 16, 20):
        z = evolve_all(n, 0.5, FaultSpec(delta=1e-6))
        ok &= abs(z.mean() - (1 - 0.5 * (1 - 1e-6) ** n)) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, f"faulty mean identity at n in (10, 16, 20) ({elapsed:.1f}s)", ok)


def test_criterion_3_reliability_floor():
    floor = 1e-6 / (1 - 1e-6)
    ok = True
    for n in (10, 20):
        z = evolve_all(n, 0.5, FaultSpec(delta=1e-6))
        ok &= bool(z.min() >= floor)
    _report(3, "reliability floor delta/(1-delta) at n in (10, 20); "
               "n=30 exceeds the memory budget and is skipped", ok)


def test_criterion_4_paths_never_fall_below_floor():
    rng = np.random.default_rng(0xFA117)
    violations = 0
    for delta in (1e-6, 1e-3, 0.1):
        floor = erasure_floor(delta)
        for _ in range(1000):
            eps = float(rng.random())
            above = eps >= floor
            for _ in range(200):
                if rng.random() < 0.5:
                    eps = t_plus_faulty(eps, delta)
                else:
                    eps = t_minus_faulty(eps, delta)
                if eps < delta:
                    violations += 1
                if above and eps < floor:
                    violations += 1
                above = above or eps >= floor
    _report(4, f"3000 random length-200 paths respect the delta and floor bounds "
               f"({violations} violations)", violations == 0)


def test_criterion_5_transfer_map_properties():
    rng = np.random.default_rng(0x9B5)
    ok = True
    # order properties of the faulty maps on 10^4 points strictly inside
    # their contraction/expansion intervals
    for _ in range(10_000):
        delta = float(rng.uniform(1e-9, 0.499))
        star = erasure_floor(delta)
        eps_i = star + (1 - star) * float(rng.uniform(1e-6, 1 - 1e-6))
        ok &= t_plus_faulty(eps_i, delta) < eps_i
        eps_ii = star * float(rng.uniform(0.0, 1 - 1e-9))
        ok &= t_plus_faulty(eps_ii, delta) > eps_ii
        delta_iii = float(rng.uniform(1e-9, 1.0))
        eps_iii = float(rng.uniform(0.0, 1 - 1e-12))
        ok &= t_minus_faulty(eps_iii, delta_iii) > eps_iii
    # fixed points within 1e-12
    for delta in (1e-6, 1e-3, 0.1, 0.3, 0.49):
        star = erasure_floor(delta)
        ok &= abs(t_plus_faulty(star, delta) - star) <= 1e-12
        ok &= abs(t_plus_faulty(1.0, delta) - 1.0) <= 1e-12
        ok &= abs(t_minus_faulty(1.0, delta) - 1.0) <= 1e-12
    # submartingale identity within 1e-14
    eps = rng.random(10_000)
    for delta in (0.0, 1e-6, 0.05, 0.5, 1.0):
        mean = 0.5 * (t_plus_faulty(eps, delta) + t_minus_faulty(eps, delta))
        ok &= bool(np.max(np.abs(mean - (eps + (1 - eps) * delta))) <= 1e-14)
    _report(5, "transfer-map order properties, fixed points, mean identity", ok)


def test_criterion_6_rate_loss():
    # n_u = 10 is enumerated; n_u = 30, above the cap of 20, takes the closed form
    by_enum = rate_loss(0.5, 1e-3, 10)
    by_closed = rate_loss(0.5, 1e-3, 30)
    ok = (abs(by_enum - 0.5 * (1 - 0.999**10)) <= 1e-12
          and abs(by_closed - 0.5 * (1 - 0.999**30)) <= 1e-12)
    sweep = rate_loss_sweep(0.5, (1e-3, 1e-4, 1e-5), range(1, 11))
    for delta in (1e-3, 1e-4, 1e-5):
        ok &= bool(np.all(np.diff(sweep.series[f"delta_r_{delta:g}"]) > 0))
    ordered = (np.all(sweep.series["delta_r_1e-05"] < sweep.series["delta_r_0.0001"])
               and np.all(sweep.series["delta_r_0.0001"] < sweep.series["delta_r_0.001"]))
    ok &= bool(ordered)
    _report(6, "rate loss: enumeration and closed form agree; grid ordered", ok)


def test_criterion_7_blocklength_nonmonotonicity():
    start = time.perf_counter()
    fault = FaultSpec(delta=1e-6)
    proxies = {n: fer_vs_rate_sweep(n, 0.5, fault).series["proxy_raw"]
               for n in (10, 11, 12)}
    increase = (proxies[12] > proxies[11]) & (proxies[11] > proxies[10])
    elapsed = time.perf_counter() - start
    ok = bool(np.any(increase)) and elapsed < 10.0
    rates = np.asarray(DEFAULT_RATE_GRID)[increase]
    _report(7, f"proxy increases with blocklength at rates {rates.tolist()} "
               f"({elapsed:.1f}s)", ok)


def test_criterion_8_protection_restores_scaling():
    # (a) n_p = 0..5 series pointwise nonincreasing in n_p at every grid rate
    series = []
    for n_p in range(6):
        fault = FaultSpec.from_protected_levels(10, n_p, 1e-6)
        series.append(fer_vs_rate_sweep(10, 0.5, fault).series["proxy_raw"])
    ok_a = all(bool(np.all(series[i + 1] <= series[i])) for i in range(5))
    # (b) protected fraction at n_p = 5 is exactly 31/2047
    counts = pe_counts(10, 5)
    ok_b = counts.protected == 31 and counts.total == 2047 \
        and counts.fraction == 31 / 2047
    # (c) with n_p = n - 5 the proxy at R = 0.3 strictly decreases in n
    idx = DEFAULT_RATE_GRID.index(0.3)
    at_r03 = []
    for n in (10, 11, 12):
        fault = FaultSpec.from_protected_levels(n, n - 5, 1e-6)
        at_r03.append(fer_vs_rate_sweep(n, 0.5, fault).series["proxy_raw"][idx])
    ok_c = at_r03[0] > at_r03[1] > at_r03[2]
    _report(8, "partial protection: ordering in n_p, 31/2047 fraction, "
               "restored blocklength scaling", ok_a and ok_b and ok_c)


def test_criterion_9_monte_carlo_consistency():
    start = time.perf_counter()
    # N = 256, R = 0.25, delta = 0, genie, 1e4 trials
    fault0 = FaultSpec(delta=0.0, correlation_mode="shared")
    code0 = construct_code(8, 0.5, fault0, 64)
    out0 = run_simulation(SimConfig(code=code0, channel_erasure=0.5, fault=fault0,
                                    trials=10_000, master_seed=20260810, genie=True))
    rep0 = compare_to_proxy(out0, code0)
    ok = rep0.upper_bound_holds and rep0.lower_bound_holds
    # same bound form at delta = 1e-3 in independent-tree mode
    fault1 = FaultSpec(delta=1e-3, correlation_mode="independent_tree")
    code1 = construct_code(8, 0.5, fault1, 64)
    out1 = run_simulation(SimConfig(code=code1, channel_erasure=0.5, fault=fault1,
                                    trials=10_000, master_seed=20260811, genie=True))
    rep1 = compare_to_proxy(out1, code1)
    ok &= rep1.upper_bound_holds and rep1.lower_bound_holds
    # per-bit genie frequencies at N = 16, delta = 0.05, 1e5 frames within 4 sigma
    fault2 = FaultSpec(delta=0.05, correlation_mode="independent_tree")
    code2 = construct_code(4, 0.5, fault2, 8)
    out2 = run_simulation(SimConfig(code=code2, channel_erasure=0.5, fault=fault2,
                                    trials=100_000, master_seed=20260812, genie=True))
    z = code2.reliabilities
    emp = out2.per_bit_erasures / out2.frames
    sigma = np.sqrt(z * (1 - z) / out2.frames)
    ok &= bool(np.all(np.abs(emp - z) <= 4 * sigma))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(9, f"Monte Carlo within union-bound band and 4-sigma per-bit match "
               f"({elapsed:.0f}s)", ok)


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["construct", "--n", "6", "--p", "0.5", "--delta", "1e-6", "--rate", "0.5"],
        ["simulate", "--n", "5", "--p", "0.5", "--delta", "0.01", "--rate", "0.5",
         "--trials", "400", "--seed", "9", "--genie"],
        ["sweep", "staircase", "--n", "8", "--p", "0.5", "--delta", "1e-6"],
        ["sweep", "fer-rate", "--n", "8", "--p", "0.5", "--delta", "1e-6"],
        ["sweep", "rate-loss", "--p", "0.5", "--deltas", "1e-3,1e-4,1e-5",
         "--nu", "1..10"],
        ["sweep", "protection", "--n", "8", "--p", "0.5", "--delta", "1e-6",
         "--np", "0..5"],
    ]
    ok = True
    for pos, command in enumerate(commands):
        dirs = [tmp_path / f"{pos}_{tag}" for tag in ("a", "b", "c")]
        threads = ["1", "1", "4"]
        for directory, thread_count in zip(dirs, threads):
            rc = main([*command, "--threads", thread_count,
                       "--out-dir", str(directory)])
            ok &= rc == 0
        reference = sorted(p.name for p in dirs[0].glob("*.csv"))
        ok &= bool(reference)
        for directory in dirs[1:]:
            for name in reference:
                ok &= (directory / name).read_bytes() == (dirs[0] / name).read_bytes()
    _report(10, "CLI reruns byte-identical, thread count included", ok)
