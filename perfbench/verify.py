"""Output checks for the benchmark's workloads.

At the default seed every CSV must match the sha256 pinned in
golden.json. At every seed the statistical and structural checks below
must hold as well. The reference density evolution here is written out
independently of the program, from the transfer maps in the README.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_RATES

GOLDEN = Path(__file__).with_name("golden.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_hashes() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class CheckFailed(Exception):
    pass


def _rows(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        got = next(csv.reader(fh))
    if got != header:
        raise CheckFailed(f"{path.name}: header {got} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def reference_reliabilities(n: int, p: float, delta: float) -> np.ndarray:
    """Z_1..Z_N with every transition faulty; index 1 is the all-check path."""
    z = np.array([p])
    for _ in range(n):
        nxt = np.empty(2 * z.size)
        check = 2 * z - z * z
        var = z * z
        nxt[0::2] = check + (1 - check) * delta
        nxt[1::2] = var + (1 - var) * delta
        z = nxt
    return z


def _close(a, b, rtol=1e-12, atol=0.0) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def check_simulate(out: Path, params: dict) -> None:
    n, p, delta, trials = params["n"], params["p"], params["delta"], params["trials"]
    size = 2**n
    header = ["frames", "frame_erasures", "fer", "ber", "fer_lo95", "fer_hi95", "proxy_sum"]
    frames, erasures, fer, ber, lo, hi, proxy_sum = _rows(out / "sim.csv", header)[0]
    _require(frames == trials, f"sim.csv: {frames} frames, expected {trials}")
    _require(0 <= erasures <= frames and erasures == int(erasures),
             f"sim.csv: frame_erasures {erasures}")
    _require(fer == erasures / frames, "sim.csv: fer != frame_erasures / frames")
    _require(0 <= ber <= fer, f"sim.csv: ber {ber} outside [0, fer]")
    _require(lo <= fer <= hi, "sim.csv: fer outside its 95% interval")

    z = reference_reliabilities(n, p, delta)
    k = round(params["rate"] * size)
    info = np.argsort(z, kind="stable")[:k]
    proxy = float(z[info].sum())
    _require(_close(proxy_sum, proxy, rtol=1e-9),
             f"sim.csv: proxy_sum {proxy_sum} != reference {proxy}")
    # the bounds of montecarlo.compare_to_proxy, 3-sigma convention
    clamped = min(proxy, 1.0)
    lower = float(z[info].max())
    sigma_upper = math.sqrt(clamped * (1 - clamped) / frames)
    sigma_lower = math.sqrt(lower * (1 - lower) / frames)
    _require(fer <= proxy + 3 * sigma_upper, f"fer {fer} above the proxy bound {proxy}")
    _require(fer >= lower - 3 * sigma_lower, f"fer {fer} below the lower bound {lower}")

    if not params["genie"]:
        return
    rows = _rows(out / "perbit.csv", ["index", "erasure_count", "empirical_rate", "z"])
    _require(rows.shape == (size, 4), f"perbit.csv: shape {rows.shape}")
    index, count, rate, z_out = rows.T
    _require(np.array_equal(index, np.arange(1, size + 1)), "perbit.csv: index column")
    _require(np.array_equal(rate, count / frames), "perbit.csv: rate != count / frames")
    _require(_close(z_out, z), "perbit.csv: z differs from the reference evolution")
    # genie decisions erase with probability Z_i exactly: 4 sigma, plus one
    # count of continuity allowance for the integer counts
    slack = 4 * np.sqrt(frames * z * (1 - z)) + 1
    worst = int(np.argmax(np.abs(count - frames * z) - slack))
    _require(np.all(np.abs(count - frames * z) <= slack),
             f"perbit.csv: index {worst + 1} count {count[worst]} vs "
             f"expected {frames * z[worst]:.1f}")


def check_construct(out: Path, params: dict) -> None:
    size = 2 ** params["n"]
    rel = _rows(out / "reliabilities.csv", ["index", "z"])
    code = _rows(out / "code.csv", ["index", "frozen"])
    _require(rel.shape == (size, 2) and code.shape == (size, 2), "construct: row count")
    z = rel[:, 1]
    _require(_close(z, reference_reliabilities(params["n"], params["p"], params["delta"])),
             "reliabilities.csv: z differs from the reference evolution")
    frozen = code[:, 1] == 1
    k = round(params["rate"] * size)
    _require(int((~frozen).sum()) == k, f"code.csv: {(~frozen).sum()} info bits, want {k}")
    _require(z[~frozen].max() <= z[frozen].min(),
             "code.csv: an information bit is less reliable than a frozen one")


def check_staircase(out: Path, params: dict) -> None:
    size = 2 ** params["n"]
    rows = _rows(out / "staircase.csv", ["index_fraction", "z"])
    _require(rows.shape == (size, 2), f"staircase.csv: shape {rows.shape}")
    _require(np.array_equal(rows[:, 0], np.arange(1, size + 1) / size),
             "staircase.csv: index_fraction column")
    z = rows[:, 1]
    delta = params["delta"]
    _require(bool(np.all(np.diff(z) >= 0)), "staircase.csv: z not ascending")
    _require(z[0] >= delta / (1 - delta), f"staircase.csv: min z {z[0]} below the floor")
    reference = np.sort(reference_reliabilities(params["n"], params["p"], delta))
    _require(_close(z, reference), "staircase.csv: z differs from the reference evolution")


def _check_rate_points(rows: np.ndarray, size: int, name: str) -> None:
    rates = np.array(DEFAULT_RATES)
    _require(rows.shape == (rates.size, 5), f"{name}: shape {rows.shape}")
    rate, k, realized, raw, clamped = rows.T
    _require(np.array_equal(rate, rates), f"{name}: rate column")
    _require(np.array_equal(k, [round(r * size) for r in rates]), f"{name}: k column")
    _require(np.array_equal(realized, k / size), f"{name}: realized_rate column")
    _require(bool(np.all(np.diff(raw) >= 0)), f"{name}: proxy not increasing with rate")
    _require(np.array_equal(clamped, np.minimum(raw, 1.0)), f"{name}: proxy_clamped")


_RATE_HEADER = ["rate", "k", "realized_rate", "proxy_raw", "proxy_clamped"]


def check_fer_rate(out: Path, params: dict) -> None:
    _check_rate_points(_rows(out / "fer_rate.csv", _RATE_HEADER), 2 ** params["n"],
                       "fer_rate.csv")


def check_protection(out: Path, params: dict) -> None:
    previous = None
    for n_p in params["np_levels"]:
        name = f"protection_np{n_p}.csv"
        rows = _rows(out / name, _RATE_HEADER)
        _check_rate_points(rows, 2 ** params["n"], name)
        # protecting one more level can only lower every Z_i
        _require(previous is None or bool(np.all(rows[:, 3] <= previous)),
                 f"{name}: proxy rose with more protection")
        previous = rows[:, 3]


def check_rate_loss(out: Path, params: dict) -> None:
    p = params["p"]
    nus = np.array(params["nus"], dtype=float)
    for delta in params["deltas"]:
        name = f"rate_loss_delta_{delta:g}.csv"
        rows = _rows(out / name, ["nu", "delta_r", "pct_capacity"])
        _require(rows.shape == (nus.size, 3), f"{name}: shape {rows.shape}")
        nu, loss, pct = rows.T
        _require(np.array_equal(nu, nus), f"{name}: nu column")
        expected = (1 - p) * (1 - (1 - delta) ** nus)
        _require(_close(loss, expected, rtol=1e-9, atol=1e-14),
                 f"{name}: delta_r differs from (1-p)(1-(1-delta)**nu)")
        _require(_close(pct, 100 * loss / (1 - p)), f"{name}: pct_capacity column")


CHECKS = {
    "simulate": check_simulate,
    "construct": check_construct,
    "staircase": check_staircase,
    "fer_rate": check_fer_rate,
    "protection": check_protection,
    "rate_loss": check_rate_loss,
}


def check_command(command, out: Path, expected: dict | None) -> tuple[dict, list[str]]:
    """sha256 of the command's CSVs, and the files missing or not matching
    `expected` (file name -> sha256; None skips the comparison)."""
    hashes, problems = {}, []
    for name in command.outputs:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        hashes[name] = sha256(path)
        if expected is not None and hashes[name] != expected.get(name):
            problems.append(f"{name}: sha256 {hashes[name][:12]} differs from "
                            f"{str(expected.get(name))[:12]}")
    return hashes, problems


def check_statistics(command, out: Path) -> list[str]:
    """Problems the statistical and structural checks find in the outputs."""
    try:
        CHECKS[command.check](out, command.params)
    except CheckFailed as exc:
        return [str(exc)]
    except (OSError, ValueError, IndexError) as exc:
        return [f"{command.check}: unreadable output: {exc}"]
    return []
