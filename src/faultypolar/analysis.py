"""Analytic sweeps over rate, blocklength, and protection grids.

A sweep over n refuses n above construction.DEFAULT_MAX_EXPONENT with
ResourceLimitError before it allocates anything, as evolve_all does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import (
    CodeConstruction,
    _checked,
    _code_dimension,
    _mean_erasures,
    _require_exponent,
    evolve_all,
    pe_counts,
)
from .core import FaultSpec

DEFAULT_RATE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass(frozen=True)
class SweepResult:
    """One abscissa plus named ordinate series and the generating parameters."""

    axis: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self):
        axis = np.asarray(self.axis)
        series = {name: np.asarray(values) for name, values in self.series.items()}
        for name, arr in series.items():
            if arr.shape != axis.shape:
                raise ValueError(f"series {name!r} does not match the axis length")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "series", series)


def fer_proxy(code: CodeConstruction) -> float:
    """Sum of Z_i over the information set, an FER proxy.

    The raw sum can exceed 1 at high rates; clamp with min(value, 1) for
    plotting.
    """
    return float(code.reliabilities[~code.frozen_mask].sum())


def _code_dimensions(rates, size: int) -> np.ndarray:
    """k = round(rate * size) for each rate of a nonempty grid, each in 1..size - 1."""
    if not rates:
        raise ValueError("rates must not be empty")
    ks = np.array([_code_dimension(rate, size) for rate in rates], dtype=np.int64)
    for rate, k in zip(rates, ks):
        if not 0 < k < size:
            raise ValueError(f"rate {rate} gives k={k}, outside 1..{size - 1}")
    return ks


def _rate_points(z: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Realized rate and proxy value for each code dimension in ks.

    Codes at every rate share one reliability vector: the proxy at rate
    k/N is the prefix sum of the ascending-sorted Z values. z is sorted and
    summed in place, so the caller's array is spent. evolve_all admits no
    NaN and no -0.0, so equal values are equal bits and any sort algorithm
    gives the same array; numpy's default is the fastest. The sum stops at
    the largest k; cumsum is sequential, so its values are those of the
    full sum.
    """
    z.sort()
    prefix = z[:ks.max(initial=0)]
    np.cumsum(prefix, out=prefix)
    return ks / z.size, prefix[ks - 1]


def fer_vs_rate_sweep(n: int, p: float, fault: FaultSpec, rates=None) -> SweepResult:
    """FER proxy across a rate grid for one blocklength and fault spec.

    n and every rate's k are checked before density evolution, p as it starts.
    """
    rates = DEFAULT_RATE_GRID if rates is None else tuple(rates)
    ks = _code_dimensions(rates, 2**_require_exponent(n))
    z = evolve_all(n, p, fault, ordered=False)
    realized, proxy = _rate_points(z, ks)
    return SweepResult(
        axis=np.asarray(rates, dtype=np.float64),
        series={
            "k": ks,
            "realized_rate": realized,
            "proxy_raw": proxy,
            "proxy_clamped": np.minimum(proxy, 1.0),
        },
        metadata={"n": n, "p": p, "delta": fault.delta,
                  "unprotected_steps": fault.unprotected_steps},
    )


def staircase(n: int, p: float, fault: FaultSpec) -> SweepResult:
    """Ascending-sorted reliability values against the index fraction i/N."""
    z = evolve_all(n, p, fault, ordered=False)
    z.sort()
    size = z.size
    axis = np.arange(1, size + 1, dtype=np.float64)
    axis /= size
    return SweepResult(
        axis=axis,
        series={"z": z},
        metadata={"n": n, "p": p, "delta": fault.delta,
                  "unprotected_steps": fault.unprotected_steps},
    )


def _protection_faults(n: int, delta: float, n_p_values) -> dict[int, FaultSpec]:
    """FaultSpec.from_protected_levels(n, n_p, delta) for each n_p of a nonempty list."""
    if not n_p_values:
        raise ValueError("n_p_values must not be empty")
    return {n_p: FaultSpec.from_protected_levels(n, n_p, delta) for n_p in n_p_values}


def protection_sweep(n: int, p: float, delta: float, n_p_values, rates=None) -> SweepResult:
    """One FER-proxy-vs-rate series per protected level count n_p.

    Each n_p maps to n_u = (n + 1) - n_p unprotected transitions, of which
    fault.effective_steps(n) are faulty; the metadata records the protected
    PE fraction for each series.

    The series of n_p is fer_vs_rate_sweep under
    FaultSpec.from_protected_levels(n, n_p, delta). Every n_p is checked
    before any density evolution runs, and so are n and the rate grid, by
    the first fer_vs_rate_sweep. Each distinct faulty-step count is swept
    once, one sweep after another (one 2**n buffer at a time): repeated
    n_p values, n_p = 0 and 1 (n faulty steps each) and, at delta = 0,
    every n_p (none) share one curve.
    """
    rates = DEFAULT_RATE_GRID if rates is None else tuple(rates)
    n_p_values = tuple(n_p_values)
    faults = _protection_faults(n, delta, n_p_values)
    curves, fractions = {}, {}
    series: dict[str, np.ndarray] = {}
    for n_p, fault in faults.items():
        steps = fault.effective_steps(n)
        if steps not in curves:
            curves[steps] = fer_vs_rate_sweep(n, p, fault, rates).series
        curve = curves[steps]
        series[f"proxy_raw_np{n_p}"] = curve["proxy_raw"]
        series[f"proxy_clamped_np{n_p}"] = curve["proxy_clamped"]
        fractions[int(n_p)] = pe_counts(n, n_p).fraction
    series = {"k": curve["k"], "realized_rate": curve["realized_rate"], **series}
    return SweepResult(
        axis=np.asarray(rates, dtype=np.float64),
        series=series,
        metadata={"n": n, "p": p, "delta": delta,
                  "n_p_values": tuple(int(v) for v in n_p_values),
                  "protected_fraction": fractions},
    )


def _rate_loss_inputs(p, deltas, n_u_values) -> tuple[float, list[int], dict]:
    """(p as a float, the n_u list, each distinct delta's label) once
    _checked passes, p is below 1, the delta list is nonempty and no two
    deltas print alike under :g, since each label names a series. p's range
    comes first, so p = 1.5 is refused as rate_loss refuses it."""
    p, n_u_list = _checked(p, deltas, n_u_values, "n_u")
    if 1.0 - p <= 0.0:
        raise ValueError("p must be below 1 so the capacity view is defined")
    if not deltas:
        raise ValueError("deltas must not be empty")
    labels = {}
    for delta in dict.fromkeys(deltas):
        label = f"{delta:g}"
        if label in labels.values():
            raise ValueError(f"two different deltas print as {label}")
        labels[delta] = label
    return p, n_u_list, labels


def rate_loss_sweep(p: float, deltas, n_u_values) -> SweepResult:
    """Rate loss against the unprotected transition count, one series per delta.

    Emits the raw loss and the percentage-of-capacity view used alongside
    capacity C = 1 - p. Each value equals rate_loss(p, delta, n_u) bit for
    bit, from one construction._mean_erasures call per delta over the whole
    n_u list: for n_u up to DEFAULT_ENUMERATION_CAP the mean E[eps_{n_u}]
    is level n_u of one all-faulty recursion, averaged on the way, and
    larger n_u take the closed form.

    A repeated delta is evolved once and gives one series. Every input is
    checked first (_rate_loss_inputs), so an empty n_u list checks p and
    every delta too, and no density evolution runs before a refusal.
    """
    deltas = tuple(deltas)
    p_float, n_u, labels = _rate_loss_inputs(p, deltas, n_u_values)
    capacity = 1.0 - p
    series: dict[str, np.ndarray] = {}
    for delta, label in labels.items():
        losses = np.maximum(np.subtract(_mean_erasures(p_float, delta, n_u), p_float), 0.0)
        series[f"delta_r_{label}"] = losses
        series[f"pct_capacity_{label}"] = 100.0 * losses / capacity
    return SweepResult(
        axis=np.asarray(n_u, dtype=np.int64),
        series=series,
        metadata={"p": p, "deltas": tuple(float(d) for d in deltas),
                  "n_u_values": tuple(n_u)},
    )
