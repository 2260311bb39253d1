"""Analytic sweeps over rate, blocklength, and protection grids.

A sweep over n refuses n above construction.DEFAULT_MAX_EXPONENT with
ResourceLimitError before it allocates anything, as evolve_all does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import (
    DEFAULT_ENUMERATION_CAP,
    CodeConstruction,
    _code_dimension,
    _levels,
    _root,
    evolve_all,
    pe_counts,
    rate_loss,
)
from .core import FaultSpec, _require_unit_interval

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
    info0 = code.info_indices - 1
    return float(code.reliabilities[info0].sum())


def _rate_points(z: np.ndarray, rates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, realized rate, and proxy value for each requested rate.

    Codes at every rate share one reliability vector: the proxy at rate
    k/N is the prefix sum of the ascending-sorted Z values. z is sorted and
    summed in place, so the caller's array is spent. evolve_all admits no
    NaN and no -0.0, so equal values are equal bits and any sort algorithm
    gives the same array; numpy's default is the fastest. The sum stops at
    the largest k; cumsum is sequential, so its values are those of the
    full sum.
    """
    size = z.size
    ks = np.empty(len(rates), dtype=np.int64)
    for idx, rate in enumerate(rates):
        k = _code_dimension(rate, size)
        if not 0 < k < size:
            raise ValueError(f"rate {rate} gives k={k}, outside 1..{size - 1}")
        ks[idx] = k
    z.sort()
    prefix = z[:ks.max(initial=0)]
    np.cumsum(prefix, out=prefix)
    return ks, ks / size, prefix[ks - 1]


def fer_vs_rate_sweep(n: int, p: float, fault: FaultSpec, rates=None) -> SweepResult:
    """FER proxy across a rate grid for one blocklength and fault spec."""
    rates = DEFAULT_RATE_GRID if rates is None else tuple(rates)
    z = evolve_all(n, p, fault)
    ks, realized, proxy = _rate_points(z, rates)
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
    z = evolve_all(n, p, fault)
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


def protection_sweep(n: int, p: float, delta: float, n_p_values, rates=None) -> SweepResult:
    """One FER-proxy-vs-rate series per protected level count n_p.

    Each n_p maps to n_u = (n + 1) - n_p unprotected transitions, of which
    min(n_u, n) are faulty; the metadata records the protected PE fraction
    for each series.

    All series share one all-faulty trunk recursion: the code with s
    faulty steps is trunk level s grown fault-free to level n, which is
    evolve_all for that n_p bit for bit. Each distinct s is grown, sorted
    and summed once, so repeated n_p values, and n_p = 0 and 1 (both give
    s = n), cost one series. Trunk and branches share one 2**n buffer: the
    trunk runs in its first 2**T cells, T the largest s, and a branch below
    T saves its trunk level, grows over it and restores it, so the sweep
    holds at most 1.5 buffers.
    """
    rates = DEFAULT_RATE_GRID if rates is None else tuple(rates)
    n_p_values = tuple(n_p_values)
    if not n_p_values:
        raise ValueError("n_p_values must not be empty")
    faulty = {n_p: FaultSpec.from_protected_levels(n, n_p, delta).effective_steps(n)
              for n_p in n_p_values}
    branches = set(faulty.values())
    trunk_steps = max(branches)
    buf = _root(n, p)
    points = {}
    for steps, level in enumerate(_levels(buf[:2**trunk_steps], trunk_steps,
                                          delta, trunk_steps)):
        if steps in branches:
            saved = level.copy() if steps < trunk_steps else None
            for _ in _levels(buf, n - steps, delta, 0):
                pass
            points[steps] = _rate_points(buf, rates)
            if saved is not None:
                level[:] = saved
            del saved  # before the next branch copies a larger level
    series: dict[str, np.ndarray] = {}
    fractions = {}
    for n_p in n_p_values:
        ks, realized, proxy = points[faulty[n_p]]
        series[f"proxy_raw_np{n_p}"] = proxy
        series[f"proxy_clamped_np{n_p}"] = np.minimum(proxy, 1.0)
        fractions[int(n_p)] = pe_counts(n, n_p).fraction
    series = {"k": ks, "realized_rate": realized, **series}
    return SweepResult(
        axis=np.asarray(rates, dtype=np.float64),
        series=series,
        metadata={"n": n, "p": p, "delta": delta,
                  "n_p_values": tuple(int(v) for v in n_p_values),
                  "protected_fraction": fractions},
    )


def rate_loss_sweep(p: float, deltas, n_u_values) -> SweepResult:
    """Rate loss against the unprotected transition count, one series per delta.

    Emits the raw loss and the percentage-of-capacity view used alongside
    capacity C = 1 - p. Each value equals rate_loss(p, delta, n_u) bit for
    bit. For n_u up to DEFAULT_ENUMERATION_CAP the mean E[eps_{n_u}] is
    level n_u of one all-faulty recursion per delta, averaged on the way;
    that recursion stops at the largest such n_u. Larger n_u take the
    closed form, as rate_loss does.

    A repeated delta is evolved once and gives one series. Two different
    deltas that print the same under :g would share one series name, so
    they are refused, as is an empty delta list. p, every delta and every
    n_u are checked on entry, so an empty n_u list checks them too.
    """
    deltas = tuple(deltas)
    n_u_arr = np.asarray(list(n_u_values), dtype=np.int64)
    capacity = 1.0 - p
    if capacity <= 0.0:
        raise ValueError("p must be below 1 so the capacity view is defined")
    _require_unit_interval(p, "p")
    if not deltas:
        raise ValueError("deltas must not be empty")
    for delta in deltas:
        _require_unit_interval(delta, "delta")
    if n_u_arr.min(initial=0) < 0:
        raise ValueError(f"n_u must be nonnegative, got {n_u_arr.min()}")
    enumerated = n_u_arr[n_u_arr <= DEFAULT_ENUMERATION_CAP]
    steps = int(enumerated.max(initial=0))
    buf = _root(steps, p)
    root = buf[0]
    series: dict[str, np.ndarray] = {}
    for delta in dict.fromkeys(deltas):
        label = f"{delta:g}"
        if f"delta_r_{label}" in series:
            raise ValueError(f"two different deltas print as {label}")
        losses = np.empty(n_u_arr.size, dtype=np.float64)
        buf[0] = root
        means = [float(np.mean(z)) for z in _levels(buf, steps, delta, steps)]
        for idx, nu in enumerate(n_u_arr.tolist()):
            if nu <= DEFAULT_ENUMERATION_CAP:
                # rate_loss's clamp of the delta = 0 rounding residue
                losses[idx] = max(means[nu] - p, 0.0)
            else:
                losses[idx] = rate_loss(p, delta, nu)
        series[f"delta_r_{label}"] = losses
        series[f"pct_capacity_{label}"] = 100.0 * losses / capacity
    return SweepResult(
        axis=n_u_arr,
        series=series,
        metadata={"p": p, "deltas": tuple(float(d) for d in deltas),
                  "n_u_values": tuple(int(v) for v in n_u_arr)},
    )
