"""Code construction by density evolution under a faulty decoder.

The recursion pairs a parent erasure probability e with children
(t_minus(e), t_plus(e)), so channel index 1 is the all-check (least
reliable) path and index N the all-variable (most reliable) one. Transform
steps are counted from the leaf (channel) side: step j of an index path is
faulty when j < min(n_u, n).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    FaultSpec,
    _require_unit_interval,
    t_minus,
    t_minus_faulty,
    t_plus,
    t_plus_faulty,
)
from .errors import ResourceLimitError

# Largest exponent density evolution accepts. It grows every level inside
# one buffer of N = 2**n doubles, 128 MiB at n = 24; sweep protection holds
# 1.5 such buffers.
DEFAULT_MAX_EXPONENT = 24

# Largest step count (2**20 paths) whose mean expected_epsilon and
# analysis.rate_loss_sweep take by enumeration; above it both evaluate the
# closed form. rate_loss_sweep runs one recursion per delta up to
# min(largest n_u, this cap) and averages each level on the way.
DEFAULT_ENUMERATION_CAP = 20


def index_to_path(i: int, n: int) -> tuple[int, ...]:
    """Return the transform sequence whose evolution yields Z_i.

    Channel indices are 1-based; the bits are the n-digit binary expansion
    of i - 1, most significant digit first. Bit j selects the j-th
    transform applied to the channel erasure probability, leaf side first:
    0 = check node, 1 = variable node.
    """
    if n < 0:
        raise ValueError(f"exponent n must be nonnegative, got {n}")
    if not 1 <= i <= 2**n:
        raise ValueError(f"index must lie in 1..{2**n}, got {i}")
    return tuple((i - 1 >> (n - 1 - j)) & 1 for j in range(n))


def _channel_erasure(p) -> float:
    """p as a float in [0, 1]; -0.0 becomes 0.0, so equal values are equal bits."""
    _require_unit_interval(p, "p")
    return float(p) + 0.0


def evolve_path(bits: Sequence[int], p: float, fault: FaultSpec) -> float:
    """Evolve the channel erasure probability p through the bits of index_to_path."""
    faulty_steps = fault.effective_steps(len(bits))
    eps = _channel_erasure(p)
    for j, b in enumerate(bits):
        if j < faulty_steps:
            eps = t_plus_faulty(eps, fault.delta) if b else t_minus_faulty(eps, fault.delta)
        else:
            eps = t_plus(eps) if b else t_minus(eps)
    return float(eps)


# Scratch of a faulty density-evolution step, in doubles (64 KiB): the
# fault terms of one output block. Input blocks are half that size.
_SCRATCH = 2**13


def _root(n: int, p) -> np.ndarray:
    """A 2**n buffer whose cell 0 is p, after the checks of evolve_all.

    Level 0 of an n-step recursion; _levels grows it in place. n above
    DEFAULT_MAX_EXPONENT is refused before anything is allocated.
    """
    if n < 0:
        raise ValueError(f"exponent n must be nonnegative, got {n}")
    if n > DEFAULT_MAX_EXPONENT:
        raise ResourceLimitError(
            f"n={n} exceeds the memory budget (max exponent {DEFAULT_MAX_EXPONENT})"
        )
    p = _channel_erasure(p)
    buf = np.empty(2**n, dtype=np.float64)
    buf[0] = p
    return buf


def _grow(buf: np.ndarray, size: int, delta: float, faulty: bool) -> None:
    """Grow the level buf[:size] into the level buf[:2*size], in place.

    Input blocks are read from the top down; block [lo, hi) with
    2*lo >= hi writes children [2*lo, 2*hi), which hold only cells already
    read. The last block, [0, 1), writes its plus child into cell 1 first
    and then its minus child over its own cell. A faulty step adds its
    fault term to each block right after writing it.
    """
    z = buf[:size]
    scratch = np.empty(min(2 * size, _SCRATCH), dtype=np.float64) if faulty else None
    hi = size
    while hi > 0:
        lo = max(hi - _SCRATCH // 2, (hi + 1) // 2) if hi > 1 else 0
        out = buf[2 * lo:2 * hi]
        minus, plus = out[0::2], out[1::2]
        np.multiply(z[lo:hi], z[lo:hi], out=plus)
        np.multiply(z[lo:hi], 2, out=minus)
        np.subtract(minus, plus, out=minus)
        if faulty:
            lost = np.subtract(1, out, out=scratch[:out.size])
            np.multiply(lost, delta, out=lost)
            np.add(out, lost, out=out)
        hi = lo


def _levels(buf: np.ndarray, steps: int, delta: float, faulty_steps: int):
    """Yield the start level, then each of the `steps` levels grown from it.

    The density-evolution kernel of this package. The start level is the
    first buf.size >> steps cells of buf, and each step grows the level in
    place inside buf, so every yielded level is a prefix view of buf that
    stays valid only until the next one is requested. Of the steps, the
    first faulty_steps are faulty. Each cell gets the arithmetic of the
    core transfer maps, in the same order, without their per-call checks:
    callers check p and delta once (every level stays in [0, 1] when they
    lie there). Between levels the generator holds no scratch.
    """
    size = buf.size >> steps
    yield buf[:size]
    for j in range(steps):
        _grow(buf, size, delta, j < faulty_steps)
        size *= 2
        yield buf[:size]


def evolve_all(n: int, p: float, fault: FaultSpec) -> np.ndarray:
    """Compute all N = 2**n reliability values Z_1..Z_N.

    Levelwise recursion: O(N) space and O(N) transfer-function
    applications. Element i - 1 of the result equals
    evolve_path(index_to_path(i, n), p, fault) bit for bit.

    n and p are checked here, once; the result is the last level of
    _levels, the package's one density-evolution recursion. Level j of
    the all-faulty recursion is evolve_all(j) under the same delta, so the
    sweeps in analysis read several results off one recursion.

    Raises
    ------
    ValueError
        If n < 0 or p lies outside [0, 1].
    ResourceLimitError
        If n exceeds DEFAULT_MAX_EXPONENT (2**24 doubles, 128 MiB).
    """
    buf = _root(n, p)
    for _ in _levels(buf, n, fault.delta, fault.effective_steps(n)):
        pass
    return buf


def _code_dimension(rate, size: int) -> int:
    """k = round(rate * size); a non-finite rate is a ValueError, not a crash."""
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    return round(rate * size)


def design_code(reliabilities, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Choose the k most reliable channels as the information set.

    Returns (info_indices, frozen_mask): the 1-based information indices in
    ascending order, as int64, and a bool mask over 0-based positions, True
    where frozen. Ties between equal reliability values break toward the
    smaller index.
    """
    z = np.asarray(reliabilities, dtype=np.float64)
    n_total = z.size
    if not 0 < k < n_total:
        raise ValueError(f"k must lie in 1..{n_total - 1}, got {k}")
    frozen = np.ones(n_total, dtype=bool)
    frozen[np.argsort(z, kind="stable")[:k]] = False
    return np.flatnonzero(~frozen).astype(np.int64) + 1, frozen


def expected_epsilon(p: float, delta: float, steps: int, method: str = "auto") -> float:
    """Mean erasure probability after `steps` all-faulty transitions.

    The uniform average over all 2**steps transform sequences equals the
    closed form 1 - (1 - p)*(1 - delta)**steps because the per-step mean is
    affine in eps.

    method "enumerate" averages over all paths, the last level of the
    all-faulty recursion evolve_all runs, and raises ResourceLimitError
    above DEFAULT_ENUMERATION_CAP steps; "closed-form" evaluates the
    formula; "auto" enumerates up to that cap and otherwise falls back to
    the closed form (exact, not an approximation, though the last digits
    differ). analysis.rate_loss_sweep reads the same means off one
    recursion per delta.
    """
    p = _channel_erasure(p)
    _require_unit_interval(delta, "delta")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if method not in ("auto", "enumerate", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "enumerate" if steps <= DEFAULT_ENUMERATION_CAP else "closed-form"
    if method == "closed-form":
        return float(1.0 - (1.0 - p) * (1.0 - delta) ** steps)
    if steps > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumeration over 2**{steps} paths exceeds the cap 2**{DEFAULT_ENUMERATION_CAP}"
        )
    buf = _root(steps, p)
    for _ in _levels(buf, steps, delta, steps):
        pass
    return float(np.mean(buf))


def rate_loss(p: float, delta: float, n_u: int, method: str = "auto") -> float:
    """Capacity lost to n_u unprotected transitions: E[eps_{n_u}] - p.

    Nonnegative; a percentage-of-capacity view is rate_loss/(1 - p)*100.
    """
    value = expected_epsilon(p, delta, n_u, method=method) - p
    # Enumeration can leave a negative rounding residue at delta = 0.
    return max(value, 0.0)


class PECounts(NamedTuple):
    total: int
    protected: int
    fraction: float


def pe_counts(n: int, n_p: int) -> PECounts:
    """Processing-element totals for a depth-n decoder tree.

    The tree has 2**(n+1) - 1 PEs over n + 1 levels; protecting n_p levels
    starting from the root hardens 2**n_p - 1 of them. With
    n_p = (n + 1) - n_u the protected fraction tends to 2**-n_u as n grows.
    """
    if n < 0:
        raise ValueError(f"exponent n must be nonnegative, got {n}")
    if not 0 <= n_p <= n + 1:
        raise ValueError(f"n_p must lie in 0..{n + 1}, got {n_p}")
    total = 2 ** (n + 1) - 1
    protected = 2**n_p - 1 if n_p > 0 else 0
    return PECounts(total=total, protected=protected, fraction=protected / total)


@dataclass(frozen=True)
class CodeConstruction:
    """A designed polar code: reliabilities plus the frozen/information split.

    reliabilities[i-1] is Z_i, and frozen_mask[i-1] is True where channel i
    is frozen. Both are stored as read-only arrays; info_indices, the
    1-based information indices in ascending order, is derived from the
    mask once. Every information channel is at least as reliable as every
    frozen one.
    """

    n: int
    channel_erasure: float
    fault: FaultSpec
    reliabilities: np.ndarray
    frozen_mask: np.ndarray

    def __post_init__(self):
        n_total = 2**self.n
        z = _read_only(np.asarray(self.reliabilities, dtype=np.float64))
        frozen = _read_only(np.asarray(self.frozen_mask))
        if z.shape != (n_total,):
            raise ValueError(f"expected {n_total} reliabilities, got shape {z.shape}")
        if frozen.dtype != bool or frozen.shape != (n_total,):
            raise ValueError(f"frozen_mask must be {n_total} bools, got "
                             f"{frozen.dtype} of shape {frozen.shape}")
        if not (z.min() >= 0.0 and z.max() <= 1.0):
            raise ValueError("reliabilities must lie in [0, 1]")
        info = np.flatnonzero(~frozen).astype(np.int64) + 1
        if 0 < info.size < n_total and z[~frozen].max() > z[frozen].min():
            raise ValueError("the information set contains a less reliable "
                             "channel than the frozen set")
        object.__setattr__(self, "reliabilities", z)
        object.__setattr__(self, "frozen_mask", frozen)
        object.__setattr__(self, "_info_indices", _read_only(info))

    @property
    def N(self) -> int:
        return 2**self.n

    @property
    def k(self) -> int:
        return self._info_indices.size

    @property
    def rate(self) -> float:
        return self.k / self.N

    @property
    def info_indices(self) -> np.ndarray:
        """Information-set indices, 1-based, ascending."""
        return self._info_indices


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr that cannot be written through; arr keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


def construct_code(n: int, p: float, fault: FaultSpec, k: int) -> CodeConstruction:
    """Run density evolution and freeze all but the k best channels.

    Raises as evolve_all (n above DEFAULT_MAX_EXPONENT) and design_code do.
    """
    z = evolve_all(n, p, fault)
    _, frozen = design_code(z, k)
    return CodeConstruction(n=n, channel_erasure=p, fault=fault,
                            reliabilities=z, frozen_mask=frozen)
