"""Code construction by density evolution under a faulty decoder.

Z_i, the erasure probability of channel i in 1..N, is the channel erasure
probability p walked through n transfer steps along the bits of i - 1 (see
evolve_all). The recursion pairs a parent erasure probability e with
children (t_minus(e), t_plus(e)), so channel index 1 is the all-check
(least reliable) path and index N the all-variable (most reliable) one.
Transform steps are counted from the leaf (channel) side: step j is faulty
when j < fault.effective_steps(n), the rule FaultSpec states. One
recursion, _levels, computes every Z_i at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FaultSpec, _require_count, _require_integer, _require_unit_interval
from .core import t_minus, t_minus_faulty, t_plus, t_plus_faulty  # noqa: F401  (perfbench wraps construction.t_*)
from .errors import ResourceLimitError

# Largest exponent density evolution accepts. It grows every level inside
# one buffer of N = 2**n doubles, 128 MiB at n = 24, in natural or
# order-free layout (see _grow); a sweep grows one buffer at a time, and
# construct holds 2 while np.partition copies one, 1.625 while it writes.
DEFAULT_MAX_EXPONENT = 24

# Largest step count (2**20 paths) whose mean _mean_erasures takes by
# enumeration, for expected_epsilon, rate_loss and analysis.rate_loss_sweep;
# above it, the closed form. Each call runs one recursion up to the largest
# step count within this cap and averages each level on the way.
DEFAULT_ENUMERATION_CAP = 20


def _channel_erasure(p) -> float:
    """p as a float in [0, 1]; -0.0 becomes 0.0, so equal values are equal bits."""
    _require_unit_interval(p, "p")
    return float(p) + 0.0


# Doubles in _grow's one scratch (64 KiB), and so the most cells in one
# of its input blocks: a natural-order block's copy, then fault terms.
_SCRATCH = 2**13


def _grow(buf: np.ndarray, size: int, delta: float, faulty: bool,
          ordered: bool = True) -> None:
    """Grow the level buf[:size] into the level buf[:2*size], in place.

    One loop reads the input top down in blocks [lo, hi) of
    min(size, _SCRATCH) cells; the last block, [0, hi), may be shorter.

    Natural order (ordered, for callers that index or average the values;
    see _levels): the children of cell i are cells 2i (minus) and 2i + 1
    (plus). The children [2*lo, 2*hi) of a block overwrite it and cells
    above it, already read, so they are computed from its copy in scratch.

    Order-free (for callers that sort): the new level is
    [t_minus(z) | t_plus(z)]. Each block writes its plus half into
    buf[size + lo:size + hi] and then its minus half over itself, so every
    ufunc runs on contiguous memory. Cell i then holds the path whose
    step-s choice is bit s of i, the bit reversal of the natural index,
    and the sorted level is natural order's bit for bit.

    Either way a faulty step adds its fault term to each half of a block's
    output right after writing it, through the same scratch, and each cell
    gets the same operations in the same order whatever the block size.
    """
    z = buf[:size]
    step = min(size, _SCRATCH)
    scratch = np.empty(step, dtype=np.float64)
    for hi in range(size, 0, -step):
        lo = max(hi - step, 0)
        if ordered:
            parent = scratch[:hi - lo]
            np.copyto(parent, z[lo:hi])
            out = buf[2 * lo:2 * hi]
            minus, plus = out[0::2], out[1::2]
            halves = out[:hi - lo], out[hi - lo:]
        else:
            parent = minus = z[lo:hi]
            plus = buf[size + lo:size + hi]
            halves = minus, plus
        np.multiply(parent, parent, out=plus)
        np.multiply(parent, 2, out=minus)
        np.subtract(minus, plus, out=minus)
        if faulty:
            for half in halves:
                _add_fault(half, delta, scratch)


def _add_fault(out: np.ndarray, delta: float, scratch: np.ndarray) -> None:
    """out += (1 - out)*delta, the fault term, through the first out.size cells of scratch."""
    lost = np.subtract(1, out, out=scratch[:out.size])
    np.multiply(lost, delta, out=lost)
    np.add(out, lost, out=out)


def _require_exponent(n: int) -> int:
    """n, once it is a count; every integer above DEFAULT_MAX_EXPONENT is a ResourceLimitError."""
    if _require_integer(n, "exponent n") > DEFAULT_MAX_EXPONENT:
        raise ResourceLimitError(f"n={n} exceeds the memory budget "
                                 f"(max exponent {DEFAULT_MAX_EXPONENT})")
    return _require_count(n, "exponent n")


def _levels(n: int, p, fault: FaultSpec, ordered: bool = True):
    """Yield the n + 1 levels of an n-step recursion, from the root [p].

    The density-evolution kernel of this package, and its one entry: it
    checks n (_require_exponent) and p before it allocates the buffer of
    2**n doubles. Each step grows the level in place inside that buffer,
    so every yielded level is a prefix view of it that stays valid only
    until the next one is requested. The first fault.effective_steps(n)
    steps are faulty. Each cell gets the arithmetic of the core transfer
    maps, in the same order, without their per-call checks: FaultSpec has
    checked delta (every level stays in [0, 1] when p and delta lie
    there). A step holds one _grow scratch; between levels, none.

    ordered picks _grow's layout. Natural order is for callers that index
    the values or average them: evolve_all by default (construct and
    simulate index its result) and _mean_erasures (expected_epsilon,
    rate_loss and analysis.rate_loss_sweep), whose np.mean sums pairwise,
    so a permuted level could change a mean in its last bits. Callers that
    sort pass ordered=False through evolve_all: fer_vs_rate_sweep (and so
    protection_sweep) and staircase.
    """
    faulty_steps = fault.effective_steps(_require_exponent(n))
    p = _channel_erasure(p)
    buf = np.empty(2**n, dtype=np.float64)
    buf[0] = p
    yield buf[:1]
    for j in range(n):
        _grow(buf, 1 << j, fault.delta, j < faulty_steps, ordered)
        yield buf[:2 << j]


def evolve_all(n: int, p: float, fault: FaultSpec, ordered: bool = True) -> np.ndarray:
    """Compute all N = 2**n reliability values Z_1..Z_N.

    Element i - 1 of the result is Z_i: p walked through n steps, leaf
    side first, where step j applies t_minus when bit j of i - 1 (its n
    binary digits, most significant first) is 0 and t_plus when it is 1,
    or their faulty forms t_minus_faulty and t_plus_faulty when
    j < fault.effective_steps(n). Every value gets the arithmetic of those
    maps in that order, so it equals that walk bit for bit. Levelwise
    recursion: N doubles plus a 64 KiB scratch, O(N) map applications.

    ordered=False gives the same values in _grow's order-free layout,
    faster as it copies no block, element j holding Z_(r + 1) for r the
    n-bit reversal of j; sorted, both give the same array bit for bit.
    fer_vs_rate_sweep and staircase, which sort, pass it; construct and
    simulate keep natural order, which is their output.

    The result is the last level of _levels, the package's one
    density-evolution recursion, which checks n and p once. Level j of the
    all-faulty recursion is evolve_all(j) under the same delta, so
    rate_loss_sweep reads several means off one recursion.

    Raises
    ------
    ValueError
        If n is not a nonnegative integer or p lies outside [0, 1].
    ResourceLimitError
        If n exceeds DEFAULT_MAX_EXPONENT (2**24 doubles, 128 MiB).
    """
    for z in _levels(n, p, fault, ordered):
        pass
    return z


def _code_dimension(rate, size: int) -> int:
    """k = round(rate * size); a rate outside [0, 1] is a ValueError, not a crash."""
    _require_unit_interval(rate, "rate")
    return round(rate * size)


def _require_dimension(k: int, size: int) -> int:
    """k, once it is an integer in 1..size - 1 (design_code, construct_code, the CLI)."""
    if not 0 < _require_integer(k, "k") < size:
        raise ValueError(f"k must lie in 1..{size - 1}, got {k}")
    return k


def design_code(reliabilities, k: int) -> np.ndarray:
    """Choose the k most reliable channels as the information set.

    Returns the frozen mask, a bool array over 0-based positions that is
    True where frozen. Ties between equal reliability values break toward
    the smaller index.

    The set is that of a stable argsort's first k: every value below the
    k-th smallest (np.partition) and the lowest-index ties of that value.
    A NaN reliability among the k smallest is refused with ValueError.
    """
    z = np.asarray(reliabilities, dtype=np.float64)
    _require_dimension(k, z.size)
    kth = np.partition(z, k - 1)[k - 1]
    if np.isnan(kth):
        raise ValueError("reliabilities must not be NaN")
    info = z < kth
    ties = np.flatnonzero(z == kth)
    info[ties[:k - np.count_nonzero(info)]] = True
    del ties  # up to 8 bytes per position when every value ties
    return np.logical_not(info, out=info)


def _checked(p, deltas, steps, name: str = "steps") -> tuple[float, list[int]]:
    """(p as a float, [steps]) once p, every delta and every step count pass."""
    p = _channel_erasure(p)
    for delta in deltas:
        _require_unit_interval(delta, "delta")
    return p, [_require_count(s, name) for s in steps]


def _mean_erasures(p: float, delta: float, steps: list[int]) -> list[float]:
    """E[eps_s] after s all-faulty transitions for each s; callers run _checked on p, delta, s.

    Up to DEFAULT_ENUMERATION_CAP the mean is over all 2**s paths: level s
    of one all-faulty recursion that stops at the largest such s, averaged
    on the way (in natural order, since np.mean sums pairwise). Above the
    cap it is the closed form 1 - (1 - p)*(1 - delta)**s, exact because
    the per-step mean is affine in eps, though its last digits differ.
    """
    top = max((s for s in steps if s <= DEFAULT_ENUMERATION_CAP), default=0)
    means = [float(np.mean(z)) for z in _levels(top, p, FaultSpec(delta=delta))]
    return [means[s] if s <= DEFAULT_ENUMERATION_CAP
            else 1.0 - (1.0 - p) * (1.0 - delta) ** s for s in steps]


def expected_epsilon(p: float, delta: float, steps: int) -> float:
    """Mean erasure probability after `steps` all-faulty transitions.

    The uniform average over all 2**steps transform sequences, as
    _mean_erasures takes it: enumerated up to DEFAULT_ENUMERATION_CAP
    steps, and above it the closed form 1 - (1 - p)*(1 - delta)**steps.
    """
    p, steps = _checked(p, [delta], [steps])
    return float(_mean_erasures(p, delta, steps)[0])


def rate_loss(p: float, delta: float, n_u: int) -> float:
    """Capacity lost to n_u unprotected transitions: E[eps_{n_u}] - p.

    E[eps_{n_u}] is expected_epsilon(p, delta, n_u); clamped at 0 against its
    rounding at delta = 0. A percentage-of-capacity view is rate_loss/(1 - p)*100.
    """
    return max(expected_epsilon(p, delta, n_u) - float(p), 0.0)


class PECounts(NamedTuple):
    total: int
    protected: int
    fraction: float


def pe_counts(n: int, n_p: int) -> PECounts:
    """Processing-element totals for a depth-n decoder tree.

    The tree has 2**(n+1) - 1 PEs over n + 1 levels; protecting n_p levels
    starting from the root hardens 2**n_p - 1 of them. With
    n_p = (n + 1) - n_u the protected fraction tends to 2**-n_u as n grows.
    n is an exponent density evolution accepts (_require_exponent), checked
    before any 2**n is built.
    """
    FaultSpec.from_protected_levels(_require_exponent(n), n_p, 0.0)  # checks n_p
    total = 2 ** (n + 1) - 1
    protected = 2**n_p - 1
    return PECounts(total=total, protected=protected, fraction=protected / total)


@dataclass(frozen=True)
class CodeConstruction:
    """A designed polar code: its reliabilities and its frozen mask.

    reliabilities[i-1] is Z_i, and frozen_mask[i-1] is True where channel i
    is frozen. Both are stored as read-only arrays of a power-of-two length
    N, and the rest is derived from them: n, N, k, rate and info_indices,
    the 1-based information indices in ascending order, computed from the
    mask on each access. Every information channel is at least as reliable
    as every frozen one.
    """

    reliabilities: np.ndarray
    frozen_mask: np.ndarray

    def __post_init__(self):
        z = _read_only(np.asarray(self.reliabilities, dtype=np.float64))
        frozen = _read_only(np.asarray(self.frozen_mask))
        if z.ndim != 1 or z.size == 0 or z.size & (z.size - 1):
            raise ValueError(f"reliability count must be a power of two, got shape {z.shape}")
        if frozen.dtype != bool or frozen.shape != z.shape:
            raise ValueError(f"frozen_mask must be {z.size} bools, got "
                             f"{frozen.dtype} of shape {frozen.shape}")
        if not (z.min() >= 0.0 and z.max() <= 1.0):
            raise ValueError("reliabilities must lie in [0, 1]")
        if z.max(where=~frozen, initial=0.0) > z.min(where=frozen, initial=1.0):
            raise ValueError("the information set contains a less reliable "
                             "channel than the frozen set")
        object.__setattr__(self, "reliabilities", z)
        object.__setattr__(self, "frozen_mask", frozen)

    @property
    def n(self) -> int:
        return self.N.bit_length() - 1

    @property
    def N(self) -> int:
        return self.frozen_mask.size

    @property
    def k(self) -> int:
        return self.N - int(np.count_nonzero(self.frozen_mask))

    @property
    def rate(self) -> float:
        return self.k / self.N

    @property
    def info_indices(self) -> np.ndarray:
        """Information-set indices, 1-based, ascending."""
        return _read_only(np.flatnonzero(~self.frozen_mask) + 1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr that cannot be written through; arr keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


def construct_code(n: int, p: float, fault: FaultSpec, k: int) -> CodeConstruction:
    """Run density evolution and freeze all but the k best channels.

    design_code picks the frozen mask. n and k are checked first; raises as
    evolve_all (n above DEFAULT_MAX_EXPONENT) and design_code do.
    """
    _require_dimension(k, 2**_require_exponent(n))
    z = evolve_all(n, p, fault)
    return CodeConstruction(reliabilities=z, frozen_mask=design_code(z, k))
