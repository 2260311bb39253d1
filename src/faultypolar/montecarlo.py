"""Reproducible batched simulation of encode/transmit/decode cycles.

Every trial owns three Philox substreams keyed by (master_seed, trial,
role) with role 0 = source word, 1 = channel erasures, 2 = decoder faults.
The counter-based derivation makes each stream independent of batching and
thread count, so a SimConfig pins the outcome bit for bit.

A chunk of trials builds one generator per role and, before each trial,
rewinds it to that trial's counter; because Philox is counter-based this
yields exactly the stream a freshly built generator would. Channel and
fault uniforms are drawn in fixed-size blocks and kept only as boolean
erasure masks (uniform < p, uniform < delta), one byte per draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import fer_proxy
from .codec import ERASED_BIT, _decode_batch, encode, fault_slot_count
from .construction import CodeConstruction
from .core import INDEPENDENT_TREE, SHARED, FaultSpec, _require_unit_interval
from .errors import InternalInvariantError, ResourceLimitError

ROLE_SOURCE = 0
ROLE_CHANNEL = 1
ROLE_FAULTS = 2

TRIALS_HARD_CAP = 10**7
WORK_BUDGET = 2**32  # trials * N ceiling
TRIAL_BYTES_CEILING = 256 * 2**20  # memory one trial of a chunk may allocate

_CHUNK_BYTES = 64 * 2**20
_MAX_CHUNK = 20_000
_DRAW_BLOCK = 8192  # float64 uniforms per draw call


def substream(master_seed: int, trial: int, role: int) -> np.random.Generator:
    """Counter-based random stream for one (trial, role) pair."""
    bitgen = np.random.Philox(key=master_seed, counter=[0, trial, role, 0])
    return np.random.Generator(bitgen)


def _substream_state(master_seed: int, trial: int, role: int) -> dict:
    """Philox state at the start of the (trial, role) substream.

    Assigned to the bit_generator.state of any Philox generator, it yields
    exactly the stream substream(master_seed, trial, role) starts.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, trial, role, 0], dtype=np.uint64),
                  "key": np.array([master_seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_mask(gen: np.random.Generator, threshold: float, out: np.ndarray,
               scratch: np.ndarray) -> None:
    """Fill the bool row `out` with uniform < threshold, drawn in blocks.

    Consecutive draws continue one stream, so the block size does not
    change the values.
    """
    width = out.shape[0]
    for pos in range(0, width, scratch.size):
        m = min(scratch.size, width - pos)
        np.less(gen.random(m, out=scratch[:m]), threshold, out=out[pos:pos + m])


def _trial_bytes(n: int, slots: int, mode: str, batch: int = 1) -> int:
    """Bytes a chunk of `batch` trials allocates; by default one trial alone.

    Per frame: its bool fault-hit row and nine (B, N) int8/bool planes (u,
    erased, x, 1 - 2x and y in _run_chunk; the y == 0 and y < 0 masks and
    the unpacked u_hat and decision_erased in _decode_batch). Per group of
    eight frames, one byte per fault slot for the packed hits and one byte
    per position for each packed plane of _decode_batch: one partial-sum
    plane per level, in shared mode two message planes per level, and at
    most 9 more (channel E and S, decision E and S, the two output planes,
    the g-node scratch and, in independent-tree mode, the message planes of
    the bit being decided). A group is paid in full even when fewer than
    eight frames share it. Fixed scratch (the draw block and the decoder's
    packing buffers, 64 KiB each) is not counted.
    """
    size = 1 << n
    packed = 9 + max(n, 1) + (2 * n if mode == SHARED else 0)
    per_frame = slots + 9 * size
    per_group = slots + packed * size
    return batch * per_frame + -(-batch // 8) * per_group


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run."""

    code: CodeConstruction
    channel_erasure: float
    fault: FaultSpec
    trials: int
    master_seed: int
    mode: str | None = None  # defaults to fault.correlation_mode
    genie: bool = False

    def __post_init__(self):
        _require_unit_interval(self.channel_erasure, "channel_erasure")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.mode is None:
            object.__setattr__(self, "mode", self.fault.correlation_mode)
        if self.mode not in (SHARED, INDEPENDENT_TREE):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated erasure counts with 95% confidence interval on the FER."""

    frames: int
    frame_erasures: int
    info_bit_erasures: int
    fer: float
    ber: float
    fer_ci95: tuple[float, float]
    per_bit_erasures: np.ndarray | None = None


@dataclass(frozen=True)
class ProxyComparison:
    """Empirical FER against the analytic sum-of-Z proxy."""

    fer: float
    proxy_sum: float
    proxy_clamped: float
    ratio: float
    sigma_upper: float
    sigma_lower: float
    lower_bound: float
    upper_bound_holds: bool
    lower_bound_holds: bool
    frames: int


def binomial_ci95(count: int, n: int) -> tuple[float, float]:
    """95% interval for a binomial proportion.

    Normal approximation, switching to exact Clopper-Pearson when either
    tail count is below 10.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    phat = count / n
    if min(count, n - count) < 10:
        from scipy.stats import beta

        lo = 0.0 if count == 0 else float(beta.ppf(0.025, count, n - count + 1))
        hi = 1.0 if count == n else float(beta.ppf(0.975, count + 1, n - count))
        return lo, hi
    half = 1.959963984540054 * math.sqrt(phat * (1.0 - phat) / n)
    return max(0.0, phat - half), min(1.0, phat + half)


def _run_chunk(config: SimConfig, start: int, stop: int, slots: int):
    """Simulate trials [start, stop); returns integer counts only."""
    code = config.code
    size = code.N
    batch = stop - start
    info0 = code.info_indices - 1
    k = info0.size
    seed = config.master_seed

    roles = (ROLE_SOURCE, ROLE_CHANNEL, ROLE_FAULTS)
    gens = [substream(seed, start, role) for role in roles]
    bitgens = [gen.bit_generator for gen in gens]
    states = [_substream_state(seed, start, role) for role in roles]
    source, channel, faults = gens

    u = np.zeros((batch, size), dtype=np.int8)
    erased = np.empty((batch, size), dtype=bool)
    hits = np.empty((batch, slots), dtype=bool) if slots else None
    scratch = np.empty(_DRAW_BLOCK, dtype=np.float64)
    for row, trial in enumerate(range(start, stop)):
        for bitgen, state in zip(bitgens, states):
            state["state"]["counter"][1] = trial
            bitgen.state = state
        u[row, info0] = source.integers(0, 2, size=k, dtype=np.int8)
        _draw_mask(channel, config.channel_erasure, erased[row], scratch)
        if slots:
            _draw_mask(faults, config.fault.delta, hits[row], scratch)

    x = encode(u)
    y = np.where(erased, np.int8(0), (1 - 2 * x).astype(np.int8))
    u_hat, decision_erased = _decode_batch(
        y, code.frozen_mask, config.fault, config.mode, config.genie, u, hits)

    erased_info = u_hat[:, info0] == ERASED_BIT
    frame_erasures = int(erased_info.any(axis=1).sum())
    info_bit_erasures = int(erased_info.sum())
    per_bit = decision_erased.sum(axis=0, dtype=np.int64) if config.genie else None
    return frame_erasures, info_bit_erasures, per_bit


def run_simulation(config: SimConfig, threads: int = 1,
                   chunk_size: int | None = None) -> SimOutcome:
    """Run the configured trials and aggregate erasure statistics.

    The outcome is identical for any threads or chunk_size setting: trials
    consume only their own substreams and the integer counts reduce in
    trial order.
    """
    code = config.code
    if config.trials > TRIALS_HARD_CAP:
        raise ResourceLimitError(
            f"trials={config.trials} exceeds the hard cap {TRIALS_HARD_CAP}")
    if config.trials * code.N > WORK_BUDGET:
        raise ResourceLimitError(
            f"trials * N = {config.trials * code.N} exceeds the work budget {WORK_BUDGET}")
    if threads < 1:
        raise ValueError("threads must be >= 1")

    slots = fault_slot_count(code.n, config.fault, config.mode)
    per_trial = _trial_bytes(code.n, slots, config.mode)
    if per_trial > TRIAL_BYTES_CEILING:
        raise ResourceLimitError(
            f"one trial needs {per_trial} bytes ({slots} fault slots plus decoder "
            f"planes), over the per-trial ceiling {TRIAL_BYTES_CEILING}")
    if chunk_size is None:
        groups = _CHUNK_BYTES // _trial_bytes(code.n, slots, config.mode, batch=8)
        chunk_size = min(_MAX_CHUNK, max(1, 8 * groups))
    chunk_size = max(1, min(chunk_size, config.trials))
    bounds = [(s, min(s + chunk_size, config.trials))
              for s in range(0, config.trials, chunk_size)]

    # each chunk builds its own generators, so chunks may run on any thread
    threads = min(threads, len(bounds))
    if threads == 1:
        results = [_run_chunk(config, s, e, slots) for s, e in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: _run_chunk(config, b[0], b[1], slots), bounds))

    frame_erasures = sum(r[0] for r in results)
    info_bit_erasures = sum(r[1] for r in results)
    per_bit = None
    if config.genie:
        per_bit = np.zeros(code.N, dtype=np.int64)
        for r in results:
            per_bit += r[2]

    frames = config.trials
    fer = frame_erasures / frames
    ber = info_bit_erasures / (frames * code.k)
    if ber > fer:
        raise InternalInvariantError("bit erasure rate exceeded frame erasure rate")
    return SimOutcome(frames=frames, frame_erasures=frame_erasures,
                      info_bit_erasures=info_bit_erasures, fer=fer, ber=ber,
                      fer_ci95=binomial_ci95(frame_erasures, frames),
                      per_bit_erasures=per_bit)


def compare_to_proxy(outcome: SimOutcome, code: CodeConstruction) -> ProxyComparison:
    """Compare an empirical FER to the sum-of-Z proxy and its union-bound band.

    sigma_upper and sigma_lower are binomial standard deviations evaluated
    at the clamped proxy sum and at the largest information-set Z_i; the
    bound checks use the 3-sigma convention.
    """
    proxy = fer_proxy(code)
    clamped = min(proxy, 1.0)
    info0 = code.info_indices - 1
    lower = float(code.reliabilities[info0].max()) if info0.size else 0.0
    frames = outcome.frames
    sigma_upper = math.sqrt(clamped * (1.0 - clamped) / frames)
    sigma_lower = math.sqrt(lower * (1.0 - lower) / frames)
    ratio = outcome.fer / proxy if proxy > 0 else 1.0
    return ProxyComparison(
        fer=outcome.fer, proxy_sum=proxy, proxy_clamped=clamped, ratio=ratio,
        sigma_upper=sigma_upper, sigma_lower=sigma_lower, lower_bound=lower,
        upper_bound_holds=outcome.fer <= proxy + 3 * sigma_upper,
        lower_bound_holds=outcome.fer >= lower - 3 * sigma_lower,
        frames=frames,
    )
