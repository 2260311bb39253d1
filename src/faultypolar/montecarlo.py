"""Reproducible batched simulation of encode/transmit/decode cycles.

Every trial owns Philox substreams keyed by (master_seed, trial, role)
with role 0 = source word, 1 = channel erasures, 2 = decoder faults.
Non-genie runs draw all three. Genie runs draw only the last two: with
true feedback the erasure pattern does not depend on the word sent, and
each role has its own counter, so the other two streams are unchanged.
The counter-based derivation makes each stream independent of batching and
thread count, so a SimConfig pins the outcome bit for bit.

A chunk of trials builds one generator per role, eight for the faults
(one per lane, the k-th trial of each group of eight), and rewinds each to
its trial's counter; because Philox is counter-based this yields exactly
the stream a freshly built generator would. Every draw reads raw 64-bit
Philox words. A uniform is still (w >> 11) * 2**-53, the value
Generator.random returns, but the test uniform < q runs on the integer
word against a bound fixed once per chunk, so no float is made.
The channel mask (uniform < p) is drawn in fixed-size blocks and kept as
one byte per draw. Source bits are the top bit of each byte of the words,
the values Generator.integers(0, 2, dtype=int8) returns. Source bits and
fault hits (uniform < delta) are packed as they are drawn, eight trials
to a byte, so no per-trial row of them is kept. The decoder takes the
channel-erasure mask and, without the genie, the packed codeword; no
{-1, 0, +1} channel array is built. It returns packed decision planes,
and the counts are popcounts of their rows. Chunks are sized from what
they allocate (_trial_bytes), and pay their per-chunk term once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import fer_proxy
from .codec import _DRAW_BLOCK, _decode_batch, _polar_transform, fault_slot_count
from .codec import encode  # noqa: F401  (perfbench times montecarlo.encode)
from .construction import CodeConstruction
from .core import FaultSpec, _require_integer, _require_unit_interval
from .errors import InternalInvariantError, ResourceLimitError

ROLE_SOURCE = 0
ROLE_CHANNEL = 1
ROLE_FAULTS = 2

TRIALS_HARD_CAP = 10**7
WORK_BUDGET = 2**32  # trials * N ceiling
TRIAL_BYTES_CEILING = 256 * 2**20  # memory one trial of a chunk may allocate

_CHUNK_BYTES = 64 * 2**20
_MAX_CHUNK = 20_000


def substream(master_seed: int, trial: int, role: int) -> np.random.Generator:
    """Counter-based random stream for one (trial, role) pair."""
    bitgen = np.random.Philox(key=master_seed, counter=[0, trial, role, 0])
    return np.random.Generator(bitgen)


def _substream_state(master_seed: int, trial: int, role: int) -> dict:
    """Philox state at the start of the (trial, role) substream.

    Assigned to the bit_generator.state of any Philox generator, it yields
    exactly the stream substream(master_seed, trial, role) starts. The
    setter converts the lists to uint64 itself, which is cheaper than
    building numpy arrays here.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, trial, role, 0], "key": [master_seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _word_threshold(q: float) -> np.uint64 | None:
    """Raw-word form of the test uniform < q, or None when every word passes.

    A uniform is a = w >> 11 scaled by 2**-53, and a * 2**-53 < q exactly
    when a < ceil(q * 2**53), that is when w < ceil(q * 2**53) << 11. The
    bound fits a uint64 unless ceil(q * 2**53) = 2**53 (q = 1), which every
    word passes; at q = 0 the bound is 0, which no word passes.
    """
    words = math.ceil(math.ldexp(q, 53)) << 11
    return None if words >> 64 else np.uint64(words)


def _draw_mask(bitgen: np.random.BitGenerator, threshold: np.uint64 | None,
               out: np.ndarray) -> None:
    """Fill the bool row `out` with uniform < q, drawn in blocks of raw words.

    `threshold` is _word_threshold(q). Consecutive draws continue one
    stream, so the block size does not change the values.
    """
    if threshold is None:
        out[:] = True
        return
    width = out.shape[0]
    for pos in range(0, width, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, width - pos)
        np.less(bitgen.random_raw(m), threshold, out=out[pos:pos + m])


def _source_bits(bitgen: np.random.BitGenerator, k: int) -> np.ndarray:
    """k source bits, equal to Generator.integers(0, 2, size=k, dtype=np.int8).

    numpy draws a bounded 8-bit integer from buffered 32-bit words, low
    byte first, and for the range {0, 1} returns the top bit of the byte.
    """
    words = bitgen.random_raw(-(-k // 8)).astype("<u8", copy=False)
    return words.view(np.uint8)[:k] >> 7


def _trial_bytes(n: int, slots: int, batch: int = 1, genie: bool = False) -> int:
    """Bytes a chunk of `batch` trials allocates; by default one trial alone.

    Per frame, its row of the (B, N) bool channel-erasure mask. Per group
    of eight frames (paid in full even when fewer share it), a byte per
    fault slot for the packed hits and per row of each packed plane: the
    N decisions, the 2**L-row block of each level L in 1..n - 1 and the
    channel; without the genie each of those twice (E and S, the codeword
    being the channel's S), N - 1 rows of partial sums and a half-height
    g-node scratch. That is at most 7.5 N, or 3 N with the genie. Per
    chunk (batch = 0 gives it alone), 10 bytes per position: the int64
    information positions, the bool mask they are found from and the
    decoder's, which a genie decode does not build; without the genie, 9
    more for that mask's block pyramid, which the rate-0 skip reads, and
    the eight lanes of source bits. Fixed scratch
    (the eight lanes of fault hits, a block of raw words and the packing
    buffers, 64 KiB each) is not counted.
    """
    size = 1 << n
    if genie:
        packed, chunk = 3 * size, 10 * size
    else:
        packed, chunk = 7 * size + size // 2, 19 * size
    return batch * size + -(-batch // 8) * (slots + packed) + chunk


def _chunk_trials(n: int, slots: int, genie: bool, threads: int = 1) -> int:
    """Trials per chunk: the groups of eight that fit in a 1/threads
    share of _CHUNK_BYTES once the per-chunk term is paid, so the chunks
    that `threads` workers hold at once fit _CHUNK_BYTES together."""
    fixed = _trial_bytes(n, slots, batch=0, genie=genie)
    group = _trial_bytes(n, slots, batch=8, genie=genie) - fixed
    return min(_MAX_CHUNK, max(1, 8 * ((_CHUNK_BYTES // threads - fixed) // group)))


def _require_trials(trials: int, master_seed: int) -> None:
    """The trial and seed rules of a run (SimConfig, and the CLI before it builds a code)."""
    if _require_integer(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= _require_integer(master_seed, "master_seed") < 2**64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")


def _require_limits(n: int, fault: FaultSpec, trials: int, genie: bool) -> int:
    """One trial's fault slots, once a run of `trials` frames of 2**n positions
    fits the resource limits (run_simulation, and the CLI before it builds a code)."""
    if trials > TRIALS_HARD_CAP:
        raise ResourceLimitError(f"trials={trials} exceeds the hard cap {TRIALS_HARD_CAP}")
    if trials * 2**n > WORK_BUDGET:
        raise ResourceLimitError(
            f"trials * N = {trials * 2**n} exceeds the work budget {WORK_BUDGET}")
    slots = fault_slot_count(n, fault, fault.correlation_mode)
    per_trial = _trial_bytes(n, slots, genie=genie)
    if per_trial > TRIAL_BYTES_CEILING:
        raise ResourceLimitError(
            f"one trial needs {per_trial} bytes ({slots} fault slots plus decoder "
            f"planes), over the per-trial ceiling {TRIAL_BYTES_CEILING}")
    return slots


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run; the decoder runs in fault.correlation_mode."""

    code: CodeConstruction
    channel_erasure: float
    fault: FaultSpec
    trials: int
    master_seed: int
    genie: bool = False

    def __post_init__(self):
        _require_unit_interval(self.channel_erasure, "channel_erasure")
        if self.code.k == 0:
            raise ValueError("the code has no information bit")
        _require_trials(self.trials, self.master_seed)


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
    tail count is below 10. Its bounds are beta quantiles, taken from
    scipy.special.betaincinv, the function scipy.stats.beta.ppf wraps.
    """
    if _require_integer(n, "n") <= 0:
        raise ValueError("n must be positive")
    if not 0 <= _require_integer(count, "count") <= n:
        raise ValueError(f"count must be in 0..{n}, got {count}")
    phat = count / n
    if min(count, n - count) < 10:
        from scipy.special import betaincinv

        lo = 0.0 if count == 0 else float(betaincinv(count, n - count + 1, 0.025))
        hi = 1.0 if count == n else float(betaincinv(count + 1, n - count, 0.975))
        return lo, hi
    half = 1.959963984540054 * math.sqrt(phat * (1.0 - phat) / n)
    return max(0.0, phat - half), min(1.0, phat + half)


def _pack_lanes(lanes: np.ndarray) -> np.ndarray:
    """Pack a C-contiguous (8, m) array of 0/1 bytes into m bytes, in place.

    Bit k of byte j of the result is lanes[k, j]. Three shift-OR pairs fold
    rows 4-7 onto rows 0-3, then 2-3 onto 0-1, then 1 onto 0, on uint64
    words (eight cells a word) or on single bytes when m is not a multiple
    of 8; a 0/1 cell shifted by fewer than 8 bits never leaves its byte.
    Returns a view of the first row; the other rows are left unspecified.
    """
    words = lanes.view(np.uint64 if lanes.shape[1] % 8 == 0 else np.uint8)
    for half in (4, 2, 1):
        src = words[half:2 * half]
        np.left_shift(src, half, out=src)
        np.bitwise_or(words[:half], src, out=words[:half])
    return lanes[0].view(np.uint8)


def _run_chunk(config: SimConfig, start: int, stop: int, slots: int):
    """Simulate trials [start, stop); returns integer counts only.

    Trials run in groups of eight, the frames of one byte of the decoder's
    packed planes. The channel-erasure mask is a (B, N) bool array, one row
    per trial. The source words and the fault hits are packed as they are
    drawn: each lane of a group (frame k of the group) draws into a fixed
    eight-row scratch, and _pack_lanes folds the rows into the group's
    bytes. The source plane is positions-major, and the polar transform
    turns it into the codeword plane in place. The hit plane is
    group-major, so a group's hits are one contiguous run; the decoder
    reads its transpose. Each lane owns a fault generator, rewound once per
    group and drawn block by block, so no (B, slots) array is built.
    """
    code = config.code
    size = code.N
    batch = stop - start
    info0 = np.flatnonzero(~code.frozen_mask)
    k = info0.size
    seed = config.master_seed

    # genie runs draw no source word: their erasures do not depend on it
    roles = (ROLE_CHANNEL,) if config.genie else (ROLE_SOURCE, ROLE_CHANNEL)
    bitgens = {role: substream(seed, start, role).bit_generator for role in roles}
    states = [(bitgens[role], _substream_state(seed, start, role)) for role in roles]
    lanes = [(substream(seed, start + lane, ROLE_FAULTS).bit_generator,
              _substream_state(seed, start + lane, ROLE_FAULTS))
             for lane in range(min(8, batch))] if slots else []
    channel_threshold = _word_threshold(config.channel_erasure)
    fault_threshold = _word_threshold(config.fault.delta)

    nbytes = -(-batch // 8)
    erased = np.empty((batch, size), dtype=bool)
    codeword = None if config.genie else np.zeros((size, nbytes), dtype=np.uint8)
    source = None if codeword is None else np.empty((8, k), dtype=np.uint8)
    # group-major, so each group's packed hits are one contiguous run; the
    # decoder reads the transpose, a (slots, nbytes) view
    hits = np.empty((nbytes, slots), dtype=np.uint8) if slots else None
    drawn = np.empty(8 * min(_DRAW_BLOCK, slots), dtype=bool)
    for group, first in enumerate(range(start, stop, 8)):
        width = min(8, stop - first)
        for lane, trial in enumerate(range(first, first + width)):
            for bitgen, state in states:
                state["state"]["counter"][1] = trial
                bitgen.state = state
            if source is not None:
                source[lane] = _source_bits(bitgens[ROLE_SOURCE], k)
            _draw_mask(bitgens[ROLE_CHANNEL], channel_threshold, erased[trial - start])
        if source is not None:
            source[width:] = 0  # pad frames send the all-zero word
            codeword[info0, group] = _pack_lanes(source)
        for lane, (bitgen, state) in enumerate(lanes[:width]):
            state["state"]["counter"][1] = first + lane
            bitgen.state = state
        for pos in range(0, slots, _DRAW_BLOCK):
            m = min(_DRAW_BLOCK, slots - pos)
            rows = drawn[:8 * m].reshape(8, m)
            for lane, (bitgen, _) in enumerate(lanes[:width]):
                _draw_mask(bitgen, fault_threshold, rows[lane])
            rows[width:] = False  # pad frames are never hit
            hits[group, pos:pos + m] = _pack_lanes(rows)
    if codeword is not None:
        _polar_transform(codeword)

    # a genie run counts every decision, so it decodes them all; any other
    # run reads the information decisions alone
    decision_erased = _decode_batch(
        erased, code.frozen_mask, config.fault, config.fault.correlation_mode,
        config.genie, codeword, None if hits is None else hits.T,
        info_only=not config.genie)[0]

    # packed rows: bit k of byte j is trial start + 8j + k; pad bits are 0
    erased_info = decision_erased[info0]
    frame_erasures = int(np.bitwise_count(np.bitwise_or.reduce(erased_info, axis=0)).sum())
    info_bit_erasures = int(np.bitwise_count(erased_info).sum())
    per_bit = None
    if config.genie:
        per_bit = np.bitwise_count(decision_erased).sum(axis=1, dtype=np.int64)
    return frame_erasures, info_bit_erasures, per_bit


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_simulation(config: SimConfig, threads: int = 1) -> SimOutcome:
    """Run the configured trials and aggregate erasure statistics.

    The outcome is the same for any threads: trials consume only their
    own substreams and the integer counts reduce in trial order. threads
    is capped at the CPUs this process may use; that many chunks run at
    once, sized by _chunk_trials to fit _CHUNK_BYTES (64 MiB) together. A
    chunk is at least one trial, which may exceed its share at large n.
    """
    code = config.code
    slots = _require_limits(code.n, config.fault, config.trials, config.genie)
    if _require_integer(threads, "threads") < 1:
        raise ValueError("threads must be >= 1")
    threads = min(threads, _cpu_count())
    chunk_size = _chunk_trials(code.n, slots, config.genie, threads)
    bounds = [(s, min(s + chunk_size, config.trials))
              for s in range(0, config.trials, chunk_size)]

    # each chunk builds its own generators, so chunks may run on any thread
    threads = min(threads, len(bounds))
    if threads == 1:
        results = [_run_chunk(config, s, e, slots) for s, e in bounds]
    else:
        from concurrent.futures import ThreadPoolExecutor

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
    lower = float(code.reliabilities.max(where=~code.frozen_mask, initial=0.0))
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
