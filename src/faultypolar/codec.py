"""Polar encoding, BEC transmission, and faulty successive cancellation decoding.

Messages live on the three-valued alphabet {-1, 0, +1}: +1 encodes LLR
+infinity (bit 0), -1 encodes LLR -infinity (bit 1), and 0 is an erasure.
The channel never lies, so with a fault-free decoder an erasure is the only
failure mode.

Decoder faults erase the output of a node computation with probability
delta; messages that are already erased stay erased, and channel values are
never fault-injected. Protection applies to whole tree levels counted from
the root: with n_u unprotected transitions, the messages produced at tree
levels 1..min(n_u, n) (leaf side) receive faults and the levels above do
not, matching the construction module's evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .construction import CodeConstruction
from .core import INDEPENDENT_TREE, SHARED, FaultSpec, _require_unit_interval
from .errors import InternalInvariantError


class TernaryLLR(IntEnum):
    NEG_INFINITE = -1
    ERASED = 0
    POS_INFINITE = 1


ERASED_BIT = -1  # marker for an erased hard decision in u_hat vectors


def _as_message_array(values, name):
    arr = np.asarray(values)
    if not np.all(np.isin(arr, (-1, 0, 1))):
        raise ValueError(f"{name} must contain only values in {{-1, 0, +1}}")
    return arr.astype(np.int8, copy=False)


def _as_bit_array(values, name):
    arr = np.asarray(values)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} must contain only bits 0/1")
    return arr.astype(np.int8, copy=False)


def encode(u, n: int | None = None) -> np.ndarray:
    """Apply the polar transform to u over GF(2).

    The n-stage butterfly runs in natural (non-bit-reversed) order, pairing
    adjacent blocks first, so that channel index 1 carries the all-check
    decoding tree. The transform is an involution: encode(encode(u)) == u.

    Accepts a batch: the transform applies along the last axis.
    """
    x = _as_bit_array(u, "u").copy()
    length = x.shape[-1]
    if length == 0 or length & (length - 1):
        raise ValueError(f"length must be a power of two, got {length}")
    stages = length.bit_length() - 1
    if n is not None and n != stages:
        raise ValueError(f"length {length} does not match exponent n={n}")
    for s in range(stages):
        w = 1 << s
        v = x.reshape(x.shape[:-1] + (length // (2 * w), 2 * w))
        v[..., :w] ^= v[..., w:]
    return x


def transmit_bec(x, p: float, rng: np.random.Generator) -> np.ndarray:
    """Send codeword bits through a BEC(p).

    Each position is independently erased with probability p; surviving
    positions map bit 0 to +1 and bit 1 to -1 (the output is never wrong).
    """
    bits = _as_bit_array(x, "x")
    _require_unit_interval(p, "p")
    hit = rng.random(bits.shape) < p
    return np.where(hit, np.int8(0), (1 - 2 * bits).astype(np.int8))


def check_node(m1, m2):
    """Check-node update: erased if either input is erased, else sign product."""
    out = np.asarray(m1, dtype=np.int8) * np.asarray(m2, dtype=np.int8)
    if out.ndim == 0:
        return TernaryLLR(int(out))
    return out


def variable_node(m1, m2, partial_sum):
    """Variable-node update m1 + (-1)**partial_sum * m2 in saturated ternary arithmetic.

    Opposing infinities cancel to an erasure; an infinity absorbs an erased
    partner; two erasures stay erased.
    """
    a = np.asarray(m1, dtype=np.int8)
    b = np.asarray(m2, dtype=np.int8)
    s = np.asarray(partial_sum, dtype=np.int8)
    out = np.sign(a + (1 - 2 * s) * b)
    if out.ndim == 0:
        return TernaryLLR(int(out))
    return out


def inject_fault(m, delta: float, rng: np.random.Generator):
    """Erase a non-erased message with probability delta.

    The array form draws one uniform per element (erased slots included) so
    the stream consumption is independent of the data.
    """
    _require_unit_interval(delta, "delta")
    arr = np.asarray(m, dtype=np.int8)
    if arr.ndim == 0:
        value = int(arr)
        if value != 0 and delta > 0 and rng.random() < delta:
            return TernaryLLR.ERASED
        return TernaryLLR(value)
    if delta == 0:
        return arr.copy()
    mask = (arr != 0) & (rng.random(arr.shape) < delta)
    return np.where(mask, np.int8(0), arr)


@dataclass(frozen=True)
class Frame:
    """One encoded and transmitted codeword."""

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = _as_bit_array(self.u, "u")
        x = _as_bit_array(self.x, "x")
        y = _as_message_array(self.y, "y")
        if not (u.shape == x.shape == y.shape):
            raise ValueError("u, x, y must share one length")
        if not np.array_equal(encode(u), x):
            raise ValueError("x is not the polar transform of u")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one successive cancellation decode.

    u_hat holds the hard decisions at the information positions in
    ascending index order: 0, 1, or ERASED_BIT (-1) where the decision LLR
    was erased. first_erasure_index is the 1-based channel index of the
    first erased information decision, or None. decision_erased records,
    for every channel index, whether the decision LLR came out erased
    (frozen positions included); under genie feedback these events occur
    with probability Z_i exactly.
    """

    u_hat: np.ndarray
    frame_erased: bool
    first_erasure_index: int | None
    decision_erased: np.ndarray


class _HitStream:
    """Pre-drawn per-frame fault hits consumed in the decoder's fixed schedule."""

    __slots__ = ("hits", "pos")

    def __init__(self, hits: np.ndarray):
        self.hits = hits
        self.pos = 0

    def take(self, width: int) -> np.ndarray:
        end = self.pos + width
        if end > self.hits.shape[1]:
            raise InternalInvariantError("fault hit stream overrun")
        block = self.hits[:, self.pos:end]
        self.pos = end
        return block


def fault_slot_count(n: int, fault: FaultSpec, mode: str) -> int:
    """Fault draws one decode consumes per frame."""
    ueff = fault.effective_steps(n)
    if fault.delta == 0 or ueff == 0:
        return 0
    size = 1 << n
    if mode == SHARED:
        return size * ueff
    per_bit = size - (size >> ueff)
    return size * per_bit


def _decode_batch(y: np.ndarray, frozen_mask: np.ndarray, fault: FaultSpec,
                  mode: str, genie: bool, true_u: np.ndarray | None,
                  fault_hits: np.ndarray | None):
    """Decode a (B, N) batch of frames; returns (u_hat, decision_erased).

    fault_hits is a (B, fault_slot_count) bool array holding, for each
    frame, its fault uniforms already turned into hits (uniform < delta).
    Each computed message takes the next hit in the fixed schedule and is
    erased where it is set. The schedule is data-independent, so two runs
    seeing the same per-frame hit rows produce identical results no matter
    how frames are grouped into batches.
    """
    batch, size = y.shape
    n = size.bit_length() - 1
    faulty_min_level = n - fault.effective_steps(n)
    stream = None
    if fault_hits is not None and fault_slot_count(n, fault, mode) > 0:
        stream = _HitStream(fault_hits)

    u_hat = np.empty((batch, size), dtype=np.int8)
    decision_erased = np.empty((batch, size), dtype=bool)
    # bits[L] holds, over completed aligned blocks of width 2**L, the
    # polar-transformed decisions of that block's leaves (the partial sums).
    bits = [np.zeros((batch, size), dtype=np.int8) for _ in range(max(n, 1))]
    shared_msgs = None
    if mode == SHARED:
        shared_msgs = [np.empty((batch, size), dtype=np.int8) for _ in range(n)]
        shared_msgs.append(y)
    zero_col = np.zeros(batch, dtype=np.int8)

    def apply_level(level, left, right, g_node, base):
        if g_node:
            ps = bits[level][:, base:base + (1 << level)]
            out = np.sign(right + (1 - 2 * ps) * left).astype(np.int8, copy=False)
        else:
            out = left * right
        if stream is not None and level >= faulty_min_level:
            # an erased message stays erased, so erasing every hit is exact
            out = np.where(stream.take(1 << level), np.int8(0), out)
        return out

    for i0 in range(size):
        if mode == SHARED:
            if i0 == 0:
                levels = range(n - 1, -1, -1)
            else:
                levels = range((i0 & -i0).bit_length() - 1, -1, -1)
            for level in levels:
                width = 1 << level
                base2 = (i0 >> (level + 1)) << (level + 1)
                parent = shared_msgs[level + 1]
                out = apply_level(
                    level,
                    parent[:, base2:base2 + width],
                    parent[:, base2 + width:base2 + 2 * width],
                    g_node=bool((i0 >> level) & 1),
                    base=base2,
                )
                dst = (i0 >> level) << level
                shared_msgs[level][:, dst:dst + width] = out
            llr = shared_msgs[0][:, i0] if n > 0 else y[:, 0]
        else:
            cur = y
            for level in range(n - 1, -1, -1):
                width = 1 << level
                base2 = (i0 >> (level + 1)) << (level + 1)
                block = cur if level < n - 1 else y[:, base2:base2 + 2 * width]
                cur = apply_level(
                    level,
                    block[:, :width],
                    block[:, width:2 * width],
                    g_node=bool((i0 >> level) & 1),
                    base=base2,
                )
            llr = cur[:, 0] if n > 0 else y[:, 0]

        erased = llr == 0
        decision_erased[:, i0] = erased
        if frozen_mask[i0]:
            u_hat[:, i0] = 0
            feedback = zero_col
        else:
            decided = np.where(llr < 0, np.int8(1), np.int8(0))
            u_hat[:, i0] = np.where(erased, np.int8(ERASED_BIT), decided)
            if genie:
                feedback = true_u[:, i0]
            else:
                # continuation convention: an erased decision feeds 0 forward
                feedback = decided
        if n > 0:
            bits[0][:, i0] = feedback
            level = 1
            while level < n and (i0 + 1) & ((1 << level) - 1) == 0:
                base = (i0 + 1) - (1 << level)
                half = 1 << (level - 1)
                left = bits[level - 1][:, base:base + half]
                right = bits[level - 1][:, base + half:base + 2 * half]
                bits[level][:, base:base + half] = left ^ right
                bits[level][:, base + half:base + 2 * half] = right
                level += 1

    if stream is not None and stream.pos != stream.hits.shape[1]:
        raise InternalInvariantError("fault hit stream not fully consumed")
    return u_hat, decision_erased


def sc_decode(y, code: CodeConstruction, fault: FaultSpec,
              rng: np.random.Generator | None = None, genie: bool = False,
              true_u=None, mode: str | None = None) -> DecodeResult:
    """Successive cancellation decode of one received frame.

    Parameters
    ----------
    y : array-like
        N channel messages in {-1, 0, +1}.
    code : CodeConstruction
        Supplies the frozen/information split (frozen values are all zero).
    fault : FaultSpec
        Decode-time fault model; need not match the one the code was
        designed for.
    rng : numpy.random.Generator, optional
        Source of fault randomness; required whenever fault injection is
        active.
    genie : bool
        Feed the true bits forward regardless of the decisions, so each
        decision-LLR erasure event is measured against Z_i.
    true_u : array-like, optional
        True input word, required in genie mode.
    mode : str, optional
        "shared" or "independent_tree"; defaults to fault.correlation_mode.
    """
    y_arr = _as_message_array(y, "y")
    if y_arr.shape != (code.N,):
        raise ValueError(f"expected {code.N} channel messages, got shape {y_arr.shape}")
    if mode is None:
        mode = fault.correlation_mode
    if mode not in (SHARED, INDEPENDENT_TREE):
        raise ValueError(f"unknown mode {mode!r}")
    true_arr = None
    if genie:
        if true_u is None:
            raise ValueError("genie decoding requires the true input word")
        true_arr = _as_bit_array(true_u, "true_u").reshape(1, code.N)
    slots = fault_slot_count(code.n, fault, mode)
    hits = None
    if slots:
        if rng is None:
            raise ValueError("an rng is required when fault injection is active")
        hits = rng.random((1, slots)) < fault.delta
    u_hat_full, erased_full = _decode_batch(
        y_arr.reshape(1, code.N), code.frozen_mask, fault, mode, genie,
        true_arr, hits,
    )
    info0 = code.info_indices - 1
    u_hat = u_hat_full[0, info0]
    erased_info = u_hat == ERASED_BIT
    frame_erased = bool(erased_info.any())
    first = int(code.info_indices[int(np.argmax(erased_info))]) if frame_erased else None
    return DecodeResult(u_hat=u_hat, frame_erased=frame_erased,
                        first_erasure_index=first,
                        decision_erased=erased_full[0])
