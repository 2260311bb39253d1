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

The public node functions work on the {-1, 0, +1} values. The batched
decoder behind sc_decode and the simulations computes the same updates
bitsliced: each message is an erased bit and a sign bit, packed eight
frames to a byte in positions-major (N, ceil(B/8)) planes, so a node update
is a few bitwise operations on contiguous rows (see _decode_batch). It
reads the channel as an erasure mask plus the codeword bits. Under genie
feedback every known message is correct, so a genie decode carries the
erased bits alone. encode runs its butterfly on the same packed planes.

Both correlation modes run one schedule on one layout; the mode picks
only which tree levels each bit recomputes (see _decode_batch). A caller
that reads only some decisions names them, and the decoder skips every
node that feeds only unread frozen decisions; the fault schedule does not
change. The simulations read the information decisions alone (genie runs
read them all), and sc_decode reads every decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .construction import CodeConstruction
from .core import SHARED, FaultSpec, _require_unit_interval
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
    if arr.dtype.kind in "biu":  # integer cells: a range check suffices
        ok = arr.size == 0 or (arr.min() >= 0 and arr.max() <= 1)
    else:
        ok = np.all((arr == 0) | (arr == 1))
    if not ok:
        raise ValueError(f"{name} must contain only bits 0/1")
    return arr.astype(np.int8, copy=False)


def encode(u, n: int | None = None) -> np.ndarray:
    """Apply the polar transform to u over GF(2).

    The n-stage butterfly runs in natural (non-bit-reversed) order, pairing
    adjacent blocks first, so that channel index 1 carries the all-check
    decoding tree. The transform is an involution: encode(encode(u)) == u.

    Accepts a batch: the transform applies along the last axis. The words
    are packed once into bit planes (see _pack_frames), the butterfly runs
    on them, and the result is unpacked; a 2-D batch comes back in
    column-major (Fortran) order.
    """
    arr = _as_bit_array(u, "u")
    length = arr.shape[-1]
    if length == 0 or length & (length - 1):
        raise ValueError(f"length must be a power of two, got {length}")
    if n is not None and n != length.bit_length() - 1:
        raise ValueError(f"length {length} does not match exponent n={n}")
    frames = arr.reshape(-1, length)
    planes = _pack_frames(frames)
    _polar_transform(planes)
    return _unpack_frames(planes, frames.shape[0]).view(np.int8).reshape(arr.shape)


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


_PACK_BYTES = 1 << 16  # scratch bytes per buffer while packing


def _pack_frames(cells: np.ndarray) -> np.ndarray:
    """Pack a (B, W) array of 0/1 cells into (W, ceil(B/8)) uint8 bit planes.

    Bit k of byte j in row w is cells[8j + k, w]; pad bits are 0. The work
    runs in blocks through two scratch buffers of _PACK_BYTES each, so no
    temporary of the input's size appears. Eight cells of a row share one
    uint64 word when the rows are contiguous and W is a multiple of 8;
    shifting a 0/1 cell by fewer than 8 bits never leaves its byte, so the
    loop treats uint64 and single-cell uint8 words alike. A column-major
    input, such as _unpack_frames returns, holds each position's frames
    contiguously, so np.packbits packs it directly.
    """
    batch, width = cells.shape
    if cells.flags.f_contiguous:
        return np.packbits(cells.T, axis=1, bitorder="little")
    nbytes = -(-batch // 8)
    out = np.empty((width, nbytes), dtype=np.uint8)
    wide = cells.flags.c_contiguous and width % 8 == 0
    words = cells.view(np.uint64 if wide else np.uint8)
    itemsize, nwords = words.itemsize, words.shape[1]
    wc = max(1, min(nwords, _PACK_BYTES // itemsize))  # words per block
    fb = max(1, _PACK_BYTES // itemsize // wc)  # frame bytes per block
    acc = np.empty(fb * wc, dtype=words.dtype)
    tmp = np.empty_like(acc)
    for f0 in range(0, nbytes, fb):
        fbn = min(fb, nbytes - f0)
        for w0 in range(0, nwords, wc):
            wcn = min(wc, nwords - w0)
            a = acc[:fbn * wcn].reshape(fbn, wcn)
            t = tmp[:fbn * wcn].reshape(fbn, wcn)
            a.fill(0)
            for k in range(8):
                rows = words[8 * f0 + k:8 * (f0 + fbn):8, w0:w0 + wcn]
                r = rows.shape[0]
                np.left_shift(rows, k, out=t[:r])
                np.bitwise_or(a[:r], t[:r], out=a[:r])
            out[w0 * itemsize:(w0 + wcn) * itemsize, f0:f0 + fbn] = a.view(np.uint8).T
    return out


def _unpack_frames(planes: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of _pack_frames: (W, nbytes) planes to (batch, W) uint8 0/1 cells."""
    return np.unpackbits(planes.T, axis=0, count=batch, bitorder="little")


def _polar_transform(planes: np.ndarray) -> None:
    """Run encode's butterfly in place on (N, nbytes) positions-major planes.

    Each stage XORs the right half of every block of 2w rows into its left
    half: one operation over contiguous rows.
    """
    size, nbytes = planes.shape
    w = 1
    while w < size:
        blocks = planes.reshape(size // (2 * w), 2 * w, nbytes)
        blocks[:, :w] ^= blocks[:, w:]
        w *= 2


class _HitStream:
    """Packed per-frame fault hits consumed in the decoder's fixed schedule."""

    __slots__ = ("hits", "pos")

    def __init__(self, hits: np.ndarray):
        self.hits = hits
        self.pos = 0

    def take(self, width: int) -> np.ndarray:
        end = self.pos + width
        if end > self.hits.shape[0]:
            raise InternalInvariantError("fault hit stream overrun")
        block = self.hits[self.pos:end]
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


def _block_any(leaves: np.ndarray, n: int) -> list[np.ndarray]:
    """levels[L][b]: some leaf of the level-L block b (leaves b << L on) is set."""
    levels = [leaves]
    for _ in range(n):
        levels.append(levels[-1].reshape(-1, 2).any(axis=1))
    return levels


def _decode_batch(erased: np.ndarray, frozen_mask: np.ndarray, fault: FaultSpec,
                  mode: str, genie: bool, codeword: np.ndarray | None,
                  fault_hits: np.ndarray | None, *, read: np.ndarray | None = None):
    """Decode a (B, N) batch of frames; returns the packed decision planes.

    erased is the (B, N) bool channel-erasure mask and codeword the (B, N)
    0/1 codeword bits. The BEC never lies, so where it does not erase it
    reports the codeword bit: the codeword is the channel's sign plane, and
    its bits at erased positions are don't-care. The genie kernel carries
    no signs and ignores codeword, which may be None.

    fault_hits is a (B, fault_slot_count) bool array holding, for each
    frame, its fault uniforms already turned into hits (uniform < delta).
    Each message takes the next hit in the fixed schedule and is erased
    where it is set. The schedule is data-independent, so two runs seeing
    the same per-frame hit rows produce identical results no matter how
    frames are grouped into batches.

    Levels 0 (the decisions) to n - 1 hold N message rows each, level n
    is the channel. Bit i, in order, recomputes from a top level down its
    level-L block, rows (i >> L) << L on, from its parent block. mode
    picks the top alone: the lowest set bit of i in shared mode (n - 1 at
    i = 0), the levels whose inputs changed; n - 1 in independent_tree.

    read, an N-long bool mask, names the decisions the caller reads; the
    default is all of them. A node is evaluated only when a read decision
    or an information decision, whose partial sums feed later bits,
    depends on it; frozen decisions feed 0 forward whatever they are. In
    shared mode a level-L block feeds the decisions of its own rows, so it
    is skipped when they hold no read and no information bit (a rate-0
    subtree of simplified SC). In independent_tree mode each bit's path
    feeds its own decision alone, so an unread frozen bit skips every
    level. A skipped node still takes its hits from the stream, so the
    schedule, and every decision that is evaluated, is that of the full
    decode. Partial sums of all-frozen blocks are always 0 and are never
    written.

    The kernel works on packed bit planes of shape (N, ceil(B/8)) uint8,
    positions-major: bit k of byte j in row i belongs to frame 8j + k, so
    every tree block is a contiguous run of rows and one bitwise op updates
    eight frames per byte. Without the genie a message is two planes: E
    (erased) and S (sign, 1 for -infinity). The sign of an erased message
    is don't-care; a decision reads S & ~E. With u the partial-sum plane:

        f node:  E = El | Er                 S = Sl ^ Sr
        g node:  t = Sl ^ u ^ Sr             S = Sr ^ (Er & t)
                 E = ~(El ^ Er) & (El | t)   (both erased, or both known
                                              with opposing signs)
        fault:   E |= hits

    The genie feeds the true bits forward, with frozen bits as 0, so every
    message that is not erased is correct: two known inputs of a g node
    always agree. The erasure pattern then depends on the channel and
    fault erasures alone, and the kernel carries E only, with no sign
    planes and no partial sums:

        f node:  E = El | Er     g node:  E = El & Er     fault:  E |= hits

    The result is the decision level: (E, S) without the genie, (E,) with
    it. Rows of skipped decisions are unspecified; in the others the pad
    frames of the last byte are never erased, so their E bits are 0.
    """
    batch, size = erased.shape
    n = size.bit_length() - 1
    faulty_min_level = n - fault.effective_steps(n)
    stream = None
    if fault_hits is not None and fault.delta > 0:
        stream = _HitStream(_pack_frames(fault_hits))

    signs = not genie
    channel = (_pack_frames(erased),) + ((_pack_frames(codeword),) if signs else ())
    nbytes = channel[0].shape[1]

    info = ~frozen_mask
    needed = np.ones(size, dtype=bool) if read is None else read | info
    if signs:
        # bits[L] holds, over completed aligned blocks of width 2**L, the
        # polar-transformed decisions of that block's leaves (the partial
        # sums).
        bits = [np.zeros((size, nbytes), dtype=np.uint8) for _ in range(max(n, 1))]
        scratch = np.empty((size // 2, nbytes), dtype=np.uint8)
        has_info = _block_any(info, n)
    live = _block_any(needed, n)
    msgs = [tuple(np.empty((size, nbytes), dtype=np.uint8) for _ in channel)
            for _ in range(n)] + [channel]
    decision = msgs[0]
    recompute_all = mode != SHARED

    def node(level, i0):
        width = 1 << level
        base2 = (i0 >> (level + 1)) << (level + 1)
        dst = (i0 >> level) << level
        g_node = i0 & width
        parent, out = msgs[level + 1], msgs[level]
        el = parent[0][base2:base2 + width]
        er = parent[0][base2 + width:base2 + 2 * width]
        out_e = out[0][dst:dst + width]
        if not signs:
            (np.bitwise_and if g_node else np.bitwise_or)(el, er, out=out_e)
        else:
            sl = parent[1][base2:base2 + width]
            sr = parent[1][base2 + width:base2 + 2 * width]
            out_s = out[1][dst:dst + width]
            if g_node:
                t = scratch[:width]
                np.bitwise_xor(sl, bits[level][base2:base2 + width], out=t)
                np.bitwise_xor(t, sr, out=t)
                np.bitwise_and(er, t, out=out_s)
                np.bitwise_xor(out_s, sr, out=out_s)
                np.bitwise_or(t, el, out=t)
                np.bitwise_xor(el, er, out=out_e)
                np.invert(out_e, out=out_e)
                np.bitwise_and(out_e, t, out=out_e)
            else:
                np.bitwise_or(el, er, out=out_e)
                np.bitwise_xor(sl, sr, out=out_s)
        if stream is not None and level >= faulty_min_level:
            # an erased message stays erased, so erasing every hit is exact
            np.bitwise_or(out_e, stream.take(width), out=out_e)

    for i0 in range(size):
        top = n - 1 if recompute_all or i0 == 0 else (i0 & -i0).bit_length() - 1
        for level in range(top, -1, -1):
            if (needed[i0] if recompute_all else live[level][i0 >> level]):
                node(level, i0)
            elif stream is not None and level >= faulty_min_level:
                stream.take(1 << level)  # the skipped node's hits

        if not signs:
            continue
        if info[i0]:
            # continuation convention: an erased decision feeds 0 forward
            row = bits[0][i0]
            np.bitwise_and(decision[1][i0], decision[0][i0], out=row)
            np.bitwise_xor(row, decision[1][i0], out=row)
        level = 1
        while level < n and (i0 + 1) & ((1 << level) - 1) == 0:
            base = (i0 + 1) - (1 << level)
            if has_info[level][base >> level]:
                half = 1 << (level - 1)
                left = bits[level - 1][base:base + half]
                right = bits[level - 1][base + half:base + 2 * half]
                np.bitwise_xor(left, right, out=bits[level][base:base + half])
                bits[level][base + half:base + 2 * half] = right
            level += 1

    if stream is not None and stream.pos != stream.hits.shape[0]:
        raise InternalInvariantError("fault hit stream not fully consumed")
    return decision


def sc_decode(y, code: CodeConstruction, fault: FaultSpec,
              rng: np.random.Generator | None = None, genie: bool = False,
              true_u=None) -> DecodeResult:
    """Successive cancellation decode of one received frame.

    Parameters
    ----------
    y : array-like
        N channel messages in {-1, 0, +1}.
    code : CodeConstruction
        Supplies the frozen/information split (frozen values are all zero).
    fault : FaultSpec
        Decode-time fault model; need not match the one the code was
        designed for. Its correlation_mode, "shared" or
        "independent_tree", selects how fault draws are shared across
        bit decisions.
    rng : numpy.random.Generator, optional
        Source of fault randomness; required whenever fault injection is
        active.
    genie : bool
        Feed the true bits forward regardless of the decisions, so each
        decision-LLR erasure event is measured against Z_i.
    true_u : array-like, optional
        True input word, required in genie mode. Its frozen bits are
        taken as 0, and y must agree with encode of that word at every
        non-erased position; otherwise ValueError is raised.
    """
    y_arr = _as_message_array(y, "y")
    if y_arr.shape != (code.N,):
        raise ValueError(f"expected {code.N} channel messages, got shape {y_arr.shape}")
    mode = fault.correlation_mode
    erased = y_arr == 0
    if genie:
        if true_u is None:
            raise ValueError("genie decoding requires the true input word")
        known = _as_bit_array(true_u, "true_u").reshape(code.N)
        sent = np.where(code.frozen_mask, np.int8(0), known)
        # the erasure-only genie kernel is exact only for a consistent frame
        if np.any(~erased & (encode(sent) != (y_arr < 0))):
            raise ValueError("y disagrees with encode(true_u), frozen bits zeroed, "
                             "at a non-erased position")
    slots = fault_slot_count(code.n, fault, mode)
    hits = None
    if slots:
        if rng is None:
            raise ValueError("an rng is required when fault injection is active")
        hits = rng.random((1, slots)) < fault.delta
    planes = _decode_batch(erased.reshape(1, code.N), code.frozen_mask, fault, mode,
                           genie, None if genie else (y_arr < 0).reshape(1, code.N), hits)
    erased_full = _unpack_frames(planes[0], 1)[0].view(bool)
    # every known genie decision is the sent bit; otherwise it reads S & ~E
    bits = sent if genie else _unpack_frames(planes[1], 1)[0].view(np.int8)
    info0 = code.info_indices - 1
    erased_info = erased_full[info0]
    u_hat = np.where(erased_info, np.int8(ERASED_BIT), bits[info0])
    frame_erased = bool(erased_info.any())
    first = int(code.info_indices[int(np.argmax(erased_info))]) if frame_erased else None
    return DecodeResult(u_hat=u_hat, frame_erased=frame_erased,
                        first_erasure_index=first,
                        decision_erased=erased_full)
