"""Polar encoding, BEC transmission, and faulty successive cancellation decoding.

Messages live on the three-valued alphabet {-1, 0, +1}: +1 encodes LLR
+infinity (bit 0), -1 encodes LLR -infinity (bit 1), and 0 is an erasure.
The channel never lies, so with a fault-free decoder an erasure is the only
failure mode.

Decoder faults erase the output of a node computation with probability
delta; messages that are already erased stay erased, and channel values are
never fault-injected. Which tree levels receive faults is the rule of
FaultSpec.effective_steps, the one density evolution follows.

The batched decoder behind sc_decode and the simulations computes the
node updates on these values bitsliced: each message is an erased bit and
a sign bit, packed eight frames to a byte in positions-major planes, so a
node update is a few bitwise operations on contiguous rows. Each tree
level holds only the block the current bit is in (see _decode_batch). It
reads the channel as an erasure mask plus the codeword bits. Under genie
feedback every known message is correct, so a genie decode carries the
erased bits alone. encode runs the same butterfly, one byte per bit.

Both correlation modes run one schedule on one layout; the mode picks
only which tree levels each bit recomputes (see _decode_batch). That
schedule fixes each message's fault hits by offset: a bit's hits follow
those of the bits before it, its top level first, so a level-L node of a
bit that recomputes from level top reads 2**L hit rows at offset
2**(top+1) - 2**(L+1) within the bit. A caller that reads the information
decisions alone says so (info_only), and each bit stops at the lowest
level one of them depends on, set by the next information bit; the
levels below read no hits, the others theirs at the same rows. Non-genie
simulations read the information decisions alone; genie runs and
sc_decode read them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import CodeConstruction
from .core import SHARED, FaultSpec, _require_unit_interval
from .errors import InternalInvariantError, ResourceLimitError


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


def encode(u) -> np.ndarray:
    """Apply the polar transform to u over GF(2).

    The last axis of u has length N = 2**n (else ValueError). The n-stage
    butterfly runs in natural (non-bit-reversed) order, pairing adjacent
    blocks first, so that channel index 1 carries the all-check decoding
    tree. The transform is an involution: encode(encode(u)) == u.

    Accepts a batch: the transform applies along the last axis (a 0-d u
    raises ValueError). The butterfly runs on a positions-major copy, one
    byte per bit, and the result is a new C-ordered int8 array.
    """
    arr = _as_bit_array(u, "u")
    if arr.ndim == 0:
        raise ValueError("u must have at least one axis")
    length = arr.shape[-1]
    if length == 0 or length & (length - 1):
        raise ValueError(f"length must be a power of two, got {length}")
    rows = np.array(arr.reshape(-1, length).T, order="C")  # a copy, even of one word
    _polar_transform(rows)
    return np.ascontiguousarray(rows.T).reshape(arr.shape)


def transmit_bec(x, p: float, rng: np.random.Generator) -> np.ndarray:
    """Send codeword bits through a BEC(p).

    Each position is independently erased with probability p; surviving
    positions map bit 0 to +1 and bit 1 to -1 (the output is never wrong).
    """
    bits = _as_bit_array(x, "x")
    _require_unit_interval(p, "p")
    hit = rng.random(bits.shape) < p
    return np.where(hit, np.int8(0), (1 - 2 * bits).astype(np.int8))


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
_DRAW_BLOCK = 8192  # uniforms (raw 64-bit words) per draw call


def _pack_frames(cells: np.ndarray) -> np.ndarray:
    """Pack a (B, W) array of 0/1 cells into (W, ceil(B/8)) uint8 bit planes.

    Bit k of byte j in row w is cells[8j + k, w]; pad bits are 0. The work
    runs in blocks through two scratch buffers of _PACK_BYTES each, so no
    temporary of the input's size appears. Eight cells of a row share one
    uint64 word when the rows are contiguous and W is a multiple of 8;
    shifting a 0/1 cell by fewer than 8 bits never leaves its byte, so the
    loop treats uint64 and single-cell uint8 words alike.
    """
    batch, width = cells.shape
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


def _polar_transform(planes: np.ndarray) -> None:
    """Run encode's butterfly in place on the rows of an (N, width) array.

    Each stage XORs the right half of every block of 2w rows into its left
    half: one operation over contiguous rows, which may be packed bit
    planes or one byte per bit.
    """
    size, width = planes.shape
    w = 1
    while w < size:
        blocks = planes.reshape(size // (2 * w), 2 * w, width)
        blocks[:, :w] ^= blocks[:, w:]
        w *= 2


# Memory one trial may allocate, as _trial_bytes counts it: the one rule of
# a simulation trial (montecarlo._require_limits) and of sc_decode, which
# both apply it through _require_trial_bytes. With every step faulty it
# admits independent_tree up to n = 13 and shared up to n = 22 (190 MiB,
# 140 MiB with the genie); independent_tree from n = 15 on whenever a step
# is faulty, and n = 24 without the genie, are refused.
TRIAL_BYTES_CEILING = 256 * 2**20


def fault_slot_count(n: int, fault: FaultSpec) -> int:
    """Fault draws one decode consumes per frame: N*s in shared mode and
    N*(N - (N >> s)) in independent_tree, for s = fault.effective_steps(n)
    and the mode fault.correlation_mode."""
    steps = fault.effective_steps(n)
    size = 1 << n
    if fault.correlation_mode == SHARED:
        return size * steps
    return size * (size - (size >> steps))


def _trial_bytes(n: int, slots: int, batch: int = 1, genie: bool = False) -> int:
    """Bytes a simulation chunk of `batch` trials allocates; by default one
    trial alone, which bounds sc_decode too.

    Per frame, its row of the (B, N) bool channel-erasure mask. Per group
    of eight frames (paid in full even when fewer share it), a byte per
    fault slot for the packed hits and per row of each packed plane: the
    N decisions, the 2**L-row block of each level L in 1..n - 1 and the
    channel; without the genie each of those twice (E and S, the codeword
    being the channel's S), N - 1 rows of partial sums and a half-height
    g-node scratch. That is at most 7.5 N, or 3 N with the genie. Per
    chunk (batch = 0 gives it alone), 9 bytes per position: the int64
    information positions and the bool mask they are found from; without
    the genie, 8 more for the eight lanes of source bits. Fixed scratch
    (the eight lanes of fault hits, a block of raw words and the packing
    buffers, 64 KiB each) is not counted.
    """
    size = 1 << n
    if genie:
        packed, chunk = 3 * size, 9 * size
    else:
        packed, chunk = 7 * size + size // 2, 17 * size
    return batch * size + -(-batch // 8) * (slots + packed) + chunk


def _require_trial_bytes(n: int, fault: FaultSpec, genie: bool) -> int:
    """One frame's fault slots, once one trial of 2**n positions fits
    TRIAL_BYTES_CEILING; ResourceLimitError, before anything is allocated
    or drawn, when it does not."""
    slots = fault_slot_count(n, fault)
    per_trial = _trial_bytes(n, slots, genie=genie)
    if per_trial > TRIAL_BYTES_CEILING:
        raise ResourceLimitError(
            f"one trial needs {per_trial} bytes ({slots} fault slots plus decoder "
            f"planes), over the per-trial ceiling {TRIAL_BYTES_CEILING}")
    return slots


def _decode_batch(erased: np.ndarray, frozen_mask: np.ndarray, fault: FaultSpec,
                  mode: str, genie: bool, codeword: np.ndarray | None,
                  fault_hits: np.ndarray | None, *, info_only: bool = False):
    """Decode a (B, N) batch of frames; returns the packed decision planes.

    erased is the (B, N) bool channel-erasure mask and codeword the
    codeword bits as an (N, ceil(B/8)) packed plane, laid out as
    _pack_frames lays it out. The BEC never lies, so where it does not
    erase it reports the codeword bit: the codeword is the channel's sign
    plane, and its bits at erased positions are don't-care. The genie
    kernel carries no signs and ignores codeword, which may be None.

    Level n is the channel, level 0 the decisions. Bit i, in order,
    recomputes from a top level down its level-L block, rows (i >> L) << L
    on, from its parent block. The mode picks the top alone: the lowest
    set bit of i in shared mode (n - 1 at i = 0), the levels whose inputs
    changed; n - 1 in independent_tree. mode must be
    fault.correlation_mode (else InternalInvariantError); perfbench's
    tracer reads it as argument 3. So a level L in 1..n - 1 holds
    only the block of 2**L rows bit i is in (the space-efficient layout of
    Tal and Vardy, 2015): in shared mode the level-(L + 1) block that bit
    i reads was computed at its first bit, and no level-(L + 1) node has
    run since. The decisions keep all N rows.

    fault_hits is the (fault_slot_count, ceil(B/8)) packed plane of the
    frames' fault hits (uniform < delta), or None when there are none:
    bit k of byte j in row s is slot s of frame 8j + k, and pad bits are
    0. Its memory order is free. A message of a faulty level L >= lo,
    lo = n - fault.effective_steps(n), is erased where its hit is set.
    Each hit's row follows from the schedule alone. Bit i's hits start at
    row base, the sum of 2**(t + 1) - 2**lo over the earlier bits whose
    top level t is at least lo; its level-L block reads the 2**L rows from
    base + 2**(top + 1) - 2**(L + 1), where top is its own top level. So
    two runs seeing the same per-frame hits produce identical results no
    matter how frames are grouped into batches. A plane of any other row
    count raises InternalInvariantError before anything is decoded.

    Bit i evaluates its levels top down to lowest, top - lowest + 1
    nodes, and lowest is 0 unless info_only: then the caller reads the
    information decisions alone, frozen decisions feed 0 forward whatever
    they are, and bit i stops at the lowest level one of them depends on.
    Let j be the first information bit from i on (N if none), which one
    pointer finds in a single walk over frozen_mask. In shared mode bit
    i's level-L block, rows i on, feeds the decisions of its own rows, so
    lowest = (j - i).bit_length() and the blocks below are rate-0
    subtrees of simplified SC. In independent_tree mode each bit's path
    feeds its own decision alone: lowest is 0 for an information bit and
    n (no level) for a frozen one, j != i. A skipped node reads no hits,
    and the others read their own rows, so every decision that is
    evaluated is that of the full decode.

    The kernel works on packed bit planes of shape (rows, ceil(B/8))
    uint8, positions-major: bit k of byte j in row i belongs to frame
    8j + k, so every tree block is a contiguous run of rows and one
    bitwise op updates eight frames per byte; for a batch of one, every
    plane is just the frame's 0/1 bytes, one per row. Without the genie a
    message is two planes: E (erased) and S (sign, 1 for -infinity). The
    sign of an erased message is don't-care; a decision reads S & ~E. With
    u the partial sums of the left sibling block:

        f node:  E = El | Er                 S = Sl ^ Sr
        g node:  t = Sl ^ u ^ Sr             S = Sr ^ (Er & t)
                 E = ~(El ^ Er) & (El | t)   (both erased, or both known
                                              with opposing signs)
        fault:   E |= hits

    Level L keeps the 2**L partial sums a level-L g node reads: the
    polar transform of the fed-back decisions of the last left block of
    width 2**L. When bit i ends the blocks of levels 0..t, the level-t one
    is such a left block; bit i writes its last row, S & ~E for an
    information bit and 0 for a frozen one, and the transform is built in
    place from it up, [u_left ^ x, x] at each level below t.

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
    if mode != fault.correlation_mode:
        raise InternalInvariantError(f"mode {mode!r} is not the fault's "
                                     f"{fault.correlation_mode!r}")
    slots = fault_slot_count(n, fault)
    height = 0 if fault_hits is None else fault_hits.shape[0]
    if height != slots:
        raise InternalInvariantError(f"fault hit plane has {height} rows, the schedule "
                                     f"reads {slots}")
    lo = n - fault.effective_steps(n)  # the lowest faulty level

    signs = not genie
    channel = (_pack_frames(erased),) + ((codeword,) if signs else ())
    nbytes = channel[0].shape[1]

    def planes(rows):
        return np.empty((rows, nbytes), dtype=np.uint8)

    if signs:
        sums = [planes(1 << level) for level in range(n)]
        scratch = planes(size // 2)
    msgs = [tuple(planes(1 << level if level else size) for _ in channel)
            for level in range(n)] + [channel]
    decision = msgs[0]
    recompute_all = mode != SHARED

    def node(level, i0, row):
        width = 1 << level
        parent, out = msgs[level + 1], msgs[level]
        dst = 0 if level else i0
        g_node = i0 & width
        el, er = parent[0][:width], parent[0][width:2 * width]
        out_e = out[0][dst:dst + width]
        if not signs:
            (np.bitwise_and if g_node else np.bitwise_or)(el, er, out=out_e)
        else:
            sl, sr = parent[1][:width], parent[1][width:2 * width]
            out_s = out[1][dst:dst + width]
            if g_node:
                t = scratch[:width]
                np.bitwise_xor(sl, sums[level], out=t)
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
        if level >= lo:
            # an erased message stays erased, so erasing every hit is exact
            np.bitwise_or(out_e, fault_hits[row:row + width], out=out_e)

    base = 0  # the first hit row of bit i0
    info = -1  # the first information bit from i0 on, size when there is none
    for i0 in range(size):
        if info < i0:
            info = i0
            while info < size and frozen_mask[info]:
                info += 1
        top = n - 1 if recompute_all or i0 == 0 else (i0 & -i0).bit_length() - 1
        if not info_only or info == i0:
            lowest = 0
        else:
            lowest = n if recompute_all else (info - i0).bit_length()
        for level in range(top, lowest - 1, -1):
            node(level, i0, base + (2 << top) - (2 << level))
        if top >= lo:
            base += (2 << top) - (1 << lo)

        end = (i0 + 1) & -(i0 + 1)  # 2**t: bit i0 ends the blocks of levels 0..t
        if not signs or end == size:
            continue
        t = end.bit_length() - 1
        acc = sums[t]  # the level-t block is a left one: build its sums
        row = acc[end - 1]
        if info != i0:  # a frozen bit
            row.fill(0)
        else:
            # continuation convention: an erased decision feeds 0 forward
            np.bitwise_and(decision[1][i0], decision[0][i0], out=row)
            np.bitwise_xor(row, decision[1][i0], out=row)
        for level in range(t):  # acc[x:] holds the level's block sums
            x = end - (1 << level)
            np.bitwise_xor(sums[level], acc[x:], out=acc[x - (1 << level):x])

    if base != slots:
        raise InternalInvariantError(f"the schedule read {base} of {slots} fault hit rows")
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
        Supplies the frozen mask; frozen bits are sent and fed forward as 0.
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

    Raises ResourceLimitError, before anything is allocated or drawn, for
    the frames simulate --trials 1 refuses (_require_trial_bytes): with
    every step faulty it admits independent_tree up to n = 13 and shared
    up to n = 22, and it refuses independent_tree from n = 15 on whenever
    a step is faulty.
    """
    y_arr = _as_message_array(y, "y")
    if y_arr.shape != (code.N,):
        raise ValueError(f"expected {code.N} channel messages, got shape {y_arr.shape}")
    slots = _require_trial_bytes(code.n, fault, genie)
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
    hits = None
    if slots:
        if rng is None:
            raise ValueError("an rng is required when fault injection is active")
        # one byte per slot, drawn in blocks that continue one stream
        hits = np.empty((slots, 1), dtype=np.uint8)
        for pos in range(0, slots, _DRAW_BLOCK):
            np.less(rng.random(min(_DRAW_BLOCK, slots - pos)), fault.delta,
                    out=hits[pos:pos + _DRAW_BLOCK, 0])
    codeword = None if genie else (y_arr < 0).view(np.uint8).reshape(code.N, 1)
    planes = _decode_batch(erased.reshape(1, code.N), code.frozen_mask, fault,
                           fault.correlation_mode, genie, codeword, hits)
    erased_full = (planes[0][:, 0] & 1).view(bool)
    # every known genie decision is the sent bit; otherwise it reads S & ~E
    bits = sent if genie else (planes[1][:, 0] & 1).view(np.int8)
    info = ~code.frozen_mask
    erased_info = erased_full[info]
    u_hat = np.where(erased_info, np.int8(ERASED_BIT), bits[info])
    frame_erased = bool(erased_info.any())
    first = int(np.argmax(erased_full & info)) + 1 if frame_erased else None
    return DecodeResult(u_hat=u_hat, frame_erased=frame_erased,
                        first_erasure_index=first,
                        decision_erased=erased_full)
