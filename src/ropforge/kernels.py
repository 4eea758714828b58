"""Vectorized byte-scanning kernels driven by the decoder's rule table.

Gadget discovery spends essentially all of its time in two inner loops over
section bytes: finding every offset where a free-branch instruction decodes
(byte granularity, aligned or not) and validating candidate decode windows
behind each terminator (the backward-from-``ret`` scan of Shacham, CCS 2007).

Both run on two per-offset ``uint8`` arrays built once per section: the
encoded length and the class (normal, unknown, or a free-branch kind) of the
instruction that decodes at each offset.  They are two reads, over each
offset's byte pair ``first << 8 | second``, of 65,536-entry tables built from
:data:`ropforge.disasm.RULE_AT`, the lookup the decoder itself uses.  Window
validation then walks every candidate start at once, one instruction per pass
(``pos += length[pos]``), for at most ``max_insns`` passes.
"""

from __future__ import annotations

import numpy as np

from . import disasm
from .disasm import FreeBranchKind

# Instruction classes in the per-offset class array. Free-branch codes equal
# the FreeBranchKind enum values.
K_NORMAL = 0
K_UNKNOWN = 0xFF
_KIND_OF = (None, *FreeBranchKind)  # indexed by a free-branch code, 1-4

# Terminators validated per block, which bounds the candidate arrays.
_BLOCK = 1024

# Length and class of the instruction each byte pair starts; no rule is unknown, length 1.
_RULE_AT = np.frombuffer(disasm.RULE_AT, np.uint8)
_PAIR_LENGTH = np.array([1] + [r.length for r in disasm.RULES], np.uint8)[_RULE_AT]
_PAIR_CLASS = np.array(
    [K_UNKNOWN] + [disasm.FREE_BRANCH_OF.get(r.mnemonic, K_NORMAL) for r in disasm.RULES],
    np.uint8,
)[_RULE_AT]


def length_class(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset (length, class) of the instruction decoding there.

    Agrees with :func:`ropforge.disasm.decode_one` at every offset: an offset
    no rule matches, or whose encoding would run past the end of ``arr``, is
    ``K_UNKNOWN`` with length 1.  The last offset's missing second byte reads
    as 0, as in the decoder.
    """
    n = len(arr)
    pair = arr.astype(np.uint16) << 8
    pair[:-1] |= arr[1:]
    length = _PAIR_LENGTH[pair]
    klass = _PAIR_CLASS[pair]
    tail = np.arange(max(n - disasm.MAX_INSN_LEN + 1, 0), n)
    cut = tail[tail + length[tail] > n]
    length[cut] = 1
    klass[cut] = K_UNKNOWN
    return length, klass


def _free_branch_offsets(klass: np.ndarray) -> np.ndarray:
    return np.flatnonzero((klass != K_NORMAL) & (klass != K_UNKNOWN)).astype(np.int32)


def scan_free_branches(data: bytes) -> list[tuple[int, FreeBranchKind]]:
    """Every byte offset where a free-branch instruction decodes, ascending."""
    _, klass = length_class(np.frombuffer(data, dtype=np.uint8))
    offsets = _free_branch_offsets(klass)
    return [(o, _KIND_OF[k]) for o, k in zip(offsets.tolist(), klass[offsets].tolist())]


def _valid_windows(length, klass, terms, window_back, max_insns):
    """(start, end) int32 arrays of the valid windows behind ``terms``.

    Valid: greedy decode from ``start`` lands exactly on ``end`` within
    ``max_insns`` known instructions, the last a free branch and no earlier
    one.  The terminator at t closes the window at ``t + length[t]``; starts
    range over [t - window_back, t].
    """
    back = np.arange(window_back + 1, dtype=np.int32)
    start = (terms[:, None] - back).ravel()
    end = np.repeat(terms + length[terms], window_back + 1)
    # Starts before the section or on an unknown byte never validate.
    keep = start >= 0
    start, end = start[keep], end[keep]
    keep = klass[start] != K_UNKNOWN
    start, end = start[keep], end[keep]
    pos = start
    found_start, found_end = [], []
    for _ in range(max_insns):
        c = klass[pos]
        nxt = pos + length[pos]
        landed = (nxt == end) & (c != K_NORMAL) & (c != K_UNKNOWN)
        found_start.append(start[landed])
        found_end.append(end[landed])
        # Unknown, overrunning and interior free-branch instructions all end
        # the walk unaccepted, as does landing on ``end`` with a normal one.
        going = (nxt < end) & (c == K_NORMAL)
        start, end, pos = start[going], end[going], nxt[going]
        if not len(pos):
            break
    return np.concatenate(found_start), np.concatenate(found_end)


def scan_gadget_windows(
    data: bytes, window_back: int, max_insns: int
) -> list[tuple[int, int]]:
    """All valid gadget windows (start, end) behind every terminator in ``data``."""
    # A window's body is at most max_insns - 1 instructions of MAX_INSN_LEN bytes,
    # and a terminator t closing its end has t <= end - 1, within longest - 1 bytes
    # of the last instruction's start: no start further back validates.  Nor does
    # a start more than len(data) - 1 bytes back, which lies before offset 0.
    longest = max(disasm.FREE_BRANCH_LENGTH.values())
    window_back = min(
        window_back, (max_insns - 1) * disasm.MAX_INSN_LEN + longest - 1, len(data) - 1
    )
    length, klass = length_class(np.frombuffer(data, dtype=np.uint8))
    terms = _free_branch_offsets(klass)
    if not len(terms):
        return []
    starts, ends = [], []
    for lo in range(0, len(terms), _BLOCK):
        s, e = _valid_windows(length, klass, terms[lo : lo + _BLOCK], window_back, max_insns)
        starts.append(s)
        ends.append(e)
    # ``c2 xx c3`` closes the same window from two terminators: sort the
    # (start, end) keys and drop adjacent repeats.
    key = np.concatenate(starts).astype(np.int64) << 32 | np.concatenate(ends)
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return list(zip((key >> 32).tolist(), (key & 0xFFFFFFFF).tolist()))
