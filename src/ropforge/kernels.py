"""Vectorized byte-scanning kernels driven by the decoder's rule table.

Gadget discovery spends essentially all of its time in two inner loops over
section bytes: finding every offset where a free-branch instruction decodes
(byte granularity, aligned or not) and validating candidate decode windows
behind each terminator (the backward-from-``ret`` scan of Shacham, CCS 2007).

Both run on two per-offset ``uint8`` arrays built once per section from
:data:`ropforge.disasm.RULES`: the encoded length and the class (normal,
unknown, or a free-branch kind) of the instruction that decodes at each
offset.  Rows keyed on the first byte alone become 256-entry lookup tables;
the rows that also constrain the second byte are applied as masks to the
offsets whose first byte needs one.  Window validation then walks every candidate start
at once, one instruction per pass (``pos += length[pos]``), for at most
``max_insns`` passes.
"""

from __future__ import annotations

import numpy as np

from . import disasm
from .disasm import FreeBranchKind, Mnemonic

# Instruction classes in the per-offset class array. Free-branch codes equal
# the FreeBranchKind enum values.
K_NORMAL = 0
K_UNKNOWN = 0xFF
_CLASS_OF = {m: K_NORMAL for m in Mnemonic}
_CLASS_OF.update({m: int(k) for m, k in disasm.FREE_BRANCH_OF.items()})
_CLASS_OF[Mnemonic.UNKNOWN] = K_UNKNOWN

# Terminators validated per block, which bounds the candidate arrays.
_BLOCK = 1024

_KIND_OF_CODE = {int(k): k for k in FreeBranchKind}


def _first_byte_tables():
    """256-entry (length, class) tables for the rows keyed on the first byte
    alone, and a mask of the first bytes whose rows also read the second."""
    length = np.ones(256, np.uint8)
    klass = np.full(256, K_UNKNOWN, np.uint8)
    keyed = np.zeros(256, bool)
    for rule in disasm.RULES:
        lo, hi = rule.first
        if rule.second is None:
            length[lo : hi + 1] = rule.length
            klass[lo : hi + 1] = _CLASS_OF[rule.mnemonic]
        else:
            keyed[lo : hi + 1] = True
    return length, klass, keyed


_FIRST_LENGTH, _FIRST_CLASS, _KEYED = _first_byte_tables()
_SECOND_BYTE_RULES = tuple(r for r in disasm.RULES if r.second is not None)


def _in_range(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return arr == lo if lo == hi else (arr >= lo) & (arr <= hi)


def length_class(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset (length, class) of the instruction decoding there.

    Agrees with :func:`ropforge.disasm.decode_one` at every offset: an offset
    no rule matches, or whose encoding would run past the end of ``arr``, is
    ``K_UNKNOWN`` with length 1.
    """
    n = len(arr)
    length = _FIRST_LENGTH[arr]
    klass = _FIRST_CLASS[arr]
    at = np.flatnonzero(_KEYED[arr[:-1]])
    first, second = arr[at], arr[at + 1]
    for rule in _SECOND_BYTE_RULES:
        hit = at[_in_range(first, *rule.first) & _in_range(second, *rule.second)]
        length[hit] = rule.length
        klass[hit] = _CLASS_OF[rule.mnemonic]
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
    kind_of = _KIND_OF_CODE
    return [(o, kind_of[k]) for o, k in zip(offsets.tolist(), klass[offsets].tolist())]


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
