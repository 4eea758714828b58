"""Vectorized byte-scanning kernels driven by the decoder's rule table.

Gadget discovery spends essentially all of its time in two inner loops over
section bytes: finding every offset where a free-branch instruction decodes
(byte granularity, aligned or not) and finding the decode windows that end in
one (the backward-from-``ret`` scan of Shacham, CCS 2007).

Both run on two per-offset ``uint8`` arrays built once per section: the
encoded length and the class (normal, unknown, or a free-branch kind) of the
instruction that decodes at each offset.  They are two reads, over each
offset's byte pair ``first << 8 | second``, of 65,536-entry tables built from
:data:`ropforge.disasm.RULE_AT`, the lookup the decoder itself uses.

Windows are found backward.  Every terminator starts a one-instruction window;
a window starting at ``q`` grows to ``q - k`` when a normal instruction of
length ``k`` decodes there.  Greedy decoding gives each start exactly one
forward path, so a window's suffix from its second instruction is its parent
in a trie rooted at the terminators, and one numpy step per level, for at most
``max_insns - 1`` levels, reaches every valid start exactly once: no candidate
is tried twice and no window needs de-duplicating.  :func:`window_trie` keeps
the levels, with each window's first-instruction length and its parent's
index, for the gadget listing; :func:`scan_gadget_windows` flattens them into
sorted ``(start, end)`` pairs.  :func:`pack_encodings` reads encodings at
given starts as integers that order as their bytes do; the listing keeps its
distinct heads in that packed form and builds their bytes only on demand.
:func:`render_heads` renders packed encodings in one batch per rule, reading
each rule's operand fields and its mnemonic's text template from
:mod:`ropforge.disasm`, and :func:`render_rows` writes the listing's rows
with numpy gathers.
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

# The steps of the backward window search: lengths of the non-free-branch rules.
_NORMAL_LENGTHS = sorted(
    {r.length for r in disasm.RULES if r.mnemonic not in disasm.FREE_BRANCH_OF}
)

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


def window_trie(data: bytes, window_back: int, max_insns: int) -> list[tuple[np.ndarray, ...]]:
    """Every valid window in ``data`` as the levels of the trie of suffixes.

    Level ``i`` holds the windows of ``i + 1`` instructions as four arrays:
    ``start``, ``end``, ``head`` (the length of the first instruction) and
    ``parent``.  Level 0 holds the terminators, with parent -1.  Above it, the
    window at ``start`` has the window at ``start + head`` with the same end
    as its parent, at index ``parent`` of the level below.  Within a level,
    windows are in no order.  The windows are those of
    :func:`scan_gadget_windows`.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr)
    length, klass = length_class(arr)
    normal = np.where(klass == K_NORMAL, length, 0)
    start = _free_branch_offsets(klass)
    end = start + length[start]
    # The terminators closing one end start 1 to 3 bytes before it, so for
    # window_back >= 1 their ranges [t - window_back, t] join into one, bounded
    # below by the lowest of them.  min() keeps the subtraction in range: a
    # start more than n bytes back lies before offset 0 anyway.
    lowest = np.full(n + 1, n, np.int32)
    np.minimum.at(lowest, end, start)
    bound = np.maximum(lowest - min(window_back, n), 0)[end]
    levels = [(start, end, length[start], np.full(len(start), -1, np.intp))]
    for _ in range(max_insns - 1):
        # One more instruction in front: a normal one of length k at q - k.
        # take(mode="clip") reads offset 0 for starts before the section, which
        # the bound rejects.
        found = []
        for k in _NORMAL_LENGTHS:
            s = start - k
            parent = np.flatnonzero((s >= bound) & (normal.take(s, mode="clip") == k))
            head = np.full(len(parent), k, np.uint8)
            found.append((s[parent], end[parent], head, parent, bound[parent]))
        start, end, head, parent, bound = (np.concatenate(col) for col in zip(*found))
        if not len(start):
            break
        levels.append((start, end, head, parent))
    return levels


def pack_encodings(data: bytes, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each encoding ``data[start:start + length]`` as one ``int64``: its bytes
    big-endian, zero-padded to ``MAX_INSN_LEN`` bytes.

    Every first byte of the subset has one length, so two encodings that
    start alike are equally long: they pack to equal numbers exactly when
    their bytes are equal, and in the order of their bytes.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    packed = np.zeros(len(start), np.int64)
    for i in range(disasm.MAX_INSN_LEN):
        byte = np.where(i < length, arr.take(start + i, mode="clip"), 0)
        packed |= byte.astype(np.int64) << 8 * (disasm.MAX_INSN_LEN - 1 - i)
    return packed


def _byte(packed: np.ndarray, at: int) -> np.ndarray:
    """Byte ``at`` of each encoding :func:`pack_encodings` packed."""
    return packed >> 8 * (disasm.MAX_INSN_LEN - 1 - at) & 0xFF


def _column(field, packed: np.ndarray) -> list:
    """The operand ``field`` of each packed encoding, as
    :func:`ropforge.disasm.format_instruction` fills it in: a register's
    name, an immediate's value."""
    if type(field) is disasm.Reg:
        reg = _byte(packed, field.at) >> field.shift & 7
        return list(map(disasm.REG_NAMES.__getitem__, reg.tolist()))
    value = sum(_byte(packed, field.at + i) << 8 * i for i in range(field.size))
    if field.signed:  # two's complement: the top bit counts negative
        bits = 8 * field.size
        value -= value >> bits - 1 << bits
    return value.tolist()


def render_heads(packed: np.ndarray, length: np.ndarray) -> list[str]:
    """``format_instruction(decode_one(enc, 0))`` of each encoding ``enc``
    that :func:`pack_encodings` packed with its ``length``.

    Encodings that select the same rule are rendered together: their operand
    columns are read in numpy and filled into the mnemonic's text template by
    one ``map``.  In ascending order, each rule's encodings form one run.
    Raises ValueError when one is not exactly one instruction of the subset.
    """
    pair = packed >> 8 * (disasm.MAX_INSN_LEN - 2)  # the first two bytes
    rule = _RULE_AT[pair]
    if not (rule.all() and (_PAIR_LENGTH[pair] == length).all()):
        raise ValueError("an encoding that is not one instruction of the subset")
    # A run starts wherever the rule changes, and at 0, since no rule is 0.
    bounds = [*np.flatnonzero(np.diff(rule, prepend=0)).tolist(), len(rule)]
    texts: list[str] = []
    for lo, hi in zip(bounds, bounds[1:]):
        r = disasm.RULE_OF[rule[lo]]
        template = disasm.TEXT[r.mnemonic]
        if r.fields:
            texts += map(template.__mod__, zip(*[_column(f, packed[lo:hi]) for f in r.fields]))
        else:
            texts += [template] * (hi - lo)
    return texts


def scan_gadget_windows(
    data: bytes, window_back: int, max_insns: int
) -> list[tuple[int, int]]:
    """All valid gadget windows (start, end) behind every terminator in ``data``,
    ascending by start.

    Valid: greedy decode from ``start`` lands exactly on ``end`` within
    ``max_insns`` known instructions, the last a free branch and no earlier
    one, and ``start`` lies in ``[t - window_back, t]`` for a terminator t
    closing ``end``.  ``window_back`` is at least 1, as
    :func:`ropforge.gadgets.enumerate_gadgets` requires.
    """
    levels = window_trie(data, window_back, max_insns)
    start, end = (np.concatenate(col) for col in list(zip(*levels))[:2])
    order = np.argsort(start)
    return list(zip(start[order].tolist(), end[order].tolist()))


# Output bytes per gather of render_rows, whose index array takes 8 bytes per byte.
_GATHER_BYTES = 1 << 14


def render_rows(addr, gid, head: str, after: str, texts: list[str]):
    """``f"{head}{a:08x}{after}{texts[g]}\\n"`` for each row ``(a, g)``,
    yielded in blocks, each one numpy gather.  Addresses are below 4 GiB,
    and every string is ASCII."""
    # The gather's source: each gadget's suffix (``after``, its text, a
    # newline) once, in id order, gadget i's at suffix[i]; then each row's
    # fixed part (``head`` and the address's 8 hex digits), row r's at
    # fixed_at[r].
    sep = f"\n{after}"
    suffixes = np.frombuffer(sep.join(["", *texts, ""]).encode("ascii"), np.uint8)
    size = np.fromiter(map(len, texts), np.intp, len(texts)) + len(sep)
    suffix = np.cumsum(size) - size + 1
    fixed = len(head) + 8
    fixed_parts = np.empty((len(addr), fixed), np.uint8)
    fixed_parts[:, : len(head)] = np.frombuffer(head.encode("ascii"), np.uint8)
    digits = np.frombuffer(b"0123456789abcdef", np.uint8)
    for i in range(8):
        fixed_parts[:, len(head) + i] = digits[addr >> 28 - 4 * i & 15]
    src = np.concatenate([suffixes, fixed_parts.ravel()])
    fixed_at = len(suffixes) + fixed * np.arange(len(addr))

    width = fixed + size[gid]
    cuts = np.flatnonzero(np.diff(np.cumsum(width) // _GATHER_BYTES)) + 1
    for f, g, w in zip(*(np.split(x, cuts) for x in (fixed_at, gid, width))):
        start = np.cumsum(w) - w
        # Each output byte's index in src, as a running sum of steps: +1
        # within a piece, and a jump where each row's two pieces start.
        step = np.ones(int(w.sum()), np.intp)
        step[start[:1]] = f[:1]
        step[start[1:]] = f[1:] - (suffix[g[:-1]] + size[g[:-1]] - 1)
        step[start + fixed] = suffix[g] - (f + fixed - 1)
        yield str(src.take(np.cumsum(step, out=step)), "ascii")
