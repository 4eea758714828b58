"""Vectorized byte-scanning kernels driven by the decoder's rule table.

Gadget discovery spends essentially all of its time in two inner loops over
section bytes: finding every offset where a free-branch instruction decodes
(byte granularity, aligned or not) and finding the decode windows that end in
one (the backward-from-``ret`` scan of Shacham, CCS 2007).

Both run on one per-offset ``uint8`` array built once per section, the code
of the instruction that decodes at each offset (:func:`instruction_codes`):
one read, over each offset's byte pair, of a 65,536-entry table built from
:data:`ropforge.disasm.RULE_AT`, the lookup the decoder itself uses.  The
terminators, and the lowest one closing each end, are read from the codes.

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
given starts, by one gather, as integers that order as their bytes do; the
listing keeps its distinct heads in that form and builds their bytes only on demand.
:func:`render_heads` renders packed encodings in one batch per rule, reading
each rule's operand fields and its mnemonic's text template from
:mod:`ropforge.disasm`, and :func:`render_rows` writes the listing's rows
with numpy gathers.
"""

from __future__ import annotations

import numpy as np

from . import disasm
from .disasm import FreeBranchKind

# The free-branch kind of each rule, indexed like RULE_OF; None for the others.
_KIND_OF = (None, *(disasm.FREE_BRANCH_OF.get(r.mnemonic) for r in disasm.RULES))

# The code of the instruction each byte pair starts: 0 for no rule, the length
# k of a normal rule, _FREE + k for a free branch of length k.  _CODE is
# indexed by the pair read as a little-endian word, second << 8 | first.
_FREE = 8
_RULE_AT = np.frombuffer(disasm.RULE_AT, np.uint8)
_RULE_LENGTH = np.array([0, *(r.length for r in disasm.RULES)], np.uint8)
_RULE_CODE = _RULE_LENGTH + _FREE * np.array([k is not None for k in _KIND_OF], np.uint8)
_CODE = _RULE_CODE[_RULE_AT].reshape(256, 256).T.ravel()

# The steps of the backward window search, and the free-branch lengths.
_NORMAL_LENGTHS = sorted({c for c in _RULE_CODE.tolist() if 0 < c < _FREE})
_FREE_LENGTHS = sorted({c - _FREE for c in _RULE_CODE.tolist() if c > _FREE})


def _words(data: bytes, dtype: str) -> np.ndarray:
    """The ``dtype`` word at each offset of ``data``, bytes past its end read as 0."""
    return np.ndarray((len(data),), dtype, buffer=data + bytes(8), strides=(1,))


def instruction_codes(data: bytes) -> np.ndarray:
    """Per-offset ``uint8`` code of the instruction decoding in ``data``: 0 for
    none, ``k`` for a normal instruction of length ``k``, ``8 + k`` for a free
    branch of length ``k``.

    Agrees with :func:`ropforge.disasm.decode_one` at every offset: an offset
    no rule matches, or whose encoding would run past the end of ``data``, is
    0.  The last offset's missing second byte reads as 0, as in the decoder.
    """
    n = len(data)
    code = _CODE.take(_words(data, "<u2"))
    tail = np.arange(max(n - disasm.MAX_INSN_LEN + 1, 0), n)
    code[tail[tail + code[tail] % _FREE > n]] = 0
    return code


def scan_free_branches(data: bytes) -> list[tuple[int, FreeBranchKind]]:
    """Every byte offset where a free-branch instruction decodes, ascending."""
    offsets = np.flatnonzero(instruction_codes(data) >= _FREE)
    rule = _RULE_AT[_words(data, ">u2")[offsets]]  # first << 8 | second
    return list(zip(offsets.tolist(), map(_KIND_OF.__getitem__, rule.tolist())))


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
    code = instruction_codes(data)
    start = np.flatnonzero(code >= _FREE)
    head = code[start] - _FREE
    end = start + head
    # The terminators closing one end start 1 to 3 bytes before it, so for
    # window_back >= 1 their ranges [t - window_back, t] join into one, bounded
    # below by the lowest of them: the longest free branch that ends there.
    # min() keeps the subtraction in range: a start more than n bytes back
    # lies before offset 0 anyway.
    lowest = start
    for k in _FREE_LENGTHS:
        t = end - k
        lowest = np.where((t >= 0) & (code.take(t, mode="clip") == _FREE + k), t, lowest)
    bound = np.maximum(lowest - min(window_back, len(data)), 0)
    levels = [(start, end, head, np.full(len(start), -1, np.intp))]
    for _ in range(max_insns - 1):
        # One more instruction in front: a normal one of length k at q - k,
        # whose code is k.  take(mode="clip") reads offset 0 for starts before
        # the section, which the bound rejects.
        found = []
        for k in _NORMAL_LENGTHS:
            s = start - k
            parent = np.flatnonzero((s >= bound) & (code.take(s, mode="clip") == k))
            head = np.full(len(parent), k, np.uint8)
            found.append((s[parent], end[parent], head, parent, bound[parent]))
        start, end, head, parent, bound = (np.concatenate(col) for col in zip(*found))
        if not len(start):
            break
        levels.append((start, end, head, parent))
    return levels


# At index k: the top k of the MAX_INSN_LEN bytes that pack_encodings packs.
_MASK = (1 << 8 * disasm.MAX_INSN_LEN) - (1 << 8 * np.arange(disasm.MAX_INSN_LEN, -1, -1, np.int64))


def pack_encodings(data: bytes, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each encoding ``data[start:start + length]`` as one ``int64``: its bytes
    big-endian, zero-padded to ``MAX_INSN_LEN`` bytes.

    Every first byte of the subset has one length, so two encodings that
    start alike are equally long: they pack to equal numbers exactly when
    their bytes are equal, and in the order of their bytes.
    """
    # The 8 bytes at each start, the first on top.  The shift drops the two
    # past MAX_INSN_LEN and sign-extends a first byte >= 0x80 into the top
    # 16 bits, which the mask clears along with the bytes past ``length``.
    words = _words(data, "<u8")[start].byteswap().view(np.int64)
    return (words >> 8 * (8 - disasm.MAX_INSN_LEN)) & _MASK[length]


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
    if not (rule.all() and (_RULE_LENGTH[rule] == length).all()):
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
