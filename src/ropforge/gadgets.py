"""Gadget enumeration and classification over executable sections.

A gadget is an instruction sequence ending in a free branch, discovered at
every byte offset (aligned with intended instructions or not).  Scanning runs
through :mod:`ropforge.kernels`; this module owns the object model, the
dedup of equal windows, the classifier, and the byte search for the cleanup
gadget the chain planner asks for.

A listing reads the levels of the window trie
(:func:`ropforge.kernels.window_trie`): a window's bytes are its first
instruction's encoding (its head), then the bytes of its parent, the window
from its second instruction.  So level by level, across sections, each
distinct (head, parent id) pair gets one gadget id, and ids stand for
distinct byte strings without any window's bytes being sliced or hashed.
The distinct heads stay packed (:func:`ropforge.kernels.pack_encodings`), as
sort keys that carry their lengths and whose bits this module never reads,
and are rendered in one batch per rule (:func:`ropforge.kernels.render_heads`);
each id's text is its head's text, then ``" ; "`` and its parent's text.
The rows are two numpy arrays, address and gadget id, in address order.
:func:`plain_listing` finds the same rows and texts without numpy, one window
at a time, keyed by the windows' bytes; the CLI runs it on images small
enough that importing numpy would cost more than it saves.  A gadget's class
is a byte pattern read through the same byte-class table the cleanup search
uses.  One record, :class:`Gadget` (bytes and ascending addresses), is both a
listing item and the cleanup search's answer; the ids' bytes, the items and
each gadget's decoded instructions are built only when asked for.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

from .disasm import (
    FREE_BRANCHES,
    REG_NAMES,
    RULE_AT,
    RULES,
    Instruction,
    Mnemonic,
    decode_one,
    decode_window,
    format_instruction,
)
from .image import BinaryImage, Section

DEFAULT_MAX_INSNS = 5
DEFAULT_WINDOW_BACK = 20

# pop esp loads the stack pointer from the chain: a pop run that pops it is no cleanup.
CLEANUP_POP_REGS = frozenset(range(len(REG_NAMES))) - {REG_NAMES.index("esp")}

# A cleanup run's bytes, read off the rule table: pop reg encodes as the row's first byte + reg.
_POP_FIRST = next(r.first[0] for r in RULES if r.mnemonic is Mnemonic.POP_REG)
_RET_FIRST = next(r.first[0] for r in RULES if r.mnemonic is Mnemonic.RET)
_CLEANUP_POP_BYTES = bytes(_POP_FIRST + r for r in sorted(CLEANUP_POP_REGS))
# Section bytes read through this table: a cleanup pop is "p", ret is "r", any other byte ".".
_CLEANUP_CLASS = bytes(
    ord("p") if b in _CLEANUP_POP_BYTES else ord("r") if b == _RET_FIRST else ord(".")
    for b in range(256)
)
# add esp, imm: the opcode and ModRM bytes, and the length with the immediate.
_PIVOT_LENGTH = {
    bytes((r.first[0], r.second[0])): r.length
    for r in RULES
    if r.mnemonic in (Mnemonic.ADD_ESP_IMM8, Mnemonic.ADD_ESP_IMM32)
}


class _Gadget(NamedTuple):
    data: bytes
    addrs: tuple[int, ...]


class Gadget(_Gadget):  # a subclass, for the __dict__ that caches insns
    """One unique byte sequence and every address it occurs at, ascending.
    Its instructions are decoded at its lowest address on first access."""

    @property
    def vaddr(self) -> int:
        return self.addrs[0]

    @functools.cached_property
    def insns(self) -> tuple[Instruction, ...]:
        insns = decode_window(self.data, 0, len(self.data), base_vaddr=self.vaddr)
        assert insns, "a gadget window the decoder rejects"
        return tuple(insns)

    def render(self) -> str:
        return " ; ".join(format_instruction(i) for i in self.insns)


class GadgetClass(NamedTuple):
    kind: str  # pop_ret | ret_only | stack_pivot | other
    arity: int = 0
    regs: tuple[int, ...] = ()
    delta: int = 0

    def render(self) -> str:
        if self.kind == "pop_ret":
            return f"pop_ret({self.arity})"
        if self.kind == "stack_pivot":
            return f"stack_pivot({self.delta})"
        return self.kind


def classify_bytes(raw: bytes) -> GadgetClass:
    """Class of a decodable window, from its bytes: ``p^k r`` (see
    ``_CLEANUP_CLASS``) is pop_ret(k), ``r`` is ret_only, ``83 c4 ib c3`` and
    ``81 c4 id c3`` are stack_pivot with the signed immediate."""
    body, last = raw[:-1], raw[-1:]
    if last.translate(_CLEANUP_CLASS) != b"r":
        return GadgetClass("other")
    if not body:
        return GadgetClass("ret_only")
    if body.translate(_CLEANUP_CLASS) == b"p" * len(body):
        return GadgetClass("pop_ret", arity=len(body), regs=tuple(b - _POP_FIRST for b in body))
    if _PIVOT_LENGTH.get(body[:2]) == len(body):
        return GadgetClass("stack_pivot", delta=int.from_bytes(body[2:], "little", signed=True))
    return GadgetClass("other")


def classify(g: Gadget) -> GadgetClass:
    """Class of ``g``, read from its bytes."""
    return classify_bytes(g.data)


def cleanup_views(image: BinaryImage) -> list[tuple[Section, bytes]]:
    """Every executable section with its bytes read through ``_CLEANUP_CLASS``.
    Each section is translated on its own, so no match straddles two."""
    return [(s, s.data.translate(_CLEANUP_CLASS)) for s in image.executable_sections()]


def lowest_pop_ret(
    views: list[tuple[Section, bytes]],
    arity: int,
    bad_bytes: frozenset[int],
    call_targets: frozenset[int],
) -> Gadget | None:
    """:func:`find_pop_ret` over views :func:`cleanup_views` made, passing over
    any run with a byte at one of ``call_targets``: each byte of a run is an
    instruction start, and the simulator takes a call target as the call."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    # find tries every start offset, so a run inside a longer one is found.
    run = b"p" * arity + b"r"
    # Per section, its matches up to the first at a clean address.
    clean, dirty = [], []
    for s, view in views:
        at = view.find(run)
        while at >= 0:
            vaddr = s.vaddr + at
            if not any(0 <= t - vaddr < len(run) for t in call_targets):
                hit = (vaddr, s.data[at : at + len(run)])
                if bad_bytes.isdisjoint(vaddr.to_bytes(4, "little")):
                    clean.append(hit)
                    break
                dirty.append(hit)
            at = view.find(run, at + 1)
    found = clean or dirty
    if not found:
        return None
    vaddr, raw = min(found)
    return Gadget(raw, (vaddr,))


def find_pop_ret(
    image: BinaryImage, arity: int, bad_bytes: frozenset[int] = frozenset()
) -> Gadget | None:
    """Lowest-address ``pop^arity ; ret`` that pops no esp and whose address
    avoids ``bad_bytes``, found by a substring search of every executable
    section's byte-class view (no enumeration limit applies).  When every
    match's address holds a bad byte, the lowest match is returned anyway,
    for the caller to report."""
    return lowest_pop_ret(cleanup_views(image), arity, bad_bytes, frozenset())


def _join_up(heads: list, head_of: list[int], parent_of: list[int], sep):
    """Per gadget id, its head's value, then ``sep`` and its parent's value.
    Parents have lower ids, so each is built before its children."""
    out = []
    for h, p in zip(head_of, parent_of):
        out.append(heads[h] + sep + out[p] if p >= 0 else heads[h])
    return out


class GadgetListing(Sequence[Gadget]):
    """The unique gadgets of an image, ordered by bytes, and every address
    each occurs at.

    Each unique gadget has an id.  ``addr`` and ``gid`` are numpy arrays with
    one item per occurrence, its address and its gadget's id, ascending by
    address.  ``id_texts[i]`` is gadget ``i``'s text.  Gadget ``i`` is head
    ``head_of[i]``'s encoding followed by gadget ``parent_of[i]`` (-1 for
    none), which has a lower id; ``head_bytes()`` unpacks each head's bytes.
    ``id_bytes`` (the bytes of each id) and the :class:`Gadget` items are
    built on first access.
    """

    def __init__(self, addr, gid, id_texts: list[str], head_bytes, head_of, parent_of):
        self.addr = addr
        self.gid = gid
        self.id_texts = id_texts
        self._trie = head_bytes, head_of, parent_of

    @functools.cached_property
    def id_bytes(self) -> list[bytes]:
        head_bytes, head_of, parent_of = self._trie
        return _join_up(head_bytes(), head_of, parent_of, b"")

    @functools.cached_property
    def entries(self) -> tuple[Gadget, ...]:
        raws = self.id_bytes
        addrs: list[list[int]] = [[] for _ in raws]
        for a, g in zip(self.addr.tolist(), self.gid.tolist()):
            addrs[g].append(a)
        by_bytes = sorted(range(len(raws)), key=raws.__getitem__)
        return tuple(Gadget(raws[i], tuple(addrs[i])) for i in by_bytes)

    def __len__(self) -> int:
        return len(self.id_texts)

    def __getitem__(self, index):
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)


def _check_limits(max_insns: int, window_back: int) -> None:
    if max_insns < 1:
        raise ValueError("max_insns must be >= 1")
    if window_back < 1:
        raise ValueError("window_back must be >= 1")


# Per rule index of disasm.RULE_AT, 0 for none: a free branch's length, and a
# normal instruction's length (each 0 for a rule of the other kind).
_FREE_LENGTH = (0, *(r.length if r.mnemonic in FREE_BRANCHES else 0 for r in RULES))
_NORMAL_LENGTH = (0, *(0 if r.mnemonic in FREE_BRANCHES else r.length for r in RULES))
_NORMAL_LENGTHS = sorted(set(_NORMAL_LENGTH) - {0})
# Section bytes read through this table: a byte that can begin a free branch is "t".
_FREE_FIRSTS = {
    b for r in RULES if r.mnemonic in FREE_BRANCHES for b in range(r.first[0], r.first[1] + 1)
}
_FREE_FIRST = bytes(ord("t") if b in _FREE_FIRSTS else ord(".") for b in range(256))


class PlainListing(NamedTuple):
    """:class:`GadgetListing`'s ``addr``, ``gid``, ``id_texts`` and
    ``id_bytes``, as lists."""

    addr: list[int]
    gid: list[int]
    id_texts: list[str]
    id_bytes: list[bytes]


def plain_listing(
    image: BinaryImage,
    max_insns: int = DEFAULT_MAX_INSNS,
    window_back: int = DEFAULT_WINDOW_BACK,
) -> PlainListing:
    """The rows and gadget texts of :func:`enumerate_gadgets`, found in plain
    Python, for images too small to repay importing numpy.

    The same backward walk as :func:`ropforge.kernels.window_trie`, one
    window at a time: each terminator is a window, and a window at ``q``
    grows to ``q - k`` when a normal instruction of length ``k`` decodes
    there, no lower than the lowest terminator closing the same end minus
    ``window_back``, up to ``max_insns`` instructions.  Equal window bytes
    are one gadget id, and an id's text is its head's text, then ``" ; "``
    and its parent's text.
    """
    _check_limits(max_insns, window_back)
    ids: dict[bytes, int] = {}  # gadget bytes, in id order
    texts: list[str] = []
    head_texts: dict[bytes, str] = {}
    rows: list[tuple[int, int]] = []
    for s in image.executable_sections():
        # Byte pairs are read from the bytes and one 0, as the decoder reads a
        # missing last second byte.
        data, pairs = s.data, s.data + bytes(1)
        # (start, head length, end, bound, parent id, instructions); the
        # terminators ascend, so the first to close an end is the lowest.
        todo, lowest = [], {}
        view = data.translate(_FREE_FIRST)
        t = view.find(b"t")
        while t >= 0:
            end = t + _FREE_LENGTH[RULE_AT[pairs[t] << 8 | pairs[t + 1]]]
            if t < end <= len(data):
                bound = max(lowest.setdefault(end, t) - window_back, 0)
                todo.append((t, end - t, end, bound, -1, 1))
            t = view.find(b"t", t + 1)
        while todo:
            start, k, end, bound, parent, size = todo.pop()
            raw = data[start:end]
            g = ids.get(raw)
            if g is None:
                g = ids[raw] = len(texts)
                head = raw[:k]
                if head not in head_texts:
                    head_texts[head] = format_instruction(decode_one(head, 0))
                texts.append(head_texts[head] + (" ; " + texts[parent] if parent >= 0 else ""))
            rows.append((s.vaddr + start, g))
            if size < max_insns:
                for k in _NORMAL_LENGTHS:
                    q = start - k
                    if q >= bound and _NORMAL_LENGTH[RULE_AT[pairs[q] << 8 | pairs[q + 1]]] == k:
                        todo.append((q, k, end, bound, g, size + 1))
    rows.sort()
    return PlainListing([a for a, _ in rows], [g for _, g in rows], texts, list(ids))


def enumerate_gadgets(
    image: BinaryImage,
    max_insns: int = DEFAULT_MAX_INSNS,
    window_back: int = DEFAULT_WINDOW_BACK,
) -> GadgetListing:
    """Collect every gadget of at most ``max_insns`` instructions.

    The windows are those :func:`ropforge.kernels.window_trie` finds in
    each executable section: every start up to ``window_back`` bytes before
    a free-branch terminator that greedily decodes onto it.  (The listing
    reads only the trie; ``scan_gadget_windows`` stays only because
    ``ropbench/tracing.py`` patches it and the kernel tests call it.)
    Windows with equal bytes are one gadget, listed at each of their
    addresses.  Entry order is by gadget bytes, so the result does not
    depend on section order.
    """
    _check_limits(max_insns, window_back)

    import numpy as np  # here, not at import: plain_listing runs without it

    from . import kernels

    # Per trie level, across sections: each window's address, its packed
    # head encoding and its parent's index in the level below.
    blocks: list[list[tuple]] = []
    for s in image.executable_sections():
        trie = kernels.window_trie(s.data, window_back, max_insns)
        for i, (start, _, head, parent) in enumerate(trie):
            if i == len(blocks):
                blocks.append([])
            # this section's windows one level down are the last block there
            below = sum(len(b[0]) for b in blocks[i - 1][:-1]) if i else 0
            enc = kernels.pack_encodings(s.data, start, head)
            blocks[i].append((s.vaddr + start.astype(np.int64), enc, parent + below))
    levels = [[np.concatenate(col) for col in zip(*level)] for level in blocks]

    # A window's bytes are its head encoding, then its parent's bytes, and
    # equal bytes lie on one level.  So, level by level, one id per distinct
    # (head, parent id) pair is one id per distinct byte string, whatever
    # section holds it.  Ids ascend by level, then by (head, parent id): by
    # bytes within a level, since packed heads order as their bytes do.
    empty = np.zeros(0, np.int64)  # what an image without executable sections holds
    packed = np.concatenate([empty] + [enc for _, enc, _ in levels])
    heads, enc_id = np.unique(packed, return_inverse=True)
    cuts = np.cumsum([len(enc) for _, enc, _ in levels])[:-1]
    addrs, gids, head_of, parent_of = [empty], [empty], [empty], [empty]
    count = 0
    ids = None  # the gadget id of each window one level down
    for (addr, _, parent), enc in zip(levels, np.split(enc_id, cuts)):
        up = parent if ids is None else ids[parent]  # -1 at the roots
        key, inverse = np.unique(enc << 32 | (up + 1), return_inverse=True)
        ids = count + inverse
        count += len(key)
        addrs.append(addr)
        gids.append(ids)
        head_of.append(key >> 32)
        parent_of.append((key & 0xFFFFFFFF) - 1)
    head_of, parent_of = np.concatenate(head_of).tolist(), np.concatenate(parent_of).tolist()

    texts = _join_up(kernels.render_heads(heads), head_of, parent_of, " ; ")

    # The occurrences by address: the loader gives each executable address
    # one section, so at most one window starts there.
    addr, gid = np.concatenate(addrs), np.concatenate(gids)
    order = np.argsort(addr)
    head_bytes = functools.partial(kernels.unpack_encodings, heads)
    return GadgetListing(addr[order], gid[order], texts, head_bytes, head_of, parent_of)
