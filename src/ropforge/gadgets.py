"""Gadget enumeration and classification over executable sections.

A gadget is an instruction sequence ending in a free branch, discovered at
every byte offset (aligned with intended instructions or not).  Scanning runs
through :mod:`ropforge.kernels`; this module owns the object model, the
dedup by bytes, the classifier, and the byte search for the cleanup
gadget the chain planner asks for.

A listing is one pass over the valid windows, as ``(vaddr, bytes)`` rows in
address order.  Each unique gadget's text is its first instruction's text,
then the text of the gadget that starts at its second instruction: that
suffix is itself a gadget, at a higher address of the same section, so
walking the rows down from the highest address meets it first.  The first
instruction's length comes from its first byte, and its text from its
bytes.  A gadget's class is a byte pattern read through the same byte-class
table the cleanup search uses.  The per-gadget entries, and the decoded
:class:`Gadget`, are built only when asked for.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

from .disasm import (
    REG_NAMES,
    RULES,
    FreeBranchKind,
    Instruction,
    Mnemonic,
    decode_window,
    format_encoding,
    format_instruction,
    free_branch_kind,
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
# Encoded length by first byte: every first byte of the rule table has one.
_FIRST_LENGTH = bytes(
    next((r.length for r in RULES if r.first[0] <= b <= r.first[1]), 0) for b in range(256)
)
# add esp, imm: the opcode and ModRM bytes, and the length with the immediate.
_PIVOT_LENGTH = {
    bytes((r.first[0], r.second[0])): r.length
    for r in RULES
    if r.mnemonic in (Mnemonic.ADD_ESP_IMM8, Mnemonic.ADD_ESP_IMM32)
}


@dataclass(frozen=True)
class Gadget:
    vaddr: int
    insns: tuple[Instruction, ...]
    terminator: FreeBranchKind
    data: bytes

    def render(self) -> str:
        return " ; ".join(format_instruction(i) for i in self.insns)

    def __str__(self) -> str:
        return f"{self.vaddr:#010x}: {self.render()}"


@dataclass(frozen=True)
class GadgetClass:
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


@dataclass
class GadgetEntry:
    """One unique byte sequence with every address it occurs at.  Its class
    and its decoded gadget are worked out on first access."""

    data: bytes
    addrs: tuple[int, ...]
    text: str  # the rendered instructions, joined by " ; "

    @functools.cached_property
    def gclass(self) -> GadgetClass:
        return classify_bytes(self.data)

    @functools.cached_property
    def gadget(self) -> Gadget:
        """The gadget decoded at its lowest address."""
        return _decode_gadget(self.addrs[0], self.data)


def _decode_gadget(vaddr: int, raw: bytes) -> Gadget:
    insns = decode_window(raw, 0, len(raw), base_vaddr=vaddr)
    assert insns, "a gadget window the decoder rejects"
    return Gadget(vaddr=vaddr, insns=tuple(insns), terminator=free_branch_kind(insns[-1]), data=raw)


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
    views: list[tuple[Section, bytes]], arity: int, bad_bytes: frozenset[int]
) -> Gadget | None:
    """:func:`find_pop_ret` over views :func:`cleanup_views` made."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    # find tries every start offset, so a run inside a longer one is found.
    run = b"p" * arity + b"r"
    # Per section, its lowest match, then its lowest match at a clean address;
    # (vaddr, bytes) order breaks ties between overlapping sections.
    first, clean = [], []
    for s, view in views:
        at = view.find(run)
        if at >= 0:
            first.append((s.vaddr + at, s.data[at : at + len(run)]))
        while at >= 0 and not bad_bytes.isdisjoint((s.vaddr + at).to_bytes(4, "little")):
            at = view.find(run, at + 1)
        if at >= 0:
            clean.append((s.vaddr + at, s.data[at : at + len(run)]))
    found = clean or first
    return _decode_gadget(*min(found)) if found else None


def find_pop_ret(
    image: BinaryImage, arity: int, bad_bytes: frozenset[int] = frozenset()
) -> Gadget | None:
    """Lowest-address ``pop^arity ; ret`` that pops no esp and whose address
    avoids ``bad_bytes``, found by a substring search of every executable
    section's byte-class view (no enumeration limit applies).  When every
    match's address holds a bad byte, the lowest match is returned anyway,
    for the caller to report."""
    return lowest_pop_ret(cleanup_views(image), arity, bad_bytes)


class GadgetListing(Sequence[GadgetEntry]):
    """The unique gadgets of an image, ordered by bytes, and every address
    each occurs at.

    ``rows`` holds each occurrence as ``(vaddr, bytes)``, ascending by address
    and, at one address, by bytes; ``texts`` maps each unique gadget's bytes
    to its text.  The :class:`GadgetEntry` tuple is built on first access.
    """

    def __init__(self, rows: list[tuple[int, bytes]], texts: dict[bytes, str]):
        self.rows = rows
        self.texts = texts

    @functools.cached_property
    def entries(self) -> tuple[GadgetEntry, ...]:
        addrs: dict[bytes, list[int]] = {raw: [] for raw in sorted(self.texts)}
        for vaddr, raw in self.rows:
            addrs[raw].append(vaddr)
        return tuple(GadgetEntry(raw, tuple(a), self.texts[raw]) for raw, a in addrs.items())

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index):
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)


def enumerate_gadgets(
    image: BinaryImage,
    max_insns: int = DEFAULT_MAX_INSNS,
    window_back: int = DEFAULT_WINDOW_BACK,
) -> GadgetListing:
    """Collect every gadget of at most ``max_insns`` instructions.

    For each free-branch terminator, window starts are tried up to
    ``window_back`` bytes before it; valid windows are deduplicated by byte
    content, keeping all addresses.  Entry order is by gadget bytes, so the
    result is deterministic regardless of section order.
    """
    if max_insns < 1:
        raise ValueError("max_insns must be >= 1")
    if window_back < 1:
        raise ValueError("window_back must be >= 1")

    from . import kernels  # numpy loads only when gadgets are listed

    # Greedy decode makes at most one window per start, so each section's
    # windows ascend by address; sections in address order that do not
    # overlap concatenate in order.
    sections = sorted(image.executable_sections(), key=lambda s: s.vaddr)
    rows: list[tuple[int, bytes]] = []
    for s in sections:
        data, base = s.data, s.vaddr
        windows = kernels.scan_gadget_windows(data, window_back, max_insns)
        rows += [(base + start, data[start:end]) for start, end in windows]
    if any(a.vaddr + a.size > b.vaddr for a, b in zip(sections, sections[1:])):
        # Overlapping sections: equal addresses list by bytes, and an
        # occurrence two sections share is listed once.
        rows = sorted(set(rows))

    # The window from a gadget's second instruction to its end is a gadget of
    # the same section at a higher address (behind the same terminator, or,
    # when it starts past that terminator, behind the free branch it ends
    # in), so walking the rows down from the highest address meets each
    # suffix before the gadgets that end in it.  A valid window's first
    # instruction is known, so its first byte gives its length.
    texts: dict[bytes, str] = {}
    for _, raw in reversed(rows):
        if raw in texts:
            continue
        n = _FIRST_LENGTH[raw[0]]
        head = format_encoding(raw[:n])
        texts[raw] = f"{head} ; {texts[raw[n:]]}" if n < len(raw) else head
    return GadgetListing(rows, texts)
