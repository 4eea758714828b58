"""Gadget enumeration and classification over executable sections.

A gadget is an instruction sequence ending in a free branch, discovered at
every byte offset (aligned with intended instructions or not).  Scanning runs
through :mod:`ropforge.kernels`; this module owns the object model, the
dedup by bytes, the classifier, and the byte search for the cleanup
gadget the chain planner asks for.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .disasm import (
    REG_NAMES,
    RULES,
    FreeBranchKind,
    Instruction,
    Mnemonic,
    decode_window,
    format_instruction,
    free_branch_kind,
)
from .image import BinaryImage

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


@dataclass(frozen=True)
class GadgetEntry:
    """One unique byte sequence with every address it occurs at."""

    gadget: Gadget  # decoded at the lowest address
    addrs: tuple[int, ...]
    gclass: GadgetClass


def _decode_gadget(vaddr: int, raw: bytes) -> Gadget:
    insns = decode_window(raw, 0, len(raw), base_vaddr=vaddr)
    assert insns, "a gadget window the decoder rejects"
    return Gadget(vaddr=vaddr, insns=tuple(insns), terminator=free_branch_kind(insns[-1]), data=raw)


def classify(g: Gadget) -> GadgetClass:
    body, last = g.insns[:-1], g.insns[-1]
    if last.mnemonic is Mnemonic.RET:
        if not body:
            return GadgetClass("ret_only")
        if all(i.mnemonic is Mnemonic.POP_REG for i in body):
            regs = tuple(i.operands[0] for i in body)
            if CLEANUP_POP_REGS.issuperset(regs):
                return GadgetClass("pop_ret", arity=len(body), regs=regs)
        if len(body) == 1 and body[0].mnemonic in (Mnemonic.ADD_ESP_IMM8, Mnemonic.ADD_ESP_IMM32):
            return GadgetClass("stack_pivot", delta=body[0].operands[0])
    return GadgetClass("other")


def _matches(section, run: bytes):
    """Every (vaddr, bytes) match of the class string ``run`` in ``section``,
    overlapping, ascending.  The section is translated on its own, so no
    match straddles two sections."""
    view = section.data.translate(_CLEANUP_CLASS)
    at = view.find(run)
    while at >= 0:
        yield section.vaddr + at, section.data[at : at + len(run)]
        at = view.find(run, at + 1)


def find_pop_ret(
    image: BinaryImage, arity: int, bad_bytes: frozenset[int] = frozenset()
) -> Gadget | None:
    """Lowest-address ``pop^arity ; ret`` that pops no esp and whose address
    avoids ``bad_bytes``, found by a substring search of every executable
    section's byte-class view (no enumeration limit applies).  When every
    match's address holds a bad byte, the lowest match is returned anyway,
    for the caller to report."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    # find tries every start offset, so a run inside a longer one is found.
    run = b"p" * arity + b"r"
    found = heapq.merge(*(_matches(s, run) for s in image.executable_sections()))
    lowest = next(found, None)
    if lowest is None:
        return None
    for vaddr, raw in itertools.chain([lowest], found):
        if bad_bytes.isdisjoint(vaddr.to_bytes(4, "little")):
            return _decode_gadget(vaddr, raw)
    return _decode_gadget(*lowest)


def enumerate_gadgets(
    image: BinaryImage,
    max_insns: int = DEFAULT_MAX_INSNS,
    window_back: int = DEFAULT_WINDOW_BACK,
) -> tuple[GadgetEntry, ...]:
    """Collect every gadget of at most ``max_insns`` instructions.

    For each free-branch terminator, window starts are tried up to
    ``window_back`` bytes before it; valid windows are deduplicated by byte
    content, keeping all addresses.  Output order is by gadget bytes, so the
    result is deterministic regardless of section order.
    """
    if max_insns < 1:
        raise ValueError("max_insns must be >= 1")
    if window_back < 1:
        raise ValueError("window_back must be >= 1")

    from . import kernels  # numpy loads only when gadgets are listed

    occurrences: dict[bytes, set[int]] = {}
    for section in image.executable_sections():
        for start, end in kernels.scan_gadget_windows(section.data, window_back, max_insns):
            raw = section.data[start:end]
            occurrences.setdefault(raw, set()).add(section.vaddr + start)

    entries = []
    for raw in sorted(occurrences):
        addrs = tuple(sorted(occurrences[raw]))
        gadget = _decode_gadget(addrs[0], raw)
        entries.append(GadgetEntry(gadget=gadget, addrs=addrs, gclass=classify(gadget)))
    return tuple(entries)
