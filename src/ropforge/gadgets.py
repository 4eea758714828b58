"""Gadget enumeration and classification over executable sections.

A gadget is an instruction sequence ending in a free branch, discovered at
every byte offset (aligned with intended instructions or not).  Scanning runs
through :mod:`ropforge.kernels`; this module owns the object model, the
dedup-by-bytes set, and the classifier the chain planner consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .disasm import (
    REG_NAMES,
    FreeBranchKind,
    Instruction,
    Mnemonic,
    decode_window,
    format_instruction,
    free_branch_kind,
)
from .image import BinaryImage, Section

DEFAULT_MAX_INSNS = 5
DEFAULT_WINDOW_BACK = 20
ESP = REG_NAMES.index("esp")


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


@dataclass(frozen=True)
class GadgetSet:
    entries: tuple[GadgetEntry, ...]  # sorted by gadget bytes

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def by_address(self) -> list[tuple[int, GadgetEntry]]:
        flat = [(a, e) for e in self.entries for a in e.addrs]
        flat.sort(key=lambda pair: pair[0])
        return flat

    def find_pop_ret(self, arity: int) -> Gadget | None:
        """Lowest-address pop-ret gadget with exactly ``arity`` pops."""
        if arity < 1:
            raise ValueError("arity must be >= 1")
        best: GadgetEntry | None = None
        for e in self.entries:
            if e.gclass.kind == "pop_ret" and e.gclass.arity == arity:
                if best is None or e.addrs[0] < best.addrs[0]:
                    best = e
        return best.gadget if best else None


def find_terminators(section: Section) -> list[tuple[int, FreeBranchKind]]:
    """Every byte offset in the section where a free branch decodes."""
    return kernels.scan_free_branches(section.data)


def classify(g: Gadget) -> GadgetClass:
    body, last = g.insns[:-1], g.insns[-1]
    if last.mnemonic is Mnemonic.RET:
        if not body:
            return GadgetClass("ret_only")
        if all(i.mnemonic is Mnemonic.POP_REG for i in body):
            regs = tuple(i.operands[0] for i in body)
            # pop esp loads the stack pointer from the chain: not a cleanup.
            if ESP not in regs:
                return GadgetClass("pop_ret", arity=len(body), regs=regs)
        if len(body) == 1 and body[0].mnemonic in (Mnemonic.ADD_ESP_IMM8, Mnemonic.ADD_ESP_IMM32):
            return GadgetClass("stack_pivot", delta=body[0].operands[0])
    return GadgetClass("other")


def find_pop_ret(gset: GadgetSet, arity: int) -> Gadget | None:
    return gset.find_pop_ret(arity)


def enumerate_gadgets(
    image: BinaryImage,
    max_insns: int = DEFAULT_MAX_INSNS,
    window_back: int = DEFAULT_WINDOW_BACK,
) -> GadgetSet:
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

    occurrences: dict[bytes, set[int]] = {}
    for section in image.executable_sections():
        for start, end in kernels.scan_gadget_windows(section.data, window_back, max_insns):
            raw = section.data[start:end]
            occurrences.setdefault(raw, set()).add(section.vaddr + start)

    entries = []
    for raw in sorted(occurrences):
        addrs = tuple(sorted(occurrences[raw]))
        insns = decode_window(raw, 0, len(raw), base_vaddr=addrs[0])
        assert insns, "kernel accepted a window the decoder rejects"
        gadget = Gadget(
            vaddr=addrs[0],
            insns=tuple(insns),
            terminator=free_branch_kind(insns[-1]),
            data=raw,
        )
        entries.append(GadgetEntry(gadget=gadget, addrs=addrs, gclass=classify(gadget)))
    return GadgetSet(entries=tuple(entries))
