"""Exhaustive gadget-enumeration oracle.

Independent of the scanning kernels: tries every (start, end) pair allowed by
the enumeration rules, using only the reference decoder.  Quadratic, so it is
applied to small sections only.  :func:`reference_classify` classifies a
gadget from its decoded instructions, independent of the byte-class table
the library reads.
"""

from __future__ import annotations

from ropforge.disasm import (
    FREE_BRANCH_LENGTH,
    Mnemonic,
    decode_one,
    decode_window,
    free_branch_kind,
)
from ropforge.gadgets import CLEANUP_POP_REGS, Gadget, GadgetClass


def brute_force_windows(data: bytes, window_back: int, max_insns: int) -> set[tuple[int, int]]:
    """All valid (start, end) gadget windows, by direct definition.

    A terminator is any offset t where a free branch decodes; candidate
    starts are [t - window_back, t]; a window is valid when it greedily
    decodes into at most ``max_insns`` known instructions that land exactly
    on ``end``, with a free branch last and nowhere else.
    """
    windows: set[tuple[int, int]] = set()
    for t in range(len(data)):
        kind = free_branch_kind(decode_one(data, t))
        if kind is None:
            continue
        end = t + FREE_BRANCH_LENGTH[kind]
        for start in range(max(0, t - window_back), t + 1):
            insns = decode_window(data, start, end)
            if insns is None or not insns or len(insns) > max_insns:
                continue
            if any(free_branch_kind(i) is not None for i in insns[:-1]):
                continue
            if free_branch_kind(insns[-1]) is None:
                continue
            windows.add((start, end))
    return windows


def brute_force_gadget_map(data: bytes, vaddr: int, window_back: int, max_insns: int):
    """{gadget bytes: sorted addresses} as the oracle sees them."""
    out: dict[bytes, list[int]] = {}
    for start, end in brute_force_windows(data, window_back, max_insns):
        raw = data[start:end]
        out.setdefault(raw, []).append(vaddr + start)
    return {raw: sorted(addrs) for raw, addrs in out.items()}


def reference_classify(g: Gadget) -> GadgetClass:
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
