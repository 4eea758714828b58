"""Minimal x86-32 instruction decoder.

Decodes exactly the instruction subset the rest of the toolkit needs: the four
free-branch terminators (ret, ret imm16, indirect jmp/call through a register)
plus the register/immediate moves, pushes, pops and stack adjustments that make
gadget bodies executable in the simulator.  Every other byte pattern decodes as
``unknown`` with length 1, which keeps the decoder total and lets scanners
restart at any byte offset.  Prefix bytes are deliberately not interpreted; a
prefix decodes as unknown so a reported length is never wrong.

Each rule of :data:`RULES` declares its operands as fields of its encoding
(:class:`Reg`, :class:`Imm`), and :data:`TEXT` holds one text template per
mnemonic.  The decoder, :func:`format_instruction` and the batch renderer in
:mod:`ropforge.kernels` all read these declarations; nothing else spells out
an operand or a text.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

REG_NAMES = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")

MAX_INSN_LEN = 6  # longest encoding in the subset: 81 c4 + imm32


class Mnemonic(enum.Enum):
    RET = "ret"
    RET_IMM16 = "ret_imm16"
    JMP_INDIRECT = "jmp_indirect"
    CALL_INDIRECT = "call_indirect"
    POP_REG = "pop_reg"
    PUSH_REG = "push_reg"
    PUSH_IMM32 = "push_imm32"
    MOV_REG_IMM32 = "mov_reg_imm32"
    MOV_REG_REG = "mov_reg_reg"
    XOR_REG_REG = "xor_reg_reg"
    ADD_ESP_IMM8 = "add_esp_imm8"
    ADD_ESP_IMM32 = "add_esp_imm32"
    LEAVE = "leave"
    NOP = "nop"
    INT_IMM8 = "int_imm8"
    UNKNOWN = "unknown"

    # Members are singletons compared by identity, so the C-level identity hash
    # agrees with ==; Enum's own __hash__ hashes the name in Python code.
    __hash__ = object.__hash__


# Control transfers whose target is attacker-influencable at runtime.
FREE_BRANCHES = frozenset(
    {Mnemonic.RET, Mnemonic.RET_IMM16, Mnemonic.JMP_INDIRECT, Mnemonic.CALL_INDIRECT}
)


class Instruction(NamedTuple):
    vaddr: int
    length: int
    mnemonic: Mnemonic
    operands: tuple[int, ...] = ()

    def __str__(self) -> str:
        return format_instruction(self)


class Reg(NamedTuple):
    """A register operand: bits ``shift`` to ``shift + 2`` of the encoding's
    byte ``at``, an index into ``REG_NAMES``."""

    at: int
    shift: int = 0


class Imm(NamedTuple):
    """An immediate operand: the little-endian integer in the encoding's
    bytes ``at`` to ``at + size - 1``."""

    at: int
    size: int
    signed: bool = False


class Rule(NamedTuple):
    """One encoding of the subset: byte ranges (inclusive), length, mnemonic
    and operand fields, in operand order.

    ``second`` constrains the byte after the opcode (a ModRM byte); None
    leaves it free.  An offset matches when its bytes fall in the ranges and
    the whole ``length`` fits before the end of the buffer.
    """

    first: tuple[int, int]
    second: tuple[int, int] | None
    length: int
    mnemonic: Mnemonic
    fields: tuple[Reg | Imm, ...] = ()


# The subset, written once: RULE_AT below turns it into the one byte-pair lookup
# that the decoder and the vectorized scanner and renderer in ropforge.kernels
# all read.  ModRM 0xc0-0xff is mod=11 (register forms): reg is bits 3-5, rm
# bits 0-2; 89/31 store into rm and 8b/33 load into reg, and a mov or xor's
# operands are (dst, src).  ff d0-d7 is /2 and ff e0-e7 is /4, both mod=11;
# 83/81 c4 is /0 on esp, with a sign-extended immediate.
RULES = (
    Rule((0xC3, 0xC3), None, 1, Mnemonic.RET),
    Rule((0xC9, 0xC9), None, 1, Mnemonic.LEAVE),
    Rule((0x90, 0x90), None, 1, Mnemonic.NOP),
    Rule((0x50, 0x57), None, 1, Mnemonic.PUSH_REG, (Reg(0),)),
    Rule((0x58, 0x5F), None, 1, Mnemonic.POP_REG, (Reg(0),)),
    Rule((0xC2, 0xC2), None, 3, Mnemonic.RET_IMM16, (Imm(1, 2),)),
    Rule((0xCD, 0xCD), None, 2, Mnemonic.INT_IMM8, (Imm(1, 1),)),
    Rule((0x68, 0x68), None, 5, Mnemonic.PUSH_IMM32, (Imm(1, 4),)),
    Rule((0xB8, 0xBF), None, 5, Mnemonic.MOV_REG_IMM32, (Reg(0), Imm(1, 4))),
    Rule((0x89, 0x89), (0xC0, 0xFF), 2, Mnemonic.MOV_REG_REG, (Reg(1), Reg(1, 3))),
    Rule((0x8B, 0x8B), (0xC0, 0xFF), 2, Mnemonic.MOV_REG_REG, (Reg(1, 3), Reg(1))),
    Rule((0x31, 0x31), (0xC0, 0xFF), 2, Mnemonic.XOR_REG_REG, (Reg(1), Reg(1, 3))),
    Rule((0x33, 0x33), (0xC0, 0xFF), 2, Mnemonic.XOR_REG_REG, (Reg(1, 3), Reg(1))),
    Rule((0xFF, 0xFF), (0xD0, 0xD7), 2, Mnemonic.CALL_INDIRECT, (Reg(1),)),
    Rule((0xFF, 0xFF), (0xE0, 0xE7), 2, Mnemonic.JMP_INDIRECT, (Reg(1),)),
    Rule((0x83, 0x83), (0xC4, 0xC4), 3, Mnemonic.ADD_ESP_IMM8, (Imm(2, 1, True),)),
    Rule((0x81, 0x81), (0xC4, 0xC4), 6, Mnemonic.ADD_ESP_IMM32, (Imm(2, 4, True),)),
)

# Text per mnemonic, as a printf-style template over its operands in order: a
# register operand fills in as its name, an immediate as an int ("%#x" writes
# a negative one as -0x...).
TEXT = {
    Mnemonic.RET: "ret",
    Mnemonic.RET_IMM16: "ret %#x",
    Mnemonic.JMP_INDIRECT: "jmp %s",
    Mnemonic.CALL_INDIRECT: "call %s",
    Mnemonic.POP_REG: "pop %s",
    Mnemonic.PUSH_REG: "push %s",
    Mnemonic.PUSH_IMM32: "push %#x",
    Mnemonic.MOV_REG_IMM32: "mov %s, %#x",
    Mnemonic.MOV_REG_REG: "mov %s, %s",
    Mnemonic.XOR_REG_REG: "xor %s, %s",
    Mnemonic.ADD_ESP_IMM8: "add esp, %#x",
    Mnemonic.ADD_ESP_IMM32: "add esp, %#x",
    Mnemonic.LEAVE: "leave",
    Mnemonic.NOP: "nop",
    Mnemonic.INT_IMM8: "int %#x",
    Mnemonic.UNKNOWN: "(bad)",
}

# Encoded length of each terminator, counted from its first byte.
FREE_BRANCH_LENGTH = {r.mnemonic: r.length for r in RULES if r.mnemonic in FREE_BRANCHES}


def _rule_at() -> bytes:
    """``RULE_AT[first << 8 | second]``: the index in ``RULE_OF`` of the rule
    that byte pair selects, 0 for none.

    One entry per pair is enough because the rules are disjoint (no pair lies
    in two rules' ranges), and a missing second byte may read as 0 because
    every rule that reads the second byte is at least 2 bytes long, so it
    cannot fit where that byte is missing.
    """
    table = bytearray(1 << 16)
    for index, rule in enumerate(RULES, 1):
        lo, hi = rule.second or (0, 0xFF)
        for first in range(rule.first[0], rule.first[1] + 1):
            table[first << 8 | lo : (first << 8 | hi) + 1] = bytes([index]) * (hi - lo + 1)
    return bytes(table)


RULE_AT = _rule_at()
RULE_OF = (None, *RULES)


def _operand(field: Reg | Imm, data: bytes, at: int) -> int:
    """The value of ``field`` in the encoding at ``data[at]``."""
    at += field.at
    if type(field) is Reg:
        return data[at] >> field.shift & 7
    return int.from_bytes(data[at : at + field.size], "little", signed=field.signed)


def decode_one(data: bytes, offset: int, vaddr: int = 0) -> Instruction:
    """Decode a single instruction at ``offset``; total over non-empty input.

    Anything outside the supported subset (including multi-byte encodings
    truncated by the end of ``data``) comes back as ``unknown`` with length 1.
    """
    n = len(data)
    if not 0 <= offset < n:
        raise IndexError(f"offset {offset} outside buffer of {n} bytes")
    second = data[offset + 1] if offset + 1 < n else 0
    rule = RULE_OF[RULE_AT[data[offset] << 8 | second]]
    if rule is None or offset + rule.length > n:
        return Instruction(vaddr, 1, Mnemonic.UNKNOWN)
    operands = tuple([_operand(f, data, offset) for f in rule.fields])
    return Instruction(vaddr, rule.length, rule.mnemonic, operands)


def decode_window(
    data: bytes, start: int, end: int, base_vaddr: int = 0
) -> list[Instruction] | None:
    """Greedily decode ``data[start:end]``; None means the window is invalid.

    Invalid when any instruction decodes as unknown, when a decoded length
    crosses ``end``, or when the final instruction does not land exactly on
    ``end``.  ``base_vaddr`` is the virtual address of ``data[0]``.
    """
    if not 0 <= start <= end <= len(data):
        raise IndexError(f"window [{start}, {end}) outside buffer of {len(data)} bytes")
    insns: list[Instruction] = []
    i = start
    while i < end:
        insn = decode_one(data, i, base_vaddr + i)
        if insn.mnemonic is Mnemonic.UNKNOWN or i + insn.length > end:
            return None
        insns.append(insn)
        i += insn.length
    return insns


def free_branch_kind(insn: Instruction) -> Mnemonic | None:
    return insn.mnemonic if insn.mnemonic in FREE_BRANCHES else None


# Operand fields by mnemonic: every rule of one mnemonic has fields of the same kinds.
_FIELDS_OF = {r.mnemonic: r.fields for r in RULES}


def format_instruction(insn: Instruction) -> str:
    """Fixed debug rendering, roughly Intel syntax."""
    fields = _FIELDS_OF.get(insn.mnemonic, ())
    return TEXT[insn.mnemonic] % tuple(
        [REG_NAMES[v] if type(f) is Reg else v for f, v in zip(fields, insn.operands)]
    )
