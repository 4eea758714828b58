"""Decoder unit tests, including exhaustive agreement with objdump."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ropforge import kernels
from ropforge.disasm import (
    FREE_BRANCH_LENGTH,
    RULE_AT,
    RULE_OF,
    RULES,
    Mnemonic,
    decode_one,
    decode_window,
    format_instruction,
    free_branch_kind,
)

import oracle_objdump


def render_one(raw: bytes) -> str:
    """The batch renderer's text for ``raw``, packed as the listing packs a head."""
    length = np.array([len(raw)])
    head = kernels.pack_encodings(raw, np.zeros(1, np.intp), length)
    return kernels.render_heads(head)[0]


def test_rule_at_selects_the_rule_holding_each_byte_pair():
    """Every (first, second) pair selects the rule whose ranges hold it, else 0,
    read off RULES alone: no decoder stands between the table and its rules."""
    assert RULE_OF == (None, *RULES)
    assert len(RULE_AT) == 1 << 16
    wrong = []
    for first, second in itertools.product(range(256), repeat=2):
        holding = [
            i
            for i, r in enumerate(RULES, 1)
            if r.first[0] <= first <= r.first[1]
            and (r.second is None or r.second[0] <= second <= r.second[1])
        ]
        if RULE_AT[first << 8 | second] != (holding[0] if holding else 0):
            wrong.append(f"{first:02x} {second:02x}")
    assert not wrong, f"{len(wrong)} pairs select the wrong rule: {wrong[:10]}"


def test_rules_of_one_mnemonic_have_operands_of_one_kind():
    # format_instruction reads which operands are registers off any rule of the mnemonic
    kinds: dict[Mnemonic, set] = {}
    for r in RULES:
        kinds.setdefault(r.mnemonic, set()).add(tuple(map(type, r.fields)))
    assert all(len(k) == 1 for k in kinds.values())


def test_objdump_agreement_exhaustive():
    """Every decodable 1-2 byte opcode pattern agrees with objdump on
    (mnemonic, length, operands); subset membership matches encoding rules
    derived independently of the decoder's table."""
    mismatches = oracle_objdump.decoder_oracle_mismatches()
    assert not mismatches, f"{len(mismatches)} decoder/oracle mismatches: {mismatches[:10]}"


@pytest.mark.parametrize(
    "raw, mnemonic, length, operands",
    [
        (b"\xc3", Mnemonic.RET, 1, ()),
        (b"\xc2\x08\x00", Mnemonic.RET_IMM16, 3, (8,)),
        (b"\x58", Mnemonic.POP_REG, 1, (0,)),
        (b"\x0f", Mnemonic.UNKNOWN, 1, ()),
        (b"\xff\xe0", Mnemonic.JMP_INDIRECT, 2, (0,)),
        (b"\xff\xd1", Mnemonic.CALL_INDIRECT, 2, (1,)),
        (b"\x83\xc4\xf0", Mnemonic.ADD_ESP_IMM8, 3, (-16,)),
        # Immediates at each sign boundary: only these pin ``signed=``, since the
        # objdump oracle compares operands modulo 2**32.
        (b"\xc2\xff\xff", Mnemonic.RET_IMM16, 3, (0xFFFF,)),
        (b"\xcd\xff", Mnemonic.INT_IMM8, 2, (0xFF,)),
        (b"\x68\x00\x00\x00\x80", Mnemonic.PUSH_IMM32, 5, (0x80000000,)),
        (b"\x68\xff\xff\xff\xff", Mnemonic.PUSH_IMM32, 5, (0xFFFFFFFF,)),
        (b"\xb9\x00\x00\x00\x80", Mnemonic.MOV_REG_IMM32, 5, (1, 0x80000000)),
        (b"\xbf\xff\xff\xff\xff", Mnemonic.MOV_REG_IMM32, 5, (7, 0xFFFFFFFF)),
        (b"\x83\xc4\x7f", Mnemonic.ADD_ESP_IMM8, 3, (0x7F,)),
        (b"\x83\xc4\x80", Mnemonic.ADD_ESP_IMM8, 3, (-0x80,)),
        (b"\x81\xc4\xff\xff\xff\x7f", Mnemonic.ADD_ESP_IMM32, 6, (0x7FFFFFFF,)),
        (b"\x81\xc4\x00\x00\x00\x80", Mnemonic.ADD_ESP_IMM32, 6, (-0x80000000,)),
    ],
)
def test_decode_examples(raw, mnemonic, length, operands):
    insn = decode_one(raw, 0, 0x1000)
    assert insn.mnemonic is mnemonic
    assert insn.length == length
    assert insn.operands == operands
    assert insn.vaddr == 0x1000


@pytest.mark.parametrize(
    "raw, text",
    [
        (b"\xc2\xff\xff", "ret 0xffff"),
        (b"\xcd\xff", "int 0xff"),
        (b"\x68\x00\x00\x00\x80", "push 0x80000000"),
        (b"\x68\xff\xff\xff\xff", "push 0xffffffff"),
        (b"\xbf\xff\xff\xff\xff", "mov edi, 0xffffffff"),
        (b"\x83\xc4\x7f", "add esp, 0x7f"),
        (b"\x83\xc4\x80", "add esp, -0x80"),
        (b"\x81\xc4\xff\xff\xff\x7f", "add esp, 0x7fffffff"),
        (b"\x81\xc4\x00\x00\x00\x80", "add esp, -0x80000000"),
    ],
)
def test_format_encoding_at_sign_boundaries(raw, text):
    # The batch renderer (kernels.render_heads), which replaced format_encoding.
    assert render_one(raw) == format_instruction(decode_one(raw, 0)) == text


def test_truncated_multibyte_is_unknown():
    for raw in (b"\xc2", b"\xc2\x08", b"\x68\x01\x02", b"\xb8", b"\xff", b"\x83\xc4"):
        insn = decode_one(raw, 0)
        assert insn.mnemonic is Mnemonic.UNKNOWN
        assert insn.length == 1


def test_decode_window_valid():
    insns = decode_window(b"\x58\xc3", 0, 2, base_vaddr=0x8048000)
    assert insns is not None
    assert [i.mnemonic for i in insns] == [Mnemonic.POP_REG, Mnemonic.RET]
    assert [i.vaddr for i in insns] == [0x8048000, 0x8048001]


def test_decode_window_invalid_cases():
    assert decode_window(b"\x0f\xc3", 0, 2) is None  # unknown first byte
    assert decode_window(b"\xc2\x08\x00", 0, 1) is None  # overshoot past end
    assert decode_window(b"\x58\xc3\x90", 0, 3) is not None
    assert decode_window(b"", 0, 0) == []


def test_offsets_outside_the_buffer_are_refused():
    for data, offset in ((b"\xc3", 1), (b"\xc3", -1), (b"", 0)):
        with pytest.raises(IndexError) as info:
            decode_one(data, offset)
        assert str(info.value) == f"offset {offset} outside buffer of {len(data)} bytes"
    for start, end in ((0, 2), (2, 1), (-1, 1)):
        with pytest.raises(IndexError) as info:
            decode_window(b"\xc3", start, end)
        assert str(info.value) == f"window [{start}, {end}) outside buffer of 1 bytes"


def test_free_branch_kind_mapping():
    assert free_branch_kind(decode_one(b"\xc3", 0)) is Mnemonic.RET
    assert free_branch_kind(decode_one(b"\x5b", 0)) is None
    assert free_branch_kind(decode_one(b"\xff\xe0", 0)) is Mnemonic.JMP_INDIRECT
    assert free_branch_kind(decode_one(b"\xc2\x00\x00", 0)) is Mnemonic.RET_IMM16
    assert free_branch_kind(decode_one(b"\xff\xd7", 0)) is Mnemonic.CALL_INDIRECT


def test_free_branch_lengths_match_decoder():
    encodings = {
        Mnemonic.RET: b"\xc3",
        Mnemonic.RET_IMM16: b"\xc2\x00\x00",
        Mnemonic.JMP_INDIRECT: b"\xff\xe0",
        Mnemonic.CALL_INDIRECT: b"\xff\xd0",
    }
    for kind, raw in encodings.items():
        assert FREE_BRANCH_LENGTH[kind] == decode_one(raw, 0).length == len(raw)


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0))
def test_decode_total_over_arbitrary_bytes(data, seed):
    offset = seed % len(data)
    insn = decode_one(data, offset)
    assert 1 <= insn.length <= 6
    assert offset + insn.length <= len(data) or insn.length == 1
    if insn.mnemonic is Mnemonic.UNKNOWN:
        assert insn.length == 1
        assert insn.operands == ()
    assert isinstance(format_instruction(insn), str)


@given(st.binary(min_size=1, max_size=48))
def test_window_lengths_tile_exactly(data):
    insns = decode_window(data, 0, len(data))
    if insns is not None:
        assert sum(i.length for i in insns) == len(data)
        positions = [i.vaddr for i in insns]
        expect = 0
        for insn, pos in zip(insns, positions):
            assert pos == expect
            expect += insn.length


def _encodings(rule):
    """Bytes of one instruction of ``rule``: any opcode and ModRM byte it
    admits, then any immediate."""
    fixed = [st.integers(*rule.first)] + ([st.integers(*rule.second)] if rule.second else [])
    size = rule.length - len(fixed)
    return st.tuples(st.tuples(*fixed).map(bytes), st.binary(min_size=size, max_size=size)).map(
        b"".join
    )


@pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.first[0]:02x}-{r.mnemonic.value}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_format_encoding_matches_format_instruction(rule, data):
    enc = data.draw(_encodings(rule))
    insn = decode_one(enc, 0)
    assert (insn.mnemonic, insn.length) == (rule.mnemonic, len(enc))
    assert render_one(enc) == format_instruction(insn)


@pytest.mark.parametrize(
    "raw", [b"\x0f", b"\xc2\x08", b"\x58\xc3", b"\xff\xc0", b"\x83\xc5\x08", b"\xff", b"\x83"]
)
def test_format_encoding_rejects_other_bytes(raw):
    with pytest.raises(ValueError):
        render_one(raw)
