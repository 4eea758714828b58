"""The decoder's rule table and the vectorized scanner built on it."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_bruteforce
from ropforge import kernels
from ropforge.disasm import (
    FREE_BRANCH_LENGTH,
    MAX_INSN_LEN,
    REG_NAMES,
    RULES,
    TEXT,
    Mnemonic,
    decode_one,
    format_instruction,
    free_branch_kind,
)


def decoded(data: bytes, offset: int) -> int:
    """The code at ``offset`` as the reference decoder sees it: 0 for unknown,
    the length of a normal instruction, 8 + the length of a free branch."""
    insn = decode_one(data, offset)
    if insn.mnemonic is Mnemonic.UNKNOWN:
        return 0
    return insn.length + (8 if free_branch_kind(insn) else 0)


def vectorized(data: bytes) -> list[int]:
    code = kernels.instruction_codes(data)
    assert code.dtype == np.uint8
    return code.tolist()


def test_rules_are_disjoint():
    for a, b in itertools.combinations(RULES, 2):
        firsts = a.first[0] <= b.first[1] and b.first[0] <= a.first[1]
        sa, sb = a.second or (0, 255), b.second or (0, 255)
        seconds = sa[0] <= sb[1] and sb[0] <= sa[1]
        assert not (firsts and seconds), (a, b)


def test_rules_fit_the_longest_encoding():
    assert max(r.length for r in RULES) == MAX_INSN_LEN
    assert all(r.second is None or r.length >= 2 for r in RULES)


def test_length_class_every_byte_pair():
    """Every (first, second) pair, with room for the longest encoding."""
    pairs = np.array(list(itertools.product(range(256), repeat=2)), np.uint8)
    rows = np.zeros((len(pairs), MAX_INSN_LEN), np.uint8)
    rows[:, :2] = pairs
    data = rows.tobytes()
    got = vectorized(data)
    for i in range(0, len(data), MAX_INSN_LEN):
        assert got[i] == decoded(data, i), data[i : i + 2].hex()


def test_length_class_every_truncation():
    """Every first byte cut off by the section end after 1..5 bytes.  Where a
    rule reads the second byte, that byte takes each edge of every range."""
    edges = {0x00, 0xFF}
    for rule in RULES:
        if rule.second is not None:
            lo, hi = rule.second
            edges |= {lo - 1, lo, hi, hi + 1} & set(range(256))
    for first in range(256):
        keyed = any(r.second and r.first[0] <= first <= r.first[1] for r in RULES)
        for second in sorted(edges) if keyed else [0x00]:
            full = bytes([first, second]) + b"\x00" * (MAX_INSN_LEN - 2)
            for cut in range(1, MAX_INSN_LEN):
                data = full[:cut]
                assert vectorized(data) == [decoded(data, i) for i in range(cut)], data.hex()


def test_length_class_empty():
    assert vectorized(b"") == []


def test_ret_imm16_over_ret_closes_one_window():
    # c2 xx c3 is one window reached from two terminators
    assert kernels.scan_gadget_windows(b"\xc2\x08\xc3", 20, 5) == [(0, 3), (2, 3)]


def test_windows_past_a_block_of_terminators():
    # a long run of terminators, each closing two windows
    data = b"\x58\xc3" * 1031
    pop_rets = [(s, s + 2) for s in range(0, len(data), 2)]
    rets = [(s, s + 1) for s in range(1, len(data), 2)]
    assert kernels.scan_gadget_windows(data, 20, 5) == sorted(pop_rets + rets)


@st.composite
def _instruction(draw):
    """One full encoding of a random rule of the subset."""
    rule = draw(st.sampled_from(RULES))
    head = [draw(st.integers(*rule.first))]
    if rule.second is not None:
        head.append(draw(st.integers(*rule.second)))
    tail = rule.length - len(head)
    return bytes(head) + draw(st.binary(min_size=tail, max_size=tail))


_instruction_text = st.lists(st.one_of(_instruction(), st.binary(max_size=2)), max_size=40).map(
    b"".join
)


# Terminators that overlap: two of them close one end (c2 xx c3, c2 ff d0), or
# one lies inside the other and closes an end of its own (c2 c3 c3).
_overlapping_terminators = st.one_of(
    st.binary(min_size=1, max_size=1).map(lambda x: b"\xc2" + x + b"\xc3"),
    st.sampled_from([b"\xc2\xff\xd0", b"\xc2\xc3\xc3"]),
)

_overlapping_text = st.lists(
    st.one_of(_instruction(), st.binary(max_size=2), _overlapping_terminators), max_size=40
).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(_overlapping_text, st.integers(1, 24), st.integers(1, 5))
def test_short_window_back_matches_brute_force(data, window_back, max_insns):
    # a short window_back bounds the starts behind each end by its lowest terminator
    windows = kernels.scan_gadget_windows(data, window_back, max_insns)
    assert set(windows) == oracle_bruteforce.brute_force_windows(data, window_back, max_insns)
    starts = [start for start, _ in windows]
    assert all(a < b for a, b in zip(starts, starts[1:]))


def _longest_window_back(max_insns: int) -> int:
    return (max_insns - 1) * MAX_INSN_LEN + max(FREE_BRANCH_LENGTH.values()) - 1


@settings(max_examples=80, deadline=None)
@given(_instruction_text, st.integers(1, 4), st.data())
def test_window_back_past_the_longest_window_matches_brute_force(data, max_insns, draw):
    # the oracle tries every start it is given, the scanner only the starts
    # max_insns instructions reach.  A window's own last instruction closes it, so
    # from (max_insns - 1) * MAX_INSN_LEN up every window is found.
    window_back = draw.draw(st.integers((max_insns - 1) * MAX_INSN_LEN, 120))
    windows = kernels.scan_gadget_windows(data, window_back, max_insns)
    assert set(windows) == oracle_bruteforce.brute_force_windows(data, window_back, max_insns)


def test_huge_window_back_scans_like_the_longest_window():
    data = b"\x81\xc4\x00\x00\x00\x00" * 4 + b"\xc2\x08\xc3" + b"\x58\xc3" * 50
    longest = kernels.scan_gadget_windows(data, _longest_window_back(5), 5)
    assert (0, len(data) - 100) in longest  # four add esp, imm32 then ret imm16
    assert kernels.scan_gadget_windows(data, 10**9, 5) == longest


def test_window_back_clamps_to_the_section():
    # no start lies more than len(data) - 1 bytes behind a terminator
    data = b"\x81\xc4\x00\x00\x00\x00" * 4 + b"\xc2\x08\xc3" + b"\x58\xc3" * 50
    whole = kernels.scan_gadget_windows(data, len(data), 10**11)
    assert set(whole) == oracle_bruteforce.brute_force_windows(data, len(data), len(data))
    assert kernels.scan_gadget_windows(data, 10**12, 10**11) == whole


@pytest.mark.parametrize("max_insns", range(1, 6))
@pytest.mark.parametrize("window_back", range(1, 5))
@pytest.mark.parametrize(
    "shape",
    [b"\xc2\x08\xc3", b"\xc2\xff\xd0", b"\xc2\xc3\xc3"],
    ids=["c2-xx-c3", "c2-ff-d0", "c2-c3-c3"],
)
def test_shared_end_bound_matches_brute_force(shape, window_back, max_insns):
    # the terminators closing one end start 1 to 3 bytes before it: the lowest
    # of them bounds how far back the pops in front are reached
    data = b"\x58" * 6 + shape
    windows = kernels.scan_gadget_windows(data, window_back, max_insns)
    assert set(windows) == oracle_bruteforce.brute_force_windows(data, window_back, max_insns)


def test_window_trie_memory_per_byte():
    # about 10 bytes per byte: the padded copy of the bytes, the intp copy
    # take() makes of their words, and the codes.  One more n + 1 int32 array,
    # as a per-end table of terminators would need, adds 4
    table = np.array([*range(256), *[0xC3, 0xC2, 0xFF, 0x58, 0x5B, 0x5D, 0x90] * 8], np.uint8)
    data = table[np.random.default_rng(0).integers(0, len(table), 1 << 20)].tobytes()
    tracemalloc.start()
    try:
        kernels.window_trie(data, 20, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(data) < 12


@settings(max_examples=300, deadline=None)
@given(_overlapping_text, st.integers(1, 24), st.integers(1, 5))
def test_window_trie_levels_match_brute_force(data, window_back, max_insns):
    # each level's windows grow their parents one instruction down by one
    # decoded instruction; together the levels are the scanner's windows
    levels = kernels.window_trie(data, window_back, max_insns)
    start, end, head, parent = (col.tolist() for col in levels[0])
    terminators = [t for t in range(len(data)) if free_branch_kind(decode_one(data, t))]
    assert sorted(start) == terminators
    assert parent == [-1] * len(start)
    assert head == [decode_one(data, t).length for t in start]
    assert [s + n for s, n in zip(start, head)] == end
    windows = list(zip(start, end))
    below = windows
    for level in levels[1:]:
        start, end, head, parent = (col.tolist() for col in level)
        assert head == [decode_one(data, s).length for s in start]
        assert [below[p] for p in parent] == [(s + n, e) for s, n, e in zip(start, head, end)]
        below = list(zip(start, end))
        windows += below
    assert len(levels) <= max_insns
    assert len(set(windows)) == len(windows)
    assert set(windows) == set(kernels.scan_gadget_windows(data, window_back, max_insns))
    assert set(windows) == oracle_bruteforce.brute_force_windows(data, window_back, max_insns)


def packed(encodings: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The encodings packed as the listing packs heads, and their lengths."""
    length = np.array([len(e) for e in encodings], np.intp)
    start = np.cumsum(length) - length
    return kernels.pack_encodings(b"".join(encodings), start, length), length


def assert_packs_as_bytes(data: bytes):
    # every start and every length; bytes past the section end read as 0
    start, length = (a.ravel() for a in np.mgrid[: len(data), 1 : MAX_INSN_LEN + 1])
    got = kernels.pack_encodings(data, start, length).tolist()
    want = [data[s : s + n].ljust(MAX_INSN_LEN, b"\0") for s, n in zip(start, length)]
    assert got == [int.from_bytes(w, "big") for w in want]


@pytest.mark.parametrize("size", range(8))
def test_pack_encodings_short_sections(size):
    assert_packs_as_bytes(bytes(range(0xFF, 0xFF - size, -1)))


# At least one byte 0x80-0xff, which reads as a negative int64 before the mask.
_high_byte_text = st.tuples(
    st.binary(max_size=12), st.integers(0x80, 0xFF), st.binary(max_size=12)
).map(lambda t: t[0] + bytes([t[1]]) + t[2])


@settings(max_examples=200, deadline=None)
@given(_high_byte_text)
def test_pack_encodings_matches_plain_bytes(data):
    assert_packs_as_bytes(data)


@settings(max_examples=200, deadline=None)
@given(_high_byte_text)
def test_unpack_encodings_inverts_pack_encodings(data):
    # every start and every length that fits in data
    start, length = (a.ravel() for a in np.mgrid[: len(data), 1 : MAX_INSN_LEN + 1])
    fits = start + length <= len(data)
    start, length = start[fits], length[fits]
    got = kernels.unpack_encodings(kernels.pack_encodings(data, start, length), length)
    assert got == [data[s : s + n] for s, n in zip(start.tolist(), length.tolist())]


def assert_rendered_as_decoded(encodings: list[bytes]):
    texts = kernels.render_heads(*packed(encodings))
    assert texts == [format_instruction(decode_one(e, 0)) for e in encodings]


def opcodes(rule) -> list[bytes]:
    """Every opcode, and ModRM byte if the rule reads one, that ``rule`` admits."""
    ranges = [rule.first] + ([rule.second] if rule.second else [])
    return [bytes(b) for b in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))]


def every_encoding(rule) -> list[bytes]:
    rest = rule.length - len(opcodes(rule)[0])
    imms = list(itertools.product(range(256), repeat=rest))
    return [op + bytes(imm) for op in opcodes(rule) for imm in imms]


def test_render_heads_every_encoding_up_to_3_bytes():
    # every ret imm16 and add esp, imm8 value, every ModRM byte of the
    # 2-byte rules: ascending, in one batch, as the listing renders its heads
    encodings = sorted(e for r in RULES if r.length <= 3 for e in every_encoding(r))
    assert len(encodings) > 1 << 16
    assert_rendered_as_decoded(encodings)


_LONG_RULES = [r for r in RULES if r.length > 3]
# (opcode bytes, immediate size) of every opcode of the 5- and 6-byte rules.
_LONG_OPCODES = [(op, r.length - len(op)) for r in _LONG_RULES for op in opcodes(r)]
# 32-bit immediates at each sign and width boundary.
_EDGES = [0, 1, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF, 0x10000]
_EDGES += [0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF]


def test_render_heads_long_encodings_at_boundaries():
    assert {r.length for r in _LONG_RULES} == {5, 6}
    encodings = [op + v.to_bytes(size, "little") for op, size in _LONG_OPCODES for v in _EDGES]
    assert_rendered_as_decoded(sorted(encodings))


_long_encodings = st.sampled_from(_LONG_OPCODES).flatmap(
    lambda o: st.binary(min_size=o[1], max_size=o[1]).map(o[0].__add__)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_long_encodings, max_size=40))
def test_render_heads_long_encodings(encodings):
    # any order, and ascending without repeats as the listing holds them
    assert_rendered_as_decoded(encodings)
    assert_rendered_as_decoded(sorted(set(encodings)))


@pytest.mark.parametrize(
    "encodings",
    [
        [bytes([0xFF, m]) for m in [*range(0xD0, 0xD8), *range(0xE0, 0xE8)]],
        [bytes([op, m]) for op in (0x31, 0x33, 0x89, 0x8B) for m in (0xC1, 0xC8, 0xE3, 0xFF)],
        [bytes([b]) for b in range(0x50, 0x60)],
        [b"\x58", b"\x68\x01\x00\x00\x80", b"\x90", b"\xb8\xff\xff\xff\xff", b"\xc3"],
        [b"\xc2\x08\x00"],
        [b"\xc2" + v.to_bytes(2, "little") for v in (0, 8, 0x7FFF, 0x8000, 0xFFFF)],
        [],
    ],
    ids=["call-jmp", "xor-mov-orders", "push-pop", "runs-of-one", "one-head", "one-rule", "empty"],
)
def test_render_heads_across_run_boundaries(encodings):
    # neighbouring rules that share a first byte, sit next to each other in
    # byte order, or read their operands in opposite orders
    assert_rendered_as_decoded(encodings)


def test_rendered_texts_hold_no_newline():
    # render_rows finds where each text ends by the newlines of the joined
    # buffer, so a text rendered from these (or dumped by json) holds none
    assert not any("\n" in t for t in (*TEXT.values(), *REG_NAMES))


_ROW_HEADS = ["", "0x", "\x1b[36m0x", '{"addr": "0x']
_ROW_AFTERS = ["", ": ", "\x1b[0m: ", '", ']  # the CLI's, and none
_ROW_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=30)


def assert_rows_rendered(addrs, gids, head, after, texts):
    expected = "".join(f"{head}{a:08x}{after}{texts[g]}\n" for a, g in zip(addrs, gids))
    addr, gid = np.array(addrs, np.int64), np.array(gids, np.intp)
    assert "".join(kernels.render_rows(addr, gid, head, after, texts)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROW_TEXT, min_size=1, max_size=8), st.data())
def test_render_rows_formats_each_row(texts, data):
    rows = st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, len(texts) - 1))
    drawn = data.draw(st.lists(rows, max_size=40))
    head, after = data.draw(st.sampled_from(_ROW_HEADS)), data.draw(st.sampled_from(_ROW_AFTERS))
    assert_rows_rendered([a for a, _ in drawn], [g for _, g in drawn], head, after, texts)


def test_render_rows_across_gather_blocks():
    # rows of about 60 bytes, several blocks of _GATHER_BYTES, texts of every
    # length up to 40 (the empty one included) and ids in no order
    texts = ["x" * n for n in range(41)]
    gids = [(7 * r) % len(texts) for r in range(3000)]
    addrs = [(0x9E3779B1 * r) & 0xFFFFFFFF for r in range(3000)]
    assert sum(len(texts[g]) + 20 for g in gids) > 4 * kernels._GATHER_BYTES
    for head, after in zip(_ROW_HEADS, _ROW_AFTERS):
        assert_rows_rendered(addrs, gids, head, after, texts)
    assert_rows_rendered([], [], "0x", ": ", texts)
