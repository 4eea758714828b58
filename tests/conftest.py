"""Shared fixtures: a hermetic synthetic binary mirroring the demo program.

The layout reproduces the vulnerable-program geometry the toolkit is built
around: two secret functions at 0x0804848b / 0x080484a4, an ``echo`` function
whose body computes a buffer address at ebp-0x1c, a global ``str`` in .data,
and a small zone of cleanup gadgets.  0xCC filler isolates the interesting
byte runs from each other.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf
from ropforge.image import load_image

# In CI (GitHub Actions sets CI), runs are derandomized and a failing property
# prints the blob that replays it locally through @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

TEXT_VADDR = 0x08048400
DATA_VADDR = 0x0804A020

ADDR_SECRET_NOPARM = 0x0804848B
ADDR_SECRET_PARM = 0x080484A4
ADDR_ECHO = 0x080484E6
ADDR_MAIN = 0x08048520
ADDR_READ_NAME = 0x08048530
ADDR_COPY_FIELDS = 0x08048540
ADDR_STR = 0x0804A030

ADDR_POP1_EDI = 0x08048550  # 5f c3
ADDR_POP3 = 0x08048554  # 5e 5f 5d c3
ADDR_POP2 = 0x08048555  # 5f 5d c3 (suffix of the run above)
ADDR_POP2_DUP = 0x08048560  # second copy of 5f 5d c3
ADDR_PIVOT8 = 0x08048568  # 83 c4 08 c3
ADDR_XOR_RET = 0x0804856C  # 31 c0 c3
ADDR_UNALIGNED_HOST = 0x08048570  # 05 c3 00 00 00 (ret hidden in the immediate)
ADDR_UNALIGNED_RET = 0x08048571

# Unmapped addresses used as simulator stubs in randomized chain tests.
STUB_BY_ARITY = {k: 0x08049000 + 0x10 * k for k in range(4)}


def _op(first: bytes, imm_bytes: int, signed: bool = False):
    """Encodings that start with ``first`` and end in an immediate of that many bytes."""
    bits = 8 * imm_bytes
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed else (0, (1 << bits) - 1)
    return st.integers(lo, hi).map(lambda v: first + v.to_bytes(imm_bytes, "little", signed=signed))


# Section text weighted towards the decoder's subset: pop and push of every
# register (pop esp included), pop runs that end in ret, every terminator, add
# esp with the sign bit of its immediate set or clear (and sometimes a ret),
# moves, and arbitrary bytes between them.
insn_text = st.lists(
    st.one_of(
        st.integers(0x50, 0x5F).map(lambda b: bytes([b])),
        st.lists(st.integers(0x58, 0x5F), max_size=4).map(lambda run: bytes(run) + b"\xc3"),
        st.sampled_from([b"\xc3", b"\x90", b"\xc9"]),
        _op(b"\xc2", 2),
        st.sampled_from([*range(0xD0, 0xD8), *range(0xE0, 0xE8)]).map(lambda m: bytes([0xFF, m])),
        st.tuples(
            st.one_of(_op(b"\x83\xc4", 1, signed=True), _op(b"\x81\xc4", 4, signed=True)),
            st.sampled_from([b"", b"\xc3"]),
        ).map(b"".join),
        st.integers(0xB8, 0xBF).flatmap(lambda b: _op(bytes([b]), 4)),
        st.tuples(st.sampled_from([0x89, 0x8B, 0x31, 0x33]), st.integers(0xC0, 0xFF)).map(bytes),
        st.binary(min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=16,
).map(b"".join)

_ECHO_BODY = bytes.fromhex(
    "55"  # push ebp
    "89e5"  # mov ebp, esp
    "83ec28"  # sub esp, 0x28
    "68d0850408"  # push 0x080485d0
    "b800000000"  # mov eax, 0
    + "90" * 12
    + "8d45e4"  # lea -0x1c(%ebp), %eax   <- at 0x08048502
    "50"  # push eax
    "68e0850408"  # push 0x080485e0
    "b800000000"  # mov eax, 0
    "9090"
    "c9c3"  # leave; ret
)

_PLACEMENTS = [
    (ADDR_SECRET_NOPARM, bytes.fromhex("5589e5905dc3")),
    (ADDR_SECRET_PARM, bytes.fromhex("5589e590905dc3")),
    (ADDR_ECHO, _ECHO_BODY),
    (ADDR_MAIN, bytes.fromhex("5589e59090909090c9c3")),
    (ADDR_READ_NAME, bytes.fromhex("5589e58d45d890c9c3")),
    (ADDR_COPY_FIELDS, bytes.fromhex("5589e58d45f0908d45d8c9c3")),
    (ADDR_POP1_EDI, bytes.fromhex("5fc3")),
    (ADDR_POP3, bytes.fromhex("5e5f5dc3")),
    (ADDR_POP2_DUP, bytes.fromhex("5f5dc3")),
    (ADDR_PIVOT8, bytes.fromhex("83c408c3")),
    (ADDR_XOR_RET, bytes.fromhex("31c0c3")),
    (ADDR_UNALIGNED_HOST, bytes.fromhex("05c3000000")),
    (0x08048578, bytes.fromhex("ffe0")),  # jmp eax
    (0x0804857A, bytes.fromhex("ffd1")),  # call ecx
    (0x0804857C, bytes.fromhex("c20800")),  # ret 8
]

SYMBOLS = [
    SymbolSpec("main", ADDR_MAIN, 10, "function"),
    SymbolSpec("echo", ADDR_ECHO, len(_ECHO_BODY), "function"),
    SymbolSpec("SecretFunctionWithoutParm", ADDR_SECRET_NOPARM, 6, "function"),
    SymbolSpec("SecretFunctionWithParm", ADDR_SECRET_PARM, 7, "function"),
    SymbolSpec("read_name", ADDR_READ_NAME, 9, "function"),
    SymbolSpec("copy_fields", ADDR_COPY_FIELDS, 12, "function"),
    SymbolSpec("str", ADDR_STR, 20, "object"),
]


def _text_bytes() -> bytes:
    text = bytearray(b"\xcc" * 0x200)
    for vaddr, blob in _PLACEMENTS:
        off = vaddr - TEXT_VADDR
        assert text[off : off + len(blob)] == b"\xcc" * len(blob), "placement overlap"
        text[off : off + len(blob)] = blob
    return bytes(text)


def _data_bytes() -> bytes:
    data = bytearray(0x30)
    payload = b"MyROPExploit\x00"
    data[0x10 : 0x10 + len(payload)] = payload
    return bytes(data)


def demo_elf_bytes() -> bytes:
    return build_elf(
        sections=[
            SectionSpec(".text", TEXT_VADDR, _text_bytes(), "ax"),
            SectionSpec(".data", DATA_VADDR, _data_bytes(), "wa"),
        ],
        symbols=SYMBOLS,
        entry=ADDR_MAIN,
    )


def target_on_cleanup_elf() -> bytes:
    """pop eax ; ret at 0x08048000 is also function f, whose call the simulator
    intercepts there; a second pop eax ; ret sits at 0x08048010, and function
    g at 0x08050000."""
    return build_elf(
        [
            SectionSpec(".text", 0x08048000, b"\x58\xc3" + b"\xcc" * 14 + b"\x58\xc3", "ax"),
            SectionSpec(".text2", 0x08050000, b"\xc3" * 4, "ax"),
        ],
        symbols=[SymbolSpec("f", 0x08048000, 2), SymbolSpec("g", 0x08050000, 4)],
    )


@pytest.fixture(scope="session")
def demo_bytes() -> bytes:
    return demo_elf_bytes()


@pytest.fixture(scope="session")
def demo_image(demo_bytes):
    return load_image(demo_bytes)


@pytest.fixture(scope="session")
def demo_binary(demo_bytes, tmp_path_factory):
    path = tmp_path_factory.mktemp("bin") / "vuln32"
    path.write_bytes(demo_bytes)
    return path


@pytest.fixture(scope="session")
def stripped_binary(tmp_path_factory):
    raw = build_elf(
        sections=[SectionSpec(".text", TEXT_VADDR, _text_bytes(), "ax")],
        symbols=[],
    )
    path = tmp_path_factory.mktemp("bin") / "stripped32"
    path.write_bytes(raw)
    return path


BENCH = Path(__file__).resolve().parent.parent / "ropbench"


@pytest.fixture(scope="session")
def bench_modules():
    """The benchmark's input generator and its lookahead-regex reference."""
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
        import reference
    finally:
        sys.path.remove(str(BENCH))
    return inputs, reference
