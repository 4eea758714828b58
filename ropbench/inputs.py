"""Seeded inputs for the benchmark workloads and the demo fixture.

Every generator takes ``(seed, index)`` and returns a :class:`Case`: the
files one request needs plus the facts the references are derived from.  The
same seed and index give the same bytes.  Binaries are written with
``ropforge.elfbuild``; nothing else of ropforge is used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf

BINARY = "target.elf"
CHAIN = "chain.rop"
PAYLOAD = "payload.bin"

MAX_CALL_ARITY = 6  # the chain-file format's documented ceiling
PAD_BYTE = 0x41  # the chain-file default, which the generated files keep


@dataclass(frozen=True)
class Call:
    name: str
    addr: int
    arg_tokens: tuple[str, ...]
    arg_values: tuple[int, ...]


@dataclass
class Case:
    """One request's input files and the generator's own record of them."""

    files: dict[str, bytes]
    text: bytes
    text_vaddr: int
    calls: tuple[Call, ...] = ()
    ret_offset: int = 0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # A str seed is hashed with SHA-512, so this does not depend on PYTHONHASHSEED.
    return random.Random(f"ropbench/{workload}/{seed}/{index}")


# --------------------------------------------------------------------------
# Demo fixture: the layout of the test suite's demo binary.

DEMO_TEXT_VADDR = 0x08048400
DEMO_DATA_VADDR = 0x0804A020
DEMO_POP1_EDI = 0x08048550  # 5f c3
DEMO_POP3 = 0x08048554  # 5e 5f 5d c3
DEMO_POP2 = 0x08048555  # 5f 5d c3

_DEMO_ECHO = bytes.fromhex(
    "5589e583ec2868d0850408b800000000" + "90" * 12 + "8d45e45068e0850408b8000000009090c9c3"
)
_DEMO_PLACEMENTS = [
    (0x0804848B, bytes.fromhex("5589e5905dc3")),
    (0x080484A4, bytes.fromhex("5589e590905dc3")),
    (0x080484E6, _DEMO_ECHO),
    (0x08048520, bytes.fromhex("5589e59090909090c9c3")),
    (0x08048530, bytes.fromhex("5589e58d45d890c9c3")),
    (0x08048540, bytes.fromhex("5589e58d45f0908d45d8c9c3")),
    (DEMO_POP1_EDI, bytes.fromhex("5fc3")),
    (DEMO_POP3, bytes.fromhex("5e5f5dc3")),
    (0x08048560, bytes.fromhex("5f5dc3")),
    (0x08048568, bytes.fromhex("83c408c3")),
    (0x0804856C, bytes.fromhex("31c0c3")),
    (0x08048570, bytes.fromhex("05c3000000")),
    (0x08048578, bytes.fromhex("ffe0")),
    (0x0804857A, bytes.fromhex("ffd1")),
    (0x0804857C, bytes.fromhex("c20800")),
]
_DEMO_SYMBOLS = [
    SymbolSpec("main", 0x08048520, 10, "function"),
    SymbolSpec("echo", 0x080484E6, len(_DEMO_ECHO), "function"),
    SymbolSpec("SecretFunctionWithoutParm", 0x0804848B, 6, "function"),
    SymbolSpec("SecretFunctionWithParm", 0x080484A4, 7, "function"),
    SymbolSpec("read_name", 0x08048530, 9, "function"),
    SymbolSpec("copy_fields", 0x08048540, 12, "function"),
    SymbolSpec("str", 0x0804A030, 20, "object"),
]


def demo_text() -> bytes:
    text = bytearray(b"\xcc" * 0x200)
    for vaddr, blob in _DEMO_PLACEMENTS:
        off = vaddr - DEMO_TEXT_VADDR
        text[off : off + len(blob)] = blob
    return bytes(text)


def demo_elf() -> bytes:
    data = bytearray(0x30)
    data[0x10 : 0x10 + 13] = b"MyROPExploit\x00"
    return build_elf(
        [
            SectionSpec(".text", DEMO_TEXT_VADDR, demo_text(), "ax"),
            SectionSpec(".data", DEMO_DATA_VADDR, bytes(data), "wa"),
        ],
        symbols=_DEMO_SYMBOLS,
        entry=0x08048520,
    )


# --------------------------------------------------------------------------
# scan-dense: one 64 KiB section of weighted random bytes.

DENSE_VADDR = 0x08048000
DENSE_SIZE = 64 * 1024
# Uniform bytes plus extra weight on terminators and pops: about 6% of the
# offsets start a free branch.
_DENSE_TABLE = np.array(
    list(range(256)) + [0xC3, 0xC2, 0xFF, 0x58, 0x5B, 0x5D, 0x90] * 8, dtype=np.uint8
)


def scan_dense(seed: int, index: int, size: int = DENSE_SIZE) -> Case:
    rng = np.random.default_rng([seed, 1, index])
    text = _DENSE_TABLE[rng.integers(0, len(_DENSE_TABLE), size)].tobytes()
    elf = build_elf([SectionSpec(".text", DENSE_VADDR, text, "ax")])
    return Case(files={BINARY: elf}, text=text, text_vaddr=DENSE_VADDR)


# --------------------------------------------------------------------------
# Chain workloads: functions to call, an echo-style vulnerable function,
# data symbols, and a chain file over them.


def _rand4(r: random.Random) -> bytes:
    return r.randbytes(4)


# Compiler-like instruction encodings; the imm32/rel32 fields carry random
# bytes, so terminators also occur unaligned inside them.
_BODY_INSNS = [
    lambda r: bytes([0xB8 + r.randrange(8)]) + _rand4(r),  # mov reg, imm32
    lambda r: b"\xe8" + _rand4(r),  # call rel32
    lambda r: b"\x68" + _rand4(r),  # push imm32
    lambda r: b"\xc7\x45" + bytes([r.choice((0xF0, 0xF4, 0xF8, 0xFC))]) + _rand4(r),
    lambda r: b"\x8b\x45" + bytes([r.choice((0x08, 0x0C, 0x10))]),  # mov eax, [ebp+n]
    lambda r: b"\x89\x45" + bytes([r.choice((0xF4, 0xF8, 0xFC))]),  # mov [ebp-n], eax
    lambda r: bytes([0x89, 0xC0 | r.randrange(64)]),  # mov reg, reg
    lambda r: r.choice((b"\x01\xd0", b"\x85\xc0", b"\x39\xc8", b"\x31\xc0", b"\x29\xd8")),
    lambda r: bytes([r.choice((0x74, 0x75, 0xEB)), r.randrange(0x40)]),  # jcc rel8
    lambda r: b"\xff\x75" + bytes([r.choice((0x08, 0x0C))]),  # push [ebp+n]
    lambda r: b"\x8d\x45" + bytes([r.choice((0xE8, 0xF0, 0xF8))]),  # lea eax, [ebp-n]
    lambda r: b"\x83\xc4" + bytes([r.choice((0x04, 0x08, 0x10))]),  # add esp, n
]
_SAVED_REGS = (3, 6, 7)  # ebx, esi, edi: pushed after ebp, popped before it


def _function_body(r: random.Random) -> bytes:
    saved = r.sample(_SAVED_REGS, r.randint(0, 3))
    out = bytearray(b"\x55\x89\xe5")  # push ebp; mov ebp, esp
    out += bytes(0x50 + reg for reg in saved)
    out += bytes([0x83, 0xEC, r.choice((0x08, 0x0C, 0x18, 0x28))])  # sub esp, n
    for _ in range(r.randint(6, 20)):
        out += r.choice(_BODY_INSNS)(r)
    if saved:
        out += bytes([0x8D, 0x65, (-4 * len(saved)) & 0xFF])  # lea esp, [ebp-n]
        out += bytes(0x58 + reg for reg in reversed(saved))
        out += b"\x5d\xc3"  # pop ebp; ret
    else:
        out += b"\xc9\xc3"  # leave; ret
    while len(out) % 16:
        out.append(0x90)
    return bytes(out)


def _echo_body(disp: int) -> bytes:
    """Frame function whose only frame-relative lea sits ``disp`` below ebp."""
    return (
        b"\x55\x89\xe5\x83\xec"
        + bytes([disp + 0x0C])
        + bytes.fromhex("68d0850408b800000000909090")
        + bytes([0x8D, 0x45, (-disp) & 0xFF])
        + bytes.fromhex("5068e0850408b8000000009090c9c3")
    )


def _target_body(n: int) -> bytes:
    return b"\x55\x89\xe5" + b"\x90" * n + b"\x5d\xc3"


@dataclass
class _Program:
    """Symbols and data of a chain binary, laid out by the caller."""

    targets: list[tuple[str, int]]  # (name, arity)
    echo_disp: int
    objects: list[str]


def _program(r: random.Random, n_targets: int) -> _Program:
    return _Program(
        targets=[(f"fn_{i}", i % (MAX_CALL_ARITY + 1)) for i in range(n_targets)],
        echo_disp=4 * r.randint(4, 30),
        objects=[f"obj_{i}" for i in range(r.randint(2, 6))],
    )


def _arg_token(r: random.Random, symbols: dict[str, int], objects, targets) -> tuple[str, int]:
    pick = r.random()
    if pick < 0.4:
        name = r.choice(objects)
    elif pick < 0.55:
        name = r.choice(targets)[0]
    else:
        value = r.getrandbits(32)
        return f"{value:#x}", value
    return f"&{name}", symbols[name]


def _chain(
    r: random.Random,
    prog: _Program,
    symbols: dict[str, int],
    n_calls: int,
    need_cleanup: bool,
) -> tuple[Call, ...]:
    picks = [r.choice(prog.targets) for _ in range(n_calls)]
    if need_cleanup and not any(arity for _, arity in picks[:-1]):
        picks[r.randrange(n_calls - 1)] = r.choice([t for t in prog.targets if t[1]])
    calls = []
    for name, arity in picks:
        args = [_arg_token(r, symbols, prog.objects, prog.targets) for _ in range(arity)]
        calls.append(
            Call(name, symbols[name], tuple(t for t, _ in args), tuple(v for _, v in args))
        )
    return tuple(calls)


def _chain_file(calls: tuple[Call, ...]) -> bytes:
    lines = [f"binary: {BINARY}", "ret_offset: auto echo"]
    lines += [f"call: {' '.join((c.name,) + c.arg_tokens)}" for c in calls]
    lines += ["final: sentinel", "bad_bytes: scanf"]
    return ("\n".join(lines) + "\n").encode()


def _chain_case(
    text: bytes,
    text_vaddr: int,
    data_vaddr: int,
    placed: dict[str, tuple[int, int]],
    prog: _Program,
    r: random.Random,
    n_calls: int,
    need_cleanup: bool,
) -> Case:
    """Finish a chain case from the text and where each function landed."""
    symbols = {name: text_vaddr + off for name, (off, _) in placed.items()}
    for i, name in enumerate(prog.objects):
        symbols[name] = data_vaddr + 0x10 * i
    sym_specs = [
        SymbolSpec(name, text_vaddr + off, size, "function") for name, (off, size) in placed.items()
    ] + [SymbolSpec(name, symbols[name], 0x10, "object") for name in prog.objects]
    data = r.randbytes(0x10 * len(prog.objects))
    elf = build_elf(
        [
            SectionSpec(".text", text_vaddr, text, "ax"),
            SectionSpec(".data", data_vaddr, data, "wa"),
        ],
        symbols=sym_specs,
    )
    calls = _chain(r, prog, symbols, n_calls, need_cleanup)
    return Case(
        files={BINARY: elf, CHAIN: _chain_file(calls)},
        text=text,
        text_vaddr=text_vaddr,
        calls=calls,
        ret_offset=prog.echo_disp + 4,
    )


# chain-large: 256 KiB of text tiled from a pool of function bodies drawn per
# request, so a run averages over many pools rather than resting on one.

LARGE_VADDR = 0x08048000
LARGE_DATA_VADDR = 0x08400000
LARGE_SIZE = 256 * 1024
_POOL_SIZE = 96


def chain_large(seed: int, index: int, size: int = LARGE_SIZE) -> Case:
    r = _rng("chain-large", seed, index)
    pool = [_function_body(r) for _ in range(_POOL_SIZE)]
    prog = _program(r, n_targets=2 * (MAX_CALL_ARITY + 1))
    planted = [(name, _target_body(1 + i % 3)) for i, (name, _) in enumerate(prog.targets)]
    planted.append(("echo", _echo_body(prog.echo_disp)))
    text = bytearray()
    placed: dict[str, tuple[int, int]] = {}
    # Slots end 1 KiB short of the end, so no planted body is cut off.
    slots = sorted(r.sample(range((size - 1024) // 64), len(planted)))
    queue = list(zip(slots, planted))
    while len(text) < size:
        if queue and len(text) >= queue[0][0] * 64:
            _, (name, blob) = queue.pop(0)
            placed[name] = (len(text), len(blob))
            text += blob
        else:
            text += r.choice(pool)
    text = bytes(text[:size])
    return _chain_case(
        text, LARGE_VADDR, LARGE_DATA_VADDR, placed, prog, r, r.randint(2, 5), need_cleanup=True
    )


# chain-small: demo-sized text, 0xCC filler, a seeded zone of pop runs.

SMALL_VADDR = 0x08048400
SMALL_DATA_VADDR = 0x0804A000
SMALL_TEXT = 0x400


def _pop_run(r: random.Random) -> bytes:
    return bytes(0x58 + r.randrange(8) for _ in range(r.randint(1, MAX_CALL_ARITY))) + b"\xc3"


def chain_small(seed: int, index: int) -> Case:
    r = _rng("chain-small", seed, index)
    prog = _program(r, n_targets=MAX_CALL_ARITY + 1 + r.randint(0, 3))
    blobs = [(name, _target_body(1 + r.randrange(3))) for name, _ in prog.targets]
    blobs.append(("echo", _echo_body(prog.echo_disp)))
    blobs += [(None, _pop_run(r)) for _ in range(r.randint(2, 6))]
    blobs += [(None, r.choice((b"\x83\xc4\x08\xc3", b"\x31\xc0\xc3", b"\xff\xe0")))]
    r.shuffle(blobs)
    text = bytearray()
    placed: dict[str, tuple[int, int]] = {}
    for name, blob in blobs:
        text += b"\xcc" * r.randint(1, 16)
        if name is not None:
            placed[name] = (len(text), len(blob))
        text += blob
    text += b"\xcc" * (SMALL_TEXT - len(text))
    return _chain_case(
        bytes(text),
        SMALL_VADDR,
        SMALL_DATA_VADDR,
        placed,
        prog,
        r,
        r.randint(1, 8),
        need_cleanup=False,
    )
