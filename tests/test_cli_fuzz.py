"""CLI fuzzing: malformed ELFs, chain files and payloads end in a documented
exit code, never in a traceback."""

import contextlib
import io
import struct

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (
    ADDR_PIVOT8,
    ADDR_POP1_EDI,
    ADDR_POP2,
    ADDR_SECRET_NOPARM,
    ADDR_SECRET_PARM,
    ADDR_STR,
    demo_elf_bytes,
)
from ropforge import cli

EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_IO,
    cli.EXIT_OFFSET,
    cli.EXIT_BAD_BYTES,
    cli.EXIT_PLAN,
    cli.EXIT_VERIFY,
}

DEMO = demo_elf_bytes()
(_SHOFF,) = struct.unpack_from("<I", DEMO, 0x20)
_SHENTSIZE, _SHNUM = struct.unpack_from("<HH", DEMO, 0x2E)
_REGIONS = {
    "elf header": (0, 0x34),
    "section headers": (_SHOFF, _SHOFF + _SHENTSIZE * _SHNUM),
    "anywhere": (0, len(DEMO)),
}

FIG7_CHAIN = "binary: {binary}\nret_offset: auto echo\ncall: SecretFunctionWithParm &str\n"

# Valid chain-file lines; a drawn file holds at most one line per single key.
_RET_OFFSET_LINES = [f"ret_offset: {v}" for v in ("auto echo", "32", "0", "70000")]
_OPTIONAL_LINES = {
    "final": ["final: sentinel", "final: main", "final: 0x0804848b"],
    "bad_bytes": ["bad_bytes: scanf", "bad_bytes: none", "bad_bytes: 0x00 0x0a"],
    "pad_byte": ["pad_byte: 0x90", "pad_byte: 0x20"],
    "format": ["format: raw", "format: hex", "format: escaped"],
}
_VALID_CALLS = [
    "call: SecretFunctionWithParm &str",
    "call: SecretFunctionWithoutParm",
    "call: 0x08049010 1",
    "call: 0x08049020 1 -2",
    "call: 0x08049050 1 2 3 4 5",
    "call: 0x08049060 1 2 3 4 5 6",
]
# Lines the parser, the resolver or the planner rejects, plus two it skips.
_INVALID_LINES = [
    "ret_offset: 0x1000001",
    "ret_offset: -4",
    "ret_offset: auto",
    "ret_offset: auto main",
    "ret_offset: auto nosuch",
    "call: 0x08049070 1 2 3 4 5 6 7",
    "call: 0",
    "call: SecretFunctionWithParm",
    "call: nosuch",
    "call: 0x08049010 0x100000000",
    "call: 0x08049010 &nosuch",
    "call:",
    "pad_byte: 0x100",
    "bad_bytes: 256",
    "format: base64",
    "final: nowhere",
    "binary: /nonexistent/target",
    "nokey: 1",
    "just text",
    "# comment",
    "",
]


@st.composite
def chain_files(draw, binary):
    """Valid lines in random order, sometimes with one invalid line among them."""
    lines = [f"binary: {binary}"] if draw(st.integers(0, 9)) else []
    if draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(_RET_OFFSET_LINES)))
    for choices in _OPTIONAL_LINES.values():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(choices)))
    lines += draw(st.lists(st.sampled_from(_VALID_CALLS), min_size=1, max_size=4))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(_INVALID_LINES)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "demo").write_bytes(DEMO)
    return path


def run(*argv) -> int:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # build writes to .buffer
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    event(f"{argv[0]}{' --payload' if '--payload' in argv else ''} exit {code}")
    return code


_word_values = st.one_of(
    st.integers(0, 0x1000), st.sampled_from([0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x08048400])
)


@st.composite
def mutated_elfs(draw):
    """The demo ELF with 1-8 overwrites, biased to its headers, or cut short."""
    if draw(st.integers(0, 4)) == 0:
        return DEMO[: draw(st.integers(0, len(DEMO) - 1))]
    data = bytearray(DEMO)
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = _REGIONS[draw(st.sampled_from(list(_REGIONS)))]
        if draw(st.booleans()):
            data[draw(st.integers(lo, hi - 1))] = draw(st.integers(0, 255))
        else:
            pos = draw(st.integers(lo, hi - 4))
            data[pos : pos + 4] = draw(_word_values).to_bytes(4, "little")
    return bytes(data)


@settings(max_examples=40, deadline=None)
@given(mutated_elfs())
def test_mutated_elfs_exit_with_documented_codes(workdir, elf):
    binary, chain, payload = workdir / "target", workdir / "target.rop", workdir / "p"
    binary.write_bytes(elf)
    chain.write_text(FIG7_CHAIN.format(binary=binary))
    payload.write_bytes(b"A" * 32 + struct.pack("<3I", 0x080484A4, 0xDEADC0DE, 0x0804A030))
    run("symbols", binary)
    run("offset", binary, "echo")
    run("gadgets", binary)
    run("build", chain, "--out", payload)
    run("verify", binary, chain)
    run("verify", binary, chain, "--payload", payload)


# Small, zero, negative and multi-TiB-if-unclamped values of the gadgets limits.
_gadget_limits = st.one_of(
    st.integers(1, 8), st.integers(-3, 0), st.sampled_from([10**11, 10**12])
)


@settings(max_examples=40, deadline=None)
@given(_gadget_limits, _gadget_limits)
def test_gadgets_limits_exit_with_documented_codes(workdir, max_insns, window_back):
    code = run("gadgets", workdir / "demo", "--max-insns", max_insns, "--window-back", window_back)
    assert code in (cli.EXIT_OK, cli.EXIT_IO)
    assert (code == cli.EXIT_OK) == (max_insns >= 1 and window_back >= 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_files_exit_with_documented_codes(workdir, data):
    binary, chain, payload = workdir / "demo", workdir / "drawn.rop", workdir / "q"
    chain.write_text(data.draw(chain_files(binary)))
    payload.write_bytes(b"")
    run("build", chain)
    run("build", chain, "--out", payload)
    run("verify", binary, chain)
    run("verify", binary, chain, "--payload", payload)


_payload_words = st.one_of(
    st.sampled_from(
        [ADDR_SECRET_PARM, ADDR_SECRET_NOPARM, ADDR_STR, ADDR_POP1_EDI, ADDR_POP2, ADDR_PIVOT8]
        + [0x08048578, 0x0804857C, 0xDEADC0DE]  # jmp eax, ret 8, the exit sentinel
    ),
    st.integers(0, 0xFFFFFFFF),
)


@st.composite
def payload_files(draw):
    """Random pad and words, written raw, as hex or escaped, or as random bytes."""
    if draw(st.integers(0, 3)):
        words = draw(st.lists(_payload_words, max_size=12))
        data = draw(st.binary(min_size=28, max_size=36)) + struct.pack(f"<{len(words)}I", *words)
    else:
        data = draw(st.binary(max_size=120))
    fmt = draw(st.sampled_from(["raw", "hex", "escaped"]))
    return cli._RENDER[fmt](data)


@settings(max_examples=100, deadline=None)
@given(payload_files())
def test_payload_bytes_exit_with_documented_codes(workdir, blob):
    binary, chain, payload = workdir / "demo", workdir / "fig7.rop", workdir / "r"
    chain.write_text(FIG7_CHAIN.format(binary=binary))
    payload.write_bytes(blob)
    run("verify", binary, chain, "--payload", payload)
