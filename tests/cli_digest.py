"""One SHA-256 over ropforge's CLI output on a fixed corpus of commands.

Each record is one ``main(argv)`` call in this process: its argv, the
``ROPFORGE_COLOR`` value, its exit code (or the exception it raised), its
stdout bytes, its stderr, and the bytes of the file its ``--out`` names.  The
commands run in a temporary directory on relative paths, so two checkouts
print the same digest exactly when their output is byte-identical.  Prints
the record count and the digest.  ``tests/test_cli.py`` checks both in
Tier-1; a change to the CLI's output updates them there.

Inputs: the test suite's demo binary with three chain files; a small binary
built here, verified against payloads that end in each termination but the
sentinel and at the sentinel after a call with a wrong argument; and the
benchmark generators' ``chain-small`` and ``chain-large`` seeds 101-102 cases
0-49 and ``scan-dense`` seeds 101-102 cases 0-1 at 8 KiB; and two-section
images of ``scan-dense`` bytes with ``PLAIN_EDGE`` and ``PLAIN_EDGE + 1``
executable bytes, on either side of the CLI's switch from the plain listing to
numpy's.  Run from the repository root (a few seconds)::

    python tests/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
_PATH = sys.path[:]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "ropbench")]

import conftest  # noqa: E402  (the demo binary)
import inputs  # noqa: E402  (the benchmark's seeded cases)
from ropforge.chain import EXIT_SENTINEL  # noqa: E402
from ropforge.cli import main  # noqa: E402
from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf  # noqa: E402

sys.path[:] = _PATH  # loaded: an importing test run keeps its own path

GADGET_FLAGS = [
    [],
    ["--json"],
    ["--class", "pop_ret"],
    ["--class", "other", "--arity", "0", "--json"],
    ["--class", "stack_pivot", "--json"],
    ["--max-insns", "3", "--window-back", "9"],
    ["--class", "pop_ret", "--arity", "2"],
    ["--max-insns", "12"],
    ["--class", "ret_only", "--json"],
    ["--max-insns", "1"],
    ["--window-back", "1"],
    ["--class", "other", "--arity", "1"],
    ["--max-insns", "8", "--window-back", "40"],
    ["--json", "--max-insns", "12", "--window-back", "40"],
]
# cli.PLAIN_LISTING_MAX_BYTES, which test_cli.py checks: the most executable
# bytes the CLI lists without numpy.
PLAIN_EDGE = 4096
FORMATS = ("raw", "hex", "escaped")
PATTERN = [
    ["pattern", "200"],
    ["pattern", "--locate", "0x6261616a"],
    ["pattern", "--locate", "jaab"],
    ["pattern", "--locate", "0x00000000"],
    ["pattern", "--locate", "xyz"],
    ["pattern"],
]
DEMO_CHAINS = {
    "fig8.rop": "binary: demo.elf\nret_offset: auto echo\n"
    + "call: SecretFunctionWithoutParm\n" * 3
    + "final: sentinel\n",
    "fig7.rop": "binary: demo.elf\nret_offset: auto echo\ncall: SecretFunctionWithParm &str\n",
    # negative words are two's complement: this final is the sentinel
    "negative.rop": "binary: demo.elf\nret_offset: auto echo\n"
    + "call: SecretFunctionWithParm -2\nfinal: -559038242\n",
}

# The small binary's .text: pop eax ; ret, jmp eax, int 0x80, an unsupported
# byte, pop esp ; ret, and the ret of function f, which the chain calls.
MINI = 0x08049000
MINI_TEXT = b"\x58\xc3" + b"\xff\xe0" + b"\xcd\x80" + b"\x0f" + b"\x5c\xc3" + b"\xc3"
POP_EAX, JMP_EAX, INT, UNSUPPORTED, POP_ESP, F = (MINI + o for o in (0, 2, 4, 6, 7, 9))
MINI_CHAIN = "binary: mini.elf\nret_offset: 4\ncall: f 0x11111111\n"
# The words each payload holds from the saved return address on.
MINI_PAYLOADS = {
    "budget": [POP_EAX, JMP_EAX, JMP_EAX],  # jmp eax, to itself
    "unsupported": [UNSUPPORTED],
    "int": [INT],
    "unmapped": [0x41414141],
    "stack": [POP_ESP, 0x41414141],
    "wrong-arg": [F, EXIT_SENTINEL, 0x22222222],
}


def edge_elf(size: int) -> bytes:
    """An image of two executable sections holding ``size`` bytes together,
    ``scan-dense`` seed 103's, in halves 64 KiB apart."""
    text = inputs.scan_dense(103, 0, size).text
    half = size // 2
    return build_elf(
        [
            SectionSpec(".text", inputs.DENSE_VADDR, text[:half], "ax"),
            SectionSpec(".text2", inputs.DENSE_VADDR + 0x10000, text[half:], "ax"),
        ]
    )


def run(argv: list[str]) -> tuple:
    """One in-process ``main(argv)``: exit code, stdout bytes, stderr."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        stdout.flush()
    return rc, out.getvalue(), err.getvalue()


def chain_commands(binary: str, chain: str) -> list[list[str]]:
    """``build`` to stdout and to each format's file, with and without
    ``--force``; ``verify`` plain, with ``--json`` and of each file."""
    argvs = [["build", chain], ["build", chain, "--force"]]
    outs = []
    for fmt in FORMATS:
        for force in ([], ["--force"]):
            outs.append(f"out-{fmt}{'-force' if force else ''}")
            argvs.append(["build", chain, "--out", outs[-1], "--format", fmt, *force])
    argvs += [["verify", binary, chain], ["verify", binary, chain, "--json"]]
    argvs += [["verify", binary, chain, "--payload", out] for out in outs]
    return argvs


def corpus(workdir: Path):
    """Yield each argv after writing the files it reads."""
    (workdir / "demo.elf").write_bytes(conftest.demo_elf_bytes())
    for name, text in DEMO_CHAINS.items():
        (workdir / name).write_text(text)
    yield from PATTERN
    for argv in (["symbols"], ["offset", "echo"], ["offset", "main"], ["offset", "nosuch"]):
        yield [argv[0], "demo.elf", *argv[1:]]
    for flags in GADGET_FLAGS:
        yield ["gadgets", "demo.elf", *flags]
    for name in DEMO_CHAINS:
        yield from chain_commands("demo.elf", name)

    (workdir / "mini.elf").write_bytes(
        build_elf(
            [SectionSpec(".text", MINI, MINI_TEXT, "ax")], symbols=[SymbolSpec("f", F, 1)]
        )
    )
    (workdir / "mini.rop").write_text(MINI_CHAIN)
    for name, words in MINI_PAYLOADS.items():
        payload = b"AAAA" + b"".join(w.to_bytes(4, "little") for w in words)
        (workdir / name).write_bytes(payload)
        for json_flag in ([], ["--json"]):
            yield ["verify", "mini.elf", "mini.rop", "--payload", name, *json_flag]

    for size in (PLAIN_EDGE, PLAIN_EDGE + 1):
        (workdir / "edge.elf").write_bytes(edge_elf(size))
        for flags in GADGET_FLAGS:
            yield ["gadgets", "edge.elf", *flags]

    for seed in (101, 102):
        for index in (0, 1):
            (workdir / "dense.elf").write_bytes(
                inputs.scan_dense(seed, index, 8 * 1024).files[inputs.BINARY]
            )
            for flags in GADGET_FLAGS:
                yield ["gadgets", "dense.elf", *flags]
        for make in (inputs.chain_small, inputs.chain_large):
            for index in range(50):
                for out in workdir.glob("out-*"):
                    out.unlink()
                for name, blob in make(seed, index).files.items():
                    (workdir / name).write_bytes(blob)
                yield ["symbols", inputs.BINARY]
                yield ["offset", inputs.BINARY, "echo"]
                yield from chain_commands(inputs.BINARY, inputs.CHAIN)


def digest() -> tuple[int, str]:
    """The record count and the SHA-256 of the corpus's records.  The working
    directory and ``ROPFORGE_COLOR`` are as they were afterwards."""
    sha, count = hashlib.sha256(), 0
    here = os.getcwd()
    with mock.patch.dict(os.environ), tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in corpus(Path(tmp)):
                out = argv[argv.index("--out") + 1] if "--out" in argv else None
                for color in ("0", "1"):
                    os.environ["ROPFORGE_COLOR"] = color
                    if out is not None and os.path.exists(out):
                        os.unlink(out)
                    outcome = run(argv)
                    written = Path(out).read_bytes() if out and os.path.exists(out) else None
                    record = (argv, color, *outcome, written)
                    sha.update(repr(record).encode() + b"\n")
                    count += 1
        finally:
            os.chdir(here)
    return count, sha.hexdigest()


def main_digest() -> int:
    count, hexdigest = digest()
    print(f"{count} records")
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
