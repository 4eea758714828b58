"""One SHA-256 over ropforge's CLI output on a fixed corpus of commands.

Each record is one ``main(argv)`` call in this process: its argv, the
``ROPFORGE_COLOR`` value, its exit code (or the exception it raised), its
stdout bytes, its stderr, and the bytes of the file its ``--out`` names.  The
commands run in a temporary directory on relative paths, so two checkouts
print the same digest exactly when their output is byte-identical.  Prints
the record count and the digest.  ``tests/test_cli.py`` checks both in
Tier-1; a change to the CLI's output updates them there.

Inputs: the test suite's demo binary with three chain files, and the benchmark
generators' ``chain-small`` and ``chain-large`` seeds 101-102 cases 0-49 and
``scan-dense`` seeds 101-102 cases 0-1 at 8 KiB.  Run from the repository
root (a few seconds)::

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
from ropforge.cli import main  # noqa: E402

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
