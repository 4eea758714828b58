"""README walkthrough test: every `$ ropforge` line of a console block runs,
exits 0 and prints what the README shows, and the python blocks run.

The lines after a command, up to the next `$` line, are its expected stdout;
a `...` line stands for any run of lines, and all other lines must match
consecutive lines of the output, from its first line to its last. The
README's paths `/tmp/demo32`, `demo.rop` and `/tmp/payload.bin` map to files
under the test's temporary directory.  The python blocks run in turn in one
namespace, with `/tmp/demo32` mapped the same way, and their chain's trace
must reach the exit sentinel.
"""

import re
import shlex
from pathlib import Path

from conftest import demo_elf_bytes
from ropforge.cli import main
from ropforge.sim import TerminationKind

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(text: str, lang: str) -> list[str]:
    """The bodies of the fenced blocks whose info string is ``lang``."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    return [body for info, body in blocks if info == lang]


def _commands(text: str) -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for each `$ ropforge` line."""
    commands = []
    for block in _blocks(text, "console"):
        expected = None
        for line in block.splitlines():
            if line.startswith("$ "):
                expected = None
                if line.startswith("$ ropforge "):
                    expected = []
                    commands.append((line[2:], expected))
            elif expected is not None:
                expected.append(line)
    for _, expected in commands:
        while expected and not expected[-1].strip():
            expected.pop()
    return commands


def _pattern(expected: list[str]) -> str:
    return "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected
    )


def test_readme_walkthrough(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ROPFORGE_COLOR", "0")
    text = README.read_text()
    paths = {
        "/tmp/demo32": tmp_path / "demo32",
        "/tmp/payload.bin": tmp_path / "payload.bin",
        "demo.rop": tmp_path / "demo.rop",
    }
    paths["/tmp/demo32"].write_bytes(demo_elf_bytes())
    (chain,) = [b for b in _blocks(text, "") if re.search(r"^binary: ", b, re.M)]
    paths["demo.rop"].write_text(chain.replace("/tmp/demo32", str(paths["/tmp/demo32"])))

    commands = _commands(text)
    assert {line.split()[1] for line, _ in commands} == {
        "symbols", "offset", "gadgets", "build", "verify", "pattern"
    }
    for line, expected in commands:
        argv = [str(paths.get(arg, arg)) for arg in shlex.split(line, comments=True)]
        assert argv[0] == "ropforge"
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        for readme_path, path in paths.items():
            out = out.replace(str(path), readme_path)
        assert re.fullmatch(_pattern(expected), out), (line, expected, out)


def test_readme_library_example(tmp_path, capsys):
    demo = tmp_path / "demo32"
    demo.write_bytes(demo_elf_bytes())
    blocks = _blocks(README.read_text(), "python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(block.replace("/tmp/demo32", str(demo)), namespace)
    assert namespace["trace"].termination.kind is TerminationKind.EXIT_SENTINEL
    assert "0x08048555 x2: pop edi ; pop ebp ; ret (pop_ret(2))" in capsys.readouterr().out
