"""CLI end-to-end tests driving main() in-process, plus one console-script check."""

import argparse
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracle_bruteforce
from oracle_bruteforce import reference_classify
from conftest import (
    ADDR_POP2,
    ADDR_SECRET_NOPARM,
    ADDR_SECRET_PARM,
    ADDR_STR,
    insn_text,
    target_on_cleanup_elf,
)
from ropforge import cli
from ropforge.chain import (
    CallStep,
    ChainSpec,
    LayoutWord,
    Role,
    StackLayout,
    emit_payload,
    plan_chain,
)
from ropforge.cli import _RENDER, _annotation_table, _read_payload, main
from ropforge.disasm import decode_window, format_instruction
from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf
from ropforge.gadgets import find_pop_ret
from ropforge.image import EHDR, SHDR, SHT_NOBITS, load_image

FIG8_CHAIN = """\
binary: {binary}
ret_offset: auto echo
call: SecretFunctionWithoutParm
call: SecretFunctionWithoutParm
call: SecretFunctionWithoutParm
final: sentinel
"""

FIG7_CHAIN = """\
binary: {binary}
ret_offset: auto echo
call: SecretFunctionWithParm &str
final: sentinel
"""


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("ROPFORGE_COLOR", "0")


def write_chain(tmp_path, template, binary, name="chain.rop"):
    path = tmp_path / name
    path.write_text(template.format(binary=binary))
    return path


def test_symbols_lists_demo_addresses(demo_binary, capsys):
    assert main(["symbols", str(demo_binary)]) == 0
    out = capsys.readouterr().out
    assert "0804848b F SecretFunctionWithoutParm" in out
    assert "080484a4 F SecretFunctionWithParm" in out
    assert "0804a030 O str" in out


def test_symbols_stripped_warns(stripped_binary, capsys):
    assert main(["symbols", str(stripped_binary)]) == 0
    captured = capsys.readouterr()
    assert "F " not in captured.out
    assert "warning" in captured.err


def test_symbols_missing_file(capsys):
    assert main(["symbols", "/nonexistent/vuln"]) == 2
    assert "error" in capsys.readouterr().err


def test_offset_echo(demo_binary, capsys):
    assert main(["offset", str(demo_binary), "echo"]) == 0
    assert capsys.readouterr().out.strip() == "disp=0x1c saved_fp=4 ret_offset=32"


def test_offset_no_candidate(demo_binary, capsys):
    assert main(["offset", str(demo_binary), "main"]) == 3
    assert "cyclic pattern" in capsys.readouterr().err


def test_offset_disp_0x28(demo_binary, capsys):
    assert main(["offset", str(demo_binary), "read_name"]) == 0
    assert capsys.readouterr().out.strip() == "disp=0x28 saved_fp=4 ret_offset=44"


def test_gadgets_listing(tmp_path, capsys):
    raw = build_elf([SectionSpec(".text", 0x08048000, b"\x90\x58\x5b\xc3\x90", "ax")])
    binary = tmp_path / "mini"
    binary.write_bytes(raw)
    assert main(["gadgets", str(binary)]) == 0
    out = capsys.readouterr().out
    assert "0x08048001: pop eax ; pop ebx ; ret" in out
    assert "0x08048000: nop ; pop eax ; pop ebx ; ret" in out
    assert out.strip().endswith("4 gadgets")


def test_gadgets_class_filter(tmp_path, capsys):
    raw = build_elf([SectionSpec(".text", 0x08048000, b"\x90\x58\x5b\xc3\x90", "ax")])
    binary = tmp_path / "mini"
    binary.write_bytes(raw)
    assert main(["gadgets", str(binary), "--class", "pop_ret", "--arity", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and "gadgets" not in l]
    assert lines == ["0x08048001: pop eax ; pop ebx ; ret"]


def test_gadgets_none_found(tmp_path, capsys):
    raw = build_elf([SectionSpec(".text", 0x08048000, b"\x90" * 16, "ax")])
    binary = tmp_path / "noret"
    binary.write_bytes(raw)
    assert main(["gadgets", str(binary)]) == 0
    assert capsys.readouterr().out.strip() == "0 gadgets"


def test_gadgets_json(demo_binary, capsys):
    import json

    assert main(["gadgets", str(demo_binary), "--json", "--class", "stack_pivot"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {"addr", "bytes_hex", "insns", "class"} == set(lines[0])
    assert any(o["class"] == "stack_pivot(8)" for o in lines)


def test_gadgets_window_back_past_the_section(demo_binary, capsys):
    # a start further back than the section lies before offset 0: nothing more is found
    huge = ["--max-insns", str(10**11)]
    assert main(["gadgets", str(demo_binary), *huge]) == 0
    default = capsys.readouterr().out
    assert main(["gadgets", str(demo_binary), *huge, "--window-back", str(10**12)]) == 0
    assert capsys.readouterr().out == default
    assert default.endswith(" gadgets\n")


def test_build_fig8_payload(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    payload = out_file.read_bytes()
    assert len(payload) == 48  # 32 pad + 4 words
    words = struct.unpack("<4I", payload[32:])
    assert words == (ADDR_SECRET_NOPARM,) * 3 + (0xDEADC0DE,)
    assert payload[:32] == b"A" * 32
    out = capsys.readouterr().out
    assert "func_addr" in out and "final_target" in out


def test_build_hex_format_stdout(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    assert main(["build", str(chain)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("41" * 32 + "a4840408" + "dec0adde" + "30a00408")


def test_build_escaped_format(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    assert main(["build", str(chain), "--format", "escaped"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("\\x41" * 32)
    assert "\\xa4\\x84\\x04\\x08" in out


def test_build_missing_cleanup_gadget(tmp_path, capsys):
    # a binary with a ret but no pop-ret gadgets at all
    raw = build_elf(
        [SectionSpec(".text", 0x08048000, b"\x90\xc3" + b"\xcc" * 14, "ax")],
        symbols=[SymbolSpec("f", 0x08048000, 2), SymbolSpec("g", 0x08048001, 1)],
    )
    binary = tmp_path / "nopops"
    binary.write_bytes(raw)
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {binary}\nret_offset: 16\ncall: f 1\ncall: g\n")
    assert main(["build", str(chain)]) == 5
    assert "pop_ret(1)" in capsys.readouterr().err


def test_build_bad_bytes_exit_code(demo_binary, tmp_path, capsys):
    # 0x0804200a carries both 0x20 and 0x0a; scanf bad bytes are the default
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {demo_binary}\nret_offset: 32\ncall: 0x0804200a\n")
    assert main(["build", str(chain)]) == 4
    err = capsys.readouterr().err
    assert "bad byte 0x0a" in err and "bad byte 0x20" in err
    assert main(["build", str(chain), "--force"]) == 0


def test_build_refusal_writes_nothing(demo_binary, tmp_path, capsys):
    # exit 4 keeps no payload: no --out file, empty stdout, the reasons on stderr
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {demo_binary}\nret_offset: 32\ncall: 0x0804200a\n")
    out_file = tmp_path / "payload.bin"
    for argv in (["build", str(chain), "--out", str(out_file)], ["build", str(chain)]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert not out_file.exists()
        assert captured.out == ""
        assert "0x0020  0a200408  func_addr" in captured.err
        assert "bad byte 0x0a" in captured.err
        assert captured.err.endswith("(use --force to keep it)\n")
    assert main(["build", str(chain), "--out", str(out_file), "--force"]) == 0
    assert out_file.exists() and "wrote" in capsys.readouterr().out


def test_build_bad_bytes_can_be_disabled(demo_binary, tmp_path):
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\ncall: 0x0804200a\nbad_bytes: none\n"
    )
    assert main(["build", str(chain)]) == 0


def test_verify_fig8(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    captured = capsys.readouterr()
    calls = [l for l in captured.out.splitlines() if l.startswith("CALL")]
    assert calls == ["CALL 0x0804848b SecretFunctionWithoutParm()"] * 3
    assert "EXIT (sentinel)" in captured.out
    assert "OK" in captured.err


def test_verify_fig7_with_global_argument(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    assert "CALL 0x080484a4 SecretFunctionWithParm(0x0804a030)" in out


def test_verify_json(demo_binary, tmp_path, capsys):
    import json

    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    assert main(["verify", str(demo_binary), str(chain), "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["name"] == "SecretFunctionWithParm"
    assert lines[0]["args"] == [f"{ADDR_STR:#010x}"]
    assert lines[-1]["kind"] == "exit_sentinel"


def test_build_then_verify_prebuilt_payload(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    capsys.readouterr()
    assert main(["verify", str(demo_binary), str(chain), "--payload", str(out_file)]) == 0


def test_verify_wrong_ret_offset_diverges(demo_binary, tmp_path, capsys):
    good_chain = write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(good_chain), "--out", str(out_file), "--format", "raw"]) == 0
    # same calls, but the chain now claims the return slot 4 bytes early:
    # the simulator fetches a misaligned first target word and faults
    wrong = tmp_path / "wrong.rop"
    wrong.write_text(
        f"binary: {demo_binary}\nret_offset: 28\n"
        + "call: SecretFunctionWithoutParm\n" * 3
    )
    capsys.readouterr()
    code = main(["verify", str(demo_binary), str(wrong), "--payload", str(out_file)])
    assert code == 6
    captured = capsys.readouterr()
    assert "did not reach the exit sentinel" in captured.err


def test_verify_divergent_trace_exit_6(demo_binary, tmp_path, capsys):
    # payload built for one chain, verified against a different declaration
    chain_a = write_chain(tmp_path, FIG8_CHAIN, demo_binary, "a.rop")
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain_a), "--out", str(out_file), "--format", "raw"]) == 0
    chain_b = tmp_path / "b.rop"
    chain_b.write_text(
        f"binary: {demo_binary}\nret_offset: 32\n" + "call: SecretFunctionWithoutParm\n" * 2
    )
    capsys.readouterr()
    assert main(["verify", str(demo_binary), str(chain_b), "--payload", str(out_file)]) == 6
    assert "diverges" in capsys.readouterr().err


def test_pattern_roundtrip(capsys):
    assert main(["pattern", "100"]) == 0
    pat = capsys.readouterr().out.strip()
    assert len(pat) == 100
    window = pat[32:36]
    value = struct.unpack("<I", window.encode())[0]
    assert main(["pattern", "--locate", hex(value)]) == 0
    assert capsys.readouterr().out.strip() == "offset=32"


def test_pattern_not_found(capsys):
    assert main(["pattern", "--locate", "0x00000000"]) == 3


def test_pattern_locate_reads_a_4_char_window(capsys):
    assert main(["pattern", "--locate", "jaab"]) == 0  # 0x6261616a, as it sits in memory
    assert capsys.readouterr() == ("offset=136\n", "")
    for token in ("jaa", "jaabc"):
        assert main(["pattern", "--locate", token]) == 2
        assert capsys.readouterr() == (
            "",
            "error: --locate takes a 32-bit value or a 4-char window\n",
        )


def test_pattern_needs_a_length_or_locate(capsys):
    assert main(["pattern"]) == 2
    assert capsys.readouterr() == ("", "error: pattern needs a LENGTH or --locate\n")


def test_verify_reports_where_a_payload_stops(demo_binary, tmp_path, capsys):
    chain = write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    payload = tmp_path / "payload"
    for word, line, text in (
        (
            0x41414141,
            '{"type": "termination", "kind": "fault", "fault": "unmapped_fetch", '
            '"addr": "0x41414141"}',
            "FAULT (unmapped fetch at 0x41414141)",
        ),
        (
            0x08048400,  # 0xCC filler
            '{"type": "termination", "kind": "unsupported_instruction", "addr": "0x08048400"}',
            "UNSUPPORTED instruction at 0x08048400",
        ),
    ):
        payload.write_bytes(b"A" * 32 + word.to_bytes(4, "little"))
        argv = ["verify", str(demo_binary), str(chain), "--payload", str(payload)]
        for json_flag, out in (([], text), (["--json"], line)):
            assert main(argv + json_flag) == 6
            assert capsys.readouterr() == (
                out + "\n",
                "verify: chain did not reach the exit sentinel\n",
            )


def test_console_script_installed(demo_binary):
    result = subprocess.run(
        [sys.executable, "-m", "ropforge.cli", "offset", str(demo_binary), "echo"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "disp=0x1c saved_fp=4 ret_offset=32"


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_missing_files_are_named_as_typed(demo_binary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_chain(tmp_path, FIG8_CHAIN, demo_binary)
    (tmp_path / "nobinary.rop").write_text("binary: missing.elf\nret_offset: 32\ncall: f\n")
    cases = [
        (["build", "./missing.rop"], "./missing.rop"),
        (["build", "nobinary.rop"], "./missing.elf"),  # relative to the chain file's directory
        (["verify", "./missing.elf", "chain.rop"], "./missing.elf"),
        (["verify", str(demo_binary), "./missing.rop"], "./missing.rop"),
        (["verify", str(demo_binary), "chain.rop", "--payload", "./missing.bin"], "./missing.bin"),
    ]
    for argv, path in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{path}'\n"


COMMANDS = ("symbols", "offset", "gadgets", "build", "verify", "pattern")

# argv that main hands straight to a subparser, and argv it parses in full.
DISPATCH_CORPUS = [
    [], ["-h"], ["bogus"], ["-h", "build"], ["--", "build", "c"],
    *([name, "-h"] for name in COMMANDS),
    ["symbols"], ["offset", "b"], ["gadgets"], ["build"], ["verify", "b"], ["pattern"],
    ["symbols", "b", "x"], ["offset", "b", "f", "x"], ["gadgets", "b", "x"],
    ["build", "c", "extra"], ["verify", "b", "c", "x"], ["pattern", "5", "6"],
    ["build", "c", "--format", "xml"], ["build", "c", "--format=raw", "--force"],
    ["build", "c", "--fo", "hex"], ["build", "c", "--out"], ["build", "c", "--out=o"],
    ["build", "--", "c"], ["build", "c", "--", "--out"], ["build", "c", "-h"],
    ["build", "c", "--bogus", "x"], ["build", "c", "--out", "o", "--format", "escaped"],
    ["gadgets", "b", "--max-insns", "x"], ["gadgets", "b", "--class=pop_ret"],
    ["gadgets", "b", "--class", "bogus"], ["gadgets", "b", "--max", "3"],
    ["gadgets", "b", "--max-insns=3", "--window-back", "4", "--arity", "2", "--json"],
    ["gadgets", "b", "--h"], ["verify", "b", "c", "--payload"],
    ["verify", "b", "c", "--payload", "p", "--json"], ["verify", "--json", "b", "c"],
    ["pattern", "-5"], ["pattern", "--locate", "0x41"], ["pattern", "--locate"],
    ["symbols", "--", "-b"], ["offset", "-x", "b", "f"],
]


def _recording_parser(seen: list):
    """A fresh parser whose subcommands record (name, namespace) instead of running."""
    real = {name: getattr(cli, f"cmd_{name}") for name in COMMANDS}
    for name in COMMANDS:
        setattr(cli, f"cmd_{name}", lambda args, name=name: seen.append((name, args)))
    try:
        return cli.build_parser.__wrapped__()
    finally:
        for name, cmd in real.items():
            setattr(cli, f"cmd_{name}", cmd)


def _outcome(call):
    """(what ``call()`` returns, or its SystemExit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = call()
        except SystemExit as exc:
            value = exc.code
    return value, out.getvalue(), err.getvalue()


def _fields(name: str, args) -> tuple:
    fields = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    return name, fields


def _dispatch_outcomes(argv: list[str]) -> tuple[tuple, tuple]:
    """What ``build_parser().parse_args(argv)`` and ``main(argv)`` make of
    argv, each as (the command and its fields, or the exit code; stdout;
    stderr)."""
    value, out, err = _outcome(lambda: _recording_parser([]).parse_args(argv))
    if isinstance(value, argparse.Namespace):
        value = _fields(value.command, value)
    expected = value, out, err

    seen: list = []
    parser = _recording_parser(seen)
    real, cli.build_parser = cli.build_parser, lambda: parser
    try:
        value, out, err = _outcome(lambda: main(argv))
    finally:
        cli.build_parser = real
    if seen:
        ((name, args),) = seen
        value = _fields(name, args)
    return expected, (value, out, err)


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_parses_as_parse_args_does(argv):
    expected, got = _dispatch_outcomes(argv)
    assert got == expected


def _drawn_argv(name: str) -> st.SearchStrategy[list[str]]:
    """A ``name`` argv: its positionals (the right number, or any number of
    other words) shuffled with option strings and their values, and with at
    most one word of these: option strings, their ``=`` forms and prefixes,
    every choice and some that are not, int and other words, and the words
    argparse treats specially."""
    command = cli.build_parser().commands[name]
    options = list(command._option_string_actions)
    choices = [str(c) for action in command._actions for c in action.choices or ()]
    values = [*choices, "bogus", "0", "3", "200", "0x41", "x", "b", "c"]
    prefixes = [option[:end] for option in options for end in range(2, len(option))]
    odd = st.one_of(
        st.sampled_from(options),
        st.sampled_from([*values, "-h", "--", "-", "-5", ""]),
        st.sampled_from(prefixes),
        st.builds("{}={}".format, st.sampled_from(options), st.sampled_from(values)),
    )

    def words_for(action) -> list[str]:
        """Words ``action`` takes, and one it rejects."""
        if action.choices:
            return [*map(str, action.choices), "bogus"]
        return ["0", "200", "x"] if action.type is int else ["b", "c", "0x41"]

    def option_and_value(option: str) -> st.SearchStrategy[tuple[str, ...]]:
        action = command._option_string_actions[option]
        if action.nargs == 0:
            return st.just((option,))
        return st.tuples(st.just(option), st.sampled_from([*words_for(action), "-h"]))

    plain = [option for option in options if option not in ("-h", "--help")]
    one = st.sampled_from(plain).flatmap(option_and_value) if plain else st.just(())
    positionals = [action for action in command._actions if not action.option_strings]
    parts = st.tuples(
        st.tuples(*(st.sampled_from(words_for(a)).map(lambda w: (w,)) for a in positionals))
        | st.lists(st.sampled_from(values).map(lambda w: (w,)), max_size=len(positionals) + 1),
        st.lists(one, max_size=3),
        st.lists(odd.map(lambda w: (w,)), max_size=1),
    )
    chunks = parts.flatmap(lambda drawn: st.permutations([c for part in drawn for c in part]))
    return chunks.map(lambda chunks: [name, *(w for chunk in chunks for w in chunk)])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(_drawn_argv))
def test_main_parses_drawn_argv_as_parse_args_does(argv):
    expected, got = _dispatch_outcomes(argv)
    assert got == expected


def test_main_parses_plain_argv_without_argparse(demo_binary, tmp_path, monkeypatch):
    binary, chain, payload = str(demo_binary), tmp_path / "demo.rop", str(tmp_path / "p.bin")
    chain.write_text(
        f"binary: {binary}\nret_offset: auto echo\ncall: SecretFunctionWithParm &str\n"
        "call: SecretFunctionWithoutParm\ncall: SecretFunctionWithoutParm\nfinal: sentinel\n"
    )
    chain = str(chain)
    cases = [  # the benchmark's two request shapes, then the README walkthrough
        ["build", chain, "--out", payload, "--format", "raw", "--force"],
        ["verify", binary, chain, "--payload", payload],
        ["symbols", binary],
        ["offset", binary, "echo"],
        ["gadgets", binary, "--class", "pop_ret"],
        ["build", chain, "--out", payload, "--format", "raw"],
        ["verify", binary, chain, "--payload", payload],
        ["pattern", "200"],
        ["pattern", "--locate", "0x6261616a"],
    ]
    expected = [_outcome(lambda: main(argv)) for argv in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    got = [_outcome(lambda: main(argv)) for argv in cases]
    assert [code for code, _, _ in got] == [0] * len(cases)
    assert got == expected
    assert got[-1][1] == "offset=136\n"


def test_build_and_verify_skip_pop_esp_cleanup(tmp_path):
    # pop esp ; ret sits below the only usable cleanup, pop eax ; ret
    text = b"\xcc" * 16 + b"\x5c\xc3" + b"\xcc" * 14 + b"\x58\xc3"
    binary = tmp_path / "popesp"
    binary.write_bytes(build_elf([SectionSpec(".text", 0x08048000, text, "ax")]))
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {binary}\nret_offset: 32\n"
        "call: 0x08048000 0x1234\ncall: 0x08048004\nbad_bytes: none\n"
    )
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    assert main(["verify", str(binary), str(chain), "--payload", str(out_file)]) == 0


def test_build_and_verify_arity_5_and_6_cleanup(tmp_path):
    # pop^5 ; ret and pop^6 ; ret are 6 and 7 instructions long, past the
    # default --max-insns of the gadget listing
    pop5, pop6 = b"\x58\x59\x5a\x5b\x5d\xc3", b"\x58\x59\x5a\x5b\x5d\x5e\xc3"
    text = b"\xcc" * 16 + pop5 + b"\xcc" * 10 + pop6
    binary = tmp_path / "longpops"
    binary.write_bytes(build_elf([SectionSpec(".text", 0x08048000, text, "ax")]))
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {binary}\nret_offset: 32\nbad_bytes: none\n"
        "call: 0x08048000 1 2 3 4 5\ncall: 0x08048004 1 2 3 4 5 6\ncall: 0x08048008\n"
    )
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    words = [w for (w,) in struct.iter_unpack("<I", out_file.read_bytes()[32:])]
    assert words == [
        0x08048000, 0x08048010, 1, 2, 3, 4, 5,
        0x08048004, 0x08048020, 1, 2, 3, 4, 5, 6,
        0x08048008, 0xDEADC0DE,
    ]
    assert main(["verify", str(binary), str(chain), "--payload", str(out_file)]) == 0


def test_call_with_more_than_6_arguments_is_a_planning_failure(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\ncall: SecretFunctionWithParm 1 2 3 4 5 6 7\n"
    )
    for argv in (["build", str(chain)], ["verify", str(demo_binary), str(chain)]):
        assert main(argv) == 5
        assert capsys.readouterr().err == "error: call 0 passes 7 arguments (max 6)\n"


def test_verify_payload_observes_a_call_with_more_than_6_arguments(
    demo_binary, tmp_path, capsys
):
    # the planner caps arity, the simulator does not: a hand-built final call
    # with 7 arguments needs no cleanup and verifies
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\ncall: SecretFunctionWithParm 1 2 3 4 5 6 7\n"
    )
    payload = tmp_path / "payload.bin"
    payload.write_bytes(
        b"A" * 32 + struct.pack("<9I", ADDR_SECRET_PARM, 0xDEADC0DE, 1, 2, 3, 4, 5, 6, 7)
    )
    assert main(["verify", str(demo_binary), str(chain), "--payload", str(payload)]) == 0
    args = ", ".join(f"{a:#010x}" for a in range(1, 8))
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"CALL 0x080484a4 SecretFunctionWithParm({args})"


def test_build_and_verify_reject_conflicting_stub_arities(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\n"
        "call: SecretFunctionWithParm 1\ncall: SecretFunctionWithParm 1 2\n"
    )
    for argv in (["build", str(chain)], ["verify", str(demo_binary), str(chain)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: conflicting arities for stub at 0x080484a4\n"


def test_verify_names_a_target_without_symbol_by_its_address(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {demo_binary}\nret_offset: 32\ncall: 0x0804848c 7\n")
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    assert out == "CALL 0x0804848c sub_0804848c(0x00000007)\nEXIT (sentinel)\n"


def test_crlf_chain_file_plans_like_its_lf_twin(demo_binary, tmp_path, capsys):
    # The file is read as UTF-8 whatever the locale, so the comment decodes too.
    text = FIG7_CHAIN.format(binary=demo_binary) + "call: SecretFunctionWithoutParm\n"
    text = "# entrée\n" + text
    outputs = []
    for name, newline in (("lf.rop", b"\n"), ("crlf.rop", b"\r\n")):
        (tmp_path / name).write_bytes(text.encode().replace(b"\n", newline))
        assert main(["build", str(tmp_path / name), "--format", "escaped"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "cleanup_gadget" in outputs[0].err


def test_undecodable_chain_file_exits_2(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    chain.write_bytes(FIG7_CHAIN.format(binary=demo_binary).encode() + b"# \xff\xfe\n")
    for argv in (["build", str(chain)], ["verify", str(demo_binary), str(chain)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "can't decode byte 0xff" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("bad_bytes", ["", "bad_bytes: none\n"], ids=["scanf", "none"])
def test_section_past_4_gib_exits_2(tmp_path, capsys, bad_bytes):
    # pop ebp ; ret at 0x100000004, past the 32-bit address space
    text = b"\x90" * 0x14 + b"\x5d\xc3" + b"\x90" * 10
    binary = tmp_path / "high"
    binary.write_bytes(
        build_elf(
            [
                SectionSpec(".text", 0xFFFFFFF0, text, "ax"),
                SectionSpec(".data", 0x0804A000, bytes(16), "wa"),
            ],
            symbols=[
                SymbolSpec("f", 0xFFFFFFF0, 4),
                SymbolSpec("g", 0xFFFFFFF8, 4),
                SymbolSpec("s", 0x0804A000, 4, "object"),
            ],
        )
    )
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {binary}\nret_offset: 16\ncall: f &s\ncall: g\n{bad_bytes}")
    for argv in (
        ["gadgets", str(binary)],
        ["build", str(chain)],
        ["verify", str(binary), str(chain)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: section '.text' at 0xfffffff0+0x20 runs past 4 GiB\n"


def _bss_binaries(tmp_path, bss_vaddr, bss_size):
    """A binary whose 16-byte ``.bss`` has file bytes, and a copy whose ``.bss``
    header says ``SHT_NOBITS``, ``bss_size`` bytes at ``bss_vaddr``."""
    raw = build_elf(
        [
            SectionSpec(".text", 0x08048000, b"\x5f\x5d\xc3\x90\x58\xc3", "ax"),
            SectionSpec(".bss", 0x0804A000, bytes(16), "wa"),
        ],
        symbols=[SymbolSpec("f", 0x08048000, 6), SymbolSpec("counter", 0x0804A000, 4, "object")],
    )
    shoff, shnum = EHDR.unpack_from(raw)[6], EHDR.unpack_from(raw)[12]
    headers = range(shoff, shoff + shnum * SHDR.size, SHDR.size)
    at = next(a for a in headers if SHDR.unpack_from(raw, a)[3] == 0x0804A000)
    nobits = bytearray(raw)
    struct.pack_into("<I", nobits, at + 4, SHT_NOBITS)  # sh_type
    struct.pack_into("<I", nobits, at + 12, bss_vaddr)  # sh_addr
    struct.pack_into("<I", nobits, at + 20, bss_size)  # sh_size
    (tmp_path / "progbits").write_bytes(raw)
    (tmp_path / "nobits").write_bytes(nobits)
    return tmp_path / "progbits", tmp_path / "nobits"


def test_nobits_section_of_200_mib_is_not_loaded(tmp_path, capsys):
    # a .bss has no file bytes: nothing is loaded for it, whatever its size
    progbits, nobits = _bss_binaries(tmp_path, 0x0804A000, 200 << 20)
    assert [s.name for s in load_image(nobits.read_bytes()).sections] == [".text"]
    assert main(["symbols", str(nobits)]) == 0
    assert capsys.readouterr() == ("08048000 F f\n0804a000 O counter\n", "")
    assert main(["gadgets", str(nobits)]) == 0
    listing = capsys.readouterr()
    assert listing == (
        "0x08048000: pop edi ; pop ebp ; ret\n"
        "0x08048001: pop ebp ; ret\n"
        "0x08048002: ret\n"
        "0x08048003: nop ; pop eax ; ret\n"
        "0x08048004: pop eax ; ret\n"
        "0x08048005: ret\n"
        "6 gadgets\n",
        "",
    )
    # .bss holds no code: the listing is the one of its twin with .bss bytes in the file
    assert main(["gadgets", str(progbits)]) == 0
    assert capsys.readouterr() == listing


def test_nobits_section_past_4_gib_exits_2(tmp_path, capsys):
    _, nobits = _bss_binaries(tmp_path, 0xFFFFF000, 200 << 20)
    for command in ("symbols", "gadgets"):
        assert main([command, str(nobits)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: section '.bss' at 0xfffff000+0xc800000 runs past 4 GiB\n",
        )


def test_build_rejects_ret_offset_past_16_mib(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    for offset in (1152921504606846976, (1 << 24) + 1):
        chain.write_text(
            f"binary: {demo_binary}\nret_offset: {offset}\ncall: SecretFunctionWithoutParm\n"
        )
        assert main(["build", str(chain), "--format", "raw", "--out", str(tmp_path / "p")]) == 2
        assert "ret_offset" in capsys.readouterr().err


def test_verify_rejects_words_outside_32_bits(demo_binary, tmp_path, capsys):
    chain = tmp_path / "chain.rop"
    for line in (
        "call: 0x1ffffffff",
        "call: SecretFunctionWithParm 0x100000000",
        f"call: SecretFunctionWithParm {-(1 << 31) - 1}",
        "call: SecretFunctionWithoutParm\nfinal: 0x100000000",
    ):
        chain.write_text(f"binary: {demo_binary}\nret_offset: auto echo\n{line}\n")
        assert main(["verify", str(demo_binary), str(chain)]) == 2
        assert "32-bit word" in capsys.readouterr().err
    # the extremes of the range still resolve; a negative word is two's complement
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: auto echo\n"
        f"call: SecretFunctionWithParm {-(1 << 31)}\ncall: SecretFunctionWithParm -1\n"
    )
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    assert "SecretFunctionWithParm(0x80000000)" in out
    assert "SecretFunctionWithParm(0xffffffff)" in out
    # a negative final is two's complement too: this one is the sentinel
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: auto echo\n"
        "call: SecretFunctionWithoutParm\nfinal: -559038242\n"
    )
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    assert "EXIT (sentinel)" in capsys.readouterr().out


def test_build_picks_cleanup_gadget_free_of_bad_bytes(tmp_path, capsys):
    # the lowest pop ; ret sits at 0x08048020 (0x20 is a scanf bad byte); a
    # clean pop ecx ; ret sits higher at 0x08048030
    text = b"\xcc" * 0x20 + b"\x58\xc3" + b"\xcc" * 14 + b"\x59\xc3"
    binary = tmp_path / "dirtypop"
    binary.write_bytes(build_elf([SectionSpec(".text", 0x08048000, text, "ax")]))
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {binary}\nret_offset: 32\ncall: 0x08048000 0x1234\ncall: 0x08048004\n"
    )
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    words = [w for (w,) in struct.iter_unpack("<I", out_file.read_bytes()[32:])]
    assert words == [0x08048000, 0x08048030, 0x1234, 0x08048004, 0xDEADC0DE]
    assert "bad byte" not in capsys.readouterr().err
    assert main(["verify", str(binary), str(chain), "--payload", str(out_file)]) == 0


def test_build_passes_over_a_cleanup_run_that_holds_a_call_target(tmp_path, capsys):
    # the lowest pop eax ; ret is f itself: the simulator takes it as the
    # call, so build picks the next run, and with none left exits 5
    binary = tmp_path / "targetpop"
    binary.write_bytes(target_on_cleanup_elf())
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {binary}\nret_offset: 8\ncall: f 7\ncall: g\n")
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    words = [w for (w,) in struct.iter_unpack("<I", out_file.read_bytes()[8:])]
    f, g, cleanup = 0x08048000, 0x08050000, 0x08048010
    assert words == [f, cleanup, 7, g, 0xDEADC0DE]
    capsys.readouterr()
    assert main(["verify", str(binary), str(chain), "--payload", str(out_file)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"CALL {f:#010x} f(0x00000007)",
        f"CALL {g:#010x} g()",
        "EXIT (sentinel)",
    ]
    chain.write_text(f"binary: {binary}\nret_offset: 8\ncall: f 7\ncall: {cleanup:#x}\n")
    assert main(["build", str(chain), "--out", str(tmp_path / "p")]) == 5
    assert "no pop_ret(1) gadget is available" in capsys.readouterr().err


def test_build_reports_bad_cleanup_address_when_none_is_clean(tmp_path, capsys):
    # the only pop ; ret sits at 0x08048020: it is kept, reported, and exit 4 stands
    text = b"\xcc" * 0x20 + b"\x58\xc3"
    binary = tmp_path / "dirtypop"
    binary.write_bytes(build_elf([SectionSpec(".text", 0x08048000, text, "ax")]))
    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {binary}\nret_offset: 32\ncall: 0x08048000 0x1234\ncall: 0x08048004\n"
    )
    assert main(["build", str(chain), "--format", "raw", "--out", str(tmp_path / "p")]) == 4
    assert "bad byte 0x20 at offset 36 (cleanup_gadget)" in capsys.readouterr().err


def test_pattern_locate_rejects_values_wider_than_32_bits(capsys):
    for token in ("0x6261616a", "0X6261616A"):
        assert main(["pattern", "--locate", token]) == 0
        assert capsys.readouterr().out.strip() == "offset=136"
    for token in ("0x16261616a", "0x100000000", str(1 << 32)):
        assert main(["pattern", "--locate", token]) == 2
        assert "32 bits" in capsys.readouterr().err
    for token in ("0123", "0x", "0xg1"):
        assert main(["pattern", "--locate", token]) == 2
        err = capsys.readouterr().err
        assert err == "error: --locate takes a 32-bit value or a 4-char window\n"
    assert main(["pattern", "--locate", "0xffffffff"]) == 3  # widest value, not in the pattern


def test_consecutive_main_calls_match_fresh_processes(demo_binary, tmp_path, capsys):
    # the parser is built once per process: no flag may carry over between calls
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {demo_binary}\nret_offset: 32\ncall: 0x0804200a\n")
    sequence = [
        ["gadgets", str(demo_binary), "--json"],
        ["gadgets", str(demo_binary)],
        ["build", str(chain), "--force"],
        ["build", str(chain)],
    ]
    in_process = []
    for argv in sequence:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in sequence:
        result = subprocess.run(
            [sys.executable, "-m", "ropforge.cli", *argv], capture_output=True, text=True
        )
        fresh.append((result.returncode, result.stdout))
    assert in_process == fresh
    assert [code for code, _ in in_process] == [0, 0, 0, 4]
    assert in_process[0][1].startswith("{") and in_process[1][1].startswith("0x")


def _oracle_listing(
    sections, wanted=None, arity=None, as_json=False, max_insns=5, window_back=20, color=True
):
    """The `gadgets` listing built from the brute-force window oracle."""
    occurrences: dict[bytes, list[int]] = {}
    for vaddr, data in sections:
        found = oracle_bruteforce.brute_force_gadget_map(data, vaddr, window_back, max_insns)
        for raw, addrs in found.items():
            occurrences.setdefault(raw, []).extend(addrs)
    rows = []
    for raw, addrs in occurrences.items():
        lowest = min(addrs)
        insns = tuple(decode_window(raw, 0, len(raw), base_vaddr=lowest))
        # the oracle's own decode: a Gadget would decode through ropforge.gadgets
        gclass = reference_classify(SimpleNamespace(insns=insns))
        if wanted is not None and gclass.kind != wanted:
            continue
        if arity is not None and gclass.arity != arity:
            continue
        for a in addrs:
            if as_json:
                fields = {
                    "addr": f"{a:#010x}",
                    "bytes_hex": raw.hex(),
                    "insns": [format_instruction(i) for i in insns],
                    "class": gclass.render(),
                }
                rows.append((a, fields))
            else:
                text = " ; ".join(format_instruction(i) for i in insns)
                addr = f"\x1b[36m{a:#010x}\x1b[0m" if color else f"{a:#010x}"
                rows.append((a, f"{addr}: {text}"))
    rows.sort(key=lambda row: row[0])
    return [line for _, line in rows]


def test_gadgets_listing_matches_brute_force_over_two_sections(tmp_path, capsys, monkeypatch):
    # pop eax ; ret occurs three times over two sections, listed high section first
    low = (0x08048000, b"\x90\x58\xc3\xcc\x5e\x5f\xc3\x05\xc3\x00\x00\x00\xff\xe0")
    high = (0x08049000, b"\x58\xc3\xcc\x83\xc4\x08\xc3\xcc\x90\x58\xc3\xff\xd1\x5b\xc3")
    binary = tmp_path / "twosections"
    binary.write_bytes(
        build_elf([SectionSpec(".text2", *high, "ax"), SectionSpec(".text", *low, "ax")])
    )
    monkeypatch.setenv("ROPFORGE_COLOR", "1")
    sections = [low, high]

    assert main(["gadgets", str(binary)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = _oracle_listing(sections)
    assert lines == expected + [f"{len(expected)} gadgets"]
    assert sum(line.endswith(": pop eax ; ret") for line in lines) == 3

    assert main(["gadgets", str(binary), "--json"]) == 0
    objects = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert objects == _oracle_listing(sections, as_json=True)

    assert main(["gadgets", str(binary), "--class", "pop_ret", "--arity", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = _oracle_listing(sections, "pop_ret", 1)
    assert len(expected) == 5
    assert lines == expected + ["5 gadgets"]

    assert main(["gadgets", str(binary), "--json", "--class", "other"]) == 0
    objects = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert objects == _oracle_listing(sections, "other", as_json=True)
    assert objects


def test_executable_section_overlapping_another_exits_2(tmp_path, capsys):
    # .a and .b both start at 0x08048000: the listing once read pop eax ; ret
    # there from .b and build planned it as the cleanup, while the simulator
    # fetched .a's int3 (verify exit 6); the run at 0x08048018 was valid
    text_b = b"\x58\xc3" + b"\xcc" * 22 + b"\x58\xc3" + b"\xcc" * 6
    binary = tmp_path / "overlap"
    binary.write_bytes(
        build_elf(
            [
                SectionSpec(".a", 0x08048000, b"\xcc" * 16, "ax"),
                SectionSpec(".b", 0x08048000, text_b, "ax"),
                SectionSpec(".f", 0x08050000, b"\xc3" * 16, "ax"),
            ],
            symbols=[SymbolSpec("f", 0x08050000, 4), SymbolSpec("g", 0x08050004, 4)],
        )
    )
    chain = tmp_path / "chain.rop"
    chain.write_text(f"binary: {binary}\nret_offset: 8\ncall: f 7\ncall: g\nbad_bytes: none\n")
    out_file = tmp_path / "payload.bin"
    for argv in (
        ["gadgets", str(binary)],
        ["build", str(chain), "--out", str(out_file)],
        ["verify", str(binary), str(chain)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: section '.b' at 0x08048000 overlaps another section, "
            "and executable bytes must have one source\n"
        )
    assert not out_file.exists()


def test_gadgets_listing_decodes_no_window(demo_binary, demo_image, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the listing decoded a whole window")

    monkeypatch.setattr("ropforge.gadgets.decode_window", refuse)
    sections = [(s.vaddr, s.data) for s in demo_image.executable_sections()]
    assert main(["gadgets", str(demo_binary)]) == 0
    expected = _oracle_listing(sections, color=False)
    assert capsys.readouterr().out.splitlines() == expected + [f"{len(expected)} gadgets"]
    assert main(["gadgets", str(demo_binary), "--json", "--class", "pop_ret"]) == 0
    objects = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert objects == _oracle_listing(sections, "pop_ret", as_json=True)


def test_planner_decodes_no_gadget(demo_binary, demo_image, tmp_path, capsys, monkeypatch):
    # the cleanup search answers with bytes and an address: planning,
    # build and verify decode no gadget
    def refuse(*args, **kwargs):
        raise AssertionError("the planner decoded a gadget")

    calls = (CallStep(ADDR_SECRET_PARM, (ADDR_STR, ADDR_STR)), CallStep(ADDR_SECRET_NOPARM))
    chain = tmp_path / "pop2.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: auto echo\n"
        "call: SecretFunctionWithParm &str &str\ncall: SecretFunctionWithoutParm\n"
    )
    payload = tmp_path / "payload.bin"
    with monkeypatch.context() as m:
        m.setattr("ropforge.gadgets.decode_window", refuse)
        layout = plan_chain(ChainSpec(calls=calls, ret_offset=32), demo_image)
        assert layout.words[1].value == ADDR_POP2
        assert main(["build", str(chain), "--format", "raw", "--out", str(payload)]) == 0
        assert f"cleanup_gadget  {ADDR_POP2:#010x}" in capsys.readouterr().out
        assert main(["verify", str(demo_binary), str(chain), "--payload", str(payload)]) == 0
        assert main(["verify", str(demo_binary), str(chain)]) == 0
        out = capsys.readouterr().out
    assert out.count("SecretFunctionWithParm(0x0804a030, 0x0804a030)") == 2
    g = find_pop_ret(demo_image, 2)
    assert g.insns == tuple(decode_window(g.data, 0, len(g.data), base_vaddr=g.vaddr))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(insn_text, min_size=1, max_size=2),
    st.sampled_from([None, "pop_ret", "ret_only", "stack_pivot", "other"]),
    st.one_of(st.none(), st.integers(0, 3)),
    st.booleans(),
    st.integers(1, 5),
    st.integers(1, 24),
)
def test_gadgets_flags_match_brute_force(texts, wanted, arity, as_json, max_insns, window_back):
    sections = [(0x08048000 + 0x1000 * i, data) for i, data in enumerate(texts)]
    argv = ["--max-insns", str(max_insns), "--window-back", str(window_back)]
    argv += ["--class", wanted] if wanted else []
    argv += ["--arity", str(arity)] if arity is not None else []
    argv += ["--json"] if as_json else []
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        binary = Path(tmp) / "target"
        specs = [SectionSpec(f".text{i}", *section, "ax") for i, section in enumerate(sections)]
        binary.write_bytes(build_elf(specs[::-1]))
        with contextlib.redirect_stdout(out):
            assert main(["gadgets", str(binary), *argv]) == 0
    expected = _oracle_listing(
        sections, wanted, arity, as_json, max_insns, window_back, color=False
    )
    if as_json:
        assert [json.loads(line) for line in out.getvalue().splitlines()] == expected
    else:
        assert out.getvalue().splitlines() == expected + [f"{len(expected)} gadgets"]


@pytest.mark.parametrize("fmt", [None, "hex", "escaped", "raw"])
def test_verify_reads_payloads_build_wrote(demo_binary, tmp_path, capsys, fmt):
    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    out_file = tmp_path / "payload"
    extra = [] if fmt is None else ["--format", fmt]
    assert main(["build", str(chain), "--out", str(out_file), *extra]) == 0
    capsys.readouterr()
    assert main(["verify", str(demo_binary), str(chain), "--payload", str(out_file)]) == 0
    err = capsys.readouterr().err
    if fmt == "raw":
        assert "read as" not in err
    else:
        assert f"verify: payload read as {fmt or 'hex'}\n" in err
    assert "OK: trace matches" in err


def _annotation_table_by_cell(payload):
    """The annotation table as each cell ``ljust``ed to its column's width."""
    data, pad_len = payload.data, payload.layout.pad_len
    rows = [("0x0000", f"{data[0]:02x} x{pad_len}", "padding", "")] if pad_len else []
    for i, w in enumerate(payload.layout.words):
        offset = pad_len + i * 4
        content = data[offset : offset + 4].hex()
        rows.append((f"{offset:#06x}", content, w.role.value, f"{w.value & 0xFFFFFFFF:#010x}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip() for row in rows]


def _table_or_error(table, payload):
    try:
        return table(payload)
    except ValueError as exc:  # no rows: no column has a width
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0, 1]) | st.integers(0, 1 << 24),
    st.lists(
        st.builds(LayoutWord, st.integers(-(1 << 31), 0xFFFFFFFF), st.sampled_from(Role)),
        max_size=20,
    ),
    st.integers(0, 255),
)
def test_annotation_table_matches_per_cell_rendering(pad_len, words, pad_byte):
    payload = emit_payload(StackLayout(pad_len, tuple(words)), pad_byte)
    got = _table_or_error(_annotation_table, payload)
    assert got == _table_or_error(_annotation_table_by_cell, payload)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=64))  # an empty payload renders "\n" in both
def test_read_payload_inverts_the_text_formats(data):
    for fmt in ("hex", "escaped"):
        assert _read_payload(_RENDER[fmt](data)) == (data, fmt)
    raw = b"A" + data  # the default pad byte never starts a text rendering
    assert _read_payload(raw) == (raw, "raw")


def test_read_payload_round_trips_empty_and_one_byte_payloads():
    # an empty payload renders "\n" in both text formats and reads back as hex
    for fmt in ("hex", "escaped"):
        assert _read_payload(_RENDER[fmt](b"")) == (b"", "hex")
    for byte in range(256):
        data = bytes([byte])
        for fmt in ("hex", "escaped"):
            assert _read_payload(_RENDER[fmt](data)) == (data, fmt)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=64).filter(lambda d: any(c in "abcdef" for c in d.hex())))
def test_read_payload_reads_upper_case_hex_as_raw(data):
    # build renders lower-case digits only, so an upper-case file is no rendering of it
    digits = data.hex().upper()
    escaped = "".join(f"\\x{digits[i:i + 2]}" for i in range(0, len(digits), 2))
    for blob in (digits.encode() + b"\n", escaped.encode() + b"\n"):
        assert _read_payload(blob) == (blob, "raw")


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=2, max_size=64), st.data())
def test_read_payload_reads_hex_with_whitespace_as_raw(data, draw):
    # bytes.fromhex skips whitespace and binascii.unhexlify does not, but a file
    # holding whitespace is no rendering, so it reads as raw with either codec.
    # The spaced file is 2n + 3 bytes ending in a newline, so it reaches the codec.
    digits = data.hex().encode()
    at = 2 * draw.draw(st.integers(1, len(data) - 1))
    for blob in (digits[:at] + b" " + digits[at:] + b"\r\n", digits + b"\r\n"):
        assert bytes.fromhex(blob.decode()) == data
        assert _read_payload(blob) == (blob, "raw")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_escaped_format_renders_every_byte(data):
    expected = "".join(f"\\x{b:02x}" for b in data).encode() + b"\n"
    assert _RENDER["escaped"](data) == expected


@pytest.mark.parametrize(
    "blob",
    [b"", b"4142", b"414\n", b"4A\n", b"41 42\n"]
    + [b"41424", b"\\x41\\x4\n", b"\\X41\n", b"\\x41x\n", b"\\x41!", b"\\x41\n\n"],
)
def test_read_payload_keeps_near_misses_raw(blob):
    assert _read_payload(blob) == (blob, "raw")


@pytest.mark.parametrize("ret_offset", [70_000, 1 << 24])
def test_build_then_verify_large_ret_offset(demo_binary, tmp_path, capsys, ret_offset):
    # the simulator's stack grows with the payload up to the largest ret_offset build accepts
    chain = tmp_path / "chain.rop"
    chain.write_text(FIG7_CHAIN.format(binary=demo_binary).replace("auto echo", str(ret_offset)))
    out_file = tmp_path / "payload.bin"
    assert main(["build", str(chain), "--out", str(out_file), "--format", "raw"]) == 0
    capsys.readouterr()
    assert main(["verify", str(demo_binary), str(chain), "--payload", str(out_file)]) == 0
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    assert out.count("CALL 0x080484a4 SecretFunctionWithParm(0x0804a030)\n") == 2


def test_only_gadgets_imports_numpy(demo_binary, tmp_path):
    chain = write_chain(tmp_path, FIG7_CHAIN, demo_binary)
    script = (
        "import sys\n"
        "from ropforge.cli import main\n"
        f"assert main(['build', {str(chain)!r}, '--out', {str(tmp_path / 'p')!r}]) == 0\n"
        f"assert main(['verify', {str(demo_binary)!r}, {str(chain)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        f"assert main(['gadgets', {str(demo_binary)!r}]) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["ropforge.cli", "ropforge.elfbuild"])
def test_import_loads_neither_dataclasses_nor_numpy(module):
    # -S: no site-packages, so no .pth file imports either module first
    src = str(Path(cli.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}\n"
        "print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# A change that alters the CLI's output on purpose updates both and says why.
DIGEST_RECORDS = 7456
DIGEST = "61f010ed63cc3c51858d9d693637e8d338868cb13bcec4293a95a3af8d4f1fd8"


def test_cli_output_matches_the_recorded_digest():
    """Every byte ``tests/cli_digest.py``'s corpus prints or writes, in
    process; the run leaves the environment, directory and path as it found
    them."""
    before = (os.environ.get("ROPFORGE_COLOR"), os.getcwd(), sys.path[:])
    import cli_digest

    assert cli_digest.digest() == (DIGEST_RECORDS, DIGEST)
    assert (os.environ.get("ROPFORGE_COLOR"), os.getcwd(), sys.path) == before
