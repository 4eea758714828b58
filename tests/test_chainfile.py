"""Chain file parsing and resolution tests."""

from pathlib import Path

import pytest

from conftest import ADDR_SECRET_NOPARM, ADDR_SECRET_PARM, ADDR_STR
from ropforge.chain import EXIT_SENTINEL, SCANF_BAD_BYTES
from ropforge.chainfile import load_chain_file, parse_chain_file, resolve
from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf
from ropforge.errors import ChainFileError, SymbolNotFoundError
from ropforge.image import load_image

FIG8 = """
# three-fold iterative chain
binary: vuln32
ret_offset: auto echo
call: SecretFunctionWithoutParm
call: SecretFunctionWithoutParm
call: SecretFunctionWithoutParm
final: sentinel
"""

FIG9 = """
binary: vuln32
ret_offset: 32
call: SecretFunctionWithParm &str
bad_bytes: none
pad_byte: 0x42
format: escaped
"""


def test_parse_defaults():
    cf = parse_chain_file(FIG8)
    assert cf.binary == "vuln32"
    assert cf.ret_offset == "auto echo"
    assert len(cf.calls) == 3
    assert cf.final == "sentinel"
    assert cf.bad_bytes == SCANF_BAD_BYTES
    assert cf.pad_byte == 0x41
    assert cf.out_format == "hex"


def test_parse_overrides():
    cf = parse_chain_file(FIG9)
    assert cf.bad_bytes == frozenset()
    assert cf.pad_byte == 0x42
    assert cf.out_format == "escaped"
    assert cf.calls == [("SecretFunctionWithParm", ["&str"])]


def test_parsed_files_never_share_calls():
    # the defaults are class attributes; only the call list is per file
    first, second = parse_chain_file(FIG8), parse_chain_file(FIG9)
    assert first.calls is not second.calls
    assert len(first.calls) == 3
    assert second.calls == [("SecretFunctionWithParm", ["&str"])]
    first.calls.append(("extra", []))
    assert second.calls == parse_chain_file(FIG9).calls == [("SecretFunctionWithParm", ["&str"])]


def test_resolve_auto_offset_and_symbols(demo_image):
    resolved = resolve(parse_chain_file(FIG8), demo_image)
    assert resolved.spec.ret_offset == 32
    assert [c.target for c in resolved.spec.calls] == [ADDR_SECRET_NOPARM] * 3
    assert resolved.spec.final_target == EXIT_SENTINEL
    assert resolved.stubs[ADDR_SECRET_NOPARM] == ("SecretFunctionWithoutParm", 0)


def test_resolve_amp_symbol_argument(demo_image):
    resolved = resolve(parse_chain_file(FIG9), demo_image)
    call = resolved.spec.calls[0]
    assert call.target == ADDR_SECRET_PARM
    assert call.args == (ADDR_STR,)


def test_resolve_hex_targets(demo_image):
    cf = parse_chain_file("binary: x\nret_offset: 32\ncall: 0x080484a4 0x11 17\n")
    resolved = resolve(cf, demo_image)
    assert resolved.spec.calls[0].target == 0x080484A4
    assert resolved.spec.calls[0].args == (0x11, 17)


def test_unknown_key_rejected():
    with pytest.raises(ChainFileError, match="unknown key"):
        parse_chain_file("binary: x\nretoffset: 32\ncall: f\n")


def test_duplicate_key_rejected():
    with pytest.raises(ChainFileError, match="duplicate"):
        parse_chain_file("binary: x\nbinary: y\ncall: f\n")


def test_no_calls_rejected():
    with pytest.raises(ChainFileError, match="no calls"):
        parse_chain_file("binary: x\nret_offset: 32\n")


def test_malformed_line_rejected():
    with pytest.raises(ChainFileError, match="expected"):
        parse_chain_file("binary x\ncall: f\n")


def test_auto_without_function_rejected(demo_image):
    cf = parse_chain_file("binary: x\nret_offset: auto\ncall: SecretFunctionWithParm\n")
    with pytest.raises(ChainFileError, match="auto"):
        resolve(cf, demo_image)


def test_unknown_symbol_surfaces(demo_image):
    cf = parse_chain_file("binary: x\nret_offset: 32\ncall: NoSuchFn\n")
    with pytest.raises(SymbolNotFoundError):
        resolve(cf, demo_image)


def test_conflicting_stub_arity_rejected(demo_image):
    text = "binary: x\nret_offset: 32\ncall: SecretFunctionWithParm 1\ncall: SecretFunctionWithParm\n"
    with pytest.raises(ChainFileError, match="conflicting"):
        resolve(parse_chain_file(text), demo_image)


def test_bad_byte_values_validated():
    with pytest.raises(ChainFileError):
        parse_chain_file("binary: x\nbad_bytes: 0x1ff\ncall: f\n")
    with pytest.raises(ChainFileError):
        parse_chain_file("binary: x\npad_byte: 300\ncall: f\n")
    with pytest.raises(ChainFileError):
        parse_chain_file("binary: x\nformat: xml\ncall: f\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("pad_byte: x", "pad_byte: 'x' is not an integer"),
        ("bad_bytes: 0x0a zz", "bad_bytes: 'zz' is not an integer"),
    ],
)
def test_non_integer_values_rejected(line, message):
    with pytest.raises(ChainFileError) as info:
        parse_chain_file(f"binary: x\n{line}\ncall: f\n")
    assert str(info.value) == message


def test_comments_and_blank_lines_ignored():
    cf = parse_chain_file("# heading\n\nbinary: x  # trailing\ncall: f 1 2\n")
    assert cf.binary == "x"
    assert cf.calls == [("f", ["1", "2"])]


def test_binary_path_relative_to_chain_file(tmp_path):
    chain = tmp_path / "demo.rop"
    chain.write_text("binary: sub/vuln\ncall: f\n")
    cf = load_chain_file(chain)
    assert Path(cf.binary_file()) == tmp_path / "sub" / "vuln"


def test_stub_is_named_after_the_first_symbol_at_its_address():
    # .symtab comes before .dynsym in image.symbols, so its name wins at an
    # address both tables hold, whichever name the call was written with
    target, other = 0x08048000, 0x08048008
    img = load_image(
        build_elf(
            [SectionSpec(".text", target, b"\xc3" * 16, "ax")],
            symbols=[SymbolSpec("local_b", target, 1), SymbolSpec("local_a", target, 1)],
            dyn_symbols=[SymbolSpec("exported", target, 1), SymbolSpec("dyn_only", other, 1)],
        )
    )
    assert [s.name for s in img.symbols] == ["local_b", "local_a", "exported", "dyn_only"]
    for token in ("local_a", "exported", "0x08048000"):
        cf = parse_chain_file(f"binary: x\nret_offset: 32\ncall: {token} 1\ncall: dyn_only\n")
        stubs = resolve(cf, img).stubs
        assert stubs == {target: ("local_b", 1), other: ("dyn_only", 0)}
