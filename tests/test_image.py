"""Loader tests: parsing, symbol queries, frame displacement, rejection totality."""

import enum
import inspect
import re
import shutil
import subprocess

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    ADDR_ECHO,
    ADDR_SECRET_NOPARM,
    ADDR_SECRET_PARM,
    ADDR_STR,
    DATA_VADDR,
    TEXT_VADDR,
    demo_elf_bytes,
)
import ropforge
from ropforge import errors, image
from ropforge.elfbuild import SectionSpec, SymbolSpec, build_elf
from ropforge.errors import (
    AmbiguousSymbolError,
    NoCandidateError,
    NotElfError,
    OutOfRangeError,
    RopforgeError,
    SymbolNotFoundError,
    TruncatedError,
    UnsupportedError,
)
from ropforge.image import (
    BinaryImage,
    load_image,
    lookup_symbol,
    read_virtual,
    stack_frame_displacement,
)


def test_minimal_single_section_image():
    raw = build_elf([SectionSpec(".text", 0x08048000, b"\x90\xc3", "ax")])
    img = load_image(raw)
    assert len(img.sections) == 1
    sec = img.sections[0]
    assert sec.vaddr == 0x08048000
    assert sec.executable
    assert sec.data == b"\x90\xc3"


def test_demo_binary_layout(demo_image):
    text = next(s for s in demo_image.sections if s.name == ".text")
    data = next(s for s in demo_image.sections if s.name == ".data")
    assert text.executable and not data.executable
    assert text.vaddr == TEXT_VADDR
    assert data.vaddr == DATA_VADDR
    assert demo_image.executable_sections() == (text,)


def _readelf(*args):
    readelf = shutil.which("readelf")
    if readelf is None:
        pytest.fail("readelf not available for the cross-check oracle")
    return subprocess.run([readelf, *args], capture_output=True, text=True, check=True).stdout


def test_readelf_cross_check(demo_binary):
    """The synthetic builder's output must parse identically under an
    independent ELF reader (binutils readelf)."""
    sections = _readelf("-S", "--wide", str(demo_binary))
    assert re.search(rf"\.text\s+PROGBITS\s+{TEXT_VADDR:08x}\s+\S+\s+000200 00\s+AX", sections)
    assert re.search(rf"\.data\s+PROGBITS\s+{DATA_VADDR:08x}\s+\S+\s+000030 00\s+WA", sections)
    symbols = _readelf("-s", "--wide", str(demo_binary))
    assert re.search(
        rf"{ADDR_SECRET_PARM:08x}\s+7 FUNC\s+GLOBAL DEFAULT\s+1 SecretFunctionWithParm", symbols
    )
    assert re.search(
        rf"{ADDR_SECRET_NOPARM:08x}\s+6 FUNC\s+GLOBAL DEFAULT\s+1 SecretFunctionWithoutParm",
        symbols,
    )
    assert re.search(rf"{ADDR_STR:08x}\s+20 OBJECT\s+GLOBAL DEFAULT\s+2 str", symbols)
    assert re.search(rf"{ADDR_ECHO:08x}\s+46 FUNC\s+GLOBAL DEFAULT\s+1 echo", symbols)


def test_readelf_reads_the_demo_header(demo_binary):
    """The ELF header the writer packs, as binutils reads it."""
    header = _readelf("-h", str(demo_binary))
    fields = dict(re.findall(r"^\s+([^:]+):\s+(.*?)\s*$", header, re.M))
    assert fields["Class"] == "ELF32"
    assert fields["Data"] == "2's complement, little endian"
    assert fields["Type"].startswith("EXEC")
    assert fields["Machine"] == "Intel 80386"
    assert int(fields["Entry point address"], 16) == 0x08048520
    # null, .text, .data, .symtab, .strtab, .shstrtab
    assert fields["Number of section headers"] == "6"
    assert fields["Section header string table index"] == "5"


def test_readelf_reads_dynsym_and_notype_symbols(tmp_path):
    """An alloc-only section, a .dynsym/.dynstr pair and an STT_NOTYPE symbol,
    as binutils reads them."""
    path = tmp_path / "dyn.elf"
    path.write_bytes(
        build_elf(
            [
                SectionSpec(".text", 0x08048000, b"\x90" * 15 + b"\xc3", "ax"),
                SectionSpec(".rodata", 0x08049000, b"ro" * 6, "a"),
            ],
            symbols=[
                SymbolSpec("start", 0x08048000, 16),
                SymbolSpec("mark", 0x08049004, 0, "other"),
            ],
            dyn_symbols=[
                SymbolSpec("dynfn", 0x0804800F, 1),
                SymbolSpec("table", 0x08049000, 12, "object"),
            ],
        )
    )
    out = _readelf("-S", "-s", "--wide", str(path))
    assert re.search(r"\.text\s+PROGBITS\s+08048000\s+\S+\s+000010 00\s+AX", out)
    assert re.search(r"\.rodata\s+PROGBITS\s+08049000\s+\S+\s+00000c 00\s+A\s", out)
    # Each table links to the string table after it: [3] -> [4], [5] -> [6].
    assert re.search(r"\[ 3\] \.symtab\s+SYMTAB\s+00000000\s+\S+\s+000030 10\s+4\s+1\s+1", out)
    assert re.search(r"\[ 4\] \.strtab\s+STRTAB\s+00000000\s+\S+\s+00000c 00\s+0\s+0\s+1", out)
    # The allocated pair sits past .rodata's end, one table after the other.
    assert re.search(r"\[ 5\] \.dynsym\s+DYNSYM\s+0804900c\s+\S+\s+000030 10\s+A\s+6\s+1\s+1", out)
    assert re.search(r"\[ 6\] \.dynstr\s+STRTAB\s+0804903c\s+\S+\s+00000d 00\s+A\s+0\s+0\s+1", out)
    assert re.search(r"08048000\s+16 FUNC\s+GLOBAL DEFAULT\s+1 start", out)
    assert re.search(r"08049004\s+0 NOTYPE\s+GLOBAL DEFAULT\s+2 mark", out)
    assert re.search(r"0804800f\s+1 FUNC\s+GLOBAL DEFAULT\s+1 dynfn", out)
    assert re.search(r"08049000\s+12 OBJECT\s+GLOBAL DEFAULT\s+2 table", out)
    assert "Symbol table '.dynsym' contains 3 entries" in out
    assert "Symbol table '.symtab' contains 3 entries" in out


def test_dynsym_sections_overlap_no_section():
    """.dynsym and .dynstr are allocated at addresses of their own, so
    address 0 stays unmapped and no two allocated sections share a byte."""
    img = load_image(
        build_elf(
            [
                SectionSpec(".data", 0x0804A000, b"d" * 0x20, "wa"),
                SectionSpec(".text", 0x08048000, b"\x90" * 15 + b"\xc3", "ax"),
            ],
            symbols=[SymbolSpec("start", 0x08048000, 16)],
            dyn_symbols=[
                SymbolSpec("dynfn", 0x0804800F, 1),
                SymbolSpec("buf", 0x0804A000, 32, "object"),
            ],
        )
    )
    assert {".dynsym", ".dynstr"} <= {s.name for s in img.sections}
    with pytest.raises(OutOfRangeError):
        read_virtual(img, 0, 8)
    spans = sorted((s.vaddr, s.vaddr + s.size) for s in img.sections)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    for sec in img.sections:
        assert read_virtual(img, sec.vaddr, sec.size) == sec.data


def _specs(*sections):
    """Sections ``.a``, ``.b`` of ``ret`` bytes from (vaddr, size, flags)."""
    return [SectionSpec(f".{c}", v, b"\xc3" * n, f) for c, (v, n, f) in zip("ab", sections)]


def _both_orders(*specs):
    """The ELF of ``specs`` in their header order, then in the reverse one."""
    return [build_elf(list(specs)), build_elf(list(specs[::-1]))]


@pytest.mark.parametrize(
    "first, second",
    [
        ((0x08048000, 16, "ax"), (0x08048000, 8, "ax")),  # the same start
        ((0x08048000, 16, "ax"), (0x08048008, 16, "ax")),  # partly
        ((0x08048000, 32, "ax"), (0x08048008, 8, "ax")),  # one inside the other
        ((0x08048000, 16, "ax"), (0x0804800F, 16, "wa")),  # into a data section
        ((0x08048000, 16, "wa"), (0x08048004, 4, "ax")),  # inside a data section
    ],
    ids=["same-start", "partly", "inside", "into-data", "inside-data"],
)
def test_executable_section_overlapping_another_is_rejected(first, second):
    a, b = _specs(first, second)
    # the message names the section that starts later or, at one start, the
    # one later in the header
    for raw, named in zip(_both_orders(a, b), (b, b if b.vaddr > a.vaddr else a)):
        with pytest.raises(UnsupportedError) as info:
            load_image(raw)
        assert str(info.value) == (
            f"section {named.name!r} at {named.vaddr:#010x} overlaps another section, "
            "and executable bytes must have one source"
        )


@pytest.mark.parametrize(
    "first, second",
    [
        ((0x08048000, 16, "ax"), (0x08048010, 16, "ax")),  # touching
        ((0x08048000, 16, "ax"), (0x08048010, 16, "wa")),  # touching data
        ((0x0804A000, 16, "wa"), (0x0804A008, 4, "wa")),  # two data sections
    ],
    ids=["touching", "touching-data", "data-over-data"],
)
def test_sections_sharing_no_executable_address_load(first, second):
    a, b = _specs(first, second)
    for raw in _both_orders(a, b):
        img = load_image(raw)
        assert sorted((s.name, s.vaddr, s.data) for s in img.sections) == [
            (s.name, s.vaddr, s.data) for s in (a, b)
        ]


def test_symtab_at_address_0_beside_text_there_loads():
    # .symtab is not allocated, so it shares no address with .text at 0
    text = SectionSpec(".text", 0, b"\x90" * 15 + b"\xc3", "ax")
    raw = build_elf([text], symbols=[SymbolSpec("start", 0, 16)])
    ehdr = image.EHDR.unpack_from(raw)
    shoff, shnum = ehdr[6], ehdr[12]
    headers = [image.SHDR.unpack_from(raw, shoff + i * image.SHDR.size) for i in range(shnum)]
    assert [h[3] for h in headers if h[1] == image.SHT_SYMTAB] == [0]
    img = load_image(raw)
    assert [s.name for s in img.sections] == [".text"]
    assert lookup_symbol(img, "start").vaddr == 0


def test_lookup_symbol_demo_addresses(demo_image):
    assert lookup_symbol(demo_image, "SecretFunctionWithParm").vaddr == 0x080484A4
    assert lookup_symbol(demo_image, "SecretFunctionWithoutParm").vaddr == 0x0804848B
    assert lookup_symbol(demo_image, "str").kind == "object"
    with pytest.raises(SymbolNotFoundError):
        lookup_symbol(demo_image, "NoSuchFn")


def test_lookup_ambiguous_symbol():
    raw = build_elf(
        [SectionSpec(".text", 0x08048000, b"\xc3" * 32, "ax")],
        symbols=[
            SymbolSpec("dup", 0x08048000, 1),
            SymbolSpec("dup", 0x08048010, 1),
        ],
    )
    img = load_image(raw)
    with pytest.raises(AmbiguousSymbolError):
        lookup_symbol(img, "dup")


def test_symtab_preferred_over_dynsym():
    raw = build_elf(
        [SectionSpec(".text", 0x08048000, b"\xc3" * 32, "ax")],
        symbols=[SymbolSpec("foo", 0x08048000, 1)],
        dyn_symbols=[SymbolSpec("foo", 0x08048010, 1), SymbolSpec("bar", 0x08048020, 1)],
    )
    img = load_image(raw)
    assert lookup_symbol(img, "foo").vaddr == 0x08048000
    assert lookup_symbol(img, "bar").vaddr == 0x08048020


def test_exact_duplicates_collapse():
    raw = build_elf(
        [SectionSpec(".text", 0x08048000, b"\xc3" * 8, "ax")],
        symbols=[SymbolSpec("f", 0x08048000, 1), SymbolSpec("f", 0x08048000, 1)],
    )
    img = load_image(raw)
    assert len([s for s in img.symbols if s.name == "f"]) == 1


_TEXT = SectionSpec(".text", 0x08048000, b"\xc3" * 0x20, "ax")
_DATA = SectionSpec(".data", 0x0804A000, b"d" * 0x20, "wa")
_SYMBOL = st.builds(
    SymbolSpec,
    st.sampled_from(["", "f", "g", "obj"]),  # "" is a nameless entry
    st.sampled_from(
        [0x08048000, 0x0804801F]  # in .text
        + [0x0804A000, 0x0804A01F]  # in .data
        + [0, 0x08048020, 0x09000000]  # unmapped
    ),
    st.integers(0, 4),
    st.sampled_from(["function", "object", "other"]),
)


@st.composite
def _symbol_table(draw):
    specs = draw(st.lists(_SYMBOL, max_size=6))
    # repeat some entries later in the table, so exact duplicates are common
    return specs + draw(st.lists(st.sampled_from(specs), max_size=3)) if specs else specs


def _expected_symbols(static, dynamic):
    """``image.symbols`` by the documented rules, in order."""

    def read(specs):
        out = []
        for s in specs:
            if s.name and (s.name, s.vaddr) not in [(o.name, o.vaddr) for o in out]:
                in_text = _TEXT.vaddr <= s.vaddr < _TEXT.vaddr + len(_TEXT.data)
                kind = "other" if s.kind == "function" and not in_text else s.kind
                out.append(image.Symbol(s.name, s.vaddr, s.size, kind))
        return out

    symtab = read(static)
    return symtab + [s for s in read(dynamic) if s.name not in {t.name for t in symtab}]


@given(_symbol_table(), _symbol_table())
def test_symbol_rules_hold_for_drawn_tables(static, dynamic):
    img = load_image(build_elf([_TEXT, _DATA], symbols=static, dyn_symbols=dynamic))
    expected = _expected_symbols(static, dynamic)
    assert list(img.symbols) == expected
    for name in {s.name for s in static + dynamic}:
        matches = [s for s in expected if s.name == name]
        if not matches:
            with pytest.raises(SymbolNotFoundError, match=re.escape(f"no symbol named {name!r}")):
                lookup_symbol(img, name)
        elif len({s.vaddr for s in matches}) > 1:
            addrs = ", ".join(f"{s.vaddr:#010x}" for s in matches)
            with pytest.raises(AmbiguousSymbolError) as info:
                lookup_symbol(img, name)
            assert str(info.value) == f"symbol {name!r} maps to multiple addresses: {addrs}"
        else:
            assert lookup_symbol(img, name) == matches[0]


def test_read_virtual():
    raw = build_elf([SectionSpec(".text", 0x08048000, b"\x55\x89\xc3", "ax")])
    img = load_image(raw)
    assert read_virtual(img, 0x08048000, 0) == b""
    assert read_virtual(img, 0x08048000, 2) == b"\x55\x89"
    with pytest.raises(OutOfRangeError):
        read_virtual(img, 0x0, 4)
    with pytest.raises(OutOfRangeError):
        read_virtual(img, 0x08048002, 2)  # straddles the section end


def test_read_virtual_round_trip(demo_image):
    for sec in demo_image.sections:
        assert read_virtual(demo_image, sec.vaddr, sec.size) == sec.data


def test_frame_displacement_echo(demo_image):
    echo = lookup_symbol(demo_image, "echo")
    assert stack_frame_displacement(demo_image, echo) == 0x1C == 28


def test_frame_displacement_objdump_sanity(demo_binary, demo_image):
    """Independent check that the fixture's echo body really contains the
    expected frame-relative lea and nothing more negative."""
    import oracle_objdump

    echo = lookup_symbol(demo_image, "echo")
    body = read_virtual(demo_image, echo.vaddr, echo.size)
    listing = oracle_objdump.disassemble(body)
    leas = [ops for (m, _len, ops) in listing.values() if m == "lea"]
    assert leas == ["-0x1c(%ebp),%eax"]


def test_frame_displacement_no_candidate(demo_image):
    main = lookup_symbol(demo_image, "main")
    with pytest.raises(NoCandidateError):
        stack_frame_displacement(demo_image, main)


def test_frame_displacement_most_negative_wins(demo_image):
    two = lookup_symbol(demo_image, "copy_fields")
    assert stack_frame_displacement(demo_image, two) == 0x28


def _frame_image(body: bytes):
    raw = build_elf(
        [SectionSpec(".text", 0x08048000, body, "ax")],
        symbols=[SymbolSpec("f", 0x08048000, len(body))],
    )
    img = load_image(raw)
    return img, lookup_symbol(img, "f")


def test_frame_displacement_disp32_wins_over_disp8():
    # lea eax, [ebp-0x10] (disp8) then lea eax, [ebp-0x100] (disp32)
    img, f = _frame_image(b"\x8d\x45\xf0" + b"\x8d\x85\x00\xff\xff\xff" + b"\xc3")
    assert stack_frame_displacement(img, f) == 0x100


def test_frame_displacement_skips_a_disp32_cut_off_by_the_body():
    # the disp32 lea's last byte lies past the end of the function body
    img, f = _frame_image(b"\x8d\x45\xf0" + b"\x8d\x85\x00\xff\xff")
    assert stack_frame_displacement(img, f) == 0x10


def test_frame_displacement_ignores_positive_displacements():
    # [ebp+0x7f] and [ebp+0x1000] are arguments, not a buffer below the frame
    img, f = _frame_image(b"\x8d\x45\x7f" + b"\x8d\x85\x00\x10\x00\x00" + b"\xc3")
    with pytest.raises(NoCandidateError):
        stack_frame_displacement(img, f)
    img, f = _frame_image(b"\x8d\x45\x7f" + b"\x8d\x45\xf8" + b"\x8d\x85\x00\x10\x00\x00")
    assert stack_frame_displacement(img, f) == 8


def test_frame_displacement_rejects_non_function(demo_image):
    with pytest.raises(ValueError):
        stack_frame_displacement(demo_image, lookup_symbol(demo_image, "str"))


def test_function_symbol_invariant(demo_image):
    execs = demo_image.executable_sections()
    for sym in demo_image.symbols:
        if sym.kind == "function":
            assert any(s.contains(sym.vaddr) for s in execs)


def test_truncated_header():
    with pytest.raises(TruncatedError):
        load_image(b"\x7fELF")


def test_not_elf():
    with pytest.raises(NotElfError):
        load_image(b"MZ\x90\x00" + b"\x00" * 64)
    with pytest.raises(NotElfError):
        load_image(b"")


def test_unsupported_images():
    raw = bytearray(demo_elf_bytes())
    elf64 = bytes(raw[:4]) + b"\x02" + bytes(raw[5:])
    with pytest.raises(UnsupportedError):
        load_image(elf64)
    big_endian = bytes(raw[:5]) + b"\x02" + bytes(raw[6:])
    with pytest.raises(UnsupportedError):
        load_image(big_endian)
    arm = bytearray(raw)
    arm[18] = 40  # e_machine = EM_ARM
    with pytest.raises(UnsupportedError):
        load_image(bytes(arm))


def test_sections_end_by_4_gib():
    raw = build_elf([SectionSpec(".text", 0xFFFFFFF0, b"\x90" * 15 + b"\xc3", "ax")])
    (sec,) = load_image(raw).sections
    assert sec.vaddr + sec.size == 1 << 32
    raw = build_elf([SectionSpec(".text", 0xFFFFFFF0, b"\x90" * 16 + b"\xc3", "ax")])
    with pytest.raises(UnsupportedError, match=r"'\.text' at 0xfffffff0\+0x11 runs past 4 GiB"):
        load_image(raw)


def test_every_error_class_is_exported_by_the_package():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)]
    classes = [c for c in classes if issubclass(c, RopforgeError)]
    assert UnsupportedError in classes
    for cls in classes:
        assert getattr(ropforge, cls.__name__) is cls
        assert cls.__name__ in ropforge.__all__


def test_package_all_lists_exactly_its_public_names():
    public = {
        name
        for name, value in vars(ropforge).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(ropforge.__all__) == sorted(public)  # a name listed twice fails too


def _record_examples(image) -> dict:
    """One instance of each record class the package exports, by class."""
    spec = ropforge.ChainSpec((ropforge.CallStep(ADDR_SECRET_NOPARM),), ret_offset=32)
    layout = ropforge.plan_chain(spec, image)
    payload = ropforge.emit_payload(layout)
    trace = ropforge.simulate(image, {ADDR_SECRET_NOPARM: ("f", 0)}, payload, 32)
    gadget = ropforge.find_pop_ret(image, 2)
    return {
        ropforge.BinaryImage: image,
        ropforge.Section: image.sections[0],
        ropforge.Symbol: image.symbols[0],
        ropforge.Gadget: gadget,
        ropforge.GadgetClass: ropforge.classify(gadget),
        ropforge.Instruction: gadget.insns[0],
        ropforge.CallStep: ropforge.CallStep(ADDR_SECRET_PARM, (ADDR_STR, -1)),
        ropforge.ChainSpec: spec,
        ropforge.StackLayout: layout,
        ropforge.Payload: payload,
        ropforge.CallTrace: trace,
        ropforge.CallEvent: trace.events[0],
        ropforge.Termination: trace.termination,
    }


def test_exported_records_are_immutable_and_rebuild_equal():
    examples = _record_examples(load_image(demo_elf_bytes()))
    exported = {getattr(ropforge, name) for name in ropforge.__all__}
    records = {
        c for c in exported if inspect.isclass(c) and not issubclass(c, (BaseException, enum.Enum))
    }
    assert records == set(examples)  # a new record class needs an example here
    for cls, record in examples.items():
        assert type(record) is cls
        fields = {name: getattr(record, name) for name in inspect.signature(cls).parameters}
        for rebuilt in (cls(**fields), cls(*fields.values())):
            assert rebuilt == record and hash(rebuilt) == hash(record)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
    assert ropforge.CallStep(1, (-1,)).args == (0xFFFFFFFF,)
    assert ropforge.CallStep(target=1, args=(-1, 1 << 32)).args == (0xFFFFFFFF, 0)


def test_lookups_build_the_name_index_once(monkeypatch):
    by_name = inspect.getattr_static(BinaryImage, "_by_name")  # the cached index
    built, build = [], by_name.func
    monkeypatch.setattr(by_name, "func", lambda img: built.append(img) or build(img))
    img = load_image(demo_elf_bytes())
    for _ in range(3):
        assert lookup_symbol(img, "echo").vaddr == ADDR_ECHO
    assert len(built) == 1 and built[0] is img


def test_truncated_section_content():
    raw = demo_elf_bytes()
    with pytest.raises(TruncatedError):
        load_image(raw[: len(raw) - 40])


def test_load_deterministic():
    a = load_image(demo_elf_bytes())
    b = load_image(demo_elf_bytes())
    assert a == b


@given(st.binary(max_size=400))
@example(b"\x7fELF")
@example(b"\x7fELF\x01\x01" + b"\x00" * 60)
def test_rejection_totality_fuzz(blob):
    try:
        img = load_image(blob)
        assert isinstance(img, BinaryImage)
    except (NotElfError, UnsupportedError, TruncatedError):
        pass


@given(st.integers(min_value=0, max_value=3), st.binary(min_size=4, max_size=4), st.data())
def test_rejection_totality_mutated_valid_image(_salt, patch, data):
    raw = bytearray(demo_elf_bytes())
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 4))
    raw[pos : pos + 4] = patch
    try:
        load_image(bytes(raw))
    except RopforgeError:
        pass
