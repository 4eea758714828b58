"""32-bit ELF loading and symbol/section queries.

The loader accepts exactly what the rest of the toolkit targets: ELF32,
little-endian, x86.  Relocations and dynamic linking are not interpreted;
addresses are used as-is, i.e. the ASLR-off model.  A section with no file
bytes (``.bss``, ``.tbss``) is not loaded, whatever its size.  The resulting
:class:`BinaryImage` is immutable and safe to share across threads.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

from .errors import (
    AmbiguousSymbolError,
    NoCandidateError,
    NotElfError,
    OutOfRangeError,
    SymbolNotFoundError,
    TruncatedError,
    UnsupportedError,
)

# The ELF32 format: the loader reads it and ``elfbuild`` writes it.
EHDR = struct.Struct("<16sHHIIIIIHHHHHH")
SHDR = struct.Struct("<10I")
SYM = struct.Struct("<IIIBBH")

ELFMAG = b"\x7fELF"
ELFCLASS32 = 1
ELFDATA2LSB = 1
EV_CURRENT = 1
ET_EXEC = 2
EM_386 = 3

SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_NOBITS = 8
SHT_DYNSYM = 11
SHF_WRITE = 1
SHF_ALLOC = 2
SHF_EXECINSTR = 4

# Symbol kind by STT_* code; any other code reads as "other".
KIND_BY_STT = {2: "function", 1: "object"}


class Section(NamedTuple):
    name: str
    vaddr: int
    data: bytes
    executable: bool

    @property
    def size(self) -> int:
        return len(self.data)

    def contains(self, vaddr: int, length: int = 1) -> bool:
        return self.vaddr <= vaddr and vaddr + length <= self.vaddr + self.size


class Symbol(NamedTuple):
    name: str
    vaddr: int
    size: int
    kind: str  # function | object | other


class _BinaryImage(NamedTuple):
    entry_point: int
    sections: tuple[Section, ...]
    # No two entries share a name and an address; lookup_symbol relies on it.
    symbols: tuple[Symbol, ...]


class BinaryImage(_BinaryImage):  # a subclass, for the __dict__ that caches _by_name
    @functools.cached_property
    def _by_name(self) -> dict[str, list[Symbol]]:
        index: dict[str, list[Symbol]] = {}
        for sym in self.symbols:
            index.setdefault(sym.name, []).append(sym)
        return index

    def executable_sections(self) -> tuple[Section, ...]:
        return tuple(s for s in self.sections if s.executable)

    def section_at(self, vaddr: int, length: int = 1) -> Section | None:
        for s in self.sections:
            if s.contains(vaddr, length):
                return s
        return None


def _need(raw: bytes, offset: int, size: int, what: str) -> bytes:
    if offset < 0 or size < 0 or offset + size > len(raw):
        raise TruncatedError(f"{what} at {offset:#x}+{size:#x} exceeds file of {len(raw)} bytes")
    return raw[offset : offset + size]


def _content(raw: bytes, header: tuple, what: str) -> bytes:
    """A section's file bytes; an ``SHT_NOBITS`` section (``.bss``) has none."""
    if header[1] == SHT_NOBITS:
        return b""
    return _need(raw, header[4], header[5], what)


def _strz(table: str, offset: int) -> str:
    """The name at ``offset`` of a decoded string table, up to a NUL or its end."""
    end = table.find("\0", offset)
    return table[offset:end] if end >= 0 else table[offset:]


def load_image(raw: bytes) -> BinaryImage:
    """Parse a complete ELF file image into a queryable model.

    Raises :class:`NotElfError` (bad magic), :class:`UnsupportedError`
    (anything but 32-bit little-endian x86, a section past 4 GiB, or an
    executable section that overlaps another loaded one), or
    :class:`TruncatedError` (declared ranges extend past the end of the input).
    """
    if len(raw) < 4 or raw[:4] != ELFMAG:
        raise NotElfError("missing ELF magic")
    if len(raw) >= 5 and raw[4] != ELFCLASS32:
        raise UnsupportedError(f"only ELF32 is supported (EI_CLASS={raw[4]})")
    if len(raw) >= 6 and raw[5] != ELFDATA2LSB:
        raise UnsupportedError(f"only little-endian is supported (EI_DATA={raw[5]})")
    if len(raw) < EHDR.size:
        raise TruncatedError("ELF header does not fit")

    (
        _ident,
        _type,
        machine,
        _version,
        entry,
        _phoff,
        shoff,
        _flags,
        _ehsize,
        _phentsize,
        _phnum,
        shentsize,
        shnum,
        shstrndx,
    ) = EHDR.unpack_from(raw)
    if machine != EM_386:
        raise UnsupportedError(f"only x86 (EM_386) is supported, got machine {machine}")

    headers = []
    if shnum:
        if shentsize < SHDR.size:
            raise TruncatedError(f"section header entry size {shentsize} too small")
        table = _need(raw, shoff, shnum * shentsize, "section header table")
        for i in range(shnum):
            headers.append(SHDR.unpack_from(table, i * shentsize))

    shstr = ""
    if shstrndx < len(headers):
        shstr = _content(raw, headers[shstrndx], "section name table").decode("latin-1")

    sections: list[Section] = []
    for h in headers:
        sh_name, _, sh_flags, sh_addr, _, sh_size, *_ = h
        if not sh_flags & SHF_ALLOC or sh_size == 0:
            continue
        name = _strz(shstr, sh_name)
        if sh_addr + sh_size > 1 << 32:
            raise UnsupportedError(f"section {name!r} at {sh_addr:#x}+{sh_size:#x} runs past 4 GiB")
        data = _content(raw, h, "section content")
        if data:  # a section with no file bytes is not loaded
            sections.append(Section(name, sh_addr, data, bool(sh_flags & SHF_EXECINSTR)))

    # Each executable address has one source: an executable section overlaps no
    # other loaded one, while data sections may overlap.  By address, ties in
    # header order, a section overlaps an earlier one iff it starts before their ends.
    end = exec_end = 0
    for s in sorted(sections, key=lambda s: s.vaddr):
        if s.vaddr < (end if s.executable else exec_end):
            raise UnsupportedError(
                f"section {s.name!r} at {s.vaddr:#010x} overlaps another section, "
                "and executable bytes must have one source"
            )
        end = max(end, s.vaddr + s.size)
        exec_end = end if s.executable else exec_end  # it started past every earlier end

    symbols = _parse_symbols(raw, headers, sections)
    return BinaryImage(entry_point=entry, sections=tuple(sections), symbols=tuple(symbols))


def _parse_symbols(raw, headers, sections) -> list[Symbol]:
    """The named ``.symtab`` entries, then the ``.dynsym`` ones, in order read.

    ``.symtab`` wins by name: it suppresses every ``.dynsym`` entry of a name
    it holds (it carries the local functions used as chain targets).  Exact
    ``(name, vaddr)`` duplicates merge, the first kept; one name at two
    addresses stays, for :func:`lookup_symbol` to raise
    :class:`AmbiguousSymbolError`.  A function symbol outside every
    executable section reads as ``"other"``.
    """
    exec_spans = [(s.vaddr, s.vaddr + s.size) for s in sections if s.executable]
    tables: dict[int, dict[tuple[str, int], Symbol]] = {SHT_SYMTAB: {}, SHT_DYNSYM: {}}
    # .symtab headers first (SHT_SYMTAB < SHT_DYNSYM), so they are read first
    for h in sorted((h for h in headers if h[1] in tables), key=lambda h: h[1]):
        _, sh_type, _, _, sh_offset, sh_size, sh_link, *_ = h
        blob = _need(raw, sh_offset, sh_size, "symbol table")
        strtab = ""  # decoded once: one character per byte, so offsets hold
        if sh_link < len(headers):
            strtab = _content(raw, headers[sh_link], "symbol string table").decode("latin-1")
        merged = tables[sh_type]
        entries = blob[SYM.size : len(blob) // SYM.size * SYM.size]  # whole entries after 0
        for st_name, st_value, st_size, st_info, _, _ in SYM.iter_unpack(entries):
            name = _strz(strtab, st_name)
            if not name or (name, st_value) in merged:
                continue
            kind = KIND_BY_STT.get(st_info & 0xF, "other")
            if kind == "function":
                for lo, hi in exec_spans:
                    if lo <= st_value < hi:
                        break
                else:
                    kind = "other"
            merged[name, st_value] = Symbol(name, st_value, st_size, kind)

    static, dynamic = tables.values()
    static_names = {name for name, _ in static}
    return [*static.values(), *(s for (name, _), s in dynamic.items() if name not in static_names)]


def lookup_symbol(image: BinaryImage, name: str) -> Symbol:
    """Exact-name lookup; unique match required."""
    matches = image._by_name.get(name, [])
    if not matches:
        raise SymbolNotFoundError(f"no symbol named {name!r}")
    if len(matches) > 1:
        addrs = ", ".join(f"{m.vaddr:#010x}" for m in matches)
        raise AmbiguousSymbolError(f"symbol {name!r} maps to multiple addresses: {addrs}")
    return matches[0]


def read_virtual(image: BinaryImage, vaddr: int, length: int) -> bytes:
    """Read bytes from the single section covering [vaddr, vaddr+length)."""
    if length < 0:
        raise ValueError("negative length")
    s = image.section_at(vaddr, length)
    if s is None:
        raise OutOfRangeError(
            f"[{vaddr:#x}, {vaddr + length:#x}) is unmapped or straddles sections"
        )
    off = vaddr - s.vaddr
    return s.data[off : off + length]


def stack_frame_displacement(image: BinaryImage, function: Symbol) -> int:
    """Recover the buffer's distance below the saved frame pointer.

    Scans every byte offset of the function body for a ``lea`` computing a
    negative frame-base-relative address (8d /r with disp8/disp32 off ebp)
    and returns the absolute value of the most negative displacement found —
    the best candidate for the overflowable buffer.
    """
    if function.kind != "function" or function.size == 0:
        raise ValueError(f"{function.name!r} is not a function symbol with known size")
    body = read_virtual(image, function.vaddr, function.size)

    best: int | None = None
    last = len(body) - 2  # an opcode from here on has no displacement byte
    i = body.find(0x8D, 0, last)
    while i >= 0:
        modrm = body[i + 1]
        mod, rm = modrm >> 6, modrm & 7
        end = i + (3 if mod == 1 else 6)
        # frame base register (ebp) addressing only, with a disp8 or a disp32
        if rm == 5 and mod in (1, 2) and end <= len(body):
            disp = int.from_bytes(body[i + 2 : end], "little", signed=True)
            if disp < 0 and (best is None or disp < best):
                best = disp
        i = body.find(0x8D, i + 1, last)
    if best is None:
        raise NoCandidateError(
            f"no frame-base-relative lea found in {function.name!r}; "
            "supply the offset manually (cyclic pattern workflow)"
        )
    return -best
