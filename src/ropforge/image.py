"""32-bit ELF loading and symbol/section queries.

The loader accepts exactly what the rest of the toolkit targets: ELF32,
little-endian, x86.  Relocations and dynamic linking are not interpreted;
addresses are used as-is, i.e. the ASLR-off model.  The resulting
:class:`BinaryImage` is immutable and safe to share across threads.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import ClassVar

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


@dataclass(frozen=True)
class Section:
    name: str
    vaddr: int
    data: bytes
    executable: bool

    @property
    def size(self) -> int:
        return len(self.data)

    def contains(self, vaddr: int, length: int = 1) -> bool:
        return self.vaddr <= vaddr and vaddr + length <= self.vaddr + self.size


@dataclass(frozen=True)
class Symbol:
    name: str
    vaddr: int
    size: int
    kind: str  # function | object | other


@dataclass(frozen=True)
class BinaryImage:
    entry_point: int
    sections: tuple[Section, ...]
    symbols: tuple[Symbol, ...]
    # Facts of every image the loader accepts, not settable per image.
    bitness: ClassVar[int] = 32
    endianness: ClassVar[str] = "little"

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

    def symbol_at(self, vaddr: int) -> Symbol | None:
        for sym in self.symbols:
            if sym.vaddr == vaddr:
                return sym
        return None


def _need(raw: bytes, offset: int, size: int, what: str) -> bytes:
    if offset < 0 or size < 0 or offset + size > len(raw):
        raise TruncatedError(f"{what} at {offset:#x}+{size:#x} exceeds file of {len(raw)} bytes")
    return raw[offset : offset + size]


def _strz(table: bytes, offset: int) -> str:
    if offset >= len(table):
        return ""
    end = table.find(b"\x00", offset)
    if end < 0:
        end = len(table)
    return table[offset:end].decode("latin-1")


def load_image(raw: bytes) -> BinaryImage:
    """Parse a complete ELF file image into a queryable model.

    Raises :class:`NotElfError` (bad magic), :class:`UnsupportedError`
    (anything but 32-bit little-endian x86), or :class:`TruncatedError`
    (declared ranges extend past the end of the input).
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

    shstr = b""
    if headers and shstrndx < len(headers):
        h = headers[shstrndx]
        if h[1] != SHT_NOBITS:
            shstr = _need(raw, h[4], h[5], "section name table")

    sections: list[Section] = []
    for h in headers:
        sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size, *_ = h
        if not sh_flags & SHF_ALLOC or sh_size == 0:
            continue
        name = _strz(shstr, sh_name)
        if sh_addr + sh_size > 1 << 32:
            raise UnsupportedError(f"section {name!r} at {sh_addr:#x}+{sh_size:#x} runs past 4 GiB")
        if sh_type == SHT_NOBITS:
            # .bss-style: occupies memory, no file bytes. Materialized as
            # zeros so read_virtual and symbol containment work; a cap keeps
            # fuzzed headers from demanding gigabytes.
            if sh_size > 1 << 26:
                raise UnsupportedError(f"refusing to materialize {sh_size:#x}-byte nobits section")
            data = bytes(sh_size)
        else:
            data = _need(raw, sh_offset, sh_size, "section content")
        sections.append(
            Section(
                name=name,
                vaddr=sh_addr,
                data=data,
                executable=bool(sh_flags & SHF_EXECINSTR),
            )
        )

    symbols = _parse_symbols(raw, headers, sections)
    return BinaryImage(entry_point=entry, sections=tuple(sections), symbols=tuple(symbols))


def _parse_symbols(raw, headers, sections) -> list[Symbol]:
    def normalized_kind(kind: str, vaddr: int) -> str:
        if kind == "function":
            sec = next((s for s in sections if s.contains(vaddr) and s.executable), None)
            if sec is None:
                return "other"
        return kind

    def parse_table(h) -> list[Symbol]:
        _, _sh_type, _, _, sh_offset, sh_size, sh_link, *_ = h
        blob = _need(raw, sh_offset, sh_size, "symbol table")
        strtab = b""
        if sh_link < len(headers):
            lh = headers[sh_link]
            if lh[1] != SHT_NOBITS:
                strtab = _need(raw, lh[4], lh[5], "symbol string table")
        out = []
        for i in range(1, len(blob) // SYM.size):
            st_name, st_value, st_size, st_info, _other, _shndx = SYM.unpack_from(
                blob, i * SYM.size
            )
            name = _strz(strtab, st_name)
            if not name:
                continue
            kind = normalized_kind(KIND_BY_STT.get(st_info & 0xF, "other"), st_value)
            out.append(Symbol(name=name, vaddr=st_value, size=st_size, kind=kind))
        return out

    static = [s for h in headers if h[1] == SHT_SYMTAB for s in parse_table(h)]
    dynamic = [s for h in headers if h[1] == SHT_DYNSYM for s in parse_table(h)]

    # Collapse: exact (name, address) duplicates merge; a name present in
    # .symtab suppresses any .dynsym entry of the same name (the static table
    # carries the local functions used as chain targets).  Same-name entries
    # at different addresses within one table survive and surface later as
    # AmbiguousSymbolError on lookup.
    out: dict[tuple[str, int], Symbol] = {}
    static_names = {s.name for s in static}
    for sym in static + [d for d in dynamic if d.name not in static_names]:
        out.setdefault((sym.name, sym.vaddr), sym)
    return list(out.values())


def lookup_symbol(image: BinaryImage, name: str) -> Symbol:
    """Exact-name lookup; unique match required."""
    matches = image._by_name.get(name, [])
    if not matches:
        raise SymbolNotFoundError(f"no symbol named {name!r}")
    if len({m.vaddr for m in matches}) > 1:
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
    for i in range(len(body) - 2):
        if body[i] != 0x8D:
            continue
        modrm = body[i + 1]
        mod, rm = modrm >> 6, modrm & 7
        # frame base register (ebp) addressing only, with a disp8 or a disp32
        if rm != 5 or mod not in (1, 2):
            continue
        end = i + (3 if mod == 1 else 6)
        if end > len(body):
            continue
        disp = int.from_bytes(body[i + 2 : end], "little", signed=True)
        if disp < 0 and (best is None or disp < best):
            best = disp
    if best is None:
        raise NoCandidateError(
            f"no frame-base-relative lea found in {function.name!r}; "
            "supply the offset manually (cyclic pattern workflow)"
        )
    return -best
