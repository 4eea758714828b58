"""Synthetic ELF32 writer.

Builds small but structurally valid 32-bit little-endian x86 executables from
(section bytes, symbol list) descriptions, so the whole test suite and the
demo workflow run hermetically without a cross C toolchain.  Output parses
with standard binutils tools (readelf/objdump) as well as with this package's
own loader.
"""

from __future__ import annotations

from typing import NamedTuple

from . import image

STB_GLOBAL = 1
_STT_BY_KIND = {kind: stt for stt, kind in image.KIND_BY_STT.items()} | {"other": 0}  # STT_NOTYPE


class SectionSpec(NamedTuple):
    name: str
    vaddr: int
    data: bytes
    flags: str = "a"  # letters: a=alloc w=write x=exec


class SymbolSpec(NamedTuple):
    name: str
    vaddr: int
    size: int = 0
    kind: str = "function"  # function | object | other


class _Strtab:
    def __init__(self):
        self.blob = bytearray(b"\x00")

    def add(self, name: str) -> int:
        if not name:
            return 0
        off = len(self.blob)
        self.blob += name.encode() + b"\x00"
        return off


class _Record(NamedTuple):
    name: str
    sh_type: int
    flags: int
    vaddr: int
    data: bytes
    link: int = 0
    entsize: int = 0
    info: int = 0


def _sh_flags(letters: str) -> int:
    flags = 0
    for ch in letters:
        flags |= {"a": image.SHF_ALLOC, "w": image.SHF_WRITE, "x": image.SHF_EXECINSTR}[ch]
    return flags


def _symtab_blob(symbols, strtab: _Strtab, section_index) -> bytes:
    blob = bytearray(image.SYM.size)  # index 0: undefined symbol
    for sym in symbols:
        blob += image.SYM.pack(
            strtab.add(sym.name),
            sym.vaddr,
            sym.size,
            STB_GLOBAL << 4 | _STT_BY_KIND[sym.kind],
            0,
            section_index(sym.vaddr),
        )
    return bytes(blob)


def build_elf(
    sections: list[SectionSpec],
    symbols: list[SymbolSpec] | None = None,
    dyn_symbols: list[SymbolSpec] | None = None,
    entry: int | None = None,
) -> bytes:
    """Serialize an ELF32 EXEC image containing the given sections and symbols.

    ``symbols`` land in .symtab, ``dyn_symbols`` in .dynsym.  Entry point
    defaults to the first executable section's start.
    """
    if entry is None:
        entry = next((s.vaddr for s in sections if "x" in s.flags), 0)

    def section_index(vaddr: int) -> int:
        for i, s in enumerate(sections):
            if s.vaddr <= vaddr < s.vaddr + max(len(s.data), 1):
                return i + 1  # +1 for the null section header
        return 0xFFF1  # SHN_ABS

    records = [
        _Record(s.name, image.SHT_PROGBITS, _sh_flags(s.flags), s.vaddr, s.data) for s in sections
    ]
    # .dynsym and .dynstr are allocated, as in a linked image, so they get
    # addresses of their own: one after the other, past every other section.
    free = max((s.vaddr + len(s.data) for s in sections), default=0)
    for table_symbols, name, sh_type, str_name, flags in (
        (symbols, ".symtab", image.SHT_SYMTAB, ".strtab", 0),
        (dyn_symbols, ".dynsym", image.SHT_DYNSYM, ".dynstr", image.SHF_ALLOC),
    ):
        if table_symbols:
            strtab = _Strtab()
            blob = _symtab_blob(table_symbols, strtab, section_index)
            at = (free, free + len(blob)) if flags else (0, 0)
            link = len(records) + 2  # the string table's header index, after the null entry
            records.append(_Record(name, sh_type, flags, at[0], blob, link, image.SYM.size, 1))
            records.append(_Record(str_name, image.SHT_STRTAB, flags, at[1], bytes(strtab.blob)))

    # The name table's own content depends only on the section names, so it
    # can be finalized before layout like any other data blob.
    shstrtab = _Strtab()
    name_offsets = [shstrtab.add(r.name) for r in records] + [shstrtab.add(".shstrtab")]
    records.append(_Record(".shstrtab", image.SHT_STRTAB, 0, 0, bytes(shstrtab.blob)))
    shstrndx = len(records)  # index in the header table, after the null entry

    body = bytearray(image.EHDR.size)
    offsets = []
    for rec in records:
        while len(body) % 4:
            body.append(0)
        offsets.append(len(body))
        body += rec.data

    while len(body) % 4:
        body.append(0)
    e_shoff = len(body)
    body += bytes(image.SHDR.size)  # null section header
    for rec, name_off, off in zip(records, name_offsets, offsets):
        body += image.SHDR.pack(
            name_off,
            rec.sh_type,
            rec.flags,
            rec.vaddr,
            off,
            len(rec.data),
            rec.link,
            rec.info,
            1,
            rec.entsize,
        )

    # e_ident ends in zeros (System V ABI): "16s" pads the magic, class, data and version.
    body[: image.EHDR.size] = image.EHDR.pack(
        image.ELFMAG + bytes((image.ELFCLASS32, image.ELFDATA2LSB, image.EV_CURRENT)),
        image.ET_EXEC,
        image.EM_386,
        image.EV_CURRENT,
        entry,
        0,  # no program headers
        e_shoff,
        0,  # flags
        image.EHDR.size,
        0,
        0,
        image.SHDR.size,
        len(records) + 1,
        shstrndx,
    )
    return bytes(body)
