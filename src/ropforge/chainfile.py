"""Line-oriented chain description files.

A chain file declares one exploit chain against one binary, diff-friendly and
free of structured-format dependencies::

    # demo chain
    binary: fixtures/vuln32
    ret_offset: auto echo          # or a plain integer
    call: SecretFunctionWithParm &str
    call: SecretFunctionWithoutParm
    final: sentinel                # or a symbol name, or 0xHEX
    bad_bytes: scanf               # or "none" or explicit byte values
    pad_byte: 0x41
    format: hex                    # raw | hex | escaped

``call`` lines repeat, one per step: a target (symbol name or hex address)
followed by argument words, each a decimal/hex integer or ``&symbol`` for the
address of a data or function symbol.  ``ret_offset: auto <function>``
recovers the offset from the named function's frame (displacement + 4 bytes
for the saved frame pointer).  Unknown keys are rejected.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .chain import (
    CallStep,
    ChainSpec,
    DEFAULT_PAD_BYTE,
    EXIT_SENTINEL,
    SCANF_BAD_BYTES,
)
from .errors import ChainFileError
from .image import BinaryImage, lookup_symbol, stack_frame_displacement

OUTPUT_FORMATS = ("raw", "hex", "escaped")

# 16 MiB, twice the usual 8 MiB default stack limit: no overflow reaches past it.
MAX_RET_OFFSET = 1 << 24

_SINGLE_KEYS = ("binary", "ret_offset", "final", "bad_bytes", "pad_byte", "format")


class ChainFile:
    """Parsed but unresolved chain description; a key the file omits keeps its class default."""

    binary: str | None = None
    ret_offset: str = "auto"
    final: str = "sentinel"
    bad_bytes: frozenset[int] = SCANF_BAD_BYTES
    pad_byte: int = DEFAULT_PAD_BYTE
    out_format: str = "hex"

    def __init__(self, source_dir: str | Path):
        self.source_dir = source_dir  # the directory a relative ``binary`` is read from
        self.calls: list[tuple[str, list[str]]] = []

    def binary_file(self) -> str:
        """The binary's path: ``binary`` joined to ``source_dir`` unless absolute."""
        if self.binary is None:
            raise ChainFileError("chain file does not name a binary")
        return os.path.join(self.source_dir, self.binary)


class ResolvedChain(NamedTuple):
    spec: ChainSpec
    stubs: dict[int, tuple[str, int]]  # call target -> (name, arity), for the simulator


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ChainFileError(f"{what}: {text!r} is not an integer") from None


def _parse_bad_bytes(value: str) -> frozenset[int]:
    if value == "scanf":
        return SCANF_BAD_BYTES
    if value == "none":
        return frozenset()
    out = set()
    for token in value.split():
        b = _parse_int(token, "bad_bytes")
        if not 0 <= b <= 0xFF:
            raise ChainFileError(f"bad_bytes: {token} is not a byte value")
        out.add(b)
    return frozenset(out)


def parse_chain_file(text: str, source_dir: Path | str = ".") -> ChainFile:
    cf = ChainFile(source_dir)
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ChainFileError(f"line {lineno}: expected 'key: value', got {raw_line!r}")
        if key == "call":
            tokens = value.split()
            cf.calls.append((tokens[0], tokens[1:]))
            continue
        if key not in _SINGLE_KEYS:
            raise ChainFileError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ChainFileError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "binary":
            cf.binary = value
        elif key == "ret_offset":
            cf.ret_offset = value
        elif key == "final":
            cf.final = value
        elif key == "bad_bytes":
            cf.bad_bytes = _parse_bad_bytes(value)
        elif key == "pad_byte":
            b = _parse_int(value, "pad_byte")
            if not 0 <= b <= 0xFF:
                raise ChainFileError(f"line {lineno}: pad_byte must be a byte value")
            cf.pad_byte = b
        elif key == "format":
            if value not in OUTPUT_FORMATS:
                raise ChainFileError(
                    f"line {lineno}: format must be one of {', '.join(OUTPUT_FORMATS)}"
                )
            cf.out_format = value
    if not cf.calls:
        raise ChainFileError("chain file declares no calls")
    return cf


def load_chain_file(path: Path | str) -> ChainFile:
    with open(path, "rb", buffering=0) as f:  # read as UTF-8 whatever the locale
        return parse_chain_file(f.read().decode(), source_dir=os.path.dirname(path) or ".")


def _resolve_address(image: BinaryImage, token: str, what: str) -> int:
    if token.startswith("&"):
        return lookup_symbol(image, token[1:]).vaddr
    if token[:1].isdigit() or token.startswith("-"):
        value = _parse_int(token, what)
        # Negative words keep their two's-complement meaning: the records mask them.
        if not -(1 << 31) <= value < 1 << 32:
            raise ChainFileError(f"{what}: {token} does not fit in a 32-bit word")
        return value
    return lookup_symbol(image, token).vaddr


def _resolve_ret_offset(cf: ChainFile, image: BinaryImage) -> int:
    tokens = cf.ret_offset.split()
    if tokens[0] != "auto":
        offset = _parse_int(cf.ret_offset, "ret_offset")
    elif len(tokens) != 2:
        raise ChainFileError(
            "ret_offset: 'auto' needs the vulnerable function's name, "
            "e.g. 'ret_offset: auto echo'"
        )
    else:  # frame displacement + the saved frame pointer
        offset = stack_frame_displacement(image, lookup_symbol(image, tokens[1])) + 4
    if offset > MAX_RET_OFFSET:
        raise ChainFileError(f"ret_offset: {offset} exceeds {MAX_RET_OFFSET} bytes")
    return offset


def resolve(cf: ChainFile, image: BinaryImage) -> ResolvedChain:
    """Bind a parsed chain file to a loaded binary."""
    # A stub is named after the first symbol at its address, in image order.
    name_at = {sym.vaddr: sym.name for sym in reversed(image.symbols)}
    calls = []
    stubs: dict[int, tuple[str, int]] = {}
    for target_token, arg_tokens in cf.calls:
        target = _resolve_address(image, target_token, "call target")
        args = tuple([_resolve_address(image, t, "call argument") for t in arg_tokens])
        call = CallStep(target, args)
        calls.append(call)
        name = name_at.get(call.target) or f"sub_{call.target:08x}"
        if stubs.setdefault(call.target, (name, len(args)))[1] != len(args):
            raise ChainFileError(f"conflicting arities for stub at {call.target:#010x}")

    if cf.final == "sentinel":
        final = EXIT_SENTINEL
    else:
        final = _resolve_address(image, cf.final, "final target")

    spec = ChainSpec(
        calls=tuple(calls),
        ret_offset=_resolve_ret_offset(cf, image),
        final_target=final,
        bad_bytes=cf.bad_bytes,
    )
    return ResolvedChain(spec=spec, stubs=stubs)
