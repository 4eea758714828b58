"""Chain planning and payload serialization.

Turns a declarative list of intended calls into the stack image that realizes
them after the overwritten return address: padding up to the saved return
address slot, then for every call its target address, the word control flows
to when the callee returns, and the forged argument words.  The layout is
fixed 32-bit cdecl with stack arguments: the callee does not pop its
arguments, which is why any non-final call that passes arguments needs a
pop-ret cleanup gadget of matching arity between itself and the next target.
The last call needs none; its return slot simply holds the final target.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from . import gadgets
from .errors import MissingCleanupGadgetError, UnsatisfiableArityError
from .image import BinaryImage

WORD_SIZE = 4
MAX_CALL_ARITY = 6
DEFAULT_PAD_BYTE = 0x41

# scanf("%s") stops at token-terminating whitespace; NUL is deliberately fine.
SCANF_BAD_BYTES = frozenset({0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x20})

# Clean-completion sentinel: never mapped in any fixture image.
EXIT_SENTINEL = 0xDEADC0DE


class Role(enum.Enum):
    PADDING = "padding"
    FUNC_ADDR = "func_addr"
    CLEANUP_GADGET = "cleanup_gadget"
    ARG = "arg"
    FINAL_TARGET = "final_target"


class _CallStep(NamedTuple):
    target: int
    args: tuple[int, ...] = ()


class CallStep(_CallStep):  # a subclass, for the __new__ that validates and masks
    __slots__ = ()

    def __new__(cls, target, args=()):
        if not target:
            raise ValueError("call target must be nonzero")
        return super().__new__(cls, target, tuple(a & 0xFFFFFFFF for a in args))

    @property
    def arity(self) -> int:
        return len(self.args)


class _ChainSpec(NamedTuple):
    calls: tuple[CallStep, ...]
    ret_offset: int
    final_target: int = EXIT_SENTINEL
    bad_bytes: frozenset[int] = frozenset()


class ChainSpec(_ChainSpec):  # a subclass, for the __new__ that validates
    __slots__ = ()

    def __new__(cls, calls, ret_offset, final_target=EXIT_SENTINEL, bad_bytes=frozenset()):
        if not calls:
            raise ValueError("a chain needs at least one call")
        if ret_offset < 0:
            raise ValueError("ret_offset must be >= 0")
        return super().__new__(cls, calls, ret_offset, final_target, bad_bytes)


class LayoutWord(NamedTuple):
    value: int
    role: Role


class StackLayout(NamedTuple):
    pad_len: int
    words: tuple[LayoutWord, ...]

    def values(self) -> list[int]:
        """The words' values in payload order, decoded for library callers."""
        return [w.value for w in self.words]

    @property
    def total_length(self) -> int:
        """The payload's length in bytes, measured for library callers."""
        return self.pad_len + WORD_SIZE * len(self.words)


class Payload(NamedTuple):
    data: bytes
    layout: StackLayout  # the layout ``data`` serializes

    def role_at(self, offset: int) -> Role:
        if not 0 <= offset < len(self.data):
            raise IndexError(f"offset {offset} is outside the {len(self.data)}-byte payload")
        pad_len = self.layout.pad_len
        if offset < pad_len:
            return Role.PADDING
        return self.layout.words[(offset - pad_len) // WORD_SIZE].role


def plan_chain(spec: ChainSpec, image: BinaryImage | None = None) -> StackLayout:
    """Lay out the stack words realizing ``spec``.

    Words are emitted in stack order starting at the overwritten return
    address slot, each successive word at the next higher address.  Non-final
    calls with arguments get the cleanup gadget ``find_pop_ret`` finds in
    ``image``, at an address free of ``spec.bad_bytes`` where one exists,
    passing over any run that holds a call target (the simulator takes it as
    the call); raises :class:`MissingCleanupGadgetError` when there is none
    (or no image) and :class:`UnsatisfiableArityError` past ``MAX_CALL_ARITY``.
    """
    words: list[LayoutWord] = []
    last = len(spec.calls) - 1
    # Every cleanup query of the plan reads one byte-class view per section.
    needs_cleanup = image is not None and any(c.arity for c in spec.calls[:last])
    views = gadgets.cleanup_views(image) if needs_cleanup else []
    targets = frozenset(c.target for c in spec.calls)
    for i, call in enumerate(spec.calls):
        if call.arity > MAX_CALL_ARITY:
            raise UnsatisfiableArityError(
                f"call {i} passes {call.arity} arguments (max {MAX_CALL_ARITY})"
            )
        words.append(LayoutWord(call.target, Role.FUNC_ADDR))
        if i == last:
            words.append(LayoutWord(spec.final_target, Role.FINAL_TARGET))
            words.extend(LayoutWord(a, Role.ARG) for a in call.args)
        elif call.arity == 0:
            continue  # the next call's target doubles as the return address
        else:
            gadget = gadgets.lowest_pop_ret(views, call.arity, spec.bad_bytes, targets)
            if gadget is None:
                raise MissingCleanupGadgetError(
                    f"call {i} passes {call.arity} argument(s) mid-chain but no "
                    f"pop_ret({call.arity}) gadget is available"
                )
            words.append(LayoutWord(gadget.vaddr, Role.CLEANUP_GADGET))
            words.extend(LayoutWord(a, Role.ARG) for a in call.args)
    return StackLayout(pad_len=spec.ret_offset, words=tuple(words))


def emit_payload(layout: StackLayout, pad_byte: int = DEFAULT_PAD_BYTE) -> Payload:
    """Serialize a layout: pad bytes, then each word little-endian."""
    if not 0 <= pad_byte <= 0xFF:
        raise ValueError("pad_byte must be a byte value")
    words = b"".join((w.value & 0xFFFFFFFF).to_bytes(WORD_SIZE, "little") for w in layout.words)
    return Payload(bytes([pad_byte]) * layout.pad_len + words, layout)


def check_bad_bytes(payload: Payload, bad: frozenset[int] | set[int]) -> list[tuple[int, int, str]]:
    """Report every payload byte in ``bad`` as (offset, byte, role)."""
    if not bad:
        return []
    table = bytearray(256)  # 1 where bad, else 0
    for b in bad:
        if 0 <= b <= 0xFF:  # any other value matches no byte
            table[b] = 1
    data = payload.data
    view = data.translate(table)
    hits = []
    offset = view.find(1)
    while offset >= 0:
        hits.append((offset, data[offset], payload.role_at(offset).value))
        offset = view.find(1, offset + 1)
    return hits


def unpack_words(payload: Payload, ret_offset: int) -> list[int]:
    """Decode a payload's words (little-endian) to integers, for library callers."""
    region = payload.data[ret_offset:]
    if len(region) % WORD_SIZE:
        raise ValueError("word region is not word-aligned")
    return [v for (v,) in struct.iter_unpack("<I", region)]
