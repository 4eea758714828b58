"""ropforge: ROP gadget discovery, ret2func chain building, and
simulator-backed payload verification for 32-bit little-endian ELF binaries.

Workflow: load a binary (:func:`load_image`), recover the overflow offset
(:func:`stack_frame_displacement`), list gadgets (:func:`enumerate_gadgets`),
plan a chain against the image and emit its payload (:func:`plan_chain`,
:func:`emit_payload`), and replay it in the stack simulator
(:func:`simulate`).  The ``ropforge`` CLI fronts the same steps.
"""

from .chain import (
    CallStep,
    ChainSpec,
    EXIT_SENTINEL,
    Payload,
    Role,
    SCANF_BAD_BYTES,
    StackLayout,
    check_bad_bytes,
    emit_payload,
    plan_chain,
)
from .disasm import (
    Instruction,
    Mnemonic,
    decode_one,
    decode_window,
    free_branch_kind,
)
from .errors import (
    AmbiguousSymbolError,
    ChainFileError,
    LengthTooLargeError,
    MissingCleanupGadgetError,
    NoCandidateError,
    NotElfError,
    OutOfRangeError,
    RopforgeError,
    SymbolNotFoundError,
    TruncatedError,
    UnsatisfiableArityError,
    UnsupportedError,
)
from .gadgets import (
    Gadget,
    GadgetClass,
    classify,
    enumerate_gadgets,
    find_pop_ret,
)
from .image import (
    BinaryImage,
    Section,
    Symbol,
    load_image,
    lookup_symbol,
    read_virtual,
    stack_frame_displacement,
)
from .pattern import cyclic_pattern, pattern_offset
from .sim import (
    CallEvent,
    CallTrace,
    Termination,
    TerminationKind,
    simulate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSymbolError",
    "BinaryImage",
    "CallEvent",
    "CallStep",
    "CallTrace",
    "ChainFileError",
    "ChainSpec",
    "EXIT_SENTINEL",
    "Gadget",
    "GadgetClass",
    "Instruction",
    "LengthTooLargeError",
    "MissingCleanupGadgetError",
    "Mnemonic",
    "NoCandidateError",
    "NotElfError",
    "OutOfRangeError",
    "Payload",
    "Role",
    "RopforgeError",
    "SCANF_BAD_BYTES",
    "Section",
    "StackLayout",
    "Symbol",
    "SymbolNotFoundError",
    "Termination",
    "TerminationKind",
    "TruncatedError",
    "UnsatisfiableArityError",
    "UnsupportedError",
    "check_bad_bytes",
    "classify",
    "cyclic_pattern",
    "decode_one",
    "decode_window",
    "emit_payload",
    "enumerate_gadgets",
    "find_pop_ret",
    "free_branch_kind",
    "load_image",
    "lookup_symbol",
    "pattern_offset",
    "plan_chain",
    "read_virtual",
    "simulate",
    "stack_frame_displacement",
    "step",
]
