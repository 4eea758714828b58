"""Command-line frontend.

Subcommands follow the working workflow end to end: ``symbols`` and
``offset`` replace manual objdump reading, ``gadgets`` lists discovered
gadgets, ``build`` emits an annotated payload from a chain file, and
``verify`` replays it in the simulator.  ``pattern`` generates cyclic
patterns and locates crash values for targets where offset recovery fails.

Exit codes: 0 ok, 2 io/parse errors, 3 offset recovery failed, 4 payload
contains bad bytes, 5 chain planning failed, 6 verification failed.
Verification is simulator-only; this tool never executes target binaries.
``gadgets`` lists an image whose executable sections hold at most
``PLAIN_LISTING_MAX_BYTES`` bytes in plain Python, and a larger one with
numpy, which only that listing imports; both print the same bytes.
ROPFORGE_COLOR set to 0/off/never/false disables ANSI styling, 1/on/always/true
forces it, and otherwise it follows whether stdout is a terminal.

``main`` reads a plain argv itself: when the first word names a subcommand
and every later word is a positional or an exact option string with its one
value, it builds the namespace from that subparser's own argparse actions
(their types, choices and defaults, and its ``set_defaults``).  Any other
argv (help, ``--opt=value``, abbreviations, ``--``, and every error) goes to
the whole parser's ``parse_args``.  So the CLI is declared once, in
``build_parser``, and help and error messages are argparse's own.  Files are
read and written with plain ``open()``, so an error names a path as it was
typed.
"""

from __future__ import annotations

import argparse
import binascii
import functools
import json
import os
import sys

from . import chainfile as chainfile_mod
from .chain import WORD_SIZE, Payload, check_bad_bytes, emit_payload, plan_chain
from .errors import (
    ChainFileError,
    MissingCleanupGadgetError,
    NoCandidateError,
    RopforgeError,
    UnsatisfiableArityError,
)
from .gadgets import (
    DEFAULT_MAX_INSNS,
    DEFAULT_WINDOW_BACK,
    classify_bytes,
    enumerate_gadgets,
    plain_listing,
)
from .image import load_image, lookup_symbol, stack_frame_displacement
from .pattern import cyclic_pattern, pattern_offset
from .sim import TerminationKind, format_trace, simulate, trace_jsonl

EXIT_OK = 0
EXIT_IO = 2
EXIT_OFFSET = 3
EXIT_BAD_BYTES = 4
EXIT_PLAN = 5
EXIT_VERIFY = 6

_KIND_LETTER = {"function": "F", "object": "O", "other": "?"}


def _color_enabled() -> bool:
    value = os.environ.get("ROPFORGE_COLOR", "").strip().lower()
    if value in ("0", "off", "never", "false"):
        return False
    if value in ("1", "on", "always", "true"):
        return True
    return sys.stdout.isatty()


def _style(text: str, code: str, color: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if color else text


def _read(path: str) -> bytes:
    with open(path, "rb", buffering=0) as f:
        return f.read()


def _load(path: str):
    return load_image(_read(path))


def cmd_symbols(args) -> int:
    image = _load(args.binary)
    for sym in sorted(image.symbols, key=lambda s: (s.vaddr, s.name)):
        print(f"{sym.vaddr:08x} {_KIND_LETTER.get(sym.kind, '?')} {sym.name}")
    if not any(s.kind == "function" for s in image.symbols):
        print("warning: no function symbols found (stripped binary?)", file=sys.stderr)
    return EXIT_OK


def cmd_offset(args) -> int:
    image = _load(args.binary)
    function = lookup_symbol(image, args.function)
    disp = stack_frame_displacement(image, function)
    print(f"disp={disp:#x} saved_fp=4 ret_offset={disp + 4}")
    return EXIT_OK


def _wanted(args, gclass) -> bool:
    return args.gadget_class in (None, gclass.kind) and args.arity in (None, gclass.arity)


# An image with at most this many executable bytes, all sections together, is
# listed in plain Python (gadgets.plain_listing).  In a process that had
# imported numpy, the plain listing of 4 KiB of scan-dense bytes took 0.35-0.5
# ms longer than numpy's, and of 8 KiB 1.5-2.4 ms (2 cores, Python 3.11); a
# fresh process also saves numpy's import, tens of ms.
PLAIN_LISTING_MAX_BYTES = 4096


def _plain_rows(listing, keep, head: str, after: str, texts: list[str]):
    """The rendered rows of the wanted gadgets (all when ``keep`` is None)
    and their count, as :func:`ropforge.kernels.render_rows` writes them."""
    rows = [
        f"{head}{a:08x}{after}{texts[g]}\n"
        for a, g in zip(listing.addr, listing.gid)
        if keep is None or keep[g]
    ]
    return rows, len(rows)


def _numpy_rows(listing, keep, head: str, after: str, texts: list[str]):
    """:func:`_plain_rows` of a :class:`ropforge.gadgets.GadgetListing`, by
    numpy gathers."""
    import numpy as np  # loads only for images past PLAIN_LISTING_MAX_BYTES

    from . import kernels

    addr, gid = listing.addr, listing.gid
    if keep is not None:
        wanted = np.array(keep, bool)[gid]
        addr, gid = addr[wanted], gid[wanted]
    return kernels.render_rows(addr, gid, head, after, texts), len(addr)


def cmd_gadgets(args) -> int:
    image = _load(args.binary)
    if sum(len(s.data) for s in image.executable_sections()) <= PLAIN_LISTING_MAX_BYTES:
        list_gadgets, rows = plain_listing, _plain_rows
    else:
        list_gadgets, rows = enumerate_gadgets, _numpy_rows
    listing = list_gadgets(image, max_insns=args.max_insns, window_back=args.window_back)
    texts, keep = listing.id_texts, None  # per gadget: what its rows print after the address
    if args.gadget_class is not None or args.arity is not None or args.json:
        # Each gadget is classified and dumped once; rows of unwanted ones go.
        keep, texts = [], []
        for raw, text in zip(listing.id_bytes, listing.id_texts):
            gclass = classify_bytes(raw)
            keep.append(_wanted(args, gclass))
            if not keep[-1]:
                text = ""
            elif args.json:
                insns = text.split(" ; ")
                fields = {"bytes_hex": raw.hex(), "insns": insns, "class": gclass.render()}
                text = json.dumps(fields)[1:]
            texts.append(text)
    if args.json:
        head, after = '{"addr": "0x', '", '
    else:
        before, after = ("\x1b[36m", "\x1b[0m: ") if _color_enabled() else ("", ": ")
        head = f"{before}0x"
    lines, count = rows(listing, keep, head, after, texts)
    sys.stdout.writelines(lines)
    if not args.json:
        sys.stdout.write(f"{count} gadgets\n")
    return EXIT_OK


# The hex digit of each byte value's high and of its low nibble.
_HIGH_DIGIT = bytes(b"0123456789abcdef"[b >> 4] for b in range(256))
_LOW_DIGIT = b"0123456789abcdef" * 16


def _render_escaped(data: bytes) -> bytearray:
    """``\\xHH`` per payload byte, then a newline, written in place: one
    4-bytes-per-byte buffer and one payload-sized translation at a time."""
    out = bytearray(b"\\x00") * len(data)
    out[2::4] = data.translate(_HIGH_DIGIT)
    out[3::4] = data.translate(_LOW_DIGIT)
    out += b"\n"
    return out


# The three payload renderings, by format name.
_RENDER = {
    "raw": lambda data: data,
    "hex": lambda data: binascii.hexlify(data) + b"\n",
    "escaped": _render_escaped,
}


def _escaped_digits(blob: bytes) -> bytearray:
    """The two characters after each ``\\x`` of a ``4n + 1``-byte file."""
    digits = bytearray(len(blob) // 2)
    digits[0::2], digits[1::2] = blob[2::4], blob[3::4]
    return digits


def _read_payload(blob: bytes) -> tuple[bytes, str]:
    """Inverse of ``_RENDER``: a file is decoded when ``hex`` or
    ``escaped`` renders the decoded bytes back to exactly the file; any other
    file is raw payload bytes."""
    # A hex rendering is 2n + 1 bytes and an escaped one 4n + 1 starting with
    # ``\\x``, each ending in a newline; no other file is decoded.
    if len(blob) % 2 == 0 or not blob.endswith(b"\n"):
        return blob, "raw"
    fmt = "escaped" if blob.startswith(b"\\x") else "hex"
    try:
        # the digits are a temporary, freed before the re-render below
        data = binascii.unhexlify(
            _escaped_digits(blob) if fmt == "escaped" else memoryview(blob)[:-1]
        )
    except binascii.Error:
        return blob, "raw"
    # The shape check proved the newline, so hex compares without it: one
    # rendering-sized buffer, and startswith compares with memcmp.
    if fmt == "hex":
        same = blob.startswith(binascii.hexlify(data))
    else:
        same = _RENDER[fmt](data) == blob
    return (data, fmt) if same else (blob, "raw")


def _annotation_table(payload: Payload) -> list[str]:
    data, pad_len = payload.data, payload.layout.pad_len
    rows = [("0x0000", f"{data[0]:02x} x{pad_len}", "padding", "")] if pad_len else []
    offset = pad_len
    for value, role in payload.layout.words:
        content = data[offset : offset + WORD_SIZE].hex()
        rows.append((f"{offset:#06x}", content, role.value, f"{value & 0xFFFFFFFF:#010x}"))
        offset += WORD_SIZE
    line = "%%-%ds  %%-%ds  %%-%ds  %%s" % tuple(max(len(r[i]) for r in rows) for i in range(3))
    return [(line % row).rstrip() for row in rows]


def cmd_build(args) -> int:
    cf = chainfile_mod.load_chain_file(args.chainfile)
    image = load_image(_read(cf.binary_file()))
    resolved = chainfile_mod.resolve(cf, image)
    payload = emit_payload(plan_chain(resolved.spec, image), pad_byte=cf.pad_byte)

    fmt = args.format or cf.out_format
    rendered = _RENDER[fmt](payload.data)
    annotations = "\n".join(_annotation_table(payload))
    violations = check_bad_bytes(payload, resolved.spec.bad_bytes)
    refused = bool(violations) and not args.force
    if args.out and not refused:
        with open(args.out, "wb") as f:
            f.write(rendered)
        print(annotations)
        print(f"wrote {len(payload.data)}-byte payload ({fmt}) to {args.out}")
    else:
        print(annotations, file=sys.stderr)
        if not refused:
            sys.stdout.buffer.write(rendered)
            sys.stdout.buffer.flush()

    if violations:
        color = _color_enabled()
        for offset, byte, role in violations:
            print(
                _style(f"bad byte {byte:#04x} at offset {offset} ({role})", "31", color),
                file=sys.stderr,
            )
    if refused:
        print("payload violates the bad-byte set (use --force to keep it)", file=sys.stderr)
        return EXIT_BAD_BYTES
    return EXIT_OK


def cmd_verify(args) -> int:
    image = _load(args.binary)
    cf = chainfile_mod.load_chain_file(args.chainfile)
    resolved = chainfile_mod.resolve(cf, image)
    if args.payload:
        payload, fmt = _read_payload(_read(args.payload))
        if fmt != "raw":
            print(f"verify: payload read as {fmt}", file=sys.stderr)
    else:
        payload = emit_payload(plan_chain(resolved.spec, image), pad_byte=cf.pad_byte)

    trace = simulate(image, resolved.stubs, payload, resolved.spec.ret_offset)
    lines = trace_jsonl(trace) if args.json else format_trace(trace)
    print("\n".join(lines))

    expected = [(c.target, c.args) for c in resolved.spec.calls]
    observed = [(e.vaddr, e.args) for e in trace.events]
    if trace.termination.kind is not TerminationKind.EXIT_SENTINEL:
        print("verify: chain did not reach the exit sentinel", file=sys.stderr)
        return EXIT_VERIFY
    if observed != expected:
        print("verify: trace diverges from the declared calls", file=sys.stderr)
        return EXIT_VERIFY
    print("OK: trace matches the chain declaration", file=sys.stderr)
    return EXIT_OK


def cmd_pattern(args) -> int:
    if args.locate is not None:
        token = args.locate
        wrong = ChainFileError("--locate takes a 32-bit value or a 4-char window")
        if token.lower().startswith("0x") or token.isdigit():
            try:
                value = int(token, 0)
            except ValueError:
                raise wrong from None
            if value >= 1 << 32:
                raise ChainFileError(f"--locate value {token} is wider than 32 bits")
            window = value.to_bytes(4, "little")  # value as read from a register
        elif len(token) == 4:
            window = token.encode("latin-1")
        else:
            raise wrong
        offset = pattern_offset(window)
        if offset is None:
            print("window not found in pattern", file=sys.stderr)
            return EXIT_OFFSET
        print(f"offset={offset}")
        return EXIT_OK
    if args.length is None:
        raise ChainFileError("pattern needs a LENGTH or --locate")
    sys.stdout.write(cyclic_pattern(args.length).decode("ascii") + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropforge",
        description="ROP gadget discovery, chain building, and simulator-backed verification "
        "for 32-bit ELF binaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, filled by add_parser below

    p = sub.add_parser("symbols", help="list the symbol table")
    p.add_argument("binary")
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser("offset", help="recover the buffer-to-return-address offset")
    p.add_argument("binary")
    p.add_argument("function")
    p.set_defaults(func=cmd_offset)

    p = sub.add_parser("gadgets", help="enumerate gadgets in executable sections")
    p.add_argument("binary")
    p.add_argument("--max-insns", type=int, default=DEFAULT_MAX_INSNS)
    p.add_argument("--window-back", type=int, default=DEFAULT_WINDOW_BACK)
    p.add_argument(
        "--class",
        dest="gadget_class",
        choices=["pop_ret", "ret_only", "stack_pivot", "other"],
    )
    p.add_argument("--arity", type=int)
    p.add_argument("--json", action="store_true", help="one JSON object per gadget address")
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser("build", help="build a payload from a chain file")
    p.add_argument("chainfile")
    p.add_argument("--out", help="write the payload here instead of stdout")
    p.add_argument("--format", choices=list(chainfile_mod.OUTPUT_FORMATS))
    p.add_argument("--force", action="store_true", help="keep payloads with bad bytes")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="simulate a chain and check its trace")
    p.add_argument("binary")
    p.add_argument("chainfile")
    p.add_argument("--payload", help="verify this payload file (any build format) instead")
    p.add_argument("--json", action="store_true", help="emit the trace as JSON lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pattern", help="cyclic pattern generation / offset lookup")
    p.add_argument("length", nargs="?", type=int)
    p.add_argument("--locate", help="32-bit crash value (0x...) or 4-char window")
    p.set_defaults(func=cmd_pattern)

    return parser


def _parse_plain(parser: argparse.ArgumentParser, words: list[str]):
    """What ``parser.parse_args(words)`` returns, read off the parser's own
    actions, when each word is a positional or an exact option string and its
    one value (none for a ``store_true`` option), no positional or value starts
    with ``-`` and every value passes its ``type`` and ``choices``; otherwise
    None, and argparse parses, helps or refuses as usual."""
    values = dict(parser._defaults)
    values.update(
        (action.dest, action.default)
        for action in parser._actions
        if action.default is not argparse.SUPPRESS
    )
    given, pairs = [], []
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        action = parser._option_string_actions.get(word)
        if type(action) is argparse._StoreTrueAction:
            values[action.dest] = action.const
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        value = next(words, "-")
        if value.startswith("-"):
            return None
        pairs.append((action, value))
    # argparse matches positionals against each run of words between options;
    # that is plain order when each takes one word, or when a lone one is "?".
    positionals = [action for action in parser._actions if not action.option_strings]
    nargs = [action.nargs for action in positionals]
    if nargs != [None] * len(given) and (nargs != ["?"] or len(given) > 1):
        return None
    for action, word in (*pairs, *zip(positionals, given)):
        try:
            value = word if action.type is None else action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _parse_plain(command, argv[1:])
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_IO
    try:
        return args.func(args)
    except NoCandidateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OFFSET
    except (MissingCleanupGadgetError, UnsatisfiableArityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (RopforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
