"""References every request's output is checked against.

None of them comes from ropforge's scanner, dedup, planner or CLI:

* the gadget listing is rebuilt from a brute-force window oracle that uses
  only the reference decoder (``ropforge.disasm``);
* a chain's verdict comes from a direct byte search of the generated text
  for ``pop^k ; ret`` runs, and its trace from the generator's own record of
  the declared calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ropforge.disasm import (
    FREE_BRANCH_LENGTH,
    Mnemonic,
    decode_one,
    decode_window,
    format_instruction,
    free_branch_kind,
)

from inputs import PAD_BYTE, Case

WINDOW_BACK = 20  # ropforge's documented defaults: window and instruction limits
MAX_INSNS = 5
SCANF_BAD_BYTES = frozenset({0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x20})

EXIT_OK = 0
EXIT_PLAN = 5


# --------------------------------------------------------------------------
# Gadget listing.


def oracle_windows(data: bytes) -> list[tuple[int, int]]:
    """Every valid (start, end) window, by the enumeration rules' definition.

    Each offset is decoded once with the reference decoder, and every
    candidate window is walked over those decodes the way ``decode_window``
    walks it: greedily, one instruction after the other.
    """
    # Per offset: the decoded length (0 if unknown) and free-branch length (0 if
    # none).  Bytes rather than instructions, so the oracle stays smaller in
    # memory than the request it checks.
    size, branch = bytearray(len(data)), bytearray(len(data))
    for i in range(len(data)):
        insn = decode_one(data, i)
        if insn.mnemonic is not Mnemonic.UNKNOWN:
            size[i] = insn.length
        kind = free_branch_kind(insn)
        if kind is not None:
            branch[i] = FREE_BRANCH_LENGTH[kind]
    windows = set()  # a ret inside a ret imm16 closes the same windows twice
    for t, length in enumerate(branch):
        if not length:
            continue
        end = t + length
        for start in range(max(0, t - WINDOW_BACK), t + 1):
            i = start
            for _ in range(MAX_INSNS):
                step = size[i]
                if not step or i + step > end:
                    break
                if branch[i]:  # a free branch is the last instruction or none
                    if i + step == end:
                        windows.add((start, end))
                    break
                i += step
                if i == end:
                    break
    return sorted(windows)


def expected_listing(data: bytes, vaddr: int) -> str:
    """``ropforge gadgets`` output for a one-section binary, rendered without colour."""
    lines = []
    for start, end in oracle_windows(data):
        insns = decode_window(data, start, end)
        lines.append(f"{vaddr + start:#010x}: " + " ; ".join(format_instruction(i) for i in insns))
    lines.append(f"{len(lines)} gadgets")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Chain verdicts.


def pop_ret_addrs(text: bytes, vaddr: int, k: int, allow_esp: bool = False) -> list[int]:
    """Addresses of every ``pop^k ; ret`` byte run, ascending.

    Without ``allow_esp`` runs that pop esp are left out: such a gadget moves
    the stack onto an argument word, so it can not clean up a call.
    """
    pops = rb"[\x58-\x5f]" if allow_esp else rb"[\x58-\x5b\x5d-\x5f]"
    pattern = re.compile(rb"(?=" + pops + b"{%d}\xc3)" % k)
    return [vaddr + m.start() for m in pattern.finditer(text)]


def cleanup_arities(case: Case) -> set[int]:
    """Arities of the calls that need a cleanup gadget: mid-chain, with arguments."""
    return {len(c.arg_values) for c in case.calls[:-1] if c.arg_values}


def expected_exit(case: Case) -> int:
    """0 when every needed cleanup arity has an esp-free gadget, else 5."""
    ok = all(pop_ret_addrs(case.text, case.text_vaddr, k) for k in cleanup_arities(case))
    return EXIT_OK if ok else EXIT_PLAN


def expected_trace(case: Case) -> list[str]:
    lines = []
    for c in case.calls:
        args = ", ".join(f"{a:#010x}" for a in c.arg_values)
        lines.append(f"CALL {c.addr:#010x} {c.name}({args})")
    return lines + ["EXIT (sentinel)"]


# Failures of two defects on record (ROADMAP item 3).  They are counted as
# failed operations like any other; the name only says the failure is known.
POP_ESP_CLEANUP = "pop-esp-cleanup"
ARITY_5_6 = "arity-5-6-unplannable"
UNEXPLAINED = "unexplained"


@dataclass(frozen=True)
class ChainOutcome:
    build_rc: int | str
    build_err: str
    payload: bytes | None
    verify_rc: int | str | None
    verify_out: str


_BAD_BYTE_LINE = re.compile(r"bad byte 0x([0-9a-f]{2}) at offset (\d+)")


def check_chain(case: Case, out: ChainOutcome) -> str | None:
    """None when the outcome is right, else what was wrong."""
    want = expected_exit(case)
    if out.build_rc != want:
        return f"build exit {out.build_rc}, expected {want}"
    if want != EXIT_OK:
        return None
    p, r = out.payload or b"", case.ret_offset
    if p[:r] != bytes([PAD_BYTE]) * r or p[r : r + 4] != case.calls[0].addr.to_bytes(4, "little"):
        return f"payload does not put the first call at offset {r}"
    reported = {(int(b, 16), int(o)) for b, o in _BAD_BYTE_LINE.findall(out.build_err)}
    actual = {(b, o) for o, b in enumerate(p) if b in SCANF_BAD_BYTES}
    if reported != actual:
        return f"reported {len(reported)} bad bytes, payload holds {len(actual)}"
    if out.verify_rc != EXIT_OK:
        return f"verify exit {out.verify_rc}, expected 0"
    if out.verify_out.splitlines() != expected_trace(case):
        return "verify trace differs from the declared calls"
    return None


def failure_cause(case: Case, out: ChainOutcome) -> str:
    """Which known defect explains a wrong chain outcome, if any."""
    for k in cleanup_arities(case):
        if k + 1 > MAX_INSNS and out.build_rc == EXIT_PLAN:
            return ARITY_5_6
        lowest = pop_ret_addrs(case.text, 0, k, allow_esp=True)[:1]
        pops_esp = bool(lowest) and 0x5C in case.text[lowest[0] : lowest[0] + k]
        if pops_esp and out.build_rc == EXIT_OK and out.verify_rc != EXIT_OK:
            return POP_ESP_CLEANUP
    return UNEXPLAINED
