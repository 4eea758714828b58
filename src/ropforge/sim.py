"""Stack-machine simulator that verifies chains without running exploits.

Models just enough of a 32-bit process to replay the moment the vulnerable
function returns with an overflowed frame: a register file, a byte-addressable
stack region, the binary's executable sections for instruction fetch, and a
map of function stubs from address to (name, arity).  Stubs don't emulate
callee bodies; hitting one records a call event with its arity's argument
words as observed on the stack and then behaves like a cdecl callee returning
without cleaning its arguments.  A reserved unmapped sentinel address signals
clean chain completion.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from typing import NamedTuple

from .chain import EXIT_SENTINEL, Payload
from .disasm import Mnemonic, decode_one
from .image import BinaryImage

STACK_TOP = 0xC0000000  # the stack region ends here and grows down with the payload
MIN_STACK_SIZE = 64 * 1024
STEP_BUDGET = 10_000
STACK_FILL = 0xCC  # uninitialized slots read conspicuously as 0xCCCCCCCC

_MASK = 0xFFFFFFFF
_ESP, _EBP = 4, 5


class TerminationKind(enum.Enum):
    EXIT_SENTINEL = "exit_sentinel"
    STEP_BUDGET = "step_budget"
    FAULT = "fault"
    UNSUPPORTED_INSTRUCTION = "unsupported_instruction"


class FaultKind(enum.Enum):
    STACK_OUT_OF_BOUNDS = "stack_out_of_bounds"
    UNMAPPED_FETCH = "unmapped_fetch"
    SOFTWARE_INTERRUPT = "software_interrupt"


class Termination(NamedTuple):
    kind: TerminationKind
    fault: FaultKind | None = None
    vaddr: int | None = None

    def render(self) -> str:
        if self.kind is TerminationKind.EXIT_SENTINEL:
            return "EXIT (sentinel)"
        if self.kind is TerminationKind.STEP_BUDGET:
            return "HALT (step budget exhausted)"
        if self.kind is TerminationKind.UNSUPPORTED_INSTRUCTION:
            return f"UNSUPPORTED instruction at {self.vaddr:#010x}"
        detail = self.fault.value.replace("_", " ")
        at = f" at {self.vaddr:#010x}" if self.vaddr is not None else ""
        return f"FAULT ({detail}{at})"


class CallEvent(NamedTuple):
    vaddr: int
    name: str
    args: tuple[int, ...]

    def render(self) -> str:
        args = ", ".join(f"{a:#010x}" for a in self.args)
        return f"CALL {self.vaddr:#010x} {self.name}({args})"


class CallTrace(NamedTuple):
    events: tuple[CallEvent, ...]
    termination: Termination


class _StackFault(Exception):
    def __init__(self, addr: int):
        self.addr = addr


class MachineState:
    """Mutable per-run machine: registers, ip, stack bytes, event log."""

    def __init__(self, image, stack_base, stack):
        self.image: BinaryImage = image
        self.stack_base: int = stack_base
        self.stack: bytearray = stack
        self.regs: list[int] = [0] * 8
        self.ip: int = 0
        self.steps: int = 0
        self.events: list[CallEvent] = []

    @property
    def esp(self) -> int:
        return self.regs[_ESP]

    @esp.setter
    def esp(self, value: int) -> None:
        self.regs[_ESP] = value & _MASK

    def _span(self, addr: int, length: int) -> int:
        off = addr - self.stack_base
        if off < 0 or off + length > len(self.stack):
            raise _StackFault(addr)
        return off

    def read32(self, addr: int) -> int:
        off = self._span(addr, 4)
        return int.from_bytes(self.stack[off : off + 4], "little")

    def write32(self, addr: int, value: int) -> None:
        off = self._span(addr, 4)
        self.stack[off : off + 4] = (value & _MASK).to_bytes(4, "little")

    def pop(self) -> int:
        esp = self.regs[_ESP]
        value = self.read32(esp)
        self.regs[_ESP] = (esp + 4) & _MASK
        return value

    def push(self, value: int) -> None:
        self.esp = self.esp - 4
        self.write32(self.esp, value)


# The mnemonics that pop a word (a stub's return is a ret), and those that end
# a run.  Those step reads on every pass are module globals: on Python 3.11,
# reading a member through its Enum class takes a slow lookup.
_RET, _RET_IMM16, _POP_REG, _LEAVE = (
    Mnemonic.RET, Mnemonic.RET_IMM16, Mnemonic.POP_REG, Mnemonic.LEAVE
)
_POPS = frozenset({_RET, _RET_IMM16, _POP_REG, _LEAVE})
_HALTS = frozenset({Mnemonic.UNKNOWN, Mnemonic.INT_IMM8})


def step(state: MachineState, stubs: Mapping[int, tuple[str, int]]) -> Termination | None:
    """Advance one step; returns a Termination when the run is over.

    Priority per step: stub interception, then the exit sentinel, then fetch
    and execute one decoded instruction.
    """
    if state.steps >= STEP_BUDGET:
        return Termination(TerminationKind.STEP_BUDGET)
    state.steps += 1
    ip, regs = state.ip, state.regs
    try:
        stub = stubs.get(ip)
        if stub is not None:
            # cdecl callee: observe args above the return slot, then ret without
            # popping them (the caller, i.e. the chain, owns the cleanup).
            name, arity = stub
            args = tuple([state.read32(regs[_ESP] + 4 * i) for i in range(1, arity + 1)])
            state.events.append(CallEvent(ip, name, args))
            m = _RET
        elif ip == EXIT_SENTINEL:
            return Termination(TerminationKind.EXIT_SENTINEL)
        else:
            section = state.image.section_at(ip)
            if section is None or not section.executable:
                return Termination(TerminationKind.FAULT, FaultKind.UNMAPPED_FETCH, vaddr=ip)
            _, length, m, operands = decode_one(section.data, ip - section.vaddr, ip)
            if m in _HALTS:
                if m is Mnemonic.UNKNOWN:
                    return Termination(TerminationKind.UNSUPPORTED_INSTRUCTION, vaddr=ip)
                return Termination(TerminationKind.FAULT, FaultKind.SOFTWARE_INTERRUPT, vaddr=ip)

        if m in _POPS:  # leave first moves esp to ebp
            if m is _LEAVE:
                regs[_ESP] = regs[_EBP]
            word = state.pop()
            if m is _RET:
                ip = word
            elif m is _RET_IMM16:
                ip = word
                regs[_ESP] = (regs[_ESP] + operands[0]) & _MASK
            else:  # pop reg, or leave's pop into ebp
                regs[operands[0] if m is _POP_REG else _EBP] = word
                ip = (ip + length) & _MASK
        elif m is Mnemonic.JMP_INDIRECT:
            ip = regs[operands[0]]
        elif m is Mnemonic.CALL_INDIRECT:  # as on x86, call esp goes to the esp before the push
            target = regs[operands[0]]
            state.push((ip + length) & _MASK)
            ip = target
        else:  # the rest go on to the next instruction; nop does only that
            if m is Mnemonic.PUSH_REG:
                state.push(regs[operands[0]])
            elif m is Mnemonic.PUSH_IMM32:
                state.push(operands[0])
            elif m is Mnemonic.MOV_REG_IMM32:
                regs[operands[0]] = operands[1] & _MASK
            elif m is Mnemonic.MOV_REG_REG:
                regs[operands[0]] = regs[operands[1]]
            elif m is Mnemonic.XOR_REG_REG:
                dst, src = operands
                regs[dst] = regs[dst] ^ regs[src]
            elif m in (Mnemonic.ADD_ESP_IMM8, Mnemonic.ADD_ESP_IMM32):
                regs[_ESP] = (regs[_ESP] + operands[0]) & _MASK
            ip = (ip + length) & _MASK
        state.ip = ip
        if not state.stack_base <= regs[_ESP] <= state.stack_base + len(state.stack):
            raise _StackFault(regs[_ESP])
    except _StackFault as fault:
        return Termination(TerminationKind.FAULT, FaultKind.STACK_OUT_OF_BOUNDS, vaddr=fault.addr)
    return None


def run(state: MachineState, stubs: Mapping[int, tuple[str, int]]) -> Termination:
    """Step a booted machine, by this module's ``step``, until it terminates.
    Reaching an unmapped address, other than a stub or the sentinel, ends a
    run with ``UNMAPPED_FETCH`` there."""
    while (term := step(state, stubs)) is None:
        pass
    return term


def boot_state(image: BinaryImage, payload: Payload | bytes, ret_offset: int) -> MachineState:
    """Stack and registers at the instant the vulnerable function returns.

    The stack region ends at ``STACK_TOP``; its size is the smallest multiple
    of ``MIN_STACK_SIZE`` whose top three quarters hold the payload, so any
    payload of up to 48 KiB gets the same addresses.  The payload's buffer
    start sits a quarter into the region; the word at ``ret_offset``
    therefore occupies the saved return address slot, and esp points at that
    slot with the overflow's tail at ascending addresses.
    """
    data = payload.data if isinstance(payload, Payload) else bytes(payload)
    if ret_offset < 0:
        raise ValueError("ret_offset must be >= 0")
    if len(data) < ret_offset + 4:
        raise ValueError("payload too short to reach the saved return address")
    size = MIN_STACK_SIZE * -(-len(data) // (MIN_STACK_SIZE * 3 // 4))
    stack = bytearray([STACK_FILL]) * size
    stack[size // 4 : size // 4 + len(data)] = data
    state = MachineState(image=image, stack_base=STACK_TOP - size, stack=stack)
    state.esp = state.stack_base + size // 4 + ret_offset
    return state


def simulate(
    image: BinaryImage,
    stubs: Mapping[int, tuple[str, int]],
    payload: Payload | bytes,
    ret_offset: int,
) -> CallTrace:
    """Replay the overflowed return and run the chain to termination.

    ``stubs`` maps each intercepted function's address to its name and the
    number of argument words a call to it records.
    """
    state = boot_state(image, payload, ret_offset)
    # The vulnerable function's own ret: boot_state put its slot inside the payload.
    state.ip = state.pop()
    term = run(state, stubs)
    return CallTrace(events=tuple(state.events), termination=term)


def format_trace(trace: CallTrace) -> list[str]:
    return [e.render() for e in trace.events] + [trace.termination.render()]


def trace_jsonl(trace: CallTrace) -> list[str]:
    lines = [
        json.dumps(
            {
                "type": "call",
                "addr": f"{e.vaddr:#010x}",
                "name": e.name,
                "args": [f"{a:#010x}" for a in e.args],
            }
        )
        for e in trace.events
    ]
    term = {"type": "termination", "kind": trace.termination.kind.value}
    if trace.termination.fault is not None:
        term["fault"] = trace.termination.fault.value
    if trace.termination.vaddr is not None:
        term["addr"] = f"{trace.termination.vaddr:#010x}"
    lines.append(json.dumps(term))
    return lines
