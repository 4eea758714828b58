"""Simulator tests: stub semantics, instruction execution, chain round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ADDR_PIVOT8,
    ADDR_SECRET_NOPARM,
    ADDR_SECRET_PARM,
    ADDR_STR,
    STUB_BY_ARITY,
)
from ropforge.chain import (
    CallStep,
    ChainSpec,
    EXIT_SENTINEL,
    emit_payload,
    plan_chain,
)
from ropforge.disasm import REG_NAMES
from ropforge.gadgets import find_pop_ret
from ropforge.image import BinaryImage, Section
from ropforge.sim import (
    CallEvent,
    FaultKind,
    MIN_STACK_SIZE,
    STACK_TOP,
    STEP_BUDGET,
    Termination,
    TerminationKind,
    boot_state,
    format_trace,
    run,
    simulate,
    step,
    trace_jsonl,
)


def build_payload(calls, image=None, ret_offset=32, final=EXIT_SENTINEL):
    spec = ChainSpec(calls=tuple(calls), ret_offset=ret_offset, final_target=final)
    return emit_payload(plan_chain(spec, image))


def stub_table():
    table = {
        ADDR_SECRET_PARM: ("SecretFunctionWithParm", 1),
        ADDR_SECRET_NOPARM: ("SecretFunctionWithoutParm", 0),
    }
    for arity, addr in STUB_BY_ARITY.items():
        table[addr] = (f"stub{arity}", arity)
    return table


def test_single_call_without_arg_word_reads_fill(demo_image):
    # one-arg stub called through a zero-arg layout: the observed argument is
    # whatever sits above the sentinel word, i.e. conspicuous 0xCC fill
    payload = build_payload([CallStep(ADDR_SECRET_PARM)])
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert trace.events == (
        CallEvent(ADDR_SECRET_PARM, "SecretFunctionWithParm", (0xCCCCCCCC,)),
    )


def test_single_call_with_injected_argument(demo_image):
    payload = build_payload([CallStep(ADDR_SECRET_PARM, (ADDR_STR,))])
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert trace.events == (
        CallEvent(ADDR_SECRET_PARM, "SecretFunctionWithParm", (ADDR_STR,)),
    )
    assert format_trace(trace) == [
        "CALL 0x080484a4 SecretFunctionWithParm(0x0804a030)",
        "EXIT (sentinel)",
    ]


def test_iterative_chain_three_calls(demo_image):
    payload = build_payload([CallStep(ADDR_SECRET_NOPARM)] * 3)
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert [e.vaddr for e in trace.events] == [ADDR_SECRET_NOPARM] * 3


def test_unmapped_first_word_faults(demo_image):
    payload = b"A" * 32 + (0x00001000).to_bytes(4, "little")
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.events == ()
    assert trace.termination.kind is TerminationKind.FAULT
    assert trace.termination.fault is FaultKind.UNMAPPED_FETCH


def test_cleanup_gadget_required_for_mid_chain_args(demo_image):
    calls = [CallStep(STUB_BY_ARITY[1], (0x1234,)), CallStep(STUB_BY_ARITY[0])]
    good = build_payload(calls, demo_image)
    trace = simulate(demo_image, stub_table(), good, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert [(e.vaddr, e.args) for e in trace.events] == [
        (STUB_BY_ARITY[1], (0x1234,)),
        (STUB_BY_ARITY[0], ()),
    ]

    # surgically drop the cleanup word: the second call never happens right
    layout = plan_chain(
        ChainSpec(calls=tuple(calls), ret_offset=32, final_target=EXIT_SENTINEL), demo_image
    )
    from ropforge.chain import Role, StackLayout

    broken = StackLayout(
        pad_len=layout.pad_len,
        words=tuple(w for w in layout.words if w.role is not Role.CLEANUP_GADGET),
    )
    bad_trace = simulate(demo_image, stub_table(), emit_payload(broken), 32)
    assert [(e.vaddr, e.args) for e in bad_trace.events] != [
        (STUB_BY_ARITY[1], (0x1234,)),
        (STUB_BY_ARITY[0], ()),
    ]


def test_stub_ret_rule(demo_image):
    payload = build_payload([CallStep(ADDR_SECRET_PARM, (0x11111111,))])
    state = boot_state(demo_image, payload, 32)
    state.ip = state.pop()
    esp_at_entry = state.esp
    arg_addr = esp_at_entry + 4
    arg_before = state.read32(arg_addr)
    assert step(state, stub_table()) is None
    assert state.esp == esp_at_entry + 4  # exactly the return-address pop
    assert state.read32(arg_addr) == arg_before == 0x11111111


def test_pop_ret_gadget_semantics(demo_image):
    # executing pop_ret(k) advances esp by 4(k+1) and lands on [esp + 4k]
    for arity in (1, 2, 3):
        gadget = find_pop_ret(demo_image, arity)
        state = boot_state(demo_image, b"Z" * 64, 0)
        state.ip = gadget.vaddr
        base_esp = state.esp
        state.write32(base_esp + 4 * arity, 0x5A5A5A5A)
        for _ in range(arity + 1):
            assert step(state, {}) is None
        assert state.esp == base_esp + 4 * (arity + 1)
        assert state.ip == 0x5A5A5A5A


def test_stack_pivot_gadget(demo_image):
    state = boot_state(demo_image, b"Z" * 64, 0)
    state.ip = ADDR_PIVOT8
    base_esp = state.esp
    state.write32(base_esp + 8, EXIT_SENTINEL)
    assert step(state, {}) is None  # add esp, 8
    assert state.esp == base_esp + 8
    assert step(state, {}) is None  # ret
    assert state.ip == EXIT_SENTINEL
    assert step(state, {}).kind is TerminationKind.EXIT_SENTINEL


CODE = 0x08048000
EAX, ECX, ESP, EBP = (REG_NAMES.index(r) for r in ("eax", "ecx", "esp", "ebp"))


def boot_at(code: bytes):
    """A machine about to run ``code``, with esp at 64 stack bytes 00 01 .. 3f."""
    image = BinaryImage(0, (Section(".text", CODE, code, True),), ())
    state = boot_state(image, bytes(range(64)), 0)
    state.ip = CODE
    return state


def test_call_reg_pushes_the_next_instruction_then_jumps():
    # the target is read before the push: call esp jumps to the old esp
    for code, reg in ((b"\xff\xd0", EAX), (b"\xff\xd4", ESP)):  # call eax, call esp
        state = boot_at(code)
        esp = state.esp
        state.regs[EAX] = 0x11223344
        target = state.regs[reg]
        assert step(state, {}) is None
        assert state.ip == target
        assert state.esp == esp - 4
        assert state.read32(state.esp) == CODE + 2


def test_push_esp_pushes_the_old_esp():
    state = boot_at(b"\x54")  # push esp
    esp = state.esp
    assert step(state, {}) is None
    assert state.esp == esp - 4
    assert state.read32(state.esp) == esp
    assert state.ip == CODE + 1


def test_pop_esp_loads_the_popped_word():
    state = boot_at(b"\x5c")  # pop esp
    esp = state.esp
    state.write32(esp, esp + 16)  # a word inside the stack, so no fault follows
    assert step(state, {}) is None
    assert state.esp == esp + 16
    assert state.ip == CODE + 1


def test_ret_imm16_adds_its_immediate_after_the_pop():
    state = boot_at(b"\xc2\x08\x00")  # ret 8
    esp = state.esp
    assert step(state, {}) is None
    assert state.ip == 0x03020100
    assert state.esp == esp + 4 + 8


def test_xor_reg_reg_computes_xor():
    state = boot_at(b"\x31\xc8")  # xor eax, ecx
    state.regs[EAX], state.regs[ECX] = 0b1100, 0b1010
    assert step(state, {}) is None
    assert (state.regs[EAX], state.regs[ECX]) == (0b0110, 0b1010)
    assert state.ip == CODE + 2


def test_push_imm32_pushes_its_immediate():
    state = boot_at(b"\x68\x78\x56\x34\x12")  # push 0x12345678
    esp = state.esp
    assert step(state, {}) is None
    assert state.esp == esp - 4
    assert state.read32(state.esp) == 0x12345678
    assert state.ip == CODE + 5


def test_leave_moves_esp_to_ebp_before_it_pops():
    state = boot_at(b"\xc9")  # leave
    esp = state.esp
    state.regs[EBP] = esp + 16
    assert step(state, {}) is None
    assert state.regs[EBP] == 0x13121110  # the word at the old ebp
    assert state.esp == esp + 20
    assert state.ip == CODE + 1


@pytest.mark.parametrize(
    "code, ebp, esp, fault",
    [
        (b"\xc9", 0x1000, None, 0x1000),  # leave, with ebp below the stack
        (b"\xc2\x08\x00", None, STACK_TOP - 4, STACK_TOP + 8),  # ret 8 from the top word
    ],
    ids=["leave-ebp-outside", "ret-imm16-past-top"],
)
def test_pops_fault_where_esp_leaves_the_stack(code, ebp, esp, fault):
    state = boot_at(code)
    if ebp is not None:
        state.regs[EBP] = ebp
    if esp is not None:
        state.esp = esp
    assert step(state, {}) == Termination(
        TerminationKind.FAULT, FaultKind.STACK_OUT_OF_BOUNDS, fault
    )


def test_mov_reg_reg_copies_the_source_into_the_destination():
    state = boot_at(b"\x89\xc8")  # mov eax, ecx
    state.regs[EAX], state.regs[ECX] = 0x11111111, 0x22222222
    assert step(state, {}) is None
    assert (state.regs[EAX], state.regs[ECX]) == (0x22222222, 0x22222222)
    assert state.ip == CODE + 2


def test_sentinel_direct(demo_image):
    state = boot_state(demo_image, b"A" * 36, 32)
    state.write32(state.esp, EXIT_SENTINEL)
    state.ip = state.pop()
    term = step(state, {})
    assert term is not None and term.kind is TerminationKind.EXIT_SENTINEL


def test_step_budget(demo_image):
    # jmp eax with eax pointing back at the jmp spins until the budget ends
    state = boot_state(demo_image, b"A" * 36, 32)
    jmp_addr = 0x08048578
    state.regs[0] = jmp_addr
    state.ip = jmp_addr
    assert run(state, {}) == Termination(TerminationKind.STEP_BUDGET)
    assert state.steps == STEP_BUDGET


def test_terminations_render_as_the_trace_prints_them(demo_image):
    state = boot_state(demo_image, b"A" * 36, 32)
    state.regs[0] = state.ip = 0x08048578  # jmp eax, to itself
    assert run(state, {}).render() == "HALT (step budget exhausted)"
    payload = b"A" * 32 + (0x08048400).to_bytes(4, "little")  # 0xCC filler
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert format_trace(trace) == ["UNSUPPORTED instruction at 0x08048400"]


def test_stub_reading_arguments_above_the_stack_top_faults(demo_image):
    # 48 KiB fill the region's top three quarters, so the stub's address is
    # the region's last word, and its one argument word lies past STACK_TOP
    stub = STUB_BY_ARITY[1]
    payload = b"A" * (48 * 1024 - 4) + stub.to_bytes(4, "little")
    state = boot_state(demo_image, payload, 48 * 1024 - 4)
    assert state.stack_base + len(state.stack) == STACK_TOP
    trace = simulate(demo_image, stub_table(), payload, 48 * 1024 - 4)
    assert trace.events == ()
    assert trace.termination == Termination(
        TerminationKind.FAULT, FaultKind.STACK_OUT_OF_BOUNDS, STACK_TOP + 4
    )
    assert format_trace(trace) == ["FAULT (stack out of bounds at 0xc0000004)"]


def test_software_interrupt_faults(demo_image):
    raw = bytearray(b"\xcd\x80")
    from ropforge.elfbuild import SectionSpec, build_elf
    from ropforge.image import load_image

    img = load_image(build_elf([SectionSpec(".text", 0x08048000, bytes(raw), "ax")]))
    payload = b"A" * 4 + (0x08048000).to_bytes(4, "little")
    trace = simulate(img, {}, payload, 4)
    assert trace.termination.kind is TerminationKind.FAULT
    assert trace.termination.fault is FaultKind.SOFTWARE_INTERRUPT


def test_stack_out_of_bounds(demo_image):
    # a pop would cross the top, or starts exactly at it
    for esp in (STACK_TOP - 2, STACK_TOP):
        state = boot_state(demo_image, b"A" * 36, 32)
        state.esp = esp
        state.ip = 0x0804848F  # pop ebp ; ret
        term = step(state, {})
        assert term == Termination(TerminationKind.FAULT, FaultKind.STACK_OUT_OF_BOUNDS, esp)


def test_stack_bounds_follow_the_region(demo_image):
    # a payload past 48 KiB grows the region down: a pop near its base stays in bounds
    state = boot_state(demo_image, b"A" * 100_000, 32)
    assert state.stack_base < 0xBFFF0000
    state.esp = state.stack_base + 4
    state.ip = 0x0804848F  # pop ebp ; ret
    assert step(state, {}) is None
    assert state.esp == state.stack_base + 8


def test_unsupported_instruction(demo_image):
    # 0xCC filler in .text decodes as unknown
    payload = b"A" * 32 + (0x08048400).to_bytes(4, "little")
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.UNSUPPORTED_INSTRUCTION
    assert trace.termination.vaddr == 0x08048400


def test_deterministic(demo_image):
    calls = [CallStep(STUB_BY_ARITY[2], (5, 6)), CallStep(STUB_BY_ARITY[0])]
    payload = build_payload(calls, demo_image)
    first = simulate(demo_image, stub_table(), payload, 32)
    second = simulate(demo_image, stub_table(), payload, 32)
    assert first == second


def test_trace_jsonl_shape(demo_image):
    payload = build_payload([CallStep(ADDR_SECRET_PARM, (ADDR_STR,))])
    trace = simulate(demo_image, stub_table(), payload, 32)
    import json

    lines = [json.loads(line) for line in trace_jsonl(trace)]
    assert lines[0] == {
        "type": "call",
        "addr": "0x080484a4",
        "name": "SecretFunctionWithParm",
        "args": ["0x0804a030"],
    }
    assert lines[-1] == {"type": "termination", "kind": "exit_sentinel"}


def test_payload_too_short(demo_image):
    with pytest.raises(ValueError):
        simulate(demo_image, {}, b"A" * 8, 32)


def test_negative_ret_offset_rejected(demo_image):
    with pytest.raises(ValueError):
        simulate(demo_image, {}, b"A" * 64, -100_000)


@pytest.mark.parametrize(
    "length, base",
    [
        (36, 0xBFFF0000),
        (48 * 1024, 0xBFFF0000),
        (48 * 1024 + 1, 0xBFFE0000),
        (96 * 1024 + 1, 0xBFFD0000),
    ],
)
def test_stack_region_sized_from_payload(demo_image, length, base):
    # a payload of up to 48 KiB keeps the fixed addresses every trace was taken with
    state = boot_state(demo_image, b"A" * length, 32)
    assert state.stack_base == base
    assert state.stack_base + len(state.stack) == STACK_TOP
    assert state.esp == base + len(state.stack) // 4 + 32


@settings(max_examples=30, deadline=None)
@given(st.integers(36, 300_000))
def test_stack_region_is_the_smallest_that_holds_the_payload(demo_image, length):
    state = boot_state(demo_image, b"A" * length, 32)
    size = len(state.stack)
    assert size % MIN_STACK_SIZE == 0 and state.stack_base + size == STACK_TOP
    assert length <= size * 3 // 4  # the payload fits above the buffer start
    assert size == MIN_STACK_SIZE or length > (size - MIN_STACK_SIZE) * 3 // 4
    buffer = size // 4
    assert state.stack[buffer : buffer + length] == b"A" * length


def test_chain_past_48_kib_reaches_the_sentinel(demo_image):
    calls = [CallStep(STUB_BY_ARITY[2], (5, 6)), CallStep(ADDR_SECRET_PARM, (ADDR_STR,))]
    payload = build_payload(calls, demo_image, ret_offset=70_000)
    trace = simulate(demo_image, stub_table(), payload, 70_000)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert [(e.vaddr, e.args) for e in trace.events] == [(c.target, c.args) for c in calls]


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=36, max_size=200))
def test_budget_safety_arbitrary_payloads(demo_image, blob):
    """Whatever bytes land on the stack, simulation terminates within budget."""
    trace = simulate(demo_image, stub_table(), blob, 32)
    assert trace.termination is not None
    assert len(trace.events) <= STEP_BUDGET


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.integers(0, 0xFFFFFFFF), max_size=3)),
        min_size=1,
        max_size=5,
    )
)
def test_plan_simulate_round_trip(demo_image, call_shapes):
    """Core property: whatever plan_chain accepts, the simulator replays as
    exactly the declared calls, ending at the sentinel."""
    calls = tuple(
        CallStep(STUB_BY_ARITY[arity], tuple(args[:arity] + [0] * (arity - len(args))))
        for arity, args in call_shapes
    )
    spec = ChainSpec(calls=calls, ret_offset=32, final_target=EXIT_SENTINEL)
    payload = emit_payload(plan_chain(spec, demo_image))
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert [(e.vaddr, e.args) for e in trace.events] == [(c.target, c.args) for c in calls]


def test_simulate_calls_the_module_step_once_per_step(demo_image, monkeypatch):
    """ropbench counts ``sim.steps`` by patching ``ropforge.sim.step``, so
    ``simulate`` must look ``step`` up in its module on every step."""
    import ropforge.sim

    calls = [CallStep(ADDR_SECRET_PARM, (ADDR_STR,)), CallStep(ADDR_SECRET_NOPARM)]
    payload = build_payload(calls, demo_image)
    # the steps a loop of its own takes, from the same boot
    state = boot_state(demo_image, payload, 32)
    state.ip = state.pop()
    while step(state, stub_table()) is None:
        pass
    assert state.steps > len(calls)  # the cleanup gadget's pop and ret are steps too

    counted = []
    monkeypatch.setattr(ropforge.sim, "step", lambda *a: counted.append(a) or step(*a))
    trace = simulate(demo_image, stub_table(), payload, 32)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert len(counted) == state.steps
