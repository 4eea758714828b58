"""Chain planner and payload serialization tests."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from ropforge.chain import (
    CallStep,
    ChainSpec,
    LayoutWord,
    Payload,
    Role,
    SCANF_BAD_BYTES,
    StackLayout,
    check_bad_bytes,
    emit_payload,
    plan_chain,
)
from conftest import target_on_cleanup_elf
from ropforge.chainfile import parse_chain_file, resolve
from ropforge.errors import MissingCleanupGadgetError, UnsatisfiableArityError
from ropforge.gadgets import find_pop_ret
from ropforge.image import load_image
from ropforge.sim import FaultKind, Termination, TerminationKind, boot_state, run


def spec(calls, ret_offset=32, final=0x41414141, **kw):
    return ChainSpec(calls=tuple(calls), ret_offset=ret_offset, final_target=final, **kw)


def test_single_zero_arg_call():
    layout = plan_chain(spec([CallStep(0x080484A4)]))
    assert layout.pad_len == 32
    assert [w.value for w in layout.words] == [0x080484A4, 0x41414141]
    assert [w.role for w in layout.words] == [Role.FUNC_ADDR, Role.FINAL_TARGET]


def test_three_fold_iteration():
    calls = [CallStep(0x0804848B)] * 3
    layout = plan_chain(spec(calls, final=0xDEADC0DE))
    assert [w.value for w in layout.words] == [0x0804848B, 0x0804848B, 0x0804848B, 0xDEADC0DE]


def test_mid_chain_argument_needs_cleanup(demo_image):
    calls = [CallStep(0x080484A4, (0x0804A030,)), CallStep(0x0804848B)]
    layout = plan_chain(spec(calls, final=0xDEADC0DE), demo_image)
    cleanup = find_pop_ret(demo_image, 1).vaddr
    assert [w.value for w in layout.words] == [0x080484A4, cleanup, 0x0804A030, 0x0804848B, 0xDEADC0DE]
    assert [w.role for w in layout.words] == [
        Role.FUNC_ADDR,
        Role.CLEANUP_GADGET,
        Role.ARG,
        Role.FUNC_ADDR,
        Role.FINAL_TARGET,
    ]


def test_final_call_args_follow_final_target():
    layout = plan_chain(spec([CallStep(0x080484A4, (0x0804A030,))], final=0xDEADC0DE))
    assert [w.value for w in layout.words] == [0x080484A4, 0xDEADC0DE, 0x0804A030]


def test_missing_cleanup_gadget():
    calls = [CallStep(0x080484A4, (1,)), CallStep(0x0804848B)]
    with pytest.raises(MissingCleanupGadgetError):
        plan_chain(spec(calls), image=None)


def test_missing_cleanup_gadget_arity_not_present(demo_image):
    calls = [CallStep(0x080484A4, (1, 2, 3, 4)), CallStep(0x0804848B)]
    with pytest.raises(MissingCleanupGadgetError):
        plan_chain(spec(calls), demo_image)


def test_unsatisfiable_arity():
    with pytest.raises(UnsatisfiableArityError):
        plan_chain(spec([CallStep(0x080484A4, tuple(range(1, 9)))]))


def test_zero_arg_chaining_is_concatenation():
    f, g, t = 0x08048100, 0x08048200, 0x41414141
    both = plan_chain(spec([CallStep(f), CallStep(g)], final=t))
    prefix = plan_chain(spec([CallStep(f)], final=g))
    assert [w.value for w in both.words] == [w.value for w in prefix.words] + [t]


def test_emit_payload_fig_layout():
    layout = plan_chain(spec([CallStep(0x080484A4)]))
    payload = emit_payload(layout, pad_byte=0x41)
    assert payload.data == b"A" * 32 + b"\xa4\x84\x04\x08" + b"\x41\x41\x41\x41"
    assert payload.role_at(0) is Role.PADDING
    assert payload.role_at(33) is Role.FUNC_ADDR
    assert payload.role_at(36) is Role.FINAL_TARGET


def test_emit_payload_zero_padding():
    layout = plan_chain(spec([CallStep(0x080484A4)], ret_offset=0))
    payload = emit_payload(layout, pad_byte=0x90)
    assert payload.data[:4] == b"\xa4\x84\x04\x08"


def test_emit_payload_refuses_a_pad_byte_outside_a_byte():
    layout = StackLayout(pad_len=4, words=(LayoutWord(0x41424344, Role.FUNC_ADDR),))
    for pad_byte in (-1, 0x100):
        with pytest.raises(ValueError, match="^pad_byte must be a byte value$"):
            emit_payload(layout, pad_byte=pad_byte)


def test_check_bad_bytes():
    layout = plan_chain(spec([CallStep(0x0804_0A04)]))  # 0x0a inside the address
    payload = emit_payload(layout)
    hits = check_bad_bytes(payload, {0x0A})
    assert hits == [(33, 0x0A, "func_addr")]
    assert check_bad_bytes(payload, set()) == []


def test_check_bad_bytes_space_in_address():
    layout = plan_chain(spec([CallStep(0x08048420)], final=0x0804848B))
    payload = emit_payload(layout)
    hits = check_bad_bytes(payload, SCANF_BAD_BYTES)
    assert [(off, b) for off, b, _ in hits] == [(32, 0x20)]


def _bad_bytes_reference(payload, bad):
    """check_bad_bytes by definition: every byte, and the role of the layout
    word covering it, found by walking the words."""
    roles = [Role.PADDING] * payload.layout.pad_len
    for w in payload.layout.words:
        roles += [w.role] * 4
    return [(o, b, roles[o].value) for o, b in enumerate(payload.data) if b in bad]


_layout_words = st.lists(
    st.builds(
        LayoutWord,
        st.integers(0, 0xFFFFFFFF),
        st.sampled_from([r for r in Role if r is not Role.PADDING]),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), _layout_words, st.integers(0, 255), st.data())
def test_check_bad_bytes_matches_per_byte_reference(pad_len, words, pad_byte, data):
    payload = emit_payload(StackLayout(pad_len, tuple(words)), pad_byte)
    # bad bytes drawn from the payload itself, the pad byte among them, and at random
    bad = data.draw(st.frozensets(st.sampled_from(sorted(set(payload.data) | {pad_byte}))))
    bad |= data.draw(st.frozensets(st.integers(0, 255), max_size=4))
    assert check_bad_bytes(payload, bad) == _bad_bytes_reference(payload, bad)


@pytest.mark.parametrize(
    "bad",
    [frozenset(), SCANF_BAD_BYTES, frozenset(range(256)), frozenset({-1, 256, 0x41})],
    ids=["empty", "scanf", "every-byte", "out-of-range"],
)
def test_check_bad_bytes_table_matches_per_byte_scan(bad):
    # every byte value once in the words, after a run of pad bytes
    words = [int.from_bytes(bytes(range(i, i + 4)), "little") for i in range(0, 256, 4)]
    layout = StackLayout(3, tuple(LayoutWord(w, Role.ARG) for w in words))
    payload = emit_payload(layout, pad_byte=0x20)
    assert check_bad_bytes(payload, bad) == _bad_bytes_reference(payload, bad)
    assert len(check_bad_bytes(payload, bad)) == len(bad & set(payload.data)) + 3 * (0x20 in bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), _layout_words, st.integers(0, 255))
def test_role_at_reads_each_byte_from_the_layout(pad_len, words, pad_byte):
    payload = emit_payload(StackLayout(pad_len, tuple(words)), pad_byte)
    expected = [Role.PADDING] * pad_len + [w.role for w in words for _ in range(4)]
    assert [payload.role_at(o) for o in range(len(payload.data))] == expected
    for offset in (-1, len(payload.data)):
        with pytest.raises(IndexError):
            payload.role_at(offset)


def test_role_at_outside_the_annotations():
    payload = emit_payload(plan_chain(spec([CallStep(0x080484A4)], ret_offset=3)))
    assert [payload.role_at(o) for o in (0, 2, 3, 10)] == [
        Role.PADDING,
        Role.PADDING,
        Role.FUNC_ADDR,
        Role.FINAL_TARGET,
    ]
    for offset in (-1, len(payload.data)):
        with pytest.raises(IndexError):
            payload.role_at(offset)
    with pytest.raises(IndexError):
        Payload(b"AAAA", StackLayout(0, ())).role_at(0)


def test_length_identity():
    layout = plan_chain(spec([CallStep(0x080484A4, (1, 2, 3))], ret_offset=13))
    payload = emit_payload(layout)
    assert len(payload.data) == 13 + 4 * len(layout.words)


def test_serialization_round_trip_matches_struct_oracle():
    layout = plan_chain(spec([CallStep(0x080484A4, (0xDEAD, 7))], final=0xCAFEBABE))
    payload = emit_payload(layout)
    # independent packing oracle
    expected = b"".join(struct.pack("<I", w.value & 0xFFFFFFFF) for w in layout.words)
    assert payload.data[32:] == expected


# Words as a chain file may give them: negative ones are two's complement.
_words = st.integers(-(1 << 31), 0xFFFFFFFF)


@given(
    st.lists(
        st.tuples(
            _words.filter(lambda t: t & 0xFFFFFFFF),
            st.lists(_words, max_size=3),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 64),
    _words,
)
def test_serialization_round_trip_random(calls, ret_offset, final):
    steps = [CallStep(t, tuple(args)) for t, args in calls]
    if any(c.arity for c in steps[:-1]):
        return  # mid-chain args need a gadget set; covered elsewhere
    layout = plan_chain(spec(steps, ret_offset=ret_offset, final=final))
    # the records mask every word, so the layout holds 32-bit words only
    assert all(0 <= w.value <= 0xFFFFFFFF for w in layout.words)
    payload = emit_payload(layout)
    expected = b"".join(struct.pack("<I", w.value) for w in layout.words)
    assert payload.data[ret_offset:] == expected
    assert len(payload.data) == ret_offset + 4 * len(layout.words)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(calls=(), ret_offset=32)
    with pytest.raises(ValueError):
        spec([CallStep(0x80484A4)], ret_offset=-1)
    with pytest.raises(ValueError):
        CallStep(0)
    with pytest.raises(ValueError):
        CallStep(1 << 32)  # masks to 0


def test_records_mask_words_to_32_bits():
    step = CallStep(-1, (-2,))
    assert step == (0xFFFFFFFF, (0xFFFFFFFE,))
    assert spec([step], final=-1).final_target == 0xFFFFFFFF


# Stack words the cleanup runs on: never mapped, so ip reaching one ends the run.
MARKERS = [0x7E000000 + 4 * i for i in range(8)]


def _assert_cleanups_run(image, resolved):
    """Every cleanup word the planner picks, run alone in the simulator with
    the chain's stubs, pops its call's k arguments and returns to word k."""
    chain = resolved.spec
    try:
        layout = plan_chain(chain, image)
    except MissingCleanupGadgetError:
        return 0
    cleanups = [w.value for w in layout.words if w.role is Role.CLEANUP_GADGET]
    arities = [c.arity for c in chain.calls[:-1] if c.arity]
    assert len(cleanups) == len(arities)
    stack = b"".join(m.to_bytes(4, "little") for m in MARKERS)
    for word, k in zip(cleanups, arities):
        state = boot_state(image, stack, 0)
        esp, state.ip = state.esp, word
        # the run ends fetching the first marker it returns to
        term = run(state, resolved.stubs)
        assert term == Termination(TerminationKind.FAULT, FaultKind.UNMAPPED_FETCH, MARKERS[k])
        assert state.events == []
        assert state.ip == MARKERS[k]
        assert state.esp - esp == 4 * (k + 1)
    return len(cleanups)


@pytest.mark.parametrize("workload", ["chain_small", "chain_large"])
def test_planned_cleanups_run_as_cleanups_on_benchmark_chains(bench_modules, workload):
    inputs, _ = bench_modules
    checked = 0
    for seed in (101, 102):
        for index in range(20):
            case = getattr(inputs, workload)(seed, index)
            image = load_image(case.files[inputs.BINARY])
            cf = parse_chain_file(case.files[inputs.CHAIN].decode())
            checked += _assert_cleanups_run(image, resolve(cf, image))
    assert checked


def test_planned_cleanup_holding_no_call_target_runs():
    # the lowest pop eax ; ret is f itself: as a cleanup it would be a second call of f
    image = load_image(target_on_cleanup_elf())
    cf = parse_chain_file("ret_offset: 8\ncall: f 7\ncall: g\n")
    assert _assert_cleanups_run(image, resolve(cf, image)) == 1
