"""Acceptance suite: one test per criterion, every check at exact tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Randomized criteria use fixed seeds and report zero-mismatch
counts; nothing here is approximate.
"""

import random
import struct

import pytest

import oracle_bruteforce
import oracle_objdump
from conftest import (
    ADDR_SECRET_NOPARM,
    ADDR_SECRET_PARM,
    ADDR_STR,
    ADDR_UNALIGNED_HOST,
    ADDR_UNALIGNED_RET,
    STUB_BY_ARITY,
    TEXT_VADDR,
)
from ropforge.chain import (
    CallStep,
    ChainSpec,
    EXIT_SENTINEL,
    Role,
    StackLayout,
    emit_payload,
    plan_chain,
)
from ropforge.cli import main
from ropforge.elfbuild import SectionSpec, build_elf
from ropforge.gadgets import enumerate_gadgets
from ropforge.image import load_image
from ropforge.sim import TerminationKind, simulate


@pytest.fixture(scope="module")
def stubs():
    table = {
        ADDR_SECRET_PARM: ("SecretFunctionWithParm", 1),
        ADDR_SECRET_NOPARM: ("SecretFunctionWithoutParm", 0),
    }
    for arity, addr in STUB_BY_ARITY.items():
        table[addr] = (f"stub{arity}", arity)
    return table


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("ROPFORGE_COLOR", "0")


def test_criterion_01_offset_reproduction(demo_binary, capsys):
    """Displacement 28 and ret_offset 32 recovered from the echo frame."""
    assert main(["offset", str(demo_binary), "echo"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "disp=0x1c saved_fp=4 ret_offset=32"


def test_criterion_02_one_call_with_argument(demo_binary, tmp_path, capsys):
    """A one-call chain to 0x080484a4 with one argument verifies with exactly
    that call and the injected word in the trace."""
    chain = tmp_path / "one.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: auto echo\n"
        "call: 0x080484a4 0x11223344\nfinal: sentinel\n"
    )
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    calls = [l for l in out.splitlines() if l.startswith("CALL")]
    assert calls == ["CALL 0x080484a4 SecretFunctionWithParm(0x11223344)"]
    assert "EXIT (sentinel)" in out


def test_criterion_03_three_fold_iteration(demo_binary, tmp_path, capsys):
    """Three chained calls to 0x0804848b produce exactly three events in order."""
    chain = tmp_path / "three.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: auto echo\n"
        + "call: SecretFunctionWithoutParm\n" * 3
    )
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    calls = [l for l in capsys.readouterr().out.splitlines() if l.startswith("CALL")]
    assert calls == ["CALL 0x0804848b SecretFunctionWithoutParm()"] * 3


def test_criterion_04_global_variable_argument(demo_binary, tmp_path, capsys):
    """&str resolves to the data symbol's address and appears verbatim."""
    chain = tmp_path / "glob.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\ncall: SecretFunctionWithParm &str\n"
    )
    assert main(["verify", str(demo_binary), str(chain)]) == 0
    out = capsys.readouterr().out
    assert f"CALL 0x080484a4 SecretFunctionWithParm({ADDR_STR:#010x})" in out
    assert f"{0x0804A030:#010x}" in out


def test_criterion_05_gadget_oracle_equivalence():
    """200 randomized sections of <= 64 bytes: enumeration equals the
    exhaustive (start, end) brute-force oracle with zero mismatches."""
    rng = random.Random(0x5EC7)
    weighted = list(range(256)) + [0xC3, 0xC2, 0xFF, 0x58, 0x5B, 0x5D, 0x83, 0xC4] * 12
    mismatches = 0
    for _ in range(200):
        data = bytes(rng.choice(weighted) for _ in range(rng.randint(1, 64)))
        img = load_image(build_elf([SectionSpec(".text", 0x08048000, data, "ax")]))
        gset = enumerate_gadgets(img, max_insns=5, window_back=20)
        mine = {e.data: list(e.addrs) for e in gset}
        oracle = oracle_bruteforce.brute_force_gadget_map(data, 0x08048000, 20, 5)
        if mine != oracle:
            mismatches += 1
    assert mismatches == 0


def test_criterion_06_unaligned_discovery(demo_image):
    """The ret byte hidden inside an add-immediate is found at its exact
    unaligned address."""
    host = demo_image.section_at(ADDR_UNALIGNED_HOST)
    blob = host.data[
        ADDR_UNALIGNED_HOST - TEXT_VADDR : ADDR_UNALIGNED_HOST - TEXT_VADDR + 5
    ]
    assert blob == b"\x05\xc3\x00\x00\x00"  # add eax, imm32 carrying 0xc3

    # hand-enumerated oracle over those five bytes: the only valid window is
    # the bare ret at host offset 1
    oracle = oracle_bruteforce.brute_force_gadget_map(blob, ADDR_UNALIGNED_HOST, 20, 5)
    assert oracle == {b"\xc3": [ADDR_UNALIGNED_RET]}

    gset = enumerate_gadgets(demo_image)
    ret_entry = next(e for e in gset if e.data == b"\xc3")
    assert ADDR_UNALIGNED_RET in ret_entry.addrs


def _random_spec(rng) -> ChainSpec:
    calls = []
    for _ in range(rng.randint(1, 5)):
        arity = rng.randint(0, 3)
        args = tuple(rng.randrange(0, 2**32) for _ in range(arity))
        calls.append(CallStep(STUB_BY_ARITY[arity], args))
    return ChainSpec(calls=tuple(calls), ret_offset=32, final_target=EXIT_SENTINEL)


def test_criterion_07_planner_simulator_round_trip(demo_image, stubs):
    """100 randomized chains (1-5 calls, arities 0-3) all replay to exactly
    the declared calls and the exit sentinel; zero failures."""
    rng = random.Random(0xC4A1)
    failures = 0
    for _ in range(100):
        spec = _random_spec(rng)
        payload = emit_payload(plan_chain(spec, demo_image))
        trace = simulate(demo_image, stubs, payload, spec.ret_offset)
        ok = (
            trace.termination.kind is TerminationKind.EXIT_SENTINEL
            and [(e.vaddr, e.args) for e in trace.events]
            == [(c.target, c.args) for c in spec.calls]
        )
        failures += 0 if ok else 1
    assert failures == 0


def test_criterion_08_negative_control(demo_binary, demo_image, tmp_path, capsys):
    """Dropping the cleanup gadget from a two-call arity-1 chain makes
    verification fail deterministically with a divergent trace (exit 6)."""
    calls = (CallStep(ADDR_SECRET_PARM, (0x11223344,)), CallStep(ADDR_SECRET_NOPARM))
    spec = ChainSpec(calls=calls, ret_offset=32, final_target=EXIT_SENTINEL)
    layout = plan_chain(spec, demo_image)
    assert any(w.role is Role.CLEANUP_GADGET for w in layout.words)
    broken = StackLayout(
        pad_len=layout.pad_len,
        words=tuple(w for w in layout.words if w.role is not Role.CLEANUP_GADGET),
    )
    payload_file = tmp_path / "broken.bin"
    payload_file.write_bytes(emit_payload(broken).data)

    chain = tmp_path / "chain.rop"
    chain.write_text(
        f"binary: {demo_binary}\nret_offset: 32\n"
        "call: SecretFunctionWithParm 0x11223344\ncall: SecretFunctionWithoutParm\n"
    )
    for _ in range(2):  # deterministic across repeated runs
        code = main(["verify", str(demo_binary), str(chain), "--payload", str(payload_file)])
        assert code == 6
    out = capsys.readouterr().out
    assert "CALL 0x080484a4 SecretFunctionWithParm(0x11223344)" not in out

    # the intact payload passes through the same path
    good_file = tmp_path / "good.bin"
    good_file.write_bytes(emit_payload(layout).data)
    assert main(["verify", str(demo_binary), str(chain), "--payload", str(good_file)]) == 0


def test_criterion_09_decoder_oracle_agreement():
    """Exhaustive agreement with objdump on all supported 1-2 byte opcode
    patterns: mnemonic, length, and operands; zero mismatches."""
    mismatches = oracle_objdump.decoder_oracle_mismatches()
    assert mismatches == []


def test_criterion_10_serialization_round_trip(demo_image):
    """The word region of each generated payload is the planned word list,
    packed little-endian, exactly."""
    rng = random.Random(0x10AD)
    for _ in range(50):
        spec = _random_spec(rng)
        layout = plan_chain(spec, demo_image)
        payload = emit_payload(layout)
        expected = [w.value & 0xFFFFFFFF for w in layout.words]
        # an independent packing oracle
        packed = b"".join(struct.pack("<I", v) for v in expected)
        assert payload.data[spec.ret_offset :] == packed
