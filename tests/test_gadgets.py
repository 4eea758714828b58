"""Gadget finder tests: kernels, enumeration vs brute force, classification,
and the cleanup-gadget byte search against the enumeration and bad bytes."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_bruteforce
from conftest import ADDR_POP2, ADDR_POP2_DUP, ADDR_POP3, ADDR_UNALIGNED_RET, insn_text
from ropforge import gadgets
from ropforge.chain import CallStep, ChainSpec, check_bad_bytes, emit_payload, plan_chain
from ropforge.disasm import FREE_BRANCHES, REG_NAMES, RULES, Mnemonic, decode_window
from ropforge.elfbuild import SectionSpec, build_elf
from ropforge.errors import MissingCleanupGadgetError, UnsatisfiableArityError
from ropforge.gadgets import Gadget, classify, enumerate_gadgets, find_pop_ret
from ropforge.image import BinaryImage, Section, load_image
from ropforge.kernels import scan_free_branches
from ropforge.sim import FaultKind, Termination, TerminationKind, boot_state, run, simulate


def image_of(data: bytes, vaddr: int = 0x08048000):
    return load_image(build_elf([SectionSpec(".text", vaddr, data, "ax")]))


def test_find_terminators_direct():
    assert scan_free_branches(b"\x90\xc3") == [(1, Mnemonic.RET)]
    assert scan_free_branches(b"\x90" * 8) == []


def test_find_terminators_unaligned():
    # ret hidden inside the imm32 of add eax, 0xc3
    hits = scan_free_branches(b"\x05\xc3\x00\x00\x00")
    assert (1, Mnemonic.RET) in hits


def test_find_terminators_all_kinds():
    data = b"\xc3" + b"\xc2\x08\x00" + b"\xff\xe0" + b"\xff\xd3"
    assert scan_free_branches(data) == [
        (0, Mnemonic.RET),
        (1, Mnemonic.RET_IMM16),
        (4, Mnemonic.JMP_INDIRECT),
        (6, Mnemonic.CALL_INDIRECT),
    ]


def test_terminator_needs_full_encoding():
    assert scan_free_branches(b"\xc2\x08") == []  # imm16 cut off
    assert scan_free_branches(b"\xff") == []


def test_enumerate_pop_pop_ret():
    gset = enumerate_gadgets(image_of(b"\x58\x5b\xc3"), max_insns=3)
    rendered = {e.render() for e in gset}
    assert rendered == {"pop eax ; pop ebx ; ret", "pop ebx ; ret", "ret"}
    # deterministic ordering: by gadget bytes
    assert [e.data for e in gset] == sorted(e.data for e in gset)


def test_enumerate_max_insns_cap():
    gset = enumerate_gadgets(image_of(b"\x58\x5b\xc3"), max_insns=1)
    assert {e.render() for e in gset} == {"ret"}


def test_enumerate_empty_section():
    assert len(enumerate_gadgets(image_of(b"\x90\x90\x90"))) == 0


def test_enumerate_matches_brute_force_on_fixture(demo_image):
    text = demo_image.executable_sections()[0]
    gset = enumerate_gadgets(demo_image, max_insns=5, window_back=20)
    oracle = oracle_bruteforce.brute_force_gadget_map(text.data, text.vaddr, 20, 5)
    mine = {e.data: list(e.addrs) for e in gset}
    assert mine == oracle


def test_unaligned_gadget_address(demo_image):
    gset = enumerate_gadgets(demo_image)
    ret_entry = next(e for e in gset if e.data == b"\xc3")
    assert ADDR_UNALIGNED_RET in ret_entry.addrs


def test_gadgets_redecode_from_image(demo_image):
    from ropforge.image import read_virtual

    gset = enumerate_gadgets(demo_image)
    for e in gset:
        for addr in e.addrs:
            assert read_virtual(demo_image, addr, len(e.data)) == e.data


def test_classification(demo_image):
    gset = enumerate_gadgets(demo_image)
    by_bytes = {e.data: e for e in gset}
    assert classify(by_bytes[b"\x5f\xc3"]).kind == "pop_ret"
    assert classify(by_bytes[b"\x5f\xc3"]).arity == 1
    pop3 = by_bytes[b"\x5e\x5f\x5d\xc3"]
    assert classify(pop3) == oracle_bruteforce.reference_classify(pop3)
    assert classify(pop3).arity == 3
    assert classify(pop3).regs == (6, 7, 5)  # esi, edi, ebp
    assert classify(by_bytes[b"\xc3"]).kind == "ret_only"
    assert classify(by_bytes[b"\x83\xc4\x08\xc3"]).kind == "stack_pivot"
    assert classify(by_bytes[b"\x83\xc4\x08\xc3"]).delta == 8
    assert classify(by_bytes[b"\x31\xc0\xc3"]).kind == "other"


@settings(max_examples=150, deadline=None)
@given(insn_text)
@example(b"\x83\xc4\x08\xc3\x83\xc4\xf8\xc3\x81\xc4\x10\x00\x00\x00\xc3")
@example(b"\x81\xc4\x00\x00\x00\x80\xc3\x58\x5c\xc3\x5f\xc2\x08\x00\x5e\xff\xe0\xff\xd1")
def test_classify_matches_reference_classify(data):
    # every valid window of the text, classified from its bytes and from its decode
    for start, end in oracle_bruteforce.brute_force_windows(data, 20, 6):
        g = Gadget(data[start:end], (0x08048000 + start,))
        assert classify(g) == oracle_bruteforce.reference_classify(g)


def test_find_pop_ret_lowest_address(demo_image):
    gset = enumerate_gadgets(demo_image)
    # the lowest arity-1 candidate is the epilogue "pop ebp ; ret" of the
    # first secret function, below the dedicated gadget zone
    assert find_pop_ret(demo_image, 1).vaddr == 0x0804848F
    assert find_pop_ret(demo_image, 1).render() == "pop ebp ; ret"
    two = next(e for e in gset if classify(e).kind == "pop_ret" and classify(e).arity == 2)
    assert two.addrs == (ADDR_POP2, ADDR_POP2_DUP)
    assert find_pop_ret(demo_image, 2).vaddr == ADDR_POP2
    assert find_pop_ret(demo_image, 3).vaddr == ADDR_POP3
    assert find_pop_ret(demo_image, 4) is None


def test_find_pop_ret_on_tiny_fixture():
    g = find_pop_ret(image_of(b"\x58\x5b\xc3", vaddr=0x08048000), 1)
    assert g is not None
    assert g.render() == "pop ebx ; ret"
    assert g.vaddr == 0x08048001


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(2, 6), st.integers(4, 24))
def test_enumeration_equals_brute_force_random(data, max_insns, window_back):
    img = image_of(data)
    gset = enumerate_gadgets(img, max_insns=max_insns, window_back=window_back)
    oracle = oracle_bruteforce.brute_force_gadget_map(data, 0x08048000, window_back, max_insns)
    assert {e.data: list(e.addrs) for e in gset} == oracle


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=48))
def test_monotonic_in_max_insns(data):
    img = image_of(data)
    small = {e.data for e in enumerate_gadgets(img, max_insns=2)}
    large = {e.data for e in enumerate_gadgets(img, max_insns=4)}
    assert small <= large


def test_scan_large_random_matches_brute_force():
    rng = random.Random(7)
    weighted = list(range(256)) + [0xC3, 0xC2, 0xFF] * 40
    data = bytes(rng.choice(weighted) for _ in range(64 * 1024))
    gset = enumerate_gadgets(image_of(data))
    oracle = oracle_bruteforce.brute_force_gadget_map(data, 0x08048000, 20, 5)
    assert {e.data: list(e.addrs) for e in gset} == oracle


def test_pop_esp_is_not_a_cleanup_gadget():
    # pop esp ; ret sits below pop eax ; ret; pop eax ; pop esp ; ret follows
    base = 0x08048000
    text = b"\x90\x5c\xc3" + b"\x90" * 13 + b"\x58\xc3" + b"\x90\x58\x5c\xc3"
    img = image_of(text, base)
    by_bytes = {e.data: e for e in enumerate_gadgets(img)}
    assert classify(by_bytes[b"\x5c\xc3"]).kind == "other"
    assert classify(by_bytes[b"\x58\x5c\xc3"]).kind == "other"
    g = find_pop_ret(img, 1)
    assert (g.vaddr, g.render()) == (base + 16, "pop eax ; ret")
    assert find_pop_ret(img, 2) is None


# Text of up to a dozen chunks: arbitrary bytes, pop runs over all eight
# registers (pop esp included), pure pop-esp runs and bare rets.
_pop_heavy_text = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=3),
        st.lists(st.integers(0x58, 0x5F), min_size=1, max_size=7).map(bytes),
        st.integers(1, 4).map(lambda n: b"\x5c" * n),
        st.just(b"\xc3"),
    ),
    min_size=1,
    max_size=12,
).map(b"".join)


# Text where pop runs end in ret, so that one arity has several cleanup runs.
_cleanup_rich_text = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=4),
        st.lists(st.integers(0x58, 0x5F), min_size=1, max_size=5).map(lambda r: bytes(r) + b"\xc3"),
    ),
    min_size=2,
    max_size=16,
).map(b"".join)


@st.composite
def pop_heavy_images(draw, text=_pop_heavy_text):
    """One or two executable sections, the higher one sometimes listed first."""
    specs = [SectionSpec(".text", 0x08048000, draw(text), "ax")]
    if draw(st.booleans()):
        specs.append(SectionSpec(".text2", 0x08049000, draw(text), "ax"))
        if draw(st.booleans()):
            specs.reverse()
    return load_image(build_elf(specs))


def _found(g):
    return None if g is None else (g.vaddr, g.data)


def _rows(listing):
    """(address, bytes) per occurrence, read off the listing's arrays."""
    return [(a, listing.id_bytes[g]) for a, g in zip(listing.addr.tolist(), listing.gid.tolist())]


def _assert_listing_matches_its_decode(listing):
    # each id's text is its bytes' decode, and each gadget's class its decode's
    for raw, text in zip(listing.id_bytes, listing.id_texts, strict=True):
        g = Gadget(raw, (0,))
        assert text == g.render()
        assert text.split(" ; ") == [str(i) for i in g.insns]
    for e in listing:
        assert classify(e) == oracle_bruteforce.reference_classify(e)


def test_entries_match_their_decode_on_fixture(demo_image):
    for max_insns in (1, 5, 12):
        _assert_listing_matches_its_decode(enumerate_gadgets(demo_image, max_insns=max_insns))


@settings(max_examples=80, deadline=None)
@given(pop_heavy_images(insn_text), st.integers(1, 8), st.integers(1, 30))
def test_entries_match_their_decode_random(img, max_insns, window_back):
    _assert_listing_matches_its_decode(
        enumerate_gadgets(img, max_insns=max_insns, window_back=window_back)
    )


def _placed(draw, datas):
    """Executable sections of ``datas``, each 0-24 bytes (or a page) past the
    previous one's end, in any header order."""
    specs, vaddr = [], 0x08048000
    for i, data in enumerate(datas):
        specs.append(SectionSpec(f".t{i}", vaddr, data, "ax"))
        vaddr += len(data) + draw(st.one_of(st.integers(0, 24), st.just(0x1000)))
    return load_image(build_elf(draw(st.permutations(specs))))


@st.composite
def disjoint_images(draw, text=insn_text):
    """Two or three sections of ``text`` that share no address."""
    return _placed(draw, [draw(text) for _ in range(draw(st.integers(2, 3)))])


@settings(max_examples=100, deadline=None)
@given(st.one_of(pop_heavy_images(insn_text), disjoint_images()))
def test_listing_order_and_addresses(img):
    # entries ascend by bytes, each entry's addresses ascend, and the rows
    # ascend by address, one per occurrence the sections hold
    listing = enumerate_gadgets(img)
    rows = _rows(listing)
    assert all(a.data < b.data for a, b in zip(listing, listing[1:]))
    assert all(a < b for e in listing for a, b in zip(e.addrs, e.addrs[1:]))
    assert all(a < b for (a, _), (b, _) in zip(rows, rows[1:]))
    oracle: dict[bytes, set[int]] = {}
    for s in img.executable_sections():
        for raw, addrs in oracle_bruteforce.brute_force_gadget_map(s.data, s.vaddr, 20, 5).items():
            oracle.setdefault(raw, set()).update(addrs)
    assert len(listing) == len(oracle)
    assert {e.data: e.addrs for e in listing} == {raw: tuple(sorted(a)) for raw, a in oracle.items()}
    assert sorted(rows) == sorted((a, raw) for raw, addrs in oracle.items() for a in addrs)
    _assert_listing_matches_its_decode(listing)


@st.composite
def section_sets(draw):
    """One to three sections of ``insn_text`` that share no address.  A
    section may hold the tail of an earlier one's bytes, so one byte string
    occurs in several sections."""
    datas = []
    for _ in range(draw(st.integers(1, 3))):
        if datas and draw(st.booleans()):
            whole = draw(st.sampled_from(datas))
            datas.append(whole[draw(st.integers(0, len(whole) - 1)) :])
        else:
            datas.append(draw(insn_text))
    return _placed(draw, datas)


@settings(max_examples=150, deadline=None)
@given(section_sets())
def test_gadget_ids_follow_bytes(img):
    # one id per distinct byte string, over all sections; each occurrence
    # once, by address
    listing = enumerate_gadgets(img)
    windows = {
        (s.vaddr + start, s.data[start:end])
        for s in img.executable_sections()
        for start, end in oracle_bruteforce.brute_force_windows(s.data, 20, 5)
    }
    raws = listing.id_bytes
    assert len(set(raws)) == len(raws) == len(listing)
    assert len(listing) == len({raw for _, raw in windows})
    assert _rows(listing) == sorted(windows, key=lambda w: w[0])


def test_listing_renders_every_rule():
    # one encoding of every rule, each followed by ret, in one section: each
    # heads a listed gadget whose text is its decode's
    heads = [
        bytes([r.first[1], *(r.second[1:] if r.second else ())]).ljust(r.length, b"\xf0")
        for r in RULES
    ]
    listing = enumerate_gadgets(image_of(b"".join(h + b"\xc3" for h in heads)))
    _assert_listing_matches_its_decode(listing)
    for r, h in zip(RULES, heads):
        raw = h if r.mnemonic in FREE_BRANCHES else h + b"\xc3"
        assert decode_window(raw, 0, len(raw))[0].mnemonic is r.mnemonic
        assert raw in listing.id_bytes


def test_every_first_byte_has_one_length():
    # packed heads order as their bytes do because of it, and the listing
    # gives equal packed heads one length from the trie
    lengths: dict[int, set[int]] = {}
    for rule in RULES:
        for b in range(rule.first[0], rule.first[1] + 1):
            lengths.setdefault(b, set()).add(rule.length)
    assert all(len(n) == 1 for n in lengths.values())


@settings(max_examples=150, deadline=None)
@given(pop_heavy_images())
def test_find_pop_ret_matches_enumeration(img):
    # the enumeration is the reference: every pop^k ; ret with k <= 4 fits
    # the default window and instruction limits
    entries = list(enumerate_gadgets(img))
    for k in range(1, 5):
        hits = [
            (e.addrs[0], e.data)
            for e in entries
            if classify(e).render() == f"pop_ret({k})"
        ]
        assert _found(find_pop_ret(img, k)) == min(hits, default=None)


def _brute_force_pop_ret(img, k):
    """Lowest window of any section that decodes and classifies as pop_ret(k)."""
    hits = []
    for s in img.executable_sections():
        for start in range(len(s.data)):
            for end in range(start + 1, len(s.data) + 1):
                insns = decode_window(s.data, start, end, base_vaddr=s.vaddr)
                if insns is None:
                    continue
                g = Gadget(s.data[start:end], (s.vaddr + start,))
                if classify(g).render() == f"pop_ret({k})":
                    hits.append((g.vaddr, g.data))
    return min(hits, default=None)


@settings(max_examples=60, deadline=None)
@given(pop_heavy_images())
def test_find_pop_ret_long_runs_match_brute_force(img):
    # arities 5 and 6 lie past the default enumeration limit of 5 insns
    for k in (5, 6):
        assert _found(find_pop_ret(img, k)) == _brute_force_pop_ret(img, k)


def test_find_pop_ret_rejects_zero_arity(demo_image):
    with pytest.raises(ValueError):
        find_pop_ret(demo_image, 0)


def test_gadget_invariants(demo_image):
    from ropforge.disasm import free_branch_kind

    for g in enumerate_gadgets(demo_image):
        assert free_branch_kind(g.insns[-1]) is not None
        assert all(free_branch_kind(i) is None for i in g.insns[:-1])
        assert sum(i.length for i in g.insns) == len(g.data)
        assert g.vaddr + len(g.data) - g.insns[-1].length == g.insns[-1].vaddr
        assert g.addrs == tuple(sorted(g.addrs))


def _pop_ret_windows(img, k):
    """Every (vaddr, bytes) window of k + 1 bytes that classifies as pop_ret(k), ascending."""
    hits = []
    for s in img.executable_sections():
        for start in range(len(s.data) - k):
            raw = s.data[start : start + k + 1]
            insns = decode_window(raw, 0, len(raw), base_vaddr=s.vaddr + start)
            if insns is None:
                continue
            g = Gadget(raw, (s.vaddr + start,))
            if classify(g).render() == f"pop_ret({k})":
                hits.append((g.vaddr, raw))
    return sorted(hits)


@settings(max_examples=150, deadline=None)
@given(pop_heavy_images(_cleanup_rich_text), st.data())
def test_find_pop_ret_prefers_address_free_of_bad_bytes(img, data):
    # bad bytes drawn from the low address bytes of the image's cleanup runs
    # (and the 0x80 / 0x90 of the section addresses), so that dirty and clean
    # candidates of one arity are common
    hits_by_arity = {k: _pop_ret_windows(img, k) for k in range(1, 5)}
    lows = {a & 0xFF for hits in hits_by_arity.values() for a, _ in hits}
    bad = data.draw(st.frozensets(st.sampled_from(sorted(lows | {0x80, 0x90}))))
    for k, hits in hits_by_arity.items():
        clean = [h for h in hits if bad.isdisjoint(h[0].to_bytes(4, "little"))]
        assert _found(find_pop_ret(img, k, bad)) == (clean or hits or [None])[0]

        stub = 0x0A000000 + 0x10 * k
        calls = (CallStep(stub, tuple(range(1, k + 1))), CallStep(0x0A000000))
        spec = ChainSpec(calls=calls, ret_offset=32, bad_bytes=bad)
        if not hits:
            with pytest.raises(MissingCleanupGadgetError):
                plan_chain(spec, img)
            continue
        payload = emit_payload(plan_chain(spec, img))
        trace = simulate(img, {stub: ("f", k), 0x0A000000: ("g", 0)}, payload, 32)
        assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
        assert [(e.vaddr, e.args) for e in trace.events] == [(c.target, c.args) for c in calls]
        dirty = [v for v in check_bad_bytes(payload, bad) if v[2] == "cleanup_gadget"]
        assert bool(dirty) == (not clean)


@settings(max_examples=150, deadline=None)
@given(disjoint_images(_cleanup_rich_text), st.data())
def test_find_pop_ret_over_several_sections(img, data):
    # the lowest address wins, whichever section comes first, and the chain
    # planned with it runs to the sentinel
    hits_by_arity = {k: _pop_ret_windows(img, k) for k in range(1, 5)}
    lows = {a & 0xFF for hits in hits_by_arity.values() for a, _ in hits}
    bad = data.draw(st.frozensets(st.sampled_from(sorted(lows | {0x80}))))
    for k, hits in hits_by_arity.items():
        clean = [h for h in hits if bad.isdisjoint(h[0].to_bytes(4, "little"))]
        assert _found(find_pop_ret(img, k, bad)) == min(clean or hits, default=None)
        if hits:
            stub = 0x0A000000 + 0x10 * k
            calls = (CallStep(stub, tuple(range(1, k + 1))), CallStep(0x0A000000))
            payload = emit_payload(plan_chain(ChainSpec(calls, 32, bad_bytes=bad), img))
            trace = simulate(img, {stub: ("f", k), 0x0A000000: ("g", 0)}, payload, 32)
            assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
            assert [(e.vaddr, e.args) for e in trace.events] == [(c.target, c.args) for c in calls]


@pytest.mark.parametrize("k", [1, 2])
def test_find_pop_ret_ignores_a_run_across_two_sections(k):
    # pop eax ; pop ebx end .text, ret starts .text2 at the next address: the
    # bytes read as one run, yet no single section holds a gadget.
    img = load_image(
        build_elf(
            [
                SectionSpec(".text", 0x08048000, b"\x90\x58\x5b", "ax"),
                SectionSpec(".text2", 0x08048003, b"\xc3\x90", "ax"),
            ]
        )
    )
    assert find_pop_ret(img, k) is None


@pytest.mark.parametrize("n_sections", [1, 2])
def test_plan_translates_each_section_once(monkeypatch, n_sections):
    # three cleanup calls of arities 2, 3 and 1 read one byte-class view per section
    text = b"\x5e\x5f\x5d\xc3\xcc\x58\xc3"
    specs = [SectionSpec(f".t{i}", 0x08048000 + 0x1000 * i, text, "ax") for i in range(n_sections)]
    img = load_image(build_elf(specs))
    real = gadgets.cleanup_views
    translated = []

    def spy(image):
        views = real(image)
        translated.extend(s.name for s, _ in views)
        return views

    monkeypatch.setattr(gadgets, "cleanup_views", spy)
    calls = (CallStep(0x0A000010, (1, 2)), CallStep(0x0A000020, (1, 2, 3)))
    calls += (CallStep(0x0A000030, (4,)), CallStep(0x0A000040))
    layout = plan_chain(ChainSpec(calls=calls, ret_offset=8), img)
    cleanups = [w.value for w in layout.words if w.role.value == "cleanup_gadget"]
    assert cleanups == [0x08048001, 0x08048000, 0x08048002]
    assert sorted(translated) == [s.name for s in specs]
    translated.clear()
    assert find_pop_ret(img, 2).vaddr == 0x08048001
    assert len(translated) == n_sections


@pytest.mark.parametrize("index", [0, 1, 2])
def test_find_pop_ret_agrees_with_benchmark_reference(bench_modules, index):
    inputs, reference = bench_modules
    case = inputs.chain_large(101, index)
    img = load_image(case.files[inputs.BINARY])
    bad = reference.SCANF_BAD_BYTES
    for k in range(1, 7):
        addrs = reference.pop_ret_addrs(case.text, case.text_vaddr, k)
        clean = [a for a in addrs if bad.isdisjoint(a.to_bytes(4, "little"))]
        for bad_bytes, want in ((frozenset(), addrs), (bad, clean or addrs)):
            g = find_pop_ret(img, k, bad_bytes)
            assert (g and g.vaddr) == (want[0] if want else None)
            if g is not None:
                off = g.vaddr - case.text_vaddr
                assert g.data == case.text[off : off + k + 1]


def test_gadget_decodes_its_insns_once(demo_image, monkeypatch):
    decoded = []

    def counting(*args, **kwargs):
        decoded.append(args)
        return decode_window(*args, **kwargs)

    monkeypatch.setattr(gadgets, "decode_window", counting)
    g = find_pop_ret(demo_image, 2)
    first = g.insns
    assert g.insns is first and len(decoded) == 1
    assert [i.mnemonic for i in first] == [Mnemonic.POP_REG, Mnemonic.POP_REG, Mnemonic.RET]


# Simulator typing, Q's check by execution (Schwartz, Avgerinos and Brumley,
# USENIX Security 2011): each listed gadget runs alone, in an image holding
# only its bytes, on a stack of distinct marker words, with the other
# registers set to markers of their own.  Markers are unmapped, so control
# leaving the gadget ends the run with a fetch of the word it left to.
STACK_WORDS = [0x7E000000 + 4 * i for i in range(16)]
REG_WORDS = [0x7F000000 + 4 * r for r in range(8)]
ESP = REG_NAMES.index("esp")


def fetch(word):
    return Termination(TerminationKind.FAULT, FaultKind.UNMAPPED_FETCH, word)


def sim_typed(g: Gadget) -> int | None:
    """Assert that ``g``'s run does what its class says.  Return k when the
    run types ``g`` as a k-cleanup (k >= 1: it returns to word k with esp
    advanced by 4(k + 1)) that its class is not pop_ret(k)."""
    image = BinaryImage(0, (Section(".text", g.vaddr, g.data, True),), ())
    state = boot_state(image, b"".join(w.to_bytes(4, "little") for w in STACK_WORDS), 0)
    esp = state.esp
    booted = [esp if r == ESP else w for r, w in enumerate(REG_WORDS)]
    state.regs[:] = booted
    state.ip = g.vaddr
    term = run(state, {})

    cls = classify(g)
    if cls.kind == "pop_ret":
        # each popped register holds the word of its last pop
        expected = list(booted)
        for i, r in enumerate(cls.regs):
            expected[r] = STACK_WORDS[i]
        expected[ESP] = esp + 4 * (cls.arity + 1)
        assert term == fetch(STACK_WORDS[cls.arity])
        assert state.regs == expected
    elif cls.kind == "ret_only":
        assert term == fetch(STACK_WORDS[0])
        assert state.esp == esp + 4
    elif cls.kind == "stack_pivot":
        # ret after esp += delta: the word the booted stack holds there, if any
        slot = (esp + cls.delta) & 0xFFFFFFFF
        if 0 <= slot - state.stack_base <= len(state.stack) - 4:
            assert term == fetch(state.read32(slot))
            assert state.esp == slot + 4
        else:
            assert term == Termination(TerminationKind.FAULT, FaultKind.STACK_OUT_OF_BOUNDS, slot)

    k = next((k for k, w in enumerate(STACK_WORDS) if term == fetch(w)), 0)
    if k and state.esp == esp + 4 * (k + 1) and cls.kind != "pop_ret":
        return k
    return None


def test_simulation_types_the_demo_gadgets(demo_image):
    # add esp, 8 ; ret, and the secret functions' tails, whose pop ebp ; ret
    # follows a mov or a nop: cleanups the class set leaves out on purpose
    untyped = {}
    for g in enumerate_gadgets(demo_image):
        k = sim_typed(g)
        if k is not None:
            untyped[g.vaddr] = (k, classify(g).render())
    assert untyped == {
        0x08048568: (2, "stack_pivot(8)"),
        0x0804848C: (1, "other"),
        0x0804848E: (1, "other"),
        0x080484A5: (1, "other"),
        0x080484A7: (1, "other"),
    }


@settings(max_examples=150, deadline=None)
@given(insn_text)
@example(b"\x83\xc4\x08\xc3\x83\xc4\xf8\xc3\x81\xc4\x10\x00\x00\x00\xc3")
@example(b"\x81\xc4\x00\x00\x00\x80\xc3\x81\xc4\xfe\xbf\x00\x00\xc3\x58\x58\xc3\x5c\xc3")
def test_simulation_types_listed_gadgets(data):
    for g in enumerate_gadgets(image_of(data)):
        sim_typed(g)


@pytest.mark.parametrize("seed, index", [(101, 0), (101, 1), (102, 0), (102, 1)])
def test_simulation_types_scan_dense_gadgets(bench_modules, seed, index):
    inputs, _ = bench_modules
    for g in enumerate_gadgets(load_image(inputs.scan_dense(seed, index).files[inputs.BINARY])):
        sim_typed(g)


# The planner, checked by execution: every chain it plans runs as declared,
# and it refuses only the chains that no cleanup run of the image allows.
_STUBS = [0x0A000000 + 0x10 * i for i in range(4)]  # call targets outside the image


def _cleanup_runs(img, k, targets):
    """The ``pop^k ; ret`` runs (esp not popped) of ``img`` that hold no call
    target, each asserted by :func:`sim_typed` to run as a k-cleanup."""
    runs = []
    for s in img.executable_sections():
        for start in range(len(s.data) - k):
            raw = s.data[start : start + k + 1]
            if raw[-1] != 0xC3 or not all(0x58 <= b <= 0x5F and b != 0x5C for b in raw[:-1]):
                continue
            vaddr = s.vaddr + start
            if any(vaddr <= t <= vaddr + k for t in targets):
                continue
            g = Gadget(raw, (vaddr,))
            assert classify(g).render() == f"pop_ret({k})"
            sim_typed(g)  # it returns to word k with esp up by 4(k + 1)
            runs.append(vaddr)
    return runs


@st.composite
def _planner_cases(draw):
    """An image, a chain of 2-4 calls of arity 0-7 whose targets are often on
    the bytes of the image's cleanup runs, and bad bytes from those runs'
    addresses."""
    img = draw(
        st.one_of(
            pop_heavy_images(),  # pop runs of up to 7, so arities 5 and 6 find some
            pop_heavy_images(_cleanup_rich_text),
            disjoint_images(_cleanup_rich_text),
        )
    )
    run_bytes = sorted(
        s.vaddr + i
        for s in img.executable_sections()
        for m in re.finditer(rb"[\x58-\x5b\x5d-\x5f]+\xc3", s.data)
        for i in range(m.start(), m.end())
    )
    arity_of: dict[int, int] = {}  # one arity per target, as a chain file resolves it
    calls = []
    for i in range(draw(st.integers(2, 4))):
        target = draw(st.sampled_from(run_bytes + _STUBS))
        arity = arity_of.setdefault(target, draw(st.sampled_from(range(8))))
        calls.append(CallStep(target, tuple(0x11000000 + 0x100 * i + j for j in range(arity))))
    address_bytes = sorted({b for a in run_bytes for b in a.to_bytes(4, "little")})
    bad = draw(st.frozensets(st.sampled_from(address_bytes))) if address_bytes else frozenset()
    return img, ChainSpec(tuple(calls), 32, bad_bytes=bad)


_POP6 = image_of(b"\x58\x59\x5a\x5b\x5d\x5e\xc3")  # the one 6-cleanup at 0x08048000


@settings(max_examples=150, deadline=None)
@given(_planner_cases())
@example((_POP6, ChainSpec((CallStep(_STUBS[0], tuple(range(6))), CallStep(_STUBS[1])), 32)))
@example((_POP6, ChainSpec((CallStep(0x08048003, tuple(range(6))), CallStep(_STUBS[1])), 32)))
def test_planner_plans_every_chain_a_cleanup_run_allows(case):
    img, spec = case
    # what the planner must do: the first call past the arity limit, or with
    # arguments mid-chain and no cleanup run, fails the plan
    targets = frozenset(c.target for c in spec.calls)
    expected = None
    for i, call in enumerate(spec.calls):
        if call.arity == 7:  # one past the limit of 6
            expected = UnsatisfiableArityError, f"^call {i} passes {call.arity} arguments"
            break
        if i < len(spec.calls) - 1 and call.arity and not _cleanup_runs(img, call.arity, targets):
            expected = MissingCleanupGadgetError, rf"no pop_ret\({call.arity}\) gadget"
            break
    if expected is not None:
        with pytest.raises(expected[0], match=expected[1]):
            plan_chain(spec, img)
        return
    payload = emit_payload(plan_chain(spec, img))
    stubs = {c.target: (f"f{c.target:x}", c.arity) for c in spec.calls}
    trace = simulate(img, stubs, payload, spec.ret_offset)
    assert trace.termination.kind is TerminationKind.EXIT_SENTINEL
    assert [(e.vaddr, e.args) for e in trace.events] == [(c.target, c.args) for c in spec.calls]
