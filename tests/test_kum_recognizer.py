"""Bounded-degree recognizer: verdicts, pacing, and built structure."""

import random

import pytest

from kumsim import blocklang
from kumsim.gadgets import MARK
from kumsim.kum_recognizer import (KUM_CADENCE, LEFT, REGISTERS, RIGHT, VAL,
                                   build_kum_recognizer)
from kumsim.runtime import RejectReason, Runner, max_gap, run

import helpers


PROG = build_kum_recognizer()


def verdict_of(s):
    return run(PROG, s).verdict


def test_known_verdicts():
    assert verdict_of("0@1@0@1#00#10#").accepted
    assert not verdict_of("0@1@0@1#00#01#").accepted
    assert verdict_of("1@1@1@1#00#11#").accepted
    # x == y is a membership witness regardless of the values
    assert verdict_of("0@1@0@1#11#11#").accepted


def test_degenerate_n1_accepts_all_well_formed():
    for x in "01":
        for y in "01":
            v = verdict_of("@#%s#%s#" % (x, y))
            assert v.accepted, (x, y)


def test_reject_reasons():
    cases = [
        ("0@1@0@1#00#10", RejectReason.TRUNCATED),
        ("0@1@0@1#00", RejectReason.TRUNCATED),
        ("0@1@0", RejectReason.TRUNCATED),
        ("", RejectReason.TRUNCATED),
        ("@#0#1#0", RejectReason.BAD_SUFFIX),
        ("@#0#1##", RejectReason.BAD_SUFFIX),
        ("@#0#1#@", RejectReason.BAD_SUFFIX),
        ("@#0x#1#", RejectReason.BAD_ALPHABET),
        ("0@11@0@1#00#10#", RejectReason.PACING),   # block 1 too long
        ("0@@1@1#00#10#", RejectReason.PACING),     # block 1 too short
        ("0@1@0#00#01#", RejectReason.FORMAT),      # 3 blocks: count not 2^n
        ("0@1@0@1@1#00#10#", RejectReason.FORMAT),  # 5 blocks
        ("@@#0#1#", RejectReason.FORMAT),           # counter wraps: 2 blocks, w=1
        ("#0#1#", RejectReason.FORMAT),             # '#' before any '@'
        ("0@1@0@1#0@#10#", RejectReason.FORMAT),    # '@' inside x
        ("0@1@0@1#000#10#", RejectReason.FORMAT),   # x too long
        ("0@1@0@1#0#10#", RejectReason.FORMAT),     # x too short
        ("0@1@0@1#00#100#", RejectReason.FORMAT),   # y too long
        ("0@1@0@1#00#1#", RejectReason.FORMAT),     # y too short
        ("0@1@0@1#00##", RejectReason.FORMAT),      # '#' in y's value stage
        ("0@1@0@1#00#@", RejectReason.FORMAT),      # '@' in y's value stage
        ("0@1@0@1#00#1@", RejectReason.FORMAT),     # '@' in y's index stage
    ]
    for s, want in cases:
        v = verdict_of(s)
        assert not v.accepted, s
        assert v.reason == want, (s, v.reason)


def test_register_file_fits():
    assert len(REGISTERS) <= 32
    assert len(set(REGISTERS)) == len(REGISTERS)


def test_pad_width_and_counter_after_first_boundary():
    # one block symbol fixes k=1, so the chains must be w = 2k+1 = 3 long
    r = Runner(PROG)
    for ch in "0@":
        assert r.feed(ch) is None
    g, R = r.graph, r.registers
    assert helpers.chain_bits(g, R["c_cur_h"], RIGHT) == "001"   # index 1
    assert helpers.chain_bits(g, R["c_prev_h"], RIGHT) == "000"  # index 0
    assert len(helpers.chain_bits(g, R["c_next_h"], RIGHT)) == 3
    # the all-zero index path exists to full depth
    assert len(helpers.levels(g, 0, LEFT, RIGHT)) == 4  # root + 3 levels


def test_structure_counts_after_accepting_run():
    inst = blocklang.Instance(4, ("00", "11", "01", "10") * 4, "0011", "0111")
    s = blocklang.encode(inst)
    assert blocklang.member(s)
    res = run(PROG, s)
    assert res.verdict.accepted
    g = res.graph
    w = inst.n + 1  # even n carries a pad level
    lv = helpers.levels(g, 0, LEFT, RIGHT)
    assert len(lv) == w + 1
    assert len(lv[w]) == 2 ** inst.n  # one index leaf per block
    # every index leaf hangs on to a value string
    assert all(g.neighbor(leaf, VAL) is not None for leaf in lv[w])
    # value trie has one leaf per distinct block value
    vlv = helpers.levels(g, res.registers["vroot"], LEFT, RIGHT)
    assert len(vlv[inst.k]) == len(set(inst.blocks))
    # one marked per-value leaf per index
    assert helpers.count_color(g, MARK) == 2 ** inst.n


def test_degree_never_exceeds_bound():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        s = blocklang.encode(blocklang.gen_positive(n, rng))
        res = run(PROG, s)
        assert res.verdict.accepted
        assert res.stats["max_degree"] <= 4
        # all-equal instances stress value sharing, still bounded
        res = run(PROG, blocklang.encode(blocklang.gen_all_equal(n)))
        assert res.verdict.accepted
        assert res.stats["max_degree"] <= 4


def test_gap_profile_is_flat_at_cadence():
    rng = random.Random(5)
    for n in (1, 2, 3, 5, 8):
        s = blocklang.encode(blocklang.gen_positive(n, rng))
        tr = run(PROG, s).trace
        gaps = tr.gaps()
        assert gaps[0] == 0
        assert set(gaps[1:]) == {KUM_CADENCE}
        assert max_gap(tr) == KUM_CADENCE


def test_real_time_report_constant_across_n():
    # every run's worst gap is the cadence itself, at every n
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 6):
        for _ in range(5):
            s = blocklang.encode(blocklang.gen_positive(n, rng))
            assert max_gap(run(PROG, s).trace) == KUM_CADENCE, (n, s)


def test_rejects_never_exceed_cadence():
    # early rejection may leave a short final gap but never a long one
    rng = random.Random(7)
    for n in (2, 3, 4):
        for kind in blocklang.NegativeKind:
            s = blocklang.gen_negative(n, kind, rng)
            tr = run(PROG, s).trace
            assert max_gap(tr) <= KUM_CADENCE, (s, kind)


def test_differential_against_oracle():
    rng = random.Random(8)
    for n in range(1, 7):
        for _ in range(25):
            s = blocklang.encode(blocklang.gen_positive(n, rng))
            chars = list(s)
            if rng.random() < 0.5:
                chars[rng.randrange(len(chars))] = rng.choice("01@#")
            s = "".join(chars)
            assert run(PROG, s).verdict.accepted == blocklang.member(s), s


def test_runs_are_deterministic():
    s = "10@01@11@00#01#11#"
    a = run(PROG, s)
    b = run(PROG, s)
    assert a.verdict == b.verdict
    assert a.trace.gaps() == b.trace.gaps()
    assert a.trace.halted and b.trace.halted
    assert a.stats == b.stats


def test_fork_explores_divergent_suffixes():
    base = Runner(PROG)
    for ch in "0@1@0@1#00#":
        assert base.feed(ch) is None
    good = base.fork()
    bad = base.fork()
    for ch in "10#":
        good.feed(ch)
    for ch in "01#":
        if bad.feed(ch) is not None:
            break
    assert good.finish().verdict.accepted
    assert not bad.finish().verdict.accepted
    # the donor run is unaffected and still mid-stream
    assert base.verdict is None
