"""Bounded-degree recognizer: verdicts, pacing, and built structure."""

import random

from kumsim import blocklang
from kumsim.gadgets import MARK
from kumsim.kum_recognizer import (DEGREE_BOUND, KUM_CADENCE, VAL,
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
        ("0@1@0@1#00##", RejectReason.FORMAT),      # y empty
        ("0@1@0@1#00#@", RejectReason.FORMAT),      # '@' opens y
        ("0@1@0@1#00#1@", RejectReason.FORMAT),     # '@' inside y
    ]
    for s, want in cases:
        v = verdict_of(s)
        assert not v.accepted, s
        assert v.reason == want, (s, v.reason)


def test_structure_counts_after_accepting_run():
    inst = blocklang.Instance(4, ("00", "11", "01", "10") * 4, "0011", "0111")
    s = blocklang.encode(inst)
    assert blocklang.member(s)
    res = run(PROG, s)
    assert res.verdict.accepted
    g = res.graph
    depth = inst.k + 1  # the root's bit (a pad for even n), then k digits
    lv = helpers.levels(g, 0, depth + 1)
    assert len(lv) == depth + 1  # and no level below the leaves
    assert len(lv[depth]) == 2 ** inst.n  # one index leaf per block
    # every index leaf and its marked per-value leaf link val to val
    for leaf in lv[depth]:
        pv_leaf = g.neighbor(leaf, VAL)
        assert g.get_color(pv_leaf) == MARK
        assert g.neighbor(pv_leaf, VAL) == leaf
    # value trie has one leaf per distinct block value
    vlv = helpers.levels(g, res.registers.vroot, inst.k)
    assert len(vlv[inst.k]) == len(set(inst.blocks))
    # one marked per-value leaf per index
    assert helpers.count_color(g, MARK) == 2 ** inst.n


def test_nodes_per_symbol():
    # one index leaf per block and one per-value leaf per index, but no
    # copy of the block values: the graph stays within 1.5 nodes a symbol
    s = blocklang.encode(blocklang.gen_positive(10, random.Random(10)))
    res = run(PROG, s)
    assert res.verdict.accepted
    assert res.stats["node_count"] <= 1.5 * len(s), res.stats


def test_degree_never_exceeds_bound():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        s = blocklang.encode(blocklang.gen_positive(n, rng))
        res = run(PROG, s)
        assert res.verdict.accepted
        assert res.stats["max_degree"] <= DEGREE_BOUND
        # all-equal instances stress value sharing, still bounded
        res = run(PROG, blocklang.encode(blocklang.gen_all_equal(n)))
        assert res.verdict.accepted
        assert res.stats["max_degree"] <= DEGREE_BOUND


def test_rejects_never_exceed_cadence():
    # early rejection may leave a short final gap but never a long one
    rng = random.Random(7)
    for n in (2, 3, 4):
        for kind in blocklang.NegativeKind:
            s = blocklang.gen_negative(n, kind, rng)
            tr = run(PROG, s).trace
            assert max_gap(tr) <= KUM_CADENCE, (s, kind)


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
