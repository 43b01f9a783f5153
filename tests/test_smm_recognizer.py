"""Directed-pointer recognizer: verdicts, in-degree shape, pacing."""

import random

import pytest

from kumsim import blocklang
from kumsim.gadgets import CUR_HI, CUR_LO
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import RejectReason, Runner, max_gap, run
from kumsim.smm_recognizer import (REGISTERS, SMM_CADENCE, V,
                                   build_smm_recognizer)

import helpers


PROG = build_smm_recognizer()


def verdict_of(s):
    return run(PROG, s).verdict


def test_known_verdicts():
    assert verdict_of("0@1@0@1#00#10#").accepted
    assert not verdict_of("0@1@0@1#00#01#").accepted
    assert verdict_of("1@1@1@1#00#11#").accepted
    assert verdict_of("@#0#1#").accepted
    assert verdict_of("@#1#1#").accepted


def test_reject_reasons_match_bounded_machine():
    kum = build_kum_recognizer()
    cases = [
        "0@1@0@1#00#10", "0@1@0", "", "@#0#1#0", "@#0x#1#",
        "0@11@0@1#00#10#", "0@@1@1#00#10#", "0@1@0#00#01#",
        "@@#0#1#", "#0#1#", "0@1@0@1#0@#10#", "0@1@0@1#000#10#",
        "0@1@0@1#0#10#", "0@1@0@1#00#100#", "0@1@0@1#00#1#",
        "0@1@0@1#00##", "0@1@0@1#00#@", "0@1@0@1#00#1@",
    ]
    for s in cases:
        a = verdict_of(s)
        b = run(kum, s).verdict
        assert a == b, (s, a, b)


def test_register_file_fits():
    assert len(REGISTERS) <= 32
    assert len(set(REGISTERS)) == len(REGISTERS)


@pytest.mark.parametrize("n", [3, 4])
def test_counter_chain_at_every_boundary(n):
    # the chain is w = 2k + 1 long; at the boundary that opens block i it
    # holds i as the current index, and i - 1 decodes from its markers
    w = 2 * (n // 2) + 1
    s = blocklang.encode(blocklang.gen_positive(n, random.Random(n)))
    r = Runner(PROG)
    i = 0
    for ch in s:
        assert r.feed(ch) is None
        if ch != "@":
            continue
        i += 1
        probe = r.fork()  # probing costs steps; keep them off the run
        g, R = probe.graph, probe.registers
        assert helpers.chain_prev_bits(g, R.c_head) == \
            format(i - 1, "0%db" % w), (n, i)
        assert helpers.chain_bits(g, R.c_head, CUR_HI, CUR_LO) == \
            format(i, "0%db" % w), (n, i)
    assert i == 2 ** n - 1
    assert r.finish().verdict.accepted


def test_value_sharing_by_pointer_identity():
    # two distinct values among four blocks: two representative nodes,
    # each the v target of exactly the two index leaves carrying it
    s = "0@1@0@1#00#10#"
    res = run(PROG, s)
    assert res.verdict.accepted
    g = res.graph
    depth = 2  # the root's pad bit, then k = 1 digit
    lv = helpers.levels(g, 0, depth)
    assert len(lv[depth]) == 4
    reps = [g.neighbor(leaf, V) for leaf in lv[depth]]
    assert all(r is not None for r in reps)
    assert len(set(reps)) == 2
    for rep in set(reps):
        assert g.in_degree(rep) == reps.count(rep) == 2
    vlv = helpers.levels(g, res.registers.vroot, 1)
    assert len(vlv[1]) == 2  # k = 1
    # balanced values: no node concentrates more than two in-edges
    assert res.stats["max_in_degree"] == 2


def test_all_equal_blocks_concentrate_in_degree():
    for n in (1, 2, 3, 4, 6):
        s = blocklang.encode(blocklang.gen_all_equal(n))
        res = run(PROG, s)
        assert res.verdict.accepted
        assert res.stats["max_in_degree"] == 2 ** n, n


def test_gap_profile_is_flat_at_cadence():
    rng = random.Random(5)
    for n in (1, 2, 3, 5, 8):
        s = blocklang.encode(blocklang.gen_positive(n, rng))
        tr = run(PROG, s).trace
        gaps = tr.gaps()
        assert gaps[0] == 0
        assert set(gaps[1:]) == {SMM_CADENCE}
        assert max_gap(tr) == SMM_CADENCE


def test_cadence_not_above_bounded_machine():
    assert SMM_CADENCE <= KUM_CADENCE


def test_real_time_report_constant_across_n():
    # every run's worst gap is the cadence itself, at every n
    rng = random.Random(6)
    for n in (1, 2, 4, 6):
        for _ in range(5):
            s = blocklang.encode(blocklang.gen_positive(n, rng))
            assert max_gap(run(PROG, s).trace) == SMM_CADENCE, (n, s)


def test_differential_against_oracle_and_kum():
    kum = build_kum_recognizer()
    rng = random.Random(9)
    for n in range(1, 7):
        for _ in range(25):
            s = blocklang.encode(blocklang.gen_positive(n, rng))
            chars = list(s)
            if rng.random() < 0.5:
                chars[rng.randrange(len(chars))] = rng.choice("01@#")
            s = "".join(chars)
            want = blocklang.member(s)
            assert run(PROG, s).verdict.accepted == want, s
            assert run(kum, s).verdict.accepted == want, s


def test_runs_are_deterministic():
    s = "10@01@11@00#01#11#"
    a = run(PROG, s)
    b = run(PROG, s)
    assert a.verdict == b.verdict
    assert a.trace.gaps() == b.trace.gaps()
    assert a.trace.halted and b.trace.halted
    assert a.stats == b.stats
