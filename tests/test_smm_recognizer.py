"""Directed-pointer recognizer: verdicts, in-degree shape, pacing."""

from kumsim import blocklang
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import run
from kumsim.smm_recognizer import SMM_CADENCE, V, build_smm_recognizer

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


def test_cadence_not_above_bounded_machine():
    assert SMM_CADENCE <= KUM_CADENCE
