"""Both recognizers: verdicts, fan-in and reject reasons, the counter
chain, the last index's lookups and verdicts against the oracle, run once
per machine, each through helpers.check_run, and check_run's refusal of
each damage it checks for; then the structure each machine builds."""

import dataclasses
import random

import pytest

from kumsim import blocklang
from kumsim.gadgets import BLANK, CUR_HI, CUR_LO, TAIL
from kumsim.runtime import RejectReason, Runner, run
from kumsim.smm_recognizer import V

import helpers

each_machine = pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
KUM = helpers.MACHINES["kum"].prog
SMM = helpers.MACHINES["smm"].prog

# (input, most blocks sharing one value, verdict)
KNOWN = [
    ("0@1@0@1#00#10#", 2, True),
    ("0@1@0@1#00#01#", 2, False),
    ("1@1@1@1#00#11#", 4, True),
    # x == y is a membership witness regardless of the values
    ("0@1@0@1#11#11#", 2, True),
    # n = 1: both blocks are empty, so every well-formed string accepts
    ("@#0#0#", 2, True), ("@#0#1#", 2, True), ("@#1#0#", 2, True),
    ("@#1#1#", 2, True),
]

REJECTS = [
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


@each_machine
def test_known_verdicts(machine):
    # the fan-in law holds on both machines, except that at n = 1 no KUM
    # node fills its DEGREE_BOUND ports (test_kum_recognizer.py)
    for s, m, want in KNOWN:
        kum_n1 = machine == "kum" and s.startswith("@")
        res = helpers.check_run(machine, s, None if kum_n1 else m)
        assert res.verdict.accepted is want, s


@each_machine
def test_reject_reasons(machine):
    for s, want in REJECTS:
        v = helpers.check_run(machine, s).verdict
        assert v.reason == want, (s, v.reason)


@pytest.mark.parametrize("n", [3, 4])
@each_machine
def test_counter_chain_at_every_boundary(machine, n):
    # the chain is w = 2k + 1 long; at the boundary that opens block i it
    # holds i as the current index, and i - 1 decodes from its markers
    k = n // 2
    w = 2 * k + 1
    s = blocklang.encode(blocklang.gen_positive(n, random.Random(n)))
    r = Runner(helpers.MACHINES[machine].prog)
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
        if i == 1:  # the all-zero index path exists to full depth
            assert len(helpers.levels(g, 0, k + 2)) == k + 2
    assert i == 2 ** n - 1
    assert r.finish().verdict.accepted


def _at_boundaries(damage):
    """A change of a machine's program: damage(g, R) runs after each '@',
    where the chain's head is wired at TAIL."""
    def change(mach):
        real = mach.prog.on_symbol

        def on_symbol(g, R, ch):
            v = real(g, R, ch)
            if ch == "@":
                damage(g, R)
            return v
        return dataclasses.replace(mach.prog, on_symbol=on_symbol)
    return change


# (machine, change of its program, check_run's message); each damage
# spends few enough steps to keep within the cadence
DAMAGES = {
    "retarget": ("smm", _at_boundaries(
        lambda g, R: g.set_pointer(R.c_head, TAIL, R.c_head)),
        "checked graph: set_pointer.* retargets"),
    "blank-read": ("smm", _at_boundaries(lambda g, R: g.get_color(R.vroot)),
                   r"checked graph: get_color\(\d+\) reads 0"),
    "own-color": ("kum", _at_boundaries(
        lambda g, R: g.set_color(R.c_head, g.get_color(R.c_head))),
        "no-op set_color"),
    "childless-probe": ("kum", _at_boundaries(
        lambda g, R: g.neighbor(g.create_node(BLANK), 0)),
        "probe of a childless node"),
    "unpadded": ("smm", lambda mach: helpers.on_graphs(
        helpers.CheckedGraph, mach.build(None)), "gap profile not flat"),
}


def _fails(machine, change, message, monkeypatch):
    mach = helpers.MACHINES[machine]
    monkeypatch.setitem(helpers.MACHINES, machine,
                        mach._replace(prog=change(mach)))
    with pytest.raises(AssertionError, match=message):
        helpers.check_run(machine, "0@1@0@1#00#10#")


@each_machine
def test_check_run_fails_a_program_that_unlinks(machine, monkeypatch):
    _fails(machine, _at_boundaries(lambda g, R: g.unlink(R.c_head, TAIL)),
           "checked graph: unlink", monkeypatch)


@pytest.mark.parametrize("damage", DAMAGES)
def test_check_run_fails_a_damaged_program(damage, monkeypatch):
    _fails(*DAMAGES[damage], monkeypatch)


@each_machine
def test_lookups_of_the_last_index(machine):
    # x finishes the per-value path of 2^n - 1, all ones, from finite
    # control, and for even n y climbs only to the pad's node: look it up
    # with itself, with a carrier of its value and with a non-carrier,
    # as x and as y, at every n
    rng = random.Random(12)
    runs = 0
    for n in range(1, 11):
        inst = blocklang.gen_positive(n, rng)
        last = 2 ** n - 1
        pairs = [(last, last)]
        for same in (True, False):
            others = [j for j in range(last)
                      if (inst.blocks[j] == inst.blocks[last]) is same]
            if others:
                j = rng.choice(others)
                pairs += [(last, j), (j, last)]
        for x, y in pairs:
            s = blocklang.encode(dataclasses.replace(
                inst, x=format(x, "0%db" % n), y=format(y, "0%db" % n)))
            helpers.check_run(machine, s)
            runs += 1
    assert runs == 48  # n = 1 has no non-carrier: its blocks are empty


@each_machine
def test_flags_hold_bools_and_carries_bits(machine):
    # flags and carries are finite control, never a node: ANCHOR, node 0,
    # is falsy, so a flag holding it would read as clear
    flags = ("f_past", "f_lead", "f_ifresh", "f_vtfresh", "f_pvfresh")
    carries = ("f_lo", "f_pvlo")
    positive = blocklang.gen_positive(4, random.Random(4))
    inputs = ([s for s, _, _ in KNOWN] + [s for s, _ in REJECTS]
              + [blocklang.encode(positive)])
    for s in inputs:
        r = Runner(helpers.MACHINES[machine].prog)
        for ch in s:
            if r.feed(ch) is not None:
                break
            regs = dict(r.registers)  # the SMM has no f_pvfresh or f_pvlo
            for name in flags:
                v = regs.get(name)
                assert v is None or type(v) is bool, (s, name, v)
            for name in carries:
                v = regs.get(name)  # 0 == False: test the type, not "in"
                assert v is None or (type(v) is int and v in (0, 1)), \
                    (s, name, v)


@each_machine
def test_differential_against_oracle(machine):
    for seed in (8, 9):
        rng = random.Random(seed)
        for n in range(1, 7):
            for _ in range(25):
                s = blocklang.encode(blocklang.gen_positive(n, rng))
                chars = list(s)
                if rng.random() < 0.5:
                    chars[rng.randrange(len(chars))] = rng.choice("01@#")
                helpers.check_run(machine, "".join(chars))


# -- the bounded machine's tries ---------------------------------------------

def test_structure_counts_after_accepting_run():
    inst = blocklang.Instance(4, ("00", "11", "01", "10") * 4, "0011", "0111")
    s = blocklang.encode(inst)
    assert blocklang.member(s)
    res = run(KUM, s)
    assert res.verdict.accepted
    # one index leaf per block, one per-value leaf per index, one value
    # leaf per distinct block value, and no other node holds a val link
    assert helpers.kum_census(res, inst.k) == (
        2 ** inst.n, 2 ** inst.n, len(set(inst.blocks)), 2 ** (inst.n + 1))


def test_nodes_per_symbol():
    # one index leaf per block and one per-value leaf per index, but no
    # copy of the block values: the graph stays within 1.5 nodes a symbol
    s = blocklang.encode(blocklang.gen_positive(10, random.Random(10)))
    res = run(KUM, s)
    assert res.verdict.accepted
    assert res.stats["node_count"] <= 1.5 * len(s), res.stats


# -- the directed machine's shared representatives ---------------------------

def test_value_sharing_by_pointer_identity():
    # two distinct values among four blocks: two representative nodes,
    # each the v target of exactly the two index leaves carrying it
    s = "0@1@0@1#00#10#"
    res = run(SMM, s)
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
    # all 2^n blocks share one value, so its representative has in-degree
    # 2^n (check_run's fan-in law)
    for n in (1, 2, 3, 4, 6):
        s = blocklang.encode(blocklang.gen_all_equal(n))
        assert helpers.check_run("smm", s, m=2 ** n).verdict.accepted, n
