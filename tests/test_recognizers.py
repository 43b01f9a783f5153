"""Checks both recognizers pass alike, run once per machine: the counter
chain, the flat gap at the machine's cadence, verdicts against the oracle
and determinism."""

import random

import pytest

from kumsim import blocklang
from kumsim.gadgets import CUR_HI, CUR_LO
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import Runner, max_gap, run
from kumsim.smm_recognizer import SMM_CADENCE, build_smm_recognizer

import helpers

MACHINES = {"kum": (build_kum_recognizer(), KUM_CADENCE),
            "smm": (build_smm_recognizer(), SMM_CADENCE)}
each_machine = pytest.mark.parametrize("machine", sorted(MACHINES))


@pytest.mark.parametrize("n", [3, 4])
@each_machine
def test_counter_chain_at_every_boundary(machine, n):
    # the chain is w = 2k + 1 long; at the boundary that opens block i it
    # holds i as the current index, and i - 1 decodes from its markers
    prog = MACHINES[machine][0]
    k = n // 2
    w = 2 * k + 1
    s = blocklang.encode(blocklang.gen_positive(n, random.Random(n)))
    r = Runner(prog)
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


@each_machine
def test_gap_profile_is_flat_at_cadence(machine):
    prog, cadence = MACHINES[machine]
    rng = random.Random(5)
    for n in (1, 2, 3, 5, 8):
        s = blocklang.encode(blocklang.gen_positive(n, rng))
        tr = run(prog, s).trace
        gaps = tr.gaps()
        assert gaps[0] == 0
        assert set(gaps[1:]) == {cadence}
        assert max_gap(tr) == cadence


@each_machine
def test_real_time_report_constant_across_n(machine):
    # every run's worst gap is the cadence itself, at every n
    prog, cadence = MACHINES[machine]
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 6):
        for _ in range(5):
            s = blocklang.encode(blocklang.gen_positive(n, rng))
            assert max_gap(run(prog, s).trace) == cadence, (n, s)


@each_machine
def test_differential_against_oracle(machine):
    prog = MACHINES[machine][0]
    for seed in (8, 9):
        rng = random.Random(seed)
        for n in range(1, 7):
            for _ in range(25):
                s = blocklang.encode(blocklang.gen_positive(n, rng))
                chars = list(s)
                if rng.random() < 0.5:
                    chars[rng.randrange(len(chars))] = rng.choice("01@#")
                s = "".join(chars)
                assert run(prog, s).verdict.accepted == \
                    blocklang.member(s), (seed, s)


@each_machine
def test_runs_are_deterministic(machine):
    prog = MACHINES[machine][0]
    s = "10@01@11@00#01#11#"
    a = run(prog, s)
    b = run(prog, s)
    assert a.verdict == b.verdict
    assert a.trace.gaps() == b.trace.gaps()
    assert a.trace.halted and b.trace.halted
    assert a.stats == b.stats
