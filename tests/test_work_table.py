"""Per-segment work of both recognizers, pinned as measured maxima.

Each machine runs unpadded (cadence=None) on 9 accepting inputs per n
for n = 1..10, and each symbol's steps go to the input segment it belongs
to, split as the benchmark splits them: block 0's bits, later blocks'
bits, the block section's separators ('@' and the first '#'), the x
field with its closing '#', and everything after it.  The maximum of each
segment is what a proof of the cadences has to reproduce, and the
largest of them is the cadence itself.  The exact totals of steps and
symbols are pinned too, so a change that raises the average cost without
raising any maximum fails here.  On the same inputs neither machine
spends a primitive whose outcome it already knew.
"""

import functools
import random

import pytest

import helpers
from kumsim import blocklang
from kumsim.gadgets import BLANK, ZERO
from kumsim.runtime import Runner, run

SEGMENTS = ("block0", "blocks", "sep", "x", "y")
# Each machine's maximum per segment, in SEGMENTS order.
WORK_MAXIMA = {"kum": (6, 11, 9, 6, 5), "smm": (6, 8, 8, 2, 2)}
# Each machine's (steps, symbols) over the whole corpus.
WORK_TOTALS = {"kum": (620608, 99468), "smm": (487646, 99468)}
INPUTS_PER_N = 9
# Each machine's y maximum at n = 11 and 13, beyond the corpus.
Y_MAXIMA = {"kum": 6, "smm": 2}


def _segments(s):
    """The segment of each symbol of s, an accepting input."""
    out = []
    section = "block0"
    for ch in s:
        if section in ("block0", "blocks"):
            if ch == "@":
                out.append("sep")
                section = "blocks"
            elif ch == "#":
                out.append("sep")
                section = "x"
            else:
                out.append(section)
        elif section == "x":
            out.append("x")
            if ch == "#":
                section = "y"
        else:
            out.append("y")
    return out


def _corpus():
    """The accepting inputs, as strings."""
    for n in range(1, 11):
        rng = random.Random(n)
        insts = [blocklang.gen_positive(n, rng)
                 for _ in range(INPUTS_PER_N - 1)]
        insts.append(blocklang.gen_all_equal(n))
        for inst in insts:
            yield blocklang.encode(inst)


@functools.cache
def _work(machine):
    """The machine's per-segment maxima, as a dict, and its total steps
    and symbols over the corpus."""
    prog = helpers.MACHINES[machine].build(None)
    top = dict.fromkeys(SEGMENTS, 0)
    steps = symbols = 0
    for s in _corpus():
        r = Runner(prog)
        for ch in s:
            assert r.feed(ch) is None, s
        res = r.finish()
        assert res.verdict.accepted, s
        # gap i + 1 is the work of symbol i; on_end costs nothing
        for seg, work in zip(_segments(s), res.trace.gaps()[1:]):
            if work > top[seg]:
                top[seg] = work
            steps += work
        symbols += len(s)
    return top, steps, symbols


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_per_segment_work_maxima(machine):
    top = _work(machine)[0]
    assert tuple(top[seg] for seg in SEGMENTS) == WORK_MAXIMA[machine], top
    assert max(top.values()) == helpers.MACHINES[machine].cadence


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_total_work(machine):
    assert _work(machine)[1:] == WORK_TOTALS[machine]


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_y_field_worst_symbol(machine):
    # the corpus stops at n = 10, short of a KUM y symbol's worst, enqueue
    # 2 + two climbs 4 = 6, which odd n first reach at n = 11
    mach = helpers.MACHINES[machine]
    prog = mach.build(None)
    for n in (11, 13):
        s = blocklang.encode(blocklang.gen_positive(n, random.Random(n)))
        res = run(prog, s)
        assert res.verdict.accepted, n
        top = dict.fromkeys(SEGMENTS, 0)
        for seg, work in zip(_segments(s), res.trace.gaps()[1:]):
            top[seg] = max(top[seg], work)
        assert top["y"] == Y_MAXIMA[machine], (n, top)
        assert max(top.values()) <= mach.cadence, (n, top)


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_no_wasted_primitive(machine):
    # no set_color rewrites a node's own color, and no neighbor probes a
    # child port of a trie node that has no child
    prog = helpers.on_graphs(helpers.WasteCountingGraph,
                             helpers.MACHINES[machine].build(None))
    noop_writes = empty_probes = 0
    for s in _corpus():
        res = run(prog, s)
        assert res.verdict.accepted, s
        noop_writes += res.graph.noop_writes
        empty_probes += res.graph.empty_probes
    assert (noop_writes, empty_probes) == (0, 0)


def test_forked_waste_counter_keeps_counting():
    # a sweep forks its runners: the fork of a counting graph must be a
    # counting graph that starts from the same counts and counts on alone
    prog = helpers.on_graphs(helpers.WasteCountingGraph,
                             helpers.MACHINES["kum"].build(None))
    r = Runner(prog)
    for ch in "01@":
        assert r.feed(ch) is None
    r.graph.set_color(0, r.graph.get_color(0))
    f = r.fork()
    assert type(f.graph) is helpers.WasteCountingGraph
    assert (f.graph.noop_writes, f.graph.empty_probes) == (1, 0)
    f.graph.set_color(0, f.graph.get_color(0))
    leaf = f.graph.create_node(BLANK)
    f.graph.neighbor(leaf, ZERO)
    assert (f.graph.noop_writes, f.graph.empty_probes) == (2, 1)
    assert (r.graph.noop_writes, r.graph.empty_probes) == (1, 0)
