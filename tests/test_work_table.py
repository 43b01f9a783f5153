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


def _tally(top, s, res):
    """Raise each segment's maximum in top to the work of s's symbols in
    it, and return the total work of res, s's accepting run."""
    assert res.verdict.accepted, s
    work = res.trace.gaps()[1:]  # work of each symbol; on_end costs nothing
    for seg, w in zip(_segments(s), work):
        if w > top[seg]:
            top[seg] = w
    return sum(work)


@functools.cache
def _work(machine):
    """The machine's per-segment maxima, as a dict, its total steps and
    symbols over the corpus, and its no-op writes and empty probes
    (helpers.CheckedGraph) summed over the corpus."""
    prog = helpers.on_graphs(helpers.CheckedGraph,
                             helpers.MACHINES[machine].build(None))
    top = dict.fromkeys(SEGMENTS, 0)
    steps = symbols = noop_writes = empty_probes = 0
    for s in _corpus():
        res = run(prog, s)
        steps += _tally(top, s, res)
        symbols += len(s)
        noop_writes += res.graph.noop_writes
        empty_probes += res.graph.empty_probes
    return top, steps, symbols, (noop_writes, empty_probes)


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_per_segment_work_maxima(machine):
    top = _work(machine)[0]
    assert tuple(top[seg] for seg in SEGMENTS) == WORK_MAXIMA[machine], top
    assert max(top.values()) == helpers.MACHINES[machine].cadence


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_total_work(machine):
    assert _work(machine)[1:3] == WORK_TOTALS[machine]


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_y_field_worst_symbol(machine):
    # the corpus stops at n = 10, short of a KUM y symbol's worst, enqueue
    # 2 + two climbs 4 = 6, which odd n first reach at n = 11
    mach = helpers.MACHINES[machine]
    prog = mach.build(None)
    for n in (11, 13):
        s = blocklang.encode(blocklang.gen_positive(n, random.Random(n)))
        top = dict.fromkeys(SEGMENTS, 0)
        _tally(top, s, run(prog, s))
        assert top["y"] == Y_MAXIMA[machine], (n, top)
        assert max(top.values()) <= mach.cadence, (n, top)


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_no_wasted_primitive(machine):
    # no set_color rewrites a node's own color, and no neighbor probes a
    # child port of a trie node that has no child
    assert _work(machine)[3] == (0, 0)


def test_forked_waste_counter_keeps_counting():
    # a sweep forks its runners: the fork of a counting graph must be a
    # counting graph that starts from the same counts and counts on alone
    r = Runner(helpers.MACHINES["kum"].prog)
    for ch in "01@":
        assert r.feed(ch) is None
    head = r.registers.c_head
    r.graph.set_color(head, r.graph.get_color(head))
    f = r.fork()
    assert type(f.graph) is helpers.CheckedGraph
    assert (f.graph.noop_writes, f.graph.empty_probes) == (1, 0)
    f.graph.set_color(head, f.graph.get_color(head))
    leaf = f.graph.create_node(BLANK)
    f.graph.neighbor(leaf, ZERO)
    assert (f.graph.noop_writes, f.graph.empty_probes) == (2, 1)
    assert (r.graph.noop_writes, r.graph.empty_probes) == (1, 0)
